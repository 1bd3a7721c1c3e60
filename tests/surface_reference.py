"""Test-side references for the genus-two holonomy and the cuff landings.

The library reads each cuff's fixed points from the shears
(`surface._cuff_axis`).  The references here find them the classical way,
from the matrix: `fixed_points` and `axis_frame` in floats, where
tr^2 - 4 cancels 2 log10(1/L) digits on a cuff of length L, and the
`decimal_*` functions at 50 digits, where that loss is harmless.
`cuff_landing_oracle` lands the reference leaf by a Moebius normalization
and a projection, independently of the closed-form landing.  `pants_rep`
gives one pants' boundary holonomies, which only the tests read on their
own, and `multicurve_length` the weighted length of a cuff multicurve,
which the earthquake in it leaves unchanged.  `dehn_twist_substitution`
is the table of generator words a full twist of one cuff realizes on the
canonical genus-two holonomy, and `substitute_word` rewrites a word by
such a table.
"""

import math
from decimal import Decimal, localcontext

from eqlab.hyp import (
    BoundaryPoint,
    Geodesic,
    HPoint,
    MoebiusTransform,
    _mul,
    apply,
    orientation,
)
from eqlab.surface import FNSurface, UnsupportedCurveError, WeightedMulticurve, _spiral_direction
from eqlab.triangle import (
    _ROTATION_POWERS,
    IdealTriangle,
    edge_tangency_point,
    pants_boundary_words,
    pants_triangulation,
    shears_from_cuffs,
)

from hyp_reference import moebius_from_triples, project_to_geodesic
from triangle_reference import holonomy


def pants_rep(l1: float, l2: float, l3: float):
    """Boundary holonomies of the pants with the given cuff lengths.

    Returns three hyperbolic elements whose translation lengths are the
    cuff lengths and whose ordered product is the identity up to sign.
    Cusps are not allowed here: lengths must be positive.
    """
    for l in (l1, l2, l3):
        if not l > 0.0:
            raise ValueError("pants boundary lengths must be positive")
    tri = pants_triangulation(*shears_from_cuffs(l1, l2, l3))
    return tuple(holonomy(tri, w) for w in pants_boundary_words())


def multicurve_length(s: FNSurface, mc: WeightedMulticurve) -> float:
    """Weighted sum of cuff lengths; invariant under earthquake_flow in mc."""
    for cuff_id in mc.weights:
        if cuff_id not in range(len(s.gluings)):
            raise UnsupportedCurveError(f"multicurve weight on unknown cuff {cuff_id}")
    return sum(mc.weight(k) * g.length for k, g in enumerate(s.gluings))


def dehn_twist_substitution(cuff_index: int) -> dict:
    """Generator substitution realized by twisting one cuff by its length.

    Returns a map letter -> replacement word for the rep of the
    canonical genus-two surface.
    """
    if cuff_index == 0:
        return {"a": "a", "b": "b", "c": "abc", "d": "abd"}
    if cuff_index == 1:
        return {"a": "a", "b": "b", "c": "cA", "d": "d"}
    if cuff_index == 2:
        return {"a": "a", "b": "b", "c": "c", "d": "dB"}
    raise ValueError("cuff index must be 0, 1 or 2")


def substitute_word(word: str, substitution: dict) -> str:
    def flip(w: str) -> str:
        return "".join(ch.lower() if ch.isupper() else ch.upper() for ch in reversed(w))

    out = []
    for letter in word:
        rep = substitution[letter.lower()]
        out.append(flip(rep) if letter.isupper() else rep)
    return "".join(out)


def fixed_points(m: MoebiusTransform) -> tuple[BoundaryPoint, BoundaryPoint]:
    """(repelling, attracting) fixed points of a hyperbolic element."""
    if abs(m.trace) <= 2.0:
        raise ValueError("fixed points requested for a non-hyperbolic element")
    if abs(m.c) > 1e-12:
        disc = math.sqrt(m.trace * m.trace - 4.0)
        # the root where a - d and disc add without cancelling, and the
        # other from the product of the roots, -b/c
        x1 = (m.a - m.d + math.copysign(disc, m.a - m.d)) / (2.0 * m.c)
        x2 = -m.b / (m.c * x1)
        p1, p2 = BoundaryPoint.from_value(x1), BoundaryPoint.from_value(x2)
        # attracting fixed point has derivative modulus below one: |cx + d| > 1
        if abs(m.c * x1 + m.d) > 1.0:
            return p2, p1
        return p1, p2
    finite = BoundaryPoint.from_value(m.b / (m.d - m.a))
    inf = BoundaryPoint.infinity()
    if abs(m.a) > abs(m.d):
        return finite, inf  # infinity attracting
    return inf, finite


def axis_frame(m: MoebiusTransform) -> MoebiusTransform:
    """Frame with F^-1 m F = diag(e^{l/2}, e^{-l/2}): 0 to the repelling,
    infinity to the attracting fixed point.  Deterministic choice of the
    diagonal freedom."""
    rep, att = fixed_points(m)
    a, b = att.p, rep.p
    c, d = att.q, rep.q
    if a * d - b * c < 0.0:
        b, d = -b, -d
    return MoebiusTransform(a, b, c, d)


def cuff_landing_oracle(shears, slot: int) -> HPoint:
    """Closed-form landing point: all spiral spikes at one cuff share the
    corner vertex, so the reference leaf is a single horocycle centered
    there; intersect it with the cuff axis directly."""
    word, h, corner = _spiral_direction(shears, slot)
    first = word[0]
    rep, att = fixed_points(h)
    root = IdealTriangle.standard()
    vertex = root.vertices[corner]
    a = root.vertices[first if corner == (first + 1) % 3 else (first + 1) % 3]
    # normalize the spike between the first edge and the cuff axis to vertical
    # edges at 0 and 1, keeping the orientation; the axis lands on the last
    ends = (0.0, 1.0) if orientation(a, vertex, att) < 0.0 else (1.0, 0.0)
    w = moebius_from_triples((a, vertex, att), (BoundaryPoint.from_value(ends[0]),
                                                BoundaryPoint.infinity(),
                                                BoundaryPoint.from_value(ends[1])))
    height = apply(w, edge_tangency_point(root, first)).y
    landed = apply(w.inverse(), HPoint(ends[1], height))
    # the normalization loses relative accuracy across a thin gap; snap
    # the landing back onto the cuff axis
    return project_to_geodesic(Geodesic(rep, att), landed)


def decimal_holonomy(tri, word, digits: int = 50):
    """The edge/turn product of `triangle_reference.holonomy`, from the same
    shears, at `digits` digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        t, crossings = tri.triangles[0], []
        for edge_id in word:
            (_, exit_side), (t, entry_side) = tri.cross(t, edge_id)
            crossings.append((exit_side, entry_side, Decimal(tri.edge_by_id(edge_id).shear)))
        m = tuple(map(Decimal, _ROTATION_POWERS[(1 - crossings[0][0]) % 3]))
        next_exits = [exit_side for exit_side, _, _ in crossings[1:]] + [1]
        zero = Decimal(0)
        for (_, entry_side, shear), next_exit in zip(crossings, next_exits):
            e = (shear / 2).exp()
            turns = ((e, e, zero, 1 / e), (e, zero, 1 / e, 1 / e), (zero, -e, 1 / e, zero))
            m = _mul(m, turns[(entry_side + 2 - next_exit) % 3])
        return m


def normalized(p, q):
    """A projective pair as BoundaryPoint stores it: max(|p|, |q|) = 1, q >= 0."""
    top = max(abs(p), abs(q))
    p, q = p / top, q / top
    return (-p, -q) if q < 0 or (q == 0 and p < 0) else (p, q)


def pair_gap(x, y):
    """BoundaryPoint.gap of two projective pairs, each normalized first, in Decimal."""
    x, y = [tuple(map(Decimal, v)) for v in (x, y)]
    return abs(x[0] * y[1] - y[0] * x[1]) / (max(map(abs, x)) * max(map(abs, y)))


def decimal_fixed_points(m, digits: int = 50):
    """(repelling, attracting) fixed points of a hyperbolic (a, b, c, d), as
    normalized pairs, from the eigenvalues (tr +- sqrt(tr^2 - 4)) / 2: the
    eigenvector of the larger one attracts."""
    a, b, c, d = m
    with localcontext() as ctx:
        ctx.prec = digits
        tr = a + d
        big = (tr + (tr * tr - 4).sqrt().copy_sign(tr)) / 2

        def eigenvector(lam):
            # each row of m - lam I gives one; the larger is the better resolved
            return max((b, lam - a), (lam - d, c), key=lambda v: max(map(abs, v)))

        return normalized(*eigenvector(1 / big)), normalized(*eigenvector(big))


def decimal_axis_frame(rep, att, digits: int = 50):
    """`axis_frame` in Decimal, from normalized (repelling, attracting) pairs."""
    (ap, aq), (rp, rq) = att, rep
    with localcontext() as ctx:
        ctx.prec = digits
        det = ap * rq - rp * aq
        scale = 1 / abs(det).sqrt()
        turn = scale.copy_sign(det)
        return (ap * scale, rp * turn, aq * scale, rq * turn)


def decimal_generators(s, digits: int = 50) -> dict:
    """`surface.fn_to_holonomy` at `digits` digits, from the same shears and
    with the same frame normalization, each cuff's fixed points from
    `decimal_fixed_points`."""
    with localcontext() as ctx:
        ctx.prec = digits
        tri = pants_triangulation(*shears_from_cuffs(*(g.length for g in s.gluings)))
        A = [decimal_holonomy(tri, word, digits) for word in pants_boundary_words()]
        axes = [decimal_fixed_points(h, digits) for h in A]
        forward = [decimal_axis_frame(rep, att, digits) for rep, att in axes]
        backward = [decimal_axis_frame(att, rep, digits) for rep, att in axes]

        def twist(k):
            e = (Decimal(s.twists[k]) / 2).exp()
            return (e, Decimal(0), Decimal(0), 1 / e)

        def inverse(m):
            return (m[3], -m[1], -m[2], m[0])

        conj = _mul(_mul(backward[0], twist(0)), inverse(forward[0]))

        def connector(k):
            return _mul(_mul(_mul(conj, forward[k]), twist(k)), inverse(backward[k]))

        return {"a": A[1], "b": A[2], "c": connector(1), "d": connector(2)}


def generator_error(rep, want) -> float:
    """Worst entry error of a representation's generators against Decimal
    ones, relative to each generator's largest entry, minimized over sign."""
    worst = 0.0
    for name, g in rep.generators.items():
        ref = want[name]
        top = max(map(abs, ref))
        got = [Decimal(x) for x in g.entries()]
        worst = max(worst, min(float(max(abs(x - sign * y) for x, y in zip(got, ref)) / top)
                               for sign in (1, -1)))
    return worst
