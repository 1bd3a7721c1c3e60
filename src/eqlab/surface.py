"""Closed-surface desk models built from pants: Fenchel-Nielsen data,
holonomy representations, twist flows, and the spiral-transport shear
across a cuff.

The genus-two harness glues two pants (each a pair of ideal triangles)
along three cuffs.  Each cuff carries a length and a twist; earthquakes
in cuff multicurves translate the twists.  The shear of an arc crossing
a cuff is read from where a reference leaf lands on the cuff geodesic
through the two spiraling triangle families.  The spiral transport
converges, and each landing is its exact limit: a log-height in its own
spiral frame, where the cuff axis is (0, inf), in closed form from the
corner holonomy and the cuff length.  The shear is the twist plus the two
log-heights: twisting the gluing by epsilon moves it by exactly epsilon,
at any size of twist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .hyp import (
    BoundaryPoint,
    EarthquakeRangeError,
    Geodesic,
    HPoint,
    MoebiusTransform,
    SHIFT_LIMIT,
    apply,
    moebius_from_triples,
    orientation,
    project_to_geodesic,
)
from .triangle import (
    IdealTriangle,
    ShearTriangulation,
    edge_tangency_point,
    holonomy,
    pants_boundary_words,
    pants_triangulation,
    shears_from_cuffs,
)


class InvalidGluingError(ValueError):
    """The gluing data does not describe the supported closed surface."""


class UnsupportedCurveError(ValueError):
    """A multicurve weight references a cuff the surface does not have."""


@dataclass(frozen=True)
class Gluing:
    """One cuff: a pair of pants boundary slots with length and twist."""

    id: int
    cuffs: tuple[tuple[int, int], tuple[int, int]]
    length: float
    twist: float
    spiral_signs: tuple[int, int] = (1, 1)


@dataclass(frozen=True)
class FNSurface:
    pants: tuple[int, ...]
    gluings: tuple[Gluing, ...]

    def __post_init__(self):
        used = set()
        for g in self.gluings:
            if not g.length > 0.0:
                raise InvalidGluingError(f"cuff {g.id} needs positive length")
            for pants_id, slot in g.cuffs:
                if pants_id not in self.pants:
                    raise InvalidGluingError(f"cuff {g.id} references unknown pants {pants_id}")
                if slot not in (0, 1, 2):
                    raise InvalidGluingError(f"cuff {g.id} has invalid slot {slot}")
                if (pants_id, slot) in used:
                    raise InvalidGluingError(f"boundary slot {(pants_id, slot)} glued twice")
                used.add((pants_id, slot))
        for pants_id in self.pants:
            for slot in range(3):
                if (pants_id, slot) not in used:
                    raise InvalidGluingError(f"boundary slot {(pants_id, slot)} left unglued")

    @classmethod
    def genus2(cls, lengths=(2.0, 2.5, 3.0), twists=(0.0, 0.0, 0.0),
               spiral_signs=((1, 1), (1, 1), (1, 1))) -> "FNSurface":
        """Two pants glued slot-to-slot along three cuffs."""
        return cls(
            pants=(0, 1),
            gluings=tuple(
                Gluing(k, ((0, k), (1, k)), lengths[k], twists[k], spiral_signs[k])
                for k in range(3)
            ),
        )

    def gluing_by_id(self, cuff_id: int) -> Gluing:
        for g in self.gluings:
            if g.id == cuff_id:
                return g
        raise UnsupportedCurveError(f"no cuff with id {cuff_id}")

    def pants_slot_data(self, pants_id: int):
        """(length, spiral sign, gluing) per boundary slot of one pants."""
        out = [None, None, None]
        for g in self.gluings:
            for side, (pid, slot) in enumerate(g.cuffs):
                if pid == pants_id:
                    out[slot] = (g.length, g.spiral_signs[side], g)
        return out

    def pants_triangulation(self, pants_id: int) -> ShearTriangulation:
        data = self.pants_slot_data(pants_id)
        lengths = tuple(d[0] for d in data)
        signs = tuple(d[1] for d in data)
        return pants_triangulation(*shears_from_cuffs(*lengths, signs))


@dataclass(frozen=True)
class WeightedMulticurve:
    """Nonnegative weights on cuff ids, at least one positive."""

    weights: dict

    def __post_init__(self):
        if not any(w > 0.0 for w in self.weights.values()):
            raise ValueError("multicurve needs at least one positive weight")
        if any(w < 0.0 for w in self.weights.values()):
            raise ValueError("multicurve weights must be nonnegative")

    def weight(self, cuff_id: int) -> float:
        return self.weights.get(cuff_id, 0.0)


@dataclass(frozen=True)
class HolonomyRep:
    """Surface group representation: four generators and one relator.

    Generators: 'a' and 'b' are two cuff loops, 'c' and 'd' the
    connector loops through the other two cuffs; uppercase letters in a
    word denote inverses.  The third cuff loop is the word "BA".
    """

    generators: dict
    relator: str = "abcACdBD"

    def evaluate(self, word: str) -> MoebiusTransform:
        m = MoebiusTransform.identity()
        for letter in word:
            g = self.generators[letter.lower()]
            m = m @ (g.inverse() if letter.isupper() else g)
        return m

    def relator_defect(self) -> float:
        return self.evaluate(self.relator).projective_distance(MoebiusTransform.identity())


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


def _twist_matrix(tau: float) -> MoebiusTransform:
    if not abs(tau) <= SHIFT_LIMIT:
        raise EarthquakeRangeError(f"twist {tau!r} is beyond float range: e^(|twist|/2) is a "
                                   f"float only while |twist| <= {SHIFT_LIMIT:.6g}")
    e = math.exp(tau / 2.0)
    return MoebiusTransform.unimodular(e, 0.0, 0.0, 1.0 / e)


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


def fn_to_holonomy(s: FNSurface) -> HolonomyRep:
    """Amalgamate the two pants representations along the three cuffs.

    The front pants provides the cuff generators; the back pants is
    conjugated so its first cuff matches the front one reversed, at the
    first twist; connectors through the other two cuffs carry the other
    twists.  The relator holds by construction and is re-verified
    numerically by callers.  Raises EarthquakeRangeError, naming the
    twists, when a twist matrix or a generator leaves float range.
    """
    if len(s.pants) != 2 or len(s.gluings) != 3:
        raise InvalidGluingError("holonomy assembly expects two pants and three cuffs")
    front, back = s.pants
    for k, g in enumerate(s.gluings):
        pants_ids = {pid for pid, _ in g.cuffs}
        if pants_ids != {front, back}:
            raise InvalidGluingError("each cuff must join the two pants")
        slots = {slot for _, slot in g.cuffs}
        if slots != {k}:
            raise InvalidGluingError(
                "holonomy assembly expects slot-aligned gluings (cuff k at slot k)"
            )

    lengths = tuple(g.length for g in s.gluings)
    twists = tuple(g.twist for g in s.gluings)
    A = B = pants_rep(*lengths)  # A[0] A[1] A[2] = identity up to sign

    f_a1_inv = axis_frame(A[0].inverse())
    f_b = tuple(axis_frame(B[k]) for k in range(3))
    conj = f_a1_inv @ _twist_matrix(twists[0]) @ f_b[0].inverse()

    def connector(k: int) -> MoebiusTransform:
        # covariant frame for the conjugated back cuff keeps the Dehn
        # substitution exact for the first twist as well
        frame_back = conj @ f_b[k]
        return frame_back @ _twist_matrix(twists[k]) @ axis_frame(A[k].inverse()).inverse()

    generators = {"a": A[1], "b": A[2], "c": connector(1), "d": connector(2)}
    if not all(math.isfinite(x) for g in generators.values() for x in g.entries()):
        raise EarthquakeRangeError(f"twists {twists!r} carry the generators beyond float range "
                                   f"(|twist| <= {SHIFT_LIMIT:.6g}, less on long cuffs)")
    return HolonomyRep(generators)


def earthquake_flow(s: FNSurface, mc: WeightedMulticurve, t: float) -> FNSurface:
    """Twist translation: lengths unchanged, twists advanced by t times weight.

    Raises EarthquakeRangeError when a moved twist is not a finite float.
    """
    ids = {g.id for g in s.gluings}
    for cuff_id in mc.weights:
        if cuff_id not in ids:
            raise UnsupportedCurveError(f"multicurve weight on unknown cuff {cuff_id}")
    gluings = []
    for g in s.gluings:
        shift = t * mc.weight(g.id)
        twist = g.twist + shift
        if not math.isfinite(twist):
            raise EarthquakeRangeError(
                f"earthquake shift t·w = {shift!r} moves the twist {g.twist!r} of cuff {g.id} "
                "beyond float range"
            )
        gluings.append(replace(g, twist=twist))
    return FNSurface(pants=s.pants, gluings=tuple(gluings))


def multicurve_length(s: FNSurface, mc: WeightedMulticurve) -> float:
    """Weighted sum of cuff lengths; invariant under earthquake_flow in mc."""
    ids = {g.id for g in s.gluings}
    for cuff_id in mc.weights:
        if cuff_id not in ids:
            raise UnsupportedCurveError(f"multicurve weight on unknown cuff {cuff_id}")
    return sum(mc.weight(g.id) * g.length for g in s.gluings)


def _spiral_direction(tri: ShearTriangulation, slot: int):
    """The corner word at one cuff along which the spiral layers converge.

    Both corner words turn about the vertex shared by the two sides of
    the root triangle (-1, 0, inf) they cross.  The layers converge along
    the word whose holonomy repels from that corner, which is the forward
    word exactly when its two shears sum to a negative number.  Returns
    the word, its holonomy, its first root side and the corner's index.
    """
    word = pants_boundary_words()[slot]
    if sum(tri.edge_by_id(edge_id).shear for edge_id in word) >= 0.0:
        word = tuple(reversed(word))
    first, second = (tri.cross(tri.triangles[0], edge_id)[0][1] for edge_id in word)
    corner = ({first, (first + 1) % 3} & {second, (second + 1) % 3}).pop()
    return word, holonomy(tri, word), first, corner


def _spiral_landing(tri: ShearTriangulation, slot: int) -> float:
    """Log-height of the reference leaf's landing on the cuff at one slot.

    The spiral frame F = axis_frame(h^-1)^-1 sends the corner vertex v,
    the repelling fixed point of the corner holonomy h, to infinity and
    its attracting fixed point a to 0.  There the layers are vertical
    lines Re z = x_m with x_{m+2} = e^{-L} x_m, so they close in on the
    cuff axis Re z = 0, and the reference leaf is the horizontal
    horocycle through the first side's tangency point p: the transport
    converges to i Im F(p).  The standard triangle's tangency points lie
    on its canonical horocycles (y = 1 at infinity, |z - r|^2 = y at
    r = -1, 0), so Im F(p) = gap(v, a) with v and a normalized as
    BoundaryPoints: |a - r| / max(|a|, 1) at a finite corner r, and
    1 / max(|a|, 1) at infinity.  The distance |a - r| = |tr h / c|
    tanh(L/2), or |a| = |b| / (|tr h| tanh(L/2)) when v is infinity, takes
    L = |s_i + s_j| from the two shears of the corner word, so it does not
    cancel in tr^2 - 4 and is free of the matrix's scale.
    """
    word, h, _, corner = _spiral_direction(tri, slot)
    length = abs(sum(tri.edge_by_id(edge_id).shear for edge_id in word))
    spread = math.tanh(0.5 * length)  # sqrt(1 - 4 / tr^2)
    if spread == 0.0:
        raise InvalidGluingError(
            f"the pants shears at slot {slot} resolve a cuff length of only {length!r}"
        )
    # in logs: for a subnormal tanh(L/2), |a - r| may underflow and |a| overflow
    if corner == 2:  # v = inf: h = (a_h b_h; 0 d_h) fixes b_h / (d_h - a_h)
        return -max(math.log(abs(h.b)) - math.log(abs(h.trace) * spread), 0.0)
    r = (-1.0, 0.0)[corner]
    log_gap = math.log(abs(h.trace / h.c)) + math.log(spread)
    # a + r = (a_h - d_h) / c, the sum of the fixed points, gives the side of r
    a = r + math.copysign(math.exp(log_gap), (h.a - h.d) / h.c - 2.0 * r)
    return log_gap - math.log(max(abs(a), 1.0))


def cuff_landing_oracle(tri: ShearTriangulation, slot: int) -> HPoint:
    """Closed-form landing point: all spiral spikes at one cuff share the
    corner vertex, so the reference leaf is a single horocycle centered
    there; intersect it with the cuff axis directly."""
    word, h, first, corner = _spiral_direction(tri, slot)
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


def cuff_offset(s: FNSurface, cuff_id: int) -> float:
    """The twist-independent part of the shear across a cuff: the sum of
    both spiral landings' log-heights.

    Both landings depend on the cuff lengths and spiral signs only.  The
    shear is the log-ratio of the two landings along the cuff axis, read
    in the axis frame of side A's cuff holonomy h_a.  Since
    axis_frame(h^-1) = axis_frame(h) o (z -> -1/z), side A's landing z_a
    sits at -1/z_a in that frame, and the gluing at twist tau carries side
    B's landing z_b to e^tau z_b, so the shear is tau + log|z_a| + log|z_b|.
    """
    g = s.gluing_by_id(cuff_id)
    (pants_a, slot_a), (pants_b, slot_b) = g.cuffs
    return (_spiral_landing(s.pants_triangulation(pants_a), slot_a)
            + _spiral_landing(s.pants_triangulation(pants_b), slot_b))


def shear_across_cuff(s: FNSurface, cuff_id: int) -> float:
    """Shear between the reference triangles of the two pants at a cuff:
    the cuff's twist plus its offset, so a Fenchel-Nielsen twist by
    epsilon changes it by exactly epsilon."""
    return s.gluing_by_id(cuff_id).twist + cuff_offset(s, cuff_id)
