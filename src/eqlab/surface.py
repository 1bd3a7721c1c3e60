"""Closed-surface desk models built from pants: Fenchel-Nielsen data,
holonomy representations, twist flows, and the spiral-transport shear
across a cuff.

The genus-two harness glues two pants (each a pair of ideal triangles)
along three cuffs.  Each cuff carries a length and a twist; earthquakes
in cuff multicurves translate the twists.  The shear of an arc crossing
a cuff is computed by developing the two spiraling triangle families,
transporting a reference vector through the crossing factors on each
side, and reading the signed gap between the two landing points on the
cuff geodesic.  Twisting the gluing by epsilon slides one landing point
by exactly epsilon, which is what the twist-response and conjugacy
verifiers check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .hyp import (
    BoundaryPoint,
    Geodesic,
    HPoint,
    MoebiusTransform,
    apply,
    moebius_from_triples,
    orientation,
    project_to_geodesic,
    translation_length,
)
from .transport import TailPolicy, truncation_bound
from .triangle import (
    Developer,
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
    e = math.exp(tau / 2.0)
    return MoebiusTransform(e, 0.0, 0.0, 1.0 / e)


_FLIP = MoebiusTransform(0.0, -1.0, 1.0, 0.0)  # swaps the ends of the axis


def fixed_points(m: MoebiusTransform) -> tuple[BoundaryPoint, BoundaryPoint]:
    """(repelling, attracting) fixed points of a hyperbolic element."""
    if abs(m.trace) <= 2.0:
        raise ValueError("fixed points requested for a non-hyperbolic element")
    if abs(m.c) > 1e-12:
        disc = math.sqrt(m.trace * m.trace - 4.0)
        x1 = (m.a - m.d + disc) / (2.0 * m.c)
        x2 = (m.a - m.d - disc) / (2.0 * m.c)
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
    numerically by callers.
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

    return HolonomyRep(
        generators={
            "a": A[1],
            "b": A[2],
            "c": connector(1),
            "d": connector(2),
        }
    )


def earthquake_flow(s: FNSurface, mc: WeightedMulticurve, t: float) -> FNSurface:
    """Twist translation: lengths unchanged, twists advanced by t times weight."""
    ids = {g.id for g in s.gluings}
    for cuff_id in mc.weights:
        if cuff_id not in ids:
            raise UnsupportedCurveError(f"multicurve weight on unknown cuff {cuff_id}")
    return FNSurface(
        pants=s.pants,
        gluings=tuple(
            replace(g, twist=g.twist + t * mc.weight(g.id)) for g in s.gluings
        ),
    )


def multicurve_length(s: FNSurface, mc: WeightedMulticurve) -> float:
    """Weighted sum of cuff lengths; invariant under earthquake_flow in mc."""
    ids = {g.id for g in s.gluings}
    for cuff_id in mc.weights:
        if cuff_id not in ids:
            raise UnsupportedCurveError(f"multicurve weight on unknown cuff {cuff_id}")
    return sum(mc.weight(g.id) * g.length for g in s.gluings)


@dataclass(frozen=True)
class CuffShear:
    value: float
    error_bound: float


@dataclass(frozen=True)
class _SideLanding:
    """One spiral side: landing of the reference leaf on the cuff."""

    landing: HPoint
    error_bound: float
    cuff_holonomy: MoebiusTransform


def _shared_vertex(e1: Geodesic, e2: Geodesic) -> BoundaryPoint:
    best, vertex = math.inf, None
    for p in (e1.start, e1.end):
        for q in (e2.start, e2.end):
            if p.gap(q) < best:
                best, vertex = p.gap(q), p
    if best > 1e-9:
        raise InvalidGluingError("consecutive spiral edges share no ideal vertex")
    return vertex


def _other_end(g: Geodesic, vertex: BoundaryPoint) -> BoundaryPoint:
    return g.end if g.start.gap(vertex) <= g.end.gap(vertex) else g.start


def _spiral_direction(tri: ShearTriangulation, slot: int):
    """The corner word at one cuff along which the spiral layers converge.

    Both corner words turn about the vertex shared by the two root sides
    they cross, and their holonomies are inverse to each other.  The
    layers converge to the cuff axis along the word whose holonomy has
    that corner vertex as its repelling fixed point.  Returns the
    developer holding the root placement, the word, its holonomy and
    the corner vertex.
    """
    word = pants_boundary_words()[slot]
    dev = Developer(tri)
    root = dev.place(())
    sides = [root.triangle.side(tri.cross(root.tri, letter)[0][1]) for letter in word]
    vertex = _shared_vertex(*sides)
    h = holonomy(tri, word)
    rep, att = fixed_points(h)
    if rep.gap(vertex) > 1e-9:
        if att.gap(vertex) > 1e-9:
            raise InvalidGluingError(
                f"neither corner word at slot {slot} repels from the shared corner vertex"
            )
        word, h = tuple(reversed(word)), h.inverse()
    return dev, word, h, vertex


_LAYER_CAP = 4000


def _spiral_landing(tri: ShearTriangulation, slot: int, depth_budget: float,
                    policy: TailPolicy | None = None) -> _SideLanding:
    """Transport the reference leaf through the spiral layers at one cuff.

    The frame F = axis_frame(h^-1)^-1 sends the corner vertex to infinity
    and the attracting fixed point of the corner holonomy h to 0.  There
    layer m is the vertical line Re z = x_m, with x_{m+2} = e^{-L} x_m,
    and the reference leaf is the horizontal horocycle through the
    tangency point (x_0, y_0) of the first crossed edge.  Crossing layer
    m is the horocycle step F^-1 U(x_m - x_{m-1}) F, whose deviation from
    the identity is |x_m - x_{m-1}| (c^2 + d^2) for F = (a b; c d).  So
    the layer count (the first deviation below the floor
    max(e^{-depth_budget}, 1e-15)), the tail (the geometric remainder),
    the error bound and the landing all have closed forms, and no layer
    matrix is built.
    """
    dev, word, h, vertex = _spiral_direction(tri, slot)
    root = dev.place(())
    second = dev.place(word[:1])
    (_, first_side), _ = tri.cross(root.tri, word[0])
    (_, second_side), _ = tri.cross(second.tri, word[1])
    frame = axis_frame(h.inverse()).inverse()
    start = apply(frame, edge_tangency_point(root.triangle, first_side))
    xs = (start.x, apply(frame, _other_end(second.triangle.side(second_side), vertex)).value)
    length = translation_length(h)
    lam = math.exp(-length)
    steps = (xs[1] - xs[0], lam * xs[0] - xs[1])  # x_m - x_{m-1} for m = 1, 2
    unit = frame.c ** 2 + frame.d ** 2  # deviation of F^-1 U(1) F

    def step(m: int) -> float:
        periods, j = divmod(m - 1, 2)
        return steps[j] * lam ** periods

    floor = max(math.exp(-depth_budget), 1e-15)

    def first_below(j: int) -> int:
        # layer j + 1 + 2k deviates from the identity by unit * |steps[j]| * lam**k
        deviation = unit * abs(steps[j])
        if deviation < floor:
            return j + 1
        return j + 1 + 2 * (math.floor(math.log(deviation / floor) / length) + 1)

    count = min(first_below(0), first_below(1))
    if count >= _LAYER_CAP:
        raise InvalidGluingError(
            f"spiral transport at slot {slot} needs more than the {_LAYER_CAP}-layer "
            f"limit to reach depth {depth_budget}"
        )

    tail = unit * (abs(step(count + 1)) + abs(step(count + 2))) / -math.expm1(-length)
    error_bound = truncation_bound((unit * abs(step(m)) for m in range(1, count + 1)),
                                   policy, tail)
    # the steps commute, so their product translates x_0 to x_count
    periods, j = divmod(count, 2)
    landing = apply(frame.inverse(), HPoint(xs[j] * lam ** periods, start.y))
    return _SideLanding(landing, error_bound, h)


def cuff_landing_oracle(tri: ShearTriangulation, slot: int) -> HPoint:
    """Closed-form landing point: all spiral spikes at one cuff share the
    corner vertex, so the reference leaf is a single horocycle centered
    there; intersect it with the cuff axis directly."""
    dev, word, h, vertex = _spiral_direction(tri, slot)
    root = dev.place(())
    (_, side), _ = tri.cross(root.tri, word[0])
    rep, att = fixed_points(h)
    a = _other_end(root.triangle.side(side), vertex)
    zero = BoundaryPoint.from_value(0.0)
    one = BoundaryPoint.from_value(1.0)
    inf = BoundaryPoint.infinity()
    # normalize the spike between the first edge and the cuff axis to
    # vertical edges; the target triple must match the source orientation
    if orientation(a, vertex, att) < 0.0:
        w = moebius_from_triples((a, vertex, att), (zero, inf, one))
        landing_x = 1.0
    else:
        w = moebius_from_triples((a, vertex, att), (one, inf, zero))
        landing_x = 0.0
    height = apply(w, edge_tangency_point(root.triangle, side)).y
    landed = apply(w.inverse(), HPoint(landing_x, height))
    # the normalization loses relative accuracy across a thin gap; snap
    # the landing back onto the cuff axis
    return project_to_geodesic(Geodesic(rep, att), landed)


@dataclass(frozen=True)
class CuffLandings:
    """The twist-independent half of a cuff shear.

    Both spiral landings depend on the cuff lengths and spiral signs
    only, so a twist sweep lands once and varies only the gluing map
    (`shear_at_twist`).  `frame_b_inverse` and `coord` are the fixed
    factors of the gluing map and the cuff coordinate; `log_land` is
    log|coord(landing_a)|.
    """

    side_a: _SideLanding
    side_b: _SideLanding
    frame_a: MoebiusTransform
    frame_b_inverse: MoebiusTransform
    coord: MoebiusTransform
    log_land: float
    error_bound: float


def cuff_landings(s: FNSurface, cuff_id: int, depth_budget: float = 30.0,
                  policy: TailPolicy | None = None) -> CuffLandings:
    """Transport both spiraling families at a cuff to its axis."""
    g = s.gluing_by_id(cuff_id)
    (pants_a, slot_a), (pants_b, slot_b) = g.cuffs
    side_a = _spiral_landing(s.pants_triangulation(pants_a), slot_a, depth_budget, policy)
    side_b = _spiral_landing(s.pants_triangulation(pants_b), slot_b, depth_budget, policy)
    frame_a = axis_frame(side_a.cuff_holonomy)
    coord = apply(frame_a, Geodesic.from_values(0, "inf")).to_imaginary_axis()
    return CuffLandings(
        side_a, side_b, frame_a, axis_frame(side_b.cuff_holonomy).inverse(), coord,
        math.log(abs(apply(coord, side_a.landing).z)),
        side_a.error_bound + side_b.error_bound,
    )


def shear_at_twist(landings: CuffLandings, twist: float) -> CuffShear:
    """The signed gap between the two landings in the cuff coordinate,
    side B's landing carried over by the gluing map at this twist,
    oriented so that a Fenchel-Nielsen twist by epsilon changes the
    shear by exactly epsilon."""
    gluing_map = landings.frame_a @ _twist_matrix(twist) @ _FLIP @ landings.frame_b_inverse
    z_ref = apply(landings.coord, apply(gluing_map, landings.side_b.landing))
    return CuffShear(math.log(abs(z_ref.z)) - landings.log_land, landings.error_bound)


def shear_across_cuff(s: FNSurface, cuff_id: int, depth_budget: float = 30.0,
                      policy: TailPolicy | None = None) -> CuffShear:
    """Shear between the reference triangles of the two pants at a cuff:
    both spiraling families are landed on the cuff, then read across
    the gluing at the cuff's twist."""
    landings = cuff_landings(s, cuff_id, depth_budget, policy)
    return shear_at_twist(landings, s.gluing_by_id(cuff_id).twist)
