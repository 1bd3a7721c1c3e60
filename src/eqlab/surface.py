"""Closed-surface desk models built from pants: Fenchel-Nielsen data,
holonomy representations, twist flows, and the spiral-transport shear
across a cuff.

The genus-two harness glues two pants (each a pair of ideal triangles)
along three cuffs.  Cuff k is gluings[k] with twist twists[k]; an earthquake
in a cuff multicurve adds t·w to the twists.  The shear of an arc crossing
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

from .hyp import EarthquakeRangeError, MoebiusTransform, Record, SHIFT_LIMIT, _set
from .triangle import (
    _check_gluing,
    _is_index,
    pants_boundary_words,
    pants_holonomy,
    shears_from_cuffs,
)


class InvalidGluingError(ValueError):
    """The gluing data does not describe the supported closed surface."""


class UnsupportedCurveError(ValueError):
    """A multicurve weight references a cuff the surface does not have."""


# a cuff's two spiral signs, one per side
_SIGN_PAIRS = frozenset(((1, 1), (1, -1), (-1, 1), (-1, -1)))


class Gluing(Record):
    """One cuff: its two (pants id, slot) boundary slots, its length and a
    spiral sign per side.  It has no label: cuff k is the surface's gluings[k]."""

    __slots__ = ("cuffs", "length", "spiral_signs")

    def __init__(self, cuffs: tuple[tuple[int, int], tuple[int, int]], length: float,
                 spiral_signs: tuple[int, int] = (1, 1)):
        _set(self, "cuffs", cuffs)
        _set(self, "length", length)
        _set(self, "spiral_signs", spiral_signs)


class FNSurface(Record):
    """Pants glued along cuffs: cuff k is gluings[k], with Fenchel-Nielsen twist
    twists[k], and k is the cuff id that multicurve weights name."""

    __slots__ = ("pants", "gluings", "twists")

    def __init__(self, pants: tuple[int, ...], gluings: tuple[Gluing, ...],
                 twists: tuple[float, ...]):
        _check_gluing(pants, [(k, g.cuffs) for k, g in enumerate(gluings)],
                      InvalidGluingError, "pants", "slot", "cuff")
        if len(twists) != len(gluings):
            raise InvalidGluingError(f"{len(twists)} twists for {len(gluings)} gluings: "
                                     "need one per gluing")
        for k, (g, twist) in enumerate(zip(gluings, twists)):
            if not g.length > 0.0:
                raise InvalidGluingError(f"cuff {k} needs positive length")
            if not (math.isfinite(g.length) and math.isfinite(twist)):
                raise InvalidGluingError(f"cuff {k} needs a finite length and twist, "
                                         f"got {g.length!r} and {twist!r}")
            if tuple(g.spiral_signs) not in _SIGN_PAIRS:
                raise InvalidGluingError(f"cuff {k} needs a spiral sign of -1 or 1 on each "
                                         f"side, got {g.spiral_signs!r}")
        _set(self, "pants", pants)
        _set(self, "gluings", gluings)
        _set(self, "twists", twists)

    @classmethod
    def genus2(cls, lengths=(2.0, 2.5, 3.0), twists=(0.0, 0.0, 0.0),
               spiral_signs=((1, 1), (1, 1), (1, 1))) -> "FNSurface":
        """Two pants glued slot-to-slot along three cuffs."""
        return cls(
            pants=(0, 1),
            gluings=tuple(Gluing(((0, k), (1, k)), lengths[k], spiral_signs[k]) for k in range(3)),
            twists=tuple(twists),
        )

    def gluing_by_id(self, cuff_id: int) -> Gluing:
        """gluings[cuff_id]; UnsupportedCurveError for an id that is not a cuff
        of this surface (`_is_index`): a bool, a float or an int out of range."""
        if not _is_index(cuff_id, len(self.gluings)):
            raise UnsupportedCurveError(f"no cuff with id {cuff_id}")
        return self.gluings[cuff_id]

    def pants_shears(self, pants_id: int) -> tuple[float, float, float]:
        """The three edge shears of one pants, from its cuff lengths and spiral signs."""
        lengths, signs = [None] * 3, [None] * 3  # the constructor glues every slot
        for g in self.gluings:
            for side, (pid, slot) in enumerate(g.cuffs):
                if pid == pants_id:
                    lengths[slot], signs[slot] = g.length, g.spiral_signs[side]
        return shears_from_cuffs(*lengths, tuple(signs))


class WeightedMulticurve(Record):
    """Finite nonnegative weights on cuff ids, at least one positive."""

    __slots__ = ("weights",)

    def __init__(self, weights: dict):
        weights = dict(weights)  # the caller's dict may change after it is checked
        if not any(w > 0.0 for w in weights.values()):
            raise ValueError("multicurve needs at least one positive weight")
        if any(w < 0.0 for w in weights.values()):
            raise ValueError("multicurve weights must be nonnegative")
        for cuff_id, w in weights.items():
            if not math.isfinite(w):
                raise ValueError(f"multicurve weight {w!r} on cuff {cuff_id} is not finite")
        _set(self, "weights", weights)

    def weight(self, cuff_id: int) -> float:
        return self.weights.get(cuff_id, 0.0)


class HolonomyRep(Record):
    """Surface group representation: four generators and one relator.

    Generators: 'a' and 'b' are two cuff loops, 'c' and 'd' the
    connector loops through the other two cuffs; uppercase letters in a
    word denote inverses.  The third cuff loop is the word "BA".
    """

    __slots__ = ("generators",)
    relator = "abcACdBD"

    def __init__(self, generators: dict):
        _set(self, "generators", generators)

    def evaluate(self, word: str) -> MoebiusTransform:
        """The product of the word's letters; EarthquakeRangeError, naming the
        word, when an entry leaves float range."""
        m = MoebiusTransform.identity()
        for letter in word:
            g = self.generators[letter.lower()]
            m = m @ (g.inverse() if letter.isupper() else g)
        if not all(map(math.isfinite, m.entries())):  # an overflow ends in inf or nan
            raise EarthquakeRangeError(f"the product {word!r} has entries beyond float range")
        return m

    def relator_defect(self) -> float:
        return self.evaluate(self.relator).projective_distance(MoebiusTransform.identity())


# z -> -1/z: the axis frame of h^-1 is F @ _FLIP for the axis frame F of h
_FLIP = MoebiusTransform.unimodular(0.0, -1.0, 1.0, 0.0)


def _twist_matrix(tau: float) -> MoebiusTransform:
    if not abs(tau) <= SHIFT_LIMIT:
        raise EarthquakeRangeError(f"twist {tau!r} is beyond float range: e^(|twist|/2) is a "
                                   f"float only while |twist| <= {SHIFT_LIMIT:.6g}")
    e = math.exp(tau / 2.0)
    return MoebiusTransform.unimodular(e, 0.0, 0.0, 1.0 / e)


def fn_to_holonomy(s: FNSurface) -> HolonomyRep:
    """Amalgamate the two pants representations along the three cuffs.

    The front pants provides the cuff generators; the back pants is
    conjugated so its first cuff matches the front one reversed, at the
    first twist; connectors through the other two cuffs carry the other
    twists, each in the cuff's axis frame (`_cuff_axis`).  The relator holds
    by construction and is re-verified numerically by callers.  Raises
    EarthquakeRangeError, naming the twists, when a twist matrix or a
    generator leaves float range, and InvalidGluingError, naming the
    lengths, when they do so at zero twists or a cuff's fixed points
    coincide in floats.
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
    shears = shears_from_cuffs(*lengths)
    # both pants are this one; A[0] A[1] A[2] = identity up to sign
    try:
        A, shifts, frames = zip(*(_cuff_axis(shears, k) for k in range(3)))
    except InvalidGluingError as exc:
        raise InvalidGluingError(f"cuff lengths {lengths!r}: {exc}") from None

    def conjugate(k: int, m: MoebiusTransform) -> MoebiusTransform:
        """F m F^-1 in the axis frame F = T G of cuff k, T and G kept apart."""
        return shifts[k] @ (frames[k] @ m @ frames[k].inverse()) @ shifts[k].inverse()

    def connectors(twists) -> list[MoebiusTransform]:
        # a covariant frame for the conjugated back cuff keeps the Dehn
        # substitution exact for the first twist as well
        conj = conjugate(0, _FLIP @ _twist_matrix(twists[0]))
        return [conj @ conjugate(k, _twist_matrix(twists[k]) @ _FLIP.inverse()) for k in (1, 2)]

    def finite(ms) -> bool:
        return all(math.isfinite(x) for m in ms for x in m.entries())

    c, d = connectors(s.twists)
    if not finite((c, d)):
        if not finite(connectors((0.0, 0.0, 0.0))):
            raise InvalidGluingError(
                f"cuff lengths {lengths!r} carry the generators beyond float range")
        raise EarthquakeRangeError(f"twists {s.twists!r} carry the generators beyond float range "
                                   f"(|twist| <= {SHIFT_LIMIT:.6g}, less on long cuffs)")
    return HolonomyRep({"a": A[1], "b": A[2], "c": c, "d": d})


def earthquake_flow(s: FNSurface, mc: WeightedMulticurve, t: float) -> FNSurface:
    """The Fenchel-Nielsen twist flow, twists + t·w: twists[k] moves by t times
    the weight on cuff k.  The moved surface shares s's pants and gluings and
    checks only the moved twists: the rest passed FNSurface's checks when s
    was built.  UnsupportedCurveError for a key that is no cuff of s (1.0 and
    True are none), EarthquakeRangeError for a moved twist that is not finite.
    """
    for cuff_id in mc.weights:
        if not _is_index(cuff_id, len(s.twists)):
            raise UnsupportedCurveError(f"multicurve weight on unknown cuff {cuff_id}")
    twists = tuple(twist + t * mc.weights.get(k, 0.0) for k, twist in enumerate(s.twists))
    for k in range(len(twists)):
        if not math.isfinite(twists[k]):
            raise EarthquakeRangeError(f"earthquake shift t·w = {t * mc.weights.get(k, 0.0)!r} "
                                       f"moves the twist {s.twists[k]!r} of cuff {k} beyond "
                                       "float range")
    moved = object.__new__(FNSurface)
    _set(moved, "pants", s.pants)
    _set(moved, "gluings", s.gluings)
    _set(moved, "twists", twists)
    return moved


def _spiral_direction(shears, slot: int):
    """The corner word at one cuff along which the spiral layers converge.

    Both corner words (i, j) cross the root triangle (-1, 0, inf)'s sides
    i and j (edge k is the root's side k) and turn about the vertex those
    two sides share.  The layers converge along the word whose
    holonomy repels from that corner, which is the forward word exactly
    when its two shears sum to a negative number.  The holonomy is the
    pants product of its two edge turns (`pants_holonomy`).  Returns the
    word, whose first letter is its first root side, its holonomy and the
    corner's index.
    """
    i, j = pants_boundary_words()[slot]
    if shears[i] + shears[j] >= 0.0:
        i, j = j, i
    corner = ({i, (i + 1) % 3} & {j, (j + 1) % 3}).pop()
    return (i, j), pants_holonomy(shears, (i, j)), corner


def _corner_axis(shears, slot: int):
    """The fixed points of the corner holonomy h at one slot, read from the shears.

    h repels from the corner vertex v of the root triangle, which is exact.
    In the frame with columns a and v, h = diag(e^{L/2}, e^{-L/2}), so its
    attracting fixed point a sits at |a - r| = 2 sinh(L/2) / |c| from a
    finite corner r, on the side of the sign of c, or at |a| = |b| / (2
    sinh(L/2)), with the sign of b, when v is infinity.  L = |s_i + s_j|
    comes from the corner word's shears, so it does not cancel in tr^2 - 4,
    and the trace a + d, which cancels when the diagonal is large and of
    mixed signs, is never read.
    A float near -1 holds a only to 1.1e-16, so at r = -1 both points are
    moved by z -> z + 1 (shift -1), unless a is nearer 0: there it is b / c,
    from the product -b/c of the fixed points.  Returns the corner word, h,
    the shift, v and a moved by z -> z - shift as projective pairs, each
    normalized as BoundaryPoint stores the unmoved point, and log gap(v, a).
    """
    word, h, corner = _spiral_direction(shears, slot)
    length = abs(shears[word[0]] + shears[word[1]])
    if math.tanh(0.5 * length) == 0.0:
        raise InvalidGluingError(
            f"the pants shears at slot {slot} resolve a cuff length of only {length!r}"
        )
    # in logs: for a subnormal L, |a - r| may underflow and |a| overflow
    log_sinh = 0.5 * length + math.log(-math.expm1(-length))  # log 2 sinh(L/2)
    if corner == 2:
        log_a = math.log(abs(h.b)) - log_sinh
        partner = (math.copysign(math.exp(min(log_a, 0.0)), h.b), math.exp(-max(log_a, 0.0)))
        return word, h, 0.0, (1.0, 0.0), partner, -max(log_a, 0.0)
    r = (-1.0, 0.0)[corner]
    log_gap = log_sinh - math.log(abs(h.c))
    offset = math.copysign(math.exp(log_gap), h.c)  # a - r
    a = r + offset
    scale = max(abs(a), 1.0)
    log_sep = log_gap - math.log(scale)
    if r == -1.0 and abs(a) >= 0.5:
        return word, h, r, (0.0, 1.0), (offset / scale, 1.0 / scale), log_sep
    if r == -1.0:
        a = h.b / h.c
    return word, h, 0.0, (r, 1.0), (a / scale, 1.0 / scale), log_sep


def _cuff_axis(shears, slot: int):
    """The holonomy h of the boundary word at one slot, and its axis frame
    F = T G, with F^-1 h F = diag(e^{L/2}, e^{-L/2}): 0 to the repelling,
    infinity to the attracting fixed point.  T is the translation by the
    shift of `_corner_axis`; G has the moved fixed points as columns, the
    repelling one negated if that makes the determinant positive, over its
    square root (one column is a corner, so it takes one rounding at most;
    InvalidGluingError if it is 0).  Callers keep T and G apart: T G would
    round a fixed point near -1 to 1.1e-16, whatever its gap to the other.
    """
    word, h, shift, v, a, _ = _corner_axis(shears, slot)
    (ap, aq), (rp, rq) = a, v
    if word != pants_boundary_words()[slot]:  # the reversed loop: h^-1 repels from v
        h, (ap, aq), (rp, rq) = h.inverse(), v, a
    det = ap * rq - rp * aq
    if not (det != 0.0 and math.isfinite(det)):
        raise InvalidGluingError(f"the fixed points at slot {slot} coincide as floats")
    scale = 1.0 / math.sqrt(abs(det))
    turn = math.copysign(scale, det)
    return (h, MoebiusTransform.unimodular(1.0, shift, 0.0, 1.0),
            MoebiusTransform.unimodular(ap * scale, rp * turn, aq * scale, rq * turn))


def _spiral_landing(shears, slot: int) -> float:
    """Log-height of the reference leaf's landing on the cuff at one slot.

    The spiral frame F, the inverse of the axis frame of h^-1, sends the
    corner vertex v, the repelling fixed point of the corner holonomy h, to
    infinity and its attracting fixed point a to 0.  There the layers are
    vertical lines Re z = x_m with x_{m+2} = e^{-L} x_m, so they close in on
    the cuff axis Re z = 0, and the reference leaf is the horizontal
    horocycle through the first side's tangency point p: the transport
    converges to i Im F(p).  The standard triangle's tangency points lie
    on its canonical horocycles (y = 1 at infinity, |z - r|^2 = y at
    r = -1, 0), so Im F(p) = gap(v, a), which `_corner_axis` gives in logs.
    """
    return _corner_axis(shears, slot)[-1]


def cuff_offset(s: FNSurface, cuff_id: int) -> float:
    """The twist-independent part of the shear across a cuff: the sum of
    both spiral landings' log-heights.

    Both landings depend on the cuff lengths and spiral signs only.  The
    shear is the log-ratio of the two landings along the cuff axis, read
    in the axis frame of side A's cuff holonomy h_a.  Since the axis frame
    of h^-1 is that of h composed with _FLIP, side A's landing z_a
    sits at -1/z_a in that frame, and the gluing at twist tau carries side
    B's landing z_b to e^tau z_b, so the shear is tau + log|z_a| + log|z_b|.
    """
    g = s.gluing_by_id(cuff_id)
    (pants_a, slot_a), (pants_b, slot_b) = g.cuffs
    return (_spiral_landing(s.pants_shears(pants_a), slot_a)
            + _spiral_landing(s.pants_shears(pants_b), slot_b))


def shear_across_cuff(s: FNSurface, cuff_id: int) -> float:
    """Shear between the reference triangles of the two pants at a cuff:
    the cuff's twist plus its offset, so a Fenchel-Nielsen twist by
    epsilon changes it by exactly epsilon."""
    offset = cuff_offset(s, cuff_id)  # names an unknown cuff before its twist is read
    return s.twists[cuff_id] + offset
