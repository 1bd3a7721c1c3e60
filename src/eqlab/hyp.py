"""Exact-contract numerics for PSL(2,R) acting on the upper half-plane.

Points live in the open half-plane, boundary points are projective pairs
(so infinity needs no special cases), and unit tangent vectors are stored
as group elements: the frame g such that the vector is g applied to the
upward unit vector based at i.  Every operation is a pure function over
immutable values.
"""

from __future__ import annotations

import math
import sys

ALG_TOL = 1e-12   # algebraic identities (determinants, projective gaps)
GEOM_TOL = 1e-9   # geometric identities (distances, fixed points)
SHIFT_LIMIT = 2.0 * math.log(sys.float_info.max)  # e^{|d|/2} is a float while |d| <= this

_DET_FLOOR = 1e-14


class EllipticError(ValueError):
    """Raised when a translation length is requested for an elliptic element."""


class EarthquakeRangeError(ValueError):
    """An earthquake shift t·w too large for its motion to be formed in floats."""


_set = object.__setattr__  # writes a Record's slot past its refusing __setattr__


class Record:
    """Base of eqlab's immutable values, held in __slots__.

    A subclass checks its arguments in its own __init__, then writes each
    slot once through _set.  Its fields are the slots not named "_...", in
    order: ==, hash and repr read them as a frozen dataclass's do, and an
    "_" slot holds derived data.  Assignment and deletion raise
    AttributeError.  copy and pickle restore the slots without running
    __init__, so a normalizing constructor does not round a copy again.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle pass a slotted object's state as (None, {slot: value})
        for name, value in state[1].items():
            _set(self, name, value)


def _write_canonical(m, a, b, c, d):
    # the sign of the trace decides; at trace 0, that of the first nonzero entry
    lead = a + d if a + d != 0.0 else next((x for x in (a, b, c, d) if x != 0.0), 0.0)
    a, b, c, d = (-a, -b, -c, -d) if lead < 0.0 else (a, b, c, d)
    _set(m, "a", a)
    _set(m, "b", b)
    _set(m, "c", c)
    _set(m, "d", d)
    return m


def _mul(m, n):
    """The 2x2 product of (a, b, c, d) tuples, in whatever number type they hold."""
    return (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
            m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3])


class MoebiusTransform(Record):
    """Real 2x2 matrix of determinant one, canonicalized up to sign.

    The stored representative has trace >= 0 (ties broken by the first
    nonzero entry being positive), so projective equality is plain
    entrywise comparison.  The constructor rescales matrices built from
    outside data (JSON, boundary points) to determinant one, and refuses a
    determinant that is not positive or, when a*d or b*c overflows, names
    it infinite, where a*d - b*c would read inf - inf = NaN.  Products,
    inverses, translations and holonomies have it by construction and
    come through `unimodular`: a*d - b*c recomputed from large entries
    cancels, and rescaling by it would only add that rounding.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float):
        det = a * d - b * c
        if not _DET_FLOOR < det < math.inf:
            # a*d or b*c past float range makes det infinite, or NaN as inf - inf
            if math.isinf(a * d) or math.isinf(b * c) or det == math.inf:
                raise ValueError(f"matrix {(a, b, c, d)} has an infinite determinant")
            raise ValueError(f"matrix determinant {det} is not positive")
        s = 1.0 / math.sqrt(det)
        scaled = (a * s, b * s, c * s, d * s)
        if not all(map(math.isfinite, scaled)):  # a det below 1 scales the entries up
            raise ValueError(f"matrix {(a, b, c, d)} leaves float range at determinant one")
        _write_canonical(self, *scaled)

    @classmethod
    def unimodular(cls, a, b, c, d) -> "MoebiusTransform":
        """The transform with entries known to have determinant one; only the sign is fixed."""
        return _write_canonical(object.__new__(cls), a, b, c, d)

    @classmethod
    def identity(cls) -> "MoebiusTransform":
        return cls.unimodular(1.0, 0.0, 0.0, 1.0)

    @property
    def trace(self) -> float:
        return self.a + self.d

    def entries(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def inverse(self) -> "MoebiusTransform":
        return MoebiusTransform.unimodular(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other: "MoebiusTransform") -> "MoebiusTransform":
        return MoebiusTransform.unimodular(*_mul(self.entries(), other.entries()))

    def projective_distance(self, other: "MoebiusTransform") -> float:
        """Frobenius distance minimized over the global sign."""
        plus = minus = 0.0
        for x, y in zip(self.entries(), other.entries()):
            plus += (x - y) * (x - y)  # inf past float range, where ** 2 would raise
            minus += (x + y) * (x + y)
        return math.sqrt(min(plus, minus))


class HPoint(Record):
    """Point of the upper half-plane: x finite, y positive and finite."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        if not y > 0.0:
            raise ValueError(f"half-plane point needs y > 0, got {y}")
        if not (y < math.inf and math.isfinite(x)):
            raise ValueError(f"half-plane point needs finite coordinates, got ({x}, {y})")
        _set(self, "x", x)
        _set(self, "y", y)

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


class BoundaryPoint(Record):
    """Projective pair (p : q) on the circle at infinity; q = 0 is infinity.

    Built from a finite, nonzero pair and normalized so max(|p|, |q|) = 1
    with a canonical sign, so two equal boundary points have equal fields.
    The constructor tests finiteness and takes the larger magnitude with
    float operations, not math.isfinite, abs and max, for the same pair
    and the same errors: a chain's carry normalizes every vertex after
    every fault.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: float, q: float):
        if p - p != 0.0 or q - q != 0.0:  # inf - inf and nan - nan are nan
            raise ValueError(f"boundary point needs a finite projective pair, got ({p} : {q})")
        m = p if p >= 0.0 else -p
        n = q if q >= 0.0 else -q
        if n > m:
            m = n
        if m == 0.0:
            raise ValueError("boundary point needs a nonzero projective pair")
        p, q = p / m, q / m
        if q < 0.0 or (q == 0.0 and p < 0.0):
            p, q = -p, -q
        _set(self, "p", p)
        _set(self, "q", q)

    @classmethod
    def from_value(cls, x) -> "BoundaryPoint":
        """The point x: a real number, or infinity for any value whose float
        is infinite ("inf", "-inf", "1e999", -math.inf).  NaN, an integer
        past float range and a non-number raise ValueError naming it."""
        if x.__class__ is not float:  # a float, the common case, needs no conversion
            try:
                x = float(x)
            except OverflowError:
                raise ValueError(f"boundary point {x} is beyond float range") from None
            except TypeError:
                raise ValueError(f"boundary point needs a number or infinity, got {x!r}") from None
        if x - x != 0.0:  # infinite or NaN
            if x != x:
                raise ValueError(f"boundary point needs a number or infinity, got {x}")
            return cls.infinity()
        # max(|x|, 1): (x : 1) as __init__ normalizes it
        m = x if x >= 1.0 else -x if x <= -1.0 else 1.0
        point = object.__new__(cls)
        _set(point, "p", x / m)
        _set(point, "q", 1.0 / m)
        return point

    @classmethod
    def infinity(cls) -> "BoundaryPoint":
        return cls(1.0, 0.0)

    @property
    def is_infinity(self) -> bool:
        return self.q == 0.0

    @property
    def value(self) -> float:
        return math.inf if self.q == 0.0 else self.p / self.q

    def gap(self, other: "BoundaryPoint") -> float:
        """Projective cross product; zero iff the two points coincide."""
        return abs(self.p * other.q - other.p * self.q)

    def coincides(self, other: "BoundaryPoint") -> bool:
        """The one "same point" rule: a gap within ALG_TOL."""
        return abs(self.p * other.q - other.p * self.q) <= ALG_TOL

    def angle(self) -> float:
        """Position on the circle via the boundary-preserving disk map.

        Strictly increasing along the reals, with infinity at angle 0 and
        0 at π = -π.  Used only for circular-order tests.
        """
        # (p : q) maps to (p - iq)/(p + iq) = e^{-2i atan2(q, p)}, q >= 0; wrapped, read
        # from p's side so that it keeps its relative precision near infinity
        return (2.0 if self.p <= 0.0 else -2.0) * math.atan2(self.q, abs(self.p))


class Geodesic(Record):
    """Geodesic given by two distinct boundary points.

    The stored order (start, end) orients the geodesic; operations that
    only need the underlying set ignore it.  Positive translation along
    the geodesic moves toward `end`.
    """

    __slots__ = ("start", "end")

    def __init__(self, start: BoundaryPoint, end: BoundaryPoint):
        if start.coincides(end):
            raise ValueError("geodesic endpoints must be distinct")
        _set(self, "start", start)
        _set(self, "end", end)

    @classmethod
    def from_values(cls, a, b) -> "Geodesic":
        return cls(BoundaryPoint.from_value(a), BoundaryPoint.from_value(b))


class UnitTangent(Record):
    """Unit tangent vector as the frame carrying the reference vector.

    The reference vector is the upward unit vector based at i; the vector
    represented is frame applied to it.
    """

    __slots__ = ("frame",)

    def __init__(self, frame: MoebiusTransform):
        _set(self, "frame", frame)

    @classmethod
    def upward_at(cls, point: HPoint) -> "UnitTangent":
        r = math.sqrt(point.y)
        return cls(MoebiusTransform(r, point.x / r, 0.0, 1.0 / r))

    def basepoint(self) -> HPoint:
        return apply(self.frame, HPoint(0.0, 1.0))


def apply(m: MoebiusTransform, p):
    """Fractional linear action on points, boundary points, vectors, geodesics.

    A point's image height is y / |cz + d|^2: Im((az + b) / (cz + d)) cancels.
    """
    if isinstance(p, HPoint):
        w = m.c * p.z + m.d
        return HPoint(((m.a * p.z + m.b) / w).real, p.y / abs(w) / abs(w))
    if isinstance(p, BoundaryPoint):
        return BoundaryPoint(m.a * p.p + m.b * p.q, m.c * p.p + m.d * p.q)
    if isinstance(p, UnitTangent):
        return UnitTangent(m @ p.frame)
    if isinstance(p, Geodesic):
        return Geodesic(apply(m, p.start), apply(m, p.end))
    raise TypeError(f"cannot apply a MoebiusTransform to {type(p).__name__}")


def translation_along(g: Geodesic, t: float) -> MoebiusTransform:
    """Hyperbolic element with axis g and translation length |t|.

    Positive t translates toward g.end; t = 0 gives the identity.  It is
    carry_along of the identity's columns.  Raises EarthquakeRangeError,
    naming t, when |t| passes SHIFT_LIMIT or an entry leaves float range.
    """
    (a, c), (b, d) = carry_along(g, t, [(1.0, 0.0), (0.0, 1.0)])
    if not all(map(math.isfinite, (a, b, c, d))):
        raise _shift_overflow(t)
    return MoebiusTransform.unimodular(a, b, c, d)


def carry_along(g: Geodesic, t: float, pairs) -> list:
    """The pairs (p, q), real or complex, moved by the translation along g by t.

    As its factors, no matrix formed: F = (s.q, -s.p; e.q, -e.p) sends g's
    ends s and e to 0 and infinity (annihilating them exactly, so they stay
    fixed), the frame coordinates are scaled by e^{±t/2} / det F, and adj(F)
    brings them back; determinant one keeps Im(p conj(q)).  For |t| <= 1
    the scale is 1 + expm1(±t/2): a rounded e^{t/2} would put one error into
    every short shift of a dense family.  Beyond, where that would cancel,
    e^{t/2} multiplies one coordinate and divides the other, so |t| may
    reach SHIFT_LIMIT; past it EarthquakeRangeError names t.  Callers check
    the results for float range.
    """
    if not abs(t) <= SHIFT_LIMIT:
        raise _shift_overflow(t)
    sp, sq, ep, eq = g.start.p, g.start.q, g.end.p, g.end.q
    det = sp * eq - sq * ep
    if abs(t) <= 1.0:
        keep, grow, shrink = 1.0, math.expm1(t / 2.0), math.expm1(-t / 2.0)
    else:
        keep, grow = 0.0, math.exp(t / 2.0)
        shrink = 1.0 / grow
    moved = []
    for p, q in pairs:
        u, v = sq * p - sp * q, eq * p - ep * q
        u, v = (keep * u + grow * u) / det, (keep * v + shrink * v) / det
        moved.append((sp * v - ep * u, sq * v - eq * u))
    return moved


def _shift_overflow(t: float) -> EarthquakeRangeError:
    return EarthquakeRangeError(f"earthquake shift t·w = {t!r} overflows its fault translation "
                                f"(e^(|t·w|/2) is a float only while |t·w| <= {SHIFT_LIMIT:.6g})")


def translation_length(m: MoebiusTransform) -> float:
    """Translation length 2 arccosh(|tr|/2); zero for parabolics, and for
    traces within GEOM_TOL below 2, which rounding leaves on a parabolic.

    Raises EllipticError when |tr| < 2 - GEOM_TOL.
    """
    half = abs(m.trace) / 2.0
    if half < 1.0 - GEOM_TOL / 2.0:
        raise EllipticError(f"|trace| = {2 * half} < 2: elliptic element")
    return 2.0 * math.acosh(max(half, 1.0))


def orientation(p: BoundaryPoint, q: BoundaryPoint, r: BoundaryPoint) -> float:
    """Positive for counterclockwise boundary triples, negative for clockwise."""
    b01 = p.p * q.q - q.p * p.q
    b12 = q.p * r.q - r.p * q.q
    b20 = r.p * p.q - p.p * r.q
    return b01 * b12 * b20


def triple_frame(p: BoundaryPoint, q: BoundaryPoint, r: BoundaryPoint) -> MoebiusTransform:
    """The transform sending p to 0 and q to infinity, and r to -1 when the
    triple is counterclockwise, +1 when it is clockwise.

    Row one kills p and row two kills q; their factors k1, k2 pin r, and
    row two's sign, set by the orientation, makes the determinant
    |orientation(p, q, r)|.  Raises ValueError on a degenerate triple.
    """
    k1 = q.q * r.p - q.p * r.q
    k2 = p.q * r.p - p.p * r.q
    if orientation(p, q, r) > 0.0:
        k2 = -k2
    a = k1 * p.q
    b = -k1 * p.p
    c = k2 * q.q
    d = -k2 * q.p
    # rescale by a common factor (row ratios pin the third point) so that
    # nearly-degenerate triples keep a well-scaled determinant
    s1 = max(abs(a), abs(b))
    s2 = max(abs(c), abs(d))
    if s1 == 0.0 or s2 == 0.0:
        raise ValueError("degenerate boundary triple")
    scale = 1.0 / math.sqrt(s1 * s2)
    a, b, c, d = a * scale, b * scale, c * scale, d * scale
    if a * d - b * c <= _DET_FLOOR:
        raise ValueError("degenerate boundary triple")
    return MoebiusTransform(a, b, c, d)
