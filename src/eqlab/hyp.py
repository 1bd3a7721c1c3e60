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
from dataclasses import dataclass

ALG_TOL = 1e-12   # algebraic identities (determinants, projective gaps)
GEOM_TOL = 1e-9   # geometric identities (distances, fixed points)
SHIFT_LIMIT = 2.0 * math.log(sys.float_info.max)  # e^{|d|/2} is a float while |d| <= this

_DET_FLOOR = 1e-14


class EllipticError(ValueError):
    """Raised when a translation length is requested for an elliptic element."""


class EarthquakeRangeError(ValueError):
    """An earthquake shift t·w too large for its motion to be formed in floats."""


def _write_canonical(m, a, b, c, d):
    # the sign of the trace decides; at trace 0, that of the first nonzero entry.  The
    # fields are written past the frozen __setattr__ one by one, so no per-instance dict
    lead = a + d if a + d != 0.0 else next((x for x in (a, b, c, d) if x != 0.0), 0.0)
    a, b, c, d = (-a, -b, -c, -d) if lead < 0.0 else (a, b, c, d)
    object.__setattr__(m, "a", a)
    object.__setattr__(m, "b", b)
    object.__setattr__(m, "c", c)
    object.__setattr__(m, "d", d)
    return m


def _mul(m, n):
    """The 2x2 product of (a, b, c, d) tuples, in whatever number type they hold."""
    return (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
            m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3])


@dataclass(frozen=True)
class MoebiusTransform:
    """Real 2x2 matrix of determinant one, canonicalized up to sign.

    The stored representative has trace >= 0 (ties broken by the first
    nonzero entry being positive), so projective equality is plain
    entrywise comparison.  The constructor rescales matrices built from
    outside data (JSON, boundary points) to determinant one.  Products,
    inverses, translations and holonomies have it by construction and
    come through `unimodular`: a*d - b*c recomputed from large entries
    cancels, and rescaling by it would only add that rounding.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if not det > _DET_FLOOR:
            raise ValueError(f"matrix determinant {det} is not positive")
        s = 1.0 / math.sqrt(det)
        _write_canonical(self, self.a * s, self.b * s, self.c * s, self.d * s)

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


@dataclass(frozen=True)
class HPoint:
    """Point of the upper half-plane, y strictly positive."""

    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0.0:
            raise ValueError(f"half-plane point needs y > 0, got {self.y}")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


@dataclass(frozen=True)
class BoundaryPoint:
    """Projective pair (p : q) on the circle at infinity; q = 0 is infinity.

    Normalized so max(|p|, |q|) = 1 with a canonical sign, so two equal
    boundary points have equal fields.
    """

    p: float
    q: float

    def __post_init__(self):
        m = max(abs(self.p), abs(self.q))
        if m == 0.0:
            raise ValueError("boundary point needs a nonzero projective pair")
        p, q = self.p / m, self.q / m
        if q < 0.0 or (q == 0.0 and p < 0.0):
            p, q = -p, -q
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def from_value(cls, x) -> "BoundaryPoint":
        """Accepts a real number, infinity, or the string 'inf'."""
        if x == "inf" or (isinstance(x, float) and math.isinf(x)):
            return cls.infinity()
        x = float(x)
        m = max(abs(x), 1.0)  # (x : 1) as __post_init__ normalizes it, written once
        point = object.__new__(cls)
        object.__setattr__(point, "p", x / m)
        object.__setattr__(point, "q", 1.0 / m)
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

    def angle(self) -> float:
        """Position on the circle via the boundary-preserving disk map.

        Strictly increasing along the reals, with infinity at angle 0 and
        0 at π = -π.  Used only for circular-order tests.
        """
        # (p : q) maps to (p - iq)/(p + iq) = e^{-2i atan2(q, p)}, q >= 0; wrapped, read
        # from p's side so that it keeps its relative precision near infinity
        return (2.0 if self.p <= 0.0 else -2.0) * math.atan2(self.q, abs(self.p))


@dataclass(frozen=True)
class Geodesic:
    """Geodesic given by two distinct boundary points.

    The stored order (start, end) orients the geodesic; operations that
    only need the underlying set ignore it.  Positive translation along
    the geodesic moves toward `end`.
    """

    start: BoundaryPoint
    end: BoundaryPoint

    def __post_init__(self):
        if self.start.gap(self.end) <= ALG_TOL:
            raise ValueError("geodesic endpoints must be distinct")

    @classmethod
    def from_values(cls, a, b) -> "Geodesic":
        return cls(BoundaryPoint.from_value(a), BoundaryPoint.from_value(b))

    def to_imaginary_axis(self) -> MoebiusTransform:
        """A transform sending start to 0 and end to infinity.

        Determined up to a positive diagonal factor; every consumer of
        this map is invariant under that freedom.
        """
        s, e = self.start, self.end
        det = s.p * e.q - s.q * e.p
        k = 1.0 if det > 0 else -1.0
        return MoebiusTransform(k * s.q, -k * s.p, e.q, -e.p)


@dataclass(frozen=True)
class UnitTangent:
    """Unit tangent vector as the frame carrying the reference vector.

    The reference vector is the upward unit vector based at i; the vector
    represented is frame applied to it.
    """

    frame: MoebiusTransform

    @classmethod
    def reference(cls) -> "UnitTangent":
        return cls(MoebiusTransform.identity())

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


def translation_length(m: MoebiusTransform, tol: float = GEOM_TOL) -> float:
    """Translation length 2 arccosh(|tr|/2); zero for parabolics.

    Raises EllipticError when |tr| < 2 - tol.
    """
    half = abs(m.trace) / 2.0
    if half < 1.0 - tol / 2.0:
        raise EllipticError(f"|trace| = {2 * half} < 2: elliptic element")
    return 2.0 * math.acosh(max(half, 1.0))


def orientation(p: BoundaryPoint, q: BoundaryPoint, r: BoundaryPoint) -> float:
    """Positive for counterclockwise boundary triples, negative for clockwise."""
    b01 = p.p * q.q - q.p * p.q
    b12 = q.p * r.q - r.p * q.q
    b20 = r.p * p.q - p.p * r.q
    return b01 * b12 * b20


def moebius_from_triples(src, dst) -> MoebiusTransform:
    """Transform carrying one ordered boundary triple to another.

    Both triples must be pairwise distinct and equally oriented, else no
    orientation-preserving transform exists and ValueError is raised.
    """
    s_or = orientation(*src)
    d_or = orientation(*dst)
    if s_or * d_or < 0.0:
        raise ValueError("triples have opposite orientations")
    if s_or > 0.0:
        # the reference triple (0, inf, 1) is clockwise; present both
        # triples clockwise, preserving the elementwise correspondence
        src = (src[0], src[2], src[1])
        dst = (dst[0], dst[2], dst[1])
    m_src = _to_zero_inf_one(*src)
    m_dst = _to_zero_inf_one(*dst)
    return m_dst.inverse() @ m_src


def _to_zero_inf_one(p: BoundaryPoint, q: BoundaryPoint, r: BoundaryPoint) -> MoebiusTransform:
    # maps the clockwise triple (p, q, r) to (0, inf, 1);
    # row one kills p, row two kills q; scale rows so r lands at 1
    k1 = q.q * r.p - q.p * r.q
    k2 = p.q * r.p - p.p * r.q
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
    det = a * d - b * c
    if abs(det) <= _DET_FLOOR:
        raise ValueError("degenerate boundary triple")
    if det < 0.0:
        raise ValueError("boundary triple is negatively oriented")
    return MoebiusTransform(a, b, c, d)
