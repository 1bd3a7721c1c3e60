"""Test-side half-plane helpers the library itself does not need: the
point and frame distances the acceptance criteria read, the tolerance
comparisons of transforms and of unoriented geodesics, the orthogonal
projection onto a geodesic that the references and contract tests use to
place points on leaves with the frame `to_imaginary_axis` it is read in,
the transform between two unit tangents with the crossing factor built
from it, the normalized spike the transport tests cross, and the general
triple-to-triple map
`moebius_from_triples` that `hyp.triple_frame` is checked against."""

import math

from eqlab.hyp import (
    _DET_FLOOR, ALG_TOL, BoundaryPoint, Geodesic, HPoint, MoebiusTransform, UnitTangent, apply,
    orientation,
)
from eqlab.transport import CrossingFactor, Spike


def hyp_distance(p: HPoint, q: HPoint) -> float:
    """Hyperbolic distance, arccosh(1 + |p - q|^2 / (2 y_p y_q))."""
    dx = p.x - q.x
    dy = p.y - q.y
    arg = 1.0 + (dx * dx + dy * dy) / (2.0 * p.y * q.y)
    return math.acosh(max(arg, 1.0))


def frame_distance(v: UnitTangent, w: UnitTangent) -> float:
    """Left-invariant distance on unit tangent vectors.

    Frobenius norm of frame(v)^-1 frame(w) - identity, minimized over the
    projective sign.  Only the bi-Lipschitz class matters to callers.
    """
    rel = v.frame.inverse() @ w.frame
    plus = (rel.a - 1.0) ** 2 + rel.b ** 2 + rel.c ** 2 + (rel.d - 1.0) ** 2
    minus = (rel.a + 1.0) ** 2 + rel.b ** 2 + rel.c ** 2 + (rel.d + 1.0) ** 2
    return math.sqrt(min(plus, minus))


def close_to(m: MoebiusTransform, other: MoebiusTransform, tol: float) -> bool:
    """m and other agree as projective transforms within tol (Frobenius)."""
    return m.projective_distance(other) <= tol


def is_identity(m: MoebiusTransform, tol: float) -> bool:
    return close_to(m, MoebiusTransform.identity(), tol)


def same_unoriented(g: Geodesic, h: Geodesic) -> bool:
    """g and h have the same ends, in either order, within ALG_TOL."""
    direct = max(g.start.gap(h.start), g.end.gap(h.end))
    swapped = max(g.start.gap(h.end), g.end.gap(h.start))
    return min(direct, swapped) <= ALG_TOL


def to_imaginary_axis(g: Geodesic) -> MoebiusTransform:
    """A transform sending g's start to 0 and its end to infinity.

    Determined up to a positive diagonal factor; every consumer of this
    map is invariant under that freedom.
    """
    s, e = g.start, g.end
    det = s.p * e.q - s.q * e.p
    k = 1.0 if det > 0 else -1.0
    return MoebiusTransform(k * s.q, -k * s.p, e.q, -e.p)


def project_to_geodesic(g: Geodesic, p: HPoint) -> HPoint:
    """Orthogonal foot of a point on a geodesic."""
    w = apply(to_imaginary_axis(g), p)
    return apply(to_imaginary_axis(g).inverse(), HPoint(0.0, math.hypot(w.x, w.y)))


def moebius_between(v: UnitTangent, w: UnitTangent) -> MoebiusTransform:
    """The unique transform carrying v to w (the frames form a torsor)."""
    return w.frame @ v.frame.inverse()


def crossing_factor(v_minus: UnitTangent, v_plus: UnitTangent,
                    order_key: float = 0.0) -> CrossingFactor:
    """Factor carrying the entry edge tangent to the exit edge tangent."""
    return CrossingFactor(moebius_between(v_minus, v_plus), order_key)


def normalized_spike() -> Spike:
    """The spike of the edges x = 0 and x = 1, with its vertex at infinity."""
    return Spike(Geodesic.from_values(0, "inf"), Geodesic.from_values(1, "inf"),
                 BoundaryPoint.infinity())


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
