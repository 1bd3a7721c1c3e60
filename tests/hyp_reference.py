"""Test-side half-plane helpers the library itself does not need: the
point and frame distances the acceptance criteria read, the tolerance
comparisons of transforms and of unoriented geodesics, the orthogonal
projection onto a geodesic that the references and contract tests use to
place points on leaves, and the transform between two unit tangents with
the crossing factor built from it."""

import math

from eqlab.hyp import ALG_TOL, Geodesic, HPoint, MoebiusTransform, UnitTangent, apply
from eqlab.transport import CrossingFactor


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


def project_to_geodesic(g: Geodesic, p: HPoint) -> HPoint:
    """Orthogonal foot of a point on a geodesic."""
    w = apply(g.to_imaginary_axis(), p)
    return apply(g.to_imaginary_axis().inverse(), HPoint(0.0, math.hypot(w.x, w.y)))


def moebius_between(v: UnitTangent, w: UnitTangent) -> MoebiusTransform:
    """The unique transform carrying v to w (the frames form a torsor)."""
    return w.frame @ v.frame.inverse()


def crossing_factor(v_minus: UnitTangent, v_plus: UnitTangent,
                    order_key: float = 0.0) -> CrossingFactor:
    """Factor carrying the entry edge tangent to the exit edge tangent."""
    return CrossingFactor.from_matrix(moebius_between(v_minus, v_plus), order_key)
