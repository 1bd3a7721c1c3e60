"""Test-side half-plane helpers the library itself does not need: the
point and frame distances the acceptance criteria read, the orthogonal
projection onto a geodesic that the references and contract tests use to
place points on leaves, and the transform between two unit tangents with
the crossing factor built from it."""

import math

from eqlab.hyp import Geodesic, HPoint, MoebiusTransform, UnitTangent, apply
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
