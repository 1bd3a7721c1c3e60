"""Crossing factors and ordered products with explicit error budgets.

A unit tangent vector transported across a stack of triangles picks up
one near-identity factor per crossing; the factors are listed in
crossing order and composed as maps, earliest acting first.  Products
over decaying families are truncated, dropping factors below
DEVIATION_FLOOR and refusing running deviation sums above
DIVERGENCE_BUDGET, and every truncation reports the bound

    error <= prod(1 + |s_i|) * sum of dropped |s_i|,

with s_i the factor's offset from the identity in Frobenius norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .hyp import (
    BoundaryPoint,
    Geodesic,
    MoebiusTransform,
    UnitTangent,
    _mul,
    moebius_between,
    moebius_from_triples,
    orientation,
)

DEVIATION_FLOOR = 1e-14
DIVERGENCE_BUDGET = 64.0


class DivergentBudgetError(ValueError):
    """Partial sums of factor deviations exceeded the declared budget."""


def frobenius_deviation(m: MoebiusTransform) -> float:
    """Frobenius norm of m - identity on the canonical representative."""
    return math.sqrt(
        (m.a - 1.0) ** 2 + m.b ** 2 + m.c ** 2 + (m.d - 1.0) ** 2
    )


@dataclass(frozen=True)
class CrossingFactor:
    """One near-identity transport factor with its position along the arc."""

    matrix: MoebiusTransform
    deviation: float
    order_key: float

    def __post_init__(self):
        measured = frobenius_deviation(self.matrix)
        if abs(measured - self.deviation) > 1e-12 * (1.0 + measured):
            raise ValueError(
                f"stored deviation {self.deviation} does not match matrix ({measured})"
            )

    @classmethod
    def from_matrix(cls, m: MoebiusTransform, order_key: float = 0.0) -> "CrossingFactor":
        return cls(m, frobenius_deviation(m), order_key)


def horocycle_conjugate(t: float) -> MoebiusTransform:
    """Unit horocycle step conjugated by time-t geodesic flow.

    Exactly the triple product diag(e^{-t/2}, e^{t/2}) (1 1; 0 1)
    diag(e^{t/2}, e^{-t/2}), which works out to the identity plus e^{-t}
    in the upper-right corner.
    """
    return MoebiusTransform.unimodular(1.0, math.exp(-t), 0.0, 1.0)


def crossing_factor(v_minus: UnitTangent, v_plus: UnitTangent,
                    order_key: float = 0.0) -> CrossingFactor:
    """Factor carrying the entry edge tangent to the exit edge tangent."""
    return CrossingFactor.from_matrix(moebius_between(v_minus, v_plus), order_key)


@dataclass(frozen=True)
class OrderedProduct:
    factors: tuple[CrossingFactor, ...]
    value: MoebiusTransform
    error_bound: float
    raw_value: tuple[float, float, float, float] = field(repr=False, default=None)


def ordered_product(factors, tail_deviation: float = 0.0) -> OrderedProduct:
    """Compose factors in crossing order, truncating below DEVIATION_FLOOR.

    The error bound is prod(1 + |s_i|) * (dropped |s_i| + tail): factors
    below the floor are dropped from the product, and `tail_deviation`
    accounts for factors never materialized (the remainder of a decaying
    family).  Both enter the running deviation sum checked against
    DIVERGENCE_BUDGET.
    """
    factors = tuple(factors)
    keys = [f.order_key for f in factors]
    if any(k2 < k1 for k1, k2 in zip(keys, keys[1:])):
        raise ValueError("factors must be listed in crossing order")
    running = dropped = tail_deviation
    growth = 1.0
    retained = []
    acc = (1.0, 0.0, 0.0, 1.0)
    for f in factors:
        running += f.deviation
        if running > DIVERGENCE_BUDGET:
            raise DivergentBudgetError(
                f"deviation sum {running} exceeds budget {DIVERGENCE_BUDGET}"
            )
        growth *= 1.0 + f.deviation
        if f.deviation < DEVIATION_FLOOR:
            dropped += f.deviation
            continue
        retained.append(f)
        acc = _mul(f.matrix.entries(), acc)  # earliest factor acts first
    return OrderedProduct(
        factors=tuple(retained),
        value=MoebiusTransform.unimodular(*acc),
        error_bound=growth * dropped,
        raw_value=acc,
    )


@dataclass(frozen=True)
class Spike:
    """Two asymptotic geodesics sharing an ideal point."""

    edge_a: Geodesic
    edge_b: Geodesic
    vertex: BoundaryPoint

    def __post_init__(self):
        for g in (self.edge_a, self.edge_b):
            if min(g.start.gap(self.vertex), g.end.gap(self.vertex)) > 1e-10:
                raise ValueError("spike vertex must be an endpoint of both edges")
        if self._other(self.edge_a).gap(self._other(self.edge_b)) <= 1e-12:
            raise ValueError("spike edges must be distinct")

    def _other(self, g: Geodesic) -> BoundaryPoint:
        return g.end if g.start.gap(self.vertex) <= g.end.gap(self.vertex) else g.start

    def normalizer(self) -> MoebiusTransform:
        """Transform placing the spike at edges x=0, x=1 with vertex at infinity."""
        a = self._other(self.edge_a)
        b = self._other(self.edge_b)
        if orientation(a, self.vertex, b) > 0.0:
            a, b = b, a
        return moebius_from_triples(
            (a, self.vertex, b),
            (
                BoundaryPoint.from_value(0.0),
                BoundaryPoint.infinity(),
                BoundaryPoint.from_value(1.0),
            ),
        )

    @classmethod
    def normalized(cls) -> "Spike":
        return cls(
            Geodesic.from_values(0, "inf"),
            Geodesic.from_values(1, "inf"),
            BoundaryPoint.infinity(),
        )


def spike_crossing_sequence(spike: Spike, leaf_depths) -> list[CrossingFactor]:
    """Crossing factors for leaves at the given depths into the spike.

    Depths are measured from the unit-width horocycle and must increase
    strictly; each factor is the depth-d horocycle step expressed in the
    mouth frame of the spike, so its deviation is bounded by a constant
    times e^{-depth}, the constant depending only on the normalization.
    """
    depths = [float(d) for d in leaf_depths]
    if any(d2 <= d1 for d1, d2 in zip(depths, depths[1:])):
        raise ValueError("leaf depths must be strictly increasing")
    w = spike.normalizer()
    w_inv = w.inverse()
    return [
        CrossingFactor.from_matrix(w_inv @ horocycle_conjugate(d) @ w, order_key=d)
        for d in depths
    ]
