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

from .hyp import (
    BoundaryPoint,
    Geodesic,
    MoebiusTransform,
    Record,
    SHIFT_LIMIT,
    _mul,
    _set,
    orientation,
    triple_frame,
)

DEVIATION_FLOOR = 1e-14
DIVERGENCE_BUDGET = 64.0


class DivergentBudgetError(ValueError):
    """Partial sums of factor deviations exceeded the declared budget."""


class DepthRangeError(ValueError):
    """A leaf depth whose horocycle step e^(-depth) is not a float."""


def frobenius_deviation(m: MoebiusTransform) -> float:
    """Frobenius norm of m - identity on the canonical representative; inf,
    which no budget accepts, when a square overflows."""
    a, d = m.a - 1.0, m.d - 1.0
    return math.sqrt(a * a + m.b * m.b + m.c * m.c + d * d)


class CrossingFactor(Record):
    """One near-identity transport factor with its position along the arc;
    its deviation is the matrix's frobenius_deviation."""

    __slots__ = ("matrix", "deviation", "order_key")

    def __init__(self, matrix: MoebiusTransform, order_key: float = 0.0):
        _set(self, "matrix", matrix)
        _set(self, "deviation", frobenius_deviation(matrix))
        _set(self, "order_key", order_key)


def horocycle_conjugate(t: float) -> MoebiusTransform:
    """Unit horocycle step conjugated by time-t geodesic flow.

    Exactly the triple product diag(e^{-t/2}, e^{t/2}) (1 1; 0 1)
    diag(e^{t/2}, e^{-t/2}), which works out to the identity plus e^{-t}
    in the upper-right corner.  DepthRangeError, naming t, when e^{-t} is
    not a float.
    """
    if not -t <= SHIFT_LIMIT / 2.0:  # NaN fails too
        raise DepthRangeError(f"leaf depth {t!r}: e^(-depth) is a float only while "
                              f"depth >= {-SHIFT_LIMIT / 2.0:.6g}")
    return MoebiusTransform.unimodular(1.0, math.exp(-t), 0.0, 1.0)


class OrderedProduct(Record):
    """Retained factors, their product as multiplied (raw_value) and in
    canonical form (value), and the truncation's error bound."""

    __slots__ = ("factors", "value", "error_bound", "raw_value")

    def __init__(self, factors: tuple[CrossingFactor, ...], error_bound: float,
                 raw_value: tuple[float, float, float, float]):
        _set(self, "factors", factors)
        _set(self, "value", MoebiusTransform.unimodular(*raw_value))
        _set(self, "error_bound", error_bound)
        _set(self, "raw_value", raw_value)


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
        error_bound=growth * dropped,
        raw_value=acc,
    )


class Spike(Record):
    """Two asymptotic geodesics sharing an ideal point."""

    __slots__ = ("edge_a", "edge_b", "vertex")

    def __init__(self, edge_a: Geodesic, edge_b: Geodesic, vertex: BoundaryPoint):
        _set(self, "edge_a", edge_a)
        _set(self, "edge_b", edge_b)
        _set(self, "vertex", vertex)  # written first: _other reads it
        for g in (self.edge_a, self.edge_b):
            if min(g.start.gap(self.vertex), g.end.gap(self.vertex)) > 1e-10:
                raise ValueError("spike vertex must be an endpoint of both edges")
        if self._other(self.edge_a).coincides(self._other(self.edge_b)):
            raise ValueError("spike edges must be distinct")

    def _other(self, g: Geodesic) -> BoundaryPoint:
        return g.end if g.start.gap(self.vertex) <= g.end.gap(self.vertex) else g.start

    def normalizer(self) -> MoebiusTransform:
        """Transform placing the spike at edges x=0, x=1 with vertex at infinity."""
        a = self._other(self.edge_a)
        b = self._other(self.edge_b)
        if orientation(a, self.vertex, b) > 0.0:
            a, b = b, a
        return triple_frame(a, self.vertex, b)


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
        CrossingFactor(w_inv @ horocycle_conjugate(d) @ w, order_key=d)
        for d in depths
    ]
