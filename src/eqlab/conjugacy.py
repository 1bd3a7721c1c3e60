"""Period vectors and the flagship verifiers.

A transverse chain of triangles carries a period (x, y): x is the total
shear accumulated along the chain, y the fault mass the chain crosses.
Earthquaking the configuration for time t must move the period by the
unipotent action (x, y) -> (x + t y, y); the verifiers here measure
that, both for half-plane chains (shear changes by exactly t times the
crossed mass) and for cuff arcs on the genus-two surface (the measured
trajectory matches the unipotent orbit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hyp import Geodesic, HPoint, apply
from .lamination import DiscreteLamination, Leaf, _carry_faults, earthquake_composition
from .surface import (
    FNSurface, WeightedMulticurve, cuff_landings, earthquake_flow, shear_at_twist,
)
from .triangle import IdealTriangle, develop_step, shear_between_adjacent


class TimeRangeError(ValueError):
    """The requested time moves the chain out of its combinatorial range."""


@dataclass(frozen=True)
class PeriodVector:
    """Horizontal (shear) and vertical (transverse measure) components."""

    x: float
    y: float

    def __post_init__(self):
        if self.y < 0.0:
            raise ValueError("transverse measure must be nonnegative")


def unipotent(p: PeriodVector, t: float) -> PeriodVector:
    """The action (x, y) -> (x + t y, y)."""
    return PeriodVector(p.x + t * p.y, p.y)


@dataclass(frozen=True)
class ChainConfiguration:
    """Developed chain of adjacent triangles with weighted fault edges.

    Consecutive triangles share an edge; fault_weights assigns each
    shared edge its transverse mass (zero for unweighted edges).  The
    transversal arc of the chain crosses each edge exactly once.
    """

    triangles: tuple[IdealTriangle, ...]
    fault_weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.triangles) < 2:
            raise ValueError("a chain needs at least two triangles")
        if len(self.fault_weights) != len(self.triangles) - 1:
            raise ValueError("need one fault weight per shared edge")
        if any(w < 0.0 for w in self.fault_weights):
            raise ValueError("fault weights must be nonnegative")
        for t1, t2 in zip(self.triangles, self.triangles[1:]):
            shear_between_adjacent(t1, t2)  # raises NotAdjacentError otherwise
        edges = self.shared_edges()
        for e1, e2 in zip(edges, edges[1:]):
            if e1.same_unoriented(e2):
                raise ValueError("chain backtracks across the same edge")

    @classmethod
    def from_steps(cls, steps, weights) -> "ChainConfiguration":
        """Build by developing (side, shear) steps from the standard triangle."""
        triangles = [IdealTriangle.standard()]
        for side, shear in steps:
            triangles.append(develop_step(triangles[-1], side, shear))
        return cls(tuple(triangles), tuple(weights))

    def shared_edges(self) -> tuple[Geodesic, ...]:
        """Shared edges oriented by the traversal of the earlier triangle."""
        out = []
        for t1, t2 in zip(self.triangles, self.triangles[1:]):
            for k in range(3):
                side = t1.side(k)
                if any(side.same_unoriented(t2.side(j)) for j in range(3)):
                    out.append(side)
                    break
        return tuple(out)

    def base_point(self) -> HPoint:
        return _interior_point(self.triangles[0])


def _interior_point(t: IdealTriangle) -> HPoint:
    # a fixed interior point of the normalized triangle, pulled back
    return apply(t.normalizer(0).inverse(), HPoint(-0.25, 1.0))


def _chain_shear(triangles) -> float:
    """Shears between consecutive triangles, summed in chain order."""
    return sum((shear_between_adjacent(t1, t2) for t1, t2 in zip(triangles, triangles[1:])), 0.0)


def chain_period(c: ChainConfiguration) -> PeriodVector:
    """x is the chain shear, y the total crossed fault mass."""
    return PeriodVector(_chain_shear(c.triangles), sum(c.fault_weights))


@dataclass(frozen=True)
class Sample:
    t: float
    measured: tuple[float, float]
    predicted: tuple[float, float]

    @property
    def residual(self) -> float:
        return max(abs(m - p) for m, p in zip(self.measured, self.predicted))


@dataclass(frozen=True)
class VerificationReport:
    samples: tuple[Sample, ...]
    max_residual: float
    tolerance: float
    passed: bool

    def __post_init__(self):
        if self.passed != (self.max_residual <= self.tolerance):
            raise ValueError("passed flag must agree with the residual test")

    @classmethod
    def from_samples(cls, samples, tolerance: float) -> "VerificationReport":
        samples = tuple(samples)
        worst = max((s.residual for s in samples), default=0.0)
        return cls(samples, worst, tolerance, worst <= tolerance)


def _triangle_crossed_by(tri: IdealTriangle, g: Geodesic) -> bool:
    """Does the geodesic cut through the ideal triangle's interior?"""
    ga, gb = g.start.angle(), g.end.angle()
    span = (gb - ga) % (2.0 * math.pi)
    inside = 0
    on_boundary = 0
    for v in tri.vertices:
        if min(v.gap(g.start), v.gap(g.end)) <= 1e-12:
            on_boundary += 1
            continue
        off = (v.angle() - ga) % (2.0 * math.pi)
        if 0.0 < off < span:
            inside += 1
    return inside >= 1 and inside + on_boundary <= 2


def _earthquaked_chain(c: ChainConfiguration, t: float):
    """Fault-translated copies of the chain triangles and fault lines."""
    edges = c.shared_edges()
    faults = [
        Leaf(edge, w) for edge, w in zip(edges, c.fault_weights) if w > 0.0
    ]
    lam = DiscreteLamination(tuple(faults))
    base = c.base_point()
    moved_triangles = []
    for tri in c.triangles:
        m = earthquake_composition(lam, t, base, _interior_point(tri))
        moved_triangles.append(tri.transformed(m))
    moved_faults, _ = _carry_faults(faults, t, base)
    return moved_triangles, moved_faults


def _check_combinatorics(moved_triangles, moved_faults, t: float):
    for leaf in moved_faults:
        for tri in moved_triangles:
            if _triangle_crossed_by(tri, leaf.geodesic):
                raise TimeRangeError(
                    f"time {t} pushes a chain triangle across a fault line"
                )


def verify_fundamental_lemma(c: ChainConfiguration, ts,
                             tolerance: float = 1e-9) -> VerificationReport:
    """Earthquake the chain's faults and compare shear growth to t times mass.

    For each time the fault translations are applied to the chain, the
    chain shear is recomputed from the moved triangles, and the result
    is compared against x0 + t * y.  Times that break the chain's
    combinatorics are rejected with TimeRangeError.
    """
    p0 = chain_period(c)
    samples = []
    for t in ts:
        moved_triangles, moved_faults = _earthquaked_chain(c, t)
        _check_combinatorics(moved_triangles, moved_faults, t)
        shear_t = _chain_shear(moved_triangles)
        predicted = unipotent(p0, t)
        samples.append(Sample(
            t=t,
            measured=(shear_t, p0.y),
            predicted=(predicted.x, predicted.y),
        ))
    return VerificationReport.from_samples(samples, tolerance)


def verify_conjugacy(s: FNSurface, mc: WeightedMulticurve, arcs, ts,
                     tolerance: float = 1e-6,
                     depth_budget: float = 30.0) -> VerificationReport:
    """Compare measured (shear, mass) cuff trajectories to unipotent orbits.

    Each arc is a cuff id whose crossing arc carries mass equal to the
    multicurve weight there; the shear is measured on the earthquaked
    surface and compared against (x0 + t y, y).  The earthquake moves
    only twists, so each cuff is landed once and every sample reads the
    shear at the moved gluing's twist.  That shear is the moved twist
    plus the landings' offset, so the residual is a readback of the
    twist field: it tests floating addition, not the earthquake.
    """
    samples = []
    for cuff_id in arcs:
        y = mc.weight(cuff_id)
        landings = cuff_landings(s, cuff_id, depth_budget=depth_budget)
        x0 = shear_at_twist(landings, s.gluing_by_id(cuff_id).twist).value
        p0 = PeriodVector(x0, y)
        for t in ts:
            moved = earthquake_flow(s, mc, t)
            measured_x = shear_at_twist(landings, moved.gluing_by_id(cuff_id).twist).value
            predicted = unipotent(p0, t)
            samples.append(Sample(
                t=t,
                measured=(measured_x, y),
                predicted=(predicted.x, predicted.y),
            ))
    return VerificationReport.from_samples(samples, tolerance)
