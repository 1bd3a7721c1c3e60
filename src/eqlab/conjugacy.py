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

from dataclasses import dataclass, replace

from .hyp import BoundaryPoint, EarthquakeRangeError, Geodesic, carry_along
from .surface import FNSurface, WeightedMulticurve, cuff_offset, earthquake_flow
from .triangle import IdealTriangle, develop_step, shear_on_sides


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

    Pair k glues side sides[k][0] of triangle k to side sides[k][1] of
    triangle k+1 across one edge of transverse mass fault_weights[k]
    (zero for an unweighted edge).  Which sides meet is input, as the
    edges of a triangulation are: building only checks that each pair
    shares its named sides from opposite sides (NotAdjacentError).  The
    transversal arc crosses each edge once, so no pair may leave by the
    side the previous pair entered by.
    """

    triangles: tuple[IdealTriangle, ...]
    fault_weights: tuple[float, ...]
    sides: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.triangles) < 2:
            raise ValueError("a chain needs at least two triangles")
        if not len(self.fault_weights) == len(self.sides) == len(self.triangles) - 1:
            raise ValueError("need one fault weight and one side pair per shared edge")
        if any(w < 0.0 for w in self.fault_weights):
            raise ValueError("fault weights must be nonnegative")
        if any(k not in (0, 1, 2) for pair in self.sides for k in pair):
            raise ValueError(f"side indices must be 0, 1 or 2, got {self.sides}")
        for (_, entry), (exit_side, _) in zip(self.sides, self.sides[1:]):
            if exit_side == entry:
                raise ValueError("chain backtracks across the same edge")
        _chain_shear(self.triangles, self.sides)  # NotAdjacentError unless each pair meets

    @classmethod
    def from_steps(cls, steps, weights) -> "ChainConfiguration":
        """Build by developing (side, shear) steps from the standard triangle;
        develop_step makes the edge each step crosses side 0 of the new triangle."""
        steps = tuple(steps)
        triangles = [IdealTriangle.standard()]
        for side, shear in steps:
            triangles.append(develop_step(triangles[-1], side, shear))
        return cls(tuple(triangles), tuple(weights), tuple((side, 0) for side, _ in steps))

    def shared_edges(self) -> tuple[Geodesic, ...]:
        """Shared edges oriented by the traversal of the earlier triangle."""
        return tuple(t1.side(i) for t1, (i, _) in zip(self.triangles, self.sides))


def _chain_shear(triangles, sides) -> float:
    """Shears across the given side pairs of consecutive triangles, summed in chain order."""
    return sum((shear_on_sides(t1, i, t2, j)
                for t1, t2, (i, j) in zip(triangles, triangles[1:], sides)), 0.0)


def chain_period(c: ChainConfiguration) -> PeriodVector:
    """x is the chain shear, y the total crossed fault mass."""
    return PeriodVector(_chain_shear(c.triangles, c.sides), sum(c.fault_weights))


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
        if not samples:  # an empty report would pass while checking nothing
            raise ValueError("nothing to verify: the time list (or the arc list) is empty")
        worst = max(s.residual for s in samples)
        return cls(samples, worst, tolerance, worst <= tolerance)


def _earthquaked_chain(c: ChainConfiguration, t: float) -> list[IdealTriangle]:
    """Fault-translated copies of the chain triangles, the middle one fixed.

    Shared edge k separates triangles 0..k from the later ones, so the
    earthquake based in the middle triangle m moves triangle j by the
    faults on edges m..j-1 (j > m) or j..m-1 (j < m), the one nearest m
    acting last.  Taken from the chain's ends inward, each fault moves
    the vertices beyond it as its factors (hyp.carry_along); as one
    matrix, or a product of them, its rounding would move the edge's own
    ends and swamp a crushed triangle's shear.  m lies left of edges m..
    (a triangle lies left of its sides), whose far side moves toward the
    edge's end by t·w, and right of the others.
    """
    m = len(c.triangles) // 2
    edges = c.shared_edges()
    points = [v for tri in c.triangles for v in tri.vertices]  # triangle j's: 3j..3j+2

    def carry(k, shift, span):
        if c.fault_weights[k] > 0.0:
            moved = carry_along(edges[k], shift * c.fault_weights[k],
                                [(v.p, v.q) for v in points[span]])
            points[span] = [BoundaryPoint(p, q) for p, q in moved]

    for k in range(len(edges) - 1, m - 1, -1):
        carry(k, t, slice(3 * k + 3, None))
    for k in range(m):
        carry(k, -t, slice(3 * k + 3))
    moved = []
    try:
        for i in range(0, len(points), 3):
            moved.append(IdealTriangle(tuple(points[i:i + 3])))
    except ValueError as exc:  # the carry is exact: only its floats merge (or flip) vertices
        raise EarthquakeRangeError(f"t = {t} merges the vertices of triangle {len(moved)}") from exc
    return moved


def verify_fundamental_lemma(c: ChainConfiguration, ts,
                             tolerance: float = 1e-9) -> VerificationReport:
    """Earthquake the chain's faults and compare shear growth to t times mass.

    The chain is first moved into its middle triangle's frame: developed
    from the standard triangle, a long chain squeezes its far triangles
    toward one boundary point, whose rounding would swamp the measurement.
    An isometry keeps which sides meet, so the moved copy keeps the chain's
    sides.  For each time the middle triangle is held fixed (earthquakes
    from two base points differ by one isometry); the chain shear is read
    from the moved triangles across those sides and compared against
    x0 + t * y.  Translations along the chain's own edges never change
    which sides meet: a moved pair whose named sides no longer coincide
    within 1e-9, or lie on one side, raises NotAdjacentError, which only a
    wrong earthquake can cause, and a time that merges a moved triangle's
    vertices in floats raises EarthquakeRangeError.  The worst residual is
    7e-13 on the benchmark's 792 chains and 1.6e-12 on 17,600.
    """
    frame = c.triangles[len(c.triangles) // 2].normalizer(0)
    framed = replace(c, triangles=tuple(tri.transformed(frame) for tri in c.triangles))
    p0 = chain_period(framed)
    samples = []
    for t in ts:
        shear_t = _chain_shear(_earthquaked_chain(framed, t), framed.sides)
        predicted = unipotent(p0, t)
        samples.append(Sample(
            t=t,
            measured=(shear_t, p0.y),
            predicted=(predicted.x, predicted.y),
        ))
    return VerificationReport.from_samples(samples, tolerance)


def verify_conjugacy(s: FNSurface, mc: WeightedMulticurve, arcs, ts,
                     tolerance: float = 1e-6) -> VerificationReport:
    """Compare measured (shear, mass) cuff trajectories to unipotent orbits.

    Each arc is a cuff id whose crossing arc carries mass equal to the
    multicurve weight there; the shear is measured on the earthquaked
    surface and compared against (x0 + t y, y).  The earthquake moves
    only twists, and the two spiral landings, each the exact limit of
    its transport, do not depend on them, so each cuff is landed once
    and every sample reads the moved gluing's twist plus the cuff's
    offset.  The residual is therefore a readback of the twist field: it
    tests floating addition, not the earthquake.
    """
    samples = []
    for cuff_id in arcs:
        y = mc.weight(cuff_id)
        offset = cuff_offset(s, cuff_id)
        p0 = PeriodVector(s.gluing_by_id(cuff_id).twist + offset, y)
        for t in ts:
            moved = earthquake_flow(s, mc, t)
            measured_x = moved.gluing_by_id(cuff_id).twist + offset
            predicted = unipotent(p0, t)
            samples.append(Sample(
                t=t,
                measured=(measured_x, y),
                predicted=(predicted.x, predicted.y),
            ))
    return VerificationReport.from_samples(samples, tolerance)
