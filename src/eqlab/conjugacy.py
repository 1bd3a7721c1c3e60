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

from .hyp import BoundaryPoint, EarthquakeRangeError, Geodesic, Record, _set, apply, carry_along
from .triangle import IdealTriangle, _is_index, develop_step, shear_on_sides


class PeriodVector(Record):
    """Horizontal (shear) and vertical (transverse measure) components."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        if y < 0.0:
            raise ValueError("transverse measure must be nonnegative")
        _set(self, "x", x)
        _set(self, "y", y)


def unipotent(p: PeriodVector, t: float) -> PeriodVector:
    """The action (x, y) -> (x + t y, y)."""
    return PeriodVector(p.x + t * p.y, p.y)


class ChainConfiguration(Record):
    """Developed chain of adjacent triangles with weighted fault edges.

    Pair k glues side sides[k][0] of triangle k to side sides[k][1] of
    triangle k+1 across one edge of transverse mass fault_weights[k]
    (zero for an unweighted edge).  Which sides meet is input, as the
    edges of a triangulation are: building only checks that each pair
    shares its named sides from opposite sides (NotAdjacentError).  The
    transversal arc crosses each edge once, so no pair may leave by the
    side the previous pair entered by.  The adjacency check reads each
    pair's shear, and the chain keeps them, with its shared edges.
    """

    __slots__ = ("triangles", "fault_weights", "sides", "_shears", "_edges")

    def __init__(self, triangles: tuple[IdealTriangle, ...], fault_weights: tuple[float, ...],
                 sides: tuple[tuple[int, int], ...]):
        if len(triangles) < 2:
            raise ValueError("a chain needs at least two triangles")
        if not len(fault_weights) == len(sides) == len(triangles) - 1:
            raise ValueError("need one fault weight and one side pair per shared edge")
        if not all(w >= 0.0 for w in fault_weights):  # NaN fails too
            raise ValueError(f"fault weights must be nonnegative, got {fault_weights}")
        if math.inf in fault_weights:
            k = fault_weights.index(math.inf)
            raise ValueError(f"fault weight inf on edge {k} is not finite")
        _check_sides(sides)
        for (_, entry), (exit_side, _) in zip(sides, sides[1:]):
            if exit_side == entry:
                raise ValueError("chain backtracks across the same edge")
        shears = tuple(shear_on_sides(t1, i, t2, j)  # NotAdjacentError unless each pair meets
                       for t1, t2, (i, j) in zip(triangles, triangles[1:], sides))
        _set(self, "triangles", triangles)
        _set(self, "fault_weights", fault_weights)
        _set(self, "sides", sides)
        _set(self, "_shears", shears)
        _set(self, "_edges", tuple(t1.side(i) for t1, (i, _) in zip(triangles, sides)))

    @classmethod
    def from_steps(cls, steps, weights) -> "ChainConfiguration":
        """Build by developing (side, shear) steps from the standard triangle;
        develop_step makes the edge each step crosses side 0 of the new triangle."""
        steps = tuple(steps)
        sides = tuple((side, 0) for side, _ in steps)
        _check_sides(sides)
        triangles = [IdealTriangle.standard()]
        for side, shear in steps:
            triangles.append(develop_step(triangles[-1], side, shear))
        return cls(tuple(triangles), tuple(weights), sides)

    def shared_edges(self) -> tuple[Geodesic, ...]:
        """Shared edges oriented by the traversal of the earlier triangle."""
        return self._edges


def _check_sides(sides) -> None:
    if not all(_is_index(k, 3) for pair in sides for k in pair):
        raise ValueError(f"side indices must be 0, 1 or 2, got {sides}")


def _chain_shear(c: ChainConfiguration, moved) -> float:
    """The shears across c's side pairs of c's triangles moved to `moved`,
    summed in chain order; a pair whose two triangles are c's own keeps c's shear."""
    return sum((s if m1 is t1 and m2 is t2 else shear_on_sides(m1, i, m2, j)
                for t1, t2, m1, m2, (i, j), s
                in zip(c.triangles, c.triangles[1:], moved, moved[1:], c.sides, c._shears)), 0.0)


def chain_period(c: ChainConfiguration) -> PeriodVector:
    """x is the chain shear, y the total crossed fault mass."""
    return PeriodVector(sum(c._shears, 0.0), sum(c.fault_weights))


class Sample(Record):
    __slots__ = ("t", "measured", "predicted")

    def __init__(self, t: float, measured: tuple[float, float], predicted: tuple[float, float]):
        _set(self, "t", t)
        _set(self, "measured", measured)
        _set(self, "predicted", predicted)

    @property
    def residual(self) -> float:
        return max(abs(m - p) for m, p in zip(self.measured, self.predicted))


class VerificationReport(Record):
    """Samples against a tolerance; the worst residual and the verdict follow from them."""

    __slots__ = ("samples", "max_residual", "tolerance", "passed")

    def __init__(self, samples, tolerance: float):
        samples = tuple(samples)
        if not samples:  # an empty report would pass while checking nothing
            raise ValueError("nothing to verify: the time list (or the arc list) is empty")
        worst = max(s.residual for s in samples)
        _set(self, "samples", samples)
        _set(self, "max_residual", worst)
        _set(self, "tolerance", tolerance)
        _set(self, "passed", worst <= tolerance)


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
    edge's end by t·w, and right of the others.  A triangle that no fault
    of positive weight separates from m is returned as c's own: at any
    time, t = 0 too, a weighted fault's carry rounds the vertices it
    moves, so "unmoved" is read from the weights, not from the shift.
    """
    weights = c.fault_weights
    lo = hi = len(c.triangles) // 2
    while lo > 0 and weights[lo - 1] == 0.0:
        lo -= 1
    while hi < len(weights) and weights[hi] == 0.0:
        hi += 1
    edges = c.shared_edges()
    points = [v for tri in c.triangles for v in tri.vertices]  # triangle j's: 3j..3j+2

    def carry(k, shift, span):
        if weights[k] > 0.0:
            moved = carry_along(edges[k], shift * weights[k], [(v.p, v.q) for v in points[span]])
            points[span] = [BoundaryPoint(p, q) for p, q in moved]

    for k in range(len(edges) - 1, hi - 1, -1):
        carry(k, t, slice(3 * k + 3, None))
    for k in range(lo):
        carry(k, -t, slice(3 * k + 3))
    moved = []
    try:
        for j, tri in enumerate(c.triangles):
            moved.append(tri if lo <= j <= hi else IdealTriangle(tuple(points[3 * j:3 * j + 3])))
    except ValueError as exc:  # the carry is exact: only its floats merge (or flip) vertices
        raise EarthquakeRangeError(f"t = {t} merges the vertices of triangle {len(moved)}") from exc
    return moved


def _framed(c: ChainConfiguration) -> ChainConfiguration:
    """c moved into its middle triangle's frame, each vertex object moved
    once: develop_step hands the crossed side's two points on to the next
    triangle."""
    frame = c.triangles[len(c.triangles) // 2].normalizer(0)
    images = {}
    triangles = []
    for tri in c.triangles:
        vertices = []
        for v in tri.vertices:
            image = images.get(id(v))
            if image is None:
                image = images[id(v)] = apply(frame, v)
            vertices.append(image)
        triangles.append(IdealTriangle(tuple(vertices)))
    return ChainConfiguration(tuple(triangles), c.fault_weights, c.sides)


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

    What no time moves is done once per verification: the framed chain,
    each distinct vertex moved once, with its shared edges and pair
    shears.  Each time rebuilds and re-measures only the triangles a
    fault of positive weight moves; the unmoved middle stays the framed
    triangles, and a pair of two of them keeps its framed shear.
    """
    framed = _framed(c)
    p0 = chain_period(framed)
    samples = []
    for t in ts:
        shear_t = _chain_shear(framed, _earthquaked_chain(framed, t))
        predicted = unipotent(p0, t)
        samples.append(Sample(
            t=t,
            measured=(shear_t, p0.y),
            predicted=(predicted.x, predicted.y),
        ))
    return VerificationReport(samples, tolerance)


_ROUNDING = 2.0 ** -53  # the unit roundoff of a double


def verify_conjugacy(s: FNSurface, mc: WeightedMulticurve, arcs, ts,
                     tolerance: float = 1e-6) -> VerificationReport:
    """Compare measured (shear, mass) cuff trajectories to unipotent orbits.

    Each arc is a cuff id whose crossing arc carries mass equal to the
    multicurve weight there; the shear is measured on the earthquaked
    surface and compared against (x0 + t y, y).  The earthquake moves
    only twists, and the two spiral landings, each the exact limit of
    its transport, do not depend on them, so each cuff is landed once,
    the surface is moved once per time, and every sample reads the cuff's
    moved twist, twists[cuff_id], plus its offset.  The residual is
    therefore a readback of the twist field: it tests floating addition,
    not the earthquake.  Its rounding is below 4u (|twist| + |offset| +
    max|t|·w), u = 2^-53; a weighted arc where that bound passes the
    tolerance is refused with EarthquakeRangeError, naming the largest
    |t·w| the tolerance resolves.
    """
    from .surface import cuff_offset, earthquake_flow  # only this verifier needs the surface

    ts = tuple(ts)  # a one-shot iterator still samples every arc
    reach = max(map(abs, ts), default=0.0)
    samples = []
    moved = None
    for cuff_id in arcs:
        y = mc.weight(cuff_id)
        offset = cuff_offset(s, cuff_id)
        p0 = PeriodVector(s.twists[cuff_id] + offset, y)
        if moved is None:  # after the first arc's offset: an unknown arc is named first
            moved = [(t, earthquake_flow(s, mc, t)) for t in ts]
        fixed = abs(s.twists[cuff_id]) + abs(offset)
        if y > 0.0 and 4.0 * _ROUNDING * (fixed + reach * y) > tolerance:
            resolved = max(tolerance / (4.0 * _ROUNDING) - fixed, 0.0)
            raise EarthquakeRangeError(
                f"|t·w| = {reach * y!r} on cuff {cuff_id} is past what the tolerance {tolerance!r} "
                f"resolves: the readback rounds by up to 4u (|twist| + |offset| + |t·w|), "
                f"u = 2^-53, so only |t·w| <= {resolved:.6g} is resolved")
        for t, surface_t in moved:
            measured_x = surface_t.twists[cuff_id] + offset
            predicted = unipotent(p0, t)
            samples.append(Sample(
                t=t,
                measured=(measured_x, y),
                predicted=(predicted.x, predicted.y),
            ))
    return VerificationReport(samples, tolerance)
