"""The chain verifier's per-time loop, as it ran before it shared what no time moves.

`verify_fundamental_lemma` frames each distinct vertex once, keeps the
framed chain's edges and pair shears, and at each time rebuilds and
re-measures only the triangles a fault of positive weight moves.  This
reference rebuilds every framed triangle, every shared edge, every moved
triangle and every pair shear at every time, so the tests can require
the two to give equal reports, float for float, and the same errors.
"""

from eqlab.conjugacy import ChainConfiguration, PeriodVector, Sample, VerificationReport, unipotent
from eqlab.hyp import BoundaryPoint, EarthquakeRangeError, carry_along
from eqlab.triangle import IdealTriangle, shear_on_sides
from triangle_reference import transformed


def chain_shear(triangles, sides) -> float:
    """Shears across the given side pairs of consecutive triangles, summed in chain order."""
    return sum((shear_on_sides(t1, i, t2, j)
                for t1, t2, (i, j) in zip(triangles, triangles[1:], sides)), 0.0)


def earthquaked_chain(c: ChainConfiguration, t: float) -> list:
    """Every chain triangle rebuilt after its faults, the middle one fixed."""
    m = len(c.triangles) // 2
    edges = tuple(t1.side(i) for t1, (i, _) in zip(c.triangles, c.sides))
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
    except ValueError as exc:
        raise EarthquakeRangeError(f"t = {t} merges the vertices of triangle {len(moved)}") from exc
    return moved


def verify_fundamental_lemma(c: ChainConfiguration, ts,
                             tolerance: float = 1e-9) -> VerificationReport:
    """The verifier with every triangle framed on its own and everything rebuilt per time."""
    frame = c.triangles[len(c.triangles) // 2].normalizer(0)
    framed = ChainConfiguration(tuple(transformed(tri, frame) for tri in c.triangles),
                                c.fault_weights, c.sides)
    p0 = PeriodVector(chain_shear(framed.triangles, framed.sides), sum(framed.fault_weights))
    samples = []
    for t in ts:
        shear_t = chain_shear(earthquaked_chain(framed, t), framed.sides)
        predicted = unipotent(p0, t)
        samples.append(Sample(t=t, measured=(shear_t, p0.y),
                              predicted=(predicted.x, predicted.y)))
    return VerificationReport(samples, tolerance)
