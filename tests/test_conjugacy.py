import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eqlab.conjugacy import (
    ChainConfiguration,
    PeriodVector,
    Sample,
    TimeRangeError,
    VerificationReport,
    chain_period,
    unipotent,
    verify_conjugacy,
    verify_fundamental_lemma,
    _check_combinatorics,
    _earthquaked_chain,
    _interior_point,
)
from eqlab.hyp import BoundaryPoint, Geodesic
from eqlab.lamination import DiscreteLamination, Leaf, earthquake_composition
from eqlab import surface
from eqlab.surface import (
    FNSurface, InvalidGluingError, WeightedMulticurve, earthquake_flow, shear_across_cuff,
)
from eqlab.triangle import IdealTriangle, ShearRangeError, develop_step

# every cuff length the surface schema accepts, with lengths in [1e-12, 40],
# where most surfaces land, drawn as often as the whole positive float range
_LENGTHS = st.one_of(st.floats(1e-12, 40.0),
                     st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
# twists, weights and times stay where t * weight + twist sums to well
# under 1e9, so the floating readback itself stays inside the tolerance
_MODERATE = st.floats(-1e3, 1e3)


class TestUnipotent:
    def test_arithmetic(self):
        q = unipotent(PeriodVector(1.0, 2.0), 3.0)
        assert (q.x, q.y) == (7.0, 2.0)

    def test_time_zero(self):
        p = PeriodVector(0.3, 1.7)
        q = unipotent(p, 0.0)
        assert (q.x, q.y) == (p.x, p.y)

    def test_group_law_exact_dyadic(self):
        # dyadic data keeps the float arithmetic exact
        p = PeriodVector(0.75, 2.5)
        one = unipotent(unipotent(p, 0.25), 0.5)
        direct = unipotent(p, 0.75)
        assert one == direct

    def test_group_law_float(self):
        p = PeriodVector(0.123, 1.456)
        one = unipotent(unipotent(p, 0.111), 0.222)
        direct = unipotent(p, 0.333)
        assert abs(one.x - direct.x) < 1e-12 and one.y == direct.y

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            PeriodVector(0.0, -1.0)


class TestChainPeriod:
    def test_unweighted_chain_has_zero_mass(self):
        c = ChainConfiguration.from_steps([(1, 0.4)], [0.0])
        assert chain_period(c).y == 0.0

    def test_adjacent_pair(self):
        c = ChainConfiguration.from_steps([(1, 0.6)], [0.75])
        p = chain_period(c)
        assert abs(p.x - 0.6) < 1e-12
        assert p.y == 0.75

    def test_mass_additivity(self):
        c = ChainConfiguration.from_steps(
            [(1, 0.5), (2, -0.4), (1, 0.8)], [1.0, 2.0, 0.5]
        )
        assert chain_period(c).y == 3.5

    def test_shear_additivity(self):
        c = ChainConfiguration.from_steps([(1, 0.5), (2, -0.4)], [1.0, 1.0])
        assert abs(chain_period(c).x - 0.1) < 1e-12

    def test_backtracking_rejected(self):
        with pytest.raises(ValueError):
            ChainConfiguration.from_steps([(1, 0.5), (0, 0.2)], [1.0, 1.0])

    def test_concatenation_additivity(self):
        t0 = IdealTriangle.standard()
        t1 = develop_step(t0, 1, 0.7)
        t2 = develop_step(t1, 2, -0.4)
        x_a = chain_period(ChainConfiguration((t0, t1), (0.0,))).x
        x_b = chain_period(ChainConfiguration((t1, t2), (0.0,))).x
        x_ab = chain_period(ChainConfiguration((t0, t1, t2), (0.0, 0.0))).x
        assert abs(x_ab - x_a - x_b) < 1e-14


class TestFundamentalLemma:
    def test_shared_edge_case(self):
        c = ChainConfiguration.from_steps([(1, 0.6)], [1.0])
        report = verify_fundamental_lemma(c, [0.1, 0.2, 0.5], tolerance=1e-12)
        assert report.passed
        assert report.max_residual <= 1e-12

    def test_time_zero_exact(self):
        c = ChainConfiguration.from_steps([(1, 0.6)], [1.0])
        report = verify_fundamental_lemma(c, [0.0], tolerance=0.0)
        assert report.max_residual == 0.0

    def test_multi_fault_slope(self):
        c = ChainConfiguration.from_steps(
            [(1, 0.5), (2, -0.4), (1, 0.8)], [1.0, 2.0, 0.5]
        )
        ts = [0.05 * k for k in range(1, 9)]
        report = verify_fundamental_lemma(c, ts, tolerance=1e-9)
        assert report.passed
        xs = [s.measured[0] for s in report.samples]
        slope, intercept = np.polyfit(ts, xs, 1)
        assert abs(slope - 3.5) < 1e-9
        fit_residual = max(abs(x - (slope * t + intercept)) for t, x in zip(ts, xs))
        assert fit_residual < 1e-9

    def test_mass_component_constant(self):
        c = ChainConfiguration.from_steps([(1, 0.3), (2, 0.2)], [0.5, 1.5])
        report = verify_fundamental_lemma(c, [0.1, 0.4], tolerance=1e-9)
        for s in report.samples:
            assert s.measured[1] == 2.0 and s.predicted[1] == 2.0

    def test_large_time_still_exact(self):
        # translations along the chain's own edges never break its
        # combinatorics, so the identity holds far beyond "small" times
        c = ChainConfiguration.from_steps([(1, 0.6), (1, -0.2)], [1.0, 0.5])
        report = verify_fundamental_lemma(c, [3.0, 7.0], tolerance=1e-9)
        assert report.passed

    def test_signed_times(self):
        c = ChainConfiguration.from_steps([(1, 0.5), (2, -0.4)], [1.0, 0.5])
        report = verify_fundamental_lemma(c, [-0.3, -0.1, 0.1, 0.3], tolerance=1e-11)
        assert report.passed

    def test_near_shared_vertex_keeps_every_edge(self):
        # the last triangle's vertex 1 sits 1e-11 off the shared edge's end:
        # adjacent within 1e-9, so the chain keeps one edge per weight
        t0 = IdealTriangle.standard()
        t1 = develop_step(t0, 1, 0.3)
        t2 = develop_step(t1, 2, -0.2)
        v = t2.vertices[1]
        nudged = IdealTriangle((t2.vertices[0], BoundaryPoint(v.p, v.q + 1e-11), t2.vertices[2]))
        c = ChainConfiguration((t0, t1, nudged), (1.0, 0.5))
        assert len(c.shared_edges()) == len(c.fault_weights)
        # _triangle_crossed_by's 1e-12 boundary test takes the nudged vertex
        # for one inside the fault's arc (a FOUND line in CHANGES.md); mending
        # it should turn this into a report over all three triangles, x0 = 0.1
        with pytest.raises(TimeRangeError):
            verify_fundamental_lemma(c, [0.0])

    def test_range_check_rejects_crossing(self):
        # the combinatorics guard itself, fed a fabricated crossing
        tri = IdealTriangle.from_values(-1, 1, "inf")
        crossing_fault = Leaf(Geodesic.from_values(0, "inf"), 1.0)
        with pytest.raises(TimeRangeError):
            _check_combinatorics([tri], [crossing_fault], 0.5)


class TestChainEarthquake:
    @staticmethod
    def _searched(c, t):
        """Each triangle's earthquake found by the lamination's own search."""
        lam = DiscreteLamination(tuple(
            Leaf(edge, w) for edge, w in zip(c.shared_edges(), c.fault_weights) if w > 0.0))
        base = c.base_point()
        return [tri.transformed(earthquake_composition(lam, t, base, _interior_point(tri)))
                for tri in c.triangles]

    def test_prefix_equals_per_triangle_search(self):
        # shared edge k separates triangles 0..k from the rest, so the
        # running composition in chain order is the searched earthquake
        rng = random.Random(12)
        for _ in range(80):
            count = rng.randint(2, 12)
            c = ChainConfiguration.from_steps(
                [(rng.choice((1, 2)), rng.uniform(-1.0, 1.0)) for _ in range(count)],
                [0.0 if rng.random() < 0.5 else rng.uniform(0.25, 2.0) for _ in range(count)])
            t = rng.uniform(-0.3, 0.3)
            moved, _ = _earthquaked_chain(c, t)
            assert moved == self._searched(c, t)

    def test_crushed_chain_verifies_in_middle_frame(self):
        # perfbench/inputs.chain_round(0, 1)[19]: developed from the standard
        # triangle, its last triangle's vertices lie within 4.4e-3 of each
        # other near -1.39, where the combinatorics guard misfired at t = 0.276
        steps = [(2, 0.6411187287457951), (2, -0.8717259558823507), (1, -0.08652596501799126),
                 (2, 0.9793017103643828), (2, -0.8063134524599482), (2, 0.7141414725053667),
                 (1, 0.4501851666589525), (1, -0.27261905319020396)]
        weights = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.6435462799731329, 0.7436482922675114]
        ts = [-0.048230436851697034, 0.03781149845295739, 0.12370767867418042,
              0.14346527875128673, 0.21334534706072533, 0.27610054196112904]
        c = ChainConfiguration.from_steps(steps, weights)
        vertices = [v.value for v in c.triangles[-1].vertices]
        assert max(vertices) - min(vertices) < 4.5e-3
        report = verify_fundamental_lemma(c, ts, tolerance=1e-9)
        assert report.passed


class TestVerificationReport:
    def test_passed_flag_consistency(self):
        s = Sample(0.1, (1.0, 1.0), (1.5, 1.0))
        with pytest.raises(ValueError):
            VerificationReport((s,), 0.5, 1e-9, True)

    def test_from_samples(self):
        s = Sample(0.1, (1.0, 1.0), (1.0 + 1e-12, 1.0))
        report = VerificationReport.from_samples([s], 1e-9)
        assert report.passed and report.max_residual == pytest.approx(1e-12, rel=1e-3)


class TestConjugacy:
    SURFACE = FNSurface.genus2(lengths=(2.0, 2.5, 3.0), twists=(0.1, -0.2, 0.3))

    def test_unit_weight_cuff(self):
        mc = WeightedMulticurve({0: 1.0})
        ts = [0.1 * k for k in range(6)]
        report = verify_conjugacy(self.SURFACE, mc, [0], ts, tolerance=1e-6)
        assert report.passed
        # x grows by exactly t, y constant exactly
        for s in report.samples:
            assert s.measured[1] == s.predicted[1]

    def test_weight_two_slope(self):
        mc = WeightedMulticurve({0: 2.0})
        ts = [0.1 * k for k in range(6)]
        report = verify_conjugacy(self.SURFACE, mc, [0], ts, tolerance=1e-6)
        assert report.passed
        xs = [s.measured[0] for s in report.samples]
        slope = np.polyfit(ts, xs, 1)[0]
        assert abs(slope - 2.0) < 1e-6

    def test_zero_weight_arc_constant(self):
        mc = WeightedMulticurve({1: 1.0})  # mass elsewhere; arc at cuff 0 is dry
        ts = [0.1, 0.3, 0.5]
        report = verify_conjugacy(self.SURFACE, mc, [0], ts, tolerance=1e-6)
        assert report.passed
        x0 = report.samples[0].predicted[0]
        for s in report.samples:
            assert abs(s.measured[0] - x0) < 1e-6

    def test_multiple_arcs(self):
        mc = WeightedMulticurve({0: 1.0, 1: 0.5, 2: 0.25})
        report = verify_conjugacy(self.SURFACE, mc, [0, 1, 2], [0.0, 0.2, 0.4],
                                  tolerance=1e-6)
        assert report.passed

    def test_signed_times(self):
        mc = WeightedMulticurve({0: 1.0})
        report = verify_conjugacy(self.SURFACE, mc, [0],
                                  [-0.4, -0.2, 0.0, 0.2, 0.4], tolerance=1e-6)
        assert report.passed

    def test_measured_shear_is_shear_across_moved_cuff(self):
        # landing once per arc gives the same bits as shearing each moved surface
        mixed = ((1, -1), (-1, 1), (-1, -1))
        surfaces = [self.SURFACE, FNSurface.genus2(lengths=(1.3, 2.2, 0.7),
                                                   twists=(0.2, 0.0, -0.4), spiral_signs=mixed)]
        for length in (0.1, 11.0):
            for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                surfaces.append(FNSurface.genus2(lengths=(length, 2.0, 2.5),
                                                 twists=(0.3, 0.0, 0.0),
                                                 spiral_signs=(signs, (1, 1), (1, 1))))
        mc = WeightedMulticurve({0: 1.0, 1: 0.5, 2: 2.0})
        ts = [-0.3, 0.0, 0.25, 1.5]
        for s in surfaces:
            for cuff in range(3):
                want = [shear_across_cuff(earthquake_flow(s, mc, t), cuff) for t in ts]
                report = verify_conjugacy(s, mc, [cuff], ts)
                assert [sample.measured[0] for sample in report.samples] == want

    def test_lands_each_arc_once(self, monkeypatch):
        calls = []
        landing = surface._spiral_landing

        def counted(*args, **kwargs):
            calls.append(args[1])
            return landing(*args, **kwargs)

        monkeypatch.setattr(surface, "_spiral_landing", counted)
        mc = WeightedMulticurve({0: 1.0, 2: 0.5})
        for arcs in ([0], [0, 1, 2]):
            for ts in ([], [0.0], [0.1 * k for k in range(6)]):
                calls.clear()
                report = verify_conjugacy(self.SURFACE, mc, arcs, ts)
                assert len(report.samples) == len(arcs) * len(ts)
                assert len(calls) == 2 * len(arcs)

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(_LENGTHS, _LENGTHS, _LENGTHS), st.tuples(_MODERATE, _MODERATE, _MODERATE),
           st.lists(st.sampled_from((-1, 1)), min_size=6, max_size=6), st.integers(0, 2),
           st.floats(0.0, 1e3, exclude_min=True), st.lists(_MODERATE, min_size=1, max_size=4))
    # a length the shears cannot resolve next to cuffs of 2 and 2.5, and a
    # subnormal one, from which no float division or logarithm may escape
    @example((1e-20, 2.0, 2.5), (0.0, 0.0, 0.0), [1] * 6, 0, 1.0, [0.0, 1.0])
    @example((1e-310, 1e-310, 1e-310), (0.0, 0.0, 0.0), [1, -1] * 3, 1, 1.0, [0.5])
    def test_published_domain_verifies_or_names_its_limit(self, lengths, twists, signs, arc,
                                                          weight, ts):
        s = FNSurface.genus2(lengths, twists, (tuple(signs[:2]), tuple(signs[2:4]),
                                               tuple(signs[4:])))
        try:
            report = verify_conjugacy(s, WeightedMulticurve({arc: weight}), [arc], ts)
        except (ShearRangeError, InvalidGluingError):
            return
        assert report.passed
