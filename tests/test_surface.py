import math
import random
from dataclasses import replace

import pytest

from eqlab.hyp import Geodesic, MoebiusTransform, apply, translation_length
from eqlab.surface import (
    CuffShear,
    FNSurface,
    Gluing,
    InvalidGluingError,
    UnsupportedCurveError,
    WeightedMulticurve,
    axis_frame,
    cuff_landing_oracle,
    cuff_landings,
    dehn_twist_substitution,
    earthquake_flow,
    fixed_points,
    fn_to_holonomy,
    multicurve_length,
    pants_rep,
    shear_across_cuff,
    shear_at_twist,
    substitute_word,
)
from eqlab.surface import _other_end, _spiral_direction, _spiral_landing
from eqlab.transport import CrossingFactor, DivergentBudgetError, TailPolicy, ordered_product
from eqlab.triangle import edge_tangency_point


BASE = FNSurface.genus2(lengths=(2.0, 2.5, 3.0), twists=(0.15, -0.3, 0.45))


def cuff_coordinate(h: MoebiusTransform, p) -> float:
    """log|z| of a point once the axis of h is sent to (0, inf)."""
    to_axis = apply(axis_frame(h), Geodesic.from_values(0, "inf")).to_imaginary_axis()
    return math.log(abs(apply(to_axis, p).z))


def landing_gap(tri, slot: int) -> float:
    """Transported landing against the horocycle oracle, in the cuff coordinate."""
    land = _spiral_landing(tri, slot, 30.0)
    oracle = cuff_landing_oracle(tri, slot)
    return abs(cuff_coordinate(land.cuff_holonomy, land.landing)
               - cuff_coordinate(land.cuff_holonomy, oracle))


def layer_factors(tri, slot: int, depth_budget: float = 30.0):
    """Matrix reference for the spiral budget: the layers as crossing factors
    F^-1 U(x_m - x_{m-1}) F, up to the first whose deviation falls below the
    depth floor, and the summed deviation of the layers after them."""
    dev, word, h, vertex = _spiral_direction(tri, slot)
    root, second = dev.place(()), dev.place(word[:1])
    (_, first_side), _ = tri.cross(root.tri, word[0])
    (_, second_side), _ = tri.cross(second.tri, word[1])
    frame = axis_frame(h.inverse()).inverse()
    x0 = apply(frame, edge_tangency_point(root.triangle, first_side)).x
    x1 = apply(frame, _other_end(second.triangle.side(second_side), vertex)).value
    length = translation_length(h)
    lam = math.exp(-length)
    steps = (x1 - x0, lam * x0 - x1)

    def step(m: int) -> float:
        periods, j = divmod(m - 1, 2)
        return steps[j] * lam ** periods

    def factor(m: int) -> CrossingFactor:
        unipotent = MoebiusTransform(1.0, step(m), 0.0, 1.0)
        return CrossingFactor.from_matrix(frame.inverse() @ unipotent @ frame, order_key=float(m))

    floor = max(math.exp(-depth_budget), 1e-15)
    factors = [factor(1)]
    while factors[-1].deviation >= floor:
        factors.append(factor(len(factors) + 1))
    # the tail layers deviate by less than a matrix's rounding, so they
    # enter as the geometric remainder |step| (c^2 + d^2) / (1 - e^{-L})
    n = len(factors)
    unit = frame.c ** 2 + frame.d ** 2
    tail = unit * (abs(step(n + 1)) + abs(step(n + 2))) / -math.expm1(-length)
    return factors, tail


def with_twist(s: FNSurface, cuff_id: int, twist: float) -> FNSurface:
    return FNSurface(
        s.pants,
        tuple(replace(g, twist=twist) if g.id == cuff_id else g for g in s.gluings),
    )


class TestFNSurfaceStructure:
    def test_unglued_slot_rejected(self):
        with pytest.raises(InvalidGluingError):
            FNSurface(pants=(0, 1), gluings=(
                Gluing(0, ((0, 0), (1, 0)), 2.0, 0.0),
                Gluing(1, ((0, 1), (1, 1)), 2.0, 0.0),
            ))

    def test_nonpositive_length_rejected(self):
        with pytest.raises(InvalidGluingError):
            FNSurface.genus2(lengths=(2.0, 0.0, 1.0))

    def test_multicurve_needs_positive_weight(self):
        with pytest.raises(ValueError):
            WeightedMulticurve({0: 0.0})


class TestPantsRep:
    def test_symmetric_traces(self):
        # boundary lengths (2, 2, 2): all traces 2 cosh(1)
        for h in pants_rep(2.0, 2.0, 2.0):
            assert abs(abs(h.trace) - 2.0 * math.cosh(1.0)) < 1e-12

    def test_lengths_recovered(self):
        lengths = (1.3, 2.6, 0.9)
        for h, l in zip(pants_rep(*lengths), lengths):
            assert abs(translation_length(h) - l) < 1e-9

    def test_product_is_identity(self):
        h1, h2, h3 = pants_rep(1.7, 2.2, 2.9)
        assert (h1 @ h2 @ h3).is_identity(1e-12)

    def test_cusps_rejected(self):
        with pytest.raises(ValueError):
            pants_rep(2.0, 0.0, 1.0)

    def test_permutation_symmetry(self):
        lengths = (1.5, 2.0, 2.5)
        base = sorted(abs(h.trace) for h in pants_rep(*lengths))
        for perm in ((2.0, 2.5, 1.5), (2.5, 1.5, 2.0), (1.5, 2.5, 2.0)):
            got = sorted(abs(h.trace) for h in pants_rep(*perm))
            for x, y in zip(base, got):
                assert abs(x - y) < 1e-10


class TestAxisFrame:
    def test_diagonalizes(self):
        rng = random.Random(17)
        for _ in range(20):
            l = rng.uniform(0.5, 3.0)
            h = pants_rep(l, 2.0, 2.5)[0]
            f = axis_frame(h)
            diag = f.inverse() @ h @ f
            assert abs(diag.b) < 1e-9 and abs(diag.c) < 1e-9
            assert diag.a > 1.0  # attracting end at infinity

    def test_fixed_points_reject_elliptic(self):
        rot = MoebiusTransform(math.cos(0.3), -math.sin(0.3), math.sin(0.3), math.cos(0.3))
        with pytest.raises(ValueError):
            fixed_points(rot)


class TestFnToHolonomy:
    def test_relator_random_tuples(self):
        rng = random.Random(23)
        for _ in range(20):
            s = FNSurface.genus2(
                lengths=tuple(rng.uniform(0.7, 3.5) for _ in range(3)),
                twists=tuple(rng.uniform(-2.0, 2.0) for _ in range(3)),
            )
            assert fn_to_holonomy(s).relator_defect() < 1e-8

    def test_cuff_traces_all_twists(self):
        lengths = (2.0, 2.5, 3.0)
        for twists in ((0, 0, 0), (0.7, -1.2, 0.4), (3.0, 2.0, -2.5)):
            rep = fn_to_holonomy(FNSurface.genus2(lengths=lengths, twists=twists))
            for word, l in (("a", lengths[1]), ("b", lengths[2]), ("BA", lengths[0])):
                assert abs(abs(rep.evaluate(word).trace) - 2.0 * math.cosh(l / 2.0)) < 1e-9

    def test_dehn_twist_periodicity(self):
        lengths = (1.8, 2.1, 2.4)
        twists = (0.2, -0.4, 0.3)
        words = ("c", "d", "ac", "bd", "abcd")
        for k in range(3):
            advanced = list(twists)
            advanced[k] += lengths[k]
            rep_twisted = fn_to_holonomy(FNSurface.genus2(lengths=lengths, twists=tuple(advanced)))
            rep_base = fn_to_holonomy(FNSurface.genus2(lengths=lengths, twists=twists))
            sub = dehn_twist_substitution(k)
            for w in words:
                got = abs(rep_twisted.evaluate(w).trace)
                want = abs(rep_base.evaluate(substitute_word(w, sub)).trace)
                assert abs(got - want) < 1e-8

    def test_non_genus2_rejected(self):
        with pytest.raises(InvalidGluingError):
            fn_to_holonomy(FNSurface(
                pants=(0, 1),
                gluings=(
                    Gluing(0, ((0, 0), (1, 1)), 2.0, 0.0),
                    Gluing(1, ((0, 1), (1, 0)), 2.0, 0.0),
                    Gluing(2, ((0, 2), (1, 2)), 2.0, 0.0),
                ),
            ))


class TestEarthquakeFlow:
    def test_time_zero(self):
        mc = WeightedMulticurve({0: 1.0})
        assert earthquake_flow(BASE, mc, 0.0) == BASE

    def test_flow_property_exact(self):
        mc = WeightedMulticurve({0: 1.0, 1: 0.5})
        one = earthquake_flow(earthquake_flow(BASE, mc, 0.2), mc, 0.3)
        direct = earthquake_flow(BASE, mc, 0.5)
        for g1, g2 in zip(one.gluings, direct.gluings):
            assert g1.twist == pytest.approx(g2.twist, abs=1e-15)
            assert g1.length == g2.length

    def test_single_weight_moves_single_twist(self):
        mc = WeightedMulticurve({0: 1.0})
        moved = earthquake_flow(BASE, mc, 0.3)
        assert moved.gluing_by_id(0).twist == BASE.gluing_by_id(0).twist + 0.3
        assert moved.gluing_by_id(1).twist == BASE.gluing_by_id(1).twist
        assert moved.gluing_by_id(2).twist == BASE.gluing_by_id(2).twist

    def test_lengths_untouched(self):
        mc = WeightedMulticurve({0: 2.0, 1: 1.0, 2: 0.5})
        moved = earthquake_flow(BASE, mc, 1.7)
        for g1, g2 in zip(moved.gluings, BASE.gluings):
            assert g1.length == g2.length

    def test_unsupported_curve(self):
        with pytest.raises(UnsupportedCurveError):
            earthquake_flow(BASE, WeightedMulticurve({7: 1.0}), 0.1)


class TestMulticurveLength:
    def test_weighted_sum(self):
        s = FNSurface.genus2(lengths=(2.0, 3.0, 4.0))
        mc = WeightedMulticurve({0: 1.0, 1: 1.0, 2: 1.0})
        assert multicurve_length(s, mc) == 9.0

    def test_invariant_under_own_earthquake(self):
        mc = WeightedMulticurve({0: 1.0, 1: 2.0})
        l0 = multicurve_length(BASE, mc)
        for t in (0.1, 0.7, -1.3):
            assert multicurve_length(earthquake_flow(BASE, mc, t), mc) == l0

    def test_scaling(self):
        mc1 = WeightedMulticurve({0: 1.0, 2: 0.5})
        mc2 = WeightedMulticurve({0: 2.0, 2: 1.0})
        assert multicurve_length(BASE, mc2) == 2.0 * multicurve_length(BASE, mc1)

    def test_unknown_cuff(self):
        with pytest.raises(UnsupportedCurveError):
            multicurve_length(BASE, WeightedMulticurve({9: 1.0}))


class TestSpiralTransport:
    def test_landing_matches_horocycle_oracle(self):
        # dual route: the transported landing point against the closed-form
        # intersection of the reference horocycle with the cuff axis
        surfaces = [FNSurface.genus2(lengths=lengths) for lengths in (
            (2.0, 2.5, 3.0), (0.8, 1.1, 0.9), (4.0, 3.5, 5.0), (0.2049, 0.99, 4.715))]
        surfaces.append(FNSurface.genus2(lengths=(1.3, 2.2, 0.7),
                                         spiral_signs=((1, -1), (-1, 1), (-1, -1))))
        for s in surfaces:
            for pants_id in (0, 1):
                tri = s.pants_triangulation(pants_id)
                for slot in range(3):
                    assert landing_gap(tri, slot) < 1e-12

    def test_deviations_decay(self):
        # the layer deviations decay geometrically, so the dropped tail,
        # and with it the error bound, shrinks like e^{-depth}
        tri = BASE.pants_triangulation(0)
        for slot in range(3):
            bounds = [_spiral_landing(tri, slot, depth).error_bound for depth in (10.0, 20.0, 30.0)]
            assert 0.0 < bounds[2] < 1e-3 * bounds[1]
            assert bounds[1] < 1e-3 * bounds[0]

    def test_error_bound_matches_matrix_reference(self):
        # the closed-form deviations |x_m - x_{m-1}| (c^2 + d^2) give the
        # same budget and bound as the per-layer matrices
        mixed = ((1, -1), (-1, 1), (-1, -1))
        cases = [(BASE, slot) for slot in range(3)]
        cases += [(FNSurface.genus2(lengths=(1.3, 2.2, 0.7), spiral_signs=mixed), slot)
                  for slot in range(3)]
        for length in (0.1, 11.0):
            for signs in ((1, 1), (1, -1), (-1, -1)):
                cases.append((FNSurface.genus2(lengths=(length, 2.0, 2.5),
                                               spiral_signs=(signs, (1, 1), (1, 1))), 0))
        checked = 0
        for s, slot in cases:
            for pants_id in (0, 1):
                tri = s.pants_triangulation(pants_id)
                factors, tail = layer_factors(tri, slot)
                total = tail + sum(f.deviation for f in factors)
                for budget in (0.5 * total, 0.999 * total, 1.001 * total, 64.0):
                    policy = TailPolicy(divergence_budget=budget)
                    try:
                        want = ordered_product(factors, policy, tail_deviation=tail).error_bound
                    except DivergentBudgetError:
                        with pytest.raises(DivergentBudgetError):
                            _spiral_landing(tri, slot, 30.0, policy)
                        continue
                    got = _spiral_landing(tri, slot, 30.0, policy).error_bound
                    assert abs(got - want) <= 1e-10 * want + 1e-13
                    checked += 1
        assert checked > 2 * len(cases)

    def test_layer_limit_is_typed(self):
        # a very short cuff needs tens of thousands of layers to reach the depth
        s = FNSurface.genus2(lengths=(0.001, 2.0, 2.5))
        with pytest.raises(InvalidGluingError, match="4000-layer limit"):
            shear_across_cuff(s, 0)


class TestShearAcrossCuff:
    def test_twist_response(self):
        # finite differences of the shear in the twist at three base points
        rng = random.Random(31)
        for _ in range(3):
            s = FNSurface.genus2(
                lengths=tuple(rng.uniform(1.0, 3.0) for _ in range(3)),
                twists=tuple(rng.uniform(-1.0, 1.0) for _ in range(3)),
            )
            for cuff in range(3):
                tau = s.gluing_by_id(cuff).twist
                for eps in (0.1, 0.01):
                    up = shear_across_cuff(with_twist(s, cuff, tau + eps), cuff).value
                    down = shear_across_cuff(with_twist(s, cuff, tau - eps), cuff).value
                    assert abs((up - down) / (2.0 * eps) - 1.0) < 1e-6

    def test_landings_independent_of_twist(self):
        mixed = FNSurface.genus2(lengths=(1.3, 2.2, 0.7),
                                 spiral_signs=((1, -1), (-1, 1), (-1, -1)))
        for s in (BASE, mixed):
            for cuff in range(3):
                at_zero = cuff_landings(with_twist(s, cuff, 0.0), cuff)
                at_07 = cuff_landings(with_twist(s, cuff, 0.7), cuff)
                assert at_zero == at_07 and repr(at_zero) == repr(at_07)
                moved = shear_across_cuff(with_twist(s, cuff, 0.7), cuff)
                assert shear_at_twist(at_zero, 0.7) == moved

    def test_truncation_stability(self):
        for cuff in range(3):
            v1 = shear_across_cuff(BASE, cuff, depth_budget=30.0).value
            v2 = shear_across_cuff(BASE, cuff, depth_budget=60.0).value
            assert abs(v1 - v2) < 1e-10

    def test_length_derivative_generally_nonzero(self):
        eps = 1e-3
        lengths = (2.0, 2.5, 3.0)
        bumped = (2.0, 2.5 + eps, 3.0)
        s1 = FNSurface.genus2(lengths=lengths)
        s2 = FNSurface.genus2(lengths=bumped)
        d = (shear_across_cuff(s2, 1).value - shear_across_cuff(s1, 1).value) / eps
        assert abs(d) > 1e-3  # no assertion of the value, just nonvanishing

    def test_error_bound_reported(self):
        sh = shear_across_cuff(BASE, 0)
        assert isinstance(sh, CuffShear)
        assert 0.0 <= sh.error_bound < 1e-6

    def test_long_cuffs_all_spiral_signs(self):
        for length in (11.0, 15.0):
            for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                s = FNSurface.genus2(lengths=(length, 2.0, 2.5), twists=(0.3, 0.0, 0.0),
                                     spiral_signs=(signs, (1, 1), (1, 1)))
                assert math.isfinite(shear_across_cuff(s, 0).value)
                for pants_id in (0, 1):
                    assert landing_gap(s.pants_triangulation(pants_id), 0) < 1e-12

    def test_divergent_budget_propagates(self):
        from eqlab.transport import DivergentBudgetError, TailPolicy
        with pytest.raises(DivergentBudgetError):
            shear_across_cuff(BASE, 0, policy=TailPolicy(divergence_budget=1e-6))
