import math
import random

import pytest

from eqlab.hyp import (
    Geodesic,
    HPoint,
    MoebiusTransform,
    UnitTangent,
    apply,
)
from eqlab.transport import (
    CrossingFactor,
    DepthRangeError,
    DivergentBudgetError,
    Spike,
    frobenius_deviation,
    horocycle_conjugate,
    ordered_product,
    spike_crossing_sequence,
)
from hyp_reference import close_to, crossing_factor, is_identity, normalized_spike


def rotation(th):
    return MoebiusTransform(math.cos(th), -math.sin(th), math.sin(th), math.cos(th))


def random_small_factor(rng, scale):
    """Near-identity element of determinant one with deviation about `scale`."""
    x = rng.uniform(-scale, scale)
    t = rng.uniform(-scale, scale)
    th = rng.uniform(-scale, scale)
    m = MoebiusTransform(1.0, x, 0.0, 1.0) @ MoebiusTransform(
        math.exp(t / 2), 0.0, 0.0, math.exp(-t / 2)
    ) @ rotation(th)
    return CrossingFactor(m)


class TestHorocycleConjugate:
    def test_time_zero(self):
        m = horocycle_conjugate(0.0)
        assert m.entries() == (1.0, 1.0, 0.0, 1.0)

    def test_displayed_identity(self):
        for t in (0.0, 1.0, 5.0, 20.0):
            m = horocycle_conjugate(t)
            expected = (1.0, math.exp(-t), 0.0, 1.0)
            for got, want in zip(m.entries(), expected):
                assert abs(got - want) <= 1e-15

    def test_deviation_reads_off_corner(self):
        for t in (0.5, 2.0, 7.0):
            assert abs(frobenius_deviation(horocycle_conjugate(t)) - math.exp(-t)) < 1e-15

    # math.exp(-t) raised OverflowError past depth -709.78
    def test_depth_beyond_float_range_is_named(self):
        assert horocycle_conjugate(-709.78).b == math.exp(709.78)
        for t in (-709.79, -1000.0, math.nan):
            with pytest.raises(DepthRangeError, match=rf"leaf depth {t!r}: .*depth >= -709\.783"):
                horocycle_conjugate(t)
        with pytest.raises(DepthRangeError, match="leaf depth -1000.0"):
            spike_crossing_sequence(normalized_spike(), [-1000.0, 1.0])


class TestCrossingFactor:
    def test_identity_case(self):
        v = UnitTangent.upward_at(HPoint(0.3, 2.0))
        f = crossing_factor(v, v)
        assert f.deviation == 0.0
        assert is_identity(f.matrix, 1e-14)

    def test_depth_matches_conjugated_horocycle_step(self):
        # a leaf at depth t across the normalized spike gives the factor
        # horocycle_conjugate(t) once expressed in the mouth frame
        for t in (0.5, 1.5, 3.0):
            [f] = spike_crossing_sequence(normalized_spike(), [t])
            assert f.matrix.projective_distance(horocycle_conjugate(t)) < 1e-12
            assert abs(f.deviation - math.exp(-t)) < 1e-12

    def test_deviation_invariant_under_rotation_and_sign(self):
        # Frobenius deviation is preserved by the orthogonal stabilizer
        # and by the projective sign normalization
        rng = random.Random(6)
        v = UnitTangent.upward_at(HPoint(0.0, 1.0))
        w = UnitTangent(horocycle_conjugate(1.0) @ v.frame)
        base = crossing_factor(v, w).deviation
        for _ in range(20):
            g = rotation(rng.uniform(0, math.pi))
            moved = crossing_factor(apply(g, v), apply(g, w))
            assert abs(moved.deviation - base) < 1e-10

    def test_stored_deviation_validated(self):
        # the constructor computes the deviation from the matrix
        for d in (0.0, 1.0, 7.5):
            m = horocycle_conjugate(d)
            f = CrossingFactor(m, order_key=d)
            assert f.deviation == frobenius_deviation(m) == math.exp(-d)


class TestOrderedProduct:
    def test_empty(self):
        p = ordered_product([])
        assert is_identity(p.value, 1e-15)
        assert p.error_bound == 0.0

    def test_single_factor(self):
        f = CrossingFactor(horocycle_conjugate(2.0))
        p = ordered_product([f])
        assert close_to(p.value, f.matrix, 1e-15)
        assert p.error_bound == 0.0

    def test_truncation_within_bound(self):
        family = spike_crossing_sequence(normalized_spike(), range(1, 41))
        tail = sum(f.deviation for f in family[20:])
        p_short = ordered_product(family[:20], tail_deviation=tail)
        p_full = ordered_product(family)
        diff = math.dist(p_short.raw_value, p_full.raw_value)
        assert diff <= p_short.error_bound

    def test_removal_inequality(self):
        # removing any one factor moves the product by at most
        # prod(1 + |s_i|) * |s_removed|, exactly as stated
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randrange(2, 9)
            scale = 0.25 / n
            factors = [random_small_factor(rng, scale) for _ in range(n)]
            assert sum(f.deviation for f in factors) <= 1.0
            full = ordered_product(factors).raw_value
            growth = math.prod(1.0 + f.deviation for f in factors)
            m = rng.randrange(n)
            partial = ordered_product(factors[:m] + factors[m + 1:]).raw_value
            change = math.dist(full, partial)
            assert change <= growth * factors[m].deviation

    def test_two_exhaustions_agree_within_bounds(self):
        family = spike_crossing_sequence(normalized_spike(), range(1, 61))
        total = sum(f.deviation for f in family)
        subset_a = family[:25]
        subset_b = family[:40]
        pa = ordered_product(subset_a, tail_deviation=total - sum(f.deviation for f in subset_a))
        pb = ordered_product(subset_b, tail_deviation=total - sum(f.deviation for f in subset_b))
        diff = math.dist(pa.raw_value, pb.raw_value)
        assert diff <= pa.error_bound + pb.error_bound

    def test_divergent_budget(self):
        # 100 factors deviating by 1 each exceed the budget of 64
        big = [CrossingFactor(horocycle_conjugate(0.0), order_key=float(k))
               for k in range(100)]
        with pytest.raises(DivergentBudgetError):
            ordered_product(big)

    # a square past float range raised OverflowError: it now reads inf, and
    # the budget refuses it by name
    @pytest.mark.parametrize("factors", [
        lambda: [CrossingFactor(MoebiusTransform(1e-300, 0.0, 0.0, 1e300))],
        lambda: spike_crossing_sequence(normalized_spike(), [-360.0, 1.0]),
    ], ids=["wide_matrix", "deep_spike"])
    def test_overflowing_deviation_is_refused_by_the_budget(self, factors):
        factors = factors()
        assert factors[0].deviation == math.inf
        with pytest.raises(DivergentBudgetError, match="deviation sum inf exceeds budget 64.0"):
            ordered_product(factors)

    def test_order_keys_enforced(self):
        f1 = CrossingFactor(horocycle_conjugate(1.0), order_key=2.0)
        f2 = CrossingFactor(horocycle_conjugate(2.0), order_key=1.0)
        with pytest.raises(ValueError):
            ordered_product([f1, f2])


class TestSpikeSequence:
    def test_geometric_decay_unit_gaps(self):
        factors = spike_crossing_sequence(normalized_spike(), range(1, 21))
        for f, d in zip(factors, range(1, 21)):
            assert abs(f.deviation - math.exp(-d)) < 1e-14
        ratios = [b.deviation / a.deviation for a, b in zip(factors, factors[1:])]
        for r in ratios:
            assert r <= math.exp(-1.0) * (1.0 + 1e-6)

    def test_monotone_and_summable(self):
        factors = spike_crossing_sequence(normalized_spike(), [0.5 * k for k in range(1, 120)])
        devs = [f.deviation for f in factors]
        assert all(b < a for a, b in zip(devs, devs[1:]))
        partial_60 = sum(devs[:60])
        partial_all = sum(devs)
        assert abs(partial_all - partial_60) < 1e-12

    def test_conjugated_spike_envelope(self):
        spike = Spike(
            Geodesic.from_values(-2.0, 0.5),
            Geodesic.from_values(-2.0, 3.0),
            # shared ideal point at -2
            Geodesic.from_values(-2.0, 0.5).start,
        )
        depths = [1.0 + 0.5 * k for k in range(30)]
        factors = spike_crossing_sequence(spike, depths)
        consts = [f.deviation * math.exp(d) for f, d in zip(factors, depths)]
        assert max(consts) / min(consts) < 1.0 + 1e-9  # scalar decay, constant from frame

    @pytest.mark.parametrize("x, same", [(1e-13, True), (1e-12, True), (2e-12, False)])
    def test_edges_distinct_by_the_same_point_rule(self, x, same):
        # the far ends 0 and x are one point when their gap is within ALG_TOL
        edges = (Geodesic.from_values(0.0, "inf"), Geodesic.from_values(x, "inf"))
        vertex = edges[0].end
        if same:
            with pytest.raises(ValueError, match="spike edges must be distinct"):
                Spike(*edges, vertex)
        else:
            assert Spike(*edges, vertex).edge_b.start.value == x

    def test_depths_must_increase(self):
        with pytest.raises(ValueError):
            spike_crossing_sequence(normalized_spike(), [1.0, 1.0])
