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
    DivergentBudgetError,
    Spike,
    frobenius_deviation,
    horocycle_conjugate,
    ordered_product,
    spike_crossing_sequence,
)
from hyp_reference import close_to, crossing_factor, is_identity


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
    return CrossingFactor.from_matrix(m)


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
            [f] = spike_crossing_sequence(Spike.normalized(), [t])
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
        with pytest.raises(ValueError):
            CrossingFactor(horocycle_conjugate(1.0), 0.5, 0.0)


class TestOrderedProduct:
    def test_empty(self):
        p = ordered_product([])
        assert is_identity(p.value, 1e-15)
        assert p.error_bound == 0.0

    def test_single_factor(self):
        f = CrossingFactor.from_matrix(horocycle_conjugate(2.0))
        p = ordered_product([f])
        assert close_to(p.value, f.matrix, 1e-15)
        assert p.error_bound == 0.0

    def test_truncation_within_bound(self):
        family = spike_crossing_sequence(Spike.normalized(), range(1, 41))
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
        family = spike_crossing_sequence(Spike.normalized(), range(1, 61))
        total = sum(f.deviation for f in family)
        subset_a = family[:25]
        subset_b = family[:40]
        pa = ordered_product(subset_a, tail_deviation=total - sum(f.deviation for f in subset_a))
        pb = ordered_product(subset_b, tail_deviation=total - sum(f.deviation for f in subset_b))
        diff = math.dist(pa.raw_value, pb.raw_value)
        assert diff <= pa.error_bound + pb.error_bound

    def test_divergent_budget(self):
        # 100 factors deviating by 1 each exceed the budget of 64
        big = [CrossingFactor.from_matrix(horocycle_conjugate(0.0), order_key=float(k))
               for k in range(100)]
        with pytest.raises(DivergentBudgetError):
            ordered_product(big)

    def test_order_keys_enforced(self):
        f1 = CrossingFactor.from_matrix(horocycle_conjugate(1.0), order_key=2.0)
        f2 = CrossingFactor.from_matrix(horocycle_conjugate(2.0), order_key=1.0)
        with pytest.raises(ValueError):
            ordered_product([f1, f2])


class TestSpikeSequence:
    def test_geometric_decay_unit_gaps(self):
        factors = spike_crossing_sequence(Spike.normalized(), range(1, 21))
        for f, d in zip(factors, range(1, 21)):
            assert abs(f.deviation - math.exp(-d)) < 1e-14
        ratios = [b.deviation / a.deviation for a, b in zip(factors, factors[1:])]
        for r in ratios:
            assert r <= math.exp(-1.0) * (1.0 + 1e-6)

    def test_monotone_and_summable(self):
        factors = spike_crossing_sequence(Spike.normalized(), [0.5 * k for k in range(1, 120)])
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

    def test_depths_must_increase(self):
        with pytest.raises(ValueError):
            spike_crossing_sequence(Spike.normalized(), [1.0, 1.0])
