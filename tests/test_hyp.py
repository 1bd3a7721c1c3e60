import math
import random
from decimal import localcontext

import pytest
from hypothesis import given, settings, strategies as st

from eqlab.hyp import (
    SHIFT_LIMIT,
    BoundaryPoint,
    EarthquakeRangeError,
    EllipticError,
    Geodesic,
    HPoint,
    MoebiusTransform,
    UnitTangent,
    apply,
    carry_along,
    moebius_from_triples,
    orientation,
    translation_along,
    translation_length,
)
from hyp_reference import close_to, frame_distance, hyp_distance, is_identity, moebius_between
from lamination_reference import decimal_apply, decimal_translation, image_error

I = MoebiusTransform.identity()


def diag(t):
    e = math.exp(t / 2.0)
    return MoebiusTransform(e, 0.0, 0.0, 1.0 / e)


def parab(t):
    return MoebiusTransform(1.0, t, 0.0, 1.0)


def random_moebius(rng):
    """Random nondegenerate element built from a KAN-style product."""
    return (
        parab(rng.uniform(-2, 2))
        @ diag(rng.uniform(-2, 2))
        @ MoebiusTransform(
            math.cos(th := rng.uniform(0, math.pi)), -math.sin(th),
            math.sin(th), math.cos(th),
        )
    )


moebius_st = st.builds(
    lambda x, t, th: parab(x) @ diag(t) @ MoebiusTransform(
        math.cos(th), -math.sin(th), math.sin(th), math.cos(th)
    ),
    st.floats(-2, 2), st.floats(-2, 2), st.floats(0, math.pi),
)

hpoint_st = st.builds(HPoint, st.floats(-5, 5), st.floats(0.05, 20))


class TestCompose:
    def test_identity(self):
        m = MoebiusTransform(2.0, 1.0, 3.0, 2.0)
        assert close_to(I @ m, m, 1e-15)
        assert close_to(m @ I, m, 1e-15)

    def test_parabolic_addition(self):
        assert close_to(parab(0.75) @ parab(1.5), parab(2.25), 1e-14)

    def test_diagonal_product(self):
        got = diag(1.0) @ diag(2.0)
        assert close_to(got, diag(3.0), 1e-14)

    def test_nonpositive_determinant_rejected(self):
        with pytest.raises(ValueError):
            MoebiusTransform(1.0, 0.0, 0.0, -1.0)


class TestApply:
    def test_identity_fixes_i(self):
        p = apply(I, HPoint(0.0, 1.0))
        assert p.x == 0.0 and p.y == 1.0

    def test_parabolic_fixes_infinity(self):
        img = apply(parab(1.0), BoundaryPoint.infinity())
        assert img.is_infinity

    def test_diagonal_scales_i(self):
        # oracle: direct complex evaluation of (e^{t/2} i) / e^{-t/2}
        for t in (0.3, 1.0, -2.0):
            expected = (math.exp(t / 2.0) * 1j) / math.exp(-t / 2.0)
            got = apply(diag(t), HPoint(0.0, 1.0))
            assert abs(got.z - expected) < 1e-14


class TestDistance:
    def test_zero_iff_equal(self):
        assert hyp_distance(HPoint(0, 1), HPoint(0, 1)) == 0.0

    def test_vertical_arc_length(self):
        assert abs(hyp_distance(HPoint(0, 1), HPoint(0, math.e)) - 1.0) < 1e-14

    def test_closed_form_oracle(self):
        # arccosh(1 + |delta|^2 / (2 y1 y2)) at i and 1+i, frozen
        assert abs(hyp_distance(HPoint(0, 1), HPoint(1, 1)) - 0.9624236501192069) < 1e-15

    def test_symmetry(self):
        p, q = HPoint(-2, 0.5), HPoint(3, 4)
        assert hyp_distance(p, q) == hyp_distance(q, p)

    @settings(max_examples=60, deadline=None)
    @given(moebius_st, hpoint_st, hpoint_st)
    def test_isometry(self, m, p, q):
        d0 = hyp_distance(p, q)
        d1 = hyp_distance(apply(m, p), apply(m, q))
        assert abs(d0 - d1) <= 1e-10 * (1.0 + d0)


class TestTranslationAlong:
    def test_standard_axis(self):
        g = Geodesic.from_values(0, "inf")
        for t in (0.5, 2.0, -1.3):
            assert close_to(translation_along(g, t), diag(t), 1e-13)

    def test_zero_is_identity(self):
        g = Geodesic.from_values(-1.5, 2.5)
        assert is_identity(translation_along(g, 0.0), 1e-13)

    def test_conjugation(self):
        rng = random.Random(7)
        g = Geodesic.from_values(-1.0, 3.0)
        for _ in range(20):
            m = random_moebius(rng)
            t = rng.uniform(-2, 2)
            lhs = translation_along(apply(m, g), t)
            rhs = m @ translation_along(g, t) @ m.inverse()
            assert close_to(lhs, rhs, 1e-11)

    def test_fixes_endpoints(self):
        g = Geodesic.from_values(-2.0, 0.5)
        m = translation_along(g, 1.7)
        for e in (g.start, g.end):
            assert apply(m, e).gap(e) < 1e-10


_ENDS = st.one_of(st.just("inf"), st.floats(-50, 50)).map(BoundaryPoint.from_value)
# ends apart enough that the geodesic's frame is well conditioned
_GEODESICS = st.tuples(_ENDS, _ENDS).filter(lambda e: e[0].gap(e[1]) > 1e-3).map(
    lambda e: Geodesic(*e))


def _translated(g: Geodesic, t: float, target):
    """translation_along(g, t) applied to target at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        return decimal_apply(decimal_translation(g, t), target)


class TestCarryAlong:
    # errors are read against 50 digits, relative, scaled by the condition
    # of g's frame, about 1 / gap: a frame within 16 roundings (2.5 seen);
    # a point's x is read relative to |z|, which can be small beside the
    # frame's scale, so within 1e-12 (2.5e-14 seen)

    @settings(max_examples=300, deadline=None)
    @given(_GEODESICS, st.floats(-8, 8), hpoint_st)
    def test_moves_a_point_like_the_translation(self, g, t, p):
        (u, v), = carry_along(g, t, [(p.z, 1.0)])
        moved = HPoint((u / v).real, p.y / abs(v) / abs(v))
        assert image_error(moved, _translated(g, t, p)) <= 1e-12 / g.start.gap(g.end)

    @settings(max_examples=300, deadline=None)
    @given(_GEODESICS, st.floats(-8, 8), moebius_st)
    def test_moves_a_frame_with_determinant_one(self, g, t, m):
        (a1, c1), (b1, d1) = carry_along(g, t, [(m.a, m.c), (m.b, m.d)])
        moved = UnitTangent(MoebiusTransform.unimodular(a1, b1, c1, d1))
        bound = 16 * 2.0 ** -52 / g.start.gap(g.end)
        assert image_error(moved, _translated(g, t, UnitTangent(m))) <= bound
        assert abs(a1 * d1 - b1 * c1 - 1.0) <= bound * (abs(a1 * d1) + abs(b1 * c1))

    def test_fixes_its_ends(self):
        g = Geodesic.from_values(-2.0, 0.5)
        for t in (0.3, -1.7, 40.0):
            for end, (u, v) in zip((g.start, g.end),
                                   carry_along(g, t, [(g.start.p, g.start.q), (g.end.p, g.end.q)])):
                assert BoundaryPoint(u, v).gap(end) <= 1e-15

    def test_short_shifts_keep_their_digits(self):
        # 4000 shifts of 2.5e-4 along the imaginary axis scale i by e^1: each
        # rounded e^{t/2} would add the same error to every shift
        g = Geodesic.from_values(0.0, "inf")
        pair = (1j, 1.0)
        for _ in range(4000):
            pair, = carry_along(g, 2.5e-4, [pair])
        assert abs((pair[0] / pair[1]).imag / math.e - 1.0) <= 1e-14

    def test_limit_is_the_shift_limit(self):
        g = Geodesic.from_values(-1.0, 1.0)
        (u, v), = carry_along(g, SHIFT_LIMIT, [(1.0, 0.0)])
        assert math.isfinite(u) and math.isfinite(v)
        with pytest.raises(EarthquakeRangeError, match=r"t·w = 1420\.0 .*\|t·w\| <= 1419\.57"):
            carry_along(g, 1420.0, [(1.0, 0.0)])


class TestTranslationLength:
    def test_diagonal(self):
        for t in (0.1, 1.0, 4.0):
            assert abs(translation_length(diag(t)) - t) < 1e-12

    def test_parabolic_is_zero(self):
        assert translation_length(parab(1.0)) == 0.0

    def test_trace_three(self):
        # oracle: 2 arccosh(1.5), high-precision value frozen
        m = MoebiusTransform(2.0, 1.0, 1.0, 1.0)  # trace 3
        assert abs(translation_length(m) - 1.9248473002384139) < 1e-14

    def test_elliptic_raises(self):
        rot = MoebiusTransform(math.cos(0.4), -math.sin(0.4), math.sin(0.4), math.cos(0.4))
        with pytest.raises(EllipticError):
            translation_length(rot)

    def test_conjugation_invariance(self):
        rng = random.Random(3)
        m = diag(1.2)
        for _ in range(20):
            g = random_moebius(rng)
            conj = g @ m @ g.inverse()
            assert abs(translation_length(conj) - 1.2) < 1e-10


class TestFrameDistance:
    def test_zero_on_equal(self):
        v = UnitTangent(parab(0.3) @ diag(0.2))
        assert frame_distance(v, v) == 0.0

    def test_left_invariance(self):
        rng = random.Random(11)
        v = UnitTangent(diag(0.5))
        w = UnitTangent(parab(0.8) @ diag(-0.4))
        d0 = frame_distance(v, w)
        for _ in range(100):
            g = random_moebius(rng)
            d1 = frame_distance(apply(g, v), apply(g, w))
            assert abs(d1 - d0) < 1e-10

    def test_small_parameter_slope(self):
        # d(v, u_eps v) should scale linearly in eps
        v = UnitTangent(diag(0.7))
        ratios = []
        for k in range(3, 7):
            eps = 10.0 ** -k
            moved = UnitTangent(parab(eps) @ v.frame)
            ratios.append(frame_distance(v, moved) / eps)
        for r in ratios:
            assert 0.0 < r < math.inf
        assert max(ratios) / min(ratios) < 1.05


class TestMoebiusBetween:
    def test_identity_case(self):
        v = UnitTangent(diag(0.4))
        assert is_identity(moebius_between(v, v), 1e-14)

    def test_torsor(self):
        rng = random.Random(5)
        for _ in range(20):
            v = UnitTangent(random_moebius(rng))
            m = random_moebius(rng)
            assert close_to(moebius_between(v, apply(m, v)), m, 1e-11)

    def test_composition(self):
        rng = random.Random(9)
        for _ in range(20):
            u, v, w = (UnitTangent(random_moebius(rng)) for _ in range(3))
            lhs = moebius_between(v, w) @ moebius_between(u, v)
            assert close_to(lhs, moebius_between(u, w), 1e-10)


class TestBoundaryAndTriples:
    def test_normalization(self):
        b = BoundaryPoint(-4.0, 2.0)
        assert max(abs(b.p), abs(b.q)) == 1.0
        assert b.value == -2.0

    def test_sign_canonical(self):
        assert BoundaryPoint(1.0, -2.0) == BoundaryPoint(-1.0, 2.0)

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.floats(allow_nan=False), st.just("inf")))
    def test_from_value_is_the_normalized_pair(self, x):
        # the pair is written directly, bit for bit as the constructor normalizes it
        got = BoundaryPoint.from_value(x)
        want = BoundaryPoint(1.0, 0.0) if x == "inf" or math.isinf(x) else BoundaryPoint(x, 1.0)
        assert [(v, math.copysign(1.0, v)) for v in (got.p, got.q)] == \
            [(v, math.copysign(1.0, v)) for v in (want.p, want.q)]

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False,
                                                                      allow_infinity=False))
    def test_angle_is_the_disk_position(self, x, y):
        # the argument of (p - iq)/(p + iq) to its own relative precision,
        # also near infinity on either side, increasing along the reals from
        # infinity, around to 0 and on to infinity again
        b = BoundaryPoint.from_value(x)
        w = complex(b.p, -b.q) / complex(b.p, b.q)
        want = math.atan2(w.imag, w.real)
        gap = abs(b.angle() - want) % (2.0 * math.pi)
        assert min(gap, 2.0 * math.pi - gap) <= 4 * (abs(want) * 2.0 ** -53 + 2.0 ** -1074)
        if 0.0 < x < y or x < y < 0.0:
            assert b.angle() <= BoundaryPoint.from_value(y).angle()

    def test_orientation_signs(self):
        bp = BoundaryPoint.from_value
        inf = BoundaryPoint.infinity()
        assert orientation(bp(-1), bp(0), inf) > 0
        assert orientation(bp(0), inf, bp(1)) < 0
        assert orientation(bp(0), inf, bp(-1)) > 0

    def test_triple_map_matches_points(self):
        bp = BoundaryPoint.from_value
        inf = BoundaryPoint.infinity()
        src = (bp(-1), bp(0), inf)
        dst = (bp(2), bp(5), bp(-3))
        assert orientation(*dst) > 0
        m = moebius_from_triples(src, dst)
        for s, d in zip(src, dst):
            assert apply(m, s).gap(d) < 1e-12

    def test_opposite_orientation_rejected(self):
        bp = BoundaryPoint.from_value
        inf = BoundaryPoint.infinity()
        with pytest.raises(ValueError):
            moebius_from_triples((bp(-1), bp(0), inf), (bp(0), inf, bp(1)))
