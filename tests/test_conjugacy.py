import importlib.util
import math
import pathlib
import random
import statistics
from decimal import localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from eqlab.conjugacy import (
    ChainConfiguration,
    PeriodVector,
    Sample,
    VerificationReport,
    chain_period,
    unipotent,
    verify_conjugacy,
    verify_fundamental_lemma,
    _chain_shear,
    _earthquaked_chain,
)
from eqlab.hyp import (
    BoundaryPoint, EarthquakeRangeError, Geodesic, HPoint, MoebiusTransform, _mul, apply,
    carry_along, translation_along,
)
from eqlab.lamination import DiscreteLamination, Leaf, separating_leaves
from eqlab import conjugacy, surface
from eqlab.surface import (
    FNSurface, InvalidGluingError, UnsupportedCurveError, WeightedMulticurve, earthquake_flow,
    shear_across_cuff,
)
from eqlab.triangle import IdealTriangle, NotAdjacentError, ShearRangeError, develop_step
import conjugacy_reference
from hyp_reference import to_imaginary_axis
from lamination_reference import decimal_fault_product
from triangle_reference import transformed

AXIS = Geodesic.from_values(0.0, "inf")
# perfbench/inputs.chain_round(0, 4)[24]: steps, weights, times
SEED0_ROUND4_OP24 = (
    [(1, 0.4354214339957596), (2, 0.40760014349466345), (2, -0.41517610628338897),
     (1, 0.9526945420614463), (2, -0.06783757523897593), (2, -0.6954359567237058),
     (2, -0.6795200294562196), (1, 0.4563601772713284), (1, 0.5344246724541415),
     (2, -0.5544826470061839), (1, 0.8324440973673135), (2, 0.46193935356369953)],
    [0.0, 1.5894721829974783, 0.0, 0.0, 0.9201395385909529, 1.8026338344349333, 0.0,
     0.9805196466257559, 0.5261004602562085, 1.6587248846092648, 0.6479706078873564,
     1.4048699509056455],
    [-0.28646138840919994, -0.21867218002001282, -0.14426345489738435,
     -0.004386398466260821, 0.16824408346094555, 0.1704644401287166],
)

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
        x_a = chain_period(ChainConfiguration((t0, t1), (0.0,), ((1, 0),))).x
        x_b = chain_period(ChainConfiguration((t1, t2), (0.0,), ((2, 0),))).x
        x_ab = chain_period(ChainConfiguration((t0, t1, t2), (0.0, 0.0), ((1, 0), (2, 0)))).x
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
        slope, intercept = statistics.linear_regression(ts, xs)
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
        # adjacent within 1e-9, so the chain builds with one edge per weight
        t0 = IdealTriangle.standard()
        t1 = develop_step(t0, 1, 0.3)
        t2 = develop_step(t1, 2, -0.2)
        v = t2.vertices[1]
        nudged = IdealTriangle((t2.vertices[0], BoundaryPoint(v.p, v.q + 1e-11), t2.vertices[2]))
        c = ChainConfiguration((t0, t1, nudged), (1.0, 0.5), ((1, 0), (2, 0)))
        assert len(c.shared_edges()) == len(c.fault_weights)
        report = verify_fundamental_lemma(c, [0.0, 0.2, -0.3])
        assert report.passed
        assert abs(report.samples[0].predicted[0] - 0.1) < 1e-12

    def test_sides_come_from_the_steps(self, monkeypatch):
        # step k crosses its side of triangle k into side 0 of triangle k+1;
        # nothing searches for the pairs, and the middle-frame copy that
        # every earthquake moves keeps them
        assert not hasattr(conjugacy, "shared_sides")
        steps, weights, ts = SEED0_ROUND4_OP24
        c = ChainConfiguration.from_steps(steps, weights)
        assert c.sides == tuple((side, 0) for side, _ in steps)
        framed = []
        quake = conjugacy._earthquaked_chain

        def recorded(chain, t):
            framed.append(chain)
            return quake(chain, t)

        monkeypatch.setattr(conjugacy, "_earthquaked_chain", recorded)
        assert verify_fundamental_lemma(c, ts).passed
        assert len(framed) == len(ts)
        assert all(f.sides == c.sides and f.triangles != c.triangles for f in framed)

    def test_crushed_pair_verifies_across_its_given_sides(self):
        # t1's vertices 1 and 2 lie 7e-8 apart, so t2's side 0, t1's side 2
        # reversed, is also within 1e-9 of t1's side 0 as a set of ends; a
        # search by that gap takes (0, 0), on which the two triangles lie
        # on one side
        t1 = IdealTriangle.from_values(1.179287973619373, 10.322604334880086, 10.322604405146372)
        t2 = develop_step(t1, 2, 2.130750260740891)
        c = ChainConfiguration((t1, t2), (1.0,), ((2, 0),))
        assert verify_fundamental_lemma(c, [-0.3, 0.0, 0.2, 1.0], tolerance=1e-12).passed
        with pytest.raises(NotAdjacentError):
            ChainConfiguration((t1, t2), (1.0,), ((0, 0),))

    @pytest.mark.parametrize("side", [3, 4, -1])
    def test_side_outside_the_triangle_is_refused(self, side):
        # develop_step reads a side mod 3; the chain takes only 0, 1 and 2
        with pytest.raises(ValueError, match="side indices must be 0, 1 or 2"):
            ChainConfiguration.from_steps([(side, 0.5)], [1.0])
        t0 = IdealTriangle.standard()
        with pytest.raises(ValueError, match="side indices must be 0, 1 or 2"):
            ChainConfiguration((t0, develop_step(t0, 1, 0.5)), (1.0,), ((1, side),))

    def test_float_side_is_refused_before_developing(self):
        # 1.0 == 1, yet a float side used to reach develop_step and fail
        # there with an untyped TypeError
        with pytest.raises(ValueError, match=r"side indices must be 0, 1 or 2, got \(\(1\.0, 0\),\)"):
            ChainConfiguration.from_steps([(1.0, 0.5)], [1.0])

    def test_nan_shear_and_weight_are_named(self):
        # abs(nan) > limit and nan < 0 are both False
        with pytest.raises(ShearRangeError, match="nan"):
            ChainConfiguration.from_steps([(1, math.nan)], [1.0])
        with pytest.raises(ValueError, match=r"fault weights must be nonnegative, got \(nan,\)"):
            ChainConfiguration.from_steps([(1, 0.5)], [math.nan])

    def test_infinite_weight_is_named(self):
        # inf >= 0, so only a finiteness check refuses it
        with pytest.raises(ValueError, match="^fault weight inf on edge 1 is not finite$"):
            ChainConfiguration.from_steps([(1, 0.5), (2, -0.4)], [1.0, math.inf])
        with pytest.raises(ValueError, match=r"fault weights must be nonnegative, got \(-inf,\)"):
            ChainConfiguration.from_steps([(1, 0.5)], [-math.inf])

    def test_one_side_pair_per_edge(self):
        t0 = IdealTriangle.standard()
        with pytest.raises(ValueError, match="one side pair per shared edge"):
            ChainConfiguration((t0, develop_step(t0, 1, 0.5)), (1.0,), ())

    def test_merged_vertices_name_their_time(self):
        # the moved vertices close on each other like e^(-t·w): the residual
        # grows, and from t = 27 the first triangle's vertices merge in floats
        c = ChainConfiguration.from_steps([(1, 0.5), (2, -0.4), (1, 0.8)], [1.0, 0.0, 0.5])
        for t in (15.0, 25.0):
            report = verify_fundamental_lemma(c, [t])
            assert math.isfinite(report.max_residual) and report.samples[0].t == t
        for t in (30.0, -30.0, 1e3):
            with pytest.raises(EarthquakeRangeError,
                               match=f"^t = {t} merges the vertices of triangle 0$"):
                verify_fundamental_lemma(c, [0.1, t])

    def test_wrong_fault_translation_is_refused(self, monkeypatch):
        # a test double carries each fault's vertices along its edge with the
        # edge's end nudged by 1e-6 in q: the moved pair's stored sides drift
        # apart, and the shear read across them refuses the pair
        c = ChainConfiguration.from_steps([(1, 0.5), (2, -0.4), (1, 0.8)], [1.0, 0.0, 0.5])
        assert verify_fundamental_lemma(c, [0.3]).passed

        def skewed(g, shift, pairs):
            end = BoundaryPoint(g.end.p, g.end.q + 1e-6)
            return carry_along(Geodesic(g.start, end), shift, pairs)

        monkeypatch.setattr(conjugacy, "carry_along", skewed)
        with pytest.raises(NotAdjacentError):
            verify_fundamental_lemma(c, [0.3])


def _exact_chain(c, t, base):
    """The chain's vertices, as exact projective pairs, after the earthquake
    based in triangle `base`.

    Each fault translation is composed in Fractions from the same float
    entries the chain reads: its edge's axis frame F and the slide
    diag(e^{d/2}, e^{-d/2}), as adj(F) diag F, which fixes the edge's float
    ends exactly.  Triangle j moves by the faults between base and j, the
    one nearest base acting last; base lies left of the edges from base on.
    """
    edges = c.shared_edges()

    def fault(k, shift):
        if c.fault_weights[k] == 0.0:
            return (1, 0, 0, 1)
        a, b, c_, d = map(Fraction, to_imaginary_axis(edges[k]).entries())
        slide = map(Fraction, translation_along(AXIS, shift * c.fault_weights[k]).entries())
        return _mul(_mul((d, -b, -c_, a), tuple(slide)), (a, b, c_, d))

    motions = [(1, 0, 0, 1)] * len(c.triangles)
    for j in range(base + 1, len(c.triangles)):
        motions[j] = _mul(motions[j - 1], fault(j - 1, t))
    for j in range(base - 1, -1, -1):
        motions[j] = _mul(motions[j + 1], fault(j, -t))

    def moved(m, v):
        p, q = Fraction(v.p), Fraction(v.q)
        return (m[0] * p + m[1] * q, m[2] * p + m[3] * q)

    return [[moved(m, v) for v in tri.vertices] for tri, m in zip(c.triangles, motions)]


def _exact_shear(c, vertices):
    """The chain shear of exact vertices: each edge's log cross ratio, taken
    exactly and rounded once before the log."""
    def cross(z, u):
        return z[0] * u[1] - z[1] * u[0]

    total = 0.0
    for k, (i, j) in enumerate(c.sides):
        u, v, x = (vertices[k][(i + n) % 3] for n in range(3))
        y = vertices[k + 1][(j + 2) % 3]
        total += math.log(abs(cross(y, u) * cross(x, v) / (cross(y, v) * cross(x, u))))
    return total


def _interior_point(t):
    # a fixed interior point of the normalized triangle, pulled back
    return apply(t.normalizer(0).inverse(), HPoint(-0.25, 1.0))


def _gap(point, exact) -> float:
    """BoundaryPoint.gap of a float point from an exact projective pair."""
    scale = max(abs(exact[0]), abs(exact[1]))
    return float(abs(point.p * exact[1] - point.q * exact[0]) / scale)


class TestChainEarthquake:
    @staticmethod
    def _searched(c, t, base):
        """Each triangle's earthquake found by the lamination's own search:
        the product of its fault translations, formed at 50 digits and
        rounded once to floats."""
        lam = DiscreteLamination(tuple(
            Leaf(edge, w) for edge, w in zip(c.shared_edges(), c.fault_weights) if w > 0.0))
        moved = []
        for tri in c.triangles:
            with localcontext() as ctx:
                ctx.prec = 50
                m = decimal_fault_product(separating_leaves(lam, base, _interior_point(tri)), t,
                                          base)
            moved.append(transformed(tri, MoebiusTransform.unimodular(*map(float, m))))
        return moved

    @staticmethod
    def _chain(rng, most):
        count = rng.randint(2, most)
        return ChainConfiguration.from_steps(
            [(rng.choice((1, 2)), rng.uniform(-1.0, 1.0)) for _ in range(count)],
            [0.0 if rng.random() < 0.5 else rng.uniform(0.25, 2.0) for _ in range(count)])

    def test_fault_by_fault_carry_equals_per_triangle_search(self):
        # shared edge k separates triangles 0..k from the rest, so carrying
        # the faults between the middle triangle and each triangle is the
        # earthquake the lamination searches from the middle triangle's
        # point; both float paths against the exact earthquake
        rng = random.Random(12)
        for _ in range(80):
            c = self._chain(rng, 12)
            t = rng.uniform(-0.3, 0.3)
            m = len(c.triangles) // 2
            exact = _exact_chain(c, t, m)
            for path, tol in ((_earthquaked_chain(c, t), 1e-13),
                              (self._searched(c, t, _interior_point(c.triangles[m])), 1e-10)):
                assert max(_gap(v, z) for tri, ex in zip(path, exact)
                           for v, z in zip(tri.vertices, ex)) <= tol

    def test_shear_does_not_depend_on_the_base_triangle(self):
        # earthquakes from two base points differ by one isometry, so the
        # exact moved shear from the middle triangle is the one from
        # triangle 0, and each float path lands on it, all read in the
        # middle frame the verifier measures in
        rng = random.Random(16)
        for _ in range(80):
            c = self._chain(rng, 8)
            frame = c.triangles[len(c.triangles) // 2].normalizer(0)
            c = ChainConfiguration(tuple(transformed(tri, frame) for tri in c.triangles),
                                   c.fault_weights, c.sides)
            t = rng.uniform(-0.3, 0.3)
            exact = _exact_shear(c, _exact_chain(c, t, 0))
            assert abs(_exact_shear(c, _exact_chain(c, t, len(c.triangles) // 2)) - exact) <= 1e-12
            from_first = self._searched(c, t, _interior_point(c.triangles[0]))
            for path in (from_first, _earthquaked_chain(c, t)):
                assert abs(_chain_shear(c, path) - exact) <= 1e-12

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

    # perfbench/inputs.chain_round(11, 13)[2] and (11, 29)[41], which the
    # combinatorics guard refused at one time each, and (0, 4)[24], whose
    # earthquake from triangle 0 composed every fault and missed by 6e-8
    @pytest.mark.parametrize("steps, weights, ts", [
        pytest.param(
            [(1, -0.8977581465582887), (1, 0.7426448307849309), (2, -0.9518037998922362),
             (2, -0.4477657266999979), (1, -0.58374759353899), (1, 0.3211116610665721),
             (2, -0.38412510675904565), (2, -0.3023879356790278), (2, -0.05209299753696284),
             (1, -0.5431338657672056), (1, 0.18970598474697487), (2, 0.6650169996027169)],
            [1.2099171882306492, 0.8884484085512752, 1.3851173483579033, 0.0,
             0.47344302587105813, 0.3915048491209074, 0.9543427499318022, 1.3325373873683772,
             0.0, 0.0, 0.0, 1.0875300574743774],
            [-0.250424334593003, -0.23605574283385283, -0.11260255677018563,
             -0.0293016883079546, 0.091366757002811, 0.25811183091721185],
            id="seed11-round13-op2"),
        pytest.param(
            [(2, -0.7186793966970915), (2, -0.07501996391814969), (1, 0.11342751703693144),
             (2, -0.9680488915366814), (1, 0.3264470805094808), (1, -0.08211058303214336),
             (2, 0.3899591430296212), (2, -0.3061425919968348), (1, -0.3276010802553344),
             (2, -0.47580336137849666), (1, 0.11542086811285679), (1, 0.7324963524451815)],
            [1.6333368290737817, 0.689022848304726, 0.0, 0.0, 0.8589031574913931,
             1.236464059585702, 0.0, 0.0, 0.0, 1.0127176194347784, 1.0139799471219357, 0.0],
            [-0.20399276158642293, -0.182859318085495, -0.0035815115331764846,
             0.09769351582180524, 0.09837880645249991, 0.2550756040089092],
            id="seed11-round29-op41"),
        pytest.param(*SEED0_ROUND4_OP24, id="seed0-round4-op24"),
    ])
    def test_long_chain_verifies_from_middle_base(self, steps, weights, ts):
        c = ChainConfiguration.from_steps(steps, weights)
        report = verify_fundamental_lemma(c, ts, tolerance=1e-9)
        assert report.passed

    # perfbench/inputs.chain_round(701, 3)[26], (0, 4)[24] and (9, 11)[39]:
    # 12 steps each, they read 6.4e-10, 9.0e-10 and 1.24e-9 while each
    # triangle moved by a float product of translations, whose rounding
    # moves the crushed far triangles; carried fault by fault, the reading
    # is what is left
    @pytest.mark.parametrize("steps, weights, ts", [
        pytest.param(
            [(1, 0.5921731272036077), (1, 0.4046980899398114), (1, 0.013799954389242197),
             (2, 0.679851785964243), (2, -0.139120582574074), (1, 0.10921619569123164),
             (1, 0.9316009103926974), (1, 0.8184728533570387), (2, 0.34258766003201524),
             (1, 0.7117657715287513), (2, 0.18910213769712847), (1, -0.8965202541933173)],
            [0.0, 0.0, 0.0, 1.8399229237086954, 0.0, 1.7246728796582296, 0.0,
             1.4006400767329334, 1.125489466493447, 1.9073495771357558, 1.7953707020720102,
             1.9767950798203902],
            [0.06938999689978675, 0.1005689442991492, 0.157161085351803, 0.24912739599240546,
             0.2628772912368203, 0.2673155376848901],
            id="seed701-round3-op26"),
        pytest.param(*SEED0_ROUND4_OP24, id="seed0-round4-op24"),
        pytest.param(
            [(1, 0.5544366138306012), (1, 0.5467003345335473), (2, -0.30854541782049827),
             (2, -0.6135034704372246), (2, -0.709839424960423), (1, -0.21415279118144426),
             (1, 0.9080761587248349), (1, 0.9501757037421417), (2, 0.44150672605783403),
             (2, -0.6017844053068855), (1, 0.6682834875988128), (2, 0.8820092172718981)],
            [0.33017490154388923, 1.6996057982607926, 0.0, 1.087085612069899,
             1.6260142972013607, 0.0, 0.0, 0.0, 0.9011535821991516, 0.0, 0.9771880413010664,
             1.5277537016055935],
            [-0.285499335371788, -0.137516224628172, -0.10913827402862014,
             -0.10000506267134018, 0.0698167107961738, 0.15022956866928228],
            id="seed9-round11-op39"),
    ])
    def test_long_chain_margin(self, steps, weights, ts):
        # ten times under the verifier's 1e-9
        c = ChainConfiguration.from_steps(steps, weights)
        assert verify_fundamental_lemma(c, ts).max_residual <= 1e-10


def _benchmark_inputs():
    """perfbench/inputs.py, loaded from its file: the chains the benchmark runs."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestAgainstThePerTimeLoop:
    """verify_fundamental_lemma shares what no time moves; the reference
    rebuilds every edge, triangle and shear at each time.  Their reports
    are equal float for float, and they raise the same errors."""

    @staticmethod
    def _same(c, ts):
        got = verify_fundamental_lemma(c, ts)
        want = conjugacy_reference.verify_fundamental_lemma(c, ts)
        assert got == want and repr(got) == repr(want)  # repr tells -0.0 from 0.0

    @staticmethod
    def _same_error(c, ts, error):
        with pytest.raises(error) as got:
            verify_fundamental_lemma(c, ts)
        with pytest.raises(error) as want:
            conjugacy_reference.verify_fundamental_lemma(c, ts)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_chains(self, seed):
        inputs = _benchmark_inputs()
        for round_index in range(4):
            for op in inputs.chain_round(seed, round_index):
                c = ChainConfiguration.from_steps(op["steps"], op["weights"])
                self._same(c, (0.0, -0.0) + op["ts"])

    @pytest.mark.parametrize("weight", [0.0, 0.8])
    def test_all_weights_zero_or_all_positive(self, weight):
        # all zero: no triangle moves and every pair keeps its framed shear;
        # all positive: only the middle triangle stays
        steps = [(1, 0.5), (2, -0.4), (1, 0.8), (2, 0.3), (2, -0.6), (1, 0.2)]
        c = ChainConfiguration.from_steps(steps, [weight] * len(steps))
        self._same(c, [-0.3, 0.0, 0.1, 2.0])

    def test_merged_vertices_raise_the_same_error(self):
        c = ChainConfiguration.from_steps([(1, 0.5), (2, -0.4), (1, 0.8)], [1.0, 0.0, 0.5])
        for t in (30.0, -30.0):
            self._same_error(c, [0.1, t], EarthquakeRangeError)

    def test_wrong_fault_translation_raises_the_same_error(self, monkeypatch):
        c = ChainConfiguration.from_steps([(1, 0.5), (2, -0.4), (1, 0.8)], [1.0, 0.0, 0.5])

        def skewed(g, shift, pairs):
            end = BoundaryPoint(g.end.p, g.end.q + 1e-6)
            return carry_along(Geodesic(g.start, end), shift, pairs)

        monkeypatch.setattr(conjugacy, "carry_along", skewed)
        monkeypatch.setattr(conjugacy_reference, "carry_along", skewed)
        self._same_error(c, [0.3], NotAdjacentError)


class TestVerificationReport:
    def test_passed_flag_consistency(self):
        # the worst residual and the verdict follow from the samples
        s = Sample(0.1, (1.0, 1.0), (1.5, 1.0))
        report = VerificationReport((s,), 1e-9)
        assert report.max_residual == 0.5 and not report.passed

    def test_from_samples(self):
        s = Sample(0.1, (1.0, 1.0), (1.0 + 1e-12, 1.0))
        report = VerificationReport([s], 1e-9)
        assert report.passed and report.max_residual == pytest.approx(1e-12, rel=1e-3)

    def test_empty_time_list_is_refused(self):
        # no sample, no check: an empty report would pass vacuously
        chain = ChainConfiguration.from_steps([(1, 0.5), (2, -0.4)], [1.0, 2.0])
        surf = FNSurface.genus2()
        with pytest.raises(ValueError, match="time list"):
            verify_fundamental_lemma(chain, [])
        with pytest.raises(ValueError, match="time list"):
            verify_conjugacy(surf, WeightedMulticurve({0: 1.0}), [0], [])


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
        slope = statistics.linear_regression(ts, xs).slope
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
            for ts in ([0.0], [0.1 * k for k in range(6)]):
                calls.clear()
                report = verify_conjugacy(self.SURFACE, mc, arcs, ts)
                assert len(report.samples) == len(arcs) * len(ts)
                assert len(calls) == 2 * len(arcs)

    def test_moves_the_surface_once_per_time(self, monkeypatch):
        calls = []
        flow = surface.earthquake_flow

        def counted(s, mc, t):
            calls.append(t)
            return flow(s, mc, t)

        monkeypatch.setattr(surface, "earthquake_flow", counted)
        mc = WeightedMulticurve({0: 1.0, 1: 0.5, 2: 0.25})
        ts = [0.1 * k for k in range(6)]
        report = verify_conjugacy(self.SURFACE, mc, [0, 1, 2], ts)
        assert report.passed and len(report.samples) == 18
        assert calls == ts
        # the times are read once, so a one-shot iterator samples every arc
        assert verify_conjugacy(self.SURFACE, mc, [0, 1, 2], iter(ts)) == report

    def test_unknown_arc_is_named_before_the_multicurve(self):
        bad = WeightedMulticurve({7: 1.0})
        with pytest.raises(UnsupportedCurveError, match="no cuff with id 5"):
            verify_conjugacy(self.SURFACE, bad, [5, 0], [0.1])
        # a known first arc moves the surface before the unknown one is landed
        with pytest.raises(UnsupportedCurveError, match="multicurve weight on unknown cuff 7"):
            verify_conjugacy(self.SURFACE, bad, [0, 5], [0.1])

    def test_empty_time_list_is_refused_before_the_multicurve(self):
        with pytest.raises(ValueError, match="nothing to verify"):
            verify_conjugacy(self.SURFACE, WeightedMulticurve({7: 1.0}), [0, 1], [])

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
