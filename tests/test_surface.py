import itertools
import math
import random
from decimal import Decimal, localcontext

import pytest

from eqlab.conjugacy import verify_conjugacy
from eqlab.hyp import (
    EarthquakeRangeError, Geodesic, HPoint, MoebiusTransform, apply, translation_length,
)
from eqlab.surface import (
    FNSurface,
    Gluing,
    InvalidGluingError,
    UnsupportedCurveError,
    WeightedMulticurve,
    cuff_offset,
    earthquake_flow,
    fn_to_holonomy,
    shear_across_cuff,
)
from eqlab.surface import _cuff_axis, _spiral_direction, _spiral_landing
from eqlab.transport import CrossingFactor
from eqlab.triangle import (
    Developer,
    IdealTriangle,
    edge_tangency_point,
    pants_boundary_words,
    pants_triangulation,
    shears_from_cuffs,
)
from hyp_reference import is_identity, to_imaginary_axis
from surface_reference import (
    axis_frame,
    cuff_landing_oracle,
    decimal_fixed_points,
    decimal_generators,
    decimal_holonomy,
    dehn_twist_substitution,
    fixed_points,
    generator_error,
    multicurve_length,
    pair_gap,
    pants_rep,
    substitute_word,
)
from triangle_reference import holonomy


BASE = FNSurface.genus2(lengths=(2.0, 2.5, 3.0), twists=(0.15, -0.3, 0.45))
# cuff k glues slot k of pants 0 to another slot of pants 1
SHIFTED = FNSurface(
    pants=(0, 1),
    gluings=(Gluing(((0, 0), (1, 1)), 2.0, (1, -1)), Gluing(((0, 1), (1, 2)), 2.5),
             Gluing(((0, 2), (1, 0)), 3.0, (-1, -1))),
    twists=(0.1, -0.0, 0.3),
)


def landing_gap(shears, slot: int) -> float:
    """Transported log-height against the horocycle oracle's, in the spiral
    frame F = axis_frame(h^-1)^-1."""
    frame = axis_frame(_spiral_direction(shears, slot)[1].inverse()).inverse()
    oracle = apply(frame, cuff_landing_oracle(shears, slot))
    return abs(_spiral_landing(shears, slot) - math.log(abs(oracle.z)))


def gluing_map_shear(s: FNSurface, cuff_id: int, twist: float) -> float:
    """Reference shear read through the gluing map
    axis_frame(h_a) diag(e^{tau/2}, e^{-tau/2}) FLIP axis_frame(h_b)^-1, with
    both landings from the horocycle oracle: side B's landing carried across
    the gluing, against side A's, in the cuff coordinate of side A."""
    sides = []
    for pants_id, slot in s.gluing_by_id(cuff_id).cuffs:
        shears = s.pants_shears(pants_id)
        sides.append((_spiral_direction(shears, slot)[1], cuff_landing_oracle(shears, slot)))
    (h_a, land_a), (h_b, land_b) = sides
    frame_a = axis_frame(h_a)
    e = math.exp(twist / 2.0)
    flip = MoebiusTransform(0.0, -1.0, 1.0, 0.0)  # swaps the ends of the axis
    gluing = frame_a @ MoebiusTransform(e, 0.0, 0.0, 1.0 / e) @ flip @ axis_frame(h_b).inverse()
    coord = to_imaginary_axis(apply(frame_a, Geodesic.from_values(0, "inf")))
    return (math.log(abs(apply(coord, apply(gluing, land_b)).z))
            - math.log(abs(apply(coord, land_a).z)))


def layer_factors(shears, slot: int, depth: float):
    """Matrix reference for the spiral transport: the layers as crossing
    factors F^-1 U(x_m - x_{m-1}) F, up to the first whose deviation falls
    below the depth floor max(e^{-depth}, 1e-15), with the spiral frame F
    and the first side's tangency point, where the reference leaf starts."""
    word, h, _ = _spiral_direction(shears, slot)
    tri = pants_triangulation(*shears)
    dev = Developer(tri)
    root, second = dev.place(()), dev.place(word[:1])
    first_side, other_side = (tri.cross(root.tri, edge_id)[0][1] for edge_id in word)
    (_, second_side), _ = tri.cross(second.tri, word[1])
    # the corner vertex is the end the two crossed root sides share, and
    # layer 1 is the far end of the second triangle's crossed side
    ends = [(g.start, g.end) for g in map(root.triangle.side, (first_side, other_side))]
    vertex = min(itertools.product(*ends), key=lambda pq: pq[0].gap(pq[1]))[0]
    edge = second.triangle.side(second_side)
    far = edge.end if edge.start.gap(vertex) <= edge.end.gap(vertex) else edge.start
    frame = axis_frame(h.inverse()).inverse()
    start = edge_tangency_point(root.triangle, first_side)
    x0 = apply(frame, start).x
    x1 = apply(frame, far).value
    lam = math.exp(-translation_length(h))
    steps = (x1 - x0, lam * x0 - x1)

    def factor(m: int) -> CrossingFactor:
        periods, j = divmod(m - 1, 2)
        unipotent = MoebiusTransform(1.0, steps[j] * lam ** periods, 0.0, 1.0)
        return CrossingFactor(frame.inverse() @ unipotent @ frame, order_key=float(m))

    floor = max(math.exp(-depth), 1e-15)
    factors = [factor(1)]
    while factors[-1].deviation >= floor:
        factors.append(factor(len(factors) + 1))
    return factors, frame, start


def truncated_landing(shears, slot: int, depth: float) -> HPoint:
    """The reference leaf's tangency point carried through the layers of
    `layer_factors`, one matrix at a time, read in the spiral frame."""
    factors, frame, start = layer_factors(shears, slot, depth)
    for f in factors:
        start = apply(f.matrix, start)
    return apply(frame, start)


def exact_log_height(shears, slot: int, digits: int = 60) -> float:
    """The landing's log-height log Im F(p) at `digits` digits, for the spiral
    frame F = axis_frame(h^-1)^-1 and the first side's tangency point p.

    The corner holonomy h is the edge-turn product of the walk
    `triangle_reference.holonomy` in Decimal arithmetic, the corner vertex
    v is exact, and the other fixed point a comes from the quadratic
    formula, so tr^2 - 4 cancels at most 2 log10(1/L) of the digits.
    F^-1 has columns v and a, normalized as BoundaryPoints, over the square
    root of their gap.
    """
    word, _, corner = _spiral_direction(shears, slot)
    with localcontext() as ctx:
        ctx.prec = digits
        a, b, c, d = decimal_holonomy(pants_triangulation(*shears), word, digits)
        vp, vq = map(Decimal, ((-1, 1), (0, 1), (1, 0))[corner])
        if corner == 2:
            fixed = b / (d - a)
        else:
            disc = ((a + d) ** 2 - 4).sqrt()
            fixed = max((((a - d) + sign * disc) / (2 * c) for sign in (1, -1)),
                        key=lambda x: abs(x - vp))
        scale = max(abs(fixed), Decimal(1))
        ap, aq = fixed / scale, 1 / scale
        p = edge_tangency_point(IdealTriangle.standard(), word[0])
        px, py = Decimal(p.x), Decimal(p.y)
        gap = abs(vp * aq - ap * vq)
        return float((py * gap / ((vp - vq * px) ** 2 + (vq * py) ** 2)).ln())


TYPED_LIMITS = ("ShearRangeError", "InvalidGluingError")


def landing_outcome(s: FNSurface, cuff_id: int) -> str:
    """'landed', or the name of the error type that stopped the landing."""
    try:
        cuff_offset(s, cuff_id)
    except ValueError as exc:
        return type(exc).__name__
    return "landed"


def with_twist(s: FNSurface, cuff_id: int, twist: float) -> FNSurface:
    twists = list(s.twists)
    twists[cuff_id] = twist
    return FNSurface(s.pants, s.gluings, tuple(twists))


class TestFNSurfaceStructure:
    def test_unglued_slot_rejected(self):
        with pytest.raises(InvalidGluingError):
            FNSurface(pants=(0, 1), gluings=(
                Gluing(((0, 0), (1, 0)), 2.0),
                Gluing(((0, 1), (1, 1)), 2.0),
            ), twists=(0.0, 0.0))

    # a repeated pants id once built, and verified
    def test_repeated_pants_id_rejected(self):
        with pytest.raises(InvalidGluingError, match="pants id 0 is listed more than once"):
            FNSurface((0, 0, 1), BASE.gluings, BASE.twists)

    def test_one_twist_per_gluing(self):
        with pytest.raises(InvalidGluingError,
                           match="2 twists for 3 gluings: need one per gluing"):
            FNSurface(BASE.pants, BASE.gluings, BASE.twists[:2])

    # a cuff is its index: no label can name two gluings, and no id wraps
    @pytest.mark.parametrize("s", [BASE, SHIFTED], ids=["genus2", "shifted"])
    def test_cuff_k_is_gluing_k(self, s):
        for k, g in enumerate(s.gluings):
            assert s.gluing_by_id(k) is g
            assert shear_across_cuff(s, k) == s.twists[k] + cuff_offset(s, k)
        for cuff in (3, -1, -3):
            for read in (s.gluing_by_id, lambda k: cuff_offset(s, k),
                         lambda k: shear_across_cuff(s, k)):
                with pytest.raises(UnsupportedCurveError, match=f"no cuff with id {cuff}$"):
                    read(cuff)
            with pytest.raises(UnsupportedCurveError, match=f"unknown cuff {cuff}$"):
                earthquake_flow(s, WeightedMulticurve({cuff: 1.0}), 0.5)
        # an index is an int: 1.0 names no cuff, where it would fail to index
        with pytest.raises(UnsupportedCurveError, match="no cuff with id 1.0$"):
            shear_across_cuff(s, 1.0)

    # one rule for a cuff id: 1.0 and True equal 1, yet neither names cuff 1
    @pytest.mark.parametrize("cuff", [1.0, True])
    def test_float_and_bool_name_no_cuff(self, cuff):
        with pytest.raises(UnsupportedCurveError, match=f"unknown cuff {cuff}$"):
            earthquake_flow(BASE, WeightedMulticurve({cuff: 1.0}), 0.5)
        with pytest.raises(UnsupportedCurveError, match=f"no cuff with id {cuff}$"):
            BASE.gluing_by_id(cuff)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(InvalidGluingError):
            FNSurface.genus2(lengths=(2.0, 0.0, 1.0))

    # a sign other than -1 or 1 built a surface whose offsets were silently wrong
    @pytest.mark.parametrize("signs, cuff", [
        (((2, 1), (1, 1), (1, 1)), 0),
        (((1, 1), (1.5, 1), (1, 1)), 1),
        (((1, 1), (1, 1), (-1, 0)), 2),
        (((1, 1), (1,), (1, 1)), 1),
    ])
    def test_spiral_signs_must_be_unit(self, signs, cuff):
        with pytest.raises(InvalidGluingError, match=f"cuff {cuff} needs a spiral sign of -1 or 1"):
            FNSurface.genus2(spiral_signs=signs)

    def test_multicurve_needs_positive_weight(self):
        with pytest.raises(ValueError):
            WeightedMulticurve({0: 0.0})

    # each non-finite value is refused by name, not read later as nan
    @pytest.mark.parametrize("weights, message", [
        ({0: math.nan, 1: 1.0}, "weight nan on cuff 0 is not finite"),
        ({0: math.inf}, "weight inf on cuff 0 is not finite"),
    ])
    def test_multicurve_weight_must_be_finite(self, weights, message):
        with pytest.raises(ValueError, match=message):
            WeightedMulticurve(weights)

    @pytest.mark.parametrize("lengths, twists, cuff, got", [
        ((2.0, 2.5, 3.0), (math.nan, 0.0, 0.0), 0, "2.0 and nan"),
        ((2.0, 2.5, 3.0), (0.0, 0.0, -math.inf), 2, "3.0 and -inf"),
        ((2.0, math.inf, 3.0), (0.0, 0.0, 0.0), 1, "inf and 0.0"),
    ])
    def test_length_and_twist_must_be_finite(self, lengths, twists, cuff, got):
        with pytest.raises(InvalidGluingError,
                           match=f"cuff {cuff} needs a finite length and twist, got {got}"):
            FNSurface.genus2(lengths=lengths, twists=twists)


    def test_multicurve_keeps_its_own_weights(self):
        # the checked weights are the ones used, whatever the caller's dict becomes
        weights = {0: 1.0}
        mc = WeightedMulticurve(weights)
        weights[0] = math.nan
        weights[1] = 2.0
        assert mc.weights == {0: 1.0}
        assert mc == WeightedMulticurve({0: 1.0})
        report = verify_conjugacy(FNSurface.genus2(), mc, [0], (0.0, 0.5))
        assert report.passed and report.samples[1].measured[1] == 1.0


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
        assert is_identity(h1 @ h2 @ h3, 1e-12)

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


def corner_pants(length: float, slot: int, signs):
    """The pants shears with cuff lengths (2, 2.5) and `length` at `slot`."""
    lengths = [2.0, 2.5]
    lengths.insert(slot, length)
    return shears_from_cuffs(*lengths, signs)


class TestAxisFrame:
    def test_diagonalizes(self):
        # the library's frames, read from the shears, on every slot
        rng = random.Random(17)
        for _ in range(20):
            l = rng.uniform(0.5, 3.0)
            signs = tuple(rng.choice((-1, 1)) for _ in range(3))
            for slot in range(3):
                h, shift, f = _cuff_axis(corner_pants(l, slot, signs), slot)
                diag = f.inverse() @ (shift.inverse() @ h @ shift) @ f
                assert abs(diag.b) < 1e-12 and abs(diag.c) < 1e-12
                assert diag.a > 1.0  # attracting end at infinity

    def test_fixed_points_match_decimal_eigen_solve(self):
        # the frame's columns, moved back by its shift, against a 50-digit
        # eigen-solve of the same holonomy: within 1e-14 of the separation
        # at every corner, and within 3e-16 at corner -1, where a float
        # near -1 alone would hold the partner only to 1.1e-16
        for length in (16.0, 1.0, 1e-2, 1e-4, 1e-6, 1e-9, 1e-12):
            for signs in itertools.product((1, -1), repeat=3):
                for slot in range(3):
                    shears = corner_pants(length, slot, signs)
                    _, shift, f = _cuff_axis(shears, slot)
                    rep, att = decimal_fixed_points(decimal_holonomy(
                        pants_triangulation(*shears), pants_boundary_words()[slot]))
                    t = Decimal(shift.b)
                    error = max(pair_gap((Decimal(f.a) + t * Decimal(f.c), f.c), att),
                                pair_gap((Decimal(f.b) + t * Decimal(f.d), f.d), rep))
                    assert error <= Decimal(1e-14) * pair_gap(rep, att)
                    if _spiral_direction(shears, slot)[2] == 0:  # the corner -1
                        assert error <= 3e-16

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

    def test_generators_match_decimal_reference(self):
        # short cuffs down to 1e-12, where tr^2 - 4 would lose 24 digits,
        # and long ones up to 40, against the same construction at 50 digits;
        # at slot 2 the short cuff's partner lies near the corner -1
        surfaces = [FNSurface.genus2(lengths=(l, 2.0, 2.5))
                    for l in (16.0, 4.0, 1.0, 0.1, 1e-2, 1e-4, 1e-6, 1e-9, 1e-12)]
        surfaces += [FNSurface.genus2(lengths=(2.0, 2.5, l)) for l in (1e-4, 1e-8, 1e-12)]
        surfaces += [FNSurface.genus2(lengths=(l, l, l)) for l in (1.0, 10.0, 20.0, 30.0, 40.0)]
        # slot 2's partner of the corner -1 lies at -2.15e-6, where -1 + (a + 1)
        # would hold it only to 5e-11 of itself: 4.2e-11 in the generators
        surfaces.append(FNSurface.genus2(
            lengths=(13.322768166646377, 2.7268890493013727, 15.657231703245971),
            twists=(-48.597505647922624, 66.97213182750193, -70.87575701020995)))
        for s in surfaces:
            assert generator_error(fn_to_holonomy(s), decimal_generators(s)) <= 1e-14

    def test_large_twists_match_decimal_reference(self):
        # the generators stay accurate at every twist, while the relator
        # defect grows with the conditioning of its 8-letter product, within
        # eps times the product of the letters' norms: on cuff 1 it reads
        # 1.6e29 at twist -100, where each generator is within 1e-15
        def conditioning(rep):
            norms = {k: math.hypot(*g.entries()) for k, g in rep.generators.items()}
            return 2.0 ** -52 * math.prod(norms[letter.lower()] for letter in rep.relator)

        cases = [(k, tau) for k in range(3) for tau in (30.0, -30.0, 100.0, -100.0, 1000.0, -1000.0)]
        for k, tau in cases + [(0, 600.0)]:
            twists = [0.0, 0.0, 0.0]
            twists[k] = tau
            s = FNSurface.genus2(twists=tuple(twists))
            rep = fn_to_holonomy(s)
            assert generator_error(rep, decimal_generators(s)) <= 1e-14
            if abs(tau) <= 100.0:
                assert rep.relator_defect() <= conditioning(rep)

    def test_relator_beyond_float_range_is_typed(self):
        # finite generators whose relator product overflows: a typed error
        # naming the word, where the defect once read nan
        for twists in ((1000.0, 0.0, 0.0), (600.0, 0.0, 0.0), (0.0, -1000.0, 0.0)):
            rep = fn_to_holonomy(FNSurface.genus2(twists=twists))
            with pytest.raises(EarthquakeRangeError, match="'abcACdBD'.*beyond float range"):
                rep.relator_defect()

    def test_short_cuffs_are_typed(self):
        # every length FNSurface accepts ends in a representation, or in an
        # InvalidGluingError naming the lengths, never a bare ValueError;
        # a short cuff at slot 2 has its partner near the corner -1
        for slot in range(3):
            lengths = [2.0, 2.5]
            lengths.insert(slot, 1e-14)
            s = FNSurface.genus2(lengths=tuple(lengths))
            assert generator_error(fn_to_holonomy(s), decimal_generators(s)) <= 1e-14
            for length in (1e-300, 5e-324):
                lengths[slot] = length
                with pytest.raises(InvalidGluingError, match=rf"{length!r}.*slot {slot}"):
                    fn_to_holonomy(FNSurface.genus2(lengths=tuple(lengths)))
        # resolved by the shears, but frames of scale 1e150 carry the
        # generators past the float maximum
        with pytest.raises(InvalidGluingError, match=r"1e-300.*beyond float range"):
            fn_to_holonomy(FNSurface.genus2(lengths=(1e-300, 1e-300, 1e-300)))

    def test_twist_beyond_float_range_is_typed(self):
        # e^(τ/2) is a float while |τ| <= 2 ln(float max) = 1419.57; the
        # generators' entries, e^(τ/2) times the cuff frames, overflow sooner
        rep = fn_to_holonomy(FNSurface.genus2(twists=(0.0, 1400.0, 0.0)))
        assert rep.relator_defect() <= 1e-12
        for twist in (1419.0, 1500.0, -1500.0):
            with pytest.raises(EarthquakeRangeError, match=rf"{twist}.*\|twist\| <= 1419\.57"):
                fn_to_holonomy(FNSurface.genus2(twists=(0.0, twist, 0.0)))

    def test_non_genus2_rejected(self):
        with pytest.raises(InvalidGluingError):
            fn_to_holonomy(FNSurface(
                pants=(0, 1),
                gluings=(
                    Gluing(((0, 0), (1, 1)), 2.0),
                    Gluing(((0, 1), (1, 0)), 2.0),
                    Gluing(((0, 2), (1, 2)), 2.0),
                ),
                twists=(0.0, 0.0, 0.0),
            ))


class TestEarthquakeFlow:
    def test_time_zero(self):
        mc = WeightedMulticurve({0: 1.0})
        assert earthquake_flow(BASE, mc, 0.0) == BASE

    def test_flow_property_exact(self):
        mc = WeightedMulticurve({0: 1.0, 1: 0.5})
        one = earthquake_flow(earthquake_flow(BASE, mc, 0.2), mc, 0.3)
        direct = earthquake_flow(BASE, mc, 0.5)
        for tau1, tau2 in zip(one.twists, direct.twists):
            assert tau1 == pytest.approx(tau2, abs=1e-15)
        assert one.gluings == direct.gluings

    def test_single_weight_moves_single_twist(self):
        mc = WeightedMulticurve({0: 1.0})
        moved = earthquake_flow(BASE, mc, 0.3)
        assert moved.twists[0] == BASE.twists[0] + 0.3
        assert moved.twists[1] == BASE.twists[1]
        assert moved.twists[2] == BASE.twists[2]

    @pytest.mark.parametrize("s", [BASE, SHIFTED], ids=["genus2", "shifted"])
    def test_weight_on_cuff_k_moves_only_twist_k_by_t_w(self, s):
        for k in range(3):
            for w, t in ((1.0, 0.7), (0.25, -1.5), (3.0, 1e-3), (0.5, 0.0)):
                moved = earthquake_flow(s, WeightedMulticurve({k: w}), t)
                assert moved.twists[k] == s.twists[k] + t * w
                assert [tau for j, tau in enumerate(moved.twists) if j != k] == [
                    tau for j, tau in enumerate(s.twists) if j != k]
                assert moved.pants is s.pants and moved.gluings is s.gluings

    def test_lengths_untouched(self):
        mc = WeightedMulticurve({0: 2.0, 1: 1.0, 2: 0.5})
        moved = earthquake_flow(BASE, mc, 1.7)
        for g1, g2 in zip(moved.gluings, BASE.gluings):
            assert g1.length == g2.length

    def test_unsupported_curve(self):
        with pytest.raises(UnsupportedCurveError):
            earthquake_flow(BASE, WeightedMulticurve({7: 1.0}), 0.1)

    def test_shares_what_does_not_move(self):
        s = FNSurface.genus2(lengths=(1.3, 2.2, 0.7), twists=(0.2, -0.4, 1.1),
                             spiral_signs=((1, -1), (-1, 1), (1, 1)))
        moved = earthquake_flow(s, WeightedMulticurve({1: 0.5}), 0.3)
        assert moved.pants is s.pants and moved.gluings is s.gluings
        assert moved == with_twist(s, 1, -0.4 + 0.3 * 0.5)
        # a shift below the twist's last bit leaves it the same float
        tiny = earthquake_flow(s, WeightedMulticurve({2: 1.0}), 1e-30)
        assert tiny.gluings is s.gluings and tiny == s

    def test_signed_zero_twist_moves_as_a_float_sum(self):
        # -0.0 + 0.0 is 0.0: a twist of weight zero moves to the float sum
        s = FNSurface.genus2(twists=(-0.0, 0.3, 0.0))
        mc = WeightedMulticurve({1: 1.0})
        forward = earthquake_flow(s, mc, 0.5)
        assert math.copysign(1.0, forward.twists[0]) == 1.0
        assert math.copysign(1.0, forward.twists[2]) == 1.0
        back = earthquake_flow(s, mc, -0.5)
        assert math.copysign(1.0, back.twists[0]) == -1.0
        assert math.copysign(1.0, back.twists[2]) == 1.0
        for moved in (forward, back):
            assert moved.pants is s.pants and moved.gluings is s.gluings


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
        # dual route: the closed-form landing against the intersection of
        # the reference horocycle with the cuff axis, found by a
        # moebius_from_triples normalization and a projection
        surfaces = [FNSurface.genus2(lengths=lengths) for lengths in (
            (2.0, 2.5, 3.0), (0.8, 1.1, 0.9), (4.0, 3.5, 5.0), (0.2049, 0.99, 4.715))]
        surfaces.append(FNSurface.genus2(lengths=(1.3, 2.2, 0.7),
                                         spiral_signs=((1, -1), (-1, 1), (-1, -1))))
        # a slot-2 holonomy near (2709.6, 2709.6; -0.00132, -0.00095), whose
        # fixed points lost 1e-10 to cancellation in the quadratic formula
        surfaces.append(FNSurface.genus2(
            lengths=(2.458691107284968, 11.456176070202817, 15.80911558505556),
            spiral_signs=((1, 1), (-1, 1), (-1, -1))))
        for s in surfaces:
            for pants_id in (0, 1):
                shears = s.pants_shears(pants_id)
                for slot in range(3):
                    assert landing_gap(shears, slot) < 1e-12

    def test_landing_matches_exact_reference(self):
        # random genus-two surfaces, where a sixth of the sides once ran
        # past the transport's divergence budget, against 60 digits
        rng = random.Random(5)
        for _ in range(60):
            s = FNSurface.genus2(
                lengths=tuple(0.05 * (16.0 / 0.05) ** rng.random() for _ in range(3)),
                spiral_signs=tuple((rng.choice((-1, 1)), rng.choice((-1, 1)))
                                   for _ in range(3)))
            for pants_id in (0, 1):
                shears = s.pants_shears(pants_id)
                for slot in range(3):
                    landing = _spiral_landing(shears, slot)
                    assert abs(landing - exact_log_height(shears, slot)) <= 1e-11

    def test_short_cuffs_match_exact_reference(self):
        # cuffs far below the old 4000-layer limit (about 0.015) land, with
        # no loss of digits as L shrinks: L enters through tanh(L/2), not
        # through tr^2 - 4.  The float oracle cannot follow here: it takes
        # the fixed points from tr^2 - 4, and is off by 1.5e-10 at 1e-3
        for exponent in range(2, 13):
            for signs in itertools.product((1, -1), repeat=6):
                s = FNSurface.genus2(lengths=(10.0 ** -exponent, 2.0, 2.5),
                                     spiral_signs=(signs[:2], signs[2:4], signs[4:]))
                for pants_id in (0, 1):
                    shears = s.pants_shears(pants_id)
                    assert abs(_spiral_landing(shears, 0) - exact_log_height(shears, 0)) <= 1e-12

    def test_signed_family_matches_exact_reference(self):
        # the partner's gap is 2 sinh(L/2) / |c|, read from L alone: the
        # trace a + d cancels when the diagonal is large and of mixed signs,
        # as at pants 0 slot 2 of the first surface, where the gap read
        # through |tr h / c| tanh(L/2) put the landing 5.3e-11 off
        surfaces = [FNSurface.genus2(
            (15.552097080290322, 14.449164770129725, 0.3588533251170608),
            spiral_signs=((-1, 1), (1, 1), (-1, 1)))]
        rng = random.Random(20)
        for _ in range(1500):
            lengths = tuple(10.0 ** rng.uniform(-1.0, 1.2) for _ in range(3))
            signs = tuple((rng.choice((-1, 1)), rng.choice((-1, 1))) for _ in range(3))
            surfaces.append(FNSurface.genus2(lengths, spiral_signs=signs))
        for s in surfaces:
            for pants_id in (0, 1):
                shears = s.pants_shears(pants_id)
                for slot in range(3):
                    landing = _spiral_landing(shears, slot)
                    assert abs(landing - exact_log_height(shears, slot)) <= 1e-14

    def test_truncated_transport_converges(self):
        # the per-layer matrices, truncated at depths 10, 20 and 30, carry
        # the reference leaf ever closer to the closed-form limit i y: the
        # distance |z - i y| / y falls by about e^{-10} for each 10 of depth
        mixed = FNSurface.genus2(lengths=(1.3, 2.2, 0.7),
                                 spiral_signs=((1, -1), (-1, 1), (-1, -1)))
        for s in (BASE, mixed):
            for pants_id in (0, 1):
                shears = s.pants_shears(pants_id)
                for slot in range(3):
                    y = math.exp(_spiral_landing(shears, slot))
                    gaps = [abs(truncated_landing(shears, slot, depth).z - 1j * y) / y
                            for depth in (10.0, 20.0, 30.0)]
                    assert gaps[1] < 1e-3 * gaps[0]
                    assert gaps[2] < 1e-3 * gaps[1]

    def test_direction_matches_fixed_point_rule(self):
        # the shear-sum rule picks the corner word whose holonomy repels
        # from the corner vertex shared by the two crossed root sides
        rng = random.Random(57)
        for _ in range(40):
            s = FNSurface.genus2(
                lengths=tuple(0.05 * (11.0 / 0.05) ** rng.random() for _ in range(3)),
                spiral_signs=tuple((rng.choice((-1, 1)), rng.choice((-1, 1)))
                                   for _ in range(3)))
            for pants_id in (0, 1):
                shears = s.pants_shears(pants_id)
                tri = pants_triangulation(*shears)
                for slot in range(3):
                    word, h, corner = _spiral_direction(shears, slot)
                    forward = pants_boundary_words()[slot]
                    vertices = IdealTriangle.standard().vertices
                    sides = [{vertices[k], vertices[(k + 1) % 3]}
                             for k in (tri.cross(0, edge_id)[0][1] for edge_id in forward)]
                    (vertex,) = sides[0] & sides[1]
                    rep, att = fixed_points(holonomy(tri, forward))
                    if rep.gap(vertex) <= 1e-9:
                        want = forward
                    else:
                        assert att.gap(vertex) <= 1e-9
                        want = tuple(reversed(forward))
                    assert word == want
                    assert vertices[corner] == vertex
                    assert h == holonomy(tri, want)


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
                tau = s.twists[cuff]
                for eps in (0.1, 0.01):
                    up = shear_across_cuff(with_twist(s, cuff, tau + eps), cuff)
                    down = shear_across_cuff(with_twist(s, cuff, tau - eps), cuff)
                    assert abs((up - down) / (2.0 * eps) - 1.0) < 1e-6

    def test_landings_independent_of_twist(self):
        mixed = FNSurface.genus2(lengths=(1.3, 2.2, 0.7),
                                 spiral_signs=((1, -1), (-1, 1), (-1, -1)))
        for s in (BASE, mixed):
            for cuff in range(3):
                at_zero = cuff_offset(with_twist(s, cuff, 0.0), cuff)
                assert cuff_offset(with_twist(s, cuff, 0.7), cuff) == at_zero
                assert shear_across_cuff(with_twist(s, cuff, 0.7), cuff) == 0.7 + at_zero

    def test_matches_gluing_map_reference(self):
        # the twist plus two log-heights against the four-matrix gluing map
        # on oracle landings, at twists where the matrices are well conditioned
        rng = random.Random(71)
        for _ in range(100):
            s = FNSurface.genus2(
                lengths=tuple(0.05 * (16.0 / 0.05) ** rng.random() for _ in range(3)),
                spiral_signs=tuple((rng.choice((-1, 1)), rng.choice((-1, 1)))
                                   for _ in range(3)))
            cuff, twist = rng.randrange(3), rng.uniform(-1.0, 1.0)
            x = shear_across_cuff(with_twist(s, cuff, twist), cuff)
            assert abs(x - gluing_map_shear(s, cuff, twist)) <= 1e-10 * (1.0 + abs(x))

    def test_mixed_signs_verify_and_match_gluing_map(self):
        # arcs whose spiral transport once ran past its divergence budget:
        # the deviation sum depended on where the other cuffs' signs placed
        # the developed pants (381 against 64 on the first)
        cases = [FNSurface.genus2(lengths=(11.0, 2.0, 2.5), twists=(0.0, 0.0, 0.4),
                                  spiral_signs=((1, -1), (1, 1), (1, 1))),
                 FNSurface.genus2(lengths=(1.1, 6.8, 0.3), twists=(0.0, 0.0, -0.2),
                                  spiral_signs=((1, -1), (-1, 1), (-1, -1)))]
        for s in cases:
            report = verify_conjugacy(s, WeightedMulticurve({2: 1.0}), [2], [0.0, 0.5])
            assert report.passed
            x0 = report.samples[0].measured[0]
            want = gluing_map_shear(s, 2, s.twists[2])
            assert abs(x0 - want) <= 1e-10 * (1.0 + abs(x0))

    def test_large_twists_exact(self):
        # at these twists a gluing matrix with entries e^{+-tau/2} loses the
        # shear or its determinant; the additive log-coordinate stays exact
        mixed = FNSurface.genus2(lengths=(1.3, 2.2, 0.7),
                                 spiral_signs=((1, -1), (-1, 1), (-1, -1)))
        for s in (BASE, mixed):
            for cuff in range(3):
                at_zero = shear_across_cuff(with_twist(s, cuff, 0.0), cuff)
                for twist in (25.0, 30.0, 45.0):
                    moved = shear_across_cuff(with_twist(s, cuff, twist), cuff)
                    assert abs(moved - at_zero - twist) <= 1e-12 * twist

    def test_length_derivative_generally_nonzero(self):
        eps = 1e-3
        lengths = (2.0, 2.5, 3.0)
        bumped = (2.0, 2.5 + eps, 3.0)
        s1 = FNSurface.genus2(lengths=lengths)
        s2 = FNSurface.genus2(lengths=bumped)
        d = (shear_across_cuff(s2, 1) - shear_across_cuff(s1, 1)) / eps
        assert abs(d) > 1e-3  # no assertion of the value, just nonvanishing

    def test_long_cuffs_all_spiral_signs(self):
        for length in (11.0, 15.0):
            for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                s = FNSurface.genus2(lengths=(length, 2.0, 2.5), twists=(0.3, 0.0, 0.0),
                                     spiral_signs=(signs, (1, 1), (1, 1)))
                assert math.isfinite(shear_across_cuff(s, 0))
                for pants_id in (0, 1):
                    assert landing_gap(s.pants_shears(pants_id), 0) < 1e-12

    def test_long_pants_shear_is_typed(self):
        # pants 1 slot 1 has shears (-5.5, 20.5, -9.5): the landing either
        # succeeds or names the limit it hit, never a bare ValueError
        s = FNSurface.genus2(lengths=(15.0, 11.0, 15.0),
                             spiral_signs=((-1, 1), (1, 1), (-1, -1)))
        assert landing_outcome(s, 1) in ("landed", *TYPED_LIMITS)

    def test_long_cuff_grid_is_typed(self):
        # genus2 (L, 0.9 L, 0.8 L) over all 64 spiral sign patterns and the
        # three cuffs: every case lands or raises a typed limit, and at
        # least as many land as when the holonomy was found by developing
        landed_before = {11.0: 136, 15.0: 108, 20.0: 97, 25.0: 48, 30.0: 32}
        for length, before in landed_before.items():
            outcomes = []
            for signs in itertools.product((1, -1), repeat=6):
                s = FNSurface.genus2(lengths=(length, 0.9 * length, 0.8 * length),
                                     spiral_signs=(signs[:2], signs[2:4], signs[4:]))
                outcomes += [landing_outcome(s, cuff) for cuff in range(3)]
            assert set(outcomes) <= {"landed", *TYPED_LIMITS}
            assert outcomes.count("landed") >= before
