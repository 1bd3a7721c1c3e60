import math
from decimal import Decimal

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from eqlab.hyp import (
    EarthquakeRangeError,
    Geodesic,
    HPoint,
    MoebiusTransform,
    UnitTangent,
    apply,
    translation_along,
)
from eqlab.lamination import (
    DiscreteLamination,
    EndpointOnLeafError,
    UniformBand,
    _point_leaf_side,
    discretize_band,
    earthquake_map,
    separating_leaves,
)
from hyp_reference import (
    frame_distance, hyp_distance, project_to_geodesic, same_unoriented, to_imaginary_axis,
)
from lamination_reference import (
    GeodesicArc, decimal_image, decimal_leaf, earthquake_with_transport, fault_product,
    image_error, scan_separating, total_weight, transverse_measure,
)

NESTED = DiscreteLamination.from_pairs([((-k, k), 1.0) for k in range(1, 6)])
BASE = UnitTangent.upward_at(HPoint(0.0, 0.5))
HIGH = HPoint(0.0, 10.0)


class TestStructure:
    def test_crossing_leaves_rejected(self):
        with pytest.raises(ValueError):
            DiscreteLamination.from_pairs([((-1, 1), 1.0), ((0, 2), 1.0)])

    def test_shared_endpoints_allowed(self):
        DiscreteLamination.from_pairs([((0, "inf"), 1.0), ((0, 1), 1.0)])

    def test_end_past_float_range_is_infinity(self):
        # '1e999' used to build a leaf with the end (nan : 0)
        lam = DiscreteLamination.from_pairs([(("1e999", 2.0), 1.0)])
        assert lam == DiscreteLamination.from_pairs([(("inf", 2.0), 1.0)])

    def test_positive_weight_required(self):
        with pytest.raises(ValueError):
            DiscreteLamination.from_pairs([((-1, 1), 0.0)])

    def test_infinite_weight_is_named(self):
        # inf > 0, so only a finiteness check refuses it
        with pytest.raises(ValueError, match="^leaf weight inf is not finite$"):
            DiscreteLamination.from_pairs([((-1, 1), 1.0), ((-2, 2), math.inf)])
        with pytest.raises(ValueError, match="^leaf weight must be positive$"):
            DiscreteLamination.from_pairs([((-1, 1), -math.inf)])


def _cross_transversally(g1: Geodesic, g2: Geodesic) -> bool:
    """Pairwise endpoint interleaving; shared endpoints do not count as crossing.

    The reference the O(n log n) build is checked against.
    """
    eps = 1e-12
    for a in (g2.start, g2.end):
        if min(a.gap(g1.start), a.gap(g1.end)) <= eps:
            return False
    a1, b1, a2, b2 = (p.angle() for p in (g1.start, g1.end, g2.start, g2.end))

    def between(x, lo, hi):
        # is angle x inside the arc from lo to hi, counterclockwise
        span = (hi - lo) % (2.0 * math.pi)
        off = (x - lo) % (2.0 * math.pi)
        return 0.0 < off < span

    return between(a2, a1, b1) != between(b2, a1, b1)


def _crossing_pairs(pairs):
    geos = [Geodesic.from_values(a, b) for (a, b), _ in pairs]
    return {
        (i, j)
        for i in range(len(geos))
        for j in range(i + 1, len(geos))
        if _cross_transversally(geos[i], geos[j])
    }


# Endpoints come in clusters: points of one cluster are within the 1e-12
# shared-endpoint rule of each other (0 and infinity, approached from both
# sides of the cut at x = 0), and distinct clusters lie far apart.
_CLUSTERS = [[k / 4.0] for k in range(-12, 13) if k != 0] + [
    [0.0, 1e-13, -1e-13],
    ["inf", 1e13, -1e13],
]
_ENDPOINTS = st.integers(0, len(_CLUSTERS) - 1).flatmap(
    lambda c: st.tuples(st.just(c), st.sampled_from(_CLUSTERS[c])))
# one point per cluster: equal endpoints are exactly equal
_EXACT_ENDPOINTS = st.integers(0, len(_CLUSTERS) - 1).map(lambda c: (c, _CLUSTERS[c][0]))


@st.composite
def _chord(draw, exact=False):
    ends = _EXACT_ENDPOINTS if exact else _ENDPOINTS
    (_, a), (_, b) = draw(st.tuples(ends, ends).filter(lambda ends: ends[0][0] != ends[1][0]))
    return (a, b), 1.0


@st.composite
def _families(draw, exact=False):
    """Random chords mixed with nested leaves, fans and duplicates."""
    pairs = []
    for _ in range(draw(st.integers(0, 9))):
        shape = draw(st.sampled_from(("chord", "nested", "fan", "duplicate")))
        if shape == "nested":
            r = draw(st.integers(1, 12)) / 4.0
            pairs.append(((-r, r), 1.0))
        elif shape == "fan":
            pairs.append(((draw(st.sampled_from(("inf", 0.0))), draw(st.integers(1, 12)) / 4.0),
                          1.0))
        elif shape == "duplicate" and pairs:
            (a, b), w = pairs[draw(st.integers(0, len(pairs) - 1))]
            pairs.append(((b, a) if draw(st.booleans()) else (a, b), w))
        else:
            pairs.append(draw(_chord(exact)))
    return pairs


class TestBuild:
    @settings(max_examples=400, deadline=None)
    @given(_families())
    @example([((-1, 1e-13), 1.0), ((-1e-13, 1), 1.0)])
    @example([((-1, 1), 1.0), ((0, 2), 1.0)])
    def test_agrees_with_pairwise_oracle(self, pairs):
        crossing = _crossing_pairs(pairs)
        if not crossing:
            DiscreteLamination.from_pairs(pairs)
            return
        with pytest.raises(ValueError, match="cross transversally") as info:
            DiscreteLamination.from_pairs(pairs)
        i, j = (int(word) for word in str(info.value).split() if word.isdigit())
        assert (i, j) in crossing

    def test_cut_straddling_pair_is_shared(self):
        # 1e-13 and -1e-13 sit at angles near -pi and +pi, but are one endpoint
        pairs = [((-1, 1e-13), 1.0), ((-1e-13, 1), 1.0)]
        assert not _crossing_pairs(pairs)
        DiscreteLamination.from_pairs(pairs)

    def test_nan_endpoint_is_refused(self):
        # a NaN leaf used to build and leave every earthquake_map target unmoved
        with pytest.raises(ValueError, match="got nan"):
            DiscreteLamination.from_pairs([((math.nan, 1.0), 1.0), ((-2.0, 2.0), 1.0)])
        assert earthquake_map(DiscreteLamination.from_pairs([((-2.0, 2.0), 1.0)]), 1.0, BASE,
                              HIGH) != HIGH

    def test_large_band_builds(self):
        lam = discretize_band(UniformBand(), 2000)
        assert len(lam.leaves) == 2000


_GRID_ENDPOINTS = st.one_of(st.just("inf"), st.integers(-40, 40).map(lambda k: k / 4.0))


class TestLeafSide:
    @settings(max_examples=500, deadline=None)
    @given(_GRID_ENDPOINTS, _GRID_ENDPOINTS, st.floats(-10, 10), st.floats(1e-2, 10))
    def test_closed_form_matches_transform(self, a, b, x, y):
        if a == b:
            return
        geodesic = Geodesic.from_values(a, b)
        p = HPoint(x, y)
        w = apply(to_imaginary_axis(geodesic), p)
        expected = w.x / w.y
        if abs(expected) <= 2e-9:
            return  # at the on-leaf threshold either form may round across it
        side = _point_leaf_side(geodesic, p)
        assert (side > 0) == (expected > 0)
        if abs(expected) >= 1e-6:
            # nearer the leaf the ratio is ill-conditioned in either form
            assert abs(side - expected) <= 1e-10 * abs(expected)

    def test_side_of(self):
        g = Geodesic.from_values(0, "inf")
        assert _point_leaf_side(g, HPoint(1, 1)) > 0
        assert _point_leaf_side(g, HPoint(-1, 1)) < 0


class TestTransverseMeasure:
    def test_empty(self):
        empty = DiscreteLamination(())
        assert transverse_measure(empty, GeodesicArc(HPoint(0, 1), HPoint(0, 2))) == 0.0

    def test_single_separating_leaf(self):
        lam = DiscreteLamination.from_pairs([((-1, 1), 0.75)])
        arc = GeodesicArc(HPoint(0, 0.5), HPoint(0, 5))
        assert transverse_measure(lam, arc) == 0.75

    def test_nested_family_counts_five(self):
        # all five half-circles |z| = k separate 0.5i from 10i
        arc = GeodesicArc(HPoint(0, 0.5), HPoint(0, 10))
        assert transverse_measure(NESTED, arc) == 5.0

    def test_nonseparating_leaf_ignored(self):
        arc = GeodesicArc(HPoint(0, 0.5), HPoint(0.1, 0.6))
        assert transverse_measure(NESTED, arc) == 0.0

    def test_endpoint_on_leaf(self):
        arc = GeodesicArc(HPoint(0, 3.0), HPoint(0, 10))
        with pytest.raises(EndpointOnLeafError):
            transverse_measure(NESTED, arc)


class TestSeparatingLeaves:
    def test_empty_when_unseparated(self):
        assert separating_leaves(NESTED, HPoint(0, 0.4), HPoint(0.05, 0.45)) == []

    def test_nesting_order(self):
        order = separating_leaves(NESTED, HPoint(0, 0.5), HPoint(0, 10))
        assert [leaf.geodesic.end.value for leaf in order] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_order_reverses_with_arguments(self):
        fwd = separating_leaves(NESTED, HPoint(0, 0.5), HPoint(0, 10))
        bwd = separating_leaves(NESTED, HPoint(0, 10), HPoint(0, 0.5))
        assert fwd == list(reversed(bwd))


def _oracle_side(geodesic: Geodesic, p: HPoint) -> float:
    """Side of p read through the normalizing transform, not the closed form."""
    w = apply(to_imaginary_axis(geodesic), p)
    return w.x / w.y


def _clear_of_leaves(lam: DiscreteLamination, *points) -> bool:
    # near a leaf the two side forms may round apart
    return all(abs(_oracle_side(leaf.geodesic, p)) > 1e-6 for leaf in lam.leaves for p in points)


_BOX_POINTS = st.builds(HPoint, st.floats(-3.5, 3.5), st.floats(0.1, 4.0))
_LOW_POINTS = st.builds(HPoint, st.floats(-3.5, 3.5), st.floats(0.01, 0.5))
_HIGH_POINTS = st.builds(HPoint, st.floats(-3.5, 3.5), st.floats(4.0, 50.0))

# Endpoint clusters far out on the reals: points 0.25 apart there are
# within the 1e-12 merge of each other (gap about 0.25 / x^2), yet the
# leaves through them are far apart at heights below 0.25.
_WIDE_CENTRES = (1e6, 1.5e6, 2e6, 2.5e6, 3e6)
_WIDE_CLUSTERS = [[c, c + 0.25, c + 0.5] for c in _WIDE_CENTRES]
# points between near-duplicate ends, and points anywhere over the clusters
_WIDE_POINTS = st.one_of(
    st.builds(HPoint, st.sampled_from(_WIDE_CENTRES).flatmap(
        lambda c: st.floats(c - 0.1, c + 0.6)), st.floats(0.02, 0.3)),
    st.builds(HPoint, st.floats(0.9e6, 3.1e6), st.floats(0.02, 1e6)))


def _interleave(u, v) -> bool:
    """Do the chords u and v cross, reading their ends exactly?"""
    (a, b), (c, d) = sorted(u), sorted(v)
    return a < c < b < d or c < a < d < b


@st.composite
def _near_duplicate_families(draw):
    """Exactly disjoint leaves on the wide clusters, copies included."""
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        if pairs and draw(st.booleans()):
            (a, b), w = pairs[draw(st.integers(0, len(pairs) - 1))]
            pairs.append(((b, a) if draw(st.booleans()) else (a, b), w))
            continue
        i, j = draw(st.lists(st.integers(0, len(_WIDE_CLUSTERS) - 1), min_size=2, max_size=2,
                             unique=True))
        ends = (draw(st.sampled_from(_WIDE_CLUSTERS[i])), draw(st.sampled_from(_WIDE_CLUSTERS[j])))
        if not any(_interleave(ends, other) for other, _ in pairs):
            pairs.append((ends, 1.0))
    return pairs


class TestSeparatingOrder:
    @settings(max_examples=400, deadline=None)
    @given(_families(exact=True), _BOX_POINTS, _BOX_POINTS)
    @example([((0.0, 1.0), 1.0), ((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0), (("inf", 1.0), 1.0),
              (("inf", 3.0), 1.0), ((1.0, 3.0), 1.0), ((0.0, "inf"), 1.0), ((-2.0, 0.0), 1.0),
              (("inf", -2.0), 1.0)],
             HPoint(0.5, 0.2), HPoint(-1.0, 3.9))
    # one merged span, two distinct leaves: the point is inside the first only
    @example([((1e6, 2e6), 1.0), ((1e6 + 0.5, 2e6), 1.0)], HPoint(1e6 + 0.25, 0.1), HPoint(0, 1))
    @example([((1e6 + 0.5, 2e6), 1.0), ((1e6, 2e6), 1.0)], HPoint(1e6 + 0.25, 0.1), HPoint(0, 1))
    @example([((1e6, 2e6 + 0.5), 1.0), ((1e6, 2e6), 1.0)], HPoint(2e6 + 0.25, 0.1), HPoint(0, 1))
    def test_forest_path_is_the_sorted_scan(self, pairs, p, q):
        # duplicates, reversed duplicates and fans share their endpoints exactly
        assume(not _crossing_pairs(pairs))
        lam = DiscreteLamination.from_pairs(pairs)
        assume(_clear_of_leaves(lam, p, q))
        found = separating_leaves(lam, p, q)
        expected = scan_separating(lam, p, q)
        assert found == expected
        assert list(map(id, found)) == list(map(id, expected))

    @settings(max_examples=300, deadline=None)
    @given(_near_duplicate_families(), _WIDE_POINTS, _WIDE_POINTS)
    def test_near_duplicates_nest_as_the_geometry_says(self, pairs, p, q):
        # ends 0.25 apart share a merged position, but only copies of one
        # geodesic share a node: the path is still the sorted scan
        lam = DiscreteLamination.from_pairs(pairs)
        assume(_clear_of_leaves(lam, p, q))
        found = separating_leaves(lam, p, q)
        expected = scan_separating(lam, p, q)
        assert list(map(id, found)) == list(map(id, expected))

    def test_near_duplicates_measured_apart(self):
        # p lies inside (1e6, 2e6) and outside (1e6 + 0.5, 2e6), listed either way
        p, q = HPoint(1e6 + 0.25, 0.1), HPoint(0.0, 1.0)
        outer, inner = ((1e6, 2e6), 1.0), ((1e6 + 0.5, 2e6), 1.0)
        for pairs in ([outer, inner], [inner, outer]):
            lam = DiscreteLamination.from_pairs(pairs)
            assert separating_leaves(lam, p, q) == [lam.leaves[pairs.index(outer)]]
            assert transverse_measure(lam, GeodesicArc(p, q)) == 1.0
        # the same 1e-13 apart: the point is outside the unit circle and
        # inside the one through -1 - 1e-13
        lam = DiscreteLamination.from_pairs([((-1.0, 1.0), 1.0), ((-1.0 - 1e-13, 1.0), 1.0)])
        assert separating_leaves(lam, HPoint(-1.0 - 5e-14, 1e-14), HPoint(0.0, 0.5)) == [
            lam.leaves[0]]
        # a pair crossing within the merge sends the build to the merged
        # positions; the near-duplicates still nest by their exact ends
        lam = DiscreteLamination.from_pairs([outer, inner, ((-1, 1e-13), 1.0),
                                             ((-1e-13, 1), 1.0)])
        assert separating_leaves(lam, p, q) == [lam.leaves[0]]

    @settings(max_examples=400, deadline=None)
    @given(_families(), _BOX_POINTS, _BOX_POINTS)
    def test_exactly_the_separating_leaves_in_crossing_order(self, pairs, p, q):
        # endpoints 1e-13 apart leave the side ratios equal up to rounding, so
        # only the geometric order is checked
        if _crossing_pairs(pairs):
            return
        lam = DiscreteLamination.from_pairs(pairs)
        sides = [(_oracle_side(leaf.geodesic, p), _oracle_side(leaf.geodesic, q))
                 for leaf in lam.leaves]
        if any(min(abs(sp), abs(sq)) <= 1e-6 for sp, sq in sides):
            return  # near a leaf the two side forms may round apart
        found = separating_leaves(lam, p, q)
        expected = [leaf for leaf, (sp, sq) in zip(lam.leaves, sides) if (sp > 0) != (sq > 0)]
        assert sorted(map(id, found)) == sorted(map(id, expected))
        for a, b in zip(found, found[1:]):
            if same_unoriented(a.geodesic, b.geodesic):
                continue  # a duplicated leaf separates nothing from its copy
            # a point of b lies across a from p: a separates p from b
            foot = project_to_geodesic(b.geodesic, p)
            assert (_oracle_side(a.geodesic, foot) > 0) != (_oracle_side(a.geodesic, p) > 0)

    def test_band_of_2000_every_leaf_separating(self):
        # base under the band, targets above it: all 2000 leaves separate.
        # The carried image and the scan's product of translations are both
        # read against the 50-digit composition: the carry, which rounds
        # each short shift only to its own digits, within 2e-13 and no worse
        # than the product
        lam = discretize_band(UniformBand(), 2000)
        base = BASE.basepoint()
        for target in (HPoint(0.0, 10.0), HPoint(0.5, 3.0), HPoint(-1.0, 2.5), HPoint(3.0, 1.0)):
            found = separating_leaves(lam, base, target)
            assert len(found) == 2000
            assert list(map(id, found)) == list(map(id, scan_separating(lam, base, target)))
            ref = decimal_image(lam, 0.5, BASE, target)
            carried = image_error(earthquake_map(lam, 0.5, BASE, target), ref)
            product = apply(fault_product(scan_separating(lam, base, target), 0.5, base), target)
            assert carried <= 2e-13
            assert carried <= image_error(product, ref)


class TestContract:
    @settings(max_examples=200, deadline=None)
    @given(_families(), st.data(), _BOX_POINTS, _BOX_POINTS)
    def test_foot_on_any_leaf_raises(self, pairs, data, p, q):
        assume(pairs and not _crossing_pairs(pairs))
        lam = DiscreteLamination.from_pairs(pairs)
        leaf = lam.leaves[data.draw(st.integers(0, len(lam.leaves) - 1))]
        foot = project_to_geodesic(leaf.geodesic, p)
        with pytest.raises(EndpointOnLeafError):
            _point_leaf_side(leaf.geodesic, foot)
        with pytest.raises(EndpointOnLeafError):
            separating_leaves(lam, foot, q)
        with pytest.raises(EndpointOnLeafError):
            separating_leaves(lam, q, foot)

    @settings(max_examples=50, deadline=None)
    @given(_families())
    def test_builds_of_the_same_pairs_are_equal(self, pairs):
        assume(not _crossing_pairs(pairs))
        a, b = DiscreteLamination.from_pairs(pairs), DiscreteLamination.from_pairs(pairs)
        assert a == b
        assert repr(a) == repr(b)
        assert hash(a) == hash(b)

    def test_leaves_are_the_only_field(self):
        assert DiscreteLamination._fields == ("leaves",)
        assert repr(NESTED).startswith("DiscreteLamination(leaves=(Leaf(")

    def test_transported_lamination_queries_like_the_scan(self):
        # targets beyond the whole band: every leaf is carried, and the
        # rebuilt lamination answers like the scan and composes as a flow
        lam = DiscreteLamination.from_pairs(
            [((-1.0 - k / 8.0, 1.0 + k / 8.0) if k % 2 else (1.0 + k / 8.0, -1.0 - k / 8.0),
              0.05 + k / 40.0) for k in range(9)])
        probes = [HPoint(x, y) for x in (-2.5, -0.3, 0.4, 2.5) for y in (0.3, 1.7, 4.0)]
        for target in (HPoint(0.0, 10.0), HPoint(2.5, 0.3), HPoint(-3.0, 2.0), HPoint(0.7, 2.6)):
            img_t, lam_t = earthquake_with_transport(lam, 0.3, BASE, target)
            assert lam_t.leaves != lam.leaves
            for p in probes + [BASE.basepoint()]:
                if _clear_of_leaves(lam_t, p, img_t):
                    assert separating_leaves(lam_t, p, img_t) == scan_separating(lam_t, p, img_t)
            img_st, _ = earthquake_with_transport(lam_t, 0.4, BASE, img_t)
            direct, _ = earthquake_with_transport(lam, 0.7, BASE, target)
            assert hyp_distance(img_st, direct) < 1e-12


class TestRefusedProducts:
    # the image is carried fault by fault and no product is formed, so the
    # pair holds until floats cannot hold the image (its height leaves the
    # normal range past t·mass 708) or one fault's shift passes SHIFT_LIMIT
    PAIR = DiscreteLamination.from_pairs([((-1, 1), 1.0), ((-2, 2), 1.0)])

    def test_product_refusal_names_t_times_crossed_mass(self):
        # each fault's shift, 711, is within SHIFT_LIMIT; the carried image,
        # at a height of about e^(-1422), is not a float
        with pytest.raises(EarthquakeRangeError,
                           match=r"t·\(mass crossed\) = 1422\.0 carries the image out of float"):
            earthquake_map(self.PAIR, 711.0, BASE, HIGH)

    def test_image_refusal_names_t_times_crossed_mass(self):
        with pytest.raises(EarthquakeRangeError,
                           match=r"t·\(mass crossed\) = 710\.0 carries the image out of float"):
            earthquake_map(self.PAIR, 355.0, BASE, HIGH)

    def test_translation_refusal_names_t_times_w(self):
        # the lone leaf's translation holds to |t·w| = 2 ln(float max), 1419.57
        lone = DiscreteLamination.from_pairs([((-1, 1), 1.0)])
        with pytest.raises(EarthquakeRangeError, match=r"t·w = -1420\.0 .*\|t·w\| <= 1419\.57"):
            earthquake_map(lone, 1420.0, BASE, HIGH)

    def test_transport_refusal_is_typed(self):
        # the carried (-2, 2) closes on -1 like e^-t, and its ends merge
        # within the 1e-12 of Geodesic past t = 29
        assert earthquake_with_transport(self.PAIR, 29.0, BASE, HIGH)[0].y > 0.0
        with pytest.raises(EarthquakeRangeError,
                           match=r"t·\(mass crossed\) = 29\.5 merges the ends of a carried leaf"):
            earthquake_with_transport(self.PAIR, 29.5, BASE, HIGH)

    def test_just_below_the_limit_moves(self):
        assert earthquake_map(self.PAIR, 354.0, BASE, HIGH).y > 0.0

    @pytest.mark.parametrize("t", [20.0, 100.0, 354.0])
    def test_moves_as_its_translations_one_at_a_time(self, t):
        # refused at t >= 19 while products renormalized by their cancelled
        # determinant; the image must match the point carried through each
        # fault translation in turn, which forms no product
        point = HIGH
        for leaf in reversed(separating_leaves(self.PAIR, BASE.basepoint(), HIGH)):
            shift = t * leaf.weight
            if _point_leaf_side(leaf.geodesic, BASE.basepoint()) > 0.0:
                shift = -shift
            point = apply(translation_along(leaf.geodesic, shift), point)
        img = earthquake_map(self.PAIR, t, BASE, HIGH)
        assert abs(img.x - point.x) <= 1e-15 and abs(img.y / point.y - 1.0) <= 1e-14


@st.composite
def _nested_families(draw):
    """Random non-crossing families: 2n distinct grid ends matched like
    brackets, the largest end sometimes moved to infinity, random weights
    and orientations."""
    n = draw(st.integers(1, 10))
    ends = sorted(draw(st.lists(st.integers(-400, 400), min_size=2 * n, max_size=2 * n,
                                unique=True)))
    ends = [k / 100.0 for k in ends]
    if draw(st.booleans()):
        ends[-1] = "inf"  # still last in circular order
    pairs, spans = [], [(0, 2 * n)]
    while spans:
        lo, hi = spans.pop()
        if hi > lo:  # lo pairs with an odd offset: even blocks inside and after
            mate = lo + 1 + 2 * draw(st.integers(0, (hi - lo) // 2 - 1))
            a, b = ends[lo], ends[mate]
            pairs.append(((b, a) if draw(st.booleans()) else (a, b), draw(st.floats(0.05, 2.0))))
            spans += [(lo + 1, mate), (mate + 1, hi)]
    return pairs


def _tangent_at(point: HPoint, angle: float) -> UnitTangent:
    """The unit tangent at point, turned by angle from upward."""
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return UnitTangent(UnitTangent.upward_at(point).frame @ MoebiusTransform(c, -s, s, c))


class TestEarthquakeMap:
    @settings(max_examples=300, deadline=None)
    @given(_nested_families(), _LOW_POINTS, st.one_of(_BOX_POINTS, _HIGH_POINTS),
           st.floats(-3.0, 3.0), st.one_of(st.none(), st.floats(-math.pi, math.pi)))
    @example([((-1.0, 1.0), 1.0), ((-2.0, 2.0), 1.0)], HPoint(0.0, 0.5), HPoint(0.0, 3.9), 3.0,
             None)
    @example([((0.0, "inf"), 0.7), ((0.5, 1.0), 2.0)], HPoint(-1.0, 1.0), HPoint(0.75, 0.1), -3.0,
             1.0)
    def test_images_match_the_decimal_composition(self, pairs, b, p, t, angle):
        # a point or a unit tangent (angle None or its turn from upward)
        # carried fault by fault, against the ordered product of the scan's
        # translations at 50 digits; a base low under the leaves and a
        # target sometimes above them all cross more of them
        lam = DiscreteLamination.from_pairs(pairs)
        assume(_clear_of_leaves(lam, b, p))
        base = UnitTangent.upward_at(b)
        target = p if angle is None else _tangent_at(p, angle)
        image = earthquake_map(lam, t, base, target)
        assert type(image) is type(target)
        assert image_error(image, decimal_image(lam, t, base, target)) <= 1e-12

    def test_time_zero(self):
        img = earthquake_map(NESTED, 0.0, BASE, HIGH)
        assert hyp_distance(img, HIGH) < 1e-14

    def test_single_leaf_matches_translation(self):
        lam = DiscreteLamination.from_pairs([((0, "inf"), 1.0)])
        base = UnitTangent.upward_at(HPoint(-1.0, 1.0))  # left of the upward axis
        target = HPoint(1.0, 1.0)
        img = earthquake_map(lam, 0.5, base, target)
        expected = apply(translation_along(lam.leaves[0].geodesic, 0.5), target)
        assert hyp_distance(img, expected) < 1e-14
        # far side moves toward the positive endpoint: straight up the axis
        assert img.y > target.y

    def test_sign_flips_with_base_side(self):
        lam = DiscreteLamination.from_pairs([((0, "inf"), 1.0)])
        base_right = UnitTangent.upward_at(HPoint(1.0, 1.0))
        img = earthquake_map(lam, 0.5, base_right, HPoint(-1.0, 1.0))
        assert img.y < 1.0  # far side now moves toward the 0 endpoint

    def test_base_is_fixed(self):
        img = earthquake_map(NESTED, 0.7, BASE, BASE.basepoint())
        assert img == BASE.basepoint()

    def test_unit_tangent_target(self):
        v = UnitTangent.upward_at(HIGH)
        img = earthquake_map(NESTED, 0.3, BASE, v)
        assert isinstance(img, UnitTangent)

    def test_flow_property_single_leaf(self):
        lam = DiscreteLamination.from_pairs([((-1, 1), 0.8)])
        a = earthquake_map(lam, 0.3, BASE, HIGH)
        b = earthquake_map(lam, 0.5, BASE, a)
        c = earthquake_map(lam, 0.8, BASE, HIGH)
        assert hyp_distance(b, c) < 1e-12

    def test_flow_property_with_transport(self):
        lam = DiscreteLamination.from_pairs([((-1, 1), 0.7), ((-1.5, 1.5), 1.3)])
        img_t, lam_t = earthquake_with_transport(lam, 0.3, BASE, HIGH)
        img_st, _ = earthquake_with_transport(lam_t, 0.4, BASE, img_t)
        direct, _ = earthquake_with_transport(lam, 0.7, BASE, HIGH)
        assert hyp_distance(img_st, direct) < 1e-12

    def test_endpoint_on_leaf_is_error(self):
        with pytest.raises(EndpointOnLeafError):
            earthquake_map(NESTED, 0.1, BASE, HPoint(0.0, 2.0))


# targets anywhere over the grid ends of _nested_families, above and below its leaves
_ANY_POINTS = st.builds(HPoint, st.floats(-5.0, 5.0), st.floats(0.05, 6.0))


def _pair_gap(u, v) -> float:
    """BoundaryPoint.gap of two Decimal pairs, each scaled to max(|p|, |q|) = 1."""
    (a, b), (c, d) = u, v
    return float(abs(a * d - b * c) / max(abs(a), abs(b)) / max(abs(c), abs(d)))


def _end_gap(point, pair) -> float:
    return _pair_gap((Decimal(point.p), Decimal(point.q)), pair)


class TestTransport:
    @settings(max_examples=300, deadline=None)
    @given(_nested_families(), _LOW_POINTS, _ANY_POINTS, st.floats(-2.0, 2.0),
           st.floats(-2.0, 2.0))
    def test_flow_property(self, pairs, b, p, s, t):
        # E_s against the moved lamination after E_t is E_{s+t}, from any
        # target: every leaf moves, not just those between base and target
        lam = DiscreteLamination.from_pairs(pairs)
        assume(_clear_of_leaves(lam, b, p))
        base = UnitTangent.upward_at(b)
        img_t, lam_t = earthquake_with_transport(lam, t, base, p)
        assert img_t == earthquake_map(lam, t, base, p)
        img_st, _ = earthquake_with_transport(lam_t, s, base, img_t)
        direct = earthquake_map(lam, s + t, base, p)
        assert image_error(img_st, (Decimal(direct.x), Decimal(direct.y))) <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(_nested_families(), _LOW_POINTS, st.floats(-3.0, 3.0))
    @example([((-1.0, 1.0), 1.0), ((-2.0, 2.0), 1.0)], HPoint(0.0, 0.5), 29.0)
    @example([((-1.0, 1.0), 1.0), ((-2.0, 2.0), 1.0)], HPoint(0.0, 0.5), 29.5)  # refused
    def test_moved_leaves_match_the_decimal_composition(self, pairs, b, t):
        lam = DiscreteLamination.from_pairs(pairs)
        assume(_clear_of_leaves(lam, b))
        base = UnitTangent.upward_at(b)
        try:
            # the target, off every grid line, does not change the moved leaves
            _, moved = earthquake_with_transport(lam, t, base, HPoint(0.005, 10.0))
        except EarthquakeRangeError:
            # refused only where some leaf's true moved ends are within
            # ALG_TOL of each other, give or take the 1e-12 each end is held to
            assert min(_pair_gap(*decimal_leaf(lam, t, base, leaf)) for leaf in lam.leaves) <= 3e-12
            return
        for leaf, image in zip(lam.leaves, moved.leaves):
            start, end = decimal_leaf(lam, t, base, leaf)
            assert image.weight == leaf.weight
            assert max(_end_gap(image.geodesic.start, start),
                       _end_gap(image.geodesic.end, end)) <= 1e-12

    @pytest.mark.parametrize("target", [HIGH, HPoint(2.75, 0.1), HPoint(-3.0, 0.5)])
    def test_leaves_off_the_path_move_too(self, target):
        # (2.5, 3) once stayed put while (-2, 2) moved across it
        lam = DiscreteLamination.from_pairs([((-1, 1), 1.0), ((-2, 2), 1.0), ((2.5, 3), 1.0)])
        img_t, lam_t = earthquake_with_transport(lam, 0.3, BASE, target)
        img_st, _ = earthquake_with_transport(lam_t, 0.4, BASE, img_t)
        assert hyp_distance(img_st, earthquake_map(lam, 0.7, BASE, target)) < 1e-12

    def test_leaf_with_merged_ends_moves_with_its_neighbours(self):
        # the build places (0, 1.8e-12) in no node: its ends share a merged
        # position with 0.9e-12, yet it comes back moved, and the result builds
        lam = DiscreteLamination.from_pairs(
            [((0, 1.8e-12), 1.0), ((0.9e-12, 0.5), 1.0), ((-1, 1), 1.0)])
        base = UnitTangent.upward_at(HPoint(0.0, 2.0))
        _, moved = earthquake_with_transport(lam, 0.5, base, HPoint(3.0, 4.0))
        assert len(moved.leaves) == 3
        assert moved.leaves[2] == lam.leaves[2]  # the base's own stratum is fixed
        small, near = moved.leaves[0].geodesic, moved.leaves[1].geodesic
        assert small != lam.leaves[0].geodesic
        assert small.start.gap(near.start) < 1e-12


class TestDiscretizeBand:
    def test_single_chunk(self):
        lam = discretize_band(UniformBand(), 1)
        assert len(lam.leaves) == 1
        assert lam.leaves[0].weight == 1.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 200))
    def test_mass_preserved(self, n):
        lam = discretize_band(UniformBand(), n)
        assert abs(total_weight(lam) - 1.0) < 1e-14

    def test_refinement_ratios(self):
        # successive refinement errors decay at first order: ratios near 1/2
        images = {
            n: earthquake_map(discretize_band(UniformBand(), n), 1.0, BASE, HIGH)
            for n in (8, 16, 32, 64, 128)
        }
        errors = [hyp_distance(images[n], images[2 * n]) for n in (8, 16, 32, 64)]
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
        for e1, e2 in zip(errors, errors[1:]):
            assert 0.4 <= e2 / e1 <= 0.6


class TestLipschitzEstimates:
    def test_first_estimate_ratio_bounded(self):
        # d(E_tv(w), w) <= K t over dyadic times
        lam = DiscreteLamination.from_pairs([((-1, 1), 1.0)])
        w = UnitTangent.upward_at(HPoint(0.2, 3.0))
        ratios = []
        for k in range(1, 11):
            t = 2.0 ** -k
            img = earthquake_map(lam, t, BASE, w)
            ratios.append(frame_distance(img, w) / t)
        assert max(ratios) < math.inf
        assert max(ratios) / min(ratios) < 2.0

    def test_second_estimate_ratio_bounded(self):
        # d(E_tv(w), E_tv'(w)) <= K t d(v, v') for a perturbed fault line
        lam = DiscreteLamination.from_pairs([((-1, 1), 1.0)])
        lam2 = DiscreteLamination.from_pairs([((-1.05, 1.02), 1.0)])
        v = UnitTangent.upward_at(HPoint(0.0, 1.0))
        v2 = UnitTangent.upward_at(HPoint(0.015, 1.0))
        dvv = frame_distance(v, v2)
        w = UnitTangent.upward_at(HPoint(0.2, 3.0))
        ratios = []
        for k in range(1, 11):
            t = 2.0 ** -k
            img1 = earthquake_map(lam, t, BASE, w)
            img2 = earthquake_map(lam2, t, BASE, w)
            ratios.append(frame_distance(img1, img2) / (t * dvv))
        assert max(ratios) < math.inf
        assert max(ratios) / min(ratios) < 2.0
