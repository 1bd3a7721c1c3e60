import math

import pytest
from hypothesis import example, given, settings, strategies as st

from eqlab.hyp import (
    Geodesic,
    HPoint,
    UnitTangent,
    apply,
    frame_distance,
    hyp_distance,
    project_to_geodesic,
    translation_along,
)
from eqlab.lamination import (
    DiscreteLamination,
    EndpointOnLeafError,
    GeodesicArc,
    UniformBand,
    _point_leaf_side,
    discretize_band,
    earthquake_map,
    earthquake_with_transport,
    separating_leaves,
    transverse_measure,
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

    def test_positive_weight_required(self):
        with pytest.raises(ValueError):
            DiscreteLamination.from_pairs([((-1, 1), 0.0)])


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


@st.composite
def _chord(draw):
    (_, a), (_, b) = draw(st.tuples(_ENDPOINTS, _ENDPOINTS).filter(
        lambda ends: ends[0][0] != ends[1][0]))
    return (a, b), 1.0


@st.composite
def _families(draw):
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
            pairs.append(draw(_chord()))
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
        w = apply(geodesic.to_imaginary_axis(), p)
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
    w = apply(geodesic.to_imaginary_axis(), p)
    return w.x / w.y


_BOX_POINTS = st.builds(HPoint, st.floats(-3.5, 3.5), st.floats(0.1, 4.0))


class TestSeparatingOrder:
    @settings(max_examples=400, deadline=None)
    @given(_families(), _BOX_POINTS, _BOX_POINTS)
    def test_exactly_the_separating_leaves_in_crossing_order(self, pairs, p, q):
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
            if a.geodesic.same_unoriented(b.geodesic):
                continue  # a duplicated leaf separates nothing from its copy
            # a point of b lies across a from p: a separates p from b
            foot = project_to_geodesic(b.geodesic, p)
            assert (_oracle_side(a.geodesic, foot) > 0) != (_oracle_side(a.geodesic, p) > 0)


class TestEarthquakeMap:
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


class TestDiscretizeBand:
    def test_single_chunk(self):
        lam = discretize_band(UniformBand(), 1)
        assert len(lam.leaves) == 1
        assert lam.leaves[0].weight == 1.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 200))
    def test_mass_preserved(self, n):
        lam = discretize_band(UniformBand(), n)
        assert abs(lam.total_weight() - 1.0) < 1e-14

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
