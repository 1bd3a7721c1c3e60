import itertools
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eqlab.hyp import (
    Geodesic,
    MoebiusTransform,
    apply,
    translation_length,
)
from eqlab.triangle import (
    Developer,
    Edge,
    IdealTriangle,
    InvalidWordError,
    NotAdjacentError,
    ShearRangeError,
    ShearTriangulation,
    develop_step,
    edge_tangency_point,
    pants_boundary_lengths,
    pants_boundary_words,
    pants_holonomy,
    pants_triangulation,
    reduce_word,
    shear_on_sides,
    shears_from_cuffs,
)
from hyp_reference import hyp_distance, is_identity, moebius_from_triples, same_unoriented
from surface_reference import decimal_holonomy
from triangle_reference import holonomy, shear_between_adjacent, shared_sides, transformed


def diag(t):
    e = math.exp(t / 2.0)
    return MoebiusTransform(e, 0.0, 0.0, 1.0 / e)


def random_moebius(rng):
    th = rng.uniform(0, math.pi)
    rot = MoebiusTransform(math.cos(th), -math.sin(th), math.sin(th), math.cos(th))
    return MoebiusTransform(1.0, rng.uniform(-2, 2), 0.0, 1.0) @ diag(rng.uniform(-2, 2)) @ rot


STD = IdealTriangle.standard()


class TestIdealTriangle:
    def test_clockwise_rejected(self):
        with pytest.raises(ValueError):
            IdealTriangle.from_values(0, "inf", 1)

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError):
            IdealTriangle.from_values(0, 0, "inf")

    def test_sides_oriented_by_traversal(self):
        g = STD.side(1)
        assert g.start.value == 0.0 and g.end.is_infinity


class TestTangency:
    def test_standard_side(self):
        # foot of the perpendicular from -1 to the imaginary axis is i
        p = edge_tangency_point(STD, 1)
        assert abs(p.x) < 1e-14 and abs(p.y - 1.0) < 1e-14

    def test_scaled_vertex(self):
        # triangle (0, inf, x): foot from x onto the axis is at height |x|
        for x in (2.5, 0.3, -1.7):
            tri = (
                IdealTriangle.from_values(x, 0, "inf")
                if x < 0
                else IdealTriangle.from_values(0, x, "inf")
            )
            axis = Geodesic.from_values(0, "inf")
            side = next(k for k in range(3) if same_unoriented(tri.side(k), axis))
            p = edge_tangency_point(tri, side)
            assert abs(p.x) < 1e-12
            assert abs(p.y - abs(x)) < 1e-12

    def test_equivariance(self):
        rng = random.Random(2)
        for _ in range(20):
            m = random_moebius(rng)
            for k in range(3):
                direct = edge_tangency_point(transformed(STD, m), k)
                moved = apply(m, edge_tangency_point(STD, k))
                assert hyp_distance(direct, moved) < 1e-10


class TestShearBetweenAdjacent:
    def test_symmetric_configuration(self):
        t2 = IdealTriangle.from_values("inf", 0, 1)
        assert abs(shear_between_adjacent(STD, t2)) < 1e-14

    def test_far_vertex_exponential(self):
        for s in (0.5, -1.2, 2.0):
            t2 = IdealTriangle.from_values("inf", 0, math.exp(s))
            assert abs(shear_between_adjacent(STD, t2) - s) < 1e-12

    def test_order_independence(self):
        rng = random.Random(4)
        for _ in range(20):
            s = rng.uniform(-3, 3)
            t2 = develop_step(STD, rng.randrange(3), s)
            assert abs(shear_between_adjacent(STD, t2) - shear_between_adjacent(t2, STD)) < 1e-12

    def test_not_adjacent(self):
        far = IdealTriangle.from_values(5, 6, 7)
        with pytest.raises(NotAdjacentError):
            shear_between_adjacent(STD, far)

    def test_same_side_rejected(self):
        # shares the edge geodesic but sits on the same side
        t2 = IdealTriangle.from_values(-2, 0, "inf")
        with pytest.raises(NotAdjacentError):
            shear_between_adjacent(STD, t2)

    def test_known_sides_must_still_meet(self):
        # STD's side 1 is (0, inf), which is t2's side 0 reversed
        t2 = IdealTriangle.from_values("inf", 0, 2)
        assert shared_sides(STD, t2) == (1, 0)
        assert abs(shear_on_sides(STD, 1, t2, 0) - math.log(2.0)) < 1e-14
        with pytest.raises(NotAdjacentError):
            shear_on_sides(STD, 1, t2, 1)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-4.0, 4.0), st.lists(st.floats(-6.0, 1.0), min_size=2, max_size=2),
           st.booleans(), st.integers(0, 2), st.integers(0, 2), st.floats(-3.0, 3.0))
    def test_log_cross_ratio_of_the_four_vertices(self, x, log_gaps, at_infinity, turn,
                                                  side, shear):
        # a triangle x < y < z (z possibly inf) with vertices as close as
        # 1e-6, crossed at a random shear: both readings are the exact
        # cross-ratio of the float vertices, up to rounding that grows as
        # 1 / (smallest gap)
        values = [x, x + 10.0 ** log_gaps[0], x + 10.0 ** log_gaps[0] + 10.0 ** log_gaps[1]]
        if at_infinity:
            values[2] = "inf"
        t1 = IdealTriangle.from_values(*values[turn:], *values[:turn])
        t2 = develop_step(t1, side, shear)
        s, e, a = (t1.vertices[(side + n) % 3] for n in range(3))
        b = t2.vertices[2]

        def cross(u, v):
            return Fraction(u.p) * Fraction(v.q) - Fraction(u.q) * Fraction(v.p)

        exact = math.log(abs(cross(s, b) * cross(e, a) / (cross(e, b) * cross(s, a))))
        points = (s, e, a, b)
        smallest = min(u.gap(v) for k, u in enumerate(points) for v in points[k + 1:])
        assert shared_sides(t1, t2) == (side, 0)
        for measured in (shear_on_sides(t1, side, t2, 0), shear_between_adjacent(t1, t2)):
            assert abs(measured - exact) <= 4e-15 / smallest

    @pytest.mark.parametrize("far", [
        # t2's side (inf, -1e-10) is STD's side (0, inf) within 1e-9, and its
        # third vertex is 0, STD's edge start: u(b) = 0
        IdealTriangle.from_values("inf", -1e-10, 0),
        # t2's side (0, 1e10) is (0, inf) within 1e-9, its third vertex the
        # edge end inf: w(b) = 0, where the shear would divide by zero
        IdealTriangle.from_values(0, 1e10, "inf"),
    ])
    def test_vertex_on_an_edge_end_is_not_adjacent(self, far):
        assert shared_sides(STD, far) == (1, 0)
        with pytest.raises(NotAdjacentError):
            shear_between_adjacent(STD, far)
        with pytest.raises(NotAdjacentError):
            shear_on_sides(STD, 1, far, 0)


class TestDevelopStep:
    def test_zero_shear_reflection(self):
        t2 = develop_step(STD, 1, 0.0)
        assert sorted(v.value for v in t2.vertices) == [0.0, 1.0, math.inf]

    def test_log_two(self):
        t2 = develop_step(STD, 1, math.log(2.0))
        values = sorted(v.value for v in t2.vertices)
        assert abs(values[1] - 2.0) < 1e-14

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-3, 3), st.integers(0, 2))
    def test_roundtrip(self, s, side):
        t2 = develop_step(STD, side, s)
        assert abs(shear_between_adjacent(STD, t2) - s) < 1e-12

    def test_roundtrip_after_conjugation(self):
        rng = random.Random(8)
        for _ in range(20):
            m = random_moebius(rng)
            s = rng.uniform(-3, 3)
            moved = transformed(STD, m)
            t2 = develop_step(moved, 0, s)
            assert abs(shear_between_adjacent(moved, t2) - s) < 1e-12

    def test_shear_range_guard(self):
        with pytest.raises(ShearRangeError):
            develop_step(STD, 0, 31.0)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-4.0, 4.0), st.lists(st.floats(-6.0, 1.0), min_size=2, max_size=2),
           st.booleans(), st.integers(0, 2), st.integers(0, 2), st.floats(-3.0, 3.0))
    def test_matches_a_fifty_digit_step(self, x, log_gaps, at_infinity, turn, side, shear):
        # triangles drawn as in test_log_cross_ratio_of_the_four_vertices; the
        # far vertex against the same step taken at 50 digits from the same
        # float vertices, within 6 u / (smallest gap of the four vertices),
        # u = 2^-53.  The worst ratio over 150,000 draws is 3.2
        values = [x, x + 10.0 ** log_gaps[0], x + 10.0 ** log_gaps[0] + 10.0 ** log_gaps[1]]
        if at_infinity:
            values[2] = "inf"
        t1 = IdealTriangle.from_values(*values[turn:], *values[:turn])
        far = develop_step(t1, side, shear).vertices[2]
        s, e, w = (t1.vertices[(side + n) % 3] for n in range(3))
        with localcontext() as ctx:
            ctx.prec = 50
            sp, sq, ep, eq, wp, wq = map(Decimal, (s.p, s.q, e.p, e.q, w.p, w.q))
            half = Decimal(shear) / 2
            u, v = -half.exp() * (sq * wp - sp * wq), (-half).exp() * (eq * wp - ep * wq)
            p, q = sp * v - ep * u, sq * v - eq * u
            top = max(abs(p), abs(q))
            want = (p / top, q / top)
            points = [(Decimal(z.p), Decimal(z.q)) for z in (s, e, w)] + [want]

            def gap(a, b):
                return float(abs(a[0] * b[1] - a[1] * b[0]))

            smallest = min(gap(a, b) for k, a in enumerate(points) for b in points[k + 1:])
            assert gap((Decimal(far.p), Decimal(far.q)), want) <= 6 * 2.0 ** -53 / smallest


class TestTriangulationStructure:
    def test_unglued_side_rejected(self):
        with pytest.raises(ValueError):
            ShearTriangulation(triangles=(0, 1), edges=(Edge(0, ((0, 0), (1, 0)), 0.0),))

    def test_double_gluing_rejected(self):
        with pytest.raises(ValueError):
            ShearTriangulation(
                triangles=(0,),
                edges=(
                    Edge(0, ((0, 0), (0, 0)), 0.0),
                    Edge(1, ((0, 1), (0, 2)), 0.0),
                ),
            )

    # a repeated label built: a letter took the first edge of its id, so
    # the other could never be crossed
    @pytest.mark.parametrize("triangles, ids, message", [
        ((0, 1, 1), (0, 1, 2), "triangle id 1 is listed more than once"),
        ((0, 1), (0, 0, 2), "edge id 0 is listed more than once"),
    ])
    def test_repeated_label_rejected(self, triangles, ids, message):
        sides = (((0, 0), (1, 2)), ((0, 1), (1, 1)), ((0, 2), (1, 0)))
        with pytest.raises(ValueError, match=message):
            ShearTriangulation(triangles, tuple(Edge(k, pair, 0.5) for k, pair in zip(ids, sides)))

    def test_pants_structure_valid(self):
        tri = pants_triangulation(1.0, 2.0, 3.0)
        assert len(tri.edges) == 3

    def test_unknown_edge(self):
        tri = pants_triangulation(1.0, 1.0, 1.0)
        with pytest.raises(InvalidWordError):
            holonomy(tri, (0, 7))


class TestDevelop:
    def test_empty_word_is_root(self):
        tri = pants_triangulation(0.3, 0.6, -0.2)
        placed = Developer(tri).place(())
        assert placed.tri == 0
        assert placed.triangle.vertices == IdealTriangle.standard().vertices

    def test_one_letter_matches_develop_step(self):
        tri = pants_triangulation(0.3, 0.6, -0.2)
        got = Developer(tri).place((0,)).triangle
        stepped = develop_step(IdealTriangle.standard(), 0, 0.3)
        assert set(round(v.value, 10) for v in got.vertices) == set(
            round(v.value, 10) for v in stepped.vertices
        )

    def test_path_independence_against_manual_walk(self):
        # the cached developer must agree with an uncached manual walk
        tri = pants_triangulation(0.9, -0.4, 1.3)
        word = (0, 1, 2, 1)
        dev = Developer(tri)
        placed = dev.place(word)

        manual = IdealTriangle.standard()
        current = 0
        for edge_id in word:
            (tri_out, exit_side), (tri_in, entry_side) = tri.cross(current, edge_id)
            stepped = develop_step(manual, exit_side, tri.edge_by_id(edge_id).shear)
            verts = [None, None, None]
            for off, vert in enumerate(stepped.vertices):
                verts[(entry_side + off) % 3] = vert
            manual = IdealTriangle(tuple(verts))
            current = tri_in
        assert placed.tri == current
        for a, b in zip(placed.triangle.vertices, manual.vertices):
            assert a.gap(b) < 1e-10

    def test_word_reduction(self):
        assert reduce_word((0, 1, 1, 0, 2)) == (2,)
        tri = pants_triangulation(0.9, -0.4, 1.3)
        dev = Developer(tri)
        direct = dev.place((0, 1))
        padded = dev.place((0, 2, 2, 1))
        for a, b in zip(direct.triangle.vertices, padded.triangle.vertices):
            assert a.gap(b) < 1e-10

    def test_collapsed_placement_names_word_and_crossing(self):
        # the placements close in on one boundary point; at the 28th crossing
        # their vertices are one float apart
        dev = Developer(pants_triangulation(0.5, 0.8, -0.3))
        dev.place((0, 1, 2) * 9)
        with pytest.raises(ValueError) as info:
            dev.place((0, 1, 2) * 10)
        assert str(info.value) == (
            "the word (0, 1, 2, 0, 1, 2, 0, 1, ...) of 30 crossings collapses in floats at "
            "crossing 28 (edge 0): ideal triangle needs three distinct vertices")
        with pytest.raises(ShearRangeError):
            Developer(pants_triangulation(31.0, 0.8, -0.3)).place((0,))

    def test_developing_equivariance(self):
        # a step from a moved placement is the moved step, so developing
        # from a moved root moves every placement by the same isometry
        rng = random.Random(13)
        tri = pants_triangulation(0.5, 0.8, -0.9)
        dev = Developer(tri)
        placements = [dev.place(w).triangle for w in [(), (0,), (0, 1), (0, 1, 2)]]
        for _ in range(5):
            m = random_moebius(rng)
            for placed in placements:
                for edge in tri.edges:
                    k, shear = edge.id, edge.shear
                    got = develop_step(transformed(placed, m), k, shear)
                    want = transformed(develop_step(placed, k, shear), m)
                    for a, b in zip(got.vertices, want.vertices):
                        assert a.gap(b) < 1e-10


class TestHolonomy:
    def test_trivial_loop(self):
        tri = pants_triangulation(1.0, 0.5, -0.5)
        assert is_identity(holonomy(tri, ()), 1e-14)

    def test_inverse_loop(self):
        tri = pants_triangulation(1.0, 0.5, -0.5)
        h = holonomy(tri, (0, 1))
        h_inv = holonomy(tri, (1, 0))
        assert is_identity(h @ h_inv, 1e-12)

    def test_homomorphism(self):
        rng = random.Random(21)
        tri = pants_triangulation(0.7, -0.3, 1.1)
        loops = [(0, 1), (1, 2), (2, 0), (0, 2), (1, 0)]
        for _ in range(20):
            w1 = rng.choice(loops)
            w2 = rng.choice(loops)
            lhs = holonomy(tri, w1 + w2)
            rhs = holonomy(tri, w1) @ holonomy(tri, w2)
            assert lhs.projective_distance(rhs) < 1e-10

    def test_open_word_rejected(self):
        tri = pants_triangulation(1.0, 0.5, -0.5)
        with pytest.raises(InvalidWordError):
            holonomy(tri, (0,))

    @settings(max_examples=150, deadline=None)
    @given(
        st.tuples(*(st.floats(-3.0, 3.0) for _ in range(3))),
        st.integers(1, 3).flatmap(lambda half: st.lists(
            st.integers(0, 2), min_size=2 * half, max_size=2 * half)),
    )
    def test_matches_developing(self, shears, letters):
        # the edge/turn product against the placement of the developed
        # root triangle, compared as projective maps (entries over the
        # largest); the developed reference is good to 6e-15 at two
        # crossings but only to 1.7e-9 at six crossings of |s| near 3
        tri = pants_triangulation(*shears)
        word = reduce_word(letters)  # even: every pants crossing switches triangle
        want = moebius_from_triples(IdealTriangle.standard().vertices,
                                    Developer(tri).place(word).triangle.vertices)
        got = holonomy(tri, word)

        def scaled(m):
            top = max(m.entries(), key=abs)
            return [x / top for x in m.entries()]

        assert max(abs(x - y) for x, y in zip(scaled(got), scaled(want))) < 4e-9

    def test_shear_limit(self):
        tri = pants_triangulation(31.0, -2.0, 1.0)
        with pytest.raises(ShearRangeError, match="exceeds 30"):
            holonomy(tri, (0, 1))

    def test_overflowing_word_is_typed(self):
        # (0, 1) at shears 30 has trace 2 cosh 30, so its k-th power has
        # entries near e^(30 k), past the float maximum from k = 24
        tri = pants_triangulation(30.0, 30.0, 30.0)
        assert holonomy(tri, (0, 1) * 23).trace > 1e299
        with pytest.raises(ShearRangeError, match="beyond float range"):
            holonomy(tri, (0, 1) * 24)

    def test_entries_match_decimal_reference(self):
        # the edge/turn product at 50 digits, over 3000 seeded words of 2-12
        # crossings; the product is formed sign-only, so (-11, -9, 27),
        # whose determinant once rounded past 1e-6, is one of the words
        rng = random.Random(19)
        cases = [((-11.0, -9.0, 27.0), (0, 2))]
        for _ in range(3000):
            word = [rng.randrange(3)]
            for _ in range(rng.randrange(1, 7) * 2 - 1):
                word.append((word[-1] + rng.randrange(1, 3)) % 3)
            cases.append((tuple(rng.uniform(-6.0, 6.0) for _ in range(3)), tuple(word)))
        worst = 0.0
        for shears, word in cases:
            tri = pants_triangulation(*shears)
            want = decimal_holonomy(tri, word)
            top = max(abs(x) for x in want)
            got = [Decimal(x) for x in holonomy(tri, word).entries()]
            worst = max(worst, min(max(abs(x - sign * y) for x, y in zip(got, want)) / top
                                   for sign in (1, -1)))
        assert worst <= 1e-14


class TestPantsFormulas:
    def test_unit_shears(self):
        assert pants_boundary_lengths(1, 1, 1) == (2, 2, 2)

    def test_cusp_case(self):
        assert pants_boundary_lengths(1, -1, 5) == (0, 4, 6)

    def test_thrice_cusped(self):
        assert pants_boundary_lengths(0, 0, 0) == (0, 0, 0)

    # |s1 + s2| overflowed to inf, which only the JSON emitter noticed
    @pytest.mark.parametrize("shears, named", [
        ((1e308, 1e308, 1.0), r"\|s1 \+ s2\| = \|1e\+308 \+ 1e\+308\|"),
        ((1.0, -1e308, -1e308), r"\|s2 \+ s3\| = \|-1e\+308 \+ -1e\+308\|"),
        ((1e308, 1.0, 1e308), r"\|s3 \+ s1\| = \|1e\+308 \+ 1e\+308\|"),
    ])
    def test_length_beyond_float_range_is_named(self, shears, named):
        with pytest.raises(ShearRangeError, match=f"boundary length {named} is not a finite"):
            pants_boundary_lengths(*shears)

    def test_inverse_example(self):
        assert shears_from_cuffs(2, 2, 2) == (1, 1, 1)

    def test_zero_lengths(self):
        for signs in ((1, 1, 1), (1, -1, 1), (-1, -1, -1)):
            assert shears_from_cuffs(0, 0, 0, signs) == (0, 0, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.1, 5), st.floats(0.1, 5), st.floats(0.1, 5),
        st.tuples(*(st.sampled_from((-1, 1)) for _ in range(3))),
    )
    def test_roundtrip(self, l1, l2, l3, signs):
        got = pants_boundary_lengths(*shears_from_cuffs(l1, l2, l3, signs))
        for a, b in zip(got, (l1, l2, l3)):
            assert abs(a - b) < 1e-12


class TestPantsHolonomy:
    def test_trace_identity_random_shears(self):
        rng = random.Random(42)
        words = pants_boundary_words()
        for _ in range(50):
            shears = tuple(rng.uniform(-2, 2) for _ in range(3))
            tri = pants_triangulation(*shears)
            lengths = pants_boundary_lengths(*shears)
            for k, w in enumerate(words):
                tr = abs(holonomy(tri, w).trace)
                assert abs(tr - 2.0 * math.cosh(lengths[k] / 2.0)) < 1e-9

    def test_cusp_criterion(self):
        tri = pants_triangulation(1.0, -1.0, 0.5)
        h = holonomy(tri, pants_boundary_words()[0])  # boundary of length |s1+s2| = 0
        assert abs(abs(h.trace) - 2.0) < 1e-9

    def test_boundary_product_trivial(self):
        tri = pants_triangulation(0.9, -0.4, 1.3)
        h1, h2, h3 = (holonomy(tri, w) for w in pants_boundary_words())
        assert is_identity(h1 @ h2 @ h3, 1e-12)

    @pytest.mark.parametrize("length", [11.0, 15.0, 20.0, 25.0, 30.0])
    def test_long_cuff_corner_words(self, length):
        # the corner words at slots 0 and 1 of the (L, L, L) pants are
        # inverse to each other and have trace 2 cosh(L/2), to 1e-12
        tri = pants_triangulation(*shears_from_cuffs(length, length, length))
        want = 2.0 * math.cosh(length / 2.0)
        for word in pants_boundary_words()[:2]:
            h = holonomy(tri, word)
            back = holonomy(tri, tuple(reversed(word))).inverse()
            size = max(map(abs, h.entries()))
            assert h.projective_distance(back) <= 1e-12 * size
            assert abs(abs(h.trace) - want) <= 1e-12 * want

    def test_lengths_via_translation_length(self):
        shears = (0.8, 0.6, 1.4)
        tri = pants_triangulation(*shears)
        lengths = pants_boundary_lengths(*shears)
        for k, w in enumerate(pants_boundary_words()):
            assert abs(translation_length(holonomy(tri, w)) - lengths[k]) < 1e-9


# the six two-letter words (i, j), i != j, over the three pants edges
PANTS_WORDS = list(itertools.permutations(range(3), 2))


def outcome(f):
    """The bits of a transform's entries, or the type and message of its refusal."""
    try:
        return [x.hex() for x in f().entries()]
    except ValueError as exc:
        return type(exc), str(exc)


class TestPantsHolonomyClosedForm:
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.floats(-30.0, 30.0)] * 3), st.sampled_from(PANTS_WORDS))
    def test_matches_the_walk_bit_for_bit(self, shears, word):
        # the same two edge turns, multiplied in the same order, as the
        # walk through the triangulation
        got = pants_holonomy(shears, word).entries()
        want = holonomy(pants_triangulation(*shears), word).entries()
        assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("shears", [(31.0, -2.0, 1.0), (0.5, -30.5, 1.0),
                                        (1.0, 2.0, math.nan), (-math.inf, 0.0, 0.0)])
    def test_refuses_as_the_walk_does(self, shears):
        # a shear past SHEAR_LIMIT, or not a number, is refused with the
        # walk's ShearRangeError and message; words that skip it agree
        refused = 0
        for word in PANTS_WORDS:
            got = outcome(lambda: pants_holonomy(shears, word))
            assert got == outcome(lambda: holonomy(pants_triangulation(*shears), word))
            refused += got[0] is ShearRangeError
        assert refused == 4

    @pytest.mark.parametrize("word", [(0, 0), (2, 2), (0, 3), (-1, 1)])
    def test_other_words_rejected(self, word):
        with pytest.raises(InvalidWordError, match="not a two-letter pants word"):
            pants_holonomy((0.5, 1.0, -0.5), word)
