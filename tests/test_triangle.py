import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from eqlab.hyp import (
    Geodesic,
    MoebiusTransform,
    apply,
    hyp_distance,
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
    holonomy,
    pants_boundary_lengths,
    pants_boundary_words,
    pants_triangulation,
    reduce_word,
    shear_between_adjacent,
    shears_from_cuffs,
)


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
            side = next(k for k in range(3) if tri.side(k).same_unoriented(Geodesic.from_values(0, "inf")))
            p = edge_tangency_point(tri, side)
            assert abs(p.x) < 1e-12
            assert abs(p.y - abs(x)) < 1e-12

    def test_equivariance(self):
        rng = random.Random(2)
        for _ in range(20):
            m = random_moebius(rng)
            for k in range(3):
                direct = edge_tangency_point(STD.transformed(m), k)
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
            moved = STD.transformed(m)
            t2 = develop_step(moved, 0, s)
            assert abs(shear_between_adjacent(moved, t2) - s) < 1e-12

    def test_shear_range_guard(self):
        with pytest.raises(ShearRangeError):
            develop_step(STD, 0, 31.0)


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

    def test_developing_equivariance(self):
        rng = random.Random(13)
        tri = pants_triangulation(0.5, 0.8, -0.9)
        words = [(0,), (0, 1), (0, 1, 2)]
        base = Developer(tri)
        for _ in range(5):
            m = random_moebius(rng)
            moved = Developer(tri, root_placement=IdealTriangle.standard().transformed(m))
            for w in words:
                got = moved.place(w).triangle
                want = base.place(w).triangle.transformed(m)
                for a, b in zip(got.vertices, want.vertices):
                    assert a.gap(b) < 1e-10


class TestHolonomy:
    def test_trivial_loop(self):
        tri = pants_triangulation(1.0, 0.5, -0.5)
        assert holonomy(tri, ()).is_identity(1e-14)

    def test_inverse_loop(self):
        tri = pants_triangulation(1.0, 0.5, -0.5)
        h = holonomy(tri, (0, 1))
        h_inv = holonomy(tri, (1, 0))
        assert (h @ h_inv).is_identity(1e-12)

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


class TestPantsFormulas:
    def test_unit_shears(self):
        assert pants_boundary_lengths(1, 1, 1) == (2, 2, 2)

    def test_cusp_case(self):
        assert pants_boundary_lengths(1, -1, 5) == (0, 4, 6)

    def test_thrice_cusped(self):
        assert pants_boundary_lengths(0, 0, 0) == (0, 0, 0)

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
        assert (h1 @ h2 @ h3).is_identity(1e-12)

    def test_lengths_via_translation_length(self):
        shears = (0.8, 0.6, 1.4)
        tri = pants_triangulation(*shears)
        lengths = pants_boundary_lengths(*shears)
        for k, w in enumerate(pants_boundary_words()):
            assert abs(translation_length(holonomy(tri, w)) - lengths[k]) < 1e-9
