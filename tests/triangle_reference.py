"""Test-side triangle helpers the library itself does not need.

A chain holds which sides its triangles share as data, so the library
never searches for them.  The tests that pin the shear of two triangles
given only as triangles find the shared side pair here, by the same
absolute gap `shear_on_sides` guards with.

The library's holonomy is `triangle.pants_holonomy`, the two-letter
loops of one pants.  `holonomy` here walks any crossing word of any
triangulation with the same edge-turn factors, so the tests check
`pants_holonomy` against it bit for bit, and read group laws, cusps and
float range off longer words.

`transformed` moves a triangle by a transform, vertex by vertex: the
library frames a chain through `conjugacy._framed`, which moves each
shared vertex once, and the tests move single triangles with it.
"""

import math

from eqlab.hyp import MoebiusTransform, _mul, apply
from eqlab.triangle import (
    _ROTATION_POWERS,
    IdealTriangle,
    InvalidWordError,
    NotAdjacentError,
    ShearRangeError,
    ShearTriangulation,
    _edge_turn,
    _same_edge,
    reduce_word,
    shear_on_sides,
)


def transformed(tri: IdealTriangle, m: MoebiusTransform) -> IdealTriangle:
    """The triangle whose vertices are tri's, each moved by m."""
    return IdealTriangle(tuple(apply(m, v) for v in tri.vertices))


def shared_sides(t1: IdealTriangle, t2: IdealTriangle) -> tuple[int, int]:
    """The first side pair (i, j) whose ends agree, in either order, within _ADJACENT_TOL."""
    for i in range(3):
        for j in range(3):
            if _same_edge(t1, i, t2, j):
                return i, j
    raise NotAdjacentError("triangles do not share an edge")


def shear_between_adjacent(t1: IdealTriangle, t2: IdealTriangle) -> float:
    """Signed distance between the two distinguished points on the shared edge.

    Measured in the direction t1 traverses the edge.  The triangles must
    lie on opposite sides of a common edge.
    """
    i, j = shared_sides(t1, t2)
    return shear_on_sides(t1, i, t2, j)


def holonomy(s: ShearTriangulation, loop) -> MoebiusTransform:
    """Transform carrying the root triangle, placed as (-1, 0, inf), to its
    placement after the loop.

    This is R^k (prod_i E(s_i) T_i) R^-k with k = 1 - (first exit side)
    mod 3.  E(s) crosses side 1 = (0, inf) of the standard triangle into
    (0, e^s, inf), entering by its side 2, and T_i = R^t turns toward the
    next exit side, taken cyclically: t = 0, 1 or 2 when that is the
    entry side plus 2, plus 1 or itself.  R^-k is folded into the last
    turn, which is then toward side 1.  The rows of R^k have one sign
    each and every factor E T is nonnegative or has one nonzero entry per
    column, so no entry of the product cancels; its determinant is one by
    construction, so only its sign is fixed.  Past SHEAR_LIMIT, or where a
    long word's entries leave float range, it raises ShearRangeError.
    """
    tri = s.triangles[0]
    crossings = []
    for edge_id in reduce_word(loop):
        (_, exit_side), (tri, entry_side) = s.cross(tri, edge_id)
        crossings.append((exit_side, entry_side, s.edge_by_id(edge_id).shear))
    if tri != s.triangles[0]:
        raise InvalidWordError("crossing word does not return to the root triangle")
    m = _ROTATION_POWERS[(1 - crossings[0][0]) % 3 if crossings else 0]
    next_exits = [exit_side for exit_side, _, _ in crossings[1:]] + [1]
    for (_, entry_side, shear), next_exit in zip(crossings, next_exits):
        m = _mul(m, _edge_turn(shear, (entry_side + 2 - next_exit) % 3))
    if not all(map(math.isfinite, m)):
        raise ShearRangeError(f"holonomy of {tuple(loop)} has entries beyond float range")
    return MoebiusTransform.unimodular(*m)
