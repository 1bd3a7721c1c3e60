"""Test-side triangle helpers the library itself does not need.

A chain holds which sides its triangles share as data, so the library
never searches for them.  The tests that pin the shear of two triangles
given only as triangles find the shared side pair here, by the same
absolute gap `shear_on_sides` guards with.
"""

from eqlab.triangle import IdealTriangle, NotAdjacentError, _same_edge, shear_on_sides


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
