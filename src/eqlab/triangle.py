"""Ideal triangles, shear coordinates, and developing of glued triangulations.

Conventions used throughout:

* Triangle vertices are stored counterclockwise; side k joins vertices k
  and k+1 (mod 3) and is oriented that way, so each side inherits the
  direction of the boundary traversal.
* The distinguished point of a side is the foot of the perpendicular
  dropped from the opposite ideal vertex (equivalently, where the
  inscribed circle touches the side).
* The shear between two triangles glued along an edge is the signed
  distance between their two distinguished points, measured along the
  edge in the direction the first triangle traverses it.  In the
  normalized picture this means: crossing from (-1, 0, inf) over the
  edge (0, inf) with shear s puts the far vertex at e^s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hyp import (
    ALG_TOL,
    BoundaryPoint,
    Geodesic,
    HPoint,
    MoebiusTransform,
    apply,
    moebius_from_triples,
    orientation,
)

SHEAR_LIMIT = 30.0

_STANDARD = (
    BoundaryPoint.from_value(-1.0),
    BoundaryPoint.from_value(0.0),
    BoundaryPoint.infinity(),
)
_NORMAL_TARGET = (
    BoundaryPoint.from_value(0.0),
    BoundaryPoint.infinity(),
    BoundaryPoint.from_value(-1.0),
)


class NotAdjacentError(ValueError):
    """The two triangles do not share an edge from opposite sides."""


class InvalidWordError(ValueError):
    """A crossing word does not fit the incidence structure."""


class ShearRangeError(ValueError):
    """Shear magnitude too large for stable tangency arithmetic."""


@dataclass(frozen=True)
class IdealTriangle:
    vertices: tuple[BoundaryPoint, BoundaryPoint, BoundaryPoint]

    def __post_init__(self):
        v = self.vertices
        for i in range(3):
            if v[i].gap(v[(i + 1) % 3]) <= ALG_TOL:
                raise ValueError("ideal triangle needs three distinct vertices")
        if orientation(*v) <= 0.0:
            raise ValueError("vertices must be ordered counterclockwise")

    @classmethod
    def from_values(cls, a, b, c) -> "IdealTriangle":
        return cls(tuple(BoundaryPoint.from_value(x) for x in (a, b, c)))

    @classmethod
    def standard(cls) -> "IdealTriangle":
        """The normalized triangle (-1, 0, inf)."""
        return cls(_STANDARD)

    def side(self, k: int) -> Geodesic:
        return Geodesic(self.vertices[k % 3], self.vertices[(k + 1) % 3])

    def opposite_vertex(self, k: int) -> BoundaryPoint:
        return self.vertices[(k + 2) % 3]

    def transformed(self, m: MoebiusTransform) -> "IdealTriangle":
        return IdealTriangle(tuple(apply(m, v) for v in self.vertices))

    def normalizer(self, side: int) -> MoebiusTransform:
        """Transform sending (side start, side end, opposite vertex) to (0, inf, -1).

        Normalizes the triangle so that `side` is the imaginary axis
        traversed upward and the triangle sits on its left.
        """
        k = side % 3
        triple = (self.vertices[k], self.vertices[(k + 1) % 3], self.vertices[(k + 2) % 3])
        return moebius_from_triples(triple, _NORMAL_TARGET)


def edge_tangency_point(t: IdealTriangle, side: int) -> HPoint:
    """Foot of the perpendicular from the opposite ideal vertex to the side."""
    m = t.side(side).to_imaginary_axis()
    x = apply(m, t.opposite_vertex(side)).value
    return apply(m.inverse(), HPoint(0.0, abs(x)))


def shear_between_adjacent(t1: IdealTriangle, t2: IdealTriangle, tol: float = 1e-9) -> float:
    """Signed distance between the two distinguished points on the shared edge.

    Measured in the direction t1 traverses the edge.  The triangles must
    lie on opposite sides of a common edge.
    """
    for i in range(3):
        for j in range(3):
            if t1.side(i).same_unoriented(t2.side(j), tol):
                return _shear_on_shared_side(t1, i, t2, j)
    raise NotAdjacentError("triangles do not share an edge")


def _shear_on_shared_side(t1: IdealTriangle, i: int, t2: IdealTriangle, j: int) -> float:
    m = t1.side(i).to_imaginary_axis()
    x1 = apply(m, t1.opposite_vertex(i)).value
    x2 = apply(m, t2.opposite_vertex(j)).value
    if x1 * x2 >= 0.0:
        raise NotAdjacentError("triangles lie on the same side of the shared edge")
    return math.log(abs(x2)) - math.log(abs(x1))


def develop_step(placed: IdealTriangle, side: int, shear: float) -> IdealTriangle:
    """The unique triangle across `side` at the given shear.

    Across (0, inf) from (-1, 0, inf) with shear s the far vertex lands
    at e^s; the result is returned counterclockwise, shared edge first in
    reversed order, then the new vertex.
    """
    if abs(shear) > SHEAR_LIMIT:
        raise ShearRangeError(f"|shear| = {abs(shear)} exceeds {SHEAR_LIMIT}")
    n = placed.normalizer(side)
    far = apply(n.inverse(), BoundaryPoint.from_value(math.exp(shear)))
    k = side % 3
    u, v = placed.vertices[k], placed.vertices[(k + 1) % 3]
    return IdealTriangle((v, u, far))


@dataclass(frozen=True)
class Edge:
    """Gluing of two triangle sides carrying one shear."""

    id: int
    sides: tuple[tuple[int, int], tuple[int, int]]
    shear: float


@dataclass(frozen=True)
class ShearTriangulation:
    """Combinatorial triangles glued along edges, one shear per edge."""

    triangles: tuple[int, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        seen = set()
        for e in self.edges:
            for tri, side in e.sides:
                if tri not in self.triangles:
                    raise ValueError(f"edge {e.id} references unknown triangle {tri}")
                if side not in (0, 1, 2):
                    raise ValueError(f"edge {e.id} has invalid side index {side}")
                key = (tri, side)
                if key in seen:
                    raise ValueError(f"triangle side {key} glued more than once")
                seen.add(key)
        for tri in self.triangles:
            for side in range(3):
                if (tri, side) not in seen:
                    raise ValueError(f"triangle side {(tri, side)} is unglued")
        if not self._connected():
            raise ValueError("triangulation is not connected")

    def _connected(self) -> bool:
        if not self.triangles:
            return False
        reached = {self.triangles[0]}
        frontier = [self.triangles[0]]
        while frontier:
            tri = frontier.pop()
            for e in self.edges:
                (ta, _), (tb, _) = e.sides
                for other in ((tb,) if ta == tri else ()) + ((ta,) if tb == tri else ()):
                    if other not in reached:
                        reached.add(other)
                        frontier.append(other)
        return reached == set(self.triangles)

    def edge_by_id(self, edge_id: int) -> Edge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise InvalidWordError(f"no edge with id {edge_id}")

    def cross(self, tri: int, edge_id: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """Exit and entry incidences for crossing `edge_id` out of `tri`."""
        e = self.edge_by_id(edge_id)
        (ta, sa), (tb, sb) = e.sides
        if ta == tri and tb == tri:
            raise InvalidWordError(
                f"edge {edge_id} is self-glued on triangle {tri}: crossing is ambiguous"
            )
        if ta == tri:
            return (ta, sa), (tb, sb)
        if tb == tri:
            return (tb, sb), (ta, sa)
        raise InvalidWordError(f"edge {edge_id} is not incident to triangle {tri}")


def reduce_word(word) -> tuple[int, ...]:
    """Cancel immediately repeated edge crossings."""
    out: list[int] = []
    for letter in word:
        if out and out[-1] == letter:
            out.pop()
        else:
            out.append(int(letter))
    return tuple(out)


@dataclass(frozen=True)
class PlacedTriangle:
    tri: int
    triangle: IdealTriangle


class Developer:
    """Read-through cache of placements keyed by reduced crossing word."""

    def __init__(self, triangulation: ShearTriangulation, root: int | None = None,
                 root_placement: IdealTriangle | None = None):
        self.triangulation = triangulation
        self.root = triangulation.triangles[0] if root is None else root
        if root_placement is None:
            root_placement = IdealTriangle.standard()
        self._cache: dict[tuple[int, ...], PlacedTriangle] = {
            (): PlacedTriangle(self.root, root_placement)
        }

    def place(self, word) -> PlacedTriangle:
        word = reduce_word(word)
        if word in self._cache:
            return self._cache[word]
        prev = self.place(word[:-1])
        placed = self._step(prev, word[-1])
        self._cache[word] = placed
        return placed

    def _step(self, current: PlacedTriangle, edge_id: int) -> PlacedTriangle:
        (_, exit_side), (tri2, entry_side) = self.triangulation.cross(current.tri, edge_id)
        shear = self.triangulation.edge_by_id(edge_id).shear
        stepped = develop_step(current.triangle, exit_side, shear)
        # stepped lists (far end, near end, new vertex); slot them so the
        # shared edge occupies tri2's entry side
        verts: list = [None, None, None]
        for offset, vert in enumerate(stepped.vertices):
            verts[(entry_side + offset) % 3] = vert
        return PlacedTriangle(tri2, IdealTriangle(tuple(verts)))


def holonomy(s: ShearTriangulation, loop, root: int | None = None) -> MoebiusTransform:
    """Transform carrying the root placement to its placement after the loop."""
    dev = Developer(s, root=root)
    final = dev.place(loop)
    if final.tri != dev.root:
        raise InvalidWordError("crossing word does not return to the root triangle")
    start = dev.place(())
    return moebius_from_triples(start.triangle.vertices, final.triangle.vertices)


def pants_boundary_lengths(s1: float, s2: float, s3: float) -> tuple[float, float, float]:
    """Boundary lengths of the two-triangle pants with shears (s1, s2, s3)."""
    return (abs(s1 + s2), abs(s2 + s3), abs(s3 + s1))


def shears_from_cuffs(l1: float, l2: float, l3: float,
                      signs: tuple[int, int, int] = (1, 1, 1)) -> tuple[float, float, float]:
    """Shears realizing given boundary lengths: solves s_k + s_{k+1} = sign_k * l_k.

    Round-trips through pants_boundary_lengths for any sign choice; the
    signs select the spiraling direction at each boundary.
    """
    a = signs[0] * l1
    b = signs[1] * l2
    c = signs[2] * l3
    return ((a - b + c) / 2.0, (a + b - c) / 2.0, (-a + b + c) / 2.0)


def pants_triangulation(s1: float, s2: float, s3: float) -> ShearTriangulation:
    """Two ideal triangles glued into a three-holed sphere pattern.

    Edge k glues side k of triangle 0 to side 2-k of triangle 1; this is
    the orientable mirror gluing, with one shear per edge.
    """
    return ShearTriangulation(
        triangles=(0, 1),
        edges=(
            Edge(0, ((0, 0), (1, 2)), s1),
            Edge(1, ((0, 1), (1, 1)), s2),
            Edge(2, ((0, 2), (1, 0)), s3),
        ),
    )


def pants_boundary_words() -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """Corner-link crossing words around the three boundary components.

    Word k crosses edges k and k+1, so its holonomy trace realizes the
    boundary of length |s_k + s_{k+1}|.
    """
    return ((0, 1), (1, 2), (2, 0))
