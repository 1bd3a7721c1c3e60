"""Ideal triangles, shear coordinates, developing and holonomy of triangulations.

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
  edge (0, inf) with shear s puts the far vertex at e^s, so the shear is
  the log cross-ratio of the edge's ends and the two opposite vertices.
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
    _mul,
    apply,
    moebius_from_triples,
    orientation,
)

SHEAR_LIMIT = 30.0
# two sides whose endpoints agree this closely are one shared edge
_ADJACENT_TOL = 1e-9

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


def _same_edge(t1: IdealTriangle, i: int, t2: IdealTriangle, j: int) -> bool:
    a, b = t1.vertices[i], t1.vertices[(i + 1) % 3]
    c, d = t2.vertices[j], t2.vertices[(j + 1) % 3]
    return min(max(a.gap(c), b.gap(d)), max(a.gap(d), b.gap(c))) <= _ADJACENT_TOL


def shear_on_sides(t1: IdealTriangle, i: int, t2: IdealTriangle, j: int) -> float:
    """Signed distance between the two distinguished points on t1's side i,
    which is t2's side j, measured in the direction t1 traverses it;
    NotAdjacentError if the two sides have drifted apart or lie on one side."""
    if not _same_edge(t1, i, t2, j):
        raise NotAdjacentError(f"side {i} and side {j} no longer share an edge")
    s, e = t1.vertices[i], t1.vertices[(i + 1) % 3]
    a, b = t1.opposite_vertex(i), t2.opposite_vertex(j)
    # up to one factor, u/w is a vertex's coordinate in a frame sending s to 0, e to inf
    ua, wa = s.q * a.p - s.p * a.q, e.q * a.p - e.p * a.q
    ub, wb = s.q * b.p - s.p * b.q, e.q * b.p - e.p * b.q
    if not ua * wa * ub * wb < 0.0:  # zero when a vertex sits on an edge end
        raise NotAdjacentError("triangles lie on the same side of the shared edge")
    return math.log(abs(ub / wb)) - math.log(abs(ua / wa))


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

    def __init__(self, triangulation: ShearTriangulation,
                 root_placement: IdealTriangle | None = None):
        self.triangulation = triangulation
        if root_placement is None:
            root_placement = IdealTriangle.standard()
        self._cache: dict[tuple[int, ...], PlacedTriangle] = {
            (): PlacedTriangle(triangulation.triangles[0], root_placement)
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


# R = (0 -1; 1 1), z -> -1/(z + 1), rotates the standard triangle
# (-1, 0, inf) one vertex back; its powers as (a, b, c, d)
_ROTATION_POWERS = ((1.0, 0.0, 0.0, 1.0), (0.0, -1.0, 1.0, 1.0), (-1.0, -1.0, 1.0, 0.0))


def _edge_turn(shear: float, turn: int) -> tuple[float, float, float, float]:
    """E(s) R^turn multiplied out, E(s) = (e e; 0 1/e) with e = e^{s/2}."""
    if abs(shear) > SHEAR_LIMIT:
        raise ShearRangeError(f"|shear| = {abs(shear)} exceeds {SHEAR_LIMIT}")
    e = math.exp(shear / 2.0)
    return ((e, e, 0.0, 1.0 / e), (e, 0.0, 1.0 / e, 1.0 / e), (0.0, -e, 1.0 / e, 0.0))[turn]


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
