"""Ideal triangles, shear coordinates, developing of triangulations and pants holonomy.

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
* The library's holonomy is `pants_holonomy`, the two-letter loops of
  one pants.  The walk along any crossing word of a triangulation is the
  test reference `holonomy` in tests/triangle_reference.py.
"""

from __future__ import annotations

import math

from .hyp import (
    BoundaryPoint,
    Geodesic,
    HPoint,
    MoebiusTransform,
    Record,
    _mul,
    _set,
    apply,
    orientation,
    triple_frame,
)

SHEAR_LIMIT = 30.0
# two sides whose endpoints agree this closely are one shared edge
_ADJACENT_TOL = 1e-9

_STANDARD = (
    BoundaryPoint.from_value(-1.0),
    BoundaryPoint.from_value(0.0),
    BoundaryPoint.infinity(),
)


class NotAdjacentError(ValueError):
    """The two triangles do not share an edge from opposite sides."""


class InvalidWordError(ValueError):
    """A crossing word does not fit the incidence structure."""


class ShearRangeError(ValueError):
    """Shear magnitude too large for stable tangency arithmetic."""


class IdealTriangle(Record):
    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[BoundaryPoint, BoundaryPoint, BoundaryPoint]):
        for i in range(3):
            if vertices[i].coincides(vertices[(i + 1) % 3]):
                raise ValueError("ideal triangle needs three distinct vertices")
        if orientation(*vertices) <= 0.0:
            raise ValueError("vertices must be ordered counterclockwise")
        _set(self, "vertices", vertices)

    @classmethod
    def standard(cls) -> "IdealTriangle":
        """The normalized triangle (-1, 0, inf)."""
        return cls(_STANDARD)

    def side(self, k: int) -> Geodesic:
        return Geodesic(self.vertices[k % 3], self.vertices[(k + 1) % 3])

    def opposite_vertex(self, k: int) -> BoundaryPoint:
        return self.vertices[(k + 2) % 3]

    def normalizer(self, side: int) -> MoebiusTransform:
        """Transform sending (side start, side end, opposite vertex) to (0, inf, -1).

        Normalizes the triangle so that `side` is the imaginary axis
        traversed upward and the triangle sits on its left.
        """
        k = side % 3
        return triple_frame(*(self.vertices[(k + n) % 3] for n in range(3)))


def edge_tangency_point(t: IdealTriangle, side: int) -> HPoint:
    """Foot of the perpendicular from the opposite ideal vertex to the side:
    i in the side's normalized frame, where that vertex is -1."""
    return apply(t.normalizer(side).inverse(), HPoint(0.0, 1.0))


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

    The side's factors F = (s.q, -s.p; e.q, -e.p) send its start s to 0
    and its end e to infinity, and the opposite vertex w to (u : v) = F w.
    The far vertex is w reflected across the side and pushed out by e^shear,
    F^-1 (-e^(shear/2) u : e^(-shear/2) v), so its log cross-ratio with the
    side's ends and w, which shear_on_sides reads, is the shear; no matrix
    is formed.  The result is returned counterclockwise, shared edge first
    in reversed order, then the new vertex.
    """
    if not abs(shear) <= SHEAR_LIMIT:  # NaN fails too
        raise ShearRangeError(f"|shear| = {abs(shear)} exceeds {SHEAR_LIMIT}")
    k = side % 3
    s, e, w = (placed.vertices[(k + n) % 3] for n in range(3))
    u, v = s.q * w.p - s.p * w.q, e.q * w.p - e.p * w.q
    u, v = -math.exp(shear / 2.0) * u, math.exp(-shear / 2.0) * v
    # adj(F) is F^-1 up to the factor det F, which a projective pair drops
    far = BoundaryPoint(s.p * v - e.p * u, s.q * v - e.q * u)
    return IdealTriangle((e, s, far))


class Edge(Record):
    """Gluing of two triangle sides carrying one shear."""

    __slots__ = ("id", "sides", "shear")

    def __init__(self, id: int, sides: tuple[tuple[int, int], tuple[int, int]], shear: float):
        _set(self, "id", id)
        _set(self, "sides", sides)
        _set(self, "shear", shear)


def _is_index(k, count: int) -> bool:  # never a bool or a float, and no index wraps around
    return type(k) is int and 0 <= k < count


def _check_gluing(cells, joins, error, cell: str, slot: str, join: str) -> None:
    """Raise `error` at the first fault of three-slot cells glued by `joins`, a
    list of (label, two (cell, slot) incidences): a cell or join label listed
    twice, or a slot, 0, 1 or 2 by `_is_index`, that no join or two joins glue."""
    for kind, labels in ((cell, cells), (join, [label for label, _ in joins])):
        if len(set(labels)) < len(labels):
            repeated = next(x for n, x in enumerate(labels) if x in labels[:n])
            raise error(f"{kind} id {repeated} is listed more than once")
    glued = set()
    for label, incidences in joins:
        for c, k in incidences:
            if c not in cells:
                raise error(f"{join} {label} references unknown {cell} {c!r}")
            if not _is_index(k, 3):
                raise error(f"{join} {label} has invalid {slot} {k!r}: a {slot} is 0, 1 or 2")
            if (c, k) in glued:
                raise error(f"{cell} {slot} {(c, k)} is glued more than once")
            glued.add((c, k))
    if len(glued) < 3 * len(cells):  # each glued slot is a distinct slot of a cell
        c, k = next((c, k) for c in cells for k in range(3) if (c, k) not in glued)
        raise error(f"{cell} {slot} {(c, k)} is left unglued")


class ShearTriangulation(Record):
    """Combinatorial triangles glued along edges, one shear per edge; each
    triangle id and edge id is listed once."""

    __slots__ = ("triangles", "edges")

    def __init__(self, triangles: tuple[int, ...], edges: tuple[Edge, ...]):
        _check_gluing(triangles, [(e.id, e.sides) for e in edges], ValueError,
                      "triangle", "side", "edge")
        if not _connected(triangles, edges):
            raise ValueError("triangulation is not connected")
        _set(self, "triangles", triangles)
        _set(self, "edges", edges)

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


def _connected(triangles, edges) -> bool:
    if not triangles:
        return False
    reached = {triangles[0]}
    frontier = [triangles[0]]
    while frontier:
        tri = frontier.pop()
        for e in edges:
            (ta, _), (tb, _) = e.sides
            for other in ((tb,) if ta == tri else ()) + ((ta,) if tb == tri else ()):
                if other not in reached:
                    reached.add(other)
                    frontier.append(other)
    return reached == set(triangles)


def reduce_word(word) -> tuple[int, ...]:
    """Cancel immediately repeated edge crossings."""
    out: list[int] = []
    for letter in word:
        if out and out[-1] == letter:
            out.pop()
        else:
            out.append(int(letter))
    return tuple(out)


class PlacedTriangle(Record):
    __slots__ = ("tri", "triangle")

    def __init__(self, tri: int, triangle: IdealTriangle):
        _set(self, "tri", tri)
        _set(self, "triangle", triangle)


class Developer:
    """Placements of a triangulation's triangles by crossing word.

    The root triangle sits at the standard triangle (-1, 0, inf); `place`
    develops the reduced word from there, one crossing at a time.  A long
    word squeezes its placements toward one boundary point; where the
    vertices merge in floats, `place` raises a ValueError naming the word
    and the crossing.
    """

    def __init__(self, triangulation: ShearTriangulation):
        self.triangulation = triangulation

    def place(self, word) -> PlacedTriangle:
        reduced = reduce_word(word)
        placed = PlacedTriangle(self.triangulation.triangles[0], IdealTriangle.standard())
        for k, edge_id in enumerate(reduced):
            try:
                placed = self._step(placed, edge_id)
            except (InvalidWordError, ShearRangeError):
                raise
            except ValueError as exc:  # IdealTriangle's: the placed vertices merged in floats
                head = ", ".join(map(str, reduced[:8])) + (", ..." if len(reduced) > 8 else "")
                raise ValueError(f"the word ({head}) of {len(reduced)} crossings collapses in "
                                 f"floats at crossing {k + 1} (edge {edge_id}): {exc}") from exc
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
    if not abs(shear) <= SHEAR_LIMIT:  # NaN fails too
        raise ShearRangeError(f"|shear| = {abs(shear)} exceeds {SHEAR_LIMIT}")
    e = math.exp(shear / 2.0)
    return ((e, e, 0.0, 1.0 / e), (e, 0.0, 1.0 / e, 1.0 / e), (0.0, -e, 1.0 / e, 0.0))[turn]


def pants_boundary_lengths(s1: float, s2: float, s3: float) -> tuple[float, float, float]:
    """Boundary lengths |s1 + s2|, |s2 + s3|, |s3 + s1| of the two-triangle pants
    with shears (s1, s2, s3); ShearRangeError naming a sum that is not a finite
    float, such as 1e308 + 1e308."""
    pairs = ((s1, s2), (s2, s3), (s3, s1))
    lengths = tuple(abs(a + b) for a, b in pairs)
    for k, (a, b) in enumerate(pairs):
        if not math.isfinite(lengths[k]):
            raise ShearRangeError(f"boundary length |s{k + 1} + s{(k + 1) % 3 + 1}| = "
                                  f"|{a!r} + {b!r}| is not a finite float")
    return lengths


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


def pants_holonomy(shears: tuple[float, float, float], word: tuple[int, int]) -> MoebiusTransform:
    """The holonomy of `pants_triangulation(*shears)` along a two-letter
    word (i, j), i != j: the transform carrying the root triangle, placed
    as (-1, 0, inf), to its placement after the loop.

    E(s) crosses side 1 = (0, inf) of the standard triangle into
    (0, e^s, inf), entering by its side 2, and R^t turns toward the next
    exit side.  Edge k joins side k of triangle 0 to side 2-k of triangle
    1, so the word exits the root by side i, enters triangle 1 by side
    2-i, leaves it by side 2-j and re-enters the root by side j: the
    product is R^(1-i) E(s_i) R^(2-i+j) E(s_j) R^(j+1).  Its determinant
    is one by construction, so only its sign is fixed, and |s| <=
    SHEAR_LIMIT keeps each entry below 4 e^30.  The test
    reference `holonomy` (tests/triangle_reference.py) walks any crossing
    word with the same factors in the same order, so on these words the
    two are equal to the last bit.
    """
    i, j = word
    if i == j or not (_is_index(i, 3) and _is_index(j, 3)):
        raise InvalidWordError(f"{tuple(word)} is not a two-letter pants word")
    m = _mul(_mul(_ROTATION_POWERS[(1 - i) % 3], _edge_turn(shears[i], (2 - i + j) % 3)),
             _edge_turn(shears[j], (j + 1) % 3))
    return MoebiusTransform.unimodular(*m)
