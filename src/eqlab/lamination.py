"""Finite measured laminations on the half-plane and their earthquakes.

A discrete lamination is a finite family of pairwise disjoint weighted
geodesics.  The earthquake determined by a base vector moves everything
beyond each fault line by a translation along it, taken along the leaf
in its original position.  earthquake_map carries the target alone
through the faults between base and target, from its own end inward
(the fault nearest the base acts last), each as its factors
(hyp.carry_along), with no product of matrices formed.

Sign convention: orient a leaf so the base side lies on its left; the
far side then translates toward the leaf's positive endpoint.  With the
shear sign convention of the triangle module this makes the shear grow
by t times the crossed mass under the time-t earthquake.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right

from .hyp import (EarthquakeRangeError, Geodesic, HPoint, MoebiusTransform, Record, UnitTangent,
                  _set, carry_along)

_ON_LEAF_TOL = 1e-9


class EndpointOnLeafError(ValueError):
    """An arc endpoint lies on a lamination leaf, where the map is two-valued."""


class Leaf(Record):
    __slots__ = ("geodesic", "weight")

    def __init__(self, geodesic: Geodesic, weight: float):
        if not weight > 0.0:
            raise ValueError("leaf weight must be positive")
        if weight == math.inf:
            raise ValueError(f"leaf weight {weight} is not finite")
        _set(self, "geodesic", geodesic)
        _set(self, "weight", weight)


class DiscreteLamination(Record):
    __slots__ = ("leaves", "_forest")  # _forest is derived: ==, repr and hash see the leaves

    def __init__(self, leaves: tuple[Leaf, ...]):
        forest = _nesting_forest(leaves)
        _set(self, "leaves", leaves)
        _set(self, "_forest", forest)

    @classmethod
    def from_pairs(cls, pairs) -> "DiscreteLamination":
        """Build from ((endpoint, endpoint), weight) items; 'inf' allowed."""
        return cls(tuple(Leaf(Geodesic.from_values(a, b), w) for (a, b), w in pairs))


class _Forest(Record):
    """How the leaves nest, read in the frame of the rotation R.

    R is the rotation about i sending c, the middle of the widest gap
    between endpoints, to infinity; (cp, cq) is c as a unit projective
    pair, so R(z) = (cp z + cq) / (cp - cq z).  keys[i] is R of the i-th
    distinct endpoint; they increase along the circle from c.  Node 0
    is the outside of every leaf; node v > 0 holds the copies of one
    geodesic (either orientation) in input order, with forward[v]
    whether its first leaf has R(start) < R(end).  Nodes are numbered
    in the order they open, so parent[v] < v.  gap_node[i] is the
    innermost node open between endpoints i - 1 and i.
    """

    __slots__ = ("cp", "cq", "keys", "gap_node", "parent", "members", "forward")

    def __init__(self, cp, cq, keys, gap_node, parent, members, forward):
        _set(self, "cp", cp)
        _set(self, "cq", cq)
        _set(self, "keys", keys)
        _set(self, "gap_node", gap_node)
        _set(self, "parent", parent)
        _set(self, "members", members)
        _set(self, "forward", forward)


def _nesting_forest(leaves) -> _Forest:
    """Match the leaves like brackets and return how they nest, in O(n log n).

    The 2n endpoints are sorted once by circular position, starting just
    after the widest angular gap so that no shared endpoint straddles
    the cut.  Neighbours that coincide (BoundaryPoint.coincides) merge
    into one position: a shared endpoint is not a crossing.  Each distinct point
    also gets a rank, its place in that order (points whose angles round
    equal keep their input order).  At each position the leaves closing
    there are popped, innermost first, before the leaves opening there
    are pushed, outermost first; the ranks order the leaves of one
    merged span, so leaves whose ends differ by less than the merge
    still nest as the geometry says, and only copies of one geodesic
    tie (they go in input order).  A pushed leaf's parent is the top of
    the stack, and a copy of the top's geodesic joins its node.  A close
    that does not match the top of the stack is a transversal crossing
    of that leaf and the one on top: ValueError.  Leaves that cross at
    ends that coincide pass as sharing those ends, and a leaf whose ends
    merged into one position meets nothing.
    """
    points = [point for leaf in leaves for point in (leaf.geodesic.start, leaf.geodesic.end)]
    if not points:  # every point is outside, in node 0
        return _Forest(1.0, 0.0, [], [0], [0], [()], [True])
    angles = [point.angle() for point in points]
    order = sorted(range(len(points)), key=angles.__getitem__)
    gaps = [(angles[order[i]] - angles[order[i - 1]]) % (2.0 * math.pi) for i in range(len(order))]
    cut = max(range(len(gaps)), key=gaps.__getitem__)
    half = (angles[order[cut - 1]] + gaps[cut] / 2.0) / 2.0
    # c = (cos half : -sin half) has disk angle 2 half
    cp, cq = math.cos(half), -math.sin(half)
    position = [0] * len(points)  # endpoint 2k is leaf k's start, 2k + 1 its end
    rank = [0] * len(points)  # index in keys of the endpoint's point
    keys = []
    at = -1
    previous = None
    for e in order[cut:] + order[:cut]:
        point = points[e]
        if previous is None or not point.coincides(previous):
            keys.append((cp * point.p + cq * point.q) / (cp * point.q - cq * point.p))
            at += 1
        elif point.p != previous.p or point.q != previous.q:
            keys.append((cp * point.p + cq * point.q) / (cp * point.q - cq * point.p))
        previous = point
        position[e] = at
        rank[e] = len(keys) - 1
    # (position, close before open, nesting order, first rank, last rank,
    # tie order, leaf), negated where a close needs the reverse order: the
    # leaves of a span close in the reverse of the order they opened
    events = []
    for k in range(len(leaves)):
        s, e = (2 * k, 2 * k + 1) if rank[2 * k] < rank[2 * k + 1] else (2 * k + 1, 2 * k)
        first, last = position[s], position[e]
        if first < last:  # a leaf whose ends merged into one position meets nothing
            events.append((first, 1, -last, rank[s], -rank[e], k, k))
            events.append((last, 0, -first, -rank[s], rank[e], -k, k))
    events.sort()
    # the sentinel leaf n at the bottom of the stack stands for node 0
    gap_node = [0] * (len(keys) + 1)
    parent, members, forward = [0], [()], [True]
    node_of = [0] * (len(leaves) + 1)
    stack = [len(leaves)]
    recorded = 0  # gaps before `recorded` hold their innermost open node
    opened = None  # ranks of the leaf just pushed: a copy joins its node
    for _, opens, _, first_rank, last_rank, _, k in events:
        top = node_of[stack[-1]]
        while recorded <= (first_rank if opens else last_rank):
            gap_node[recorded] = top
            recorded += 1
        if not opens:
            opened = None
            if stack[-1] != k:
                i, j = sorted((k, stack[-1]))
                raise ValueError(f"leaves {i} and {j} cross transversally")
            stack.pop()
        elif opened == (first_rank, last_rank):
            members[top] += (leaves[k],)
            node_of[k] = top
            stack.append(k)
        else:
            opened = (first_rank, last_rank)
            node_of[k] = len(parent)
            parent.append(top)
            members.append((leaves[k],))
            forward.append(rank[2 * k] < rank[2 * k + 1])
            stack.append(k)
    return _Forest(cp, cq, keys, gap_node, parent, members, forward)


def _point_leaf_side(geodesic: Geodesic, p: HPoint) -> float:
    """Signed sinh of the distance from p to the leaf; positive on its right.

    It is w.x / w.y, w the image of p under a transform sending the
    leaf's start to 0 and its end to infinity: w's distance to the
    imaginary axis has sinh |w.x| / w.y.  Closed form in the projective
    endpoints s = (sp : sq), e = (ep : eq):
    w.x / w.y = Re((sq z - sp)(eq conj(z) - ep)) / ((sp eq - sq ep) y),
    invariant under rescaling either pair, so no transform is built.
    Kept factored: expanded, it cancels near the leaf's endpoints.
    Raises EndpointOnLeafError within _ON_LEAF_TOL of the leaf.
    """
    s, e = geodesic.start, geodesic.end
    ratio = (((s.q * p.x - s.p) * (e.q * p.x - e.p) + s.q * e.q * p.y * p.y)
             / ((s.p * e.q - s.q * e.p) * p.y))
    if abs(ratio) <= _ON_LEAF_TOL:
        raise EndpointOnLeafError("point lies on a lamination leaf")
    return ratio


def _locate(forest: _Forest, p: HPoint) -> int:
    """The innermost node whose leaves have p inside (away from c); 0 for none.

    The geodesic from c through p lands at Re R(p), and every leaf with
    p inside spans that landing point; so those leaves are an ancestor
    chain of the innermost node open at its gap.  The walk up that
    chain stops at the first node with p inside, whose first leaf
    decides; each leaf it examines raises EndpointOnLeafError when p
    lies within the tolerance of it.  A leaf p lies on spans the landing
    point and is examined; a leaf p is only near, on the side of c,
    need not be.
    """
    z = complex(p.x, p.y)
    landing = ((forest.cp * z + forest.cq) / (forest.cp - forest.cq * z)).real
    node = forest.gap_node[bisect_right(forest.keys, landing)]
    while node:
        # every leaf of the node is side-tested, so each raises when p is on it
        sides = [_point_leaf_side(leaf.geodesic, p) for leaf in forest.members[node]]
        if (sides[0] > 0.0) == forest.forward[node]:
            return node
        node = forest.parent[node]
    return 0


def separating_leaves(lam: DiscreteLamination, p: HPoint, q: HPoint) -> list[Leaf]:
    """Leaves separating p from q, ordered from nearest p to nearest q.

    A leaf separates p from q when it has exactly one of them inside, so
    the separating leaves are the forest path from p's node up to the
    lowest common ancestor and down to q's node, already in crossing
    order: O(log n + path length) side tests, no scan and no sort.
    Copies of one geodesic (either orientation) are crossed together, in
    input order.  Where two leaves cross at ends that coincide, which
    the build lets through as a shared end, the forest
    takes them to share it, and a point between the two leaves gets that
    picture's answer.

    EndpointOnLeafError: the tolerance test runs on the leaves the query
    examines.  They include every leaf p or q lies on; a point merely
    within the tolerance of a leaf, near one of its ends, may instead be
    placed on one side of it.
    """
    forest = lam._forest
    parent, members = forest.parent, forest.members
    a, b = _locate(forest, p), _locate(forest, q)
    out_of_p, into_q = [], []
    while a != b:  # the larger number is no ancestor of the other: climb it
        if a > b:
            out_of_p += members[a]
            a = parent[a]
        else:
            into_q.append(members[b])
            b = parent[b]
    for node_leaves in reversed(into_q):
        out_of_p += node_leaves
    return out_of_p


def _fault_shift(leaf: Leaf, t: float, base: HPoint) -> float:
    """t·w, signed so that the leaf's far side from base moves as the convention says."""
    if _point_leaf_side(leaf.geodesic, base) > 0.0:
        return -t * leaf.weight  # base on the leaf's right: the far side moves toward start
    return t * leaf.weight


def _range_error(shift: float) -> EarthquakeRangeError:
    return EarthquakeRangeError(
        f"earthquake shift t·(mass crossed) = {shift!r} carries the image out of float range")


def _in_range(point) -> bool:
    return point is not None and math.isfinite(point.x) and sys.float_info.min <= point.y < math.inf


def earthquake_map(lam: DiscreteLamination, t: float, base: UnitTangent, target):
    """Earthquake image of the target, the base vector held fixed.

    Accepts a point or a unit tangent and returns the same kind, carried
    as (z : 1), its image height read as y / |q|^2, or as its frame's
    columns.  Raises EndpointOnLeafError when the base or target
    basepoint lies on a leaf: the tolerance test runs on the leaves
    separating_leaves examines, which include every leaf either point
    lies on (a point merely near a leaf's end may not raise).  Raises
    EarthquakeRangeError naming t·w when a fault's shift passes
    hyp.SHIFT_LIMIT, and t·(mass crossed) when the image leaves float range.
    """
    base_point = base.basepoint() if isinstance(base, UnitTangent) else base
    if isinstance(target, UnitTangent):
        f = target.frame
        target_point, pairs = target.basepoint(), [(f.a, f.c), (f.b, f.d)]
    else:
        target_point, pairs = target, [(target.z, 1.0)]
    faults = separating_leaves(lam, base_point, target_point)
    for leaf in reversed(faults):
        pairs = carry_along(leaf.geodesic, _fault_shift(leaf, t, base_point), pairs)
    try:
        if isinstance(target, UnitTangent):
            (a, c), (b, d) = pairs
            image = UnitTangent(MoebiusTransform.unimodular(a, b, c, d))
            point = image.basepoint()
        else:
            (p, q), = pairs
            # the det-one factors keep Im(p conj(q)) = target.y
            image = point = HPoint((p / q).real, target.y / abs(q) / abs(q))
    except (ValueError, ArithmeticError):  # a height of 0 or nan, q = 0, |q| past floats
        point = None
    if not _in_range(point):
        raise _range_error(t * sum(leaf.weight for leaf in faults))
    return image


class UniformBand(Record):
    """Nested family of leaves (-a, a) with uniform density da on [lo, hi]."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float = 1.0, hi: float = 2.0):
        if not 0.0 < lo < hi:
            raise ValueError("band needs 0 < lo < hi")
        _set(self, "lo", lo)
        _set(self, "hi", hi)


def discretize_band(band: UniformBand, n: int) -> DiscreteLamination:
    """n disjoint leaves sampled at chunk left endpoints, chunk mass each.

    Left-endpoint sampling keeps the refinement error first order in
    1/n, which is what the well-definedness ratio test measures; each
    chunk's full mass rides on its sample leaf, so total mass is exact.
    """
    if n < 1:
        raise ValueError("need at least one chunk")
    h = (band.hi - band.lo) / n
    leaves = []
    for k in range(n):
        a = band.lo + k * h
        leaves.append(Leaf(Geodesic.from_values(-a, a), h))
    return DiscreteLamination(tuple(leaves))
