"""Finite measured laminations on the half-plane and their earthquakes.

A discrete lamination is a finite family of pairwise disjoint weighted
geodesics.  The earthquake determined by a base vector moves everything
beyond each fault line by a translation along it; fault lines are
applied nearest-base first, each translation taken along the leaf in
its original position (the later maps pick up the earlier motion
through composition).

Sign convention: orient a leaf so the base side lies on its left; the
far side then translates toward the leaf's positive endpoint.  With the
shear sign convention of the triangle module this makes the shear grow
by t times the crossed mass under the time-t earthquake.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hyp import (
    EarthquakeRangeError,
    Geodesic,
    HPoint,
    MoebiusTransform,
    UnitTangent,
    apply,
    translation_along,
)

_ON_LEAF_TOL = 1e-9
_SHARED_GAP = 1e-12  # endpoints this close (BoundaryPoint.gap) are one point
# no fault translation overflows below this |t·w|: a leaf's normalized
# to_imaginary_axis entries are at most 1e6 (its endpoint gap exceeds
# 1e-12), so the products in the translation's determinant stay below
# 4e24·e^|t·w|, under the float maximum while |t·w| < 652
_OVERFLOW_FREE_SHIFT = 650.0


class EndpointOnLeafError(ValueError):
    """An arc endpoint lies on a lamination leaf, where the map is two-valued."""


@dataclass(frozen=True)
class Leaf:
    geodesic: Geodesic
    weight: float

    def __post_init__(self):
        if not self.weight > 0.0:
            raise ValueError("leaf weight must be positive")


@dataclass(frozen=True)
class DiscreteLamination:
    leaves: tuple[Leaf, ...]

    def __post_init__(self):
        _check_no_crossing(self.leaves)

    @classmethod
    def from_pairs(cls, pairs) -> "DiscreteLamination":
        """Build from ((endpoint, endpoint), weight) items; 'inf' allowed."""
        return cls(tuple(Leaf(Geodesic.from_values(a, b), w) for (a, b), w in pairs))

    def total_weight(self) -> float:
        return sum(leaf.weight for leaf in self.leaves)


def _check_no_crossing(leaves) -> None:
    """Raise ValueError when two leaves cross transversally, in O(n log n).

    The 2n endpoints are sorted once by circular position, starting just
    after the widest angular gap so that no shared endpoint straddles
    the cut.  Neighbours within _SHARED_GAP of each other merge into one
    position: a shared endpoint is not a crossing.  The leaves are then
    matched like brackets; at each position the leaves closing there are
    popped, innermost first, before the leaves opening there are pushed,
    outermost first.  A close that does not match the top of the stack
    is a transversal crossing of that leaf and the one on top.
    """
    if len(leaves) < 2:
        return
    ends = sorted(
        ((point.angle(), k, point)
         for k, leaf in enumerate(leaves)
         for point in (leaf.geodesic.start, leaf.geodesic.end)),
        key=lambda end: end[0],
    )
    cut = max(range(len(ends)), key=lambda i: (ends[i][0] - ends[i - 1][0]) % (2.0 * math.pi))
    spans = [[] for _ in leaves]
    position = -1
    previous = None
    for _, k, point in ends[cut:] + ends[:cut]:
        if previous is None or point.gap(previous) > _SHARED_GAP:
            position += 1
        previous = point
        spans[k].append(position)
    # (position, close before open, nesting order, tie order, leaf): equal
    # spans close in the reverse of the order they opened
    events = []
    for k, (first, last) in enumerate(spans):
        if first < last:  # a leaf whose ends merged into one position meets nothing
            events.append((first, 1, -last, k, k))
            events.append((last, 0, -first, -k, k))
    events.sort()
    stack = []
    for _, opens, _, _, k in events:
        if opens:
            stack.append(k)
        elif stack[-1] == k:
            stack.pop()
        else:
            i, j = sorted((k, stack[-1]))
            raise ValueError(f"leaves {i} and {j} cross transversally")


def _point_leaf_side(geodesic: Geodesic, p: HPoint) -> float:
    """Signed sinh of the distance from p to the leaf; positive on its right.

    It is w.x / w.y, w the image of p under geodesic.to_imaginary_axis(),
    whose distance to the imaginary axis has sinh |w.x| / w.y.  Closed
    form in the projective endpoints s = (sp : sq), e = (ep : eq):
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


def separating_leaves(lam: DiscreteLamination, p: HPoint, q: HPoint) -> list[Leaf]:
    """Leaves separating p from q, ordered from nearest p to nearest q.

    Of two disjoint leaves that both separate p from q, the one crossed
    first separates p from the other, so it is strictly nearer p: sorting
    by the sinh-distance |_point_leaf_side| gives the crossing order.
    """
    found = []
    for leaf in lam.leaves:
        sp = _point_leaf_side(leaf.geodesic, p)
        if (sp > 0) != (_point_leaf_side(leaf.geodesic, q) > 0):
            found.append((abs(sp), leaf))
    found.sort(key=lambda item: item[0])
    return [leaf for _, leaf in found]


def transverse_measure(lam: DiscreteLamination, arc: "GeodesicArc") -> float:
    """Sum of weights of the leaves separating the arc endpoints.

    Raises EndpointOnLeafError when either endpoint lies on any leaf.
    """
    return sum(leaf.weight for leaf in separating_leaves(lam, arc.start, arc.end))


@dataclass(frozen=True)
class GeodesicArc:
    start: HPoint
    end: HPoint

    def __post_init__(self):
        if self.start.x == self.end.x and self.start.y == self.end.y:
            raise ValueError("arc endpoints must be distinct")


def _fault_translation(leaf: Leaf, t: float, base: HPoint) -> MoebiusTransform:
    """Translation applied to the far side of one fault line.

    Base side on the left of the oriented leaf means the far side moves
    toward the positive endpoint.  Raises EarthquakeRangeError when the
    translation by t·w overflows floats.
    """
    shift = t * leaf.weight
    if _point_leaf_side(leaf.geodesic, base) > 0.0:
        shift = -shift
    try:
        return translation_along(leaf.geodesic, shift)
    except (ArithmeticError, ValueError):
        if abs(shift) < _OVERFLOW_FREE_SHIFT:
            raise  # a refused determinant, not an overflow
    g = leaf.geodesic
    raise EarthquakeRangeError(
        f"earthquake shift t·w = {shift!r} on the leaf ({g.start.value!r}, {g.end.value!r}) "
        f"overflows its fault translation (|t·w| < {_OVERFLOW_FREE_SHIFT!r} never does)"
    ) from None


def earthquake_composition(lam: DiscreteLamination, t: float, base: HPoint,
                           target: HPoint) -> MoebiusTransform:
    """The isometry an earthquake applies to the component containing target."""
    m = MoebiusTransform.identity()
    for leaf in separating_leaves(lam, base, target):
        m = m @ _fault_translation(leaf, t, base)
    return m


def earthquake_map(lam: DiscreteLamination, t: float, base: UnitTangent, target):
    """Earthquake image of the target, the base vector held fixed.

    Accepts a point or a unit tangent and returns the same kind.  Raises
    EndpointOnLeafError when the base or target basepoint lies on a leaf.
    """
    base_point = base.basepoint() if isinstance(base, UnitTangent) else base
    target_point = target.basepoint() if isinstance(target, UnitTangent) else target
    m = earthquake_composition(lam, t, base_point, target_point)
    return apply(m, target)


def earthquake_with_transport(lam: DiscreteLamination, t: float, base: UnitTangent,
                              target: HPoint):
    """Earthquake image together with the transported fault system.

    The k-th separating leaf is carried by the composition of the
    earlier fault translations; leaves not separating base from target
    are returned unchanged.  Composing earthquakes against the
    transported system realizes the flow property exactly.
    """
    base_point = base.basepoint() if isinstance(base, UnitTangent) else base
    ordered = separating_leaves(lam, base_point, target)
    carried, running = _carry_faults(ordered, t, base_point)
    moved = {id(leaf): c for leaf, c in zip(ordered, carried)}
    new_leaves = tuple(moved.get(id(leaf), leaf) for leaf in lam.leaves)
    return apply(running[-1], target), DiscreteLamination(new_leaves)


def _carry_faults(faults, t: float, base: HPoint):
    """Carry each fault by the translations of the faults before it.

    faults are in order from the base outward.  Returns the carried
    leaves, in that order, and the running compositions: entry k is the
    product of the first k fault translations, from the identity at 0 to
    the whole earthquake at len(faults).
    """
    running = [MoebiusTransform.identity()]
    carried = []
    for leaf in faults:
        carried.append(Leaf(apply(running[-1], leaf.geodesic), leaf.weight))
        running.append(running[-1] @ _fault_translation(leaf, t, base))
    return carried, running


@dataclass(frozen=True)
class UniformBand:
    """Nested family of leaves (-a, a) with uniform density da on [lo, hi]."""

    lo: float = 1.0
    hi: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.lo < self.hi:
            raise ValueError("band needs 0 < lo < hi")


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
