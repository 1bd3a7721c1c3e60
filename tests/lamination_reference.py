"""Test-side references for lamination earthquakes.

The library carries the target through each fault as that fault's
factors (`hyp.carry_along`) and finds the faults on the nesting forest.
The references here find the faults by side-testing every leaf
(`scan_separating`) and form the earthquake the classical way, as the
ordered product of the fault translations: `fault_product` in floats,
and `decimal_image` at 50 digits, where the order of the arithmetic no
longer matters, from one translation at a time (`decimal_translation`,
applied by `decimal_apply`).  `total_weight` sums a lamination's
leaf weights.
"""

from decimal import Decimal, localcontext

from eqlab.hyp import HPoint, MoebiusTransform, UnitTangent, _mul, translation_along
from eqlab.lamination import _point_leaf_side


def scan_separating(lam, p: HPoint, q: HPoint) -> list:
    """The O(n) oracle: side-test every leaf at p and q, then stably sort the
    separating ones by |side at p|, the sinh of their distance to p."""
    found = []
    for leaf in lam.leaves:
        sp = _point_leaf_side(leaf.geodesic, p)
        if (sp > 0) != (_point_leaf_side(leaf.geodesic, q) > 0):
            found.append((abs(sp), leaf))
    found.sort(key=lambda item: item[0])
    return [leaf for _, leaf in found]


def total_weight(lam) -> float:
    return sum(leaf.weight for leaf in lam.leaves)


def _shift_sign(leaf, base: HPoint) -> int:
    # base on the leaf's right: the far side moves toward the leaf's start
    return -1 if _point_leaf_side(leaf.geodesic, base) > 0.0 else 1


def fault_product(faults, t: float, base: HPoint) -> MoebiusTransform:
    """The earthquake as the float product of the faults' translations, in
    order from the base outward: one matrix for the whole component."""
    m = MoebiusTransform.identity()
    for leaf in faults:
        m = m @ translation_along(leaf.geodesic, _shift_sign(leaf, base) * t * leaf.weight)
    return m


def decimal_image(lam, t: float, base, target, digits: int = 50):
    """`earthquake_map`'s image at `digits` digits.

    The faults come from scan_separating, each translated by
    decimal_translation with d = ±t·w exactly; the product, base outward,
    is applied once.  Returns (x, y) for a point and the frame's
    (a, b, c, d) for a unit tangent, as Decimals.
    """
    base_point = base.basepoint() if isinstance(base, UnitTangent) else base
    target_point = target.basepoint() if isinstance(target, UnitTangent) else target
    with localcontext() as ctx:
        ctx.prec = digits
        m = (1, 0, 0, 1)
        for leaf in scan_separating(lam, base_point, target_point):
            shift = _shift_sign(leaf, base_point) * Decimal(t) * Decimal(leaf.weight)
            m = _mul(m, decimal_translation(leaf.geodesic, shift))
        return decimal_apply(m, target)


def decimal_translation(g, d) -> tuple:
    """translation_along(g, d) in Decimal, at the context's precision:
    adj(F) diag(e^{d/2}, e^{-d/2}) F / det F, F = (s.q, -s.p; e.q, -e.p)
    taken exactly from g's float ends, d read exactly."""
    half = (Decimal(d) / 2).exp()
    sp, sq, ep, eq = map(Decimal, (g.start.p, g.start.q, g.end.p, g.end.q))
    det = sp * eq - sq * ep
    scale = (half / det, 0, 0, 1 / (half * det))
    return _mul(_mul((-ep, sp, -eq, sq), scale), (sq, -sp, eq, -ep))


def decimal_apply(m, target):
    """The Decimal transform m, of determinant one, applied to a point, as
    (x, y), or to a unit tangent, as its frame's (a, b, c, d)."""
    if isinstance(target, UnitTangent):
        return _mul(m, tuple(map(Decimal, target.frame.entries())))
    a, b, c, d = m
    x, y = Decimal(target.x), Decimal(target.y)
    # (a z + b) / (c z + d) at z = x + iy
    den = (c * x + d) ** 2 + (c * y) ** 2
    return ((a * x + b) * (c * x + d) + a * c * y * y) / den, y / den


def image_error(image, ref) -> float:
    """Relative error of an image against decimal_image.

    A point: max(|x - x_ref| / |z_ref|, |y / y_ref - 1|), so a height near
    the boundary is still read to its own digits.  A unit tangent: the
    worst frame entry error relative to the largest reference entry,
    minimized over the projective sign.
    """
    if isinstance(image, HPoint):
        x, y = ref
        size = (x * x + y * y).sqrt()
        return float(max(abs(Decimal(image.x) - x) / size, abs(Decimal(image.y) / y - 1)))
    top = max(map(abs, ref))
    got = [Decimal(v) for v in image.frame.entries()]
    return min(float(max(abs(u - sign * v) for u, v in zip(got, ref)) / top) for sign in (1, -1))
