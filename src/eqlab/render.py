"""SVG renders of developed complexes and laminations in the disk model.

Half-plane data is converted at the edge by the boundary-preserving map
w = (z - i) / (z + i); geodesics become circular arcs meeting the unit
circle at right angles, which the CLI test suite checks on the emitted
path data.
"""

from __future__ import annotations

import math

from .hyp import BoundaryPoint, Geodesic, HPoint, Record, _set
from .triangle import IdealTriangle, edge_tangency_point

_ANTIPODAL_TOL = 1e-9


class RenderSpec(Record):
    """What to draw and how."""

    __slots__ = ("objects", "stroke_width")

    def __init__(self, objects: tuple[str, ...] = ("triangles", "leaves", "tangency"),
                 stroke_width: float = 0.006):
        if not objects:
            raise ValueError("select at least one object class to draw")
        for name in objects:
            if name not in ("triangles", "leaves", "tangency", "arcs"):
                raise ValueError(f"unknown object class {name!r}")
        _set(self, "objects", objects)
        _set(self, "stroke_width", stroke_width)


def to_disk_boundary(b: BoundaryPoint) -> complex:
    return complex(b.p, -b.q) / complex(b.p, b.q)


def to_disk(p: HPoint) -> complex:
    z = p.z
    return (z - 1j) / (z + 1j)


def geodesic_path(g: Geodesic) -> str:
    """SVG path for the disk-model arc of a geodesic, y axis pre-flipped."""
    u = to_disk_boundary(g.start)
    v = to_disk_boundary(g.end)
    if abs(u + v) < _ANTIPODAL_TOL:
        return (f"M {u.real:.12f},{-u.imag:.12f} "
                f"L {v.real:.12f},{-v.imag:.12f}")
    center = (u + v) / (1.0 + (u * v.conjugate()).real)
    radius = abs(u - center)
    # the arc inside the disk subtends less than pi as seen from the
    # center, so large-arc is always 0; the sweep follows the short way
    du = math.atan2((v - center).imag, (v - center).real) - math.atan2(
        (u - center).imag, (u - center).real
    )
    delta = math.atan2(math.sin(du), math.cos(du))
    sweep = 0 if delta > 0 else 1  # y flip reverses the angular direction
    return (f"M {u.real:.12f},{-u.imag:.12f} "
            f"A {radius:.12f},{radius:.12f} 0 0,{sweep} {v.real:.12f},{-v.imag:.12f}")


def segment_path(p: HPoint, q: HPoint) -> str:
    """Straight chord between two interior points (arcs drawn coarsely)."""
    a, b = to_disk(p), to_disk(q)
    return f"M {a.real:.12f},{-a.imag:.12f} L {b.real:.12f},{-b.imag:.12f}"


def render_svg(spec: RenderSpec,
               triangles: tuple[IdealTriangle, ...] = (),
               lamination=None,
               arcs: tuple[tuple[HPoint, HPoint], ...] = ()) -> str:
    """Compose the SVG document for the selected object classes; `lamination`,
    a DiscreteLamination or None, gives the leaves."""
    sw = spec.stroke_width
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="600" '
        'height="600" viewBox="-1.05 -1.05 2.1 2.1">',
        f'<circle cx="0" cy="0" r="1" fill="none" stroke="black" stroke-width="{sw}"/>',
    ]
    if "triangles" in spec.objects:
        for tri in triangles:
            for k in range(3):
                parts.append(
                    f'<path d="{geodesic_path(tri.side(k))}" fill="none" '
                    f'stroke="steelblue" stroke-width="{sw}"/>'
                )
    if "leaves" in spec.objects and lamination is not None:
        for leaf in lamination.leaves:
            parts.append(
                f'<path d="{geodesic_path(leaf.geodesic)}" fill="none" '
                f'stroke="firebrick" stroke-width="{sw}"/>'
            )
    if "tangency" in spec.objects:
        for tri in triangles:
            for k in range(3):
                w = to_disk(edge_tangency_point(tri, k))
                parts.append(
                    f'<circle cx="{w.real:.12f}" cy="{-w.imag:.12f}" '
                    f'r="{2 * sw}" fill="black"/>'
                )
    if "arcs" in spec.objects:
        for p, q in arcs:
            parts.append(
                f'<path d="{segment_path(p, q)}" fill="none" '
                f'stroke="darkgreen" stroke-width="{sw}" stroke-dasharray="0.02,0.02"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
