#!/usr/bin/env python3
"""Render a small gallery: a developed pants triangulation and a nested
band lamination, both in the disk model.

Usage: render_gallery.py [outdir]
"""

import pathlib
import sys

from eqlab.lamination import UniformBand, discretize_band
from eqlab.render import RenderSpec, render_svg
from eqlab.triangle import Developer, pants_triangulation, shears_from_cuffs


def main() -> None:
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "gallery")
    outdir.mkdir(parents=True, exist_ok=True)

    tri = pants_triangulation(*shears_from_cuffs(2.0, 2.5, 3.0))
    words = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1),
             (0, 1, 0), (0, 1, 2), (1, 2, 1), (2, 0, 2)]
    dev = Developer(tri)
    triangles = tuple(dev.place(w).triangle for w in words)
    spec = RenderSpec(objects=("triangles", "tangency"), stroke_width=0.004)
    (outdir / "pants_development.svg").write_text(render_svg(spec, triangles=triangles))

    lam = discretize_band(UniformBand(), 12)
    spec = RenderSpec(objects=("leaves",), stroke_width=0.004)
    (outdir / "band_lamination.svg").write_text(render_svg(spec, lamination=lam))

    print(f"wrote {outdir}/pants_development.svg and {outdir}/band_lamination.svg")


if __name__ == "__main__":
    main()
