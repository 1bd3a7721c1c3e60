"""Command-line front door: JSON in, JSON/CSV/SVG out.

Exit codes: 0 success, 1 a verification ran and failed (the report is
still written), 2 malformed input.  The EQLAB_TOL environment variable
sets the default verification tolerance; identical inputs and seed
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import sys

from .conjugacy import verify_conjugacy, verify_fundamental_lemma
from .hyp import BoundaryPoint, Geodesic, HPoint, MoebiusTransform, UnitTangent
from .lamination import earthquake_map
from .render import RenderSpec, render_svg
from .schemas import (
    RENDER_SCHEMA,
    SchemaError,
    TRANSPORT_SCHEMA,
    canonical_json,
    chain_from_json,
    lamination_from_json,
    report_to_csv,
    report_to_json,
    surface_from_json,
    surface_to_json,
    triangulation_from_json,
    validate,
)
from .surface import earthquake_flow
from .transport import CrossingFactor, Spike, ordered_product, spike_crossing_sequence
from .triangle import (
    Developer,
    holonomy,
    pants_boundary_lengths,
    pants_boundary_words,
    pants_triangulation,
    reduce_word,
    shears_from_cuffs,
)


def _finite(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return x


def _positive(what: str):
    def parse(text: str) -> float:
        x = _finite(text)
        if not x > 0.0:
            raise argparse.ArgumentTypeError(f"{text!r} is not a positive {what}")
        return x
    return parse


_tolerance = _positive("tolerance")


def _parse_floats(text: str) -> list[float]:
    return [_finite(x) for x in text.split(",") if x != ""]


def _finite_tuple(text: str, count: int, name: str) -> list[float]:
    values = _parse_floats(text)
    if len(values) != count:
        raise argparse.ArgumentTypeError(f"{text!r} is not {name} comma-separated numbers")
    return values


def _three_finite(text: str) -> list[float]:
    return _finite_tuple(text, 3, "three")


def _three_lengths(text: str) -> list[float]:
    values = _three_finite(text)
    if not all(x > 0.0 for x in values):
        raise argparse.ArgumentTypeError(f"{text!r} is not three positive cuff lengths")
    return values


def _point(text: str) -> list[float]:
    return _finite_tuple(text, 2, "two")


def _points(text: str) -> list[list[float]]:
    return [_point(chunk) for chunk in text.split(";")]


def _three_signs(text: str) -> tuple[int, ...]:
    try:
        signs = tuple(_parse_ints(text))
    except ValueError:
        signs = ()
    if len(signs) != 3 or any(sign not in (-1, 1) for sign in signs):
        raise argparse.ArgumentTypeError(f"{text!r} is not three signs, each -1 or 1")
    return signs


def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _int_list(text: str) -> list[int]:
    try:
        return _parse_ints(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not comma-separated integers") from None


def _parse_words(text: str) -> list[tuple[int, ...]]:
    words = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        words.append(tuple(int(x) for x in chunk.split(",") if x != "") if chunk else ())
    return words


def _load_json(path: str):
    def reject(token: str):
        raise ValueError(f"{path}: non-finite number {token} is not allowed")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


def _write_output(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _default_tol(args, fallback: float) -> float:
    if args.tol is not None:
        return args.tol
    env = os.environ.get("EQLAB_TOL")
    if env:
        try:
            return _tolerance(env)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"EQLAB_TOL: {exc}") from None
    return fallback


def _boundary_json(b: BoundaryPoint):
    return "inf" if b.is_infinity else b.value


def _cmd_pants(args) -> int:
    if not _require_format(args, ("json",)):
        return 2
    if args.shears:
        s1, s2, s3 = args.shears
        doc = {
            "shears": [s1, s2, s3],
            "lengths": list(pants_boundary_lengths(s1, s2, s3)),
        }
        _write_output(canonical_json(doc), args.out)
        return 0
    if args.lengths:
        lengths = args.lengths
        shears = shears_from_cuffs(*lengths, args.signs)
        tri = pants_triangulation(*shears)
        traces = [abs(holonomy(tri, w).trace) for w in pants_boundary_words()]
        doc = {"lengths": lengths, "shears": list(shears), "traces": traces}
        _write_output(canonical_json(doc), args.out)
        return 0
    if args.random:
        tol = _default_tol(args, 1e-9)
        rng = random.Random(args.seed)
        worst = 0.0
        for _ in range(args.random):
            shears = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
            tri = pants_triangulation(*shears)
            lengths = pants_boundary_lengths(*shears)
            for k, w in enumerate(pants_boundary_words()):
                defect = abs(abs(holonomy(tri, w).trace) - 2.0 * math.cosh(lengths[k] / 2.0))
                worst = max(worst, defect)
        doc = {
            "trials": args.random,
            "max_trace_defect": worst,
            "tolerance": tol,
            "passed": worst <= tol,
        }
        _write_output(canonical_json(doc), args.out)
        return 0 if worst <= tol else 1
    print("pants: one of --shears, --lengths, --random is required", file=sys.stderr)
    return 2


def _cmd_develop(args) -> int:
    if not _require_format(args, ("json",)):
        return 2
    tri = triangulation_from_json(_load_json(args.config))
    words = _parse_words(args.words) if args.words else [()]
    dev = Developer(tri)
    placements = []
    for word in words:
        placed = dev.place(word)
        placements.append({
            "word": list(reduce_word(word)),
            "triangle": placed.tri,
            "vertices": [_boundary_json(v) for v in placed.triangle.vertices],
        })
    _write_output(canonical_json({"placements": placements}), args.out)
    return 0


def _cmd_transport(args) -> int:
    if not _require_format(args, ("json",)):
        return 2
    doc = _load_json(args.config)
    validate(doc, TRANSPORT_SCHEMA)
    if "factors" in doc:
        factors = [
            CrossingFactor.from_matrix(
                MoebiusTransform(*(x for row in f["matrix"] for x in row)),
                order_key=float(f.get("order_key", k)),
            )
            for k, f in enumerate(doc["factors"])
        ]
    else:
        spike_doc = doc["spike"]
        spike = Spike(
            Geodesic.from_values(*spike_doc["edges"][0]),
            Geodesic.from_values(*spike_doc["edges"][1]),
            BoundaryPoint.from_value(spike_doc["vertex"]),
        )
        factors = spike_crossing_sequence(spike, doc["depths"])
    product = ordered_product(factors)
    value = product.value
    out = {
        "value": [[value.a, value.b], [value.c, value.d]],
        "error_bound": product.error_bound,
        "retained": len(product.factors),
    }
    _write_output(canonical_json(out), args.out)
    return 0


def _cmd_earthquake(args) -> int:
    if not _require_format(args, ("json",)):
        return 2
    doc = _load_json(args.config)
    if "leaves" in doc:
        lam = lamination_from_json(doc)
        if not args.base or not args.targets:
            print("earthquake: lamination mode needs --base and --targets", file=sys.stderr)
            return 2
        bx, by = args.base
        base = UnitTangent.upward_at(HPoint(bx, by))
        images = []
        for tx, ty in args.targets:
            img = earthquake_map(lam, args.t, base, HPoint(tx, ty))
            images.append([img.x, img.y])
        _write_output(canonical_json({"images": images}), args.out)
        return 0
    surface, mc = surface_from_json(doc)
    if mc is None:
        print("earthquake: surface mode needs a weights table", file=sys.stderr)
        return 2
    moved = earthquake_flow(surface, mc, args.t)
    _write_output(canonical_json(surface_to_json(moved, mc)), args.out)
    return 0


def _require_format(args, allowed) -> bool:
    if args.format not in allowed:
        print(f"{args.command}: --format {args.format} is not supported here",
              file=sys.stderr)
        return False
    return True


def _cmd_verify(args) -> int:
    if not _require_format(args, ("json", "csv")):
        return 2
    if args.kind == "fundamental-lemma":
        tol = _default_tol(args, 1e-9)
        chain = chain_from_json(_load_json(args.config))
        report = verify_fundamental_lemma(chain, args.ts, tolerance=tol)
    else:
        tol = _default_tol(args, 1e-6)
        surface, mc = surface_from_json(_load_json(args.config))
        if mc is None:
            print("verify conjugacy: surface file needs a weights table", file=sys.stderr)
            return 2
        if args.cuffs:
            arcs = args.cuffs
        else:
            arcs = sorted(k for k, w in mc.weights.items() if w > 0)
        report = verify_conjugacy(surface, mc, arcs, args.ts, tolerance=tol,
                                  depth_budget=args.truncation_depth)
    if args.format == "csv":
        _write_output(report_to_csv(report), args.out)
    else:
        _write_output(canonical_json(report_to_json(report)), args.out)
    return 0 if report.passed else 1


def _cmd_render(args) -> int:
    if args.format == "csv":
        print("render: --format csv is not supported here", file=sys.stderr)
        return 2  # json means unspecified here; render always emits SVG
    doc = _load_json(args.config)
    validate(doc, RENDER_SCHEMA)
    spec = RenderSpec(
        objects=tuple(doc.get("objects", ("triangles", "leaves", "tangency"))),
        stroke_width=doc.get("stroke_width", 0.006),
    )
    triangles = ()
    if "triangulation" in doc:
        tri = triangulation_from_json(doc["triangulation"])
        words = [tuple(w) for w in doc.get("words", [[]])]
        dev = Developer(tri)
        triangles = tuple(dev.place(w).triangle for w in words)
    lam = lamination_from_json(doc["lamination"]) if "lamination" in doc else None
    arcs = tuple(
        (HPoint(*pair[0]), HPoint(*pair[1])) for pair in doc.get("arcs", [])
    )
    svg = render_svg(spec, triangles=triangles, lamination=lam, arcs=arcs)
    _write_output(svg, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--tol", type=_tolerance, default=None,
                        help="verification tolerance (default from EQLAB_TOL)")
    shared.add_argument("--truncation-depth", type=_positive("depth"), default=30.0,
                        help="depth budget for spiral transport")
    shared.add_argument("--out", default=None, help="output path (default stdout)")
    shared.add_argument("--format", choices=("json", "csv", "svg"), default="json")
    shared.add_argument("--seed", type=int, default=0,
                        help="seed for randomized suites")

    parser = argparse.ArgumentParser(
        prog="eqlab",
        description="shear coordinates, earthquakes and unipotent-flow verifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pants = sub.add_parser("pants", parents=[shared],
                           help="boundary lengths from shears and back")
    pants.add_argument("--shears", type=_three_finite, help="three comma-separated shears")
    pants.add_argument("--lengths", type=_three_lengths,
                       help="three comma-separated positive cuff lengths")
    pants.add_argument("--signs", type=_three_signs, default=(1, 1, 1),
                       help="three spiral signs (-1 or 1) for --lengths")
    pants.add_argument("--random", type=int, default=0,
                       help="verify the trace identity on N random triples")
    pants.set_defaults(func=_cmd_pants)

    dev = sub.add_parser("develop", parents=[shared],
                         help="place triangles for crossing words")
    dev.add_argument("--config", required=True, help="triangulation JSON")
    dev.add_argument("--words", help="semicolon-separated crossing words")
    dev.set_defaults(func=_cmd_develop)

    transport = sub.add_parser("transport", parents=[shared],
                               help="ordered product with error bound")
    transport.add_argument("--config", required=True,
                           help="factor list or spike spec JSON")
    transport.set_defaults(func=_cmd_transport)

    quake = sub.add_parser("earthquake", parents=[shared],
                           help="earthquake a lamination target or twist a surface")
    quake.add_argument("--config", required=True, help="lamination or surface JSON")
    quake.add_argument("--t", type=_finite, required=True, help="earthquake time")
    quake.add_argument("--base", type=_point, help="base point x,y (lamination mode)")
    quake.add_argument("--targets", type=_points,
                       help="semicolon-separated target points x,y")
    quake.set_defaults(func=_cmd_earthquake)

    verify = sub.add_parser("verify", parents=[shared],
                            help="run a verifier and write its report")
    verify.add_argument("kind", choices=("fundamental-lemma", "conjugacy"))
    verify.add_argument("--config", required=True)
    verify.add_argument("--ts", type=_parse_floats, required=True,
                        help="comma-separated sample times")
    verify.add_argument("--cuffs", type=_int_list,
                        help="comma-separated cuff ids for conjugacy arcs")
    verify.set_defaults(func=_cmd_verify)

    render = sub.add_parser("render", parents=[shared],
                            help="disk-model SVG of triangles and leaves")
    render.add_argument("--config", required=True, help="render spec JSON")
    render.set_defaults(func=_cmd_render)
    return parser


# numeric flags; argparse reads a value such as "-1,2" or "-1e-3" as an
# unknown flag, because it is not a plain negative number, so a value that
# starts with a minus and a digit is attached to its flag as --flag=-1,2
_NUMERIC_FLAGS = frozenset(("--shears", "--lengths", "--signs", "--ts", "--base", "--targets",
                            "--cuffs", "--t", "--truncation-depth", "--tol"))
_NEGATIVE_LEAD = re.compile(r"-\.?\d")


def _attach_negative_values(argv) -> list[str]:
    out = []
    for arg in argv:
        if out and out[-1] in _NUMERIC_FLAGS and _NEGATIVE_LEAD.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return args.func(args)
    except SchemaError as exc:
        for path, message in exc.pointers:
            print(f"input error at {path or '/'}: {message}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
