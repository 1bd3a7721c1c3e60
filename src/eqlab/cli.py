"""Command-line front door: JSON in, JSON/CSV/SVG out.

Exit codes: 0 success, 1 a verification ran and failed (the report is
still written), 2 malformed input.  Identical inputs and seed produce
byte-identical output.

Each command declares only the flags it reads, so argparse refuses any
other flag before a file is read.  A flag that only another mode of its
command reads is refused by the handler, naming the flag and the mode:
`pants` and `verify` before any file is read, `earthquake`, which learns
its mode from the document, right after loading it.  Each command imports
the layers it uses inside its handler, so a process loads only what its
command needs.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from .schemas import (
    RENDER_SCHEMA,
    SchemaError,
    TRANSPORT_SCHEMA,
    canonical_json,
    chain_from_json,
    cuff_id,
    lamination_from_json,
    report_to_csv,
    report_to_json,
    surface_from_json,
    surface_to_json,
    triangulation_from_json,
    validate,
)


def _finite(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return x


def _tolerance(text: str) -> float:
    x = _finite(text)
    if not x > 0.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive tolerance")
    return x


def _fields(text: str, sep: str) -> list[str]:
    """The fields of a `sep`-separated list: none for "" or separators only,
    else every field, where an empty one is refused, never skipped."""
    fields = text.split(sep)
    if not any(fields):
        return []
    if not all(fields):
        raise argparse.ArgumentTypeError(f"{text!r} has an empty field")
    return fields


def _finites(text: str) -> list[float]:
    return [_finite(x) for x in _fields(text, ",")]


def _finite_tuple(text: str, count: int, name: str) -> list[float]:
    values = _finites(text)
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
    points = [_point(chunk) for chunk in _fields(text, ";")]
    if not points:
        raise argparse.ArgumentTypeError(f"{text!r} names no point")
    return points


def _three_signs(text: str) -> tuple[int, ...]:
    try:
        signs = tuple(int(x) for x in _fields(text, ","))
    except ValueError:
        signs = ()
    if len(signs) != 3 or any(sign not in (-1, 1) for sign in signs):
        raise argparse.ArgumentTypeError(f"{text!r} is not three signs, each -1 or 1")
    return signs


def _cuff_ids(text: str) -> list[int]:
    ids = []
    for field in _fields(text, ","):
        k = cuff_id(field)
        if k is None:
            raise argparse.ArgumentTypeError(
                f"{field!r} is not a cuff id written as a weight key: 0, 1, 2, ...")
        ids.append(k)
    if not ids:  # an empty list would verify every weighted cuff, as if --cuffs were absent
        raise argparse.ArgumentTypeError(f"{text!r} names no cuff")
    if len(set(ids)) < len(ids):
        raise argparse.ArgumentTypeError(f"{text!r} names a cuff more than once")
    return ids


def _words(text: str) -> list[tuple[int, ...]]:
    """;-separated words of comma-separated edge ids; the empty word places
    the root triangle, so a word list keeps its empty fields."""
    try:
        return [tuple(int(x) for x in _fields(word.strip(), ",")) for word in text.split(";")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} holds an edge id that is not an integer") from None


def _load_json(path: str):
    """The JSON document at path; NaN, +-Infinity and number literals past
    float range (1e999, a 400-digit integer) are refused by name, a token
    longer than 1000 characters by its head and length, a key repeated in
    one object by name, where json.load would keep its last value, and
    nesting past the recursion limit by that limit."""
    def unique(pairs: list) -> dict:
        doc = dict(pairs)
        if len(doc) < len(pairs):
            keys = [key for key, _ in pairs]
            repeated = next(key for key in keys if keys.count(key) > 1)
            raise ValueError(f"{path}: key {repeated!r} is repeated in one object")
        return doc

    def reject(token: str):
        raise ValueError(f"{path}: non-finite number {token} is not allowed")

    def in_range(token: str, value):
        if not abs(value) <= sys.float_info.max:  # exact for an int; inf fails
            if len(token) > 1000:
                token = f"{token[:20]}... ({len(token)} characters)"
            raise ValueError(f"{path}: number {token} is beyond float range")
        return value

    def read_int(token: str):
        # past 309 digits an integer is past float range, and int() refuses
        # 4300 digits for their length alone, naming neither file nor token
        return in_range(token, int(token) if len(token.lstrip("-")) <= 309 else math.inf)

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique, parse_constant=reject,
                             parse_int=read_int,
                             parse_float=lambda token: in_range(token, float(token)))
        except RecursionError:  # the reader recurses once per level of nesting
            raise ValueError(f"{path}: arrays and objects nest too deeply to read within "
                             f"the recursion limit of {sys.getrecursionlimit()}") from None


def _write_output(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _refuse_unread(args, mode: str, flags) -> bool:
    """Refuse the given ones of `flags`, which `mode` does not read, naming them."""
    given = [flag for flag in flags if getattr(args, flag[2:]) is not None]
    if given:
        print(f"{mode} does not read {', '.join(given)}", file=sys.stderr)
    return bool(given)


def _boundary_json(b: BoundaryPoint):
    return "inf" if b.is_infinity else b.value


def _cmd_pants(args) -> int:
    from .triangle import (
        pants_boundary_lengths,
        pants_boundary_words,
        pants_holonomy,
        shears_from_cuffs,
    )
    mode = ("--shears" if args.shears is not None
            else "--lengths" if args.lengths is not None else "--random")
    unread = {"--shears": ("--signs", "--seed", "--tol"), "--lengths": ("--seed", "--tol"),
              "--random": ("--signs",)}[mode]
    if _refuse_unread(args, f"pants: {mode} mode", unread):
        return 2
    if args.shears is not None:
        s1, s2, s3 = args.shears
        doc = {
            "shears": [s1, s2, s3],
            "lengths": list(pants_boundary_lengths(s1, s2, s3)),
        }
        _write_output(canonical_json(doc), args.out)
        return 0
    if args.lengths is not None:
        lengths = args.lengths
        shears = shears_from_cuffs(*lengths, (1, 1, 1) if args.signs is None else args.signs)
        traces = [abs(pants_holonomy(shears, w).trace) for w in pants_boundary_words()]
        doc = {"lengths": lengths, "shears": list(shears), "traces": traces}
        _write_output(canonical_json(doc), args.out)
        return 0
    if args.random < 1:  # range() would run no trial, and the suite would pass unchecked
        raise ValueError(f"--random {args.random}: the trace suite needs at least one trial")
    import random
    rng = random.Random(0 if args.seed is None else args.seed)
    tol = 1e-9 if args.tol is None else args.tol
    worst = 0.0
    for _ in range(args.random):
        shears = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
        lengths = pants_boundary_lengths(*shears)
        for k, w in enumerate(pants_boundary_words()):
            trace = abs(pants_holonomy(shears, w).trace)
            worst = max(worst, abs(trace - 2.0 * math.cosh(lengths[k] / 2.0)))
    doc = {
        "trials": args.random,
        "max_trace_defect": worst,
        "tolerance": tol,
        "passed": worst <= tol,
    }
    _write_output(canonical_json(doc), args.out)
    return 0 if worst <= tol else 1


def _cmd_develop(args) -> int:
    from .triangle import Developer, reduce_word
    tri = triangulation_from_json(_load_json(args.config))
    dev = Developer(tri)
    placements = []
    for word in args.words:
        placed = dev.place(word)
        placements.append({
            "word": list(reduce_word(word)),
            "triangle": placed.tri,
            "vertices": [_boundary_json(v) for v in placed.triangle.vertices],
        })
    _write_output(canonical_json({"placements": placements}), args.out)
    return 0


def _cmd_transport(args) -> int:
    from .hyp import BoundaryPoint, Geodesic, MoebiusTransform
    from .transport import CrossingFactor, Spike, ordered_product, spike_crossing_sequence
    doc = _load_json(args.config)
    validate(doc, TRANSPORT_SCHEMA)
    if "factors" in doc:
        factors = [
            CrossingFactor(
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
    doc = _load_json(args.config)
    if isinstance(doc, dict) and "leaves" in doc:  # any other document is read as a surface
        from .hyp import HPoint, UnitTangent
        from .lamination import earthquake_map
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
    from .surface import earthquake_flow
    surface, mc = surface_from_json(doc)
    if _refuse_unread(args, "earthquake: surface mode", ("--base", "--targets")):
        return 2
    moved = earthquake_flow(surface, mc, args.t)
    _write_output(canonical_json(surface_to_json(moved, mc)), args.out)
    return 0


def _cmd_verify(args) -> int:
    # each verifier keeps its own default tolerance
    tol = {} if args.tol is None else {"tolerance": args.tol}
    if args.kind == "fundamental-lemma":
        if _refuse_unread(args, "verify: fundamental-lemma", ("--cuffs",)):
            return 2
        from .conjugacy import verify_fundamental_lemma
        chain = chain_from_json(_load_json(args.config))
        report = verify_fundamental_lemma(chain, args.ts, **tol)
    else:
        from .conjugacy import verify_conjugacy
        surface, mc = surface_from_json(_load_json(args.config))
        if args.cuffs:
            arcs = args.cuffs
        else:
            arcs = sorted(k for k, w in mc.weights.items() if w > 0)
        report = verify_conjugacy(surface, mc, arcs, args.ts, **tol)
    if args.format == "csv":
        _write_output(report_to_csv(report), args.out)
    else:
        _write_output(canonical_json(report_to_json(report)), args.out)
    return 0 if report.passed else 1


def _cmd_render(args) -> int:
    from .hyp import HPoint
    from .render import RenderSpec, render_svg
    from .triangle import Developer
    doc = _load_json(args.config)
    validate(doc, RENDER_SCHEMA)
    spec = RenderSpec(**{key: doc[key] for key in ("objects", "stroke_width") if key in doc})
    triangles = ()
    if "triangulation" in doc:
        tri = triangulation_from_json(doc["triangulation"])
        words = [tuple(int(i) for i in w) for w in doc.get("words", [[]])]
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
    shared.add_argument("--out", default=None, help="output path (default stdout)")

    parser = argparse.ArgumentParser(
        prog="eqlab",
        description="shear coordinates, earthquakes and unipotent-flow verifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pants = sub.add_parser("pants", parents=[shared],
                           help="boundary lengths from shears and back")
    mode = pants.add_mutually_exclusive_group(required=True)
    mode.add_argument("--shears", type=_three_finite, help="three comma-separated shears")
    mode.add_argument("--lengths", type=_three_lengths,
                      help="three comma-separated positive cuff lengths")
    mode.add_argument("--random", type=int,
                      help="verify the trace identity on N random triples")
    pants.add_argument("--signs", type=_three_signs,
                       help="three spiral signs (-1 or 1) for --lengths (default 1,1,1)")
    pants.add_argument("--seed", type=int, help="seed for --random (default 0)")
    pants.add_argument("--tol", type=_tolerance,
                       help="trace-defect tolerance for --random (default 1e-9)")
    pants.set_defaults(func=_cmd_pants)

    dev = sub.add_parser("develop", parents=[shared],
                         help="place triangles for crossing words")
    dev.add_argument("--config", required=True, help="triangulation JSON")
    dev.add_argument("--words", type=_words, default=[()],
                     help="semicolon-separated crossing words")
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
                       help="semicolon-separated target points x,y (lamination mode)")
    quake.set_defaults(func=_cmd_earthquake)

    verify = sub.add_parser("verify", parents=[shared],
                            help="run a verifier and write its report")
    verify.add_argument("kind", choices=("fundamental-lemma", "conjugacy"))
    verify.add_argument("--config", required=True)
    verify.add_argument("--ts", type=_finites, required=True,
                        help="comma-separated sample times")
    verify.add_argument("--cuffs", type=_cuff_ids,
                        help="comma-separated cuff ids for conjugacy arcs")
    verify.add_argument("--tol", type=_tolerance, default=None,
                        help="verification tolerance (default the verifier's own)")
    verify.add_argument("--format", choices=("json", "csv"), default="json")
    verify.set_defaults(func=_cmd_verify)

    render = sub.add_parser("render", parents=[shared],
                            help="disk-model SVG of triangles and leaves")
    render.add_argument("--config", required=True, help="render spec JSON")
    render.add_argument("--format", choices=("svg",), default="svg")
    render.set_defaults(func=_cmd_render)
    return parser


# numeric flags; argparse reads a value such as "-1,2" or "-1e-3" as an
# unknown flag, because it is not a plain negative number, so a value that
# starts with a minus and a digit is attached to its flag as --flag=-1,2
_NUMERIC_FLAGS = frozenset(("--shears", "--lengths", "--signs", "--ts", "--base", "--targets",
                            "--cuffs", "--t", "--tol"))
_NEGATIVE_LEAD = re.compile(r"-\.?\d")


def _attach_negative_values(argv) -> list[str]:
    out = []
    for arg in argv:
        if out and out[-1] in _NUMERIC_FLAGS and _NEGATIVE_LEAD.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


# a longer refusal line prints its head and full length; the bound leaves room
# for a number token _load_json shows whole (1000 characters) and a file path
_LINE_BOUND = 1200


# a schema refusal prints its first _POINTER_BOUND pointers, then how many more
# there were, so a document with 20000 broken items prints 11 lines, not 20000
_POINTER_BOUND = 10


def _refuse(line: str) -> None:
    if len(line) > _LINE_BOUND:
        tail = f"... ({len(line)} characters)"
        line = line[:_LINE_BOUND - len(tail)] + tail
    print(line, file=sys.stderr)


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return args.func(args)
    except SchemaError as exc:
        for path, message in exc.pointers[:_POINTER_BOUND]:
            _refuse(f"input error at {path}: {message}")
        if len(exc.pointers) > _POINTER_BOUND:
            _refuse(f"input error: {len(exc.pointers) - _POINTER_BOUND} more pointers not shown")
        return 2
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        _refuse(f"input error: {exc}")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
