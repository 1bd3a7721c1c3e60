"""Published JSON schemas and canonical serialization.

JSON is the single source format; every emitted document validates
against the schemas here.  Numbers are written with 17 significant
digits and object keys sorted, so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import json
import math

# the layers are imported by the *_from_json functions that build their
# objects, so validating and emitting load none of them

_INTEGER = {"type": "integer"}
_NUMBER = {"type": "number"}
_NUMBER_OR_INF = {"oneOf": [_NUMBER, {"const": "inf"}]}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NONNEGATIVE = {"type": "number", "minimum": 0}


def _pair(items, key="items"):
    """An array of exactly two items, each of schema `items`; with
    key="prefixItems", `items` lists the schema of the first and the second."""
    return {"type": "array", "minItems": 2, "maxItems": 2, key: items}


def _object(required, properties):
    return {"type": "object", "required": required, "properties": properties}


def _objects(required, properties):
    return {"type": "array", "items": _object(required, properties)}


_NUMBER_PAIR = _pair(_NUMBER)
# the (triangle or pants id, side) at each end of an edge or a cuff
_INCIDENCES = _pair(_pair(_INTEGER))

TRIANGULATION_SCHEMA = _object(["triangles", "edges"], {
    "triangles": {"type": "array", "items": _INTEGER, "minItems": 1},
    "edges": _objects(["id", "sides", "shear"],
                      {"id": _INTEGER, "sides": _INCIDENCES, "shear": _NUMBER}),
})

LAMINATION_SCHEMA = _object(["leaves"], {
    "leaves": _objects(["endpoints", "weight"],
                       {"endpoints": _pair(_NUMBER_OR_INF), "weight": _POSITIVE}),
})

SURFACE_SCHEMA = _object(["pants", "gluings"], {
    "pants": _objects(["id"], {"id": _INTEGER}),
    "gluings": _objects(["cuffs", "length", "twist"], {
        "cuffs": _INCIDENCES,
        "length": _POSITIVE,
        "twist": _NUMBER,
        "spiral_signs": _pair({"enum": [-1, 1]}),
    }),
    "weights": {
        "type": "object",
        "additionalProperties": _NONNEGATIVE,
    },
})

REPORT_SCHEMA = _object(["samples", "max_residual", "tolerance", "passed"], {
    "samples": _objects(["t", "measured", "predicted"],
                        {"t": _NUMBER, "measured": _NUMBER_PAIR, "predicted": _NUMBER_PAIR}),
    "max_residual": _NUMBER,
    "tolerance": _NUMBER,
    "passed": {"type": "boolean"},
})

CHAIN_SCHEMA = _object(["steps", "weights"], {
    "steps": {
        "type": "array",
        "minItems": 1,
        "items": _pair([{"type": "integer", "enum": [0, 1, 2]}, _NUMBER], key="prefixItems"),
    },
    "weights": {
        "type": "array",
        "items": _NONNEGATIVE,
    },
})

TRANSPORT_SCHEMA = {
    "type": "object",
    "oneOf": [
        {"required": ["factors"]},
        {"required": ["spike", "depths"]},
    ],
    "properties": {
        "factors": _objects(["matrix"], {"matrix": _pair(_NUMBER_PAIR), "order_key": _NUMBER}),
        "spike": _object(["edges", "vertex"],
                         {"edges": _pair(_pair(_NUMBER_OR_INF)), "vertex": _NUMBER_OR_INF}),
        "depths": {"type": "array", "items": _NUMBER, "minItems": 1},
    },
}

RENDER_SCHEMA = {
    "type": "object",
    "properties": {
        "triangulation": TRIANGULATION_SCHEMA,
        "words": {
            "type": "array",
            "items": {"type": "array", "items": _INTEGER},
        },
        "lamination": LAMINATION_SCHEMA,
        "objects": {
            "type": "array",
            "minItems": 1,
            "items": {"enum": ["triangles", "leaves", "tangency", "arcs"]},
        },
        "arcs": {"type": "array", "items": _pair(_NUMBER_PAIR)},
        "stroke_width": _POSITIVE,
    },
}


class SchemaError(ValueError):
    """Input document violates its schema; carries JSON pointer paths."""

    def __init__(self, pointers):
        self.pointers = pointers
        super().__init__("; ".join(f"{path}: {msg}" for path, msg in pointers))


def validate(document, schema) -> None:
    """Raise SchemaError naming every place where `document` breaks `schema`.

    A JSON Schema 2020-12 validator for the keywords the schemas above
    use, with jsonschema's wording of each message; the pairs are sorted
    by path, in schema order within one path.
    """
    errors = sorted(_errors(document, schema, ()), key=lambda e: e[0])
    if errors:
        raise SchemaError([(_pointer(*path), msg) for path, msg in errors])


def _pointer(*tokens) -> str:
    """The JSON pointer to the value at `tokens`, keys and indices, each
    escaped as RFC 6901 says ("~" as "~0", "/" as "~1"); "/" for the root."""
    return "/" + "/".join(str(t).replace("~", "~0").replace("/", "~1") for t in tokens)


def cuff_id(text: str) -> int | None:
    """The integer k whose str(k) is `text`, else None: a cuff is named by its
    index in this spelling alone, so "00", "+1", " 2" and "٣" name none."""
    try:
        k = int(text)
    except ValueError:
        return None
    return k if str(k) == text else None


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "number": _is_number,
    # 2020-12 counts an integral float such as 1.0 as an integer
    "integer": lambda x: _is_number(x) and (isinstance(x, int) or x.is_integer()),
}


def _equal(x, value) -> bool:
    # enum and const values here are scalars; true never equals 1
    return x == value and isinstance(x, bool) == isinstance(value, bool)


def _errors(x, schema, path):
    """Yield (path, message) for each keyword of `schema` that `x` breaks."""
    for key, value in schema.items():
        if key == "type":
            if not _TYPES[value](x):
                yield path, f"{x!r} is not of type {value!r}"
        elif key == "enum":
            if not any(_equal(x, v) for v in value):
                yield path, f"{x!r} is not one of {value!r}"
        elif key == "const":
            if not _equal(x, value):
                yield path, f"{value!r} was expected"
        elif key == "oneOf":
            valid = [s for s in value if not any(_errors(x, s, path))]
            if not valid:
                yield path, f"{x!r} is not valid under any of the given schemas"
            elif len(valid) > 1:
                others = ", ".join(map(repr, valid[1:] + valid[:1]))
                yield path, f"{x!r} is valid under each of {others}"
        elif key == "minimum":
            if _is_number(x) and x < value:
                yield path, f"{x!r} is less than the minimum of {value!r}"
        elif key == "exclusiveMinimum":
            if _is_number(x) and x <= value:
                yield path, f"{x!r} is less than or equal to the minimum of {value!r}"
        elif key == "required":
            if isinstance(x, dict):
                for name in value:
                    if name not in x:
                        yield path, f"{name!r} is a required property"
        elif key == "properties":
            if isinstance(x, dict):
                for name, sub in value.items():
                    if name in x:
                        yield from _errors(x[name], sub, path + (name,))
        elif key == "additionalProperties":
            if isinstance(x, dict):
                known = schema.get("properties", {})
                for name in x:
                    if name not in known:
                        yield from _errors(x[name], value, path + (name,))
        elif key == "minItems":
            if isinstance(x, list) and len(x) < value:
                yield path, f"{x!r} {'should be non-empty' if value == 1 else 'is too short'}"
        elif key == "maxItems":
            if isinstance(x, list) and len(x) > value:
                yield path, f"{x!r} {'is expected to be empty' if value == 0 else 'is too long'}"
        elif key == "prefixItems":
            if isinstance(x, list):
                for i, (item, sub) in enumerate(zip(x, value)):
                    yield from _errors(item, sub, path + (i,))
        elif key == "items":
            if isinstance(x, list):
                for i in range(len(schema.get("prefixItems", ())), len(x)):
                    yield from _errors(x[i], value, path + (i,))
        else:
            raise NotImplementedError(f"schema keyword {key!r} is not implemented")


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, 17 significant digit floats."""
    return _emit(obj) + "\n"


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("cannot serialize non-finite float")
        text = format(obj, ".17g")
        return text
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit(x) for x in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        return "{" + ",".join(json.dumps(str(k)) + ":" + _emit(v) for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def triangulation_from_json(doc) -> ShearTriangulation:
    from .triangle import Edge, ShearTriangulation
    validate(doc, TRIANGULATION_SCHEMA)
    return ShearTriangulation(
        triangles=tuple(int(t) for t in doc["triangles"]),
        edges=tuple(
            Edge(int(e["id"]), _int_pairs(e["sides"]), float(e["shear"]))
            for e in doc["edges"]
        ),
    )


def _int_pairs(pairs) -> tuple[tuple[int, int], tuple[int, int]]:
    # the schemas accept integral floats such as 1.0 as integers
    (a, b), (c, d) = pairs
    return (int(a), int(b)), (int(c), int(d))


def lamination_from_json(doc) -> DiscreteLamination:
    from .lamination import DiscreteLamination
    validate(doc, LAMINATION_SCHEMA)
    return DiscreteLamination.from_pairs(
        (leaf["endpoints"], float(leaf["weight"])) for leaf in doc["leaves"])


def surface_from_json(doc) -> tuple[FNSurface, WeightedMulticurve]:
    """The surface and its multicurve, which needs a positive weight.  A weight
    key names cuff k, k in range(len(gluings)), written as cuff_id reads it:
    "00", "+1" or "5" on three gluings is refused, one pointer per key."""
    from .surface import FNSurface, Gluing, WeightedMulticurve
    validate(doc, SURFACE_SCHEMA)
    surface = FNSurface(
        pants=tuple(int(p["id"]) for p in doc["pants"]),
        gluings=tuple(
            Gluing(
                cuffs=_int_pairs(g["cuffs"]),
                length=float(g["length"]),
                spiral_signs=tuple(int(sign) for sign in g.get("spiral_signs", [1, 1])),
            )
            for g in doc["gluings"]
        ),
        twists=tuple(float(g["twist"]) for g in doc["gluings"]),
    )
    weights = doc.get("weights", {})
    cuffs = range(len(surface.gluings))
    unknown = [key for key in weights if cuff_id(key) not in cuffs]
    if unknown:
        ids = [str(k) for k in cuffs]
        raise SchemaError([(_pointer("weights", key), f"{key!r} is not one of the cuff ids {ids}")
                           for key in unknown])
    return surface, WeightedMulticurve({cuff_id(key): float(w) for key, w in weights.items()})


def surface_to_json(s: FNSurface, mc: WeightedMulticurve) -> dict:
    return {
        "pants": [{"id": p} for p in s.pants],
        "gluings": [
            {
                "cuffs": [list(g.cuffs[0]), list(g.cuffs[1])],
                "length": g.length,
                "twist": twist,
                "spiral_signs": list(g.spiral_signs),
            }
            for g, twist in zip(s.gluings, s.twists)
        ],
        "weights": {str(k): v for k, v in sorted(mc.weights.items())},
    }


def chain_from_json(doc) -> ChainConfiguration:
    from .conjugacy import ChainConfiguration
    validate(doc, CHAIN_SCHEMA)
    if len(doc["weights"]) != len(doc["steps"]):
        raise SchemaError([(_pointer("weights"), "need exactly one weight per step")])
    return ChainConfiguration.from_steps(
        [(int(s[0]), float(s[1])) for s in doc["steps"]],
        [float(w) for w in doc["weights"]],
    )


def report_to_json(report: VerificationReport) -> dict:
    return {
        "samples": [
            {"t": s.t, "measured": list(s.measured), "predicted": list(s.predicted)}
            for s in report.samples
        ],
        "max_residual": report.max_residual,
        "tolerance": report.tolerance,
        "passed": report.passed,
    }


def report_to_csv(report: VerificationReport) -> str:
    lines = ["t,measured_x,measured_y,predicted_x,predicted_y"]
    for s in report.samples:
        fields = (s.t, s.measured[0], s.measured[1], s.predicted[0], s.predicted[1])
        lines.append(",".join(format(x, ".17g") for x in fields))
    return "\n".join(lines) + "\n"
