"""Published JSON schemas and canonical serialization.

JSON is the single source format; every emitted document validates
against the schemas here.  Numbers are written with 17 significant
digits and object keys sorted, so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import json
import math

from .conjugacy import ChainConfiguration, VerificationReport
from .hyp import Geodesic
from .lamination import DiscreteLamination, Leaf
from .surface import FNSurface, Gluing, WeightedMulticurve
from .triangle import Edge, ShearTriangulation

_NUMBER_OR_INF = {"oneOf": [{"type": "number"}, {"const": "inf"}]}

TRIANGULATION_SCHEMA = {
    "type": "object",
    "required": ["triangles", "edges"],
    "properties": {
        "triangles": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
        "edges": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "sides", "shear"],
                "properties": {
                    "id": {"type": "integer"},
                    "sides": {
                        "type": "array",
                        "minItems": 2,
                        "maxItems": 2,
                        "items": {
                            "type": "array",
                            "minItems": 2,
                            "maxItems": 2,
                            "items": {"type": "integer"},
                        },
                    },
                    "shear": {"type": "number"},
                },
            },
        },
    },
}

LAMINATION_SCHEMA = {
    "type": "object",
    "required": ["leaves"],
    "properties": {
        "leaves": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["endpoints", "weight"],
                "properties": {
                    "endpoints": {
                        "type": "array",
                        "minItems": 2,
                        "maxItems": 2,
                        "items": _NUMBER_OR_INF,
                    },
                    "weight": {"type": "number", "exclusiveMinimum": 0},
                },
            },
        },
    },
}

SURFACE_SCHEMA = {
    "type": "object",
    "required": ["pants", "gluings"],
    "properties": {
        "pants": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id"],
                "properties": {"id": {"type": "integer"}},
            },
        },
        "gluings": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["cuffs", "length", "twist"],
                "properties": {
                    "cuffs": {
                        "type": "array",
                        "minItems": 2,
                        "maxItems": 2,
                        "items": {
                            "type": "array",
                            "minItems": 2,
                            "maxItems": 2,
                            "items": {"type": "integer"},
                        },
                    },
                    "length": {"type": "number", "exclusiveMinimum": 0},
                    "twist": {"type": "number"},
                    "spiral_signs": {
                        "type": "array",
                        "minItems": 2,
                        "maxItems": 2,
                        "items": {"enum": [-1, 1]},
                    },
                },
            },
        },
        "weights": {
            "type": "object",
            "additionalProperties": {"type": "number", "minimum": 0},
        },
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["samples", "max_residual", "tolerance", "passed"],
    "properties": {
        "samples": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["t", "measured", "predicted"],
                "properties": {
                    "t": {"type": "number"},
                    "measured": {
                        "type": "array", "minItems": 2, "maxItems": 2,
                        "items": {"type": "number"},
                    },
                    "predicted": {
                        "type": "array", "minItems": 2, "maxItems": 2,
                        "items": {"type": "number"},
                    },
                },
            },
        },
        "max_residual": {"type": "number"},
        "tolerance": {"type": "number"},
        "passed": {"type": "boolean"},
    },
}

CHAIN_SCHEMA = {
    "type": "object",
    "required": ["steps", "weights"],
    "properties": {
        "steps": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "array",
                "minItems": 2,
                "maxItems": 2,
                "prefixItems": [
                    {"type": "integer", "enum": [0, 1, 2]},
                    {"type": "number"},
                ],
            },
        },
        "weights": {
            "type": "array",
            "items": {"type": "number", "minimum": 0},
        },
    },
}

TRANSPORT_SCHEMA = {
    "type": "object",
    "oneOf": [
        {"required": ["factors"]},
        {"required": ["spike", "depths"]},
    ],
    "properties": {
        "factors": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["matrix"],
                "properties": {
                    "matrix": {
                        "type": "array", "minItems": 2, "maxItems": 2,
                        "items": {
                            "type": "array", "minItems": 2, "maxItems": 2,
                            "items": {"type": "number"},
                        },
                    },
                    "order_key": {"type": "number"},
                },
            },
        },
        "spike": {
            "type": "object",
            "required": ["edges", "vertex"],
            "properties": {
                "edges": {
                    "type": "array", "minItems": 2, "maxItems": 2,
                    "items": {
                        "type": "array", "minItems": 2, "maxItems": 2,
                        "items": _NUMBER_OR_INF,
                    },
                },
                "vertex": _NUMBER_OR_INF,
            },
        },
        "depths": {"type": "array", "items": {"type": "number"}, "minItems": 1},
    },
}

RENDER_SCHEMA = {
    "type": "object",
    "properties": {
        "triangulation": TRIANGULATION_SCHEMA,
        "words": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer"}},
        },
        "lamination": LAMINATION_SCHEMA,
        "objects": {
            "type": "array",
            "minItems": 1,
            "items": {"enum": ["triangles", "leaves", "tangency", "arcs"]},
        },
        "arcs": {
            "type": "array",
            "items": {
                "type": "array", "minItems": 2, "maxItems": 2,
                "items": {
                    "type": "array", "minItems": 2, "maxItems": 2,
                    "items": {"type": "number"},
                },
            },
        },
        "stroke_width": {"type": "number", "exclusiveMinimum": 0},
    },
}


class SchemaError(ValueError):
    """Input document violates its schema; carries JSON pointer paths."""

    def __init__(self, pointers):
        self.pointers = pointers
        super().__init__("; ".join(f"{path}: {msg}" for path, msg in pointers))


def validate(document, schema) -> None:
    import jsonschema  # only validating commands pay for the import

    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(document), key=lambda e: list(e.absolute_path))
    if errors:
        pointers = [
            ("/" + "/".join(str(p) for p in e.absolute_path), e.message)
            for e in errors
        ]
        raise SchemaError(pointers)


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
    validate(doc, TRIANGULATION_SCHEMA)
    return ShearTriangulation(
        triangles=tuple(doc["triangles"]),
        edges=tuple(
            Edge(e["id"], ((e["sides"][0][0], e["sides"][0][1]),
                           (e["sides"][1][0], e["sides"][1][1])), float(e["shear"]))
            for e in doc["edges"]
        ),
    )


def lamination_from_json(doc) -> DiscreteLamination:
    validate(doc, LAMINATION_SCHEMA)
    return DiscreteLamination(tuple(
        Leaf(Geodesic.from_values(leaf["endpoints"][0], leaf["endpoints"][1]),
             float(leaf["weight"]))
        for leaf in doc["leaves"]
    ))


def surface_from_json(doc) -> tuple[FNSurface, WeightedMulticurve | None]:
    validate(doc, SURFACE_SCHEMA)
    surface = FNSurface(
        pants=tuple(p["id"] for p in doc["pants"]),
        gluings=tuple(
            Gluing(
                id=k,
                cuffs=((g["cuffs"][0][0], g["cuffs"][0][1]),
                       (g["cuffs"][1][0], g["cuffs"][1][1])),
                length=float(g["length"]),
                twist=float(g["twist"]),
                spiral_signs=tuple(g.get("spiral_signs", [1, 1])),
            )
            for k, g in enumerate(doc["gluings"])
        ),
    )
    weights = doc.get("weights")
    mc = None
    if weights:
        mc = WeightedMulticurve({int(k): float(v) for k, v in weights.items()})
    return surface, mc


def surface_to_json(s: FNSurface, mc: WeightedMulticurve | None = None) -> dict:
    doc = {
        "pants": [{"id": p} for p in s.pants],
        "gluings": [
            {
                "cuffs": [list(g.cuffs[0]), list(g.cuffs[1])],
                "length": g.length,
                "twist": g.twist,
                "spiral_signs": list(g.spiral_signs),
            }
            for g in s.gluings
        ],
    }
    if mc is not None:
        doc["weights"] = {str(k): v for k, v in sorted(mc.weights.items())}
    return doc


def chain_from_json(doc) -> ChainConfiguration:
    validate(doc, CHAIN_SCHEMA)
    if len(doc["weights"]) != len(doc["steps"]):
        raise SchemaError([("/weights", "need exactly one weight per step")])
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
