"""The in-house schema validator against jsonschema, the reference implementation."""

import copy
import json
import os

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator

from eqlab import schemas
from eqlab.schemas import SchemaError, validate

SCHEMAS = {name: getattr(schemas, name) for name in dir(schemas) if name.endswith("_SCHEMA")}

# each published schema as json.dumps writes it, key order included, since
# the refusals at one path follow schema key order
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "schemas.json"),
          encoding="utf-8") as fh:
    PUBLISHED = json.load(fh)


def _subschemas(schema):
    """`schema` and every schema nested in it; property maps are not schemas."""
    yield schema
    for key, value in schema.items():
        if key == "properties":
            children = value.values()
        else:
            children = value if isinstance(value, list) else [value]
        for child in children:
            if isinstance(child, dict):
                yield from _subschemas(child)


KEYS = sorted({key for schema in SCHEMAS.values() for sub in _subschemas(schema)
               for key in sub.get("properties", ())} | {"0", "1", "x", "a/b", "~x"})
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-10.0, 10.0)
            | st.sampled_from(["inf", "x", ""]))
JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner,
                                                                 max_size=3),
    max_leaves=6,
)


def instances(schema):
    """Documents shaped by `schema`; most are valid, some break a bound or a oneOf."""
    if "enum" in schema:
        values = schema["enum"]
        return st.sampled_from(values + [float(v) for v in values if type(v) is int])
    if "const" in schema:
        return st.just(schema["const"])
    kind = schema.get("type")
    if kind is None:
        return st.one_of([instances(sub) for sub in schema["oneOf"]])
    if kind == "boolean":
        return st.booleans()
    if kind == "integer":
        return st.integers(-2, 4) | st.integers(-2, 4).map(float)
    if kind == "number":
        low = schema.get("minimum", schema.get("exclusiveMinimum", -1e6))
        return (st.floats(low, 1e6, exclude_min="exclusiveMinimum" in schema)
                | st.integers(int(low), 5))
    if kind == "array":
        prefix = [instances(sub) for sub in schema.get("prefixItems", [])]
        low = schema.get("minItems", 0)
        high = schema.get("maxItems", low + 3)
        rest = st.lists(instances(schema["items"]) if "items" in schema else JSON_VALUES,
                        min_size=max(low - len(prefix), 0), max_size=high - len(prefix))
        return st.tuples(st.tuples(*prefix), rest).map(lambda p: list(p[0]) + p[1])
    assert kind == "object"
    props = schema.get("properties", {})
    required = schema.get("required", ())
    doc = st.fixed_dictionaries(
        {k: instances(v) for k, v in props.items() if k in required},
        optional={k: instances(v) for k, v in props.items() if k not in required},
    )
    if "additionalProperties" in schema:
        extra = st.dictionaries(st.sampled_from(["0", "1", "2", "x"]),
                                instances(schema["additionalProperties"]), max_size=3)
        doc = st.tuples(doc, extra).map(lambda p: {**p[1], **p[0]})
    return doc


def _paths(x, path=()):
    yield path
    children = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def mutate(doc, data):
    """Replace, delete or insert at one node of `doc`."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else doc
    op = data.draw(st.sampled_from(["replace", "delete", "insert"]))
    if op == "insert" and isinstance(node, dict):
        node[data.draw(st.sampled_from(KEYS))] = data.draw(JSON_VALUES)
    elif op == "insert" and isinstance(node, list):
        node.insert(data.draw(st.integers(0, len(node))), data.draw(JSON_VALUES))
    elif op == "delete" and path:
        del parent[path[-1]]
    else:
        value = data.draw(JSON_VALUES)
        if not path:
            return value
        parent[path[-1]] = value
    return doc


def escaped(token) -> str:
    """A JSON pointer reference token as RFC 6901 writes it."""
    return str(token).replace("~", "~0").replace("/", "~1")


def reference_pointers(document, schema):
    errors = sorted(Draft202012Validator(schema).iter_errors(document),
                    key=lambda e: list(e.absolute_path))
    return [("/" + "/".join(map(escaped, e.absolute_path)), e.message) for e in errors]


def pointers(document, schema):
    try:
        validate(document, schema)
    except SchemaError as exc:
        return exc.pointers
    return []


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_agrees_with_jsonschema(name, data):
    # same verdict, same pointers in the same order, same messages
    schema = SCHEMAS[name]
    doc = copy.deepcopy(data.draw(instances(schema)))
    for _ in range(data.draw(st.integers(0, 3))):
        doc = mutate(doc, data)
    assert pointers(doc, schema) == reference_pointers(doc, schema)


def test_every_schema_is_published():
    assert sorted(PUBLISHED) == sorted(SCHEMAS)


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_schema_keeps_its_published_bytes(name):
    # a moved key, a changed value or a new key order each fails
    assert json.dumps(SCHEMAS[name]) == json.dumps(PUBLISHED[name])


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_every_keyword_is_implemented(name):
    for sub in _subschemas(SCHEMAS[name]):
        for key, value in sub.items():
            # an unknown keyword or type name raises something other than SchemaError
            pointers(None, {key: value})


def test_unknown_keyword_is_refused():
    with pytest.raises(NotImplementedError, match="'anyOf'"):
        validate(None, {"anyOf": [{"type": "number"}]})


@pytest.mark.parametrize("doc, schema, expected", [
    ({"triangles": "x", "edges": []}, schemas.TRIANGULATION_SCHEMA,
     [("/triangles", "'x' is not of type 'array'")]),
    ({"samples": [], "max_residual": 0, "tolerance": 1, "passed": 1}, schemas.REPORT_SCHEMA,
     [("/passed", "1 is not of type 'boolean'")]),
    ({"leaves": [{"endpoints": [0, 1]}]}, schemas.LAMINATION_SCHEMA,
     [("/leaves/0", "'weight' is a required property")]),
    ({}, schemas.CHAIN_SCHEMA,
     [("/", "'steps' is a required property"), ("/", "'weights' is a required property")]),
    ({"objects": ["tangency", "disk"]}, schemas.RENDER_SCHEMA,
     [("/objects/1", "'disk' is not one of ['triangles', 'leaves', 'tangency', 'arcs']")]),
    ({"steps": [[True, 0.5]], "weights": [1]}, schemas.CHAIN_SCHEMA,
     [("/steps/0/0", "True is not of type 'integer'"),
      ("/steps/0/0", "True is not one of [0, 1, 2]")]),
])
def test_messages(doc, schema, expected):
    with pytest.raises(SchemaError) as info:
        validate(doc, schema)
    assert info.value.pointers == expected


def test_integral_floats_are_integers():
    validate({"steps": [[1.0, 0.5]], "weights": [1]}, schemas.CHAIN_SCHEMA)
    validate({"triangles": [0.0], "edges": []}, schemas.TRIANGULATION_SCHEMA)
    assert pointers({"triangles": [0.5], "edges": []}, schemas.TRIANGULATION_SCHEMA) == [
        ("/triangles/0", "0.5 is not of type 'integer'")]


def test_items_apply_after_prefix_items():
    schema = {"prefixItems": [{"type": "boolean"}], "items": {"type": "integer"}}
    assert pointers([True, 1, 2.0], schema) == []
    expected = [("/0", "1 is not of type 'boolean'"), ("/1", "True is not of type 'integer'")]
    assert pointers([1, True], schema) == expected == reference_pointers([1, True], schema)


def test_additional_properties_skip_named_ones():
    schema = {"properties": {"a": {"type": "boolean"}}, "additionalProperties": {"type": "integer"}}
    assert pointers({"a": True, "b": 1}, schema) == []
    expected = [("/a", "1 is not of type 'boolean'"), ("/b", "True is not of type 'integer'")]
    assert pointers({"a": 1, "b": True}, schema) == expected
    assert expected == reference_pointers({"a": 1, "b": True}, schema)


# a weight key is looked up among the cuff ids "0" to "n-1", never read with
# int(), which took "00" and "+1" for cuff 0 and 1 and let "00" overwrite "0"
SURFACE_DOC = {
    "pants": [{"id": 0}, {"id": 1}],
    "gluings": [
        {"cuffs": [[0, k], [1, k]], "length": 2.0 + k, "twist": 0.1 * k, "spiral_signs": [1, 1]}
        for k in range(3)
    ],
}
NOT_A_CUFF = "is not one of the cuff ids ['0', '1', '2']"


@pytest.mark.parametrize("key", ["0", "1", "2"])
def test_cuff_id_keys_load_and_round_trip(key):
    doc = {**SURFACE_DOC, "weights": {key: 0.5}}
    surface, mc = schemas.surface_from_json(doc)
    assert mc.weights == {int(key): 0.5}
    assert schemas.surface_to_json(surface, mc) == doc


# a key's pointer escapes "~" and "/", so "a/b" is not read as the path /weights/a/b
@pytest.mark.parametrize("key", ["00", "+1", " 1", "1 ", "1_0", "٣", "-0", "-1", "3", "x",
                                 "a/b", "~x"])
def test_other_keys_are_refused_by_pointer(key):
    with pytest.raises(SchemaError) as info:
        schemas.surface_from_json({**SURFACE_DOC, "weights": {"0": 1.0, key: 2.0}})
    assert info.value.pointers == [(f"/weights/{escaped(key)}", f"{key!r} {NOT_A_CUFF}")]


def test_every_bad_key_is_named_at_once():
    with pytest.raises(SchemaError) as info:
        schemas.surface_from_json({**SURFACE_DOC, "weights": {"00": 1.0, "1": 1.0, "x": 2.0}})
    assert info.value.pointers == [("/weights/00", f"'00' {NOT_A_CUFF}"),
                                   ("/weights/x", f"'x' {NOT_A_CUFF}")]
