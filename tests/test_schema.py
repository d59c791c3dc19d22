"""The in-house schema check against jsonschema, its oracle.

Documents are drawn valid from each schema and then broken in one to three
places; ``formats.check_schema`` and ``jsonschema.validate`` (Draft 2020-12,
as ``validator_for`` picks for these schemas) must agree on accept or reject,
and on the message and path of the error they report.
"""

import copy
import functools

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.exceptions import best_match

from metadisk import formats
from metadisk.errors import MetadiskError, SchemaViolation

SCHEMAS = {name: getattr(formats, name) for name in dir(formats)
           if name.endswith("_SCHEMA")}
SCHEMAS["COMPLEX_PAIR"] = formats.COMPLEX_PAIR
KEYWORDS = {"type", "properties", "required", "additionalProperties", "items",
            "minItems", "maxItems", "minimum", "enum"}

# replacements: wrong types (True, 1.0, a string, a list), negatives, an
# unknown enum value, and values that are valid in some other place
ODD_VALUES = (True, False, None, 0, 1, -1, 1.0, 2.5, -1.5, float("nan"), "x",
              "cauchy", "unknown", [], [1.0], [1.0, 2.0, 3.0], [[1.0, 0.0]],
              {}, {"terms": []})
ODD_KEYS = ("extra", "n", "m", "re", "coeffs", "terms", "type")


def documents(schema):
    """Valid documents of a schema built from the keywords in KEYWORDS."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "object":
        if "properties" not in schema:
            return st.dictionaries(st.text(max_size=3),
                                   st.integers() | st.text(max_size=3),
                                   max_size=2)
        required = {name: documents(schema["properties"][name])
                    for name in schema["required"]}
        optional = {name: documents(sub)
                    for name, sub in schema["properties"].items()
                    if name not in required}
        return st.fixed_dictionaries(required, optional=optional)
    if kind == "array":
        low = schema.get("minItems", 0)
        return st.lists(documents(schema["items"]), min_size=low,
                        max_size=schema.get("maxItems", low + 2))
    if kind == "integer":
        ints = st.integers(schema.get("minimum", -3), 8)
        return ints | ints.map(float)
    if kind == "number":
        return st.integers(-3, 3) | st.floats(width=32)
    return st.text(max_size=4)


def nodes(doc, path=()):
    """(path, value) of every value in a document, the root first."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from nodes(value, path + (i,))


VALID = {name: documents(schema) for name, schema in SCHEMAS.items()}


@st.composite
def valid_and_mutated(draw, name):
    """A valid document, and a copy with one to three changes at any depths."""
    valid = draw(VALID[name])
    doc = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        places = list(nodes(doc))
        path, node = places[draw(st.integers(0, len(places) - 1))]
        ops = ["replace"]
        if isinstance(node, dict):
            ops += ["add"] + ["drop"] * bool(node)
        if isinstance(node, list):
            ops += ["append"] + ["shorten"] * bool(node)
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            ops.append("negate")
        op = draw(st.sampled_from(ops))
        if op == "replace":
            new = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        elif op == "add":
            new = {**node, draw(st.sampled_from(ODD_KEYS)):
                   copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))}
        elif op == "drop":
            key = draw(st.sampled_from(sorted(node)))
            new = {k: v for k, v in node.items() if k != key}
        elif op == "append":
            new = node + [copy.deepcopy(node[-1] if node
                                        else draw(st.sampled_from(ODD_VALUES)))]
        elif op == "shorten":
            new = node[:-1]
        else:
            new = -1 - abs(node)
        if not path:
            doc = new
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = new
    return valid, doc


@functools.cache
def oracle(name):
    """``jsonschema.validate`` without checking the schema on every call;
    test_cli checks every schema against its metaschema once."""
    schema = SCHEMAS[name]
    return jsonschema.validators.validator_for(schema)(schema)


def check_both(doc, name):
    """Check one document both ways; jsonschema's best match, or None."""
    schema = SCHEMAS[name]
    reference = best_match(oracle(name).iter_errors(doc))
    if reference is not None:
        with pytest.raises(SchemaViolation) as ours:
            formats.check_schema(doc, schema)
        assert ours.value.message == reference.message
        assert list(ours.value.path) == list(reference.path)
    else:
        formats.check_schema(doc, schema)
    return reference


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=100)
@given(data=st.data())
def test_drawn_documents_agree_with_jsonschema(name, data):
    valid, doc = data.draw(valid_and_mutated(name))
    assert check_both(valid, name) is None
    check_both(doc, name)


def test_every_schema_uses_only_the_checked_keywords():
    for name, schema in SCHEMAS.items():
        for path, node in nodes(schema):
            if isinstance(node, dict) and path[-1:] != ("properties",):
                assert set(node) <= KEYWORDS, (name, path)
                assert node.get("additionalProperties", False) is False


@pytest.mark.parametrize("doc, message, path", [
    # Draft 2020-12 types: 1.0 is an integer, True is neither an integer nor
    # a number, NaN is a number
    ({"order": 1.0, "samples": "s.csv"}, None, None),
    ({"order": True, "samples": "s.csv"}, "True is not of type 'integer'",
     ["order"]),
    ({"order": 1.5, "samples": "s.csv"}, "1.5 is not of type 'integer'",
     ["order"]),
    ({"order": 0.0, "samples": "s.csv"}, "0.0 is less than the minimum of 1",
     ["order"]),
    # a type error outranks the minimum error at the same place
    ({"order": -0.5, "samples": "s.csv"}, "-0.5 is not of type 'integer'",
     ["order"]),
    # the shallowest error wins, then the greatest of equally deep paths
    ({"order": "1", "samples": 2, "x": 0},
     "Additional properties are not allowed ('x' was unexpected)", []),
    ({"order": "1", "samples": 2}, "2 is not of type 'string'", ["samples"]),
    ({"samples": 2}, "'order' is a required property", []),
])
def test_draft_2020_12_semantics_and_best_match(doc, message, path):
    reference = check_both(doc, "DECOMPOSE_CONFIG_SCHEMA")
    if message is None:
        assert reference is None
    else:
        assert (reference.message, list(reference.path)) == (message, path)


def test_nan_is_a_number_and_true_is_not():
    pair = formats.COMPLEX_PAIR
    formats.check_schema([float("nan"), 1.0], pair)
    with pytest.raises(SchemaViolation, match="True is not of type 'number'"):
        formats.check_schema([1.0, True], pair)


def test_schema_violation_is_bad_input_not_a_numerical_failure():
    assert issubclass(SchemaViolation, ValueError)
    assert not issubclass(SchemaViolation, MetadiskError)


def test_unknown_schema_keyword_raises():
    with pytest.raises(NotImplementedError, match="pattern"):
        formats.check_schema("x", {"type": "string", "pattern": "y"})
