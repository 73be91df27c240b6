"""The config reader against jsonschema and the packaged schema, which no
run reads: on every top-level key but the four kinded objects, load_config
accepts and rejects what jsonschema does, and a kinded object that
jsonschema rejects makes the run that builds it exit 2."""

import contextlib
import io
import json
import math
import tempfile
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from equimean.cli import ConfigError, _non_finite_path, load_config, main

SCHEMA = json.loads(
    resources.files("equimean").joinpath("schemas/config.schema.json").read_text()
)
REFERENCE = jsonschema.Draft202012Validator(SCHEMA)
SYM_BOX = {"kind": "box", "params": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}}
# each kinded object that the schema describes past its type, and the run
# that builds it from a config otherwise valid
BUILT_BY = {
    "space": ("estimate-lambda", {"mean": "arithmetic:2"}),
    "retraction": ("deform-fixed", {"space": SYM_BOX, "action": {"name": "reflection", "axis": 1},
                                    "mean": "arithmetic:2", "samples": 1}),
}


def agrees(cfg) -> bool:
    """jsonschema's verdict on ``cfg``, after checking that load_config
    reaches it: a config that holds no NaN or infinity, which load_config
    refuses first, loads iff jsonschema finds no fault outside the kinded
    objects, and then as its own values, where 3.0 == 3. Each kinded object
    with a fault makes the run that builds it exit 2, naming its path."""
    errors = list(REFERENCE.iter_errors(cfg))
    inner = {e.absolute_path[0] for e in errors if e.absolute_path
             and e.absolute_path[0] in BUILT_BY and isinstance(cfg[e.absolute_path[0]], dict)}
    outer = [e for e in errors if not (e.absolute_path and e.absolute_path[0] in inner)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        try:
            loaded = load_config(str(path))
        except ConfigError:
            loaded = None
        assert (loaded is not None) == (not outer and _non_finite_path(cfg) is None), cfg
        if loaded is not None:
            assert loaded == cfg
            for key in inner:
                experiment, rest = BUILT_BY[key]
                path.write_text(json.dumps({**rest, key: cfg[key]}))
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main([experiment, "--config", str(path), "--out", tmp])
                assert code == 2 and f"{key}." in err.getvalue(), (cfg, err.getvalue())
    return not errors


def _subschemas(schema):
    """Every schema node below ``schema``, itself included."""
    yield schema
    for key in ("properties", "$defs"):
        for sub in schema.get(key, {}).values():
            yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


ENUM_STRINGS = sorted({
    s for node in _subschemas(SCHEMA) for s in node.get("enum", ()) if isinstance(s, str)
})
FLOATS = [0.0, -0.0, 0.5, -0.5, 1.0, 1.5, 2.0, 3.0, -2.0, 1e-9, 1e300, 2.0**70,
          math.nan, math.inf, -math.inf]
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1, 2, 3, 10**30, -(10**30)]),
    st.integers(),
    st.sampled_from(FLOATS),
    st.floats(),
    st.sampled_from(ENUM_STRINGS + ["", "M3", "geometric"]),
)
values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "params", "a", "extra"]), inner, max_size=2),
    max_leaves=5,
)
SCALARS = [None, True, False, 0, 1, -1, 2, 3, 10**30, -(10**30), *FLOATS, 2.5, "", "x",
           *ENUM_STRINGS]
EDGE_VALUES = [
    *SCALARS,
    *([v] for v in SCALARS),
    [], [0.25, 0.75], [0.25, 0.75, 1.0], [0, 1.0], [True, 1.0], [0, 1, 2], [0, -1],
    {}, {"extra": 1}, {"params": {}}, {"kind": "interval", "params": {"a": 0.0}},
    {"kind": "interval", "extra": 1}, {"kind": "constant", "point": [0.5]},
    {"kind": "constant", "point": "x"}, {"kind": "zero_coordinate", "axis": -1},
    {"kind": "zero_coordinate", "axis": 1.0, "extra": True}, {"kind": True},
]


@pytest.mark.parametrize("name", sorted(SCHEMA["properties"]))
def test_every_property_agrees_with_jsonschema_on_edge_values(name):
    # the root requires nothing, so a one-key config is valid iff its value is
    verdicts = set()
    for value in EDGE_VALUES:
        verdicts.add(agrees({name: value}))
    assert verdicts == {True, False}


BY_TYPE = {
    "integer": st.sampled_from([0, 1, 2, 3.0, -1, 10**30]),
    "number": st.sampled_from(FLOATS) | st.integers(-3, 3),
    "string": st.sampled_from(ENUM_STRINGS + ["", "1/8"]),
    "boolean": st.booleans(),
    "object": st.dictionaries(st.sampled_from(["kind", "a", "extra"]), values, max_size=2),
}


def near(schema):
    """Values at and around the edges of ``schema``, valid and not."""
    if "$ref" in schema:
        schema = SCHEMA["$defs"][schema["$ref"].rsplit("/", 1)[1]]
    options = [values]
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    for name in types:
        if name == "array":  # lengths just inside and just outside the bounds
            low = max(0, schema.get("minItems", 0) - 1)
            options.append(st.lists(near(schema.get("items", {})), min_size=low,
                                    max_size=schema.get("maxItems", 2) + 1))
        elif name != "object" or "properties" not in schema:
            options.append(BY_TYPE[name])
    if "enum" in schema:
        options.append(st.sampled_from(schema["enum"]))
    for key in ("minimum", "exclusiveMinimum", "exclusiveMaximum"):
        if key in schema:
            edge = schema[key]
            options.append(st.sampled_from(
                [edge, edge + 1, edge - 1, edge + 0.5, float(edge), math.nan, math.inf, True]
            ))
    if "number" in types:  # in range, and so valid unless the type says otherwise
        options.append(st.floats(
            min_value=schema.get("minimum", schema.get("exclusiveMinimum")),
            max_value=schema.get("exclusiveMaximum"),
            exclude_min="exclusiveMinimum" in schema,
            exclude_max="exclusiveMaximum" in schema,
            allow_nan=False,
        ))
    if "integer" in types:
        options.append(st.integers(min_value=schema.get("minimum")))
    if "properties" in schema:
        # space and retraction objects, with and without kind and extra keys
        optional = {k: near(sub) for k, sub in schema["properties"].items()}
        options.append(st.fixed_dictionaries({}, optional={**optional, "extra": values}))
    return st.one_of(options)


NEAR = {name: near(sub) for name, sub in SCHEMA["properties"].items()}
NEAR.update(unknown=values, girdstep=values)
# one key, whose value alone decides, or a few keys that must all be valid
configs = st.lists(st.sampled_from(sorted(NEAR)), min_size=1, max_size=1) | st.lists(
    st.sampled_from(sorted(NEAR)), max_size=5, unique=True
)
configs = configs.flatmap(lambda keys: st.fixed_dictionaries({k: NEAR[k] for k in keys}))


@settings(max_examples=500, deadline=None)
@given(configs)
@example({"space": {"kind": "interval", "params": {}}, "mean": "geometric", "lambda": 0.5,
          "theta": [1.0], "x": 1.5, "times": 3.0, "laws": ["M1"]})
@example({"retraction": {"kind": "constant", "point": [0.5, math.nan], "other": 1}})
@example({"lambda": math.nan, "tol": math.inf, "seed": True, "depth": 3.5,
          "expect_lambda": [0, 1, 2]})
@example({"expect_lambda": [0.25, 0.75], "subgroup": [0, 1.0], "times": 10**40})
@example([{"mean": "geometric"}])
@example(None)
def test_agrees_with_jsonschema(cfg):
    agrees(cfg)
