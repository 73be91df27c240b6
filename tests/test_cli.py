import json
import logging
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import equimean
from equimean import cli
from equimean.cli import ConfigError, load_config, main
from equimean.errors import CapacityError

INTERVAL01 = {"kind": "interval", "params": {"a": 0.0, "b": 1.0}}
SYM_INTERVAL = {"kind": "interval", "params": {"a": -1.0, "b": 1.0}}
SYM_BOX = {"kind": "box", "params": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}}
DATA = Path(__file__).parent / "data"


def write_config(tmp_path: Path, cfg: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_report(outdir: Path) -> dict:
    return json.loads((outdir / "report.json").read_text())


def run(tmp_path, command, cfg, out="out", extra=()):
    path = write_config(tmp_path, cfg)
    outdir = tmp_path / out
    code = main([command, "--config", path, "--out", str(outdir), *extra])
    return code, outdir


def run_child(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(equimean.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)


def test_estimate_lambda_arithmetic(tmp_path):
    cfg = {
        "space": INTERVAL01,
        "mean": "arithmetic:2",
        "grid_step": 1e-3,
        "expect_lambda": [0.499, 0.501],
        "seed": 1,
    }
    code, outdir = run(tmp_path, "estimate-lambda", cfg)
    assert code == 0
    report = read_report(outdir)
    assert 0.499 <= report["results"]["estimate"]["lambda_hat"] <= 0.501
    assert (outdir / "lambda.csv").exists()


def test_estimate_lambda_expectation_failure(tmp_path):
    cfg = {"space": INTERVAL01, "mean": "arithmetic:2", "grid_step": 1e-2,
           "expect_lambda": [0.9, 1.0]}
    code, outdir = run(tmp_path, "estimate-lambda", cfg)
    assert code == 1
    assert read_report(outdir)["passed"] is False


def test_estimate_lambda_grid_over_pairs_cap_exits_2(tmp_path, capsys):
    # 10^6 + 1 points, about 10^12 ordered pairs: refused before the scan
    cfg = {"space": {"kind": "interval", "params": {"a": 1.0, "b": 2.0}},
           "mean": "geometric", "grid_step": 1e-6}
    code, outdir = run(tmp_path, "estimate-lambda", cfg)
    assert code == 2
    assert "exceed the cap 1000000000" in capsys.readouterr().err
    assert not (outdir / "report.json").exists()


def test_chain_positional(tmp_path):
    outdir = tmp_path / "out"
    code = main(["chain", "1/8", "3/4", "--out", str(outdir)])
    assert code == 0
    report = read_report(outdir)
    assert report["results"]["decomposition"]["s_chain"] == ["1/2^3", "1/2^2", "1/2^1"]
    assert report["results"]["decomposition"]["t_chain"] == ["3/2^2", "1/2^1"]


def test_chain_rejects_bad_order(tmp_path):
    outdir = tmp_path / "out"
    assert main(["chain", "3/4", "1/8", "--out", str(outdir)]) == 2


def test_verify_mean_dictator_anonymity_fails(tmp_path):
    cfg = {
        "space": {"kind": "circle", "params": {"radius": 1.0}},
        "mean": "dictator:0",
        "laws": ["M1", "M2"],
        "samples": 50,
    }
    code, outdir = run(tmp_path, "verify-mean", cfg)
    assert code == 1
    report = read_report(outdir)
    assert report["results"]["laws"]["M1"]["passed"] is True
    m2 = report["results"]["laws"]["M2"]
    assert m2["passed"] is False
    assert m2["witness"] is not None and len(m2["witness"]) == 2


def test_verify_mean_arithmetic_passes(tmp_path):
    cfg = {"space": INTERVAL01, "mean": "arithmetic:3",
           "laws": ["M1", "M2", "strict-betweenness"], "samples": 60}
    code, outdir = run(tmp_path, "verify-mean", cfg)
    assert code == 0


def test_verify_mean_equivariance_law(tmp_path):
    cfg = {"space": SYM_INTERVAL, "mean": "arithmetic:2",
           "action": {"name": "negation"}, "laws": ["equivariance"], "samples": 40}
    code, outdir = run(tmp_path, "verify-mean", cfg)
    assert code == 0


def test_schema_violation_exits_2(tmp_path, capsys):
    cfg = {"space": INTERVAL01, "mean": "arithmetic:2", "grid_step": -0.5}
    code, _ = run(tmp_path, "estimate-lambda", cfg)
    assert code == 2
    assert "grid_step" in capsys.readouterr().err


def test_unknown_field_exits_2(tmp_path, capsys):
    cfg = {"space": INTERVAL01, "mean": "arithmetic:2", "girdstep": 0.1}
    code, _ = run(tmp_path, "estimate-lambda", cfg)
    assert code == 2


def test_malformed_json_exits_2_with_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"space": }')
    code = main(["estimate-lambda", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.json:1:" in err


def test_missing_required_field_exits_2(tmp_path, capsys):
    cfg = {"space": INTERVAL01}
    code, _ = run(tmp_path, "estimate-lambda", cfg)
    assert code == 2
    assert "mean" in capsys.readouterr().err


def _packaged_schema() -> dict:
    text = resources.files("equimean").joinpath("schemas/config.schema.json").read_text()
    return json.loads(text)


@pytest.mark.parametrize("cfg", [
    {"space": INTERVAL01, "mean": "arithmetic:2", "grid_step": -0.5},
    {"space": INTERVAL01, "mean": "arithmetic:2", "girdstep": 0.1},
    {"space": INTERVAL01, "laws": ["M1", "M3"], "subgroup": [0, -1]},
    {"space": {"kind": "interval"}, "mean": 3, "times": "many"},
    ["not", "an", "object"],
])
def test_config_errors_are_those_of_jsonschema_validate(tmp_path, cfg):
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(cfg, _packaged_schema())
    with pytest.raises(ConfigError) as got:
        load_config(write_config(tmp_path, cfg))
    assert got.value.__cause__.message == want.value.message
    assert list(got.value.__cause__.absolute_path) == list(want.value.absolute_path)


def test_packaged_schema_is_valid_against_its_meta_schema():
    # load_config leaves this check out of every run
    schema = _packaged_schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_numpy_loads_only_for_grid_scans(tmp_path):
    cfg = write_config(tmp_path, {"space": INTERVAL01, "mean": "arithmetic:2", "grid_step": 0.01})
    child = textwrap.dedent(f"""
        import sys
        import equimean, equimean.cli
        assert "numpy" not in sys.modules, "import"
        assert equimean.cli.main(["chain", "1/8", "3/4", "--out", {str(tmp_path / "chain")!r}]) == 0
        assert "numpy" not in sys.modules, "chain"
        assert equimean.cli.main(["estimate-lambda", "--config", {cfg!r},
                                  "--out", {str(tmp_path / "grid")!r}]) == 0
        assert "numpy" in sys.modules, "grid scan"
        from equimean._kernels import grid_scan_interval
        from equimean.means import mean_from_name
        from equimean.spaces import Interval
        print(grid_scan_interval(mean_from_name("arithmetic:2", Interval(0.0, 1.0)),
                                 0.0, 0.25, 5, 1e-6))
    """)
    out = run_child(child)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "(0.5, 0.0, 0.25, 20)"
    assert read_report(tmp_path / "grid")["results"]["estimate"]["samples"] == 10100


def test_valid_configs_load_no_jsonschema(tmp_path):
    valid = write_config(tmp_path, {"space": INTERVAL01, "mean": "minsq", "grid_step": 0.01,
                                    "x": [0.5], "theta": 0.25, "trust_laws": False})
    laws = write_config(tmp_path, {"space": SYM_BOX, "mean": "arithmetic:2",
                                   "laws": ["M1", "M2"], "samples": 20}, "laws.json")
    invalid = write_config(tmp_path, {"space": INTERVAL01, "grid_step": -0.5}, "bad.json")
    child = textwrap.dedent(f"""
        import sys
        import equimean.cli
        assert "jsonschema" not in sys.modules, "import"
        equimean.cli.load_config({valid!r})
        assert equimean.cli.main(["verify-mean", "--config", {laws!r},
                                  "--out", {str(tmp_path / "laws")!r}]) == 0
        assert equimean.cli.main(["chain", "1/8", "3/4", "--out", {str(tmp_path / "c")!r}]) == 0
        assert "jsonschema" not in sys.modules, "valid configs"
        assert "numpy" not in sys.modules, "numpy"
        assert equimean.cli.main(["estimate-lambda", "--config", {invalid!r},
                                  "--out", {str(tmp_path / "bad")!r}]) == 2
        assert "jsonschema" in sys.modules, "invalid config"
    """)
    out = run_child(child)
    assert out.returncode == 0, out.stderr
    assert "$.grid_step: -0.5 is less than or equal to the minimum of 0" in out.stderr


def test_nan_tolerance_is_refused_before_it_passes_every_check(tmp_path, capsys):
    # NaN > tol is false, so a NaN tolerance used to pass a retraction whose
    # image is not fixed (defect 1) with exit 0
    cfg = {"space": SYM_BOX, "action": {"name": "reflection", "axis": 1},
           "mean": "arithmetic:2", "retraction": {"kind": "constant", "point": [0.5, 0.5]},
           "trust_laws": True, "tol": 1e-9}
    code, _ = run(tmp_path, "deform-fixed", cfg, out="finite")
    assert code == 1
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({**cfg, "tol": float("nan")}))
    capsys.readouterr()
    code = main(["deform-fixed", "--config", str(path), "--out", str(tmp_path / "nan")])
    assert code == 2
    assert capsys.readouterr().err.strip() == f"equimean: {path}: $.tol: not a finite number"
    assert not (tmp_path / "nan" / "report.json").exists()


@pytest.mark.parametrize("text, where", [
    ('{"x": [NaN]}', "$.x[0]"),
    ('{"space": {"kind": "interval", "params": {"a": 0, "b": Infinity}}}', "$.space.params.b"),
    ('{"mean": "geometric", "K": -Infinity}', "$.K"),
    ('{"theta": [0.5, 1e999]}', "$.theta[1]"),
    ('{"group": {"tables": [[0, 1], [1, -1e400]]}}', "$.group.tables[1][1]"),
])
def test_non_finite_numbers_are_config_errors(tmp_path, text, where):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=rf"{path}: {re.escape(where)}: not a finite number"):
        load_config(str(path))


@pytest.fixture
def no_at_time(monkeypatch):
    def at_times(*args):
        raise LookupError("at_times reached")

    monkeypatch.setattr(cli.ContractionBuilder, "at_times", at_times)


def test_build_homotopy_times_cap(tmp_path, no_at_time):
    cfg = {"space": INTERVAL01, "mean": "arithmetic:2", "lambda": 0.5, "theta": [0.0],
           "x": [1.0], "times": cli.TIMES_CAP}
    with pytest.raises(LookupError, match="at_times reached"):
        cli.run_build_homotopy(cfg, tmp_path)
    with pytest.raises(CapacityError, match=f"times {cli.TIMES_CAP + 1} exceed the cap"):
        cli.run_build_homotopy({**cfg, "times": cli.TIMES_CAP + 1}, tmp_path)


def test_build_homotopy_over_times_cap_exits_2(tmp_path, capsys, no_at_time):
    cfg = {"space": INTERVAL01, "mean": "arithmetic:2", "lambda": 0.5, "theta": [0.0],
           "x": [1.0], "times": 10**12}
    code, outdir = run(tmp_path, "build-homotopy", cfg)
    assert code == 2
    assert f"exceed the cap {cli.TIMES_CAP}" in capsys.readouterr().err
    assert not (outdir / "report.json").exists()


def test_grid_report_does_not_name_the_lane(tmp_path, caplog):
    cfg = {"space": INTERVAL01, "mean": "arithmetic:2", "grid_step": 0.25}
    with caplog.at_level(logging.DEBUG, logger="equimean"):
        code, outdir = run(tmp_path, "estimate-lambda", cfg)
    assert code == 0
    results = read_report(outdir)["results"]
    assert "kernel_lane" not in results
    assert results["estimate"]["method"] == "grid"
    assert (outdir / "lambda.csv").read_text().splitlines()[1].split(",")[3] == "grid"
    lines = [r.getMessage() for r in caplog.records if r.name == "equimean"]
    assert lines[-1].endswith(" s, grid, 20 samples")


C4_BOX = {"space": SYM_BOX, "action": {"name": "plane_rotation", "n": 4},
          "mean": "arithmetic:4", "retraction": {"kind": "constant", "point": [0.0, 0.0]}}


# (integer field, experiment, config holding 3 there): each integer field of
# the config schema, in a short run that reads it
INTEGER_FIELDS = [
    ("subgroup", "deform-fixed", {**C4_BOX, "subgroup": [0, 1, 2, 3]}),
    ("restarts", "estimate-lambda", {"space": SYM_BOX, "mean": "arithmetic:2",
                                     "restarts": 3}),
    ("depth", "verify-claim1", {"space": INTERVAL01, "mean": "arithmetic:2", "lambda": 0.5,
                                "theta": [0.0], "x": [1.0], "depth": 3}),
    ("pairs", "verify-holder", {"space": INTERVAL01, "mean": "arithmetic:2", "lambda": 0.5,
                                "theta": [0.0], "x": [1.0], "depth": 4, "pairs": 3}),
    ("samples", "verify-mean", {"space": SYM_BOX, "mean": "arithmetic:2", "samples": 3}),
    ("times", "build-homotopy", {"space": INTERVAL01, "mean": "arithmetic:2", "lambda": 0.5,
                                 "theta": [0.0], "x": [1.0], "times": 3}),
    ("seed", "verify-mean", {"space": SYM_BOX, "mean": "arithmetic:2", "samples": 5,
                             "seed": 3}),
    ("budget", "solomonic-search", {"space": SYM_BOX, "mean": "arithmetic:2", "K": 0.5,
                                    "budget": 3}),
    ("retraction.axis", "deform-fixed", {
        "space": {"kind": "box", "params": {"lo": [-1.0] * 4, "hi": [1.0] * 4}},
        "action": {"name": "reflection", "axis": 3}, "mean": "arithmetic:2",
        "retraction": {"kind": "zero_coordinate", "axis": 3}}),
]


def _with_float_three(cfg: dict, field: str) -> dict:
    """``cfg`` with the 3 at ``field`` written as 3.0."""
    head, _, tail = field.partition(".")
    value = cfg[head]
    if tail:
        value = {**value, tail: 3.0}
    elif isinstance(value, list):
        value = [3.0 if v == 3 else v for v in value]
    else:
        value = 3.0
    return {**cfg, head: value}


@pytest.mark.parametrize("field, command, cfg", INTEGER_FIELDS, ids=[f[0] for f in INTEGER_FIELDS])
def test_integral_float_runs_as_its_int(tmp_path, field, command, cfg):
    floats = _with_float_three(cfg, field)
    assert "3.0" in json.dumps(floats)
    code, ints = run(tmp_path, command, cfg, out="ints")
    assert code in (0, 1)
    assert run(tmp_path, command, floats, out="floats")[0] == code
    assert (ints / "report.json").read_bytes() == (tmp_path / "floats" / "report.json").read_bytes()


@pytest.mark.parametrize("key", ["k", "group"])
def test_removed_config_keys_exit_2(tmp_path, capsys, key):
    # no runner read them; the schema now rejects them as unknown keys
    cfg = {"space": SYM_BOX, "mean": "arithmetic:2", "samples": 5, key: 3}
    code, outdir = run(tmp_path, "verify-mean", cfg)
    assert code == 2
    assert f"{key!r} was unexpected" in capsys.readouterr().err
    assert not (outdir / "report.json").exists()


def test_unexpected_error_traceback_goes_to_the_debug_log(tmp_path, capsys, caplog, monkeypatch):
    def broken(cfg, outdir):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.RUNNERS, "chain", broken)
    with caplog.at_level(logging.WARNING, logger="equimean"):
        assert main(["chain", "1/8", "3/4", "--out", str(tmp_path / "w")]) == 2
    assert not caplog.records
    assert capsys.readouterr().err == "equimean: unexpected error: boom\n"
    with caplog.at_level(logging.DEBUG, logger="equimean"):
        assert main(["chain", "1/8", "3/4", "--out", str(tmp_path / "d")]) == 2
    (record,) = [r for r in caplog.records if r.exc_info]
    assert record.levelno == logging.DEBUG and "chain" in record.getMessage()
    assert record.exc_info[0] is RuntimeError
    assert "in broken" in caplog.text and "RuntimeError: boom" in caplog.text
    assert capsys.readouterr().err == "equimean: unexpected error: boom\n"


def test_experiment_mismatch_exits_2(tmp_path):
    cfg = {"experiment": "chain", "space": INTERVAL01, "mean": "arithmetic:2"}
    code, _ = run(tmp_path, "estimate-lambda", cfg)
    assert code == 2


def test_seed_override_changes_report(tmp_path):
    cfg = {"space": INTERVAL01, "mean": "arithmetic:2", "grid_step": 1e-2, "seed": 1}
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["estimate-lambda", "--config", path, "--out", str(out1)]) == 0
    assert main(["estimate-lambda", "--config", path, "--seed", "9", "--out", str(out2)]) == 0
    assert json.loads((out2 / "report.json").read_text())["config"]["seed"] == 9


def test_byte_identical_reruns(tmp_path):
    cfg = {
        "space": INTERVAL01,
        "mean": "minsq",
        "grid_step": 1e-3,
        "seed": 7,
    }
    path = write_config(tmp_path, cfg)
    outs = []
    for name in ("r1", "r2"):
        outdir = tmp_path / name
        assert main(["estimate-lambda", "--config", path, "--out", str(outdir)]) == 0
        outs.append(
            ((outdir / "report.json").read_bytes(), (outdir / "lambda.csv").read_bytes())
        )
    assert outs[0] == outs[1]


# a short run of each experiment, for reruns under drawn seeds
RERUN_CONFIGS = {
    "verify-mean": {"space": SYM_BOX, "mean": "arithmetic:2", "samples": 20,
                    "laws": ["M1", "M2", "equivariance", "strict-betweenness"],
                    "action": {"name": "reflection", "axis": 1}},
    "estimate-lambda": {"space": SYM_BOX, "mean": "arithmetic:3", "restarts": 3},
    "chain": {"s": "3/16", "t": "13/16"},
    "build-homotopy": {"space": SYM_BOX, "mean": "arithmetic:2", "lambda": 0.5,
                       "theta": [0.0, 0.0], "times": 9, "eps": 1e-3},
    "verify-claim1": {"space": INTERVAL01, "mean": "minsq", "lambda": 0.99, "theta": [0.0],
                      "depth": 6},
    "verify-holder": {"space": {"kind": "interval", "params": {"a": 1.0, "b": 2.0}},
                      "mean": "geometric", "lambda": 0.5857864376269049, "theta": [2.0],
                      "depth": 6, "pairs": 50},
    "symmetrize": {"space": SYM_INTERVAL, "action": {"name": "negation"},
                   "mean": "arithmetic:2", "samples": 8},
    "deform-fixed": {**C4_BOX, "samples": 8},
    "solomonic-search": {"space": SYM_BOX, "mean": "arithmetic:2", "K": 0.5, "budget": 40},
}


def test_rerun_configs_cover_every_experiment():
    assert sorted(RERUN_CONFIGS) == sorted(cli.EXPERIMENTS)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(RERUN_CONFIGS)), st.integers(0, 2 ** 64 - 1))
def test_reruns_are_byte_identical(experiment, seed):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = write_config(tmp, RERUN_CONFIGS[experiment])
        codes, outputs = [], []
        for name in ("r1", "r2"):
            outdir = tmp / name
            codes.append(main([experiment, "--config", path, "--seed", str(seed),
                               "--out", str(outdir)]))
            outputs.append({f.name: f.read_bytes() for f in sorted(outdir.iterdir())})
        assert codes[0] == codes[1]
        assert "report.json" in outputs[0]
        if experiment in ("estimate-lambda", "build-homotopy"):
            assert any(name.endswith(".csv") for name in outputs[0])
        assert outputs[0] == outputs[1]


def test_verify_mean_fails_at_nan_when_the_mean_overflows(tmp_path):
    # 85 of these 200 pairs sum past the largest float: their mean is inf,
    # and the distance between two infs is NaN
    cfg = {"space": {"kind": "interval", "params": {"a": 0.0, "b": 1.7e308}},
           "mean": "arithmetic:2", "laws": ["M2"], "samples": 200, "seed": 1}
    code, outdir = run(tmp_path, "verify-mean", cfg)
    assert code == 1
    m2 = read_report(outdir)["results"]["laws"]["M2"]
    assert math.isnan(m2["max_violation"]) and m2["passed"] is False
    (x,), (y,) = m2["witness"]
    assert math.isinf(x + y)


def test_a_space_whose_length_overflows_exits_2(tmp_path, capsys):
    cfg = {"space": {"kind": "interval", "params": {"a": -1e308, "b": 1e308}},
           "mean": "arithmetic:2", "samples": 3}
    code, outdir = run(tmp_path, "verify-mean", cfg)
    assert code == 2
    assert "finite length b - a, got [-1e+308, 1e+308]" in capsys.readouterr().err
    assert not (outdir / "report.json").exists()


def test_level_sweep_over_the_float_cap_exits_2(tmp_path, capsys):
    box = {"kind": "box", "params": {"lo": [0.0] * 64, "hi": [1.0] * 64}}
    cfg = {"space": box, "mean": "arithmetic:2", "lambda": 0.5, "theta": [0.0] * 64,
           "x": [1.0] * 64, "depth": 20}
    code, outdir = run(tmp_path, "verify-claim1", cfg)
    assert code == 2
    assert "depth 20 in dim 64 exceeds the cap" in capsys.readouterr().err
    assert not (outdir / "report.json").exists()


def test_build_homotopy_trajectory_and_svg(tmp_path):
    cfg = {
        "space": {"kind": "interval", "params": {"a": 1.0, "b": 2.0}},
        "mean": "geometric",
        "lambda": 0.59,
        "theta": [2.0],
        "x": [1.0],
        "eps": 1e-6,
        "times": 33,
        "svg": True,
    }
    code, outdir = run(tmp_path, "build-homotopy", cfg)
    assert code == 0
    csv_bytes = (outdir / "trajectory.csv").read_bytes()
    assert csv_bytes.count(b"\r\n") == 34  # header + 33 rows, RFC 4180 line ends
    svg = (outdir / "trajectory.svg").read_text()
    assert svg.startswith("<?xml") and "<polyline" in svg
    # rerun is byte-identical
    code2, outdir2 = run(tmp_path, "build-homotopy", cfg, out="again")
    assert (outdir2 / "trajectory.svg").read_bytes() == (outdir / "trajectory.svg").read_bytes()
    assert (outdir2 / "trajectory.csv").read_bytes() == csv_bytes


def test_build_homotopy_deep_levels_match_recorded_csv(tmp_path):
    # |x - theta| = 1.5 and eps 1e-9 snap every time to level 33, and the
    # times i/40 land on levels 32 and 33; the CSV was recorded with each
    # dyadic neighbour built as a Dyadic object
    cfg = {"space": {"kind": "box", "params": {"lo": [-2.0, -2.0], "hi": [2.0, 2.0]}},
           "mean": "arithmetic:2", "lambda": 0.5, "theta": [0.0, 0.0], "x": [0.9, -1.2],
           "eps": 1e-9, "times": 41}
    code, outdir = run(tmp_path, "build-homotopy", cfg)
    assert code == 0
    want = (DATA / "trajectory_box_level33.csv").read_bytes()
    assert (outdir / "trajectory.csv").read_bytes() == want


def test_plot_subcommand_matches_inline_svg(tmp_path):
    cfg = {
        "space": {"kind": "interval", "params": {"a": 1.0, "b": 2.0}},
        "mean": "geometric",
        "lambda": 0.59,
        "theta": [2.0],
        "x": [1.5],
        "times": 17,
        "svg": True,
    }
    code, outdir = run(tmp_path, "build-homotopy", cfg)
    assert code == 0
    replot = tmp_path / "replot.svg"
    assert main(["plot", str(outdir / "trajectory.csv"), str(replot)]) == 0
    assert replot.read_bytes() == (outdir / "trajectory.svg").read_bytes()


def test_plot_rejects_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["plot", str(bad), str(tmp_path / "x.svg")]) == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("t,x0,error\r\n")
    assert main(["plot", str(empty), str(tmp_path / "y.svg")]) == 2


def test_verify_claim1_cli(tmp_path):
    cfg = {
        "space": {"kind": "interval", "params": {"a": 1.0, "b": 2.0}},
        "mean": "geometric",
        "lambda": 0.5857864376269049,
        "theta": [2.0],
        "x": [1.0],
        "depth": 10,
    }
    code, outdir = run(tmp_path, "verify-claim1", cfg)
    assert code == 0
    assert read_report(outdir)["results"]["report"]["passed"] is True


def test_verify_claim1_default_start_point(tmp_path):
    # the tracked point may be omitted; it is then sampled from the seed
    cfg = {
        "space": {"kind": "interval", "params": {"a": 1.0, "b": 2.0}},
        "mean": "geometric",
        "lambda": 0.5857864376269049,
        "theta": [2.0],
        "depth": 8,
        "seed": 4,
    }
    code, outdir = run(tmp_path, "verify-claim1", cfg)
    assert code == 0


def test_verify_holder_cli(tmp_path):
    cfg = {
        "space": {"kind": "interval", "params": {"a": 1.0, "b": 2.0}},
        "mean": "geometric",
        "lambda": 0.5857864376269049,
        "theta": [2.0],
        "x": [1.0],
        "depth": 10,
        "pairs": 500,
        "seed": 3,
    }
    code, outdir = run(tmp_path, "verify-holder", cfg)
    assert code == 0
    assert read_report(outdir)["results"]["report"]["violations"] == 0


def test_verify_holder_depth_cap_exits_2(tmp_path, capsys):
    cfg = {
        "space": {"kind": "interval", "params": {"a": 1.0, "b": 2.0}},
        "mean": "geometric",
        "lambda": 0.5857864376269049,
        "theta": [2.0],
        "x": [1.0],
        "depth": 21,
        "pairs": 10,
    }
    code, outdir = run(tmp_path, "verify-holder", cfg)
    assert code == 2
    assert "level sweep" in capsys.readouterr().err
    assert not (outdir / "report.json").exists()


def test_debug_log_names_the_path_and_stays_out_of_the_report(tmp_path, caplog):
    cfg = {
        "space": {"kind": "interval", "params": {"a": 1.0, "b": 2.0}},
        "mean": "geometric",
        "lambda": 0.5857864376269049,
        "theta": [2.0],
        "x": [1.0],
        "depth": 5,
    }
    with caplog.at_level(logging.DEBUG, logger="equimean"):
        code, outdir = run(tmp_path, "verify-claim1", cfg)
    assert code == 0
    lines = [r.getMessage() for r in caplog.records if r.name == "equimean"]
    assert len(lines) == 1
    assert lines[0].startswith("verify-claim1: ")
    assert lines[0].endswith(" s, level arrays 0..5, 63 pairs")
    assert "level arrays" not in (outdir / "report.json").read_text()


def test_symmetrize_cli(tmp_path):
    cfg = {
        "space": SYM_INTERVAL,
        "action": {"name": "negation"},
        "mean": "arithmetic:2",
        "base_homotopy": {"kind": "straight_line_to", "theta": [0.0]},
        "tol": 1e-9,
    }
    code, outdir = run(tmp_path, "symmetrize", cfg)
    assert code == 0
    report = read_report(outdir)
    assert report["results"]["report"]["equivariance_defect"] <= 1e-12


def test_symmetrize_cli_check_failure(tmp_path, capsys):
    cfg = {
        "space": SYM_INTERVAL,
        "action": {"name": "negation"},
        "mean": "dictator:0",
        "base_homotopy": {"kind": "straight_line_to", "theta": [0.0]},
    }
    code, outdir = run(tmp_path, "symmetrize", cfg)
    assert code == 1
    assert read_report(outdir)["passed"] is False


def test_deform_fixed_cli(tmp_path):
    cfg = {
        "space": SYM_BOX,
        "action": {"name": "reflection", "axis": 1},
        "mean": "arithmetic:2",
        "retraction": {"kind": "zero_coordinate", "axis": 1},
        "tol": 1e-9,
    }
    code, outdir = run(tmp_path, "deform-fixed", cfg)
    assert code == 0
    report = read_report(outdir)
    assert report["results"]["report"]["end_slice_fixed_defect"] <= 1e-12


def test_deform_fixed_rejects_subgroup_id_outside_group(tmp_path, capsys):
    cfg = {
        "space": SYM_BOX,
        "action": {"name": "reflection", "axis": 1},
        "mean": "arithmetic:2",
        "subgroup": [0, 7],
    }
    code, _ = run(tmp_path, "deform-fixed", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "subgroup element id 7 outside 0..1" in err
    assert "unexpected error" not in err


def test_solomonic_search_cli(tmp_path):
    cfg = {
        "space": {"kind": "circle", "params": {"radius": 1.0}},
        "mean": "constant:1,0",
        "K": 1.9,
        "budget": 4000,
        "seed": 5,
    }
    code, outdir = run(tmp_path, "solomonic-search", cfg)
    assert code == 0
    assert read_report(outdir)["results"]["search"]["found"] is True


def test_dyadic_base_homotopy_config(tmp_path):
    cfg = {
        "space": SYM_INTERVAL,
        "action": {"name": "negation"},
        "mean": "arithmetic:2",
        "base_homotopy": {
            "kind": "dyadic",
            "mean": "arithmetic:2",
            "lambda": 0.5,
            "theta": [0.0],
            "eps": 1e-9,
        },
    }
    code, outdir = run(tmp_path, "symmetrize", cfg)
    assert code == 0


GEOMETRIC_12 = {"kind": "interval", "params": {"a": 1.0, "b": 2.0}}
# geometric on [1, 2] has lambda 2 - sqrt(2) ~ 0.586; 0.3 understates it
UNDERSTATED = [
    ("build-homotopy", {"space": GEOMETRIC_12, "mean": "geometric", "lambda": 0.3,
                        "theta": [2.0], "x": [1.0], "times": 5}),
    ("symmetrize", {"space": GEOMETRIC_12, "action": {"name": "trivial"}, "mean": "geometric",
                    "base_homotopy": {"kind": "dyadic", "mean": "geometric", "lambda": 0.3,
                                      "theta": [2.0], "eps": 1e-3}}),
]


@pytest.mark.parametrize("command, cfg", UNDERSTATED, ids=[u[0] for u in UNDERSTATED])
def test_understated_lambda_fails_with_the_sampled_pair(tmp_path, capsys, command, cfg):
    code, outdir = run(tmp_path, command, cfg)
    assert code == 1
    report = read_report(outdir)
    assert report["passed"] is False
    error = report["error"]
    match = re.fullmatch(r"sampled contractivity ratio (\S+) at the pair "
                         r"\(\((\S+),\), \((\S+),\)\) exceeds the declared lambda 0\.3; "
                         r"the certified errors would not hold", error)
    assert match, error
    ratio, x, y = (float(g) for g in match.groups())
    m = math.sqrt(x * y)
    assert ratio == pytest.approx(max(abs(x - m), abs(y - m)) / abs(x - y), rel=1e-5)
    assert ratio > 0.3
    assert error in capsys.readouterr().err
    assert not (outdir / "trajectory.csv").exists()


def test_no_command_prints_help():
    assert main([]) == 2


def test_missing_config_file(tmp_path, capsys):
    code = main(["estimate-lambda", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)])
    assert code == 2


GOLDEN = DATA / "golden"
# exit code of each recorded run; its report.json (and any CSV) must keep the
# bytes that an earlier version of the package wrote for the same config
GOLDEN_EXITS = {
    "laws": 0,
    "laws-transpositions": 0,
    "laws-dictator": 1,
    "symmetrize": 0,
    "symmetrize-dictator": 1,
    "deform": 0,
    "deform-subgroup": 0,
    "solomonic": 0,
    "random-lambda": 0,
    "trajectory-understated": 1,
}


@pytest.mark.parametrize("name", sorted(GOLDEN_EXITS))
def test_outputs_match_their_recorded_bytes(tmp_path, capsys, name):
    config = GOLDEN / f"{name}.json"
    experiment = json.loads(config.read_text())["experiment"]
    code = main([experiment, "--config", str(config), "--out", str(tmp_path)])
    assert code == GOLDEN_EXITS[name]
    recorded = sorted(GOLDEN.glob(f"{name}.*.*"))
    assert GOLDEN / f"{name}.report.json" in recorded
    for path in recorded:
        output = tmp_path / path.name[len(name) + 1:]
        assert output.read_bytes() == path.read_bytes(), path.name
