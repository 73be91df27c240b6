import ast
import gc
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
from equimean import _dyadic_runners, cli, homotopy
from equimean.cli import ConfigError, load_config, main
from equimean.errors import CapacityError
from equimean.rng import Xoshiro256StarStar

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


def run_child(*args: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports this
    checkout's package."""
    src = str(Path(equimean.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)


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


def test_geometric_mean_past_2_to_the_511_exits_2(tmp_path, capsys):
    # x * y would overflow to inf there, and lambda_hat with it
    cfg = {"space": {"kind": "interval", "params": {"a": 1e160, "b": 1e161}},
           "mean": "geometric", "grid_step": 1e159}
    code, outdir = run(tmp_path, "estimate-lambda", cfg)
    assert code == 2
    assert capsys.readouterr().err.strip() == (
        "equimean: geometric mean needs b <= 2^511, got b = 1e+161")
    assert not (outdir / "report.json").exists()
    cfg["space"]["params"] = {"a": 1e-300, "b": 2.0**511}
    cfg["grid_step"] = 2.0**508
    code, outdir = run(tmp_path, "estimate-lambda", cfg, out="edge")
    assert code == 0
    assert 0.5 < read_report(outdir)["results"]["estimate"]["lambda_hat"] <= 1.0


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


def test_chain_names_the_dyadic_forms_it_reads(tmp_path, capsys):
    assert main(["chain", "1/0", "1/2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "equimean: cannot read '1/0' as a dyadic: the forms are 0, 1, j/2^n and j/d "
        "with d a power of two\n")


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


# (config, a fault that jsonschema finds in it: the top-level key it lies
# under, or the keyword it fails at the top, and the reader's message)
CONFIG_FAULTS = [
    ({"space": INTERVAL01, "mean": "arithmetic:2", "grid_step": -0.5}, "grid_step",
     "config field grid_step must be a positive number, got -0.5"),
    ({"space": INTERVAL01, "mean": "arithmetic:2", "girdstep": 0.1}, "additionalProperties",
     "config has no field girdstep"),
    ({"space": INTERVAL01, "laws": ["M1", "M3"], "subgroup": [0, -1]}, "subgroup",
     "config field subgroup must be a list of integers >= 0, got [0, -1]"),
    ({"space": {"kind": "interval"}, "mean": 3, "times": "many"}, "mean",
     "config field mean must be a string, got 3"),
    (["not", "an", "object"], "type", "a config must be an object, got ['not', 'an', 'object']"),
    # a fault inside a kinded object is met where the object is built
    ({"space": {"kind": "interval", "extra": 1}, "mean": "arithmetic:2"}, "space",
     "interval space has no field space.extra"),
    ({"space": INTERVAL01, "expect_lambda": [0.25, 0.5, 0.75]}, "expect_lambda",
     "config field expect_lambda must be a list of exactly 2 numbers, got [0.25, 0.5, 0.75]"),
    ({"space": INTERVAL01, "seed": 1.5}, "seed",
     "config field seed must be an integer in 0..2^64 - 1, got 1.5"),
]


@pytest.mark.parametrize("cfg, fault, message", CONFIG_FAULTS,
                         ids=[f"cfg{i}" for i in range(len(CONFIG_FAULTS))])
def test_config_errors_are_those_of_jsonschema_validate(tmp_path, capsys, cfg, fault, message):
    errors = jsonschema.Draft202012Validator(_packaged_schema()).iter_errors(cfg)
    assert fault in {e.absolute_path[0] if e.absolute_path else e.validator for e in errors}
    path = write_config(tmp_path, cfg)
    if fault in KINDED:
        code = main(["estimate-lambda", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 2 and capsys.readouterr().err == f"equimean: {message}\n"
    else:
        with pytest.raises(ConfigError) as got:
            load_config(path)
        assert str(got.value) == f"{path}: {message}"


def test_packaged_schema_is_valid_against_its_meta_schema():
    # load_config leaves this check out of every run
    schema = _packaged_schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_numpy_loads_only_for_grid_scans(tmp_path, monkeypatch):
    # of a map without a ratio bound: a bounded built-in's scan is plain
    # Python; and logging loads only when EQUIMEAN_LOG asks for debug lines
    monkeypatch.delenv("EQUIMEAN_LOG", raising=False)
    cfg = write_config(tmp_path, {"space": INTERVAL01, "mean": "arithmetic:2", "grid_step": 0.01})
    rows = write_config(tmp_path, {"space": INTERVAL01, "mean": "dictator:0", "grid_step": 0.01},
                        "rows.json")
    child = textwrap.dedent(f"""
        import sys
        import equimean, equimean.cli
        assert "numpy" not in sys.modules, "import"
        assert equimean.cli.main(["chain", "1/8", "3/4", "--out", {str(tmp_path / "chain")!r}]) == 0
        assert "numpy" not in sys.modules and "logging" not in sys.modules, "chain"
        assert equimean.cli.main(["estimate-lambda", "--config", {cfg!r},
                                  "--out", {str(tmp_path / "grid")!r}]) == 0
        assert "numpy" not in sys.modules and "logging" not in sys.modules, "bounded grid scan"
        assert equimean.cli.main(["estimate-lambda", "--config", {rows!r},
                                  "--out", {str(tmp_path / "rows")!r}]) == 0
        assert "numpy" in sys.modules, "whole-row grid scan"
        from equimean._kernels import grid_scan_interval
        from equimean.means import mean_from_name
        from equimean.spaces import Interval
        print(grid_scan_interval(mean_from_name("arithmetic:2", Interval(0.0, 1.0)),
                                 0.0, 0.25, 5, 1e-6))
    """)
    out = run_child("-c", child)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "(0.5, 0.0, 0.25, 20)"
    assert read_report(tmp_path / "grid")["results"]["estimate"]["samples"] == 10100


def test_random_lambda_loads_numpy_only_to_step_in_lockstep(tmp_path):
    # 300 restarts plan 18,300 evaluations, over SEARCH_BLOCK_BUDGET; a
    # circle's restarts still run the scalar loop, so its start-up stays
    # numpy-free
    circle = write_config(tmp_path, {"space": {"kind": "circle", "params": {"radius": 1.0}},
                                     "mean": "dictator:0", "restarts": 300}, "circle.json")
    box = write_config(tmp_path, {"space": SYM_BOX, "mean": "arithmetic:3", "restarts": 300},
                       "box.json")
    child = textwrap.dedent(f"""
        import sys
        import equimean.cli
        assert "numpy" not in sys.modules, "import"
        assert equimean.cli.main(["estimate-lambda", "--config", {circle!r},
                                  "--out", {str(tmp_path / "circle")!r}]) == 0
        assert "numpy" not in sys.modules, "circle"
        assert equimean.cli.main(["estimate-lambda", "--config", {box!r},
                                  "--out", {str(tmp_path / "box")!r}]) == 0
        assert "numpy" in sys.modules, "box"
    """)
    out = run_child("-c", child)
    assert out.returncode == 0, out.stderr
    for name in ("circle", "box"):
        assert read_report(tmp_path / name)["results"]["estimate"]["method"] == "random+hill"


def test_small_runs_load_no_numpy(tmp_path):
    # these runs plan fewer law-check evaluations than LAW_BLOCK_EVALS and
    # fewer search evaluations than SEARCH_BLOCK_BUDGET (the random-lambda
    # goldens 610 to 3,050): they run the scalar loops, and start-up stays
    # numpy-free
    runs = [(json.loads((GOLDEN / f"{name}.json").read_text())["experiment"],
             str(GOLDEN / f"{name}.json"), str(tmp_path / name))
            for name in ("solomonic", "symmetrize", "deform", "random-lambda",
                         "random-lambda-product", "random-lambda-retry")]
    child = textwrap.dedent(f"""
        import sys
        import equimean.cli
        assert "numpy" not in sys.modules, "import"
        for experiment, config, out in {runs!r}:
            assert equimean.cli.main([experiment, "--config", config, "--out", out]) == 0
            assert "numpy" not in sys.modules, experiment
    """)
    out = run_child("-c", child)
    assert out.returncode == 0, out.stderr


def test_a_solomonic_search_above_the_gate_loads_numpy(tmp_path):
    # the solomonic golden's budget, 600, is under SEARCH_BLOCK_BUDGET and
    # runs the scalar loop; the benchmark's 20,000 climb in lockstep
    cfg = {**json.loads((GOLDEN / "solomonic.json").read_text()), "budget": 20_000}
    config = write_config(tmp_path, cfg)
    child = textwrap.dedent(f"""
        import sys
        import equimean.cli, equimean.search
        assert equimean.search.SEARCH_BLOCK_BUDGET <= 20_000
        assert equimean.cli.main(["solomonic-search", "--config", {config!r},
                                  "--out", {str(tmp_path / "out")!r}]) == 0
        assert "numpy" in sys.modules
    """)
    out = run_child("-c", child)
    assert out.returncode == 0, out.stderr
    assert read_report(tmp_path / "out")["results"]["search"]["evaluations"] == 20_000


def test_solomonic_debug_line_names_its_lane(tmp_path, caplog):
    cfg = {"space": SYM_BOX, "mean": "arithmetic:3", "K": 4 * math.sqrt(2.0), "budget": 20_000,
           "seed": 1}
    with caplog.at_level(logging.DEBUG, logger="equimean"):
        code, outdir = run(tmp_path, "solomonic-search", cfg)
    assert code == 0
    lines = [r.getMessage() for r in caplog.records if r.name == "equimean"]
    assert lines[-1].endswith(" s, lockstep substreams, 148 restarts in 1 block, "
                              "20000 evaluations")
    assert "substreams" not in (outdir / "report.json").read_text()


def test_random_hill_debug_line_names_its_lane(tmp_path, caplog):
    cfg = {"space": SYM_BOX, "mean": "arithmetic:3", "restarts": 300, "seed": 1}
    with caplog.at_level(logging.DEBUG, logger="equimean"):
        code, outdir = run(tmp_path, "estimate-lambda", cfg)
    assert code == 0
    lines = [r.getMessage() for r in caplog.records if r.name == "equimean"]
    assert lines[-1].endswith(" s, random+hill, lockstep substreams, 300 restarts in 1 block, "
                              "18300 samples")
    for name in ("report.json", "lambda.csv"):
        assert "substreams" not in (outdir / name).read_text()


def test_build_homotopy_loads_numpy_only_to_walk_many_times(tmp_path):
    # 65 times at level 22 walk one at a time in plain Python; 5,001 at
    # level 32 are over LAW_BLOCK_EVALS times x levels and walk on arrays
    base = {"space": SYM_BOX, "mean": "arithmetic:2", "lambda": 0.5, "theta": [0.0, 0.0],
            "x": [0.6, -0.8]}
    small = write_config(tmp_path, base, "small.json")
    large = write_config(tmp_path, {**base, "eps": 1e-9, "times": 5001}, "large.json")
    child = textwrap.dedent(f"""
        import sys
        import equimean.cli
        assert equimean.cli.main(["build-homotopy", "--config", {small!r},
                                  "--out", {str(tmp_path / "small")!r}]) == 0
        assert "numpy" not in sys.modules, "65 times"
        assert equimean.cli.main(["build-homotopy", "--config", {large!r},
                                  "--out", {str(tmp_path / "large")!r}]) == 0
        assert "numpy" in sys.modules, "5001 times"
    """)
    out = run_child("-c", child)
    assert out.returncode == 0, out.stderr
    assert read_report(tmp_path / "large")["results"]["times"] == 5001


def test_verify_mean_over_the_work_cap_exits_2_at_once(tmp_path):
    # 10 samples of 2000^2 transpositions, each reading 2000 points: 8 * 10^10
    cfg = write_config(tmp_path, {"space": INTERVAL01, "mean": "arithmetic:2000",
                                  "laws": ["M2"], "samples": 10})
    out = run_child("-m", "equimean.cli", "verify-mean", "--config", cfg,
                    "--out", str(tmp_path / "out"), timeout=5)
    assert out.returncode == 2
    assert ("verify-mean of arithmetic:2000 (M2 on 10 samples) plans 80000000000 mean "
            "evaluations, over the cap 1000000000") in out.stderr
    assert not (tmp_path / "out" / "report.json").exists()


def test_verify_holder_over_the_work_cap_exits_2_at_once(tmp_path):
    # 10^9 pair distances and the 2^14 - 1 midpoints of the sweep to depth 14
    cfg = write_config(tmp_path, {"space": {"kind": "interval", "params": {"a": 1.0, "b": 2.0}},
                                  "mean": "geometric", "lambda": 0.6, "theta": [1.0],
                                  "x": [2.0], "depth": 14, "pairs": 10**9})
    out = run_child("-m", "equimean.cli", "verify-holder", "--config", cfg,
                    "--out", str(tmp_path / "out"), timeout=5)
    assert out.returncode == 2
    assert ("verify-holder of geometric (1000000000 pairs at depth 14) plans 1000016383 mean "
            "evaluations, over the cap 1000000000") in out.stderr
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("name, message", [
    # 10^9 tuples, each of 2 orders of 2 points and 2 translates
    ("symmetrize", "the law gate of arithmetic:2 (M2, equivariance on 1000000000 samples) "
                   "plans 6000000000"),
    # 10^9 points, each deformed at STATIONARITY_TIMES + 2 times through 2 elements
    ("deform", "deform-fixed over a subgroup of order 2 (1000000000 samples) plans 22000000000"),
])
def test_a_law_gated_run_over_the_work_cap_exits_2_at_once(tmp_path, name, message):
    cfg = {**json.loads((GOLDEN / f"{name}.json").read_text()), "samples": 10**9}
    out = run_child("-m", "equimean.cli", cfg["experiment"], "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "out"), timeout=5)
    assert out.returncode == 2
    assert f"{message} mean evaluations, over the cap 1000000000" in out.stderr
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("experiment, cfg, message", [
    # 40,000 samples, each one evaluation and 2000 * 1999 / 2 pair distances
    ("verify-mean", {"space": INTERVAL01, "mean": "arithmetic:2000",
                     "laws": ["strict-betweenness"], "samples": 40_000},
     "verify-mean of arithmetic:2000 (strict-betweenness on 40000 samples) plans 79960040000"),
    # 10^8 restarts of HILL_STEPS + 1 evaluations
    ("estimate-lambda", {"space": SYM_BOX, "mean": "arithmetic:3", "restarts": 10**8},
     "random+hill estimate of arithmetic:3 (100000000 restarts) plans 6100000000"),
    ("solomonic-search", {"space": SYM_BOX, "mean": "arithmetic:3", "K": 5.0, "budget": 10**10},
     "solomonic-search of arithmetic:3 (its budget) plans 10000000000"),
], ids=["strict-betweenness", "random+hill", "solomonic"])
def test_a_run_over_the_work_cap_exits_2_before_its_first_generator(tmp_path, capsys, monkeypatch,
                                                                    experiment, cfg, message):
    def no_draws(*args):
        raise AssertionError("made a generator")

    monkeypatch.setattr(Xoshiro256StarStar, "__init__", no_draws)
    code, outdir = run(tmp_path, experiment, cfg)
    assert code == 2
    assert f"{message} mean evaluations, over the cap 1000000000" in capsys.readouterr().err
    assert not (outdir / "report.json").exists()


def test_strict_betweenness_on_one_point_exits_2(tmp_path, capsys):
    # every tuple has diameter 0, so no sample is scored, and the law has
    # nothing to pass on
    cfg = {"space": {"kind": "finite_points", "params": {"points": [[0.5]]}},
           "mean": "dictator:0", "laws": ["strict-betweenness"], "samples": 5}
    code, outdir = run(tmp_path, "verify-mean", cfg)
    assert code == 2
    assert "strict betweenness scored no sample" in capsys.readouterr().err
    assert not (outdir / "report.json").exists()


def test_main_runs_openblas_on_one_thread_unless_the_user_says_otherwise(tmp_path):
    # a dictator has no ratio bound, so its grid scan loads numpy
    cfg = write_config(tmp_path, {"space": INTERVAL01, "mean": "dictator:0", "grid_step": 0.1})
    child = textwrap.dedent(f"""
        import os, sys
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
        seen = []

        class Spy:
            # records the setting at the moment numpy is first imported
            def find_spec(self, name, path=None, target=None):
                if name == "numpy":
                    seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

        sys.meta_path.insert(0, Spy())
        import equimean, equimean.cli
        assert "OPENBLAS_NUM_THREADS" not in os.environ, "import"
        assert equimean.cli.main(["estimate-lambda", "--config", {cfg!r},
                                  "--out", {str(tmp_path / "one")!r}]) == 0
        assert "numpy" in sys.modules and seen == ["1"], seen
        os.environ["OPENBLAS_NUM_THREADS"] = "2"
        assert equimean.cli.main(["chain", "1/8", "3/4", "--out", {str(tmp_path / "two")!r}]) == 0
        print(os.environ["OPENBLAS_NUM_THREADS"])
    """)
    out = run_child("-c", child)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "2"


def test_valid_configs_load_no_jsonschema(tmp_path):
    # nor do rejected ones: the check and its messages are the package's own
    valid = write_config(tmp_path, {"space": INTERVAL01, "mean": "minsq", "grid_step": 0.01,
                                    "x": [0.5], "theta": 0.25})
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
        assert "jsonschema" not in sys.modules, "invalid config"
    """)
    out = run_child("-c", child)
    assert out.returncode == 0, out.stderr
    assert out.stderr == (f"equimean: {invalid}: "
                          "config field grid_step must be a positive number, got -0.5\n")


def test_nan_tolerance_is_refused_before_it_passes_every_check(tmp_path, capsys):
    # NaN > tol is false, so a NaN tolerance used to pass a retraction whose
    # image is not fixed (defect 1) with exit 0
    cfg = {"space": SYM_BOX, "action": {"name": "reflection", "axis": 1},
           "mean": "arithmetic:2", "retraction": {"kind": "constant", "point": [0.5, 0.5]},
           "tol": 1e-9}
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

    monkeypatch.setattr(homotopy.ContractionBuilder, "at_times", at_times)


def test_build_homotopy_times_cap(tmp_path, no_at_time):
    cfg = {"space": INTERVAL01, "mean": "arithmetic:2", "lambda": 0.5, "theta": [0.0],
           "x": [1.0], "times": _dyadic_runners.TIMES_CAP}
    with pytest.raises(LookupError, match="at_times reached"):
        _dyadic_runners.run_build_homotopy(cfg, tmp_path)
    with pytest.raises(CapacityError,
                       match=f"times {_dyadic_runners.TIMES_CAP + 1} exceed the cap"):
        _dyadic_runners.run_build_homotopy({**cfg, "times": _dyadic_runners.TIMES_CAP + 1},
                                           tmp_path)


def test_build_homotopy_over_times_cap_exits_2(tmp_path, capsys, no_at_time):
    cfg = {"space": INTERVAL01, "mean": "arithmetic:2", "lambda": 0.5, "theta": [0.0],
           "x": [1.0], "times": 10**12}
    code, outdir = run(tmp_path, "build-homotopy", cfg)
    assert code == 2
    assert f"exceed the cap {_dyadic_runners.TIMES_CAP}" in capsys.readouterr().err
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
    assert lines[-1].endswith(" s, grid, 2 tiles bounded, 2 tiles and 20 pairs scored, "
                              "0 pairs skipped by ratio bounds, 20 samples")


def test_grid_log_counts_the_pairs_its_enclosure_skipped(tmp_path, caplog):
    cfg = json.loads((DATA / "golden" / "grid-geometric.json").read_text())
    with caplog.at_level(logging.DEBUG, logger="equimean"):
        code, _ = run(tmp_path, "estimate-lambda", cfg)
    assert code == 0
    bounded, tiles, scored, skipped, samples = map(int, re.search(
        r" s, grid, (\d+) tiles bounded, (\d+) tiles and (\d+) pairs scored, "
        r"(\d+) pairs skipped by ratio bounds, (\d+) samples$",
        caplog.records[-1].getMessage()).groups())
    # the maximum lies at the corner (1, 4): on its way down the tree of 3001
    # points to that corner the search bounds two or three tiles a level,
    # and it scores one leaf
    assert tiles == 1 and bounded < 50
    assert scored + skipped == samples == 3001 * 3000
    assert 0 < scored < 0.01 * samples


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


@pytest.mark.parametrize("key", ["k", "group", "extension"])
def test_removed_config_keys_exit_2(tmp_path, capsys, key):
    # no runner read them; the config reader now rejects them as unknown keys
    cfg = {"space": SYM_BOX, "mean": "arithmetic:2", "samples": 5, key: 3}
    code, outdir = run(tmp_path, "verify-mean", cfg)
    assert code == 2
    assert f"config has no field {key}\n" in capsys.readouterr().err
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


@pytest.mark.parametrize("option, seed, source", [
    ("-1", 1, "command line"),
    (str(2**64), 1, "command line"),
    (None, 2**64, "config"),
], ids=["option--1", "option-2^64", "config-2^64"])
def test_a_seed_outside_0_to_2_to_the_64_exits_2(tmp_path, capsys, option, seed, source):
    # the generator masks its seed to 64 bits, so -1 used to run seed
    # 2^64 - 1 and 2^64 seed 0, and a report of --seed -1 could not be replayed
    cfg = {**json.loads((GOLDEN / "laws.json").read_text()), "seed": seed}
    code, outdir = run(tmp_path, "verify-mean", cfg, extra=() if option is None else
                       ("--seed", option))
    assert code == 2
    got = option if option is not None else seed
    assert capsys.readouterr().err.endswith(
        f"{source} field seed must be an integer in 0..2^64 - 1, got {got}\n")
    assert not (outdir / "report.json").exists()


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
    assert sorted(RERUN_CONFIGS) == sorted(cli.RUNNERS)


def test_schema_experiments_are_the_runners():
    assert sorted(_packaged_schema()["properties"]["experiment"]["enum"]) == sorted(cli.RUNNERS)


class _Reads(dict):
    """A config that records the keys its reader asks for."""

    def __init__(self, values, asked: set):
        super().__init__(values)
        self.asked = asked

    def __getitem__(self, key):
        self.asked.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.asked.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.asked.add(key)
        return super().__contains__(key)


def test_the_cli_reads_every_config_key(tmp_path, monkeypatch):
    # the reader's table names the schema's keys, and a key that no run asks
    # for is dead: it passes the reader and changes nothing
    assert cli.CONFIG_FIELDS.keys() == _packaged_schema()["properties"].keys()
    asked = set()
    for experiment, cfg in RERUN_CONFIGS.items():
        monkeypatch.setattr(cli, "load_config", lambda path, cfg=cfg: _Reads(cfg, asked))
        assert main([experiment, "--config", "-", "--out", str(tmp_path / experiment)]) == 0
    assert sorted(cli.CONFIG_FIELDS.keys() - asked) == []


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


# (experiment, its config): runs whose arithmetic means could sum past the
# largest float, which read lambda_hat Infinity (not JSON) and failed M1 and
# M2 at inf or NaN before the mean refused them
OVERFLOWING_SUMS = {
    "estimate-lambda": ("estimate-lambda", {"mean": "arithmetic:2", "grid_step": 1e306,
                                            "space": {"kind": "interval",
                                                      "params": {"a": 8e307, "b": 1.7e308}}}),
    "verify-mean-M1": ("verify-mean", {"mean": "arithmetic:3", "laws": ["M1"], "samples": 20,
                                       "space": {"kind": "interval",
                                                 "params": {"a": 8e307, "b": 1.7e308}}}),
    "verify-mean-M2": ("verify-mean", {"mean": "arithmetic:2", "laws": ["M2"], "samples": 200,
                                       "space": {"kind": "interval",
                                                 "params": {"a": 0.0, "b": 1.7e308}}}),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_SUMS))
def test_an_arithmetic_mean_whose_sums_may_overflow_exits_2(tmp_path, capsys, name):
    experiment, cfg = OVERFLOWING_SUMS[name]
    code, outdir = run(tmp_path, experiment, cfg)
    assert code == 2
    assert capsys.readouterr().err.strip() == (
        f"equimean: {cfg['mean']} mean needs coordinates of absolute value <= 2^1022, "
        "got 1.7e+308")
    assert not (outdir / "report.json").exists()


def test_a_space_whose_length_overflows_exits_2(tmp_path, capsys):
    cfg = {"space": {"kind": "interval", "params": {"a": -1e308, "b": 1e308}},
           "mean": "arithmetic:2", "samples": 3}
    code, outdir = run(tmp_path, "verify-mean", cfg)
    assert code == 2
    assert "finite length b - a, got [-1e+308, 1e+308]" in capsys.readouterr().err
    assert not (outdir / "report.json").exists()


OVERFLOWING_SPACES = {
    "box": ({"kind": "box", "params": {"lo": [0.0, 0.0], "hi": [1e200, 1e200]}},
            "dictator:0", "strict-betweenness", "got [0.0, 1e+200]"),
    "circle": ({"kind": "circle", "params": {"radius": 1e200}},
               "dictator:0", "M2", "got radius 1e+200"),
    # the arc metric once read wrong distances here, and NaN for d(a, a)
    "circle-geodesic": ({"kind": "circle", "params": {"radius": 1e200, "metric": "geodesic"}},
                        "dictator:0", "M2", "got radius 1e+200"),
    "finite_points": ({"kind": "finite_points", "params": {"points": [[0.0], [1e200]]}},
                      "dictator:1", "M2", "got [0.0, 1e+200] on axis 0"),
}


@pytest.mark.parametrize("kind", sorted(OVERFLOWING_SPACES))
def test_a_space_whose_squared_span_overflows_exits_2(tmp_path, capsys, kind):
    # these distances once raised OverflowError mid-run, an unexpected error
    space, mean, law, named = OVERFLOWING_SPACES[kind]
    cfg = {"space": space, "mean": mean, "laws": [law], "samples": 20}
    code, outdir = run(tmp_path, "verify-mean", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "unexpected" not in err and "^2 to be a finite float" in err and named in err
    assert not (outdir / "report.json").exists()


def test_a_product_whose_distance_overflows_fails_with_a_witness(tmp_path, capsys):
    # squaring a factor distance past sqrt(max float) once raised OverflowError,
    # an unexpected error; the distance is now inf and the law fails on it
    factor = {"kind": "interval", "params": {"a": 0.0, "b": 1e200}}
    cfg = {"space": {"kind": "product", "params": {"spaces": [factor]}},
           "mean": "arithmetic:2", "laws": ["strict-betweenness"], "samples": 20, "seed": 1}
    code, outdir = run(tmp_path, "verify-mean", cfg)
    assert code == 1
    assert "unexpected" not in capsys.readouterr().err
    law = read_report(outdir)["results"]["laws"]["strict-betweenness"]
    assert law["passed"] is False and len(law["witness"]) == 2


# the first factor's extent squares past the largest float, so the product's
# extent, and with it the first hill step, is inf
HUGE_FACTOR_PRODUCT = {"kind": "product", "params": {"spaces": [
    {"kind": "interval", "params": {"a": 0.0, "b": 1.5e154}}, INTERVAL01]}}


@pytest.mark.parametrize("command, cfg", [
    ("estimate-lambda", {"space": HUGE_FACTOR_PRODUCT, "mean": "arithmetic:2", "restarts": 3}),
    ("solomonic-search", {"space": HUGE_FACTOR_PRODUCT, "mean": "arithmetic:2", "K": 1.0,
                          "budget": 50}),
])
def test_a_product_whose_extent_overflows_runs(tmp_path, capsys, command, cfg):
    # the extent once raised OverflowError, an unexpected error (exit 2)
    code, outdir = run(tmp_path, command, cfg)
    assert code == 0, capsys.readouterr().err
    results = read_report(outdir)["results"]
    if command == "estimate-lambda":
        assert results["estimate"]["lambda_hat"] == 0.5000000000000001


def test_level_sweep_over_the_float_cap_exits_2(tmp_path, capsys):
    # verify-holder holds its finest level whole; in 4096-D a chunk of
    # verify-claim1 spans 3 levels, so it holds level 17 of 20 whole
    for command, dim, where in (("verify-holder", 64, "on its finest level"),
                                ("verify-claim1", 4096, "on level 17, which it holds whole")):
        box = {"kind": "box", "params": {"lo": [0.0] * dim, "hi": [1.0] * dim}}
        cfg = {"space": box, "mean": "arithmetic:2", "lambda": 0.5, "theta": [0.0] * dim,
               "x": [1.0] * dim, "depth": 20}
        code, outdir = run(tmp_path, command, cfg)
        assert code == 2
        assert (f"depth 20 in dim {dim} exceeds the cap of 4194304 floats {where}"
                in capsys.readouterr().err)
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
    }
    svgs = []
    for name in ("first", "again"):
        code, outdir = run(tmp_path, "build-homotopy", cfg, out=name)
        assert code == 0
        assert main(["plot", str(outdir / "trajectory.csv"), str(outdir / "plot.svg")]) == 0
        svgs.append((outdir / "plot.svg").read_text())
    csv_bytes = (outdir / "trajectory.csv").read_bytes()
    assert csv_bytes.count(b"\r\n") == 34  # header + 33 rows, RFC 4180 line ends
    assert svgs[0].startswith("<?xml") and "<polyline" in svgs[0]
    # rerun is byte-identical
    assert (tmp_path / "first" / "trajectory.csv").read_bytes() == csv_bytes
    assert svgs[0] == svgs[1]
    assert sorted(p.name for p in outdir.iterdir()) == ["plot.svg", "report.json",
                                                        "trajectory.csv"]


def test_build_homotopy_deep_levels_match_recorded_csv(tmp_path, monkeypatch):
    # |x - theta| = 1.5 and eps 1e-9 snap every time to level 33, and the
    # times i/40 land on levels 32 and 33; the CSV was recorded with each
    # dyadic neighbour built as a Dyadic object
    cfg = {"space": {"kind": "box", "params": {"lo": [-2.0, -2.0], "hi": [2.0, 2.0]}},
           "mean": "arithmetic:2", "lambda": 0.5, "theta": [0.0, 0.0], "x": [0.9, -1.2],
           "eps": 1e-9, "times": 41}
    want = (DATA / "trajectory_box_level33.csv").read_bytes()
    # 41 times at level 33 walk one at a time; a gate of 0 forces the array walk
    for gate in (homotopy.LAW_BLOCK_EVALS, 0):
        monkeypatch.setattr(homotopy, "LAW_BLOCK_EVALS", gate)
        code, outdir = run(tmp_path, "build-homotopy", cfg, out=f"gate-{gate}")
        assert code == 0
        assert (outdir / "trajectory.csv").read_bytes() == want


def test_plot_rejects_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["plot", str(bad), str(tmp_path / "x.svg")]) == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("t,x0,error\r\n")
    assert main(["plot", str(empty), str(tmp_path / "y.svg")]) == 2
    capsys.readouterr()
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("t,x0,error\r\n0.0,0.5,0.0\r\n1.0,0.5\r\n")
    assert main(["plot", str(ragged), str(tmp_path / "z.svg")]) == 2
    assert capsys.readouterr().err == "equimean: plot failed: ragged CSV row: ['1.0', '0.5']\n"


def test_plot_skips_blank_lines_and_widens_flat_ranges(tmp_path):
    # one row: its time and its value band are single numbers, which each
    # axis widens to a unit range from them, so the point sits at the origin
    single = tmp_path / "single.csv"
    single.write_text("t,x0,error\r\n\r\n0.5,0.25,0.0\r\n\r\n")
    assert main(["plot", str(single), str(tmp_path / "x.svg")]) == 0
    svg = (tmp_path / "x.svg").read_text()
    assert '<polyline points="40.000,360.000" ' in svg


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


# a verify-claim1 run whose debug line names its level arrays
GEOMETRIC_CLAIM1 = {
    "space": {"kind": "interval", "params": {"a": 1.0, "b": 2.0}},
    "mean": "geometric",
    "lambda": 0.5857864376269049,
    "theta": [2.0],
    "x": [1.0],
    "depth": 5,
}


def test_debug_log_names_the_path_and_stays_out_of_the_report(tmp_path, caplog):
    with caplog.at_level(logging.DEBUG, logger="equimean"):
        code, outdir = run(tmp_path, "verify-claim1", GEOMETRIC_CLAIM1)
    assert code == 0
    lines = [r.getMessage() for r in caplog.records if r.name == "equimean"]
    assert len(lines) == 1
    assert lines[0].startswith("verify-claim1: ")
    assert lines[0].endswith(" s, level arrays 0..5, 63 pairs")
    assert "level arrays" not in (outdir / "report.json").read_text()


@pytest.mark.parametrize("level", ["debug", None], ids=["debug", "unset"])
def test_equimean_log_debug_prints_the_debug_line_to_stderr(tmp_path, monkeypatch, level):
    # a fresh process, where nothing has imported logging: EQUIMEAN_LOG=debug
    # prints the run's one debug line in basicConfig's format, and a run
    # without it prints nothing
    if level is None:
        monkeypatch.delenv("EQUIMEAN_LOG", raising=False)
    else:
        monkeypatch.setenv("EQUIMEAN_LOG", level)
    cfg = write_config(tmp_path, GEOMETRIC_CLAIM1)
    out = run_child("-m", "equimean.cli", "verify-claim1", "--config", cfg,
                    "--out", str(tmp_path / "out"))
    assert out.returncode == 0, out.stderr
    if level is None:
        assert out.stderr == ""
        return
    (line,) = out.stderr.splitlines()
    assert re.fullmatch(r"DEBUG:equimean:verify-claim1: \d+\.\d{3} s, level arrays 0\.\.5, 63 pairs",
                        line)


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
    assert "config field subgroup must be a list of integers in 0..1, got [0, 7]" in err
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
    "random-lambda-product": 0,
    # seed 55 draws the start tuple of its restart 30 again (see
    # test_means.py::test_lambda_lockstep_blocks_span_the_restarts)
    "random-lambda-retry": 0,
    "trajectory-understated": 1,
    # dense grid scans, which skip the tiles their ratio bounds
    "grid-geometric": 0,
    "grid-minsq": 0,
}


def golden_argv(name, outdir):
    config = GOLDEN / f"{name}.json"
    experiment = json.loads(config.read_text())["experiment"]
    return [experiment, "--config", str(config), "--out", str(outdir)]


def assert_recorded_bytes(name, outdir):
    recorded = sorted(GOLDEN.glob(f"{name}.*.*"))
    assert GOLDEN / f"{name}.report.json" in recorded
    for path in recorded:
        output = outdir / path.name[len(name) + 1:]
        assert output.read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("name", sorted(GOLDEN_EXITS))
def test_outputs_match_their_recorded_bytes(tmp_path, capsys, name):
    assert main(golden_argv(name, tmp_path)) == GOLDEN_EXITS[name]
    assert_recorded_bytes(name, tmp_path)


# two runs that write a CSV besides report.json, and one that exits 1
@pytest.mark.parametrize("name", ["grid-minsq", "random-lambda", "trajectory-understated"])
def test_the_process_entry_exits_with_main_s_code_and_writes_the_recorded_bytes(tmp_path, name):
    child = run_child("-m", "equimean.cli", *golden_argv(name, tmp_path))
    assert child.returncode == GOLDEN_EXITS[name], child.stderr
    assert_recorded_bytes(name, tmp_path)


def test_main_leaves_the_collector_unfrozen(tmp_path):
    frozen = gc.get_freeze_count()
    assert main(golden_argv("laws", tmp_path)) == 0
    assert gc.get_freeze_count() == frozen


def test_the_process_entry_freezes_the_heap_after_main(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["equimean", "chain", "1/8", "3/4", "--out", str(tmp_path)])
    frozen = gc.get_freeze_count()
    try:
        with pytest.raises(SystemExit) as exit_:
            cli.run()
        assert exit_.value.code == 0
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()
    assert read_report(tmp_path)["passed"] is True


def test_the_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"equimean": "equimean.cli:run"}


AXIS_OUTSIDE = "axis must be an integer in 0..1, got {!r}"
DEFORM_SPACE = "Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])"
SYMMETRIZE_SPACE = "Interval(a=-1.0, b=1.0)"
DYADIC_NEEDS = "dyadic base homotopy requires the field base_homotopy.{}"
POINTS = "a list of lists of numbers, one point or more, all of one dimension"
PERMS = "a list of permutations of 0..n - 1, the identity first"
# (golden config, edit, what stderr must say): each edit is a config error,
# which must exit 2 with a message naming its key
MISCONFIGURED = {
    **{f"action-axis-{a!r}": ("deform", lambda cfg, a=a: cfg["action"].update(axis=a),
                            "reflection action field action." + AXIS_OUTSIDE.format(a))
       for a in (2, 7, -1, 1.5, "x", True)},
    **{f"retraction-axis-{a}": ("deform", lambda cfg, a=a: cfg["retraction"].update(axis=a),
                                "zero_coordinate retraction field retraction." +
                                AXIS_OUTSIDE.format(a)) for a in (2, 7, -1)},
    "retraction-point": ("deform", lambda cfg: cfg.update(retraction={"kind": "constant"}),
                         "constant retraction requires the field retraction.point"),
    **{f"dyadic-{key}": ("symmetrize", lambda cfg, key=key: cfg["base_homotopy"].pop(key),
                         DYADIC_NEEDS.format(key)) for key in ("mean", "lambda", "theta")},
    "trust_laws": ("symmetrize-dictator", lambda cfg: cfg.update(trust_laws=True),
                   "config has no field trust_laws"),
    "force_random": ("random-lambda", lambda cfg: cfg.update(force_random=True),
                     "config has no field force_random"),
    "svg": ("trajectory-understated", lambda cfg: cfg.update(svg=True),
            "config has no field svg"),
    "action-n-true": ("deform", lambda cfg: cfg.update(action={"name": "plane_rotation",
                                                               "n": True}),
                      "plane_rotation action field action.n must be an integer in 1..1024, "
                      "got True"),
    **{f"action-n-{n}": ("deform", lambda cfg, n=n: cfg.update(action={"name": "plane_rotation",
                                                                       "n": n}),
                         f"plane_rotation action field action.n must be an integer in 1..1024, "
                         f"got {n}") for n in (0, 2000)},
    **{f"action-no-{key}": ("deform", lambda cfg, name=name: cfg.update(action={"name": name}),
                            f"{name} action requires the field action.{key}")
       for name, key in (("reflection", "axis"), ("plane_rotation", "n"),
                         ("coordinate_permutation", "perms"))},
    **{f"action-perms-{case}": ("deform", lambda cfg, perms=perms: cfg.update(action={
                                    "name": "coordinate_permutation", "perms": perms}),
                                "coordinate_permutation action field action.perms must be "
                                f"{PERMS}, got {perms!r}")
       for case, perms in (("flat", [0, 1]), ("not-permutations", [[0, 1], [5, 0]]),
                           ("identity-not-first", [[1, 0], [0, 1]]))},
    "action-rotation-box": ("deform", lambda cfg: cfg.update(action={"name": "rotation", "n": 2}),
                            "action name 'rotation' at action.name needs a circle space, "
                            f"got {DEFORM_SPACE}"),
    "action-no-name": ("deform", lambda cfg: cfg["action"].pop("name"),
                       "action requires the field action.name"),
    "action-name-x": ("deform", lambda cfg: cfg["action"].update(name="x"),
                      "unknown action name 'x' at action.name; the names are trivial, negation"),
    **{f"{key}-extra": (name, lambda cfg, key=key: cfg[key].update(extra=1),
                        f"{kind} has no field {key}.extra")
       for name, key, kind in (("deform", "action", "reflection action"),
                               ("deform", "retraction", "zero_coordinate retraction"),
                               ("symmetrize", "base_homotopy", "dyadic base homotopy"))},
    "base_homotopy-mean-5": ("symmetrize", lambda cfg: cfg["base_homotopy"].update(mean=5),
                             "dyadic base homotopy field base_homotopy.mean must be a string, "
                             "got 5"),
    **{f"base_homotopy-{key}-true": ("symmetrize",
                                     lambda cfg, key=key: cfg["base_homotopy"].update({key: True}),
                                     f"dyadic base homotopy field base_homotopy.{key} must be "
                                     f"{what}, got True")
       for key, what in (("theta", f"a point of {SYMMETRIZE_SPACE}"), ("eps", "a positive number"),
                         ("lambda", "a number in (0, 1)"))},
    "base_homotopy-lambda-1.5": ("symmetrize",
                                 lambda cfg: cfg["base_homotopy"].update({"lambda": 1.5}),
                                 "dyadic base homotopy field base_homotopy.lambda must be a "
                                 "number in (0, 1), got 1.5"),
    "base_homotopy-eps--1": ("symmetrize", lambda cfg: cfg["base_homotopy"].update(eps=-1),
                             "dyadic base homotopy field base_homotopy.eps must be a positive "
                             "number, got -1"),
    "base_homotopy-kind-x": ("symmetrize", lambda cfg: cfg["base_homotopy"].update(kind="x"),
                             "unknown base homotopy kind 'x' at base_homotopy.kind; the kinds "
                             "are straight_line_to, dyadic"),
    "straight-line-mean": ("symmetrize", lambda cfg: cfg.update(base_homotopy={"mean": "x"}),
                           "straight_line_to base homotopy has no field base_homotopy.mean"),
    "retraction-point-true": ("deform-subgroup",
                              lambda cfg: cfg["retraction"]["point"].__setitem__(0, True),
                              f"constant retraction field retraction.point must be a point of "
                              f"{DEFORM_SPACE}, got [True, 0.0]"),
    # a point outside the space, in a kinded object or read in its place
    "retraction-point-outside": ("deform-subgroup",
                                 lambda cfg: cfg["retraction"].update(point=[5.0, 0.0]),
                                 f"constant retraction field retraction.point must be a point of "
                                 f"{DEFORM_SPACE}, got [5.0, 0.0]"),
    "base_homotopy-theta-outside": ("symmetrize",
                                    lambda cfg: cfg["base_homotopy"].update(theta=[5.0]),
                                    "dyadic base homotopy field base_homotopy.theta must be a "
                                    f"point of {SYMMETRIZE_SPACE}, got [5.0]"),
    "straight-line-theta-outside": ("symmetrize",
                                    lambda cfg: cfg.update(base_homotopy={"theta": [5.0]}),
                                    "straight_line_to base homotopy field base_homotopy.theta "
                                    f"must be a point of {SYMMETRIZE_SPACE}, got [5.0]"),
    "straight-line-config-theta-outside": ("symmetrize", lambda cfg: cfg.update(
                                               base_homotopy={}, theta=[5.0]),
                                           f"config field theta must be a point of "
                                           f"{SYMMETRIZE_SPACE}, got [5.0]"),
    "space-hi-true": ("deform", lambda cfg: cfg["space"]["params"]["hi"].__setitem__(1, True),
                      "box space parameter space.params.hi must be a list of numbers, "
                      "got [1.0, True]"),
    "space-no-params": ("deform", lambda cfg: cfg["space"].pop("params"),
                        "box space requires the parameter space.params.lo"),
    "space-no-hi": ("deform", lambda cfg: cfg["space"]["params"].pop("hi"),
                    "box space requires the parameter space.params.hi"),
    "space-interval-b-x": ("deform", lambda cfg: cfg.update(space={
                               "kind": "interval", "params": {"a": 0, "b": "x"}}),
                           "interval space parameter space.params.b must be a number, got 'x'"),
    "space-interval-c": ("deform", lambda cfg: cfg.update(space={
                             "kind": "interval", "params": {"a": 0, "b": 1, "c": 2}}),
                         "interval space has no parameter space.params.c"),
    "space-product-factor": ("deform", lambda cfg: cfg.update(space={
                                 "kind": "product", "params": {"spaces": [
                                     {"kind": "interval", "params": {"a": 0, "b": 1}},
                                     {"kind": "circle", "params": {"radius": "1"}}]}}),
                             "circle space parameter space.params.spaces[1].params.radius "
                             "must be a positive number, got '1'"),
    # range checks of the space's parameters, made where the space is built
    "space-box-lo-above-hi": ("deform", lambda cfg: cfg["space"]["params"].update(lo=[1.0, -1.0]),
                              "box space parameter space.params.hi must be a nonempty list of "
                              "numbers, one above each of space.params.lo, got [1.0, 1.0]"),
    "space-interval-b-below-a": ("deform", lambda cfg: cfg.update(space={
                                     "kind": "interval", "params": {"a": 1, "b": 0}}),
                                 "interval space parameter space.params.b must be a number above "
                                 "space.params.a, got 0"),
    "space-circle-radius-0": ("deform", lambda cfg: cfg.update(space={
                                  "kind": "circle", "params": {"radius": 0}}),
                              "circle space parameter space.params.radius must be a positive "
                              "number, got 0"),
    "space-product-factor-kind": ("random-lambda-product", lambda cfg: cfg["space"]["params"][
                                      "spaces"][0].update(kind=[]),
                                  "unknown space kind []"),
    "space-product-factor-extra": ("random-lambda-product", lambda cfg: cfg["space"]["params"][
                                       "spaces"][1].update(extra=1),
                                   "box space has no field space.params.spaces[1].extra"),
    # faults that only the library checked, read with their keys
    "space-points-dimensions": ("deform", lambda cfg: cfg.update(space={
                                    "kind": "finite_points",
                                    "params": {"points": [[0.0], [1.0, 2.0]]}}),
                                "finite_points space parameter space.params.points must be "
                                f"{POINTS}, got [[0.0], [1.0, 2.0]]"),
    "space-points-empty": ("deform", lambda cfg: cfg.update(space={
                               "kind": "finite_points", "params": {"points": []}}),
                           "finite_points space parameter space.params.points must be "
                           f"{POINTS}, got []"),
    "space-product-empty": ("random-lambda-product",
                            lambda cfg: cfg["space"]["params"].update(spaces=[]),
                            "product space parameter space.params.spaces must be a list of "
                            "spaces, one or more, got []"),
    "space-circle-metric-chord": ("deform", lambda cfg: cfg.update(space={
                                      "kind": "circle", "params": {"metric": "chord"}}),
                                  "circle space parameter space.params.metric must be one of "
                                  "euclidean, geodesic, got 'chord'"),
    "subgroup-outside": ("deform", lambda cfg: cfg.update(subgroup=[0, 5]),
                         "config field subgroup must be a list of integers in 0..1, got [0, 5]"),
    # no estimate lies in a reversed range
    "expect_lambda-reversed": ("grid-geometric", lambda cfg: cfg.update(expect_lambda=[0.6, 0.4]),
                               "config field expect_lambda must be a range [lo, hi] with "
                               "lo <= hi, got [0.6, 0.4]"),
    **{f"mean-{name}": ("deform", lambda cfg, name=name: cfg.update(mean=name),
                        f"unknown mean name {name!r}; the names are arithmetic[:n]")
       for name in ("arithmetic:0", "arithmetic:1", "arithmetic:x", "dictator:x", "dictator:2")},
}


@pytest.mark.parametrize("case", sorted(MISCONFIGURED))
def test_a_misconfigured_golden_exits_2_naming_its_key(tmp_path, capsys, case):
    name, edit, message = MISCONFIGURED[case]
    cfg = json.loads((GOLDEN / f"{name}.json").read_text())
    edit(cfg)
    code, outdir = run(tmp_path, cfg["experiment"], cfg)
    err = capsys.readouterr().err
    assert code == 2, err
    assert message in err
    assert "unexpected error" not in err
    assert not re.fullmatch(r"equimean: '[^']*'\n", err)
    assert not (outdir / "report.json").exists()


KINDED = ("space", "action", "retraction", "base_homotopy")
# what the sweep writes over each value of a kinded object; "x", True and []
# are no number
SWEEP_VALUES = ("x", -1, 1e308, True, [])
# and over each top-level key, where 0 and 1.5 meet the ranges
TOP_LEVEL_VALUES = SWEEP_VALUES + (0, 1.5)
DROP = object()


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _single_mutations(value, path):
    """(path, new value or DROP, whether no run may pass) for each single
    mutation inside ``value``, a kinded object at ``path``: an unknown key
    added to each object, each key dropped, and each value of an object or
    a list set to each of SWEEP_VALUES."""
    if isinstance(value, dict):
        yield path + ("unknown",), 1, True
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        if isinstance(value, dict):
            yield path + (key,), DROP, False
        for new in SWEEP_VALUES:
            yield path + (key,), new, _is_number(item) and not _is_number(new)
        yield from _single_mutations(item, path + (key,))


def _top_level_mutations(cfg: dict):
    """(path, new value or DROP, whether no run may pass) for each single
    mutation of a config's top-level keys: an unknown key added, and each
    key dropped or set to each of TOP_LEVEL_VALUES."""
    yield ("unknown",), 1, True
    for key in cfg:
        yield (key,), DROP, False
        for new in TOP_LEVEL_VALUES:
            yield (key,), new, False


def _names(err: str, key: str) -> bool:
    """Whether the message ``err`` names the config key ``key`` as a word of
    its own, as in ``config field seed`` or ``'mean'``, not as in
    ``verify-mean``."""
    return re.search(rf"(?<![\w.-]){re.escape(key)}(?![\w-])", err) is not None


def _mutated(cfg: dict, path: tuple, new) -> dict:
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if new is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = new
    return cfg


def test_every_single_mutation_of_a_kinded_object_exits_cleanly(tmp_path, capsys):
    # no run crashes or prints a bare key, and none passes with an unknown
    # key or with a string, a bool or a list where a number was; a run that
    # exits 2 on a mutated top-level key names it
    faults, runs = [], 0
    for config in sorted(GOLDEN.glob("*.json")):
        if config.suffixes != [".json"]:
            continue
        cfg = json.loads(config.read_text())
        mutations = [m for key in KINDED for m in _single_mutations(cfg.get(key), (key,))]
        for path, new, must_fail in mutations + list(_top_level_mutations(cfg)):
            code, _ = run(tmp_path, cfg["experiment"], _mutated(cfg, path, new))
            err = capsys.readouterr().err
            runs += 1
            if (code not in (0, 1, 2) or "unexpected error" in err
                    or re.fullmatch(r"equimean: '[^']*'\n", err) or must_fail and code == 0
                    or len(path) == 1 and code == 2 and not _names(err, path[0])):
                faults.append((config.stem, path, new, code, err))
    # the sweep covers every golden's kinded objects and top-level keys
    assert runs == 1440
    assert faults == []


@pytest.mark.parametrize("command", ["verify-claim1", "verify-holder", "build-homotopy"])
def test_a_start_point_outside_the_space_exits_2(tmp_path, capsys, command):
    cfg = {"space": {"kind": "interval", "params": {"a": 1.0, "b": 2.0}}, "mean": "geometric",
           "lambda": 0.5, "theta": [2.0], "x": [50.0], "depth": 4}
    code, outdir = run(tmp_path, command, cfg)
    assert code == 2
    assert capsys.readouterr().err == ("equimean: config field x must be a point of "
                                       "Interval(a=1.0, b=2.0), got [50.0]\n")
    assert not (outdir / "report.json").exists()


# the equimean modules a fresh process holds after ``import equimean.cli`` and
# one run: each run compiles only the modules its experiment uses
STARTUP_MODULES = {"equimean", "equimean.cli", "equimean.errors", "equimean._readers"}
MEANS_MODULES = STARTUP_MODULES | {"equimean.means", "equimean.spaces"}
LAWS_MODULES = MEANS_MODULES | {"equimean.laws", "equimean.rng"}
SEARCH_MODULES = LAWS_MODULES | {"equimean.search"}
HOMOTOPY_MODULES = LAWS_MODULES | {"equimean.homotopy", "equimean.dyadics",
                                   "equimean._dyadic_runners"}
RUN_MODULES = {
    "chain": STARTUP_MODULES | {"equimean.dyadics"},
    "solomonic": SEARCH_MODULES,
    "random-lambda": SEARCH_MODULES,
    "random-lambda-product": SEARCH_MODULES,
    "random-lambda-retry": SEARCH_MODULES,
    "laws-transpositions": LAWS_MODULES,
    "laws": LAWS_MODULES | {"equimean.groups"},
    "laws-dictator": LAWS_MODULES | {"equimean.groups"},
    "trajectory-understated": HOMOTOPY_MODULES,
    "verify-claim1": HOMOTOPY_MODULES,
    "verify-holder": HOMOTOPY_MODULES,
    "symmetrize": HOMOTOPY_MODULES | {"equimean.groups"},
    "symmetrize-dictator": HOMOTOPY_MODULES | {"equimean.groups"},
    "deform": HOMOTOPY_MODULES | {"equimean.groups"},
    "deform-subgroup": HOMOTOPY_MODULES | {"equimean.groups"},
    "grid-geometric": MEANS_MODULES | {"equimean._kernels"},
    "grid-minsq": MEANS_MODULES | {"equimean._kernels"},
}
# what ``import dataclasses`` loads, some 6 ms of start-up. No module of the
# package imports it, so a run that loads no numpy (which imports inspect
# itself) loads none of these; the runs of NUMPY_FREE load no numpy
DATACLASS_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
NUMPY_FREE = {"chain", "symmetrize", "deform", "grid-geometric", "grid-minsq"}


def modules_after(code: str) -> set:
    """The modules that a fresh process holds after ``import equimean.cli``
    and ``code``."""
    out = run_child("-c", "import sys\nimport equimean.cli\n" + textwrap.dedent(code) +
                    "\nprint(*sys.modules)\n")
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def equimean_modules_after(code: str) -> set:
    return {m for m in modules_after(code) if m.split(".")[0] == "equimean"}


def test_loading_configs_loads_only_the_cli():
    # what the benchmark's set-up child does
    configs = sorted(str(p) for p in GOLDEN.glob("*.json") if p.suffixes == [".json"])
    assert len(configs) == len(GOLDEN_EXITS)
    loaded = equimean_modules_after(f"for config in {configs!r}:\n"
                                    "    equimean.cli.load_config(config)")
    assert loaded == STARTUP_MODULES


@pytest.mark.parametrize("name", sorted(RUN_MODULES))
def test_each_run_loads_only_its_modules(tmp_path, name):
    if name in GOLDEN_EXITS:
        config = GOLDEN / f"{name}.json"
        experiment = json.loads(config.read_text())["experiment"]
    else:
        config, experiment = write_config(tmp_path, RERUN_CONFIGS[name]), name
    argv = [experiment, "--config", str(config), "--out", str(tmp_path / "out")]
    loaded = modules_after(f"assert equimean.cli.main({argv!r}) == {GOLDEN_EXITS.get(name, 0)}")
    assert {m for m in loaded if m.split(".")[0] == "equimean"} == RUN_MODULES[name]
    assert name not in NUMPY_FREE or "numpy" not in loaded
    if "numpy" not in loaded:
        assert not loaded & DATACLASS_MODULES


def imported_names(path: Path) -> set:
    """The modules that the import statements of a source file name:
    ``dataclasses`` for ``import dataclasses`` and ``from dataclasses import
    field``, ``cli`` for ``from .cli import main`` and ``from . import cli``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            prefix = f"{node.module}." if node.module else ""
            names.update([node.module] + [prefix + a.name for a in node.names])
    return names


def test_no_module_imports_dataclasses():
    for path in Path(equimean.__file__).parent.glob("*.py"):
        assert "dataclasses" not in imported_names(path), path.name


def test_no_module_imports_the_cli():
    # under ``python -m equimean.cli`` the CLI runs as ``__main__``: a module
    # that imported equimean.cli would compile it again, with a second
    # ConfigError class that main would not catch
    for path in Path(equimean.__file__).parent.glob("*.py"):
        assert not imported_names(path) & {"cli", "equimean.cli"}, path.name


@pytest.mark.parametrize("experiment, cfg, message", [
    # raised in _dyadic_runners, through _readers._need
    ("verify-claim1", {"space": INTERVAL01, "mean": "arithmetic:2", "theta": [0.0]},
     "verify-claim1 requires the config field 'lambda'"),
    ("estimate-lambda", {"space": INTERVAL01, "mean": "arithmetic:2",
                         "expect_lambda": [0.6, 0.4]},
     "config field expect_lambda must be a range [lo, hi] with lo <= hi, got [0.6, 0.4]"),
])
def test_a_config_error_under_python_m_exits_2_with_its_message(tmp_path, experiment, cfg,
                                                                 message):
    out = run_child("-m", "equimean.cli", experiment, "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "out"))
    assert (out.returncode, out.stderr) == (2, f"equimean: {message}\n")
    assert not (tmp_path / "out" / "report.json").exists()
