"""Config-driven experiment runner.

Usage: ``equimean <subcommand> --config path [--seed N] [--out dir]``.
Every run writes ``report.json`` into the output directory (plus a CSV
or SVG where the experiment produces one) and exits 0 when all checks
passed, 1 on a check failure (the witness is in the report), 2 on a
usage or configuration error. Set EQUIMEAN_LOG=debug for verbose logs.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
import time
from importlib import resources
from pathlib import Path

from . import dyadics, plotsvg
from .errors import (
    CapacityError,
    EquimeanError,
    HypothesisError,
    PrecisionError,
    ToleranceError,
)
from .groups import Subgroup, action_from_json, full_subgroup
from .homotopy import (
    ContractionBuilder,
    fixed_set_deformation,
    straight_line_extension,
    symmetrize,
    verify_claim1,
    verify_holder,
)
from .means import (
    LambdaConfig,
    check_anonymity,
    check_equivariance,
    check_strict_betweenness,
    check_unanimity,
    estimate_lambda,
    mean_from_name,
    sample_tuples,
    solomonic_witness_search,
)
from .spaces import as_point, space_from_json

log = logging.getLogger("equimean")

# times a build-homotopy run may evaluate. This caps the run's one table of
# dyadic nodes, which lives for its at_times call and holds up to 2 (level + 1)
# nodes per time: at level 40 on a 2-D box a run peaks at 150 MB for 20,000
# times (CPython 3.11), and at about 610-660 MB at this cap
TIMES_CAP = 100_000

EXPERIMENTS = (
    "verify-mean",
    "estimate-lambda",
    "chain",
    "build-homotopy",
    "verify-claim1",
    "verify-holder",
    "symmetrize",
    "deform-fixed",
    "solomonic-search",
)


class ConfigError(Exception):
    """Anything that makes the run unusable before checks start."""


def _schema() -> dict:
    text = resources.files("equimean").joinpath("schemas/config.schema.json").read_text()
    return json.loads(text)


def _where(path) -> str:
    """A JSON path such as ``$.space.params.b`` or ``$.x[0]``."""
    return "$" + "".join(f".{p}" if isinstance(p, str) else f"[{p}]" for p in path)


def _non_finite_path(value, path=()):
    """The path of the first NaN or infinity in a parsed config, or None;
    ``json.loads`` accepts NaN, Infinity and overflowing literals like 1e999."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return None
    for key, item in children:
        found = _non_finite_path(item, path + (key,))
        if found is not None:
            return found
    return None


# The config schema's keywords that _conforms interprets, and those it
# skips; any other keyword raises, so a schema edit cannot quietly go
# unchecked. The packaged schema is checked against its meta-schema by the
# test suite, not on every run.
_CHECKED_KEYWORDS = frozenset({
    "type", "enum", "properties", "additionalProperties", "required", "items",
    "minimum", "exclusiveMinimum", "exclusiveMaximum", "minItems", "maxItems", "$ref",
})
_SKIPPED_KEYWORDS = frozenset({"$schema", "title", "$defs"})

# Draft 2020-12 types as jsonschema checks them: a bool is no number, and
# an integral float such as 3.0 is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}


def _json_equal(one, two) -> bool:
    """Equality as jsonschema's ``enum`` applies it: True is not 1, False is
    not 0, also inside arrays and objects."""
    if one is two:
        return True
    if isinstance(one, str) or isinstance(two, str):
        return one == two
    if isinstance(one, list) and isinstance(two, list):
        return len(one) == len(two) and all(map(_json_equal, one, two))
    if isinstance(one, dict) and isinstance(two, dict):
        return len(one) == len(two) and all(
            k in two and _json_equal(v, two[k]) for k, v in one.items()
        )
    if isinstance(one, bool) or isinstance(two, bool):
        return False
    return one == two


def _conforms(value, schema: dict, root: dict) -> bool:
    """Whether ``value`` is valid under ``schema`` (a node of ``root``) in
    Draft 2020-12 as jsonschema applies it, for the keywords in
    ``_CHECKED_KEYWORDS``. The numeric bounds skip non-numbers and fail
    only on jsonschema's own comparisons, so NaN passes them as it does
    there."""
    unknown = schema.keys() - _CHECKED_KEYWORDS - _SKIPPED_KEYWORDS
    if unknown:
        raise NotImplementedError(f"config schema keywords {sorted(unknown)} have no check")
    if schema.get("additionalProperties", False) is not False:
        raise NotImplementedError("config schema additionalProperties must be false")
    if "$ref" in schema:
        ref = schema["$ref"]
        if not ref.startswith("#/$defs/"):
            raise NotImplementedError(f"config schema $ref {ref!r} is not local")
        if not _conforms(value, root["$defs"][ref[len("#/$defs/"):]], root):
            return False
    if "type" in schema:
        names = schema["type"]
        if not any(_TYPES[n](value) for n in ([names] if isinstance(names, str) else names)):
            return False
    if "enum" in schema and not any(_json_equal(value, e) for e in schema["enum"]):
        return False
    if isinstance(value, dict):
        props = schema.get("properties", {})
        if "additionalProperties" in schema and not value.keys() <= props.keys():
            return False
        return all(k in value for k in schema.get("required", ())) and all(
            _conforms(value[k], sub, root) for k, sub in props.items() if k in value
        )
    if isinstance(value, list):
        return (
            len(value) >= schema.get("minItems", 0)
            and len(value) <= schema.get("maxItems", len(value))
            and all(_conforms(v, schema.get("items", {}), root) for v in value)
        )
    if _TYPES["number"](value):
        return not (
            "minimum" in schema and value < schema["minimum"]
            or "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]
            or "exclusiveMaximum" in schema and value >= schema["exclusiveMaximum"]
        )
    return True


def _integral_floats_to_int(value, schema: dict, root: dict):
    """``value``, valid under ``schema`` (a node of ``root``), with every
    float at an ``integer`` position made an int. The schema accepts an
    integral float such as 3.0 there, as Draft 2020-12 does, and the
    runners pass these values to ``range()``."""
    ref = schema.get("$ref")
    if ref is not None:
        value = _integral_floats_to_int(value, root["$defs"][ref[len("#/$defs/"):]], root)
    if schema.get("type") == "integer" and isinstance(value, float):
        return int(value)
    if isinstance(value, dict):
        props = schema.get("properties", {})
        return {k: _integral_floats_to_int(v, props[k], root) if k in props else v
                for k, v in value.items()}
    if isinstance(value, list) and "items" in schema:
        return [_integral_floats_to_int(v, schema["items"], root) for v in value]
    return value


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    bad = _non_finite_path(cfg)
    if bad is not None:
        raise ConfigError(f"{path}: {_where(bad)}: not a finite number")
    schema = _schema()
    if _conforms(cfg, schema, schema):
        return _integral_floats_to_int(cfg, schema, schema)
    # rejected: jsonschema explains why, with what jsonschema.validate
    # raises (less its meta-schema check of the schema)
    import jsonschema

    validator = jsonschema.validators.validator_for(schema)(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(cfg))
    if error is None:
        raise RuntimeError(f"{path}: the in-package schema check and jsonschema disagree")
    raise ConfigError(f"{path}: {_where(error.absolute_path)}: {error.message}") from error


def _need(cfg: dict, key: str, experiment: str):
    if key not in cfg:
        raise ConfigError(f"{experiment} requires the config field {key!r}")
    return cfg[key]


def _space(cfg: dict, experiment: str):
    return space_from_json(_need(cfg, "space", experiment))


def _mean(cfg: dict, space, experiment: str):
    return mean_from_name(_need(cfg, "mean", experiment), space)


def _action(cfg: dict, space, experiment: str):
    return action_from_json(_need(cfg, "action", experiment), space)


def _retraction(cfg: dict, space):
    spec = cfg.get("retraction", {"kind": "zero_coordinate", "axis": space.dim - 1})
    kind = spec.get("kind")
    if kind == "zero_coordinate":
        axis = int(spec.get("axis", space.dim - 1))

        def retract(x):
            return tuple(0.0 if i == axis else c for i, c in enumerate(x))

        return retract
    if kind == "constant":
        pt = as_point(spec["point"])
        space.require_member(pt)
        return lambda x: pt
    raise ConfigError(f"unknown retraction kind {kind!r}")


def _base_homotopy(cfg: dict, space):
    spec = cfg.get("base_homotopy", {"kind": "straight_line_to"})
    kind = spec.get("kind", "straight_line_to")
    if kind == "straight_line_to":
        theta = as_point(spec.get("theta", cfg.get("theta", 0.0)))
        space.require_member(theta)
        return straight_line_extension(space, lambda x: theta)
    if kind == "dyadic":
        mean = mean_from_name(spec["mean"], space)
        builder = _certified_builder(space, mean, float(spec["lambda"]), as_point(spec["theta"]))
        eps = float(spec.get("eps", 1e-9))
        return lambda x, t: builder.at_time(x, t, eps)[0]
    raise ConfigError(f"unknown base homotopy kind {kind!r}")


# ---------------------------------------------------------------------------
# experiment runners: each returns (passed, results dict, path), where the
# path names the route the computation took; it is logged, never reported


def run_verify_mean(cfg: dict, outdir: Path):
    space = _space(cfg, "verify-mean")
    mean = _mean(cfg, space, "verify-mean")
    laws = cfg.get("laws", ["M1", "M2"])
    tol = cfg.get("tol", 1e-9)
    seed = cfg.get("seed", 1)
    count = cfg.get("samples", 200)
    results = {"mean": mean.label, "laws": {}}
    passed = True
    for law in laws:
        if law == "M1":
            report = check_unanimity(mean, space.sample(seed, count), tol)
        elif law == "M2":
            report = check_anonymity(mean, sample_tuples(space, mean.arity, seed, count), tol, seed)
        elif law == "equivariance":
            action = _action(cfg, space, "verify-mean with the equivariance law")
            report = check_equivariance(
                mean, action, sample_tuples(space, mean.arity, seed, count), tol
            )
        elif law == "strict-betweenness":
            report = check_strict_betweenness(
                mean, sample_tuples(space, mean.arity, seed, count)
            )
        else:
            raise ConfigError(f"unknown law {law!r}")
        results["laws"][law] = report.to_json()
        passed = passed and report.passed
    return passed, results, f"{len(laws)} laws on {count} samples"


def run_estimate_lambda(cfg: dict, outdir: Path):
    space = _space(cfg, "estimate-lambda")
    mean = _mean(cfg, space, "estimate-lambda")
    lcfg = LambdaConfig(
        grid_step=cfg.get("grid_step", 1e-3),
        excluded_diameter=cfg.get("excluded_diameter", 1e-6),
        restarts=cfg.get("restarts", 100),
        seed=cfg.get("seed", 1),
        force_random=cfg.get("force_random", False),
    )
    estimate = estimate_lambda(mean, lcfg)
    with open(outdir / "lambda.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(estimate.csv_header())
        writer.writerow(estimate.csv_row())
    results = {"mean": mean.label, "estimate": estimate.to_json()}
    passed = True
    if "expect_lambda" in cfg:
        lo, hi = cfg["expect_lambda"]
        results["expected_range"] = [lo, hi]
        passed = lo <= estimate.lambda_hat <= hi
    return passed, results, f"{estimate.method}, {estimate.samples} samples"


def run_chain(cfg: dict, outdir: Path):
    s = dyadics.parse_dyadic(_need(cfg, "s", "chain"))
    t = dyadics.parse_dyadic(_need(cfg, "t", "chain"))
    if not s < t:
        raise ConfigError(f"chain needs s < t, got {s} >= {t}")
    decomposition = dyadics.chain_decompose(s, t)
    ok, violations = dyadics.validate_chain(s, t, decomposition)
    results = {
        "s": str(s),
        "t": str(t),
        "decomposition": decomposition.to_json(),
        "valid": ok,
        "violations": violations,
    }
    chain_len = len(decomposition.s_chain) + len(decomposition.t_chain)
    return ok, results, f"exact chains, {chain_len} points"


def _certified_builder(space, mean, lam: float, theta) -> ContractionBuilder:
    """A builder for a run that reports certified errors: a declared lambda
    below the sampled contractivity ratio fails the run, with the sampled
    pair as its witness."""
    builder = ContractionBuilder(space, mean, lam, theta, validate=False)
    understated = builder.check_ratio()
    if understated:
        raise HypothesisError(f"{understated}; the certified errors would not hold")
    return builder


def _builder_from(cfg: dict, experiment: str, certified: bool = False) -> tuple:
    space = _space(cfg, experiment)
    mean = _mean(cfg, space, experiment)
    lam = float(_need(cfg, "lambda", experiment))
    theta = as_point(_need(cfg, "theta", experiment))
    make = _certified_builder if certified else ContractionBuilder
    return space, mean, make(space, mean, lam, theta)


def _start_point(cfg: dict, space):
    """The tracked point; sampled from the seed when the config omits it."""
    if "x" in cfg:
        return as_point(cfg["x"])
    return space.sample(cfg.get("seed", 1), 1)[0]


def run_build_homotopy(cfg: dict, outdir: Path):
    times = cfg.get("times", 65)
    if times > TIMES_CAP:
        raise CapacityError(f"build-homotopy times {times} exceed the cap {TIMES_CAP}")
    space, mean, builder = _builder_from(cfg, "build-homotopy", certified=True)
    x = _start_point(cfg, space)
    space.require_member(x)
    eps = cfg.get("eps", 1e-6)
    ts = [i / (times - 1) for i in range(times)]
    values = builder.at_times(x, ts, eps)
    csv_name = "trajectory.csv"
    with open(outdir / csv_name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{i}" for i in range(space.dim)] + ["error"])
        for t, (point, err) in zip(ts, values):
            writer.writerow([repr(t)] + [repr(c) for c in point] + [repr(err)])
    artifacts = {"trajectory_csv": csv_name}
    if cfg.get("svg", False):
        plotsvg.emit_plot(outdir / csv_name, outdir / "trajectory.svg")
        artifacts["svg"] = "trajectory.svg"
    results = {
        "mean": mean.label,
        "eps": eps,
        "times": times,
        "max_certified_error": max(err for _, err in values),
        "alpha": builder.alpha,
        **artifacts,
    }
    return True, results, f"at_times, {times} times"


def run_verify_claim1(cfg: dict, outdir: Path):
    space, mean, builder = _builder_from(cfg, "verify-claim1")
    x = _start_point(cfg, space)
    depth = cfg.get("depth", 12)
    report = verify_claim1(builder, x, depth)
    results = {"mean": mean.label, "depth": depth, "report": report.to_json()}
    return report.passed, results, f"level arrays 0..{depth}, {report.pairs_checked} pairs"


def run_verify_holder(cfg: dict, outdir: Path):
    space, mean, builder = _builder_from(cfg, "verify-holder")
    x = _start_point(cfg, space)
    depth = cfg.get("depth", 12)
    pairs = cfg.get("pairs", 10000)
    report = verify_holder(builder, x, pairs, depth, cfg.get("seed", 1))
    results = {"mean": mean.label, "depth": depth, "report": report.to_json()}
    return report.passed, results, f"level array {depth}, {report.pairs_checked} pairs"


def run_symmetrize(cfg: dict, outdir: Path):
    space = _space(cfg, "symmetrize")
    action = _action(cfg, space, "symmetrize")
    mean = _mean(cfg, space, "symmetrize")
    base = _base_homotopy(cfg, space)
    gh = symmetrize(
        base,
        action,
        mean,
        tol=cfg.get("tol", 1e-9),
        trust_laws=cfg.get("trust_laws", False),
        seed=cfg.get("seed", 1),
        samples=cfg.get("samples", 32),
    )
    results = {"mean": mean.label, "action": action.name, "report": gh.report}
    return True, results, f"{action.group.order} translates per point"


def run_deform_fixed(cfg: dict, outdir: Path):
    space = _space(cfg, "deform-fixed")
    action = _action(cfg, space, "deform-fixed")
    members = cfg.get("subgroup")
    H = full_subgroup(action.group) if members is None else Subgroup(action.group, tuple(members))
    mean = _mean(cfg, space, "deform-fixed")
    retraction = _retraction(cfg, space)
    ext_spec = cfg.get("extension", {"kind": "straight_line"})
    if ext_spec.get("kind") != "straight_line":
        raise ConfigError(f"unknown extension kind {ext_spec.get('kind')!r}")
    extension = straight_line_extension(space, retraction)
    gh = fixed_set_deformation(
        action,
        H,
        retraction,
        mean,
        extension,
        tol=cfg.get("tol", 1e-9),
        trust_laws=cfg.get("trust_laws", False),
        seed=cfg.get("seed", 1),
        samples=cfg.get("samples", 64),
    )
    results = {
        "mean": mean.label,
        "action": action.name,
        "subgroup": list(H.members),
        "report": gh.report,
    }
    return True, results, f"subgroup of order {H.order}"


def run_solomonic_search(cfg: dict, outdir: Path):
    space = _space(cfg, "solomonic-search")
    mean = _mean(cfg, space, "solomonic-search")
    result = solomonic_witness_search(
        mean,
        _need(cfg, "K", "solomonic-search"),
        budget=cfg.get("budget", 20000),
        seed_or_rng=cfg.get("seed", 1),
    )
    results = {"mean": mean.label, "search": result.to_json()}
    return True, results, f"random+hill, {result.evaluations} evaluations"


RUNNERS = {
    "verify-mean": run_verify_mean,
    "estimate-lambda": run_estimate_lambda,
    "chain": run_chain,
    "build-homotopy": run_build_homotopy,
    "verify-claim1": run_verify_claim1,
    "verify-holder": run_verify_holder,
    "symmetrize": run_symmetrize,
    "deform-fixed": run_deform_fixed,
    "solomonic-search": run_solomonic_search,
}


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equimean",
        description="verify means, estimate contraction constants and build "
        "certified dyadic homotopies",
    )
    sub = parser.add_subparsers(dest="command")
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        if name == "chain":
            p.add_argument("s", nargs="?", help="left dyadic, e.g. 1/8")
            p.add_argument("t", nargs="?", help="right dyadic, e.g. 3/4")
            p.add_argument("--config")
        else:
            p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", default=".")
    plot = sub.add_parser("plot", help="render a trajectory CSV as SVG")
    plot.add_argument("csv")
    plot.add_argument("svg")
    return parser


def _configure_logging() -> None:
    level = os.environ.get("EQUIMEAN_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _write_report(outdir: Path, report: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    (outdir / "report.json").write_text(text)


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "plot":
        try:
            plotsvg.emit_plot(args.csv, args.svg)
        except (OSError, ValueError) as exc:
            print(f"equimean: plot failed: {exc}", file=sys.stderr)
            return 2
        return 0
    cfg = None
    try:
        cfg = load_config(args.config) if args.config else {}
        if args.command == "chain":
            if getattr(args, "s", None) is not None:
                cfg["s"] = args.s
            if getattr(args, "t", None) is not None:
                cfg["t"] = args.t
        declared = cfg.get("experiment")
        if declared is not None and declared != args.command:
            raise ConfigError(
                f"config declares experiment {declared!r} but the subcommand is "
                f"{args.command!r}"
            )
        if args.seed is not None:
            cfg["seed"] = args.seed
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        passed, results, path = RUNNERS[args.command](cfg, outdir)
        log.debug("%s: %.3f s, %s", args.command, time.perf_counter() - start, path)
        report = {
            "experiment": args.command,
            "config": cfg,
            "passed": passed,
            "results": results,
        }
        _write_report(outdir, report)
        return 0 if passed else 1
    except (HypothesisError, ToleranceError) as exc:
        # a numeric check failed: record it and exit as a check failure
        report = {
            "experiment": args.command,
            "config": cfg,
            "passed": False,
            "error": str(exc),
        }
        try:
            _write_report(Path(args.out), report)
        except OSError:
            pass
        print(f"equimean: check failed: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, PrecisionError, EquimeanError, ValueError, KeyError, OSError) as exc:
        print(f"equimean: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # never crash with a traceback; debug logs show it
        log.debug("unexpected error in %s", args.command, exc_info=True)
        print(f"equimean: unexpected error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
