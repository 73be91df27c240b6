"""Config-driven experiment runner.

Usage: ``equimean <subcommand> --config path [--seed N] [--out dir]``.
Every run writes ``report.json`` into the output directory (plus a CSV
where the experiment produces one) and exits 0 when all checks passed,
1 on a check failure (the witness is in the report), 2 on a usage or
configuration error; ``equimean plot <csv> <svg>`` renders a trajectory.
Set EQUIMEAN_LOG=debug for verbose logs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path

from ._readers import (_coordinates, _fraction, _integer_in, _list_of, _non_negative, _number,
                       _object, _one_of, _positive, _read_fields, _read_kinded, _string, _within)
from .errors import CapacityError, EquimeanError, HypothesisError, ToleranceError

# Each runner imports the modules it uses, so a run compiles only those (with
# PYTHONDONTWRITEBYTECODE set, every process compiles the package's source).
# A function-level ``from .means import ...`` reads the module attribute at
# call time, so wrappers installed on it still apply

# times a build-homotopy run may evaluate. Its at_times call walks that many
# times down the levels on arrays: at this cap and level 40 on a 2-D box
# (arithmetic:2, eps 1e-11) a run took 1.5 s and peaked at 81 MB RSS (2-vCPU
# VM, CPython 3.11), where the node table of earlier versions took 11 s and 611 MB
TIMES_CAP = 100_000

class ConfigError(Exception):
    """Anything that makes the run unusable before checks start."""


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
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: a config must be an object, got {cfg!r}")
    try:
        read = _read_fields(cfg, CONFIG_FIELDS, "config", "")
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    # the file's values, as the readers return them: an integral float at an
    # integer position reads as its int, as the runners pass it to range()
    return {key: read[key] for key in cfg}


def _need(cfg: dict, key: str, experiment: str):
    if key not in cfg:
        raise ConfigError(f"{experiment} requires the config field {key!r}")
    return cfg[key]


def _space(cfg: dict, experiment: str):
    from .spaces import space_from_json

    return space_from_json(_need(cfg, "space", experiment))


def _mean(cfg: dict, space, experiment: str):
    from .means import mean_from_name

    return mean_from_name(_need(cfg, "mean", experiment), space)


def _action(cfg: dict, space, experiment: str):
    from .groups import action_from_json

    return action_from_json(_need(cfg, "action", experiment), space)


def _given(cfg: dict, *keys) -> dict:
    """The config's values for those of ``keys`` it sets; the library's
    defaults fill in the rest."""
    return {k: cfg[k] for k in keys if k in cfg}


def _point_of(space, required: bool = False) -> tuple:
    """The field of a point of ``space``: (reader, what it reads, required)."""
    from .spaces import _point

    return _within(_point, space.contains), f"a point of {space!r}", required


def _retraction(cfg: dict, space):
    def zero_coordinate(args):
        axis = args.get("axis", space.dim - 1)
        return lambda x: tuple(0.0 if i == axis else c for i, c in enumerate(x))

    def constant(args):
        return lambda x: args["point"]

    axis = (_integer_in(0, space.dim - 1), f"an integer in 0..{space.dim - 1}", False)
    kinds = {"zero_coordinate": ({"axis": axis}, zero_coordinate),
             "constant": ({"point": _point_of(space, True)}, constant)}
    build, args = _read_kinded(cfg.get("retraction", {"kind": "zero_coordinate"}), "kind",
                               kinds, "retraction", "retraction")
    return build(args)


def _base_homotopy(cfg: dict, space):
    from .homotopy import ContractionBuilder, straight_line_extension
    from .means import mean_from_name

    point = _point_of(space)

    def straight_line_to(args):
        # else the config's theta, or 0.0, read as the config field theta
        theta = args["theta"] if "theta" in args else _read_fields(
            {"theta": cfg.get("theta", 0.0)}, {"theta": point}, "config", "")["theta"]
        return straight_line_extension(space, lambda x: theta)

    def dyadic(args):
        mean = mean_from_name(args["mean"], space)
        builder = ContractionBuilder(mean, float(args["lambda"]), args["theta"])
        eps = float(args.get("eps", 1e-9))
        return lambda x, t: builder.at_time(x, t, eps)[0]

    kinds = {"straight_line_to": ({"theta": point}, straight_line_to),
             "dyadic": ({"mean": (_string, "a string", True),
                         "lambda": (_fraction, "a number in (0, 1)", True),
                         "theta": _point_of(space, True),
                         "eps": (_positive, "a positive number", False)},
                        dyadic)}
    build, args = _read_kinded(cfg.get("base_homotopy", {}), "kind", kinds, "base homotopy",
                               "base_homotopy", default="straight_line_to")
    return build(args)


# ---------------------------------------------------------------------------
# experiment runners: each returns (passed, results dict, path), where the
# path names the route the computation took; it is logged, never reported


def run_verify_mean(cfg: dict, outdir: Path):
    from .means import check_laws

    space = _space(cfg, "verify-mean")
    mean = _mean(cfg, space, "verify-mean")
    laws = cfg.get("laws", ["M1", "M2"])
    count = cfg.get("samples", 200)
    action = None
    if "equivariance" in laws:
        action = _action(cfg, space, "verify-mean with the equivariance law")
    reports = check_laws(mean, laws, cfg.get("seed", 1), count, action=action,
                         **_given(cfg, "tol"))
    results = {"mean": mean.label, "laws": {law: r.to_json() for law, r in reports.items()}}
    passed = all(r.passed for r in reports.values())
    return passed, results, f"{len(laws)} laws on {count} samples"


def run_estimate_lambda(cfg: dict, outdir: Path):
    from .means import LambdaConfig, estimate_lambda

    expected = cfg.get("expect_lambda")
    if expected is not None and not expected[0] <= expected[1]:
        raise ConfigError(f"config field expect_lambda must be a range [lo, hi] with lo <= hi, "
                          f"got {expected!r}")
    space = _space(cfg, "estimate-lambda")
    mean = _mean(cfg, space, "estimate-lambda")
    lcfg = LambdaConfig(**_given(cfg, "grid_step", "excluded_diameter", "restarts", "seed"))
    estimate = estimate_lambda(mean, lcfg)
    with open(outdir / "lambda.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(estimate.csv_header())
        writer.writerow(estimate.csv_row())
    results = {"mean": mean.label, "estimate": estimate.to_json()}
    passed = True
    if expected is not None:
        lo, hi = expected
        results["expected_range"] = [lo, hi]
        passed = lo <= estimate.lambda_hat <= hi
    path = (estimate.method, estimate.route, f"{estimate.samples} samples")
    return passed, results, ", ".join(part for part in path if part)


def run_chain(cfg: dict, outdir: Path):
    from .dyadics import chain_decompose, parse_dyadic, validate_chain

    s = parse_dyadic(_need(cfg, "s", "chain"))
    t = parse_dyadic(_need(cfg, "t", "chain"))
    if not s < t:
        raise ConfigError(f"chain needs s < t, got {s} >= {t}")
    decomposition = chain_decompose(s, t)
    ok, violations = validate_chain(s, t, decomposition)
    results = {
        "s": str(s),
        "t": str(t),
        "decomposition": decomposition.to_json(),
        "valid": ok,
        "violations": violations,
    }
    chain_len = len(decomposition.s_chain) + len(decomposition.t_chain)
    return ok, results, f"exact chains, {chain_len} points"


def _builder_from(cfg: dict, experiment: str) -> tuple:
    """(mean, builder, x): the config's dyadic contraction and its start
    point. theta and x are read as points of the space, and x is sampled
    from the seed when the config omits it."""
    from .homotopy import ContractionBuilder

    space = _space(cfg, experiment)
    mean = _mean(cfg, space, experiment)
    lam = float(_need(cfg, "lambda", experiment))
    _need(cfg, "theta", experiment)
    point = _point_of(space)
    points = _read_fields(_given(cfg, "theta", "x"), dict.fromkeys(("theta", "x"), point),
                          "config", "")
    x = points["x"] if "x" in points else space.sample(cfg.get("seed", 1), 1)[0]
    return mean, ContractionBuilder(mean, lam, points["theta"]), x


def run_build_homotopy(cfg: dict, outdir: Path):
    times = cfg.get("times", 65)
    if times > TIMES_CAP:
        raise CapacityError(f"build-homotopy times {times} exceed the cap {TIMES_CAP}")
    mean, builder, x = _builder_from(cfg, "build-homotopy")
    eps = cfg.get("eps", 1e-6)
    ts = [i / (times - 1) for i in range(times)]
    values = builder.at_times(x, ts, eps)
    csv_name = "trajectory.csv"
    with open(outdir / csv_name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{i}" for i in range(builder.space.dim)] + ["error"])
        for t, (point, err) in zip(ts, values):
            writer.writerow([repr(t)] + [repr(c) for c in point] + [repr(err)])
    results = {
        "mean": mean.label,
        "eps": eps,
        "times": times,
        "max_certified_error": max(err for _, err in values),
        "alpha": builder.alpha,
        "trajectory_csv": csv_name,
    }
    return True, results, f"at_times, {times} times"


def run_verify_claim1(cfg: dict, outdir: Path):
    from .homotopy import verify_claim1

    mean, builder, x = _builder_from(cfg, "verify-claim1")
    depth = cfg.get("depth", 12)
    report = verify_claim1(builder, x, depth)
    results = {"mean": mean.label, "depth": depth, "report": report.to_json()}
    return report.passed, results, f"level arrays 0..{depth}, {report.pairs_checked} pairs"


def run_verify_holder(cfg: dict, outdir: Path):
    from .homotopy import verify_holder

    mean, builder, x = _builder_from(cfg, "verify-holder")
    depth = cfg.get("depth", 12)
    pairs = cfg.get("pairs", 10000)
    report = verify_holder(builder, x, pairs, depth, cfg.get("seed", 1))
    results = {"mean": mean.label, "depth": depth, "report": report.to_json()}
    return report.passed, results, f"level array {depth}, {report.pairs_checked} pairs"


def run_symmetrize(cfg: dict, outdir: Path):
    from .homotopy import symmetrize

    space = _space(cfg, "symmetrize")
    action = _action(cfg, space, "symmetrize")
    mean = _mean(cfg, space, "symmetrize")
    base = _base_homotopy(cfg, space)
    gh = symmetrize(base, action, mean, seed=cfg.get("seed", 1),
                    **_given(cfg, "tol", "samples"))
    results = {"mean": mean.label, "action": action.name, "report": gh.report}
    return True, results, f"{action.group.order} translates per point"


def run_deform_fixed(cfg: dict, outdir: Path):
    from .groups import Subgroup, full_subgroup
    from .homotopy import fixed_set_deformation, straight_line_extension

    space = _space(cfg, "deform-fixed")
    action = _action(cfg, space, "deform-fixed")
    last = action.group.order - 1
    ids = (_list_of(_integer_in(0, last)), f"a list of integers in 0..{last}", False)
    members = _read_fields(_given(cfg, "subgroup"), {"subgroup": ids}, "config", "").get("subgroup")
    H = full_subgroup(action.group) if members is None else Subgroup(action.group, members)
    mean = _mean(cfg, space, "deform-fixed")
    retraction = _retraction(cfg, space)
    extension = straight_line_extension(space, retraction)
    gh = fixed_set_deformation(action, H, retraction, mean, extension, seed=cfg.get("seed", 1),
                               **_given(cfg, "tol", "samples"))
    results = {
        "mean": mean.label,
        "action": action.name,
        "subgroup": list(H.members),
        "report": gh.report,
    }
    return True, results, f"subgroup of order {H.order}"


def run_solomonic_search(cfg: dict, outdir: Path):
    from .means import solomonic_witness_search

    space = _space(cfg, "solomonic-search")
    mean = _mean(cfg, space, "solomonic-search")
    result = solomonic_witness_search(mean, _need(cfg, "K", "solomonic-search"),
                                      seed_or_rng=cfg.get("seed", 1), **_given(cfg, "budget"))
    results = {"mean": mean.label, "search": result.to_json()}
    return True, results, result.route


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


def _retraction_object(value) -> dict:
    """An object, whose integral float ``axis`` reads as its int, as where
    the retraction is built; its other keys are read there."""
    axis = _object(value).get("axis")
    return {**value, "axis": int(axis)} if isinstance(axis, float) and axis.is_integer() else value


LAWS = ("M1", "M2", "equivariance", "strict-betweenness")
# each top-level config key, as the packaged schema describes it: key ->
# (reader, what it reads, required). The runners say which keys they need,
# and the four kinded objects are read where they are built
CONFIG_FIELDS = {
    "experiment": (_one_of(RUNNERS), "one of " + ", ".join(RUNNERS), False),
    "space": (_object, "an object", False),
    "action": (_object, "an object", False),
    "subgroup": (_list_of(_integer_in(0)), "a list of integers >= 0", False),
    "mean": (_string, "a string", False),
    "laws": (_list_of(_one_of(LAWS), 1), "a nonempty list of " + ", ".join(LAWS), False),
    "tol": (_positive, "a positive number", False),
    "eps": (_positive, "a positive number", False),
    "grid_step": (_positive, "a positive number", False),
    "excluded_diameter": (_non_negative, "a number >= 0", False),
    "restarts": (_integer_in(1), "an integer >= 1", False),
    "depth": (_integer_in(0), "an integer >= 0", False),
    "pairs": (_integer_in(1), "an integer >= 1", False),
    "samples": (_integer_in(1), "an integer >= 1", False),
    "times": (_integer_in(2), "an integer >= 2", False),
    "seed": (_integer_in(0, 2**64 - 1), "an integer in 0..2^64 - 1", False),
    "budget": (_integer_in(1), "an integer >= 1", False),
    "K": (_positive, "a positive number", False),
    "s": (_string, "a string", False),
    "t": (_string, "a string", False),
    "lambda": (_fraction, "a number in (0, 1)", False),
    "theta": (_coordinates, "a number or a list of numbers", False),
    "x": (_coordinates, "a number or a list of numbers", False),
    "expect_lambda": (_list_of(_number, 2, 2), "a list of exactly 2 numbers", False),
    "retraction": (_retraction_object, "an object", False),
    "base_homotopy": (_object, "an object", False),
}


# ---------------------------------------------------------------------------
# entry point


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The command line's parser. When ``argv`` starts with a subcommand, its
    parser is the only one built, as the others would take some 3 ms, and
    the usage line still names them all; else all are, so that help and an
    unknown command print as ever."""
    commands = (*RUNNERS, "plot")
    built = argv[:1] if argv and argv[0] in commands else commands
    parser = argparse.ArgumentParser(
        prog="equimean",
        description="verify means, estimate contraction constants and build "
        "certified dyadic homotopies",
    )
    # argparse names the subcommand's argument by its metavar where a choice
    # is refused, which happens only when all are built
    sub = parser.add_subparsers(dest="command", metavar=None if built is commands
                                else "{" + ",".join(commands) + "}")
    for name in built:
        if name == "plot":
            p = sub.add_parser(name, help="render a trajectory CSV as SVG")
            p.add_argument("csv")
            p.add_argument("svg")
            continue
        p = sub.add_parser(name)
        if name == "chain":
            p.add_argument("s", nargs="?", help="left dyadic, e.g. 1/8")
            p.add_argument("t", nargs="?", help="right dyadic, e.g. 3/4")
            p.add_argument("--config")
        else:
            p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", default=".")
    return parser


def _debug(msg: str, *args, exc_info: bool = False) -> None:
    """Log ``msg % args`` at DEBUG on the ``equimean`` logger, through
    ``basicConfig`` at EQUIMEAN_LOG's level. ``logging`` (with the
    ``traceback`` and ``string`` it loads, some 6 ms of start-up) is imported
    only when EQUIMEAN_LOG lets debug lines through or a caller has already
    imported it, as a test that captures records has; else nothing could
    print the line."""
    level = os.environ.get("EQUIMEAN_LOG", "warning").upper()
    if level not in ("DEBUG", "NOTSET") and "logging" not in sys.modules:
        return
    import logging

    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    logging.getLogger("equimean").debug(msg, *args, exc_info=exc_info)


def _write_report(outdir: Path, report: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    (outdir / "report.json").write_text(text)


def main(argv=None) -> int:
    # before any runner imports numpy: the package makes no BLAS call, and
    # starting OpenBLAS's thread pool is a large share of numpy's import time
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "plot":
        from . import plotsvg

        try:
            plotsvg.emit_plot(args.csv, args.svg)
        except (OSError, ValueError) as exc:
            print(f"equimean: plot failed: {exc}", file=sys.stderr)
            return 2
        return 0
    cfg = None
    try:
        cfg = load_config(args.config) if args.config else {}
        # chain's dyadics and --seed are read as the config's keys, and
        # override them
        given = {k: v for k, v in vars(args).items() if k in ("s", "t", "seed") and v is not None}
        cfg.update(_read_fields(given, CONFIG_FIELDS, "command line", ""))
        declared = cfg.get("experiment")
        if declared is not None and declared != args.command:
            raise ConfigError(
                f"config declares experiment {declared!r} but the subcommand is "
                f"{args.command!r}"
            )
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        passed, results, path = RUNNERS[args.command](cfg, outdir)
        _debug("%s: %.3f s, %s", args.command, time.perf_counter() - start, path)
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
    # a library range check raises ValueError naming its key, as in "lambda
    # must lie in (0, 1), got 1.5"; any other exception is a bug
    except (ConfigError, EquimeanError, ValueError, OSError) as exc:
        print(f"equimean: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # never crash with a traceback; debug logs show it
        _debug("unexpected error in %s", args.command, exc_info=True)
        print(f"equimean: unexpected error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry of ``python -m equimean.cli`` and the ``equimean``
    script: ``main()``, then exit with its code. Every output is closed
    when ``main`` returns, so the heap is frozen first: the interpreter's
    collections at exit then skip the objects that the imports and the
    run made. In-process callers call ``main`` and keep their collector as
    it was."""
    import gc

    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
