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

from ._readers import (_action, _coordinates, _fraction, _given, _integer_in, _list_of, _mean,
                       _need, _non_negative, _number, _object, _one_of, _positive, _read_fields,
                       _space, _string)
from .errors import ConfigError, EquimeanError, HypothesisError, ToleranceError

# Each runner imports the modules it uses, so a run compiles only those (with
# PYTHONDONTWRITEBYTECODE set, every process compiles the package's source).
# A function-level ``from .means import ...`` reads the module attribute at
# call time, so wrappers installed on it still apply


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


# ---------------------------------------------------------------------------
# experiment runners: each returns (passed, results dict, path), where the
# path names the route the computation took; it is logged, never reported


def run_verify_mean(cfg: dict, outdir: Path):
    from .laws import check_laws

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


def run_solomonic_search(cfg: dict, outdir: Path):
    from .search import solomonic_witness_search

    space = _space(cfg, "solomonic-search")
    mean = _mean(cfg, space, "solomonic-search")
    result = solomonic_witness_search(mean, _need(cfg, "K", "solomonic-search"),
                                      seed_or_rng=cfg.get("seed", 1), **_given(cfg, "budget"))
    results = {"mean": mean.label, "search": result.to_json()}
    return True, results, result.route


def _dyadic(name: str):
    """The runner ``name`` of ``_dyadic_runners``, which is imported when
    it runs."""
    def run(cfg: dict, outdir: Path):
        from . import _dyadic_runners

        return getattr(_dyadic_runners, name)(cfg, outdir)

    return run


RUNNERS = {
    "verify-mean": run_verify_mean,
    "estimate-lambda": run_estimate_lambda,
    "chain": run_chain,
    "build-homotopy": _dyadic("run_build_homotopy"),
    "verify-claim1": _dyadic("run_verify_claim1"),
    "verify-holder": _dyadic("run_verify_holder"),
    "symmetrize": _dyadic("run_symmetrize"),
    "deform-fixed": _dyadic("run_deform_fixed"),
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
