"""Workload definitions: seeded configs for each CLI run and the checks on
its outputs.

A workload is a fixed list of CLI runs. The seed picks start points,
sampler seeds, the geometric interval and the chain numerators; sizes,
budgets and depths are the same for every seed. Each run carries a check that compares its outputs against the
closed forms of the source paper:

* geometric mean on [a, b]: lambda = (b - sqrt(ab)) / (b - a);
* arithmetic mean of n arguments: lambda = (n - 1) / n;
* ``minsq`` on a grid of step h: lambda_hat = 1 - h / 2.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CLOSED_TOL = 1e-12


@dataclass
class Run:
    """One CLI invocation: ``python -m equimean.cli <experiment> --config ...``."""

    name: str
    experiment: str
    config: dict
    check: Callable[[dict, dict, Path], list]  # (config, report, outdir) -> problems
    gauge: str = "python"  # the gauge.py kind of work the run spends most time in


def interval(a: float, b: float) -> dict:
    return {"kind": "interval", "params": {"a": a, "b": b}}


def box(w: float) -> dict:
    return {"kind": "box", "params": {"lo": [-w, -w], "hi": [w, w]}}


def geometric_lambda(a: float, b: float) -> float:
    return (b - math.sqrt(a * b)) / (b - a)


def grid_points(a: float, b: float, step: float) -> int:
    """Grid points a + k*step up to b, counted as the CLI's scan counts them."""
    return int(math.floor((b - a) / step + 1e-9)) + 1


# ---------------------------------------------------------------------------
# checks: each returns a list of human-readable problems (empty when correct)


def _results(report: dict) -> dict:
    if report.get("passed") is not True:
        raise CheckFailed(f"report says passed={report.get('passed')!r}: {report.get('error')}")
    return report["results"]


class CheckFailed(Exception):
    pass


def _expect(problems: list, ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def check_claim1(cfg, report, outdir):
    r = _results(report)["report"]
    problems = []
    _expect(problems, r["passed"] is True, f"claim1 failed: max_ratio {r['max_ratio']}")
    want = 2 ** (cfg["depth"] + 1) - 1
    _expect(problems, r["pairs_checked"] == want,
            f"pairs_checked {r['pairs_checked']} != 2^(depth+1)-1 = {want}")
    return problems


def check_holder(cfg, report, outdir):
    r = _results(report)["report"]
    problems = []
    _expect(problems, r["passed"] is True and r["violations"] == 0,
            f"holder: {r['violations']} violations, max_ratio {r['max_ratio']}")
    _expect(problems, r["pairs_checked"] == cfg["pairs"],
            f"pairs_checked {r['pairs_checked']} != {cfg['pairs']}")
    return problems


def _check_grid(cfg, report, upper: float, exact: bool):
    est = _results(report)["estimate"]
    lam = est["lambda_hat"]
    a, b = cfg["space"]["params"]["a"], cfg["space"]["params"]["b"]
    m = grid_points(a, b, cfg["grid_step"])
    problems = []
    if exact:
        _expect(problems, abs(lam - upper) <= CLOSED_TOL,
                f"lambda_hat {lam!r} != 1 - step/2 = {upper!r} within {CLOSED_TOL}")
    else:
        _expect(problems, lam <= upper + CLOSED_TOL,
                f"lambda_hat {lam!r} exceeds the closed form {upper!r}")
    _expect(problems, est["samples"] == m * (m - 1),
            f"samples {est['samples']} != off-diagonal grid pairs {m * (m - 1)}")
    return problems


def check_grid_geometric(cfg, report, outdir):
    p = cfg["space"]["params"]
    return _check_grid(cfg, report, geometric_lambda(p["a"], p["b"]), exact=False)


def check_grid_arithmetic(cfg, report, outdir):
    return _check_grid(cfg, report, 0.5, exact=False)


def check_grid_minsq(cfg, report, outdir):
    return _check_grid(cfg, report, 1.0 - cfg["grid_step"] / 2.0, exact=True)


_DYADIC = re.compile(r"^(\d+)/2\^(\d+)$")


def _dyadic(text: str) -> tuple:
    """Parse 'j/2^n' into canonical (j, n)."""
    m = _DYADIC.match(text)
    if m is None:
        raise CheckFailed(f"not a dyadic: {text!r}")
    j, n = int(m.group(1)), int(m.group(2))
    while j and not j & 1 and n:
        j, n = j >> 1, n - 1
    return (0, 0) if j == 0 else (j, n)


def _step(prev: tuple, nxt: tuple) -> int:
    """nxt - prev in cells of prev's level, or 0 unless nxt is on a coarser level."""
    if not prev[1] > nxt[1]:
        return 0
    return (nxt[0] << (prev[1] - nxt[1])) - prev[0]


def check_chain(cfg, report, outdir):
    r = _results(report)
    problems = []
    _expect(problems, r["valid"] is True and not r["violations"],
            f"chain invalid: {r['violations']}")
    # re-validate independently in exact integer arithmetic
    s, t = _dyadic(cfg["s"]), _dyadic(cfg["t"])
    sc = [_dyadic(d) for d in r["decomposition"]["s_chain"]]
    tc = [_dyadic(d) for d in r["decomposition"]["t_chain"]]
    _expect(problems, sc[0] == s and tc[0] == t and sc[-1] == tc[-1],
            "chains do not start at s and t and meet")
    for a, b in zip(sc, sc[1:]):
        _expect(problems, _step(a, b) == 1, f"s-chain step {a} -> {b} is not one cell up")
    for a, b in zip(tc, tc[1:]):
        _expect(problems, _step(a, b) == -1, f"t-chain step {a} -> {b} is not one cell down")
    return problems


def check_laws(cfg, report, outdir):
    laws = _results(report)["laws"]
    n = int(cfg["mean"].split(":")[1])
    count = cfg["samples"]
    expected = {
        "M1": count,
        "M2": count * math.factorial(n),
        "equivariance": count * cfg["action"]["n"],
        "strict-betweenness": count,
    }
    problems = []
    for law, want in expected.items():
        got = laws.get(law)
        if got is None:
            problems.append(f"law {law} missing")
            continue
        _expect(problems, got["passed"] is True, f"law {law} failed: {got['max_violation']}")
        _expect(problems, got["samples_checked"] == want,
                f"law {law} checked {got['samples_checked']} samples, expected {want}")
    return problems


def check_symmetrize(cfg, report, outdir):
    r = _results(report)["report"]
    tol = cfg["tol"]
    problems = []
    _expect(problems, r["equivariance_defect"] <= 10 * tol,
            f"equivariance defect {r['equivariance_defect']}")
    _expect(problems, r["identity_defect_t0"] <= tol, f"t0 defect {r['identity_defect_t0']}")
    _expect(problems, r["constancy_defect_t1"] <= tol, f"t1 defect {r['constancy_defect_t1']}")
    return problems


def check_deform(cfg, report, outdir):
    r = _results(report)["report"]
    tol = cfg["tol"]
    return [
        f"{key} {r[key]} exceeds tol"
        for key in ("identity_defect_t0", "fixed_set_stationarity_defect",
                    "end_slice_fixed_defect")
        if not r[key] <= tol
    ]


def check_solomonic(cfg, report, outdir):
    s = _results(report)["search"]
    problems = []
    _expect(problems, s["found"] is False, f"found a witness with margin {s['best_margin']}")
    _expect(problems, s["evaluations"] == cfg["budget"],
            f"evaluations {s['evaluations']} != budget {cfg['budget']}")
    return problems


def check_random_lambda(cfg, report, outdir):
    est = _results(report)["estimate"]
    n = int(cfg["mean"].split(":")[1])
    problems = []
    _expect(problems, est["lambda_hat"] <= (n - 1) / n + CLOSED_TOL,
            f"lambda_hat {est['lambda_hat']!r} exceeds (n-1)/n")
    want = cfg["restarts"] * (1 + 60)  # one start plus the default 60 hill steps
    _expect(problems, est["samples"] == want, f"samples {est['samples']} != {want}")
    return problems


def check_trajectory(cfg, report, outdir):
    r = _results(report)
    eps = cfg["eps"]
    problems = []
    _expect(problems, r["max_certified_error"] <= eps,
            f"max_certified_error {r['max_certified_error']} > eps {eps}")
    with open(outdir / r["trajectory_csv"], newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    _expect(problems, len(rows) == cfg["times"], f"{len(rows)} rows, expected {cfg['times']}")
    first = tuple(float(v) for v in rows[0][1:-1])
    last = tuple(float(v) for v in rows[-1][1:-1])
    _expect(problems, first == tuple(cfg["x"]), f"t=0 row {first} != x {cfg['x']}")
    _expect(problems, last == tuple(cfg["theta"]), f"t=1 row {last} != theta {cfg['theta']}")
    _expect(problems, all(float(row[-1]) <= eps for row in rows), "a row's error exceeds eps")
    return problems


# ---------------------------------------------------------------------------
# workloads


def dyadic_sweep(rng: random.Random) -> list:
    """Dense dyadic refinement: every node to depth 17, then 10^5 Holder pairs."""
    space = interval(1.0, 2.0)
    base = {"space": space, "mean": "geometric", "lambda": 0.6, "theta": [1.0],
            "x": [1.5 + 0.5 * rng.random()]}
    return [
        Run("claim1", "verify-claim1", {**base, "depth": 17}, check_claim1),
        Run("holder", "verify-holder",
            {**base, "depth": 14, "pairs": 100_000, "seed": rng.randrange(2 ** 32)},
            check_holder),
    ]


def lambda_grid(rng: random.Random) -> list:
    """Dense lambda grid scans; the three cases of benchmarks/bench_lambda_grid.py.
    Both steps divide the interval length, so the grid holds both endpoints."""
    a = rng.choice([1.0, 1.5, 2.0, 2.5, 3.0])
    return [
        Run("geometric", "estimate-lambda",
            {"space": interval(a, a + 3.0), "mean": "geometric", "grid_step": 4e-4},
            check_grid_geometric, "numpy"),
        Run("minsq", "estimate-lambda",
            {"space": interval(0.0, 1.0), "mean": "minsq", "grid_step": 2e-4},
            check_grid_minsq, "numpy"),
        Run("arithmetic", "estimate-lambda",
            {"space": interval(0.0, 1.0), "mean": "arithmetic:2", "grid_step": 2e-4},
            check_grid_arithmetic, "numpy"),
    ]


def cli_mix(rng: random.Random) -> list:
    """A session of short runs where start-up and the scalar paths dominate."""
    j1 = 2 * rng.randrange(2 ** 59) + 1
    j2 = 2 * rng.randrange(2 ** 60) + 1
    s, t = f"{j1}/2^60", f"{j2}/2^61"
    if 2 * j1 > j2:
        s, t = t, s
    angle = 2 * math.pi * rng.random()
    unit = box(1.0)
    return [
        Run("chain", "chain", {"s": s, "t": t}, check_chain),
        Run("laws", "verify-mean",
            {"space": unit, "mean": "arithmetic:4",
             "laws": ["M1", "M2", "equivariance", "strict-betweenness"],
             "action": {"name": "plane_rotation", "n": 4}, "samples": 3000,
             "seed": rng.randrange(2 ** 32)},
            check_laws),
        Run("symmetrize", "symmetrize",
            {"space": interval(-1.0, 1.0), "action": {"name": "negation"},
             "mean": "arithmetic:2", "tol": 1e-9, "seed": rng.randrange(2 ** 32),
             "base_homotopy": {"kind": "dyadic", "mean": "arithmetic:2", "lambda": 0.5,
                               "theta": [0.0], "eps": 1e-9}},
            check_symmetrize),
        Run("deform", "deform-fixed",
            {"space": unit, "action": {"name": "reflection", "axis": 1},
             "mean": "arithmetic:2", "retraction": {"kind": "zero_coordinate", "axis": 1},
             "tol": 1e-9, "seed": rng.randrange(2 ** 32)},
            check_deform),
        # K is twice the box diameter, so no margin reaches it and the whole budget runs
        Run("solomonic", "solomonic-search",
            {"space": unit, "mean": "arithmetic:3", "K": 4 * math.sqrt(2.0),
             "budget": 20_000, "seed": rng.randrange(2 ** 32)},
            check_solomonic),
        Run("random-lambda", "estimate-lambda",
            {"space": unit, "mean": "arithmetic:3", "restarts": 300,
             "seed": rng.randrange(2 ** 32)},
            check_random_lambda),
        # |x - theta| = 1.5 fixes the Holder constant, so every seed snaps to level 33
        Run("trajectory", "build-homotopy",
            {"space": box(2.0), "mean": "arithmetic:2", "lambda": 0.5, "theta": [0.0, 0.0],
             "x": [1.5 * math.cos(angle), 1.5 * math.sin(angle)], "eps": 1e-9,
             "times": 5001},
            check_trajectory),
    ]


WORKLOADS = {
    "dyadic-sweep": dyadic_sweep,
    "lambda-grid": lambda_grid,
    "cli-mix": cli_mix,
}
# the space whose distance each workload calls most, for the isolated d loop
LAYER_SPACE = {
    "dyadic-sweep": interval(1.0, 2.0),
    "lambda-grid": interval(0.0, 1.0),
    "cli-mix": box(1.0),
}


def declared_lambda_ok(cfg: dict) -> bool:
    """A declared lambda must be at least the mean's true constant."""
    spec = cfg.get("base_homotopy", cfg)
    if "lambda" not in spec:
        return True
    mean, lam = spec["mean"], spec["lambda"]
    if mean == "geometric":
        p = cfg["space"]["params"]
        return lam >= geometric_lambda(p["a"], p["b"])
    n = int(mean.split(":")[1])
    return lam >= (n - 1) / n


def build(workload: str, seed: int, confdir: Path) -> list:
    """Generate the workload's runs for a seed and write their configs."""
    runs = WORKLOADS[workload](random.Random(seed))
    confdir.mkdir(parents=True, exist_ok=True)
    for run in runs:
        if not declared_lambda_ok(run.config):
            raise ValueError(f"{run.name}: declared lambda is below the true constant")
        run.config = {"experiment": run.experiment, **run.config}
        (confdir / f"{run.name}.json").write_text(json.dumps(run.config, indent=1))
    return runs


def check_outputs(run: Run, outdir: Path) -> list:
    """Problems with a finished run's outputs; empty when they are correct."""
    try:
        report = json.loads((outdir / "report.json").read_text())
        return run.check(run.config, report, outdir)
    except (OSError, ValueError, KeyError, IndexError, TypeError, CheckFailed) as exc:
        return [f"{type(exc).__name__}: {exc}"]


def output_bytes(outdir: Path) -> dict:
    """report.json and every CSV, by file name, for the determinism check."""
    names = ["report.json"] + sorted(p.name for p in outdir.glob("*.csv"))
    return {name: (outdir / name).read_bytes() for name in names if (outdir / name).exists()}
