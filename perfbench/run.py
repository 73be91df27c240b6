#!/usr/bin/env python3
"""equimean benchmark: CLI workloads timed end to end, and a traced
in-process replay for per-layer numbers.

Run from the root of a checkout (the package is used from ``src/``, not
installed):

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60

With ``--trace 0`` each repetition starts one set-up child (import
``equimean.cli`` and ``load_config`` every config) and then each of the
workload's CLI runs as its own child, one at a time (a closed loop with one
client). Repetitions continue until ``--seconds`` have passed. Each child's
times are scaled to nominal machine speed by the gauge readings taken
around it (see gauge.py). The end-to-end metrics are medians over
repetitions of per-repetition sums, so one slow child moves them little.
Every run's outputs are checked against the paper's closed forms, and every
repetition's report.json and CSVs must be byte-identical to the first
repetition's.

With ``--trace 1`` the same runs are replayed in process through
``equimean.cli.main``, alternating untraced and traced replays, and the
per-layer metrics of ``tracing.Tracer`` are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` /
``attempted`` is the failure fraction.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import gauge
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 120
GAUGE_WINDOW = 4  # gauge readings on each side of a child in its speed estimate
PYTHON = sys.executable

SETUP_CODE = "import sys\nfrom equimean.cli import load_config\nfor p in sys.argv[1:]:\n    load_config(p)\n"
ENV_CODE = (
    "import json, platform, numpy, equimean\n"
    "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
    " 'kernel': getattr(equimean, 'KERNEL_IMPLEMENTATION', 'unknown')}))\n"
)

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.import_s": "s", "cli.load_config_s": "s", "cli.self_s": "s",
    "means.evals": "count", "means.batch_rows": "count", "means.law_samples": "count",
    "means.law_samples_per_s": "1/s", "means.law_check_s": "s",
    "means.estimate_lambda_s": "s", "means.search_s": "s",
    "kernels.grid_pairs": "count", "kernels.grid_scan_s": "s", "kernels.grid_pairs_per_s": "1/s",
    "homotopy.claim1_s": "s", "homotopy.holder_s": "s", "homotopy.at_time_s": "s",
    "homotopy.group_s": "s", "homotopy.at_dyadic_calls": "count",
    "homotopy.evals_per_at_dyadic": "ratio", "homotopy.nodes_per_s": "1/s",
    "dyadics.objects": "count", "dyadics.chain_s": "s",
    "spaces.d_calls": "count", "spaces.d_per_s": "1/s",
    "groups.act_calls": "count",
    "rng.draws": "count", "rng.draws_per_s": "1/s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# children


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list, log: Path) -> Child:
    """Run one child to completion and take its own rusage from wait4.

    RUSAGE_CHILDREN would keep a running maximum of max-RSS over every
    child so far, so one large child would set the figure for all later ones.
    """
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()  # interrupted: leave no child behind
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    return Child(code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def timed_children(argv: list, log: Path, count: int) -> list:
    """Wall times of ``count`` runs of a child after one untimed warm-up."""
    times = []
    for i in range(count + 1):
        child = run_child(argv, log)
        if child.code != 0:
            raise BenchError(f"{' '.join(argv[:3])} exited {child.code}:\n{log.read_text()}")
        if i:
            times.append(child.wall_s)
    return times


def environment(seed: int, work: Path) -> dict:
    """What a result was measured on; printed with every result."""
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = got.stdout.strip() or commit
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    log = work / "env.log"
    probe = run_child([PYTHON, "-c", ENV_CODE], log)
    if probe.code != 0:
        raise BenchError(f"cannot import equimean from {SRC}:\n{log.read_text()}")
    info = json.loads(log.read_text().splitlines()[-1])
    python_pass = timed_children([PYTHON, "-c", "pass"], log, 5)
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **info,
        "seed": seed,
        "python_c_pass_s": statistics.median(python_pass),
    }


# ---------------------------------------------------------------------------
# end-to-end sessions


@dataclass
class Timing:
    """One timed child of a repetition, with the gauge reading taken before it."""

    rep: int
    setup: bool
    kind: str
    at: int  # index of the gauge reading taken just before the child
    wall_s: float
    cpu_s: float


@dataclass
class Session:
    """One workload's runs, repeated; holds their measurements."""

    workload: str
    runs: list
    work: Path
    timings: list = field(default_factory=list)
    gauges: dict = field(default_factory=dict)  # gauge kind -> readings in order
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    reference: dict = field(default_factory=dict)  # run name -> (bytes, problems)

    def config(self, run) -> Path:
        return self.work / "configs" / f"{run.name}.json"

    def verify(self, run, outdir: Path, code: int) -> list:
        """Problems with one finished run: exit code, checks, determinism."""
        if code != 0:
            return [f"exit code {code}"]
        got = workloads.output_bytes(outdir)
        if run.name not in self.reference:
            self.reference[run.name] = (got, workloads.check_outputs(run, outdir))
        first, problems = self.reference[run.name]
        if got != first:
            differ = sorted(k for k in set(got) | set(first) if got.get(k) != first.get(k))
            return problems + [f"output bytes differ from the first repetition: {differ}"]
        return problems

    def record(self, run, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAIL {self.workload}/{run.name}: {'; '.join(problems)}", file=sys.stderr)

    def gauged(self, argv: list, log: Path, kind: str, rep: int, setup: bool) -> Child:
        """Run a child between two gauge readings and keep its timing."""
        readings = self.gauges.setdefault(kind, [])
        readings.append(gauge.measure(kind))
        child = run_child(argv, log)
        readings.append(gauge.measure(kind))
        self.timings.append(Timing(rep, setup, kind, len(readings) - 2, child.wall_s,
                                   child.cpu_s))
        return child

    def repetition(self, index: int) -> None:
        logs = self.work / "logs"
        configs = [str(self.config(run)) for run in self.runs]
        setup = self.gauged([PYTHON, "-c", SETUP_CODE, *configs], logs / "setup.log",
                            "python", index, True)
        if setup.code != 0:
            raise BenchError(f"set-up child exited {setup.code}:\n{(logs / 'setup.log').read_text()}")
        for run in self.runs:
            outdir = self.work / f"rep{index}" / run.name
            log = logs / f"{run.name}.log"
            child = self.gauged([PYTHON, "-m", "equimean.cli", run.experiment, "--config",
                                 str(self.config(run)), "--out", str(outdir)], log, run.gauge,
                                index, False)
            self.peak_rss_mb = max(self.peak_rss_mb, child.maxrss_mb)
            problems = self.verify(run, outdir, child.code)
            if child.code != 0:
                problems.append(log.read_text()[-400:].strip())
            self.record(run, problems)
        shutil.rmtree(self.work / f"rep{index}", ignore_errors=True)

    def speed(self, t: Timing) -> float:
        """Factor that scales a child's times to nominal machine speed: the
        median of the gauge readings around the child, so that one noisy
        reading moves it little while a slow spell of seconds is tracked."""
        window = self.gauges[t.kind][max(0, t.at - GAUGE_WINDOW):t.at + 2 + GAUGE_WINDOW]
        return gauge.NOMINAL_S[t.kind] / statistics.median(window)

    def samples(self, scaled: bool) -> dict:
        """Per-repetition sums of wall and CPU time, and the set-up times."""
        walls, cpus, setups = defaultdict(float), defaultdict(float), []
        for t in self.timings:
            factor = self.speed(t) if scaled else 1.0
            if t.setup:
                setups.append(t.wall_s * factor)
            else:
                walls[t.rep] += t.wall_s * factor
                cpus[t.rep] += t.cpu_s * factor
        return {"wall_s": list(walls.values()), "cpu_s": list(cpus.values()), "setup_s": setups}

    def metrics(self) -> dict:
        medians = {k: statistics.median(v) for k, v in self.samples(scaled=True).items()}
        return {**medians, "peak_rss_mb": self.peak_rss_mb}

    def notes(self) -> dict:
        """Unscaled medians and every scaled sample, for the printed table."""
        raw = self.samples(scaled=False)
        return {
            key: f"unscaled {statistics.median(raw[key]):.4f}; n={len(values)}: "
            + " ".join(f"{v:.3f}" for v in values)
            for key, values in self.samples(scaled=True).items()
        }


def check_lanes(session: Session, kernel: str) -> None:
    """With a compiled grid-scan lane present, every lane must agree bit for
    bit with each other and with the CLI's lambda-grid results."""
    if kernel == "numpy":
        print("lanes: numpy only (no compiled grid-scan lane built); agreement check skipped")
        return
    cases = [run.config for run in session.runs]
    log = session.work / "logs" / "lanes.log"
    child = run_child([PYTHON, str(Path(__file__).with_name("lanes.py")), json.dumps(cases)], log)
    lines = log.read_text().splitlines()
    problems = []
    if child.code != 0 or len(lines) != len(session.runs):
        problems.append(f"lanes child exited {child.code}: {log.read_text()[-400:]}")
        lines = []
    for run, line in zip(session.runs, lines):
        lanes = json.loads(line)
        try:
            report = json.loads(session.reference[run.name][0]["report.json"])
            est = report["results"]["estimate"]
            cli = [est["lambda_hat"], est["argmax_tuple"][0][0], est["argmax_tuple"][1][0],
                   est["samples"]]
        except (KeyError, IndexError, ValueError) as exc:
            problems.append(f"{run.name}: no CLI estimate to compare ({exc!r})")
            continue
        for lane, result in lanes.items():
            if result != cli:
                problems.append(f"{run.name}: lane {lane} gives {result}, the CLI {cli}")
        print(f"lanes: {run.name}: {', '.join(lanes)} agree with the CLI: "
              f"{all(r == cli for r in lanes.values())}")
    session.attempted += 1
    if problems:
        session.failed += 1
        print("FAIL lambda-grid lanes: " + "; ".join(problems), file=sys.stderr)


def past_deadline(start: float, done: int, seconds: float) -> bool:
    """Whether one more repetition, at the mean length so far, would end
    further past ``seconds`` than stopping now falls short of it."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / done >= seconds


def end_to_end(names: list, seed: int, seconds: float, work: Path, kernel: str) -> list:
    """Run the workloads' sessions, interleaved within each repetition."""
    sessions = []
    for name in names:
        sub = work / name
        runs = workloads.build(name, seed, sub / "configs")
        (sub / "logs").mkdir(parents=True, exist_ok=True)
        sessions.append(Session(name, runs, sub))
    # warm-up: byte-compile the package and fill the page cache before timing
    timed_children([PYTHON, "-c", "import equimean.cli"], work / "warmup.log", 0)
    start = time.perf_counter()
    index = 0
    while index == 0 or not past_deadline(start, index, seconds):
        for session in sessions:
            session.repetition(index)
        index += 1
    for session in sessions:
        if session.workload == "lambda-grid":
            check_lanes(session, kernel)
    return sessions


# ---------------------------------------------------------------------------
# traced in-process replay


def traced(name: str, seed: int, seconds: float, work: Path) -> tuple:
    """Per-layer metrics of one workload; returns (metrics, attempted, failed, tracer)."""
    sys.path.insert(0, str(SRC))
    import equimean.cli as cli
    import tracing

    start = time.perf_counter()  # the import children count against --seconds too
    runs = workloads.build(name, seed, work / "configs")
    session = Session(name, runs, work)
    import_s = timed_children([PYTHON, "-c", "import equimean.cli"], work / "import.log", 5)

    def replay(index: int, tracer) -> float:
        main = cli.main if tracer is None else tracer.span("main", cli.main)
        total = 0.0
        for run in runs:
            outdir = work / f"rep{index}" / run.name
            argv = [run.experiment, "--config", str(session.config(run)), "--out", str(outdir)]
            t0 = time.perf_counter()
            code = main(argv)
            total += time.perf_counter() - t0
            session.record(run, session.verify(run, outdir, code))
        shutil.rmtree(work / f"rep{index}", ignore_errors=True)
        return total

    plain, traced_walls, layers, tracers = [], [], [], []
    index = 0
    while index == 0 or not past_deadline(start, index, seconds):
        plain.append(replay(2 * index, None))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_walls.append(replay(2 * index + 1, tracer))
        finally:
            tracer.uninstall()
        layers.append(tracer.layer_metrics())
        tracers.append(tracer)
        index += 1

    counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in layers]
    session.attempted += 1
    if any(c != counts[0] for c in counts):
        session.failed += 1
        print(f"FAIL {name}: counts differ between traced replays: {counts}", file=sys.stderr)
    metrics = {**counts[0], **{key: statistics.median(m[key] for m in layers)
                               for key in layers[0] if key not in counts[0]}}
    metrics["cli.import_s"] = statistics.median(import_s)
    metrics["spaces.d_per_s"] = tracing.d_per_s(workloads.LAYER_SPACE[name], seed)
    metrics["rng.draws_per_s"] = tracing.draws_per_s(seed)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain)
    return metrics, session.attempted, session.failed, tracers[0]


# ---------------------------------------------------------------------------
# output


def print_spans(tracer) -> None:
    print(f"{'span':<28} {'calls':>8} {'inclusive s':>12} {'self s':>10}")
    for name in sorted(tracer.inclusive, key=tracer.inclusive.get, reverse=True):
        if tracer.calls[name]:
            print(f"{name:<28} {tracer.calls[name]:>8} {tracer.inclusive[name]:>12.4f} "
                  f"{tracer.self_time[name]:>10.4f}")


def print_table(workload: str, metrics: dict, units: dict, notes: dict) -> None:
    print(f"-- {workload}")
    for key, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"   {key:<28} {shown:>14} {units[key]:<6} {notes.get(key, '')}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind like an interrupt so the running child is killed and reaped
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    if not (SRC / "equimean" / "cli.py").is_file():
        print(f"perfbench: no equimean sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = environment(args.seed, work)
        print("env: " + json.dumps(env, sort_keys=True))
        metrics, attempted, failed = {}, 0, 0
        prefix = (lambda w: f"{w}.") if args.workload == "all" else (lambda w: "")
        if args.trace:
            for name in names:
                layer, att, fail, tracer = traced(name, args.seed, args.seconds, work / name)
                print_spans(tracer)
                print_table(name, layer, LAYER_UNITS, {})
                attempted, failed = attempted + att, failed + fail
                metrics.update({prefix(name) + k: {"value": v, "unit": LAYER_UNITS[k]}
                                for k, v in layer.items()})
        else:
            for s in end_to_end(names, args.seed, args.seconds, work, env["kernel"]):
                values = {**s.metrics(), "fail_frac": s.failed / s.attempted}
                print_table(s.workload, values, {**END_TO_END_UNITS, "fail_frac": "ratio"},
                            s.notes())
                attempted, failed = attempted + s.attempted, failed + s.failed
                metrics.update({prefix(s.workload) + k: {"value": v, "unit": END_TO_END_UNITS[k]}
                                for k, v in s.metrics().items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
