"""In-process tracing of the CLI's layers, from outside the package.

``Tracer.install`` wraps entry points with timed spans and hot leaves with
untimed counters, then ``uninstall`` puts every original back. Nothing in
``src/`` is edited. The CLI binds its imports by name, so a wrapper is
installed on every ``equimean`` module attribute that holds the original
function, not only on its home module.

A span records its inclusive time and its self time (inclusive minus the
spans nested directly in it). A counter only counts: the hot leaves run
more than 10^5 times per run, and timing each call would swamp them.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, span name): timed entry points
SPANS = [
    ("equimean.cli", "load_config", "load_config"),
    ("equimean.means", "estimate_lambda", "estimate_lambda"),
    ("equimean.means", "check_unanimity", "check"),
    ("equimean.means", "check_anonymity", "check"),
    ("equimean.means", "check_equivariance", "check"),
    ("equimean.means", "check_strict_betweenness", "check"),
    ("equimean.means", "solomonic_witness_search", "solomonic_witness_search"),
    ("equimean._kernels", "grid_scan_interval", "grid_scan_interval"),
    ("equimean.homotopy", "verify_claim1", "verify_claim1"),
    ("equimean.homotopy", "verify_holder", "verify_holder"),
    ("equimean.homotopy", "symmetrize", "symmetrize"),
    ("equimean.homotopy", "fixed_set_deformation", "fixed_set_deformation"),
    ("equimean.dyadics", "chain_decompose", "chain"),
    ("equimean.dyadics", "validate_chain", "chain"),
]
# (module, class, method, counter name): counted hot leaves
COUNTED_METHODS = [
    ("equimean.dyadics", "Dyadic", "__init__", "dyadics.objects"),
    ("equimean.groups", "GroupAction", "act", "groups.act_calls"),
    ("equimean.rng", "Xoshiro256StarStar", "next_u64", "rng.draws"),
]


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self._open = []  # time covered by direct children, one entry per open span
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, on_result=None):
        open_spans = self._open

        def wrapped(*args, **kwargs):
            open_spans.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = open_spans.pop()
                self.inclusive[name] += dt
                self.self_time[name] += dt - children
                self.calls[name] += 1
                if open_spans:
                    open_spans[-1] += dt
            if on_result is not None:
                on_result(result)
            return result

        return wrapped

    def counted(self, name, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _count_mean(self, p):
        """Count the eval/batch calls of a map returned by mean_from_name."""
        counts = self.counts
        batch = getattr(p, "batch", None)

        def counted_batch(arrays):
            counts["means.batch_rows"] += len(arrays[0])
            return batch(arrays)

        try:
            p.eval = self.counted("means.evals", p.eval)
            if batch is not None:
                p.batch = counted_batch
        except AttributeError:
            pass  # a map that takes no new attributes stays uncounted
        return p

    def _at_dyadic(self, fn):
        counts = self.counts

        def wrapped(builder, x, d):
            counts["homotopy.at_dyadic_calls"] += 1
            before = counts["means.evals"]
            try:
                return fn(builder, x, d)
            finally:
                counts["homotopy.at_dyadic_evals"] += counts["means.evals"] - before

        return wrapped

    # -- install / uninstall -----------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Install wrapper wherever an equimean module binds the original."""
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] != "equimean" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self):
        from equimean import homotopy, means, spaces

        def add_law_samples(report):
            self.counts["means.law_samples"] += getattr(report, "samples_checked", 0)

        def add_grid_pairs(result):
            self.counts["kernels.grid_pairs"] += result[3]

        hooks = {"check": add_law_samples, "grid_scan_interval": add_grid_pairs}
        for modname, attr, name in SPANS:
            module = sys.modules.get(modname)
            original = getattr(module, attr, None)
            if original is not None:
                self._rebind(original, self.span(name, original, hooks.get(name)))

        resolve = getattr(means, "mean_from_name", None)
        if resolve is not None:
            self._rebind(resolve, lambda *a, **k: self._count_mean(resolve(*a, **k)))

        builder = getattr(homotopy, "ContractionBuilder", None)
        if hasattr(builder, "at_time") and hasattr(builder, "at_dyadic"):
            self._set(builder, "at_time", self.span("at_time", builder.at_time))
            self._set(builder, "at_dyadic", self._at_dyadic(builder.at_dyadic))
        for modname, cls, method, name in COUNTED_METHODS:
            owner = getattr(sys.modules.get(modname), cls, None)
            if owner is not None and hasattr(owner, method):
                self._set(owner, method, self.counted(name, getattr(owner, method)))
        for value in vars(spaces).values():
            if (isinstance(value, type) and issubclass(value, spaces.MetricSpace)
                    and "d" in vars(value) and value is not spaces.MetricSpace):
                self._set(value, "d", self.counted("spaces.d_calls", value.d))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- per-layer metrics ----------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer values of one traced replay, by metric name."""
        c, t = self.counts, self.inclusive
        busy = t["verify_claim1"] + t["verify_holder"] + t["at_time"]
        calls = c["homotopy.at_dyadic_calls"]
        return {
            "cli.load_config_s": t["load_config"],
            "cli.self_s": self.self_time["main"],
            "means.evals": c["means.evals"],
            "means.batch_rows": c["means.batch_rows"],
            "means.law_samples": c["means.law_samples"],
            "means.law_samples_per_s": _rate(c["means.law_samples"], t["check"]),
            "means.law_check_s": t["check"],
            "means.estimate_lambda_s": t["estimate_lambda"],
            "means.search_s": t["solomonic_witness_search"],
            "kernels.grid_pairs": c["kernels.grid_pairs"],
            "kernels.grid_scan_s": t["grid_scan_interval"],
            "kernels.grid_pairs_per_s": _rate(c["kernels.grid_pairs"], t["grid_scan_interval"]),
            "homotopy.claim1_s": t["verify_claim1"],
            "homotopy.holder_s": t["verify_holder"],
            "homotopy.at_time_s": t["at_time"],
            "homotopy.group_s": t["symmetrize"] + t["fixed_set_deformation"],
            "homotopy.at_dyadic_calls": calls,
            "homotopy.evals_per_at_dyadic": _rate(c["homotopy.at_dyadic_evals"], calls),
            "homotopy.nodes_per_s": _rate(calls, busy),
            "dyadics.objects": c["dyadics.objects"],
            "dyadics.chain_s": t["chain"],
            "spaces.d_calls": c["spaces.d_calls"],
            "groups.act_calls": c["groups.act_calls"],
            "rng.draws": c["rng.draws"],
        }


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def d_per_s(space_json: dict, seed: int, calls: int = 200_000) -> float:
    """Distance evaluations per second on a space, in an isolated loop."""
    from equimean.spaces import space_from_json

    space = space_from_json(space_json)
    pts = space.sample(seed, 512)
    d = space.d
    t0 = time.perf_counter()
    for i in range(calls):
        d(pts[i & 511], pts[(i + 1) & 511])
    return calls / (time.perf_counter() - t0)


def draws_per_s(seed: int, draws: int = 200_000) -> float:
    """next_u64 draws per second, in an isolated loop."""
    from equimean.rng import Xoshiro256StarStar

    next_u64 = Xoshiro256StarStar(seed).next_u64
    t0 = time.perf_counter()
    for _ in range(draws):
        next_u64()
    return draws / (time.perf_counter() - t0)
