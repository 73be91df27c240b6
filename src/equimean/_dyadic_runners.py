"""The CLI's dyadic runners: build-homotopy, verify-claim1, verify-holder,
symmetrize and deform-fixed, with the code only they use, which reads a
config's contraction (``_builder_from``), retraction and base homotopy.

``cli.RUNNERS`` imports this module only when one of these runners runs,
so that the other runs compile none of it. Nothing here imports
``equimean.cli``: under ``python -m equimean.cli`` that file runs as
``__main__``, and a second import would compile it again, with a second
``ConfigError`` class that ``main`` would not catch.
"""

from __future__ import annotations

import csv
from pathlib import Path

from ._readers import (_action, _fraction, _given, _integer_in, _list_of, _mean, _need, _point_of,
                       _positive, _read_fields, _read_kinded, _space, _string)
from .errors import CapacityError

# times a build-homotopy run may evaluate. Its at_times call walks that many
# times down the levels on arrays: at this cap and level 40 on a 2-D box
# (arithmetic:2, eps 1e-11) a run took 1.5 s and peaked at 81 MB RSS (2-vCPU
# VM, CPython 3.11), where the node table of earlier versions took 11 s and 611 MB
TIMES_CAP = 100_000


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
