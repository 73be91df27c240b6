"""Dyadic-refinement contractions with certified error bounds, and their
symmetrization into group homotopies.

Given a binary map p with contractivity constant lambda and a basepoint,
the builder defines a path from every point x to the basepoint on the
dyadic time grid: time 0 maps to x, time 1 to the basepoint, and each
odd grid point is p applied to its two neighbours one level up. Two
bounds are certified numerically:

* adjacent grid points at level n stay within lambda^n * d(x, basepoint);
* any two grid times s, t stay within C |s - t|^alpha, with
  C = 2 d(x, basepoint) / (1 - lambda) and alpha = -ln(lambda)/ln(2),

so evaluation at arbitrary real times snaps to the coarsest dyadic grid
whose Holder bound meets the requested error budget and returns that
bound alongside the point.

Symmetrization turns a plain homotopy into an equivariant one by
aggregating the conjugated translates g^{-1) Phi(g x, t) with an
anonymous equivariant mean of arity |G|; with boundary data built from a
retraction onto a fixed-point set, the same formula deforms the whole
space onto that set while keeping it pointwise still.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .dyadics import Dyadic, nearest_dyadic
from .errors import CapacityError, HypothesisError, PrecisionError
from .groups import GroupAction, Subgroup, fixed_defect
from .means import (
    LawReport,
    QuasiMeanMap,
    check_contractivity,
    check_equivariance,
    law_report,
    require,
    require_mean_laws,
    sample_tuples,
)
from .rng import as_rng
from .spaces import MetricSpace, Point, as_point, is_convex, worst

MAX_DYADIC_DEPTH = 40
LEVEL_SWEEP_CAP = 20
# floats the finest level of a sweep may hold (32 MiB as float64): a 2-D box
# sweeps to depth 20, a 64-D one to depth 15
LEVEL_FLOATS_CAP = 1 << 22
RATIO_SLACK = 1e-9
# the pairs on which every builder samples its map's contractivity ratio
RATIO_SEED = 5
RATIO_PAIRS = 16
# evenly spaced times on [0, 1] at which fixed_set_deformation checks stationarity
STATIONARITY_TIMES = 9


class ContractionBuilder:
    """Dyadic path construction for one binary map and basepoint.

    The builder samples the map's contractivity ratio on RATIO_PAIRS pairs
    drawn from RATIO_SEED and keeps the check as ``ratio_report``. When the
    sampled ratio exceeds the declared lambda, ``at_times`` and ``at_time``,
    which return certified errors, raise HypothesisError naming the worst
    pair; ``at_dyadic``, ``level_arrays`` and the sweeps, which certify
    nothing themselves, still run.
    """

    def __init__(self, space: MetricSpace, p: QuasiMeanMap, lam: float, theta):
        if p.arity != 2:
            raise ValueError(
                "the dyadic builder needs a binary map; collapse higher arities first"
            )
        if not 0.0 < lam < 1.0:
            raise ValueError(f"lambda must lie in (0, 1), got {lam}")
        theta = as_point(theta)
        space.require_member(theta)
        self.space = space
        self.p = p
        self.lam = lam
        self.theta = theta
        self.alpha = -math.log(lam) / math.log(2.0)
        pairs = sample_tuples(space, 2, RATIO_SEED, RATIO_PAIRS)
        self.ratio_report: LawReport = check_contractivity(p, pairs, lam + RATIO_SLACK)

    def holder_constant(self, x) -> float:
        """C = 2 d(x, basepoint) / (1 - lambda)."""
        return 2.0 * self.space.d(as_point(x), self.theta) / (1.0 - self.lam)

    def at_dyadic(self, x, d: Dyadic) -> Point:
        """Path value at an exact dyadic time; time 0 is x, time 1 the
        basepoint, odd grid points aggregate their two coarser neighbours."""
        if d.n > MAX_DYADIC_DEPTH:
            raise CapacityError(f"dyadic level {d.n} exceeds the cap {MAX_DYADIC_DEPTH}")
        return self._eval(as_point(x), {}, d.j, d.n)

    def _eval(self, x: Point, table: dict, j: int, n: int) -> Point:
        key = (j, n)
        cached = table.get(key)
        if cached is not None:
            return cached
        if n == 0:
            value = x if j == 0 else self.theta
        else:
            # j is odd, so j -/+ 1 is even: the canonical forms of the two
            # neighbours drop their trailing zero bits, as Dyadic(j -/+ 1, n)
            # would, and 0/2^n becomes (0, 0)
            lj = j - 1
            if lj:
                shift = (lj & -lj).bit_length() - 1
                left = self._eval(x, table, lj >> shift, n - shift)
            else:
                left = self._eval(x, table, 0, 0)
            rj = j + 1
            shift = (rj & -rj).bit_length() - 1
            value = self.p.eval([left, self._eval(x, table, rj >> shift, n - shift)])
        table[key] = value
        return value

    def level_for(self, x, eps: float) -> int:
        """Minimal grid level whose Holder bound meets eps for this x."""
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        C = self.holder_constant(x)
        if C <= eps:
            return 0
        level = math.ceil(math.log(C / eps) / (self.alpha * math.log(2.0)))
        if level > MAX_DYADIC_DEPTH:
            achievable = C * 2.0 ** (-MAX_DYADIC_DEPTH * self.alpha)
            raise PrecisionError(
                f"error budget {eps:.3g} needs level {level} > {MAX_DYADIC_DEPTH}; "
                f"best achievable is {achievable:.3g}",
                achievable,
            )
        return max(level, 0)

    def at_times(self, x, ts, eps: float) -> list[tuple[Point, float]]:
        """Path values at real times within a certified error.

        Snaps each t to the nearest dyadic r on the minimal grid whose bound
        meets eps and returns (value at r, C |t - r|^alpha <= eps) for each,
        in order. The times share one table of dyadic nodes, which lives
        only for this call.
        """
        report = self.ratio_report
        if not report.passed:
            raise HypothesisError(
                f"sampled contractivity ratio {report.max_violation:.6g} at the pair "
                f"{report.witness} exceeds the declared lambda {self.lam:.6g}; "
                "the certified errors would not hold"
            )
        x = as_point(x)
        C = self.holder_constant(x)
        level = self.level_for(x, eps)
        table: dict = {}
        values = []
        for t in ts:
            r = nearest_dyadic(t, level)
            err = C * abs(t - r.value) ** self.alpha
            values.append((self._eval(x, table, r.j, r.n), err))
        return values

    def at_time(self, x, t: float, eps: float) -> tuple[Point, float]:
        """``at_times`` at a single time."""
        return self.at_times(x, (t,), eps)[0]

    def level_arrays(self, x, depth: int):
        """Yield the path values on the grids of levels 0..depth as
        (2^n + 1, dim) float64 arrays; row j of level n is the value at
        j/2^n and equals ``at_dyadic`` there.

        Level n is level n-1 interleaved with p applied to each pair of
        neighbours through ``p.apply``. Depth is capped at LEVEL_SWEEP_CAP,
        and the finest level's floats at LEVEL_FLOATS_CAP.
        """
        import numpy as np

        if not 0 <= depth <= LEVEL_SWEEP_CAP:
            raise CapacityError(f"level sweep needs depth in 0..{LEVEL_SWEEP_CAP}, got {depth}")
        dim = self.space.dim
        if ((1 << depth) + 1) * dim > LEVEL_FLOATS_CAP:
            raise CapacityError(f"a level sweep to depth {depth} in dim {dim} exceeds the cap "
                                f"of {LEVEL_FLOATS_CAP} floats on its finest level")
        level = np.array([as_point(x), self.theta], dtype=np.float64)
        yield level
        for _ in range(depth):
            left, right = level[:-1], level[1:]
            mids = np.asarray(self.p.apply([left, right]), dtype=np.float64)
            if mids.shape != left.shape:
                raise ValueError(
                    f"{self.p.label} gave midpoints of shape {mids.shape}, expected {left.shape}"
                )
            finer = np.empty((2 * len(level) - 1, level.shape[1]))
            finer[0::2] = level
            finer[1::2] = mids
            level = finer
            yield level


@dataclass
class LevelBoundReport:
    """Worst adjacent-step distance at each grid level against
    lambda^n * d(x, basepoint)."""

    max_ratio: float
    worst_level: int
    worst_index: int
    pairs_checked: int
    lam: float
    base_distance: float
    slack: float = RATIO_SLACK

    @property
    def passed(self) -> bool:
        return self.max_ratio <= 1.0 + self.slack

    def to_json(self) -> dict:
        return {
            "max_ratio": self.max_ratio,
            "worst_level": self.worst_level,
            "worst_index": self.worst_index,
            "pairs_checked": self.pairs_checked,
            "lambda": self.lam,
            "base_distance": self.base_distance,
            "passed": self.passed,
        }


def verify_claim1(builder: ContractionBuilder, x, depth: int) -> LevelBoundReport:
    """Sweep all adjacent dyadic pairs at levels 0..depth and compare each
    step against the per-level geometric bound. The worst pair is the
    first one, in level then index order, whose ratio is NaN, or else the
    first one that attains the maximum."""
    import numpy as np

    x = as_point(x)
    dx = builder.space.d(x, builder.theta)
    level_worsts, checked = [], 0
    for n, level in enumerate(builder.level_arrays(x, depth)):
        bound = (builder.lam ** n) * dx
        steps = builder.space.d_batch(level[:-1], level[1:])
        checked += len(steps)
        if bound > 0.0:
            ratios = steps / bound
        else:
            ratios = np.where(steps == 0.0, 0.0, math.inf)
        j = int(ratios.argmax())  # the first NaN, if any
        level_worsts.append((float(ratios[j]), (n, j)))
    top, witness, _ = worst(level_worsts, 0.0)
    wl, wi = witness or (-1, -1)
    return LevelBoundReport(top, wl, wi, checked, builder.lam, dx)


@dataclass
class HolderReport:
    """Worst pairwise ratio against C |s - t|^alpha over sampled dyadic
    time pairs."""

    max_ratio: float
    worst_pair: Optional[tuple]
    pairs_checked: int
    constant: float
    exponent: float
    violations: int = 0
    slack: float = RATIO_SLACK

    @property
    def passed(self) -> bool:
        return self.max_ratio <= 1.0 + self.slack

    def to_json(self) -> dict:
        return {
            "max_ratio": self.max_ratio,
            "worst_pair": None if self.worst_pair is None else [str(d) for d in self.worst_pair],
            "pairs_checked": self.pairs_checked,
            "constant": self.constant,
            "exponent": self.exponent,
            "violations": self.violations,
            "passed": self.passed,
        }


def _random_grid_index(rng, depth: int) -> int:
    """Index on the level-``depth`` grid of a dyadic drawn as a uniform
    level <= depth, then a uniform grid point on that level."""
    level = rng.randrange(depth + 1)
    return rng.randrange((1 << level) + 1) << (depth - level)


def random_dyadic(rng, depth: int) -> Dyadic:
    return Dyadic(_random_grid_index(rng, depth), depth)


HOLDER_BLOCK = 1 << 12  # pairs drawn per distance batch, to bound memory


def verify_holder(builder: ContractionBuilder, x, pairs: int, depth: int,
                  seed_or_rng=17) -> HolderReport:
    """Sample dyadic time pairs at level <= depth and compare the path
    displacement against the Holder bound.

    Every sampled time lies on the level-``depth`` grid, so the path is
    built once at that level and each pair reads two of its rows; the
    time gap |i - k| 2^-depth is exact. Depth is capped at LEVEL_SWEEP_CAP.
    A NaN ratio counts as a violation, and the first one is the worst pair.
    """
    import numpy as np

    x = as_point(x)
    for fine in builder.level_arrays(x, depth):
        pass  # only the finest level is kept
    rng = as_rng(seed_or_rng)
    C = builder.holder_constant(x)
    cell = math.ldexp(1.0, -depth)
    block_worsts, checked, violations = [], 0, 0
    for start in range(0, pairs, HOLDER_BLOCK):
        left, right = [], []
        for _ in range(min(HOLDER_BLOCK, pairs - start)):
            left.append(_random_grid_index(rng, depth))
            right.append(_random_grid_index(rng, depth))
        dists = builder.space.d_batch(fine[left], fine[right]).tolist()
        ratios = []
        for i, k, dist in zip(left, right, dists):
            if i == k:
                ratio = 0.0 if dist == 0.0 else math.inf
            else:
                bound = C * (abs(i - k) * cell) ** builder.alpha
                ratio = dist / bound if bound > 0.0 else (0.0 if dist == 0.0 else math.inf)
            if not ratio <= 1.0 + RATIO_SLACK:
                violations += 1
            ratios.append(ratio)
        checked += len(ratios)
        j = int(np.argmax(ratios))  # the first NaN, if any
        block_worsts.append((ratios[j], (left[j], right[j])))
    top, wpair, _ = worst(block_worsts, 0.0)
    if wpair is not None:
        wpair = (Dyadic(wpair[0], depth), Dyadic(wpair[1], depth))
    return HolderReport(top, wpair, checked, C, builder.alpha, violations)


# ---------------------------------------------------------------------------
# group homotopies


@dataclass
class GHomotopy:
    """A time-indexed family of maps commuting with a group action."""

    action: GroupAction
    evaluate: Callable  # (Point, t) -> Point
    label: str
    base: Optional[Callable] = None  # the plain homotopy that was symmetrized
    report: dict = field(default_factory=dict)

    def __call__(self, x, t: float) -> Point:
        return self.evaluate(as_point(x), t)


def _aggregating_mean(p: Optional[QuasiMeanMap], action: GroupAction,
                     subgroup: Optional[Subgroup], tol: float, trust_laws: bool,
                     seed, samples: int) -> Optional[QuasiMeanMap]:
    """The mean that aggregates the translates by the subgroup (the whole
    group when None): None for a trivial one, else p, once its arity is
    checked and, unless trusted, its laws on samples."""
    order, what, letter = ((action.group.order, "group", "G") if subgroup is None
                           else (subgroup.order, "subgroup", "H"))
    if order == 1:
        return None
    if p is None:
        raise ValueError(f"a mean of arity |{letter}| is required for a nontrivial {what}")
    if p.arity != order:
        raise ValueError(f"mean arity {p.arity} != {what} order {order}")
    if not trust_laws:
        require_mean_laws(p, action, tol, subgroup, seed, samples)
    return p


def _symmetrized(base: Callable, action: GroupAction, p: Optional[QuasiMeanMap],
                 elements: tuple) -> Callable:
    if len(elements) == 1:
        # one conjugated translate: aggregation degenerates to the base map
        return lambda x, t: base(x, t)
    inv = action.group.inv

    def evaluate(x: Point, t: float) -> Point:
        return p.eval([action.act(inv(g), base(action.act(g, x), t)) for g in elements])

    return evaluate


def symmetrize(base: Callable, action: GroupAction, p: Optional[QuasiMeanMap],
               tol: float = 1e-9, trust_laws: bool = False, seed: int = 23,
               samples: int = 32) -> GHomotopy:
    """Aggregate the conjugated translates of a homotopy into an
    equivariant one.

    The mean must be anonymous and equivariant with arity |G| (checked on
    samples unless trusted). For the trivial group the aggregation is the
    base homotopy itself and ``p`` may be None. Endpoint behaviour
    transfers: an identity time-0 slice stays the identity, and a
    constant time-1 slice becomes a constant at a G-fixed point.
    """
    p = _aggregating_mean(p, action, None, tol, trust_laws, seed, samples)
    elements = tuple(action.group.elements())
    evaluate = _symmetrized(base, action, p, elements)
    report = _endpoint_report(base, evaluate, action, tol, seed)
    return GHomotopy(action, evaluate, "symmetrized", base=base, report=report)


def _endpoint_report(base: Callable, evaluate: Callable, action: GroupAction,
                     tol: float, seed, samples: int = 16) -> dict:
    rng = as_rng(seed)
    sp = action.space
    pts = sp.sample(rng, samples)

    def identity(path) -> LawReport:
        return law_report("time-0 identity", ((sp.d(path(x, 0.0), x), (x,)) for x in pts), tol)

    def constancy(ends) -> LawReport:
        scored = ((sp.d(e, ends[0]), (x,)) for x, e in zip(pts, ends))
        return law_report("time-1 constancy", scored, tol)

    base0 = identity(base)
    report: dict = {"base_identity_defect_t0": base0.max_violation}
    if base0.passed:
        report["identity_defect_t0"] = require("time-0 identity", identity(evaluate))
    base1 = constancy([base(x, 1.0) for x in pts])
    report["base_constancy_defect_t1"] = base1.max_violation
    if base1.passed:
        outs = [evaluate(x, 1.0) for x in pts]
        report["constancy_defect_t1"] = require("time-1 constancy", constancy(outs))
        report["t1_value_fixed_defect"] = fixed_defect(action, action.group.elements(), outs[0])

    def equivariance():
        for x in pts:
            t = rng.random()
            g = rng.randrange(action.group.order)
            yield sp.d(evaluate(action.act(g, x), t), action.act(g, evaluate(x, t))), (x, t, g)

    # the aggregation chain can amplify the mean's own law defects a little
    report["equivariance_defect"] = require(
        "symmetrized homotopy equivariance", law_report("equivariance", equivariance(), 10.0 * tol)
    )
    return report


def equivariant_contraction(builder: ContractionBuilder, action: GroupAction,
                            tol: float = 1e-9, eps: float = 1e-9,
                            depth: int = 10, samples: int = 64,
                            seed: int = 29, trust_laws: bool = False) -> GHomotopy:
    """The dyadic construction itself commutes with the action when the
    basepoint is a fixed point and the binary map is equivariant; this is
    verified on sampled (point, element, dyadic time) triples."""
    G, theta = action.group, builder.theta
    require("basepoint fixed-point",
            law_report("fixed-point", [(fixed_defect(action, G.elements(), theta), (theta,))], tol))
    if not trust_laws:
        tuples = sample_tuples(builder.space, 2, seed, max(8, samples // 4))
        require("binary map equivariance", check_equivariance(builder.p, action, tuples, tol))
    rng = as_rng(seed + 1)
    sp = builder.space

    def equivariance():
        for _ in range(samples):
            x = sp.sample(rng, 1)[0]
            g = rng.randrange(G.order)
            d = random_dyadic(rng, depth)
            yield sp.d(builder.at_dyadic(action.act(g, x), d),
                       action.act(g, builder.at_dyadic(x, d))), (x, g, d)

    defect = require("dyadic construction equivariance",
                     law_report("equivariance", equivariance(), tol))

    def evaluate(x: Point, t: float) -> Point:
        return builder.at_time(x, t, eps)[0]

    return GHomotopy(
        action, evaluate, "equivariant_contraction",
        report={"equivariance_defect": defect, "samples": samples, "depth": depth},
    )


def straight_line_extension(space: MetricSpace, retraction: Callable) -> Callable:
    """Homotopy (1 - t) x + t r(x) on a convex space; it extends the
    boundary data (identity at 0, the retraction at 1, stationary on the
    retraction's fixed set)."""
    if not is_convex(space):
        raise ValueError(f"straight-line extension needs a convex space, not {space.kind}")

    def base(x: Point, t: float) -> Point:
        rx = retraction(x)
        return tuple((1.0 - t) * a + t * b for a, b in zip(x, rx))

    return base


def fixed_set_deformation(action: GroupAction, H: Subgroup, retraction: Callable,
                          p: Optional[QuasiMeanMap], extension: Callable,
                          tol: float = 1e-9, trust_laws: bool = False,
                          seed: int = 31, samples: int = 64) -> GHomotopy:
    """Deform the space onto the H-fixed set through an H-equivariant
    homotopy built from a retraction and a boundary-respecting extension.

    Preconditions checked on samples: the retraction lands in the fixed
    set; the extension matches the boundary data (identity at time 0, the
    retraction at time 1, stationary on the fixed set at
    STATIONARITY_TIMES times); the mean is anonymous and H-equivariant with
    arity |H|. The result is verified to start at the identity, hold the
    fixed set still, and end inside it.
    """
    sp = action.space
    if H.parent is not action.group:
        raise ValueError("subgroup must belong to the action's group")
    p = _aggregating_mean(p, action, H, tol, trust_laws, seed, max(8, samples // 4))

    rng = as_rng(seed + 1)
    pts = sp.sample(rng, samples)
    times = [i / (STATIONARITY_TIMES - 1) for i in range(STATIONARITY_TIMES)]
    fixed_pts = [retraction(x) for x in pts]
    for rx in fixed_pts:
        if not sp.contains(rx):
            raise HypothesisError(f"retraction output {rx} leaves the space")

    def fixedness(ys):
        return ((fixed_defect(action, H.members, y), (y,)) for y in ys)

    def stationarity(path):
        return ((sp.d(path(x0, t), x0), (x0, t)) for x0 in fixed_pts for t in times)

    for what, scored in (
        ("retraction image fixed-point", fixedness(fixed_pts)),
        ("extension time-0 identity", ((sp.d(extension(x, 0.0), x), (x,)) for x in pts)),
        ("extension time-1 retraction",
         ((sp.d(extension(x, 1.0), rx), (x,)) for x, rx in zip(pts, fixed_pts))),
        ("extension fixed-set stationarity", stationarity(extension)),
    ):
        require(what, law_report(what, scored, tol))

    evaluate = _symmetrized(extension, action, p, H.members)
    report: dict = {"samples": samples}
    for key, what, scored in (
        ("identity_defect_t0", "deformation time-0 identity",
         ((sp.d(evaluate(x, 0.0), x), (x,)) for x in pts)),
        ("fixed_set_stationarity_defect", "deformation fixed-set stationarity",
         stationarity(evaluate)),
        ("end_slice_fixed_defect", "deformation end-slice containment",
         fixedness(evaluate(x, 1.0) for x in pts)),
    ):
        report[key] = require(what, law_report(what, scored, tol))
    return GHomotopy(action, evaluate, "fixed_set_deformation", base=extension, report=report)
