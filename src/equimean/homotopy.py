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
aggregating the conjugated translates g^{-1} Phi(g x, t) with an
anonymous equivariant mean of arity |G|; with boundary data built from a
retraction onto a fixed-point set, the same formula deforms the whole
space onto that set while keeping it pointwise still.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .dyadics import Dyadic, nearest_dyadic
from .errors import CapacityError, HypothesisError, PrecisionError
from .laws import (
    LAW_BLOCK_EVALS,
    LawReport,
    check_contractivity,
    check_laws,
    law_report,
    require,
    require_mean_laws,
    require_work,
    sample_tuples,
)
from .means import QuasiMeanMap
from .rng import as_rng, randrange_accepts
from .spaces import MetricSpace, Point, as_point, is_convex, worst, worst_array, worst_of_blocks

if TYPE_CHECKING:
    from .groups import GroupAction, Subgroup

MAX_DYADIC_DEPTH = 40
LEVEL_SWEEP_CAP = 20
# floats one array of a sweep may hold (32 MiB as float64): ``level_chunks``
# caps the whole levels it holds, and verify_holder its finest level, so a
# 2-D box sweeps to depth 20 in both checks, and a 64-D one to depth 15 in
# verify_holder
LEVEL_FLOATS_CAP = 1 << 22
# floats a sweep's chunk may hold on its finest level (256 KiB as float64), so
# that a chunk and its temporaries stay in a 2 MiB L2 cache: ``level_chunks``
# refines the path below level depth - k one interval at a time, with
# 2^k x dim <= this. Of 2^12..2^17, 2^15 and 2^16 swept a 2-D box to depth 20
# fastest on a 2-vCPU Xeon; below them, the per-chunk calls add up.
CHUNK_FLOATS = 1 << 15
RATIO_SLACK = 1e-9
# the pairs on which every builder samples its map's contractivity ratio
RATIO_SEED = 5
RATIO_PAIRS = 16
# evenly spaced times on [0, 1] at which fixed_set_deformation checks stationarity
STATIONARITY_TIMES = 9
# sampled points on which symmetrize checks the endpoint slices and equivariance
ENDPOINT_SAMPLES = 16


class ContractionBuilder:
    """Dyadic path construction for one binary map and a basepoint in its
    space.

    The builder samples the map's contractivity ratio on RATIO_PAIRS pairs
    drawn from RATIO_SEED and keeps the check as ``ratio_report``. When the
    sampled ratio exceeds the declared lambda, ``at_times`` and ``at_time``,
    which return certified errors, raise HypothesisError naming the worst
    pair; ``at_dyadic``, ``level_chunks`` and the sweeps, which certify
    nothing themselves, still run.
    """

    def __init__(self, p: QuasiMeanMap, lam: float, theta):
        if p.arity != 2:
            raise ValueError(
                "the dyadic builder needs a binary map; collapse higher arities first"
            )
        if not 0.0 < lam < 1.0:
            raise ValueError(f"lambda must lie in (0, 1), got {lam}")
        theta = as_point(theta)
        p.space.require_member(theta)
        self.space = p.space
        self.p = p
        self.lam = lam
        self.theta = theta
        self.alpha = -math.log(lam) / math.log(2.0)
        pairs = sample_tuples(p.space, 2, RATIO_SEED, RATIO_PAIRS)
        self.ratio_report: LawReport = check_contractivity(p, pairs, lam + RATIO_SLACK)

    def holder_constant(self, x) -> float:
        """C = 2 d(x, basepoint) / (1 - lambda)."""
        return 2.0 * self.space.d(as_point(x), self.theta) / (1.0 - self.lam)

    def at_dyadic(self, x, d: Dyadic) -> Point:
        """Path value at an exact dyadic time (``_walk_one``); time 0 is x,
        time 1 the basepoint, odd grid points aggregate their two neighbours."""
        if d.n > MAX_DYADIC_DEPTH:
            raise CapacityError(f"dyadic level {d.n} exceeds the cap {MAX_DYADIC_DEPTH}")
        return self._walk_one(as_point(x), d.j, d.n)

    def _walk_one(self, x: Point, j: int, n: int) -> Point:
        """The value at j/2^n, ``_walk`` for one time: the ends of the
        bracket start at x and the basepoint, and on each level p of the
        two replaces the end that the next bit of j leaves behind."""
        left, right = x, self.theta
        for shift in range(n - 1, -1, -1):
            mid = self.p.eval([left, right])
            left, right = (mid, right) if j >> shift & 1 else (left, mid)
        return self.theta if j == 1 << n else left

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
        in order. From LAW_BLOCK_EVALS times x levels on, a map with a batch
        form walks every time down the levels at once on arrays (``_walk``);
        below that, or without a batch form, each time walks alone
        (``_walk_one``). The lanes are one algorithm, with the same values.
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
        snapped = [nearest_dyadic(t, level) for t in ts]
        errs = [C * abs(t - r.value) ** self.alpha for t, r in zip(ts, snapped)]
        if self.p.batch is not None and len(snapped) * level >= LAW_BLOCK_EVALS:
            points = self._walk(x, [r.j << (level - r.n) for r in snapped], level)
        else:
            points = [self._walk_one(x, r.j, r.n) for r in snapped]
        return list(zip(points, errs))

    def _walk(self, x: Point, js: list, level: int) -> list:
        """The values at j/2^level for each numerator j: every time keeps the
        values at the ends of its bracket on the current level, and p of the
        two becomes the end that the next bit of j leaves behind, as in
        ``_walk_one``."""
        import numpy as np

        j = np.array(js, dtype=np.int64)
        left = np.full((len(j), len(x)), x)
        right = np.full(left.shape, self.theta)
        with np.errstate(all="ignore"):  # Python floats reach inf or nan without a warning
            for shift in range(level - 1, -1, -1):
                mids = _midpoints(self.p, left, right)
                bit = ((j >> shift) & 1).astype(bool)[:, None]
                left, right = np.where(bit, mids, left), np.where(bit, right, mids)
        left[j == 1 << level] = self.theta
        return [tuple(row) for row in left.tolist()]

    def at_time(self, x, t: float, eps: float) -> tuple[Point, float]:
        """``at_times`` at a single time."""
        return self.at_times(x, (t,), eps)[0]

    def level_chunks(self, x, depth: int):
        """An iterator over the path values on the grids of levels 0..depth,
        in chunks (n, start, rows): ``rows`` is an (m, dim) float64 array
        whose row i is the value at (start + i)/2^n and equals ``at_dyadic``
        there.

        Levels 0..c come whole, with c = max(0, depth - k) and k the most
        levels whose 2^k x dim floats fit CHUNK_FLOATS. Then each level-c
        interval in turn is refined alone down to ``depth``, one chunk a
        level, so a sweep holds O(CHUNK_FLOATS) floats at any depth;
        neighbouring chunks of a level share their end row. Each finer level
        interleaves its coarser one with p applied to each pair of
        neighbours through ``p.apply``. Depth is capped at LEVEL_SWEEP_CAP,
        and the floats of level c at LEVEL_FLOATS_CAP, on the call.
        """
        import numpy as np

        if not 0 <= depth <= LEVEL_SWEEP_CAP:
            raise CapacityError(f"level sweep needs depth in 0..{LEVEL_SWEEP_CAP}, got {depth}")
        dim = self.space.dim
        coarse = max(0, depth - max(1, (CHUNK_FLOATS // dim).bit_length() - 1))
        if ((1 << coarse) + 1) * dim > LEVEL_FLOATS_CAP:
            raise CapacityError(f"a level sweep to depth {depth} in dim {dim} exceeds the cap "
                                f"of {LEVEL_FLOATS_CAP} floats on level {coarse}, which it "
                                f"holds whole")
        level = np.array([as_point(x), self.theta], dtype=np.float64)
        p = self.p

        def refined(rows):
            finer = np.empty((2 * len(rows) - 1, dim))
            finer[0::2] = rows
            finer[1::2] = _midpoints(p, rows[:-1], rows[1:])
            return finer

        def chunks(level):
            yield 0, 0, level
            for n in range(1, coarse + 1):
                level = refined(level)
                yield n, 0, level
            for i in range(len(level) - 1):
                rows = level[i:i + 2]
                for n in range(coarse + 1, depth + 1):
                    rows = refined(rows)
                    yield n, i << (n - coarse), rows

        return chunks(level)


def _midpoints(p: QuasiMeanMap, left, right):
    """p on each pair of rows of two (m, dim) arrays, as a float64 array of
    their shape; raises ValueError for a batch form that gives another."""
    import numpy as np

    mids = np.asarray(p.apply([left, right]), dtype=np.float64)
    if mids.shape != left.shape:
        raise ValueError(f"{p.label} gave midpoints of shape {mids.shape}, expected {left.shape}")
    return mids


class LevelBoundReport(NamedTuple):
    """Worst adjacent-step distance at each grid level against
    lambda^n * d(x, basepoint)."""

    max_ratio: float
    worst_level: int
    worst_index: int
    pairs_checked: int
    lam: float
    base_distance: float

    @property
    def passed(self) -> bool:
        return self.max_ratio <= 1.0 + RATIO_SLACK

    def to_json(self) -> dict:
        fields = self._asdict()
        return {"lambda": fields.pop("lam"), **fields, "passed": self.passed}


def _step_ratios(dists, bounds):
    """dists / bounds for a float64 array of path steps and their bound (a
    float or an array of the same shape). A bound that is not positive
    scores 0 for a zero step and inf for any other, NaN included."""
    import numpy as np

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.divide(dists, bounds)
    unbounded = ~(np.asarray(bounds) > 0.0)
    if unbounded.any():
        unbounded = np.broadcast_to(unbounded, ratios.shape)
        ratios[unbounded] = np.where(dists[unbounded] == 0.0, 0.0, math.inf)
    return ratios


def verify_claim1(builder: ContractionBuilder, x, depth: int) -> LevelBoundReport:
    """Sweep all adjacent dyadic pairs at levels 0..depth and compare each
    step against the per-level geometric bound. The worst pair is the
    first one, in level then index order, whose ratio is NaN, or else the
    first one that attains the maximum: each chunk's own winner
    (``worst_array``) goes to ``worst`` in that order."""
    x = as_point(x)
    dx = builder.space.d(x, builder.theta)
    winners, checked = [], 0
    for n, start, rows in builder.level_chunks(x, depth):
        steps = builder.space.d_batch(rows[:-1], rows[1:])
        top, i, count = worst_array(_step_ratios(steps, (builder.lam ** n) * dx), 0.0)
        checked += count
        if i is not None:
            winners.append((top, (n, start + i)))
    top, witness, _ = worst(sorted(winners, key=lambda w: w[1]), 0.0)
    wl, wi = witness or (-1, -1)
    return LevelBoundReport(top, wl, wi, checked, builder.lam, dx)


class HolderReport(NamedTuple):
    """Worst pairwise ratio against C |s - t|^alpha over sampled dyadic
    time pairs."""

    max_ratio: float
    worst_pair: Optional[tuple]
    pairs_checked: int
    constant: float
    exponent: float
    violations: int = 0

    @property
    def passed(self) -> bool:
        return self.max_ratio <= 1.0 + RATIO_SLACK

    def to_json(self) -> dict:
        pair = None if self.worst_pair is None else [str(d) for d in self.worst_pair]
        return {**self._asdict(), "worst_pair": pair, "passed": self.passed}


def _random_grid_index(rng, depth: int) -> int:
    """Index on the level-``depth`` grid of a dyadic drawn as a uniform
    level <= depth, then a uniform grid point on that level."""
    level = rng.randrange(depth + 1)
    return rng.randrange((1 << level) + 1) << (depth - level)


HOLDER_BLOCK = 1 << 12  # pairs drawn per distance batch, to bound memory


def _grid_index_pairs(rng, depth: int, count: int):
    """The left and right indices of ``count`` pairs of ``_random_grid_index``
    draws, as two int arrays, from one block of 4 * count draws: the level
    and index of each are ``u % n``. If randrange would reject any of the
    draws, the block is drawn again through the scalar path, so the result
    and the generator's state always equal the scalar path's."""
    import numpy as np

    saved = rng.getstate()
    u = rng.u64_array(4 * count).reshape(count, 2, 2)  # pair, side, (level, index)
    level_n = np.uint64(depth + 1)
    levels = u[..., 0] % level_n
    index_n = (np.uint64(1) << levels) + np.uint64(1)
    if randrange_accepts(u[..., 0], level_n).all() and randrange_accepts(u[..., 1], index_n).all():
        indices = ((u[..., 1] % index_n) << (np.uint64(depth) - levels)).astype(np.int64)
        return indices[:, 0], indices[:, 1]
    rng.setstate(saved)
    draws = [_random_grid_index(rng, depth) for _ in range(2 * count)]
    return np.array(draws[0::2], dtype=np.int64), np.array(draws[1::2], dtype=np.int64)


def verify_holder(builder: ContractionBuilder, x, pairs: int, depth: int,
                  seed_or_rng=17) -> HolderReport:
    """Sample dyadic time pairs at level <= depth and compare the path
    displacement against the Holder bound.

    Every sampled time lies on the level-``depth`` grid, so the path is
    built once at that level, from ``level_chunks`` into one array, and
    each pair reads two of its rows; the time gap |i - k| 2^-depth is
    exact. Each pair's bound is computed in its block, so that beside that
    array the check holds O(HOLDER_BLOCK) floats. Depth is capped at
    LEVEL_SWEEP_CAP, that array's floats at LEVEL_FLOATS_CAP, and the pairs
    plus the sweep's 2^depth - 1 midpoints at WORK_CAP. A NaN ratio counts
    as a violation, and the first one is the worst pair. The pairs are
    those of ``_random_grid_index`` drawn in turn, left then right, taken a
    block of draws at a time.
    """
    import numpy as np

    x = as_point(x)
    chunks = builder.level_chunks(x, depth)
    dim = builder.space.dim
    if ((1 << depth) + 1) * dim > LEVEL_FLOATS_CAP:
        raise CapacityError(f"a level sweep to depth {depth} in dim {dim} exceeds the cap "
                            f"of {LEVEL_FLOATS_CAP} floats on its finest level")
    require_work(f"verify-holder of {builder.p.label} ({pairs} pairs at depth {depth})",
                 pairs + (1 << depth) - 1)
    fine = np.empty(((1 << depth) + 1, dim))
    for n, start, rows in chunks:
        if n == depth:  # only the finest level is kept
            fine[start:start + len(rows)] = rows
    rng = as_rng(seed_or_rng)
    C = builder.holder_constant(x)
    cell = math.ldexp(1.0, -depth)
    violations = 0

    def blocks():
        nonlocal violations
        for start in range(0, pairs, HOLDER_BLOCK):
            left, right = _grid_index_pairs(rng, depth, min(HOLDER_BLOCK, pairs - start))
            spans = (np.abs(left - right) * cell).tolist()
            # Python's pow for the bound: numpy's power rounds differently
            bounds = C * np.fromiter(map(pow, spans, repeat(builder.alpha)), float, len(spans))
            ratios = _step_ratios(builder.space.d_batch(fine[left], fine[right]), bounds)
            violations += int(np.count_nonzero(~(ratios <= 1.0 + RATIO_SLACK)))
            yield ratios, lambda j, left=left, right=right: (Dyadic(int(left[j]), depth),
                                                             Dyadic(int(right[j]), depth))

    top, wpair, checked = worst_of_blocks(blocks(), 0.0)
    return HolderReport(top, wpair, checked, C, builder.alpha, violations)


# ---------------------------------------------------------------------------
# group homotopies


class GHomotopy(NamedTuple):
    """A time-indexed family of maps commuting with a group action."""

    action: GroupAction
    evaluate: Callable  # (Point, t) -> Point
    report: dict

    def __call__(self, x, t: float) -> Point:
        return self.evaluate(as_point(x), t)


def _aggregating_mean(p: Optional[QuasiMeanMap], action: GroupAction,
                     subgroup: Optional[Subgroup], tol: float,
                     seed: int, samples: int) -> Optional[QuasiMeanMap]:
    """The mean that aggregates the translates by the subgroup (the whole
    group when None): None for a trivial one, else p, once its arity and
    its laws on samples are checked."""
    order, what, letter = ((action.group.order, "group", "G") if subgroup is None
                           else (subgroup.order, "subgroup", "H"))
    if order == 1:
        return None
    if p is None:
        raise ValueError(f"a mean of arity |{letter}| is required for a nontrivial {what}")
    if p.arity != order:
        raise ValueError(f"mean arity {p.arity} != {what} order {order}")
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
               tol: float = 1e-9, seed: int = 23, samples: int = 32) -> GHomotopy:
    """Aggregate the conjugated translates of a homotopy into an
    equivariant one.

    The mean must be anonymous and equivariant with arity |G|, which is
    checked on samples. For the trivial group the aggregation is the
    base homotopy itself and ``p`` may be None. Endpoint behaviour
    transfers: an identity time-0 slice stays the identity, and a
    constant time-1 slice becomes a constant at a G-fixed point.
    """
    p = _aggregating_mean(p, action, None, tol, seed, samples)
    elements = tuple(action.group.elements())
    evaluate = _symmetrized(base, action, p, elements)
    report = _endpoint_report(base, evaluate, action, tol, seed)
    return GHomotopy(action, evaluate, report=report)


def _endpoint_report(base: Callable, evaluate: Callable, action: GroupAction,
                     tol: float, seed) -> dict:
    from .groups import fixed_defect

    rng = as_rng(seed)
    sp = action.space
    pts = sp.sample(rng, ENDPOINT_SAMPLES)

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
                            seed: int = 29) -> GHomotopy:
    """The dyadic construction itself commutes with the action when the
    basepoint is a fixed point and the binary map is equivariant; this is
    verified on sampled (point, element, dyadic time) triples."""
    from .groups import fixed_defect

    G, theta = action.group, builder.theta
    require("basepoint fixed-point",
            law_report("fixed-point", [(fixed_defect(action, G.elements(), theta), (theta,))], tol))
    reports = check_laws(builder.p, ["equivariance"], seed, max(8, samples // 4), tol, action)
    require("binary map equivariance", reports["equivariance"])
    rng = as_rng(seed + 1)
    sp = builder.space

    def equivariance():
        for _ in range(samples):
            x = sp.sample(rng, 1)[0]
            g = rng.randrange(G.order)
            d = Dyadic(_random_grid_index(rng, depth), depth)
            yield sp.d(builder.at_dyadic(action.act(g, x), d),
                       action.act(g, builder.at_dyadic(x, d))), (x, g, d)

    defect = require("dyadic construction equivariance",
                     law_report("equivariance", equivariance(), tol))

    def evaluate(x: Point, t: float) -> Point:
        return builder.at_time(x, t, eps)[0]

    return GHomotopy(action, evaluate,
                     report={"equivariance_defect": defect, "samples": samples, "depth": depth})


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
                          tol: float = 1e-9, seed: int = 31, samples: int = 64) -> GHomotopy:
    """Deform the space onto the H-fixed set through an H-equivariant
    homotopy built from a retraction and a boundary-respecting extension.

    Preconditions checked on samples: the retraction lands in the fixed
    set; the extension matches the boundary data (identity at time 0, the
    retraction at time 1, stationary on the fixed set at
    STATIONARITY_TIMES times); the mean is anonymous and H-equivariant with
    arity |H|. The result is verified to start at the identity, hold the
    fixed set still, and end inside it. Those checks evaluate the
    deformation samples x (STATIONARITY_TIMES + 2) times, each time with |H|
    extension calls; that plan is checked against WORK_CAP first, and the
    law gate's own plan next.
    """
    from .groups import fixed_defect

    sp = action.space
    if H.parent is not action.group:
        raise ValueError("subgroup must belong to the action's group")
    require_work(f"deform-fixed over a subgroup of order {H.order} ({samples} samples)",
                 samples * (STATIONARITY_TIMES + 2) * H.order)
    p = _aggregating_mean(p, action, H, tol, seed, max(8, samples // 4))

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
    return GHomotopy(action, evaluate, report=report)
