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
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

from .dyadics import Dyadic, nearest_dyadic
from .errors import CapacityError, HypothesisError, PrecisionError
from .groups import GroupAction, Subgroup, full_subgroup, is_fixed_by
from .means import QuasiMeanMap, check_anonymity, check_equivariance, sample_tuples
from .rng import as_rng
from .spaces import MetricSpace, Point, as_point, is_convex

MAX_DYADIC_DEPTH = 40
LEVEL_SWEEP_CAP = 20
RATIO_SLACK = 1e-9


class ContractionBuilder:
    """Dyadic path construction for one binary map and basepoint."""

    def __init__(self, space: MetricSpace, p: QuasiMeanMap, lam: float, theta,
                 validate: bool = True, seed: int = 5):
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
        self.sampled_ratio = 0.0
        self.sampled_pair: Optional[tuple] = None
        if validate:
            understated = self.check_ratio(seed)
            if understated:
                warnings.warn(f"{understated}; certified bounds may be invalid", stacklevel=2)

    def check_ratio(self, seed: int = 5, samples: int = 16) -> Optional[str]:
        """Sample pairs (x, y) for the worst ratio max(d(x, m), d(y, m)) /
        d(x, y), with m = p(x, y), and keep it and its pair as
        ``sampled_ratio`` and ``sampled_pair``. Returns a message naming
        both when the ratio exceeds the declared lambda, else None."""
        rng = as_rng(seed)
        worst, pair = 0.0, None
        for _ in range(samples):
            x, y = self.space.sample(rng, 2)
            gap = self.space.d(x, y)
            if gap <= 0.0:
                continue
            out = self.p.eval([x, y])
            ratio = max(self.space.d(x, out), self.space.d(y, out)) / gap
            if ratio > worst:
                worst, pair = ratio, (x, y)
        self.sampled_ratio, self.sampled_pair = worst, pair
        if worst <= self.lam + RATIO_SLACK:
            return None
        return (f"sampled contractivity ratio {worst:.6g} at the pair {pair} "
                f"exceeds the declared lambda {self.lam:.6g}")

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
        neighbours through ``p.apply``. Depth is capped at LEVEL_SWEEP_CAP.
        """
        import numpy as np

        if not 0 <= depth <= LEVEL_SWEEP_CAP:
            raise CapacityError(f"level sweep needs depth in 0..{LEVEL_SWEEP_CAP}, got {depth}")
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
    first one, in level then index order, that attains the maximum."""
    import numpy as np

    x = as_point(x)
    dx = builder.space.d(x, builder.theta)
    worst, wl, wi, checked = 0.0, -1, -1, 0
    for n, level in enumerate(builder.level_arrays(x, depth)):
        bound = (builder.lam ** n) * dx
        steps = builder.space.d_batch(level[:-1], level[1:])
        checked += len(steps)
        if bound > 0.0:
            ratios = steps / bound
        else:
            ratios = np.where(steps == 0.0, 0.0, math.inf)
        j = int(ratios.argmax())
        if ratios[j] > worst:
            worst, wl, wi = float(ratios[j]), n, j
    return LevelBoundReport(worst, wl, wi, checked, builder.lam, dx)


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
    """
    x = as_point(x)
    for fine in builder.level_arrays(x, depth):
        pass  # only the finest level is kept
    rng = as_rng(seed_or_rng)
    C = builder.holder_constant(x)
    cell = math.ldexp(1.0, -depth)
    worst, wpair, checked, violations = 0.0, None, 0, 0
    for start in range(0, pairs, HOLDER_BLOCK):
        left, right = [], []
        for _ in range(min(HOLDER_BLOCK, pairs - start)):
            left.append(_random_grid_index(rng, depth))
            right.append(_random_grid_index(rng, depth))
        dists = builder.space.d_batch(fine[left], fine[right]).tolist()
        for i, k, dist in zip(left, right, dists):
            if i == k:
                ratio = 0.0 if dist == 0.0 else math.inf
            else:
                bound = C * (abs(i - k) * cell) ** builder.alpha
                ratio = dist / bound if bound > 0.0 else (0.0 if dist == 0.0 else math.inf)
            checked += 1
            if ratio > 1.0 + RATIO_SLACK:
                violations += 1
            if ratio > worst:
                worst, wpair = ratio, (i, k)
    if wpair is not None:
        wpair = (Dyadic(wpair[0], depth), Dyadic(wpair[1], depth))
    return HolderReport(worst, wpair, checked, C, builder.alpha, violations)


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


def _check_mean_laws(p: QuasiMeanMap, action: GroupAction, tol: float,
                     subgroup: Optional[Subgroup], seed, samples: int) -> None:
    rng = as_rng(seed)
    tuples = sample_tuples(p.space, p.arity, rng, samples)
    anon = check_anonymity(p, tuples, tol, rng)
    if not anon.passed:
        raise HypothesisError(
            f"anonymity defect {anon.max_violation:.3g} exceeds tol {tol:.3g} "
            f"at witness {anon.witness}"
        )
    equi = check_equivariance(p, action, tuples, tol, subgroup=subgroup)
    if not equi.passed:
        raise HypothesisError(
            f"equivariance defect {equi.max_violation:.3g} exceeds tol {tol:.3g} "
            f"at witness {equi.witness}"
        )


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
    G = action.group
    if G.order == 1:
        p = None
    else:
        if p is None:
            raise ValueError("a mean of arity |G| is required for a nontrivial group")
        if p.arity != G.order:
            raise ValueError(f"mean arity {p.arity} != group order {G.order}")
        if not trust_laws:
            _check_mean_laws(p, action, tol, None, seed, samples)
    elements = tuple(G.elements())
    evaluate = _symmetrized(base, action, p, elements)
    report = _endpoint_report(base, evaluate, action, tol, seed)
    return GHomotopy(action, evaluate, "symmetrized", base=base, report=report)


def _endpoint_report(base: Callable, evaluate: Callable, action: GroupAction,
                     tol: float, seed, samples: int = 16) -> dict:
    rng = as_rng(seed)
    sp = action.space
    pts = sp.sample(rng, samples)
    base0 = max(sp.d(base(x, 0.0), x) for x in pts)
    report: dict = {"base_identity_defect_t0": base0}
    if base0 <= tol:
        defect = max(sp.d(evaluate(x, 0.0), x) for x in pts)
        report["identity_defect_t0"] = defect
        if defect > tol:
            raise HypothesisError(
                f"time-0 slice stopped being the identity (defect {defect:.3g})"
            )
    ends = [base(x, 1.0) for x in pts]
    base_const = max(sp.d(e, ends[0]) for e in ends)
    report["base_constancy_defect_t1"] = base_const
    if base_const <= tol:
        outs = [evaluate(x, 1.0) for x in pts]
        defect = max(sp.d(o, outs[0]) for o in outs)
        report["constancy_defect_t1"] = defect
        if defect > tol:
            raise HypothesisError(
                f"time-1 slice stopped being constant (defect {defect:.3g})"
            )
        fixed_defect = max(
            sp.d(action.act(g, outs[0]), outs[0]) for g in action.group.elements()
        )
        report["t1_value_fixed_defect"] = fixed_defect
    gdef = 0.0
    for x in pts:
        t = rng.random()
        g = rng.randrange(action.group.order)
        gdef = max(gdef, sp.d(evaluate(action.act(g, x), t), action.act(g, evaluate(x, t))))
    report["equivariance_defect"] = gdef
    # the aggregation chain can amplify the mean's own law defects a little
    if gdef > 10.0 * tol:
        raise HypothesisError(
            f"symmetrized homotopy equivariance defect {gdef:.3g} exceeds 10*tol"
        )
    return report


def equivariant_contraction(builder: ContractionBuilder, action: GroupAction,
                            tol: float = 1e-9, eps: float = 1e-9,
                            depth: int = 10, samples: int = 64,
                            seed: int = 29, trust_laws: bool = False) -> GHomotopy:
    """The dyadic construction itself commutes with the action when the
    basepoint is a fixed point and the binary map is equivariant; this is
    verified on sampled (element, point, dyadic time) triples."""
    G = action.group
    if not is_fixed_by(action, full_subgroup(G), builder.theta, tol):
        raise HypothesisError(
            f"basepoint {builder.theta} is not fixed by the group at tol {tol:.3g}"
        )
    if not trust_laws:
        rng = as_rng(seed)
        tuples = sample_tuples(builder.space, 2, rng, max(8, samples // 4))
        equi = check_equivariance(builder.p, action, tuples, tol)
        if not equi.passed:
            raise HypothesisError(
                f"binary map equivariance defect {equi.max_violation:.3g} "
                f"exceeds tol {tol:.3g}"
            )
    rng = as_rng(seed + 1)
    sp = builder.space
    worst = 0.0
    for _ in range(samples):
        x = sp.sample(rng, 1)[0]
        g = rng.randrange(G.order)
        d = random_dyadic(rng, depth)
        defect = sp.d(
            builder.at_dyadic(action.act(g, x), d),
            action.act(g, builder.at_dyadic(x, d)),
        )
        worst = max(worst, defect)
    if worst > tol:
        raise HypothesisError(
            f"dyadic construction equivariance defect {worst:.3g} exceeds tol {tol:.3g}"
        )

    def evaluate(x: Point, t: float) -> Point:
        return builder.at_time(x, t, eps)[0]

    return GHomotopy(
        action, evaluate, "equivariant_contraction",
        report={"equivariance_defect": worst, "samples": samples, "depth": depth},
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
                          seed: int = 31, samples: int = 64,
                          time_samples: int = 9) -> GHomotopy:
    """Deform the space onto the H-fixed set through an H-equivariant
    homotopy built from a retraction and a boundary-respecting extension.

    Preconditions checked on samples: the retraction lands in the fixed
    set; the extension matches the boundary data (identity at time 0, the
    retraction at time 1, stationary on the fixed set); the mean is
    anonymous and H-equivariant with arity |H|. The result is verified to
    start at the identity, hold the fixed set still, and end inside it.
    """
    G = action.group
    sp = action.space
    if H.parent is not G:
        raise ValueError("subgroup must belong to the action's group")
    if H.order == 1:
        p = None
    else:
        if p is None:
            raise ValueError("a mean of arity |H| is required for a nontrivial subgroup")
        if p.arity != H.order:
            raise ValueError(f"mean arity {p.arity} != subgroup order {H.order}")
        if not trust_laws:
            _check_mean_laws(p, action, tol, H, seed, max(8, samples // 4))

    rng = as_rng(seed + 1)
    pts = sp.sample(rng, samples)
    times = [i / (time_samples - 1) for i in range(time_samples)] if time_samples > 1 else [0.0]

    worst_retract = 0.0
    for x in pts:
        rx = retraction(x)
        if not sp.contains(rx):
            raise HypothesisError(f"retraction output {rx} leaves the space")
        worst_retract = max(
            worst_retract, max(sp.d(action.act(h, rx), rx) for h in H.members)
        )
    if worst_retract > tol:
        raise HypothesisError(
            f"retraction image is not H-fixed (defect {worst_retract:.3g})"
        )

    worst_b0 = max(sp.d(extension(x, 0.0), x) for x in pts)
    worst_b1 = max(sp.d(extension(x, 1.0), retraction(x)) for x in pts)
    fixed_pts = [retraction(x) for x in pts]
    worst_bf = max(
        sp.d(extension(x0, t), x0) for x0 in fixed_pts for t in times
    )
    for name, defect in (("time-0 identity", worst_b0), ("time-1 retraction", worst_b1),
                         ("fixed-set stationarity", worst_bf)):
        if defect > tol:
            raise HypothesisError(
                f"extension violates the {name} boundary data (defect {defect:.3g})"
            )

    evaluate = _symmetrized(extension, action, p, H.members)

    worst_id = max(sp.d(evaluate(x, 0.0), x) for x in pts)
    worst_still = max(sp.d(evaluate(x0, t), x0) for x0 in fixed_pts for t in times)
    worst_into = 0.0
    for x in pts:
        end = evaluate(x, 1.0)
        worst_into = max(worst_into, max(sp.d(action.act(h, end), end) for h in H.members))
    report = {
        "identity_defect_t0": worst_id,
        "fixed_set_stationarity_defect": worst_still,
        "end_slice_fixed_defect": worst_into,
        "samples": samples,
    }
    for name, defect in (("time-0 identity", worst_id),
                         ("fixed-set stationarity", worst_still),
                         ("end-slice containment", worst_into)):
        if defect > tol:
            raise HypothesisError(f"deformation failed the {name} check (defect {defect:.3g})")
    return GHomotopy(action, evaluate, "fixed_set_deformation", base=extension, report=report)
