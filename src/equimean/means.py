"""Quasi-mean maps on metric spaces: laws, estimation and constructions.

A quasi-mean is an n-ary map X^n -> X that returns the common value on
constant tuples (unanimity). The checkers here measure, on sampled
inputs, how far a candidate map is from unanimity, anonymity
(permutation invariance), equivariance under a group action, and strict
betweenness (output strictly closer to every argument than the tuple
diameter). ``estimate_lambda`` estimates the contractivity constant

    max_i d(x_i, p(x)) <= lambda * max_{j,k} d(x_j, x_k)

as a maximum of the observed ratio over a dense grid (binary means on an
interval) or over seeded random tuples refined by hill climbing. The
estimate is a lower bound witness, not a certified supremum; the argmax
tuple is reported so the claim can be replayed.

Built-ins are registered by name for the CLI: ``arithmetic:n``,
``geometric``, ``dictator:i``, ``constant:coords``, ``minsq``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import _kernels
from .errors import CapacityError, HypothesisError, SamplingError
from .groups import GroupAction, Subgroup, fixed_defect, full_subgroup
from .rng import Xoshiro256StarStar, as_rng
from .spaces import Interval, MetricSpace, Point, as_point, diameter, is_convex, worst

DEFAULT_TOL = 1e-9
EXCLUDED_DIAMETER = 1e-6
# ordered pairs a dense lambda grid may hold: step 1e-4 on [0, 1] is about
# 10^8 pairs, and the cap keeps the scan to seconds
GRID_PAIRS_CAP = 10**9
# the seed of the points on which quasi_mean checks a new map's unanimity
UNANIMITY_SEED = 7
# perturbations per random+hill restart
HILL_STEPS = 60


@dataclass
class QuasiMeanMap:
    """An n-ary map on a space, with an optional array form.

    ``eval`` takes a sequence of n points and returns a point. ``batch``
    (optional) takes a sequence of n float64 numpy arrays that hold points
    on their last axis (length dim) and broadcast against each other on
    their leading axes, as numpy broadcasting does; it returns the map's
    values as an array whose leading axes broadcast to the common shape
    and whose last axis holds the output points. Its values equal those of
    ``eval`` bit for bit.

    ``symmetric`` promises a binary map with p(x, y) == p(y, x) bit for
    bit; the grid scan of ``estimate_lambda`` then scores each unordered
    pair once.
    """

    arity: int
    space: MetricSpace
    eval: Callable
    label: str
    batch: Optional[Callable] = None
    symmetric: bool = False

    def __call__(self, *points) -> Point:
        pts = [as_point(p) for p in points]
        if len(pts) != self.arity:
            raise ValueError(f"{self.label} needs {self.arity} arguments, got {len(pts)}")
        return self.eval(pts)

    def apply(self, arrays):
        """The map on arrays of points, as ``batch`` takes them: through
        ``batch`` when the map has one, else ``eval`` row by row on the
        broadcast inputs."""
        if self.batch is not None:
            return self.batch(arrays)
        import numpy as np

        arrays = np.broadcast_arrays(*arrays)
        lead = arrays[0].shape[:-1]
        rows = zip(*(arr.reshape(-1, arr.shape[-1]).tolist() for arr in arrays))
        out = np.array([self.eval([tuple(pt) for pt in row]) for row in rows], dtype=np.float64)
        return out.reshape(lead + (-1,))


def quasi_mean(arity: int, space: MetricSpace, func: Callable, label: str,
               batch: Optional[Callable] = None, symmetric: bool = False) -> QuasiMeanMap:
    """Wrap a point map; warns when it visibly fails unanimity on samples."""
    if arity < 2:
        raise ValueError("arity must be >= 2")
    p = QuasiMeanMap(arity, space, func, label, batch=batch, symmetric=symmetric)
    report = check_unanimity(p, space.sample(UNANIMITY_SEED, 8))
    if not report.passed:
        warnings.warn(
            f"{label}: unanimity defect {report.max_violation:.3g} on construction samples",
            stacklevel=2,
        )
    return p


# ---------------------------------------------------------------------------
# law reports


@dataclass
class LawReport:
    law: str
    samples_checked: int
    max_violation: float
    tol: float
    witness: Optional[tuple] = None
    strict: bool = False

    @property
    def passed(self) -> bool:
        if self.strict:
            return self.max_violation < self.tol
        return self.max_violation <= self.tol

    def to_json(self) -> dict:
        return {
            "law": self.law,
            "samples_checked": self.samples_checked,
            "max_violation": self.max_violation,
            "tol": self.tol,
            "passed": self.passed,
            "witness": None if self.witness is None else [list(p) for p in self.witness],
        }


def sample_tuples(space: MetricSpace, arity: int, seed_or_rng, count: int) -> list[tuple]:
    rng = as_rng(seed_or_rng)
    return [tuple(space.sample(rng, arity)) for _ in range(count)]


def law_report(law: str, scored, tol: float, strict: bool = False) -> LawReport:
    """The report on a law's (defect, witness) pairs, scored by
    ``spaces.worst``: their count, the worst defect and, when the law
    fails, its witness. A NaN defect wins, so the law fails there. A strict
    law reports the worst defect as it is (-inf when no pair was scored);
    any other law floors it at 0.0."""
    top, witness, checked = worst(scored)
    report = LawReport(law, checked, top if strict else max(top, 0.0), tol, strict=strict)
    if not report.passed:
        report.witness = witness
    return report


def require(what: str, report: LawReport) -> float:
    """The gate on a sampled check: raises HypothesisError naming ``what``,
    the defect, the tolerance and the witness when the report failed, and
    returns the defect when it passed."""
    if not report.passed:
        raise HypothesisError(
            f"{what} defect {report.max_violation:.3g} exceeds tol {report.tol:.3g} "
            f"at witness {report.witness}"
        )
    return report.max_violation


def check_unanimity(p: QuasiMeanMap, samples: Sequence, tol: float = DEFAULT_TOL) -> LawReport:
    """Defect of p(x, ..., x) = x over sample points."""

    def scored():
        for x in samples:
            x = as_point(x)
            yield p.space.d(p.eval([x] * p.arity), x), (x,)

    return law_report("M1", scored(), tol)


def _permutations_to_check(n: int, rng: Xoshiro256StarStar) -> list[tuple]:
    import itertools

    if n <= 5:
        return list(itertools.permutations(range(n)))
    # transpositions generate the symmetric group; n^2 random ones per sample
    perms = []
    for _ in range(n * n):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        sigma = list(range(n))
        sigma[i], sigma[j] = sigma[j], sigma[i]
        perms.append(tuple(sigma))
    return perms


def check_anonymity(p: QuasiMeanMap, tuples: Sequence[tuple], tol: float = DEFAULT_TOL,
                    seed_or_rng=11) -> LawReport:
    """Defect of permutation invariance; all n! orders for n <= 5, else
    n^2 random transpositions per sample."""
    rng = as_rng(seed_or_rng)

    def scored():
        for tup in tuples:
            base = p.eval(list(tup))
            for sigma in _permutations_to_check(p.arity, rng):
                yield p.space.d(p.eval([tup[i] for i in sigma]), base), tup

    return law_report("M2", scored(), tol)


def check_equivariance(p: QuasiMeanMap, action: GroupAction, tuples: Sequence[tuple],
                       tol: float = DEFAULT_TOL, subgroup: Optional[Subgroup] = None) -> LawReport:
    """Defect of p(g x_1, ..., g x_n) = g p(x_1, ..., x_n) over samples
    and all elements of the (sub)group. A map that pushes points out of
    the space is not an action on it; that surfaces as a membership
    error here."""
    if action.space is not p.space and action.space.to_json() != p.space.to_json():
        raise ValueError("action and mean must live on the same space")
    elements = subgroup.members if subgroup is not None else tuple(action.group.elements())

    def scored():
        for tup in tuples:
            base = p.eval(list(tup))
            for g in elements:
                translated = [action.act(g, x) for x in tup]
                for gx in translated:
                    p.space.require_member(gx)
                yield p.space.d(p.eval(translated), action.act(g, base)), tup

    return law_report("equivariance", scored(), tol)


def check_strict_betweenness(p: QuasiMeanMap, tuples: Sequence[tuple],
                             tol: float = 0.0) -> LawReport:
    """Checks max_i d(x_i, p(x)) < diameter on every positive-diameter
    sample; the report's violation is the worst signed margin."""

    def scored():
        for tup in tuples:
            diam = diameter(p.space, tup)
            if diam <= 0.0:
                continue
            out = p.eval(list(tup))
            yield max(p.space.d(x, out) for x in tup) - diam, tup

    return law_report("strict-betweenness", scored(), tol, strict=True)


def contractivity_ratio(p: QuasiMeanMap, tup: Sequence[Point]) -> Optional[float]:
    """max_i d(x_i, p(x)) / diameter, or None on a degenerate tuple."""
    diam = diameter(p.space, tup)
    if diam <= 0.0:
        return None
    return _ratio(p, tup, diam)


def _ratio(p: QuasiMeanMap, tup: Sequence[Point], diam: float) -> float:
    out = p.eval(list(tup))
    return max(p.space.d(x, out) for x in tup) / diam


def check_contractivity(p: QuasiMeanMap, tuples: Sequence[tuple], tol: float) -> LawReport:
    """The worst contractivity ratio over the non-degenerate samples, which
    passes when it is at most tol (a declared lambda plus its slack)."""
    ratios = ((contractivity_ratio(p, tup), tup) for tup in tuples)
    return law_report("contractivity", ((r, tup) for r, tup in ratios if r is not None), tol)


def require_mean_laws(p: QuasiMeanMap, action: GroupAction, tol: float,
                      subgroup: Optional[Subgroup], seed_or_rng, samples: int) -> None:
    """Sample-check that p is anonymous, then that it is equivariant under
    the subgroup (the whole group when None), on ``samples`` tuples drawn
    from one rng that the anonymity check then continues; raises
    HypothesisError naming the first failed law, its defect and witness."""
    rng = as_rng(seed_or_rng)
    tuples = sample_tuples(p.space, p.arity, rng, samples)
    require("anonymity", check_anonymity(p, tuples, tol, rng))
    require("equivariance", check_equivariance(p, action, tuples, tol, subgroup))


# ---------------------------------------------------------------------------
# contractivity constant estimation


@dataclass
class LambdaEstimate:
    lambda_hat: float
    argmax_tuple: tuple
    samples: int
    excluded_diagonal_radius: float
    method: str = "grid"

    def to_json(self) -> dict:
        return {
            "lambda_hat": self.lambda_hat,
            "argmax_tuple": [list(p) for p in self.argmax_tuple],
            "samples": self.samples,
            "excluded_diagonal_radius": self.excluded_diagonal_radius,
            "method": self.method,
        }

    def csv_header(self) -> list[str]:
        return ["lambda_hat", "samples", "excluded_diagonal_radius", "method", "argmax_tuple"]

    def csv_row(self) -> list[str]:
        return [
            repr(self.lambda_hat),
            str(self.samples),
            repr(self.excluded_diagonal_radius),
            self.method,
            ";".join(",".join(repr(c) for c in p) for p in self.argmax_tuple),
        ]


@dataclass
class LambdaConfig:
    grid_step: float = 1e-3
    excluded_diameter: float = EXCLUDED_DIAMETER
    restarts: int = 100
    seed: int = 1
    force_random: bool = False


def estimate_lambda(p: QuasiMeanMap, cfg: LambdaConfig = LambdaConfig()) -> LambdaEstimate:
    """Estimate the contractivity constant by ratio maximization.

    Binary means on an interval are scanned over the dense step grid,
    which ends on the interval's end b even when the step does not divide
    its length; higher tuple dimensions use seeded random tuples with hill
    climbing.
    Tuples with diameter at or below the excluded radius are skipped.
    """
    grid_applies = (
        not cfg.force_random
        and p.arity == 2
        and isinstance(p.space, Interval)
        and p.arity * p.space.dim <= 2
    )
    if grid_applies:
        return _estimate_grid(p, cfg)
    return _estimate_random(p, cfg)


def _grid_points(a: float, b: float, step: float) -> int:
    """Number of grid points a + k*step on [a, b], plus b itself when the
    last of them falls short of b by more than rounding; raises
    CapacityError when their ordered pairs exceed GRID_PAIRS_CAP."""
    span = (b - a) / step + 1e-9
    m = int(math.floor(span)) + 1 if math.isfinite(span) else math.inf
    if m < math.inf and b - (a + (m - 1) * step) > 1e-9 * step:
        m += 1
    if m * (m - 1) > GRID_PAIRS_CAP:
        raise CapacityError(
            f"grid step {step!r} on [{a!r}, {b!r}] gives {m} points, whose "
            f"{m * (m - 1)} ordered pairs exceed the cap {GRID_PAIRS_CAP}"
        )
    return m


def _estimate_grid(p: QuasiMeanMap, cfg: LambdaConfig) -> LambdaEstimate:
    a = p.space.a
    m = _grid_points(a, p.space.b, cfg.grid_step)
    lam, x, y, count = _kernels.grid_scan_interval(p, a, cfg.grid_step, m, cfg.excluded_diameter)
    if count == 0:
        raise SamplingError("every grid tuple fell inside the excluded diagonal radius")
    return LambdaEstimate(lam, ((x,), (y,)), count, cfg.excluded_diameter)


def _random_member_tuple(p: QuasiMeanMap, rng, excluded: float) -> tuple:
    for _ in range(1000):
        tup = tuple(p.space.sample(rng, p.arity))
        if diameter(p.space, tup) > excluded:
            return tup
    raise SamplingError("could not sample a tuple with diameter above the excluded radius")


def _perturb_tuple(space: MetricSpace, tup: tuple, rng, scale: float) -> tuple:
    moved = []
    for pt in tup:
        coords = tuple(c + rng.uniform(-scale, scale) for c in pt)
        moved.append(space.project(coords))
    return tuple(moved)


def _climb(space: MetricSpace, objective: Callable, tup: tuple, rng, scale: float,
           steps: int, floor: float = 0.0) -> tuple:
    """Hill-climb ``objective`` from ``tup`` through at most ``steps``
    perturbations of size ``scale``: a strictly better candidate is taken,
    any other shrinks the scale by 0.7, and the climb stops once the scale
    falls below ``floor``. Returns the final tuple, its value and the
    number of objective evaluations."""
    val = objective(tup)
    evals = 1
    for _ in range(steps):
        cand = _perturb_tuple(space, tup, rng, scale)
        cval = objective(cand)
        evals += 1
        if cval > val:
            tup, val = cand, cval
        else:
            scale *= 0.7
            if scale < floor:
                break
    return tup, val, evals


def _estimate_random(p: QuasiMeanMap, cfg: LambdaConfig) -> LambdaEstimate:
    rng = as_rng(cfg.seed)
    excluded = cfg.excluded_diameter
    scale = 0.25 * p.space.extent()

    def objective(tup):
        diam = diameter(p.space, tup)
        return _ratio(p, tup, diam) if diam > 0.0 and diam > excluded else -math.inf

    best_val, best_tup, evals = -math.inf, None, 0
    for _ in range(max(1, cfg.restarts)):
        start = _random_member_tuple(p, rng, excluded)
        tup, val, used = _climb(p.space, objective, start, rng, scale, HILL_STEPS)
        evals += used
        if val > best_val:
            best_val, best_tup = val, tup
    if best_tup is None or best_val == -math.inf:
        raise SamplingError("no usable tuple found during random lambda estimation")
    return LambdaEstimate(best_val, best_tup, evals, excluded, method="random+hill")


# ---------------------------------------------------------------------------
# derived constructions


def derive_divisor_mean(p: QuasiMeanMap, k: int) -> QuasiMeanMap:
    """Arity-k map q(x_1..x_k) = p(block repeated n/k times); inherits
    unanimity, and anonymity/equivariance when p has them."""
    if k < 2:
        raise ValueError("derived arity must be >= 2")
    if p.arity % k != 0:
        raise ValueError(f"{k} does not divide {p.arity}")
    reps = p.arity // k

    def func(points):
        return p.eval(list(points) * reps)

    batch = None
    if p.batch is not None:
        batch = lambda arrays: p.batch(list(arrays) * reps)
    return QuasiMeanMap(k, p.space, func, f"{p.label}/divisor:{k}", batch=batch)


def collapse_to_quasi_mean(p: QuasiMeanMap) -> QuasiMeanMap:
    """Binary map p'(x, y) = p(x, y, ..., y); keeps the contractivity
    constant and equivariance of p."""
    tail = p.arity - 1

    def func(points):
        x, y = points
        return p.eval([x] + [y] * tail)

    batch = None
    if p.batch is not None:
        batch = lambda arrays: p.batch([arrays[0]] + [arrays[1]] * tail)
    return QuasiMeanMap(2, p.space, func, f"{p.label}/collapsed", batch=batch,
                        symmetric=p.symmetric and p.arity == 2)


def orbit_average_point(p: QuasiMeanMap, action: GroupAction, x, tol: float = DEFAULT_TOL,
                        subgroup: Optional[Subgroup] = None,
                        verify_laws: bool = False, seed: int = 13) -> Point:
    """Aggregate the H-orbit images p(g_1 x, ..., g_n x); for an
    anonymous equivariant p the result is H-fixed, which is verified.
    With ``verify_laws`` the anonymity and equivariance of p are also
    sample-checked up front, on 32 tuples, instead of trusted."""
    H = subgroup if subgroup is not None else full_subgroup(action.group)
    if p.arity != H.order:
        raise ValueError(f"mean arity {p.arity} != subgroup order {H.order}")
    if verify_laws:
        require_mean_laws(p, action, tol, H, seed, 32)
    x = as_point(x)
    x0 = p.eval([action.act(g, x) for g in H.members])
    require("orbit average fixed-point",
            law_report("fixed-point", [(fixed_defect(action, H.members, x0), (x0,))], tol))
    return x0


# ---------------------------------------------------------------------------
# witness search for far-from-every-argument outputs


@dataclass
class SolomonicSearch:
    target: float
    witness: Optional[tuple]
    best_margin: float
    evaluations: int

    @property
    def found(self) -> bool:
        return self.witness is not None

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "found": self.found,
            "witness": None if self.witness is None else [list(p) for p in self.witness],
            "best_margin": self.best_margin,
            "evaluations": self.evaluations,
        }


def solomonic_witness_search(p: QuasiMeanMap, K: float, budget: int = 20000,
                             seed_or_rng=3) -> SolomonicSearch:
    """Search for a tuple whose aggregate lands more than K away from
    every argument (random restarts plus hill climbing on the minimum
    distance); reports the best margin when none is found."""
    if K <= 0:
        raise ValueError("K must be positive")
    rng = as_rng(seed_or_rng)
    extent = p.space.extent()

    def margin(tup) -> float:
        out = p.eval(list(tup))
        return min(p.space.d(x, out) for x in tup)

    best_tup, best_val, evals = None, -math.inf, 0
    while evals < budget:
        start = tuple(p.space.sample(rng, p.arity))
        tup, val, used = _climb(p.space, margin, start, rng, 0.25 * extent,
                                 budget - evals - 1, 1e-12 * extent)
        evals += used
        if val > best_val:
            best_val, best_tup = val, tup
        if best_val > K:
            return SolomonicSearch(K, best_tup, best_val, evals)
    return SolomonicSearch(K, None, best_val, evals)


# ---------------------------------------------------------------------------
# built-in registry


def arithmetic_mean(space: MetricSpace, arity: int = 2) -> QuasiMeanMap:
    _require_convex(space, "arithmetic mean")

    def func(points):
        # start at -0.0, as batch does in effect: 0 + -0.0 would drop the sign
        return tuple(sum(col, -0.0) / arity for col in zip(*points))

    def batch(arrays):
        total = arrays[0]
        for arr in arrays[1:]:
            total = total + arr
        return total / arity

    return QuasiMeanMap(arity, space, func, f"arithmetic:{arity}", batch=batch,
                        symmetric=arity == 2)


def geometric_mean(space: Interval) -> QuasiMeanMap:
    if not isinstance(space, Interval) or space.a <= 0:
        raise ValueError("geometric mean needs an interval with a > 0")

    def func(points):
        (x,), (y,) = points
        return (math.sqrt(x * y),)

    def batch(arrays):
        import numpy as np

        return np.sqrt(arrays[0] * arrays[1])

    return QuasiMeanMap(2, space, func, "geometric", batch=batch, symmetric=True)


def dictator_mean(space: MetricSpace, index: int = 0, arity: int = 2) -> QuasiMeanMap:
    if not 0 <= index < arity:
        raise ValueError("dictator index out of range")

    def func(points):
        return points[index]

    def batch(arrays):
        return arrays[index]

    return QuasiMeanMap(arity, space, func, f"dictator:{index}", batch=batch)


def constant_mean(space: MetricSpace, point, arity: int = 2) -> QuasiMeanMap:
    pt = as_point(point)
    space.require_member(pt)

    def func(points):
        return pt

    def batch(arrays):
        import numpy as np

        return np.broadcast_to(np.asarray(pt), arrays[0].shape).copy()

    label = "constant:" + ",".join(repr(c) for c in pt)
    return QuasiMeanMap(arity, space, func, label, batch=batch, symmetric=arity == 2)


def min_plus_halfsquare_mean(space: Interval) -> QuasiMeanMap:
    """min{x, y} + |x - y|^2 / 2: strictly between its arguments yet not
    contractive for any constant below 1."""
    if not isinstance(space, Interval) or space.b - space.a > 2.0:
        raise ValueError("minsq mean needs an interval of length <= 2")

    def func(points):
        (x,), (y,) = points
        return (min(x, y) + (x - y) * (x - y) * 0.5,)

    def batch(arrays):
        import numpy as np

        X, Y = arrays[0], arrays[1]
        # the operations of func, two temporaries in place of five
        half_square = np.subtract(X, Y)
        half_square *= half_square
        half_square *= 0.5
        return np.add(np.minimum(X, Y), half_square, out=half_square)

    return QuasiMeanMap(2, space, func, "minsq", batch=batch, symmetric=True)


def _require_convex(space: MetricSpace, what: str) -> None:
    if not is_convex(space):
        raise ValueError(f"{what} is not closed on a {space.kind} space")


def mean_from_name(name: str, space: MetricSpace) -> QuasiMeanMap:
    """Resolve registry names: arithmetic:n, geometric, dictator:i,
    constant:c0[,c1...], minsq."""
    head, _, tail = name.partition(":")
    if head == "arithmetic":
        return arithmetic_mean(space, int(tail) if tail else 2)
    if head == "geometric":
        return geometric_mean(space)
    if head == "dictator":
        return dictator_mean(space, int(tail) if tail else 0)
    if head == "constant":
        if not tail:
            raise ValueError("constant mean needs coordinates, e.g. constant:0.5")
        return constant_mean(space, [float(v) for v in tail.split(",")])
    if head == "minsq":
        return min_plus_halfsquare_mean(space)
    raise ValueError(f"unknown mean name {name!r}")
