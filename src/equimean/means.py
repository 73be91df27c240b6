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
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from .errors import CapacityError, HypothesisError, SamplingError
from .rng import Xoshiro256StarStar, as_rng, doubles, lane_draws, substream_lanes
from .spaces import (Interval, MetricSpace, Point, as_point, coordinate_bounds, diameter,
                     is_convex, worst)

if TYPE_CHECKING:
    from .groups import GroupAction, Subgroup

DEFAULT_TOL = 1e-9
EXCLUDED_DIAMETER = 1e-6
# the work a run may plan before its first draw: the ordered pairs of a dense
# lambda grid (step 1e-4 on [0, 1] is about 10^8), or the mean evaluations of
# check_laws, random+hill or the solomonic search. The cap keeps a run to seconds
WORK_CAP = 10**9
# planned check_laws evaluations from which a map with a batch form is
# scored on arrays (``_law_arrays``). Below it the scalar loop, at 2-4 us an
# evaluation, costs less than numpy's import and the first jump table
# (about 0.1 s)
LAW_BLOCK_EVALS = 1 << 15
# the planned evaluations (the solomonic budget, or restarts x (HILL_STEPS + 1)
# of random+hill) from which, on a space with coordinate bounds, blocks of
# restarts climb in lockstep on arrays. Fresh processes break even near it,
# for arithmetic:3 on a 2-D box (2-vCPU VM): the solomonic search took 0.26 s
# either way at 6,000 (median of 15), the scalar loop 0.18 s against 0.25 s at
# 3,000 and 0.40 s against 0.32 s at 8,000; random+hill's scalar loop took
# 0.25 s against 0.27 s at 3,050 and 0.34 s against 0.25 s at 6,100 (median
# of 9). Below it numpy's import costs more than it saves
SEARCH_BLOCK_BUDGET = 6000
# the seed of the points on which quasi_mean checks a new map's unanimity
UNANIMITY_SEED = 7
# perturbations per random+hill restart
HILL_STEPS = 60
# floats one numpy block holds: a check_laws block (``_law_arrays``) as many
# samples as fit with their rows, a lockstep block of a restart search
# (random+hill or solomonic) as many restarts as fit, each at least one; a
# restart counts the coordinates of its tuple, or of its tuple's point pairs
# from arity 4 on, which outnumber them and size a diameter's arrays
BLOCK_FLOATS = 1 << 17


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

    ``ratio_bound`` (optional, symmetric maps on an interval) bounds the
    ratio fl(max(P - x, y - P) / (y - x)), P = ``eval([x, y])``, that the
    grid scan computes: ``ratio_bound(xl, xh, yl, yh, gap)`` takes floats,
    the corners of a tile [xl, xh] x [yl, yh] and a gap > 0, and bounds
    that ratio at every float x in [xl, xh] and y in [yl, yh] with fl(y -
    x) >= gap. The tile may straddle the diagonal; gap keeps x < y. NaN
    bounds nothing; ``_kernels`` derives the built-ins'. A tracer may
    replace ``eval`` and ``batch`` on an instance.
    """

    def __init__(self, arity: int, space: MetricSpace, eval: Callable, label: str,
                 batch: Optional[Callable] = None, symmetric: bool = False,
                 ratio_bound: Optional[Callable] = None):
        self.arity, self.space, self.eval, self.label = arity, space, eval, label
        self.batch, self.symmetric, self.ratio_bound = batch, symmetric, ratio_bound

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
    """Wrap a point map; raises HypothesisError when it fails unanimity on
    8 points drawn from UNANIMITY_SEED."""
    if arity < 2:
        raise ValueError("arity must be >= 2")
    p = QuasiMeanMap(arity, space, func, label, batch=batch, symmetric=symmetric)
    require(f"{label} unanimity", check_unanimity(p, space.sample(UNANIMITY_SEED, 8)))
    return p


# ---------------------------------------------------------------------------
# law reports


class LawReport(NamedTuple):
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
        fields = self._asdict()
        del fields["strict"]
        witness = None if self.witness is None else [list(p) for p in self.witness]
        return {**fields, "witness": witness, "passed": self.passed}


def sample_tuples(space: MetricSpace, arity: int, seed_or_rng, count: int) -> list[tuple]:
    rng = as_rng(seed_or_rng)
    return [tuple(space.sample(rng, arity)) for _ in range(count)]


def law_report(law: str, scored, tol: float) -> LawReport:
    """The report on a law's (defect, witness) pairs, scored by
    ``spaces.worst``: their count, the worst defect and, when the law
    fails, its witness. A NaN defect wins, so the law fails there."""
    return _report(law, *worst(scored), tol)


def _report(law: str, top: float, witness, checked: int, tol: float,
            strict: bool = False) -> LawReport:
    """The report on a law whose worst defect, its witness and the count of
    scored defects are given. A strict law reports the worst defect as it
    is; any other law floors it at 0.0."""
    report = LawReport(law, checked, top if strict else max(top, 0.0), tol, strict=strict)
    return report if report.passed else report._replace(witness=witness)


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
    _require_same_space(p, action)
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


def _require_same_space(p: QuasiMeanMap, action: GroupAction) -> None:
    if action.space is not p.space and action.space.to_json() != p.space.to_json():
        raise ValueError("action and mean must live on the same space")


def check_strict_betweenness(p: QuasiMeanMap, tuples: Sequence[tuple]) -> LawReport:
    """Checks max_i d(x_i, p(x)) < diameter on every positive-diameter
    sample; the report's violation is the worst signed margin, and the
    law passes when it is below 0. Raises SamplingError when no sample has
    a positive diameter."""

    def scored():
        for tup in tuples:
            diam = diameter(p.space, tup)
            if diam <= 0.0:
                continue
            out = p.eval(list(tup))
            yield max(p.space.d(x, out) for x in tup) - diam, tup

    return _betweenness_report(*worst(scored()))


def _betweenness_report(top: float, witness, checked: int) -> LawReport:
    if checked == 0:
        raise SamplingError("strict betweenness scored no sample: every sampled tuple "
                            "has diameter 0")
    return _report("strict-betweenness", top, witness, checked, 0.0, strict=True)


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
                      subgroup: Optional[Subgroup], seed: int, samples: int) -> None:
    """Sample-check through ``check_laws`` that p is anonymous, then that it
    is equivariant under the subgroup (the whole group when None), each on
    the ``samples`` tuples drawn from ``seed``; raises HypothesisError
    naming the first failed law, its defect and witness. The planned
    evaluations of both (``law_evals``) are checked against WORK_CAP before
    the first draw."""
    planned = law_evals(p, ["M2", "equivariance"], samples, action, subgroup)
    require_work(f"the law gate of {p.label} (M2, equivariance on {samples} samples)", planned)
    for law, what in (("M2", "anonymity"), ("equivariance", "equivariance")):
        require(what, check_laws(p, [law], seed, samples, tol, action, subgroup)[law])


# ---------------------------------------------------------------------------
# the law checks of a verify-mean run


def law_evals(p: QuasiMeanMap, laws: Sequence[str], count: int,
              action: Optional[GroupAction] = None, subgroup: Optional[Subgroup] = None) -> int:
    """The mean evaluations that ``check_laws`` plans for ``laws`` on
    ``count`` samples: one a sample for M1, the order of the subgroup (the
    action's whole group when None) for equivariance, for M2 the
    permutations a sample checks (n! for arity n <= 5, else n^2) times the
    arity n, which each permuted evaluation reads, and for strict
    betweenness one plus the n(n-1)/2 pair distances of the sample's
    diameter, each counted as an evaluation."""
    n = p.arity
    group = subgroup if subgroup is not None else action.group if action is not None else None
    per_sample = {
        "M1": 1,
        "M2": (math.factorial(n) if n <= 5 else n * n) * n,
        "equivariance": group.order if group is not None else 0,
        "strict-betweenness": 1 + n * (n - 1) // 2,
    }
    return count * sum(per_sample[law] for law in laws)


def require_work(what: str, planned: int) -> None:
    """Raises CapacityError naming ``what`` when its planned work exceeds
    WORK_CAP."""
    if planned > WORK_CAP:
        raise CapacityError(f"{what} plans {planned} mean evaluations, over the cap {WORK_CAP}")


def check_laws(p: QuasiMeanMap, laws: Sequence[str], seed: int, count: int,
               tol: float = DEFAULT_TOL, action: Optional[GroupAction] = None,
               subgroup: Optional[Subgroup] = None) -> dict:
    """The reports of a verify-mean run or a law gate, by law in the order
    of ``laws`` (M1, M2, equivariance under ``action``'s ``subgroup`` or
    whole group, strict-betweenness), on ``count`` samples: M1 on
    ``space.sample(seed, count)``, the other laws on ``sample_tuples(space,
    arity, seed, count)``, and M2's transpositions from another generator
    seeded with ``seed``.

    Its planned evaluations (``law_evals``) are checked against WORK_CAP
    before the first draw. From LAW_BLOCK_EVALS on, a map with a batch form
    is scored on arrays, a block of samples at a time; the reports equal the
    scalar ``check_*`` loop's, which runs below it and loads no numpy."""
    if "equivariance" in laws and action is None:
        raise ValueError("the equivariance law needs a group action")
    planned = law_evals(p, laws, count, action, subgroup)
    require_work(f"verify-mean of {p.label} ({', '.join(laws)} on {count} samples)", planned)
    if p.batch is not None and planned >= LAW_BLOCK_EVALS:
        from . import _law_arrays

        return _law_arrays.check_laws_array(p, laws, seed, count, tol, action, subgroup)
    return _check_laws_scalar(p, laws, seed, count, tol, action, subgroup)


def _check_laws_scalar(p: QuasiMeanMap, laws: Sequence[str], seed: int, count: int, tol: float,
                       action: Optional[GroupAction], subgroup: Optional[Subgroup] = None) -> dict:
    # every law but M1 checks the same tuples
    tuples = sample_tuples(p.space, p.arity, seed, count) if set(laws) - {"M1"} else []
    checks = {
        "M1": lambda: check_unanimity(p, p.space.sample(seed, count), tol),
        "M2": lambda: check_anonymity(p, tuples, tol, seed),
        "equivariance": lambda: check_equivariance(p, action, tuples, tol, subgroup),
        "strict-betweenness": lambda: check_strict_betweenness(p, tuples),
    }
    return {law: checks[law]() for law in laws}


def _distances(space: MetricSpace, A, B):
    """``d_batch`` over the leading axes of two arrays of points."""
    dim = A.shape[-1]
    return space.d_batch(A.reshape(-1, dim), B.reshape(-1, dim)).reshape(A.shape[:-1])


def _diameters(space: MetricSpace, tups):
    """``diameter`` of each tuple of an (m, n, dim) array: the max of its
    pair distances from 0.0, which skips a NaN distance."""
    import numpy as np

    left, right = np.triu_indices(tups.shape[1], 1)
    return np.fmax.reduce(_distances(space, tups[:, left], tups[:, right]), axis=1, initial=0.0)


def _farthest(space: MetricSpace, tups, out):
    """max_i d(x_i, out) for each tuple of an (m, n, dim) array and its
    point ``out``, as Python's max takes it: NaN when the first distance
    is, else the largest."""
    import numpy as np

    return _first_nan_or(np.fmax, space, tups, out)


def _nearest(space: MetricSpace, tups, out):
    """min_i d(x_i, out) for each tuple of an (m, n, dim) array and its
    point ``out``, as Python's min takes it: NaN when the first distance
    is, else the smallest."""
    import numpy as np

    return _first_nan_or(np.fmin, space, tups, out)


def _first_nan_or(reduce, space: MetricSpace, tups, out):
    """The distances from each tuple's points to its ``out``, reduced by
    the NaN-skipping ``reduce`` unless the first of them is NaN: Python's
    max and min keep a first NaN and skip any later one."""
    import numpy as np

    dist = _distances(space, tups, np.broadcast_to(out[:, None], tups.shape))
    return np.where(np.isnan(dist[:, 0]), dist[:, 0], reduce.reduce(dist, axis=1))


# ---------------------------------------------------------------------------
# contractivity constant estimation


def _but_route(record):
    """A record's class and its fields but the last, ``route``, which is
    logged, never reported and never compared; any other value as it is."""
    return (type(record), record[:-1]) if isinstance(record, tuple) else record


class LambdaEstimate(NamedTuple):
    lambda_hat: float
    argmax_tuple: tuple
    samples: int
    excluded_diagonal_radius: float
    method: str = "grid"
    # the lane and restarts random+hill took, or the pairs a grid scan
    # scored and skipped; logged, never reported
    route: str = ""

    __eq__ = lambda self, other: _but_route(self) == _but_route(other)
    __ne__ = lambda self, other: _but_route(self) != _but_route(other)
    __hash__ = lambda self: hash(_but_route(self))

    def to_json(self) -> dict:
        fields = self._asdict()
        del fields["route"]
        return {**fields, "argmax_tuple": [list(p) for p in self.argmax_tuple]}

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


class LambdaConfig(NamedTuple):
    grid_step: float = 1e-3
    excluded_diameter: float = EXCLUDED_DIAMETER
    restarts: int = 100
    seed: int = 1


def estimate_lambda(p: QuasiMeanMap, cfg: LambdaConfig = LambdaConfig()) -> LambdaEstimate:
    """Estimate the contractivity constant by ratio maximization.

    Binary means on an interval are scanned over the dense step grid,
    which ends on the interval's end b even when the step does not divide
    its length; every other map uses seeded random tuples with hill
    climbing.
    Tuples with diameter at or below the excluded radius are skipped.
    """
    if p.arity == 2 and isinstance(p.space, Interval):
        return _estimate_grid(p, cfg)
    return _estimate_random(p, cfg)


def _grid_points(a: float, b: float, step: float) -> int:
    """Number of grid points a + k*step on [a, b], plus b itself when the
    last of them falls short of b by more than rounding; raises
    CapacityError when their ordered pairs exceed WORK_CAP."""
    span = (b - a) / step + 1e-9
    m = int(math.floor(span)) + 1 if math.isfinite(span) else math.inf
    # else a step of 10^9 (b - a) or more would leave the one point a
    if m < math.inf and (m == 1 or b - (a + (m - 1) * step) > 1e-9 * step):
        m += 1
    if m * (m - 1) > WORK_CAP:
        raise CapacityError(
            f"grid step {step!r} on [{a!r}, {b!r}] gives {_count(m)} points, whose "
            f"{_count(m * (m - 1))} ordered pairs exceed the cap {WORK_CAP}"
        )
    return m


def _count(n) -> str:
    """A count as a message states it: in full up to 10^15, beyond that to
    three digits (a tiny grid step makes counts of hundreds of digits, and
    pair counts past a float's range)."""
    if n == math.inf or n <= 10**15:
        return str(n)
    from decimal import Decimal

    return f"{Decimal(n):.3g}"


def _estimate_grid(p: QuasiMeanMap, cfg: LambdaConfig) -> LambdaEstimate:
    from . import _kernels

    a = p.space.a
    m = _grid_points(a, p.space.b, cfg.grid_step)
    scan = _kernels.grid_scan_interval(p, a, cfg.grid_step, m, cfg.excluded_diameter)
    lam, x, y, count = scan
    if count == 0:
        raise SamplingError("every grid tuple fell inside the excluded diagonal radius")
    return LambdaEstimate(lam, ((x,), (y,)), count, cfg.excluded_diameter, route=scan.route)


def _start_tuple(p: QuasiMeanMap, rng, above: Optional[float]) -> tuple:
    """A tuple sampled from ``rng``; with ``above`` set, the first of up to
    1000 whose diameter exceeds it."""
    for _ in range(1000):
        tup = tuple(p.space.sample(rng, p.arity))
        if above is None or diameter(p.space, tup) > above:
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
    """Random+hill: restarts (``_search``) that each draw a start tuple
    above the excluded radius and climb the ratio HILL_STEPS steps; the
    first maximum in restart order wins. The planned evaluations, restarts
    x (HILL_STEPS + 1), are checked against WORK_CAP before the first draw."""
    restarts = max(1, cfg.restarts)
    # _climb with no scale floor evaluates every start and step
    samples = restarts * (HILL_STEPS + 1)
    require_work(f"random+hill estimate of {p.label} ({restarts} restarts)", samples)
    excluded = cfg.excluded_diameter

    def ratio(tup):
        diam = diameter(p.space, tup)
        return _ratio(p, tup, diam) if diam > 0.0 and diam > excluded else -math.inf

    def ratios(tups):
        # -inf at or below the excluded radius, where p is not evaluated
        import numpy as np

        diam = _diameters(p.space, tups)
        keep = (diam > 0.0) & (diam > excluded)
        val = np.full(len(tups), -np.inf)
        if keep.any():
            x = tups[keep]
            out = p.apply([x[:, i] for i in range(p.arity)])
            val[keep] = _farthest(p.space, x, out) / diam[keep]
        return val

    tup, val, _, route = _search(p, as_rng(cfg.seed), samples, excluded, ratio, ratios,
                                 steps=HILL_STEPS)
    if tup is None:
        raise SamplingError("no usable tuple found during random lambda estimation")
    return LambdaEstimate(val, tup, samples, excluded, method="random+hill", route=route)


# ---------------------------------------------------------------------------
# restart searches: random+hill and the solomonic search


def _search(p: QuasiMeanMap, rng, budget: int, above: Optional[float], objective: Callable,
            values: Callable, steps: Optional[int] = None, floor: float = 0.0,
            stop: float = math.inf) -> tuple:
    """Hill-climbing restarts that spend ``budget`` evaluations of
    ``objective``, or end at the first restart whose value exceeds ``stop``.

    Restart k draws its start tuple (``_start_tuple`` with ``above``) and
    its steps from its own substream, Xoshiro256StarStar(seed_k), where
    seed_k is the k-th ``next_u64`` of ``rng``, and climbs (``_climb``) from
    a scale of 0.25 x extent down to ``floor``, for at most ``steps`` steps
    (None: as many as the budget leaves). From SEARCH_BLOCK_BUDGET on a
    space with coordinate bounds, blocks of restarts climb in lockstep
    (``_lockstep_climbs``) on ``values``, the objective on an (m, n, dim)
    array of tuples; the result and ``rng``'s final state equal the scalar
    loop's bit for bit. Returns the first maximum's tuple (None when no
    value exceeded -inf) and value, the evaluations spent and the route:
    the lane, restarts and blocks the search took."""
    scale = 0.25 * p.space.extent()
    steps = budget if steps is None else steps

    def climb(seed: int, cap: int) -> tuple:
        sub = Xoshiro256StarStar(seed)
        return _climb(p.space, objective, _start_tuple(p, sub, above), sub, scale, cap, floor)

    bounds = coordinate_bounds(p.space)
    lockstep = bounds is not None and budget >= SEARCH_BLOCK_BUDGET
    best_tup, best_val, evals, restarts, blocks = None, -math.inf, 0, 0, 0
    while evals < budget and best_val <= stop:
        blocks += 1
        left = budget - evals
        climbs = (_lockstep_climbs(p, bounds, rng, left, scale, steps, floor, above, values,
                                   climb)
                  if lockstep else [climb(rng.next_u64(), min(steps, left - 1))])
        for tup, val, used in climbs:
            restarts += 1
            evals += used
            if val > best_val:
                best_val, best_tup = val, tup
            if best_val > stop:
                break
    route = (f"lockstep substreams, {restarts} restarts in {blocks} "
             f"block{'' if blocks == 1 else 's'}" if lockstep
             else f"scalar substreams, {restarts} restarts")
    return best_tup, best_val, evals, route


def _fewest_climb_evals(scale: float, floor: float, limit: int) -> int:
    """The fewest evaluations after which ``_climb`` from ``scale`` stops
    at ``floor``: its start and one failed step per shrink by 0.7 until the
    scale is below the floor; ``limit`` when that takes more. An inf scale
    or a floor of 0 never stops; from a finite scale a positive floor is
    passed within about 2,100 shrinks, where the scale reaches 0."""
    if not (math.isfinite(scale) and floor > 0.0):
        return limit
    evals = 1
    while evals < limit:
        evals += 1
        scale *= 0.7
        if scale < floor:
            break
    return evals


def _lockstep_climbs(p: QuasiMeanMap, bounds: tuple, rng, remaining: int, scale: float,
                     steps: int, floor: float, above: Optional[float], values: Callable,
                     climb: Callable):
    """The search's next restarts as its scalar loop climbs them, as
    (tuple, value, evaluations) in restart order, up to ``remaining``
    evaluations; each restart draws its seed from ``rng`` as it is yielded.

    One block of restarts climbs in lockstep (``_climb_lanes``) on seeds
    read ahead of ``rng``: enough restarts to spend ``remaining`` if each
    stopped as early as a climb can, and at most BLOCK_FLOATS coordinates of
    their tuples, or of their tuples' point pairs where there are more.
    Restart k is capped at ``steps`` and at what k climbs as short as
    possible leave. A restart whose start tuple ``_start_tuple`` would draw
    again, and the first restart that crosses ``remaining``, climb again
    through ``climb``, the scalar loop, on their own seeds."""
    import numpy as np

    n = p.arity
    fewest = _fewest_climb_evals(scale, floor, min(remaining, steps + 1))
    floats = max(n, n * (n - 1) // 2) * p.space.dim
    count = min(-(-remaining // fewest), max(1, BLOCK_FLOATS // floats))
    ahead = Xoshiro256StarStar(0)
    ahead.setstate(rng.getstate())
    seeds = [ahead.next_u64() for _ in range(count)]
    caps = np.minimum(steps, remaining - 1 - fewest * np.arange(count))
    tups, vals, used, redo = _climb_lanes(p, bounds, seeds, caps, scale, floor, above, values)
    spent = 0
    for k in range(count):
        left = remaining - spent
        if left <= 0:
            return
        seed = rng.next_u64()
        if redo[k] or used[k] > left:
            found = climb(seed, min(steps, left - 1))
        else:
            found = tuple(map(tuple, tups[k].tolist())), float(vals[k]), int(used[k])
        spent += found[2]
        yield found


def _climb_lanes(p: QuasiMeanMap, bounds: tuple, seeds: list, caps, scale: float,
                 floor: float, above: Optional[float], values: Callable) -> tuple:
    """``_climb`` of each seed's restart, all in lockstep on arrays:
    restart k samples its start tuple from Xoshiro256StarStar(seeds[k]),
    draws its steps from the same substream and stops at the scale
    ``floor`` or after caps[k] steps. Each operation is the scalar loop's
    (``sample``, ``_perturb_tuple``, ``project``, ``_climb``) on arrays,
    and ``values`` is the objective on an (m, n, dim) array of tuples.
    Returns the final tuples, shaped (restart, point, coordinate), their
    values, each restart's evaluations and whether its start tuple's
    diameter is at or below ``above``, where ``_start_tuple`` draws again."""
    import numpy as np

    lo, hi = (np.array(b) for b in bounds)
    n, dim, count = p.arity, len(lo), len(seeds)

    def draws(states):
        return doubles(lane_draws(states, n * dim)).reshape(-1, n, dim)

    final = np.empty((count, n, dim))
    final_vals = np.empty(count)
    used = np.empty(count, dtype=np.int64)
    live = np.arange(count)
    states = substream_lanes(seeds)
    with np.errstate(all="ignore"):
        tups = lo + (hi - lo) * draws(states)
        redo = np.zeros(count, dtype=bool)
        if above is not None:
            redo = ~(_diameters(p.space, tups) > above)
        vals = values(tups)
        scales = np.full(count, scale)
        steps = 0
        stop = caps <= 0
        while True:
            if stop.any():
                final[live[stop]], final_vals[live[stop]] = tups[stop], vals[stop]
                used[live[stop]] = steps + 1
                go = ~stop
                live, tups, vals, scales, caps = live[go], tups[go], vals[go], scales[go], caps[go]
                states = states[:, go]
                if not live.size:
                    return final, final_vals, used, redo
            cand = _perturbed(tups, scales[:, None, None], draws(states), lo, hi)
            cvals = values(cand)
            better = cvals > vals
            tups = np.where(better[:, None, None], cand, tups)
            vals = np.where(better, cvals, vals)
            scales = np.where(better, scales, scales * 0.7)
            steps += 1
            stop = (scales < floor) | (caps <= steps)


def _perturbed(tups, scales, r, lo, hi):
    """``_perturb_tuple`` on arrays: each coordinate c of ``tups`` moves to
    c + uniform(-scale, scale) on its double in ``r``, then ``project``
    clips it as min(max(c, lo), hi), keeping max's and min's picks on ties
    and signed zeros."""
    import numpy as np

    cand = tups + (-scales + (scales - -scales) * r)
    cand = np.where(lo > cand, lo, cand)
    return np.where(hi < cand, hi, cand)


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
                        subgroup: Optional[Subgroup] = None) -> Point:
    """Aggregate the H-orbit images p(g_1 x, ..., g_n x); for an
    anonymous equivariant p the result is H-fixed, which is verified."""
    from .groups import fixed_defect, full_subgroup

    H = subgroup if subgroup is not None else full_subgroup(action.group)
    if p.arity != H.order:
        raise ValueError(f"mean arity {p.arity} != subgroup order {H.order}")
    x = as_point(x)
    x0 = p.eval([action.act(g, x) for g in H.members])
    require("orbit average fixed-point",
            law_report("fixed-point", [(fixed_defect(action, H.members, x0), (x0,))], tol))
    return x0


# ---------------------------------------------------------------------------
# witness search for far-from-every-argument outputs


class SolomonicSearch(NamedTuple):
    target: float
    witness: Optional[tuple]
    best_margin: float
    evaluations: int
    # the lane, restarts and blocks the search took; logged, never reported
    route: str = ""

    __eq__ = lambda self, other: _but_route(self) == _but_route(other)
    __ne__ = lambda self, other: _but_route(self) != _but_route(other)
    __hash__ = lambda self: hash(_but_route(self))

    @property
    def found(self) -> bool:
        return self.witness is not None

    def to_json(self) -> dict:
        fields = self._asdict()
        del fields["route"]
        witness = None if self.witness is None else [list(p) for p in self.witness]
        return {**fields, "found": self.found, "witness": witness}


def solomonic_witness_search(p: QuasiMeanMap, K: float, budget: int = 20000,
                             seed_or_rng=3) -> SolomonicSearch:
    """Search for a tuple whose aggregate lands more than K away from
    every argument; reports the best margin when none is found.

    Restarts (``_search``) hill-climb the minimum distance from a scale of
    0.25 x extent down to a floor of 1e-12 x extent, each capped at the
    evaluations the budget has left, and the first restart whose margin
    exceeds K ends the search. Restart k climbs on its own substream,
    Xoshiro256StarStar(seed_k), where seed_k is the k-th ``next_u64`` of
    the generator from ``seed_or_rng``. The budget is checked against
    WORK_CAP before the first draw, and SamplingError is raised when no
    margin was a number."""
    if not K > 0:
        raise ValueError("K must be positive")
    require_work(f"solomonic-search of {p.label} (its budget)", budget)

    def margin(tup) -> float:
        out = p.eval(list(tup))
        return min(p.space.d(x, out) for x in tup)

    def margins(tups):
        return _nearest(p.space, tups, p.apply([tups[:, i] for i in range(p.arity)]))

    tup, val, evals, route = _search(p, as_rng(seed_or_rng), budget, None, margin, margins,
                                     floor=1e-12 * p.space.extent(), stop=K)
    if tup is None:
        raise SamplingError("no usable tuple found during the solomonic search: "
                            "every margin was NaN")
    return SolomonicSearch(K, tup if val > K else None, val, evals,
                           f"{route}, {evals} evaluations")


# ---------------------------------------------------------------------------
# built-in registry


def _ratio_bound(ratio: Callable, error: Callable) -> Callable:
    """(r + E / gap) (1 + 8u), r = ``ratio(xl, xh, yl, yh, gap)``, E = ``error(xl, xh, yl, yh)``."""
    return lambda xl, xh, yl, yh, gap: ((ratio(xl, xh, yl, yh, gap)
                                         + error(xl, xh, yl, yh) / gap) * (1 + 2.0**-50))


def arithmetic_mean(space: MetricSpace, arity: int = 2) -> QuasiMeanMap:
    _require_convex(space, "arithmetic mean")
    # a sum of arity coordinates of at most 2^top each in absolute value stays
    # below 2^1024 after each rounding: arity < 2^bit_length
    top = 1024 - arity.bit_length()
    lo, hi = coordinate_bounds(space)
    widest = max(map(abs, lo + hi))
    if widest > 2.0**top:
        raise ValueError(f"arithmetic:{arity} mean needs coordinates of absolute value "
                         f"<= 2^{top}, got {widest!r}")

    def func(points):
        # start at -0.0, as batch does in effect: 0 + -0.0 would drop the sign
        return tuple(sum(col, -0.0) / arity for col in zip(*points))

    def batch(arrays):
        total = arrays[0]
        for arr in arrays[1:]:
            total = total + arr
        return total / arity

    # ratio 1/2; fl(x + y) / 2 errs by u |x + y| / 2 (u = 2^-53 = 1.11e-16) + 2^-1075
    bound = _ratio_bound(lambda *tile: 0.5,
                         lambda xl, xh, yl, yh: 5.6e-17 * max(abs(xl + yl), abs(xh + yh)) + 5e-324)
    return QuasiMeanMap(arity, space, func, f"arithmetic:{arity}", batch=batch,
                        symmetric=arity == 2, ratio_bound=bound if arity == 2 else None)


def geometric_mean(space: Interval) -> QuasiMeanMap:
    if not isinstance(space, Interval) or space.a <= 0:
        raise ValueError("geometric mean needs an interval with a > 0")
    if space.b > 2.0**511:  # where x * y can overflow
        raise ValueError(f"geometric mean needs b <= 2^511, got b = {space.b!r}")

    def func(points):
        (x,), (y,) = points
        return (math.sqrt(x * y),)

    def batch(arrays):
        import numpy as np

        return np.sqrt(arrays[0] * arrays[1])

    # ratio 1 / (1 + sqrt(x / y)), largest at (xl, yh); batch errs by 1.5u sqrt(xy) + 2^-537.5
    bound = _ratio_bound(lambda xl, xh, yl, yh, gap: 1 / (1 + math.sqrt(xl / yh)),
                         lambda xl, xh, yl, yh: 1.67e-16 * math.sqrt(xh * yh) + 2.0**-537)
    return QuasiMeanMap(2, space, func, "geometric", batch=batch, symmetric=True, ratio_bound=bound)


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

    bound = lambda xl, xh, yl, yh, gap: max(pt[0] - xl, yh - pt[0]) / gap  # monotone
    label = "constant:" + ",".join(repr(c) for c in pt)
    return QuasiMeanMap(arity, space, func, label, batch=batch, symmetric=arity == 2,
                        ratio_bound=bound if arity == 2 else None)


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

    # g = y - x >= gap, ratio max(g / 2, 1 - g / 2); batch errs by u |p| + 1.5u g^2 +
    # 2^-1074, where |p| <= max(|xl|, |yh|) + g^2 / 2
    bound = _ratio_bound(lambda xl, xh, yl, yh, gap: max((yh - xl) / 2, 1 - gap / 2),
                         lambda xl, xh, yl, yh: 1.12e-16 * (max(abs(xl), abs(yh))
                                                            + 2 * (yh - xl) * (yh - xl))
                         + 2.0**-1073)
    return QuasiMeanMap(2, space, func, "minsq", batch=batch, symmetric=True, ratio_bound=bound)


def _require_convex(space: MetricSpace, what: str) -> None:
    if not is_convex(space):
        raise ValueError(f"{what} is not closed on a {space.kind} space")


MEAN_NAMES = ("arithmetic[:n] with an integer n >= 2, geometric, dictator[:i] with i 0 or 1, "
              "constant:c0[,c1,...] or minsq")


def mean_from_name(name: str, space: MetricSpace) -> QuasiMeanMap:
    """The mean a registry name gives, one of MEAN_NAMES: arithmetic has
    arity 2 and dictator index 0 when the name omits them. Any other name
    raises ValueError naming it and MEAN_NAMES."""
    head, colon, tail = name.partition(":")
    if not colon and head in ("geometric", "minsq"):
        return geometric_mean(space) if head == "geometric" else min_plus_halfsquare_mean(space)
    if head == "constant":
        try:
            coords = [float(v) for v in tail.split(",")]
        except ValueError:  # no coordinates, or one that is no float
            coords = None
        if coords is not None:
            return constant_mean(space, coords)
    if head in ("arithmetic", "dictator"):
        if not colon:
            return arithmetic_mean(space, 2) if head == "arithmetic" else dictator_mean(space, 0)
        if tail.isascii() and tail.isdigit():
            number = int(tail)
            if head == "arithmetic" and number >= 2:
                return arithmetic_mean(space, number)
            if head == "dictator" and number < 2:
                return dictator_mean(space, number)
    raise ValueError(f"unknown mean name {name!r}; the names are {MEAN_NAMES}")
