"""Law checks of quasi-mean maps, and the gates built on them.

The checkers measure, on sampled inputs, how far a candidate map is from
unanimity (M1), anonymity (M2, permutation invariance), equivariance under
a group action, strict betweenness (output strictly closer to every
argument than the tuple diameter) and a declared contractivity constant.
``law_report`` builds every report, ``require`` is the one gate and its
message, ``require_mean_laws`` gates a construction on a map's laws, and
``require_work`` holds a run's planned evaluations to ``means.WORK_CAP``.
``check_laws`` runs the laws of a verify-mean run, from LAW_BLOCK_EVALS on
through the array lane of ``_law_arrays``, and the array helpers here
(``_diameters``, ``_farthest``, ``_nearest``) serve that lane and the
searches' lockstep. ``quasi_mean`` wraps a point map once it passes
unanimity, and ``orbit_average_point`` aggregates an orbit into a fixed
point.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from .errors import CapacityError, HypothesisError, SamplingError
from .means import WORK_CAP, QuasiMeanMap
from .rng import Xoshiro256StarStar, as_rng
from .spaces import MetricSpace, Point, as_point, diameter, worst

if TYPE_CHECKING:
    from .groups import GroupAction, Subgroup

DEFAULT_TOL = 1e-9
# planned check_laws evaluations from which a map with a batch form is
# scored on arrays (``_law_arrays``). Below it the scalar loop, at 2-4 us an
# evaluation, costs less than numpy's import and the first jump table
# (about 0.1 s)
LAW_BLOCK_EVALS = 1 << 15
# the seed of the points on which quasi_mean checks a new map's unanimity
UNANIMITY_SEED = 7
# floats one numpy block holds: a check_laws block (``_law_arrays``) as many
# samples as fit with their rows, a lockstep block of a restart search
# (random+hill or solomonic) as many restarts as fit, each at least one; a
# restart counts the coordinates of its tuple, or of its tuple's point pairs
# from arity 4 on, which outnumber them and size a diameter's arrays
BLOCK_FLOATS = 1 << 17


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
# orbit averages


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
