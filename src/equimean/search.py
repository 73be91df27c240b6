"""Restart searches over sampled tuples of a quasi-mean map: random+hill,
the contractivity estimate ``means.estimate_lambda`` takes for every map
but a binary one on an interval, and the solomonic witness search for an
output far from every argument.

Both climb restarts through ``_search``, each on its own substream of
the run's generator, in a scalar loop or, from SEARCH_BLOCK_BUDGET on a
space with coordinate bounds, in lockstep blocks on numpy arrays; the two
lanes give the same result and leave the generator in the same state.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from .errors import SamplingError
from .laws import BLOCK_FLOATS, _diameters, _farthest, _nearest, _ratio, require_work
from .means import LambdaConfig, LambdaEstimate, QuasiMeanMap, _but_route
from .rng import Xoshiro256StarStar, as_rng, doubles, lane_draws, substream_lanes
from .spaces import MetricSpace, coordinate_bounds, diameter

# the planned evaluations (the solomonic budget, or restarts x (HILL_STEPS + 1)
# of random+hill) from which, on a space with coordinate bounds, blocks of
# restarts climb in lockstep on arrays. Fresh processes break even near it,
# for arithmetic:3 on a 2-D box (2-vCPU VM): the solomonic search took 0.26 s
# either way at 6,000 (median of 15), the scalar loop 0.18 s against 0.25 s at
# 3,000 and 0.40 s against 0.32 s at 8,000; random+hill's scalar loop took
# 0.25 s against 0.27 s at 3,050 and 0.34 s against 0.25 s at 6,100 (median
# of 9). Below it numpy's import costs more than it saves
SEARCH_BLOCK_BUDGET = 6000
# perturbations per random+hill restart
HILL_STEPS = 60


# ---------------------------------------------------------------------------
# random+hill


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
