"""The array lane of ``means.check_laws``: verify-mean's laws scored on
numpy arrays, with the reports of the scalar ``check_*`` loop.

``means.check_laws`` imports this module only for a map with a batch form
and a run that plans at least ``means.LAW_BLOCK_EVALS`` evaluations, so
the CLI's start-up neither loads numpy nor compiles this code.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .groups import GroupAction
from .means import (BLOCK_FLOATS, QuasiMeanMap, _betweenness_report, _diameters, _farthest,
                    _permutations_to_check, _report, _require_same_space)
from .rng import Xoshiro256StarStar, as_rng, doubles, randrange_accepts
from .spaces import MetricSpace, coordinate_bounds, worst_array, worst_of_blocks


def check_laws_array(p: QuasiMeanMap, laws: Sequence[str], seed: int, count: int,
                     tol: float, action: Optional[GroupAction]) -> dict:
    """``check_laws`` on arrays, through ``p.apply``, ``d_batch`` and
    ``act_rows``: the samples are drawn as one array, and each law scores
    its (sample, permutation or element) rows a block of at most
    BLOCK_FLOATS floats at a time, in the scalar loop's order. Each
    report, and a MembershipError for an image outside the space, equals
    the scalar loop's."""
    space, n, dim = p.space, p.arity, p.space.dim
    # every law but M1 checks the tuples, whose first count points M1 checks
    per_sample = n if set(laws) - {"M1"} else 1
    points = sample_array(space, seed, count * per_sample)
    tuples = points.reshape(count, per_sample, dim)
    base = None  # p on each tuple, for M2 and equivariance

    def witness(sample):
        return tuple(map(tuple, tuples[sample].tolist()))

    reports = {}
    with np.errstate(all="ignore"):
        for law in laws:
            if law == "M1":
                X = points[:count]
                top, i, checked = worst_array(space.d_batch(p.apply([X] * n), X))
                reports[law] = _report(law, top, None if i is None else (tuple(X[i].tolist()),),
                                       checked, tol)
            elif law == "strict-betweenness":
                top, sample, checked = worst_of_blocks(betweenness_blocks(p, tuples))
                reports[law] = _betweenness_report(
                    top, None if sample is None else witness(sample), checked)
            else:
                if base is None:
                    base = p.apply([tuples[:, i] for i in range(n)])
                if law == "M2":
                    blocks = anonymity_blocks(p, tuples, base, as_rng(seed))
                else:  # equivariance
                    blocks = equivariance_blocks(p, action, tuples, base)
                top, sample, checked = worst_of_blocks(blocks)
                reports[law] = _report(law, top, None if sample is None else witness(sample),
                                       checked, tol)
    return reports


def sample_array(space: MetricSpace, seed: int, m: int):
    """``space.sample(seed, m)`` as an (m, dim) float64 array. On a convex
    space it comes from one block of draws, each coordinate formed as the
    sampler forms it, lo + (hi - lo) * r."""
    rng = as_rng(seed)
    bounds = coordinate_bounds(space)
    if bounds is None:
        return np.array(space.sample(rng, m), dtype=np.float64).reshape(m, space.dim)
    lo, hi = (np.array(b) for b in bounds)
    return lo + (hi - lo) * doubles(rng.u64_array(m * len(lo)).reshape(m, len(lo)))


def anonymity_blocks(p: QuasiMeanMap, tuples, base, rng: Xoshiro256StarStar):
    """``check_anonymity``'s defects, a block of (sample, permutation) rows
    at a time: all n! orders for arity n <= 5, else the n^2 transpositions
    per sample that ``_permutations_to_check`` draws from ``rng``."""
    n, dim = p.arity, p.space.dim
    if n <= 5:
        perms = np.array(_permutations_to_check(n, rng))  # every order, no draw
        per_sample = len(perms)
    else:
        per_sample = n * n
    rows = len(tuples) * per_sample
    step = max(1, BLOCK_FLOATS // (n * dim))
    for first in range(0, rows, step):
        row = np.arange(first, min(first + step, rows))
        samples = row // per_sample
        order = perms[row % per_sample] if n <= 5 else transpositions(rng, n, len(row))
        X = tuples[samples[:, None], order]
        out = p.apply([X[:, i] for i in range(n)])
        yield p.space.d_batch(out, base[samples]), samples.__getitem__


def transpositions(rng: Xoshiro256StarStar, n: int, m: int):
    """The next m transpositions of ``_permutations_to_check`` for arity n,
    as an (m, n) array of orders: each swaps i = randrange(n) with
    j = randrange(n - 1), moved past i. They come from one block of draws
    unless randrange would reject one of them, which shifts every later
    draw; then randrange draws them."""
    saved = rng.getstate()
    u = rng.u64_array(2 * m).reshape(m, 2)
    bounds = np.array([n, n - 1], dtype=np.uint64)
    if randrange_accepts(u, bounds).all():
        i, j = (u % bounds).astype(np.intp).T
    else:
        rng.setstate(saved)
        drawn = [(rng.randrange(n), rng.randrange(n - 1)) for _ in range(m)]
        i, j = np.array(drawn, dtype=np.intp).reshape(m, 2).T
    j = j + (j >= i)
    order = np.tile(np.arange(n), (m, 1))
    row = np.arange(m)
    order[row, i] = j
    order[row, j] = i
    return order


def equivariance_blocks(p: QuasiMeanMap, action: GroupAction, tuples, base):
    """``check_equivariance``'s defects over the whole group, a block of
    samples at a time, with its membership checks: the first image outside
    the space, in (sample, element, point) order, raises MembershipError."""
    _require_same_space(p, action)
    space, elements = p.space, tuple(action.group.elements())
    count, n, dim = tuples.shape
    step = max(1, BLOCK_FLOATS // (len(elements) * n * dim))
    for first in range(0, count, step):
        block = tuples[first:first + step]
        images = [action.act_rows(g, block.reshape(-1, dim)) for g in elements]
        inside = np.stack([space.contains_batch(gx).reshape(-1, n) for gx in images], axis=1)
        if not inside.all():
            sample, k, i = np.unravel_index(np.argmin(inside), inside.shape)
            space.require_member(tuple(images[k][sample * n + i].tolist()))
        defects = np.empty((len(block), len(elements)))
        for k, (g, gx) in enumerate(zip(elements, images)):
            gx = gx.reshape(len(block), n, -1)
            out = p.apply([gx[:, i] for i in range(n)])
            defects[:, k] = space.d_batch(out, action.act_rows(g, base[first:first + step]))
        samples = np.repeat(np.arange(first, first + len(block)), len(elements))
        yield defects.ravel(), samples.__getitem__


def betweenness_blocks(p: QuasiMeanMap, tuples):
    """``check_strict_betweenness``'s margins, a block of samples at a
    time, on the samples of positive diameter."""
    space, (count, n, dim) = p.space, tuples.shape
    step = max(1, BLOCK_FLOATS // (n * n * dim))
    for first in range(0, count, step):
        block = tuples[first:first + step]
        diam = _diameters(space, block)
        keep = np.flatnonzero(diam > 0.0)
        if len(keep):
            X = block[keep]
            out = p.apply([X[:, i] for i in range(n)])
            yield _farthest(space, X, out) - diam[keep], (first + keep).__getitem__
