"""The array lane of ``laws.check_laws``: the laws of verify-mean and of
the mean-law gates scored on numpy arrays, with the reports of the scalar
``check_*`` loop, drawing and scoring their samples a block at a time.

``laws.check_laws`` imports this module only for a map with a batch form
and a run that plans at least ``laws.LAW_BLOCK_EVALS`` evaluations, so
the CLI's start-up neither loads numpy nor compiles this code.
"""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .laws import (BLOCK_FLOATS, _betweenness_report, _diameters, _farthest,
                   _permutations_to_check, _report, _require_same_space)
from .means import QuasiMeanMap
from .rng import Xoshiro256StarStar, as_rng, doubles, randrange_accepts
from .spaces import MetricSpace, coordinate_bounds, worst_of_blocks

if TYPE_CHECKING:
    from .groups import GroupAction, Subgroup


def check_laws_array(p: QuasiMeanMap, laws: Sequence[str], seed: int, count: int, tol: float,
                     action: Optional[GroupAction], subgroup: Optional[Subgroup] = None) -> dict:
    """``check_laws`` on arrays, through ``p.apply``, ``d_batch`` and
    ``act_rows``: each law makes its own pass over the samples drawn from
    ``seed`` (``sample_blocks``) and scores the (sample, permutation or
    element) rows of a block of at most BLOCK_FLOATS floats at a time, in
    the scalar loop's order. Each report, and a MembershipError for an
    image outside the space, equals the scalar loop's."""
    n, blocks = p.arity, partial(sample_blocks, p.space, seed, count)
    reports = {}
    with np.errstate(all="ignore"):
        for law in laws:
            if law == "M1":  # a point's row reads it n times
                scored = ((p.space.d_batch(p.apply([b[:, 0]] * n), b[:, 0]), _witness(b, int))
                          for b in blocks(1, n))
            elif law == "M2":
                orders = math.factorial(n) if n <= 5 else n * n
                scored = anonymity_blocks(p, blocks(n, orders), as_rng(seed))
            elif law == "equivariance":
                elements = (subgroup.members if subgroup is not None
                            else tuple(action.group.elements()))
                scored = equivariance_blocks(p, action, elements, blocks(n, len(elements)))
            else:  # strict-betweenness
                scored = betweenness_blocks(p, blocks(n, n))
            top, witness, checked = worst_of_blocks(scored)
            reports[law] = (_betweenness_report(top, witness, checked)
                            if law == "strict-betweenness" else
                            _report(law, top, witness, checked, tol))
    return reports


def sample_blocks(space: MetricSpace, seed: int, count: int, n: int, rows: int):
    """The tuples of ``sample_tuples(space, n, seed, count)`` in order, as
    (k, n, dim) float64 arrays of as many tuples as fit BLOCK_FLOATS when a
    tuple is scored on ``rows`` rows of n points, and at least one. On a
    convex space each block comes from one block of draws, each coordinate
    formed as the sampler forms it, lo + (hi - lo) * r."""
    rng, dim, bounds = as_rng(seed), space.dim, coordinate_bounds(space)
    step = max(1, BLOCK_FLOATS // (rows * n * dim))
    for first in range(0, count, step):
        k = min(step, count - first)
        if bounds is None:
            yield np.array(space.sample(rng, k * n), dtype=np.float64).reshape(k, n, dim)
        else:
            lo, hi = (np.array(b) for b in bounds)
            yield lo + (hi - lo) * doubles(rng.u64_array(k * n * dim).reshape(k, n, dim))


def _witness(block, sample):
    """From a defect's index i to its witness, the tuple ``block[sample(i)]``
    copied out: a numpy view would keep the whole block alive."""
    return lambda i: tuple(map(tuple, block[sample(i)].tolist()))


def _apply(p: QuasiMeanMap, tuples):
    """p on each tuple of an (m, n, dim) array, as an (m, dim) array."""
    return p.apply([tuples[:, i] for i in range(tuples.shape[1])])


def anonymity_blocks(p: QuasiMeanMap, blocks, rng: Xoshiro256StarStar):
    """``check_anonymity``'s defects, a block of samples at a time, each
    on its (sample, permutation) rows: all n! orders for arity n <= 5, else
    the n^2 transpositions per sample that ``_permutations_to_check`` draws
    from ``rng``."""
    n = p.arity
    perms = np.array(_permutations_to_check(n, rng)) if n <= 5 else None  # no draw
    per_sample = len(perms) if n <= 5 else n * n
    for block in blocks:
        rows = len(block) * per_sample
        order = np.tile(perms, (len(block), 1)) if n <= 5 else transpositions(rng, n, rows)
        samples = np.arange(rows) // per_sample
        out = _apply(p, block[samples[:, None], order])
        yield (p.space.d_batch(out, _apply(p, block)[samples]),
               _witness(block, lambda i: i // per_sample))


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


def equivariance_blocks(p: QuasiMeanMap, action: GroupAction, elements: tuple, blocks):
    """``check_equivariance``'s defects over ``elements``, a block of
    samples at a time, with its membership checks: the first image outside
    the space, in (sample, element, point) order, raises MembershipError."""
    _require_same_space(p, action)
    space = p.space
    for block in blocks:
        k, n, dim = block.shape
        images = [action.act_rows(g, block.reshape(-1, dim)) for g in elements]
        inside = np.stack([space.contains_batch(gx).reshape(-1, n) for gx in images], axis=1)
        if not inside.all():
            sample, e, i = np.unravel_index(np.argmin(inside), inside.shape)
            space.require_member(tuple(images[e][sample * n + i].tolist()))
        base = _apply(p, block)
        defects = np.empty((k, len(elements)))
        for e, (g, gx) in enumerate(zip(elements, images)):
            out = _apply(p, gx.reshape(k, n, -1))
            defects[:, e] = space.d_batch(out, action.act_rows(g, base))
        yield defects.ravel(), _witness(block, lambda i: i // len(elements))


def betweenness_blocks(p: QuasiMeanMap, blocks):
    """``check_strict_betweenness``'s margins, a block of samples at a
    time, on the samples of positive diameter."""
    space = p.space
    for block in blocks:
        diam = _diameters(space, block)
        keep = np.flatnonzero(diam > 0.0)
        if len(keep):
            X = block[keep]
            yield _farthest(space, X, _apply(p, X)) - diam[keep], _witness(block, keep.__getitem__)
