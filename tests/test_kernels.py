import json
import math
from operator import sub
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import equimean
from equimean import _kernels
from equimean._kernels import grid_scan_interval
from equimean.cli import main
from equimean.means import (
    MEAN_NAMES,
    QuasiMeanMap,
    _grid_points,
    arithmetic_mean,
    constant_mean,
    dictator_mean,
    geometric_mean,
    min_plus_halfsquare_mean,
)
from equimean.spaces import Interval

UNIT = Interval(0.0, 1.0)


def variant(p, **changes):
    """The map p with ``changes`` to its fields, built through its class."""
    return QuasiMeanMap(**{**vars(p), **changes})


# each built-in binary mean (by the short name the test ids use), built on a
# space it accepts, and its formula as the plain full-square reference
# computes it
BUILT_INS = {
    "arith2": (arithmetic_mean(UNIT, 2), lambda X, Y: (X + Y) * 0.5),
    "geom": (geometric_mean(Interval(0.5, 4.0)), lambda X, Y: np.sqrt(X * Y)),
    "minsq": (min_plus_halfsquare_mean(UNIT),
              lambda X, Y: np.minimum(X, Y) + (X - Y) * (X - Y) * 0.5),
    "dict0": (dictator_mean(UNIT, 0), lambda X, Y: X),
    "dict1": (dictator_mean(UNIT, 1), lambda X, Y: Y),
    "const": (constant_mean(UNIT, [0.8]), lambda X, Y: np.full(X.shape, 0.8)),
}


def built_in(name, a, b):
    """The built-in mean on [a, b]: its formulas do not depend on the space,
    so minsq and the constant 0.8 also serve intervals they reject."""
    return variant(BUILT_INS[name][0], space=Interval(a, b))


def scan(p, step, excluded):
    a, b = p.space.a, p.space.b
    return grid_scan_interval(p, a, step, _grid_points(a, b, step), excluded)


def reference_grid(a, b, step):
    """a, a + step, ... up to b, then b itself, which stands in for the last
    of them when that one lies within 1e-9 step of b."""
    xs = [a + k * step for k in range(int(math.floor((b - a) / step + 1e-9)) + 1)]
    if b - xs[-1] <= 1e-9 * step:
        xs.pop()
    return np.array(xs + [b])


# the plain full-square scan the grid scan must reproduce: every ordered
# pair, the reference formulas, first maximum in row-major order
def full_square_scan(mean, a, b, step, excluded):
    xs = reference_grid(a, b, step)
    X, Y = np.broadcast_arrays(xs[:, None], xs[None, :])
    P = mean(X, Y)
    D = np.abs(X - Y)
    live = D > excluded
    if not live.any():
        return -1.0, 0.0, 0.0, 0
    R = np.maximum(np.abs(X - P), np.abs(Y - P))
    ratios = np.where(live, R / np.where(live, D, 1.0), -np.inf)
    i, j = divmod(int(np.argmax(ratios)), len(xs))
    return float(ratios[i, j]), float(xs[i]), float(xs[j]), int(live.sum())


# (a, b, step, excluded): m = 2 from the endpoint alone, m = 2, a few hundred
# points, a step that does not divide b - a, an exclusion above the step,
# and one that removes every pair
REFERENCE_GRIDS = [
    (0.5, 2.0, 2.0, 1e-6),
    (0.5, 2.0, 1.5, 1e-6),
    (0.5, 2.0, 5e-3, 1e-6),
    (1.0, 4.0, 1.1e-2, 1e-6),
    (0.5, 2.0, 5e-3, 2.5 * 5e-3),
    (0.5, 2.0, 5e-3, 1.5),
]


@pytest.mark.parametrize("block_cells", [37, 1000])
@pytest.mark.parametrize("grid", REFERENCE_GRIDS, ids=str)
@pytest.mark.parametrize("kernel", sorted(BUILT_INS))
def test_fallback_equals_full_square_reference(monkeypatch, kernel, grid, block_cells):
    # small blocks: several per scan, multi-row ones and a ragged last one;
    # the dictators take the whole-row path, the others the upper triangle,
    # by branch and bound with leaves of 1, 5 or LEAF cells, and without a
    # ratio bound in whole rows
    monkeypatch.setattr(_kernels, "BLOCK_CELLS", block_cells)
    a, b, step, excluded = grid
    p = built_in(kernel, a, b)
    assert p.symmetric is not kernel.startswith("dict")
    assert (p.ratio_bound is None) is kernel.startswith("dict")
    want = full_square_scan(BUILT_INS[kernel][1], a, b, step, excluded)
    for leaf in (1, 5, _kernels.LEAF):
        monkeypatch.setattr(_kernels, "LEAF", leaf)
        for q in (p, variant(p, ratio_bound=None)):
            assert scan(q, step, excluded) == want
    if excluded >= b - a:
        assert want == (-1.0, 0.0, 0.0, 0)


@pytest.mark.parametrize("leaf", [2, 5])
@pytest.mark.parametrize("kernel, a, b", [("geom", 1.0, 4.0), ("minsq", 0.0, 1.0)])
def test_enclosure_skips_tiles_and_counts_them(monkeypatch, kernel, a, b, leaf):
    # geometric's maximum lies at the corner (1, 4), minsq's next to the
    # diagonal, so once the scan has found it most tiles far from the
    # diagonal lie below it; every pair is counted, scored or not
    monkeypatch.setattr(_kernels, "LEAF", leaf)
    p = built_in(kernel, a, b)
    got, plain = scan(p, 1e-2, 1e-6), scan(variant(p, ratio_bound=None), 1e-2, 1e-6)
    assert got == plain == full_square_scan(BUILT_INS[kernel][1], a, b, 1e-2, 1e-6)
    m = _grid_points(a, b, 1e-2)
    assert got[3] == plain.scored == m * (m - 1)
    assert 0 < got.scored < got[3]


def _ratio(p, x, y):
    """The ratio of the cell (x, y), x < y, as the scan computes it."""
    P = p.eval([(x,), (y,)])[0]
    return max(P - x, y - P) / (y - x)


def _near(xs):
    """The smallest adjacent difference of the sorted points xs."""
    return min(y - x for x, y in zip(xs, xs[1:]))


@pytest.mark.parametrize("kernel", ["arith2", "geom", "minsq", "const"])
def test_a_tile_is_kept_while_it_may_hold_the_best_ratio(monkeypatch, kernel):
    # every tile's bound is at least each of its cells' ratios, so a tile is
    # scored while its largest ratio may reach the best: a skipped cell can
    # neither win nor tie. Tiles of 4 a side on a grid of 301 points, off the
    # diagonal with gap fl(yl - xh), on it with the grid's smallest adjacent
    # difference; leaves of 4 cells
    monkeypatch.setattr(_kernels, "LEAF", 4)
    p = built_in(kernel, 0.5, 2.0)
    xs = [0.5 + k * 5e-3 for k in range(301)]
    xs[-1] = 2.0
    near = _near(xs)
    for r0 in (0, 36, 148, 276):
        rows = xs[r0:r0 + 4]
        for t0 in range(r0, len(xs), 4):
            cols = xs[t0:t0 + 4]
            gap = cols[0] - rows[-1] if t0 > r0 else near
            bound = p.ratio_bound(rows[0], rows[-1], cols[0], cols[-1], gap)
            assert all(_ratio(p, x, y) <= bound for x in rows for y in cols if y > x)
    got = scan(p, 5e-3, 1e-6)
    assert got == scan(variant(p, ratio_bound=None), 5e-3, 1e-6)
    assert got.scored < got[3]


def _box(draw, lo, hi):
    """A tile off the diagonal, (xl, xh, yl, yh, gap) with corners xl <= xh
    < yl <= yh in [lo, hi], some of them equal or a few ulps apart, and gap
    fl(yl - xh); and points of each side: both ends and some between."""
    def above(v):
        """v, up to 4 ulps above v, or any float of [v, hi]."""
        ulps = draw(st.one_of(st.integers(0, 4), st.floats(v, hi)))
        if isinstance(ulps, float):
            return ulps
        for _ in range(ulps):
            v = math.nextafter(v, math.inf)
        return min(v, hi)

    xl = draw(st.floats(lo, hi))
    xh = above(xl)
    assume(xh < hi)
    yl = max(above(xh), math.nextafter(xh, math.inf))
    yh = above(yl)
    xs = [xl, xh] + draw(st.lists(st.floats(xl, xh), max_size=6))
    ys = [yl, yh] + draw(st.lists(st.floats(yl, yh), max_size=6))
    return (xl, xh, yl, yh, yl - xh), xs, ys


def _diagonal_tile(draw, lo, hi):
    """A tile on the diagonal of a grid of a few distinct points of [lo,
    hi], some a few ulps apart: rows xs[:-1], columns xs[1:], and as gap
    the grid's smallest adjacent difference or a larger excluded radius;
    the cells are the pairs x < y whose difference reaches the gap."""
    xs = sorted(set(draw(st.lists(st.floats(lo, hi), min_size=2, max_size=8))))
    if draw(st.booleans()):
        xs.insert(1, min(math.nextafter(xs[0], math.inf), hi))
    xs = sorted(set(xs))
    assume(len(xs) >= 2)
    gap = max(_near(xs), draw(st.sampled_from([0.0, 0.0, (xs[-1] - xs[0]) / 3])))
    cells = [(x, y) for x in xs for y in xs if y > x and y - x >= gap]
    return (xs[0], xs[-2], xs[1], xs[-1], gap), cells


# (a built-in binary mean on [a, b], the range its intervals' ends lie in):
# arithmetic and the constant on any interval they accept, geometric with 0 <
# a < b <= 2^511, also where x y is subnormal, and minsq on intervals of
# length up to 2
ENCLOSED = {
    "arith2": (lambda a, b: arithmetic_mean(Interval(a, b), 2), (-1e300, 1e300)),
    "geom": (lambda a, b: geometric_mean(Interval(a, b)), (5e-324, 2.0**511)),
    "geom-subnormal": (lambda a, b: geometric_mean(Interval(a, b)), (5e-324, 1e-155)),
    "minsq": (lambda a, b: min_plus_halfsquare_mean(Interval(a, b)), (-10.0, 10.0)),
    "const": (lambda a, b: constant_mean(Interval(a, b), [a / 2 + b / 2]), (-1e300, 1e300)),
}


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(ENCLOSED)), diagonal=st.booleans(), data=st.data())
def test_ratio_bound_holds_every_ratio_of_its_tile(name, diagonal, data):
    # off the diagonal the gap is fl(yl - xh); on it, as the scan bounds it,
    # the grid's smallest adjacent difference, or an excluded radius above it
    make, (lo, hi) = ENCLOSED[name]
    a = data.draw(st.floats(lo, hi))
    b = data.draw(st.floats(a, min(hi, a + 2.0) if name == "minsq" else hi))
    assume(a < b)
    p = make(a, b)
    if diagonal:
        tile, cells = _diagonal_tile(data.draw, a, b)
    else:
        tile, xs, ys = _box(data.draw, a, b)
        cells = [(x, y) for x in xs for y in ys]
    bound = p.ratio_bound(*tile)  # an inf bound holds, as the scan takes it
    assert all(_ratio(p, x, y) <= bound for x, y in cells)


@pytest.mark.parametrize("decades", [3, 5, 8])
def test_ratio_bound_covers_the_rounding_of_the_scan(decades):
    # on 64 points spread evenly in log scale over [1, 10^decades], tiles of
    # 8 a side far from the diagonal have cells whose float ratio lies an ulp
    # or two above r + E / (yl - xh): the factor 1 + 8u must cover them
    xs = np.geomspace(1.0, 10.0**decades, 64).tolist()
    p = geometric_mean(Interval(xs[0], xs[-1]))
    for i in range(0, 56, 8):
        for j in range(i + 8, 64, 8):
            bound = p.ratio_bound(xs[i], xs[i + 7], xs[j], xs[j + 7], xs[j] - xs[i + 7])
            assert max(_ratio(p, x, y) for x in xs[i:i + 8] for y in xs[j:j + 8]) <= bound


# (a built-in, the point tiles (a, b) on which its bound is checked, and the
# paper's closed form of its ratio at (a, b))
CLOSED_FORMS = [
    ("geom", [(a, a + 3.0) for a in (1.0, 1.5, 2.0, 2.5, 3.0)] + [(1.0, 2.0), (0.5, 4.0)],
     lambda a, b: (b - math.sqrt(a * b)) / (b - a)),
    ("arith2", [(0.0, 1.0), (-1.0, 1.0), (0.25, 0.5), (-3.0, 5.0)], lambda a, b: 0.5),
    ("minsq", [(0.0, 1.0), (0.0, 0.5), (0.0, 2e-4), (-1.0, 1.0), (0.2, 0.3)],
     lambda a, b: max((b - a) / 2, 1 - (b - a) / 2)),
]


@pytest.mark.parametrize("kernel, tiles, closed", CLOSED_FORMS, ids=[c[0] for c in CLOSED_FORMS])
def test_ratio_bound_of_a_point_tile_is_the_closed_form(kernel, tiles, closed):
    # on the point tile ({a}, {b}) the bound is the paper's closed form of the
    # ratio plus its rounding terms: the batch error E / (b - a) and the
    # factor 1 + 8u, which together stay within 2e-15 of it here
    for a, b in tiles:
        p = built_in(kernel, a, b)
        bound = p.ratio_bound(a, a, b, b, b - a)
        assert _ratio(p, a, b) <= bound
        assert closed(a, b) <= bound <= closed(a, b) * (1 + 2e-15)


@pytest.mark.parametrize("kernel, a, b, step", [("geom", a, a + 3.0, 4e-4)
                                                 for a in (1.0, 1.5, 2.0, 2.5, 3.0)]
                         + [("minsq", 0.0, 1.0, 2e-4), ("arith2", 0.0, 1.0, 2e-4)])
def test_best_first_scan_equals_the_whole_row_scan(kernel, a, b, step):
    # the lambda-grid benchmark's scans: the same 4-tuple from under 1% of
    # the pairs
    p = built_in(kernel, a, b)
    got = scan(p, step, 1e-6)
    assert got == scan(variant(p, ratio_bound=None), step, 1e-6)
    assert got.scored < 0.01 * got[3]


@pytest.mark.parametrize("kernel, pairs", [("minsq", 26_820), ("arith2", 15_440)])
def test_bands_halve_the_pairs_scored_on_the_diagonal(kernel, pairs):
    # the maxima of minsq and arithmetic:2 lie on adjacent pairs. Tiles on the
    # diagonal bounded with the smallest adjacent difference alone, adjacent
    # pairs and wider ones together, scored ``pairs`` pairs at step 2e-4;
    # with bands of adjacent pairs apart, the triangles of wider pairs take
    # the two-step gap and drop below the maximum
    got = scan(built_in(kernel, 0.0, 1.0), 2e-4, 1e-6)
    assert got.scored <= pairs // 2


# (a bounded built-in, its interval's left end and its length, both drawn
# from the ranges it accepts)
CROSS_CHECKED = {
    "arith2": (lambda a, b: arithmetic_mean(Interval(a, b), 2), (-1e6, 1e6), (1e-3, 1e6)),
    "geom": (lambda a, b: geometric_mean(Interval(a, b)), (1e-3, 1e3), (1e-3, 1e3)),
    "minsq": (lambda a, b: min_plus_halfsquare_mean(Interval(a, b)), (-10.0, 10.0), (1e-3, 2.0)),
    "const": (lambda a, b: constant_mean(Interval(a, b), [a + (b - a) / 3]),
              (-1e6, 1e6), (1e-3, 1e6)),
}


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(CROSS_CHECKED)), data=st.data())
def test_branch_and_bound_equals_the_whole_row_scan(name, data):
    # a random interval of 2, 3 or more points, a step that divides its
    # length or not (the grid then ends on b, closer than a step to the point
    # before it, and when the step falls just short of a divisor far closer),
    # an excluded radius of 0 to 10 steps, among them radii between one and
    # two steps, which leave adjacent pairs dead and pairs two apart live, and
    # leaves of 1, 5 or LEAF cells
    make, (lo, hi), (short, long) = CROSS_CHECKED[name]
    a = data.draw(st.floats(lo, hi))
    b = a + data.draw(st.floats(short, long))
    assume(a < b)
    points = data.draw(st.sampled_from([2, 3]) | st.integers(2, 90))
    step = (b - a) / (points - 1)
    if data.draw(st.booleans()):
        step *= data.draw(st.floats(0.5, 1.5) | st.just(1 - 1e-7))
    assume(_grid_points(a, b, step) <= 100)
    excluded = data.draw(st.sampled_from([0.0, 1e-6 * step, step, 2.5 * step])
                         | st.floats(0.0, 10.0).map(lambda k: k * step)
                         | st.floats(1.0, 2.0).map(lambda k: k * step))
    p = make(a, b)
    with mock.patch.object(_kernels, "LEAF", data.draw(st.sampled_from([1, 5, _kernels.LEAF]))):
        got = scan(p, step, excluded)
    assert got == scan(variant(p, ratio_bound=None), step, excluded)


def _grids(draw):
    """An increasing list of at least three floats: a grid a + k step, with
    steps down to the subnormal, points drawn anywhere, or runs of
    consecutive floats."""
    kind = draw(st.sampled_from(["grid", "drawn", "consecutive"]))
    if kind == "grid":
        a = draw(st.floats(-1e300, 1e300) | st.sampled_from([0.0, -1e-310, 1.0]))
        step = draw(st.floats(5e-324, 1e300) | st.sampled_from([5e-324, 3e-323, 2.0**-1022]))
        xs = [a + k * step for k in range(draw(st.integers(3, 60)))]
    elif kind == "drawn":
        xs = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                           | st.floats(-1e-300, 1e-300), min_size=3, max_size=40))
    else:
        x = draw(st.floats(allow_nan=False, allow_infinity=False))
        xs = [x]
        for gap in draw(st.lists(st.integers(1, 3), min_size=2, max_size=20)):
            for _ in range(gap):
                xs.append(math.nextafter(xs[-1], math.inf))
    xs = sorted({x for x in xs if math.isfinite(x)})
    assume(len(xs) >= 3 and all(map(math.isfinite, map(sub, xs[1:], xs))))
    return xs


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_the_two_step_gap_bounds_every_two_step_difference(data):
    # the scan bounds its triangles with 2 near, the smallest adjacent
    # difference doubled, where the smallest fl(x_{i+2} - x_i) took a second
    # pass over the grid
    xs = _grids(data.draw)
    near = min(map(sub, xs[1:], xs))
    assert 2.0 * near <= min(map(sub, xs[2:], xs))


@pytest.mark.parametrize("step", [0.04999999, 0.0199999999])
def test_a_triangle_holding_b_takes_the_gap_of_b(step):
    # the grid ends on b = -0.5 a few 1e-8 after the point before it, and the
    # sum there rounds, so its ratio, 1/2 plus that error over the tiny gap,
    # is the maximum. A band of adjacent pairs holding b bounded with the
    # step's gap, the smallest elsewhere, would lie below ratios near a =
    # -1.5, whose sums are larger, and be dropped once bands of a few pairs
    # keep b apart from a
    p = arithmetic_mean(Interval(-1.5, -0.5), 2)
    for leaf in (_kernels.LEAF, 4):
        with mock.patch.object(_kernels, "LEAF", leaf):
            got = scan(p, step, 0.0)
        assert got == scan(variant(p, ratio_bound=None), step, 0.0)
        assert got[2] == -0.5 and got[2] - got[1] < 1e-6 and got[0] > 0.5 + 1e-10


@pytest.mark.parametrize("steps", [7, 20, 40])
def test_a_triangle_holding_b_takes_the_two_step_gap_of_b(steps):
    # the grid ends on b = 1 half a step after the point before it, and an
    # excluded radius of 1.2 steps leaves every adjacent pair dead, so the
    # pair 1.5 steps apart that ends on b has the largest ratio of the
    # constant 0.55, 0.45 / (1.5 step), above 0.55 / (2 step) at a. A
    # triangle holding b bounded with the grid-wide two-step gap, 2 step,
    # would lie below the ratios at a once it lies right of 0.1 and be dropped
    step = 1 / (steps + 0.5)
    p = constant_mean(UNIT, [0.55])
    got = scan(p, step, 1.2 * step)
    assert got == scan(variant(p, ratio_bound=None), step, 1.2 * step)
    assert got[2] == 1.0 and got[1] == (steps - 1) * step and got[0] > 0.29 / step


def _two_peaks(space, peaks, ratio_bound):
    """A symmetric map whose ratio is exactly 2 at the grid pairs ``peaks``
    (x < y) and 1/2 elsewhere on a dyadic grid, with the given bound."""
    def func(points):
        lo, hi = sorted((points[0][0], points[1][0]))
        return (2 * hi - lo if (lo, hi) in peaks else (lo + hi) / 2,)

    def batch(arrays):
        lo, hi = np.minimum(*arrays), np.maximum(*arrays)
        peak = np.zeros(lo.shape, dtype=bool)
        for x, y in peaks:
            peak |= (lo == x) & (hi == y)
        return np.where(peak, 2 * hi - lo, (lo + hi) / 2)

    return QuasiMeanMap(2, space, func, "two-peaks", batch=batch, symmetric=True,
                        ratio_bound=ratio_bound)


def test_equal_maxima_in_different_blocks_keep_the_first_pair(monkeypatch):
    # one cell a leaf, and bounds that grow with the last row: the leaf of the
    # later peak (3, 3.75) is scored first, and the earlier peak (0.5, 2.25)
    # ties it in a later leaf and wins, as it comes first in row-major order.
    # Its leaf's bound equals the peak's ratio 2, so only a bound strictly
    # below the best drops a tile
    monkeypatch.setattr(_kernels, "LEAF", 1)
    p = _two_peaks(Interval(0.0, 4.0), {(0.5, 2.25), (3.0, 3.75)},
                   lambda xl, xh, yl, yh, gap: 1.5 + xh)
    want = (2.0, 0.5, 2.25, 17 * 16)
    assert scan(p, 0.25, 1e-6) == scan(variant(p, ratio_bound=None), 0.25, 1e-6) == want
    assert full_square_scan(lambda X, Y: p.batch([X, Y]), 0.0, 4.0, 0.25, 1e-6) == want


def test_a_tile_with_a_nan_bound_is_scored(monkeypatch):
    # the tiles that reach the first three rows have NaN bounds, the peak's
    # among them; every other tile has a valid bound below the peak's ratio
    # and is skipped
    monkeypatch.setattr(_kernels, "LEAF", 4)
    p = _two_peaks(Interval(0.0, 4.0), {(0.5, 2.25)},
                   lambda xl, xh, yl, yh, gap: math.nan if xl <= 0.5 else 0.75)
    got = scan(p, 0.25, 1e-6)
    assert got == (2.0, 0.5, 2.25, 17 * 16)
    assert got.scored < got[3]


def test_a_large_scan_holds_o_of_m_memory_and_scores_under_1_percent():
    # WORK_CAP's grids, m = 30,001 and 31,251 points: the scan holds the grid
    # as Python floats (a float and its list slot, 32 bytes, and 8 more for
    # the slice that finds its smallest adjacent difference) and a heap of
    # tiles, each a tuple of a float and four ints (under 256 bytes), where
    # a full square of ratios would hold m^2 floats
    for kernel, a, b, step in [("geom", 1.0, 4.0, 1e-4), ("minsq", 0.0, 1.0, 3.2e-5)]:
        p = built_in(kernel, a, b)
        m = _grid_points(a, b, step)
        tracemalloc.start()
        try:
            got = scan(p, step, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got[3] == m * (m - 1) and got.scored < 0.01 * got[3]
        if kernel == "geom":
            assert (m, got[:3]) == (30_001, (2.0 / 3.0, 1.0, 4.0))
        tiles = int(got.route.split()[0])
        assert peak < 48 * m + 256 * tiles


@pytest.mark.parametrize("kernel", ["dict0", "dict1"])
def test_dictator_ties_pick_the_first_pair(monkeypatch, kernel):
    # every live ratio is exactly 1.0, so the first pair in row-major order wins
    monkeypatch.setattr(_kernels, "BLOCK_CELLS", 37)
    assert scan(built_in(kernel, 0.0, 1.0), 0.125, 1e-6) == (1.0, 0.0, 0.125, 72)


def test_constant_kernel_worst_pair_hugs_the_diagonal(monkeypatch):
    monkeypatch.setattr(_kernels, "BLOCK_CELLS", 37)
    p = constant_mean(UNIT, [0.1])
    lam, x, y, count = scan(p, 4e-3, 1e-6)
    assert (lam, x, y, count) == full_square_scan(
        lambda X, Y: np.full(X.shape, 0.1), 0.0, 1.0, 4e-3, 1e-6)
    assert abs(y - x) == pytest.approx(4e-3) and lam > 200.0


def test_negative_excluded_radius_is_rejected():
    with pytest.raises(ValueError, match="excluded"):
        scan(arithmetic_mean(UNIT, 2), 0.1, -1.0)


def test_fallback_known_values():
    lam, x, y, count = scan(arithmetic_mean(UNIT, 2), 0.25, 1e-6)
    # 5 grid points, 20 ordered off-diagonal pairs, midpoint ratio exactly 1/2
    assert count == 20
    assert lam == 0.5
    lam, x, y, _ = scan(geometric_mean(Interval(1.0, 4.0)), 0.5, 1e-6)
    assert (x, y) == (1.0, 4.0)
    assert lam == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_dictator_ratio_is_one():
    lam, *_ = scan(dictator_mean(UNIT, 0), 0.1, 1e-6)
    assert lam == 1.0


def test_constant_kernel_ratio_unbounded_growth():
    # output pinned at 0.25: the worst pair hugs the diagonal far away
    lam, x, y, _ = scan(constant_mean(UNIT, [0.25]), 0.05, 1e-6)
    ratio = max(abs(x - 0.25), abs(y - 0.25)) / abs(x - y)
    assert lam == ratio and lam > 10.0


def test_excluded_radius_counts():
    # exclusion below the step keeps all off-diagonal pairs, a huge
    # exclusion removes everything
    m = 11
    _, _, _, count = scan(arithmetic_mean(UNIT, 2), 0.1, 1e-6)
    assert count == m * m - m
    lam, _, _, count = scan(arithmetic_mean(UNIT, 2), 0.1, 2.0)
    assert count == 0 and lam == -1.0


def test_a_bounded_built_in_scans_without_numpy(tmp_path):
    # estimate-lambda in a fresh interpreter: the branch and bound of a
    # bounded built-in runs in plain Python and loads no numpy; dictator:0,
    # which has no bound, then scans in numpy's whole rows, as before
    runs = [(mean, tmp_path / mean.replace(":", "-"))
            for mean in ("geometric", "minsq", "arithmetic:2", "constant:1.0", "dictator:0")]
    for mean, outdir in runs:
        a, step = (0.0, 0.1) if mean == "dictator:0" else (0.5, 0.01)
        outdir.with_suffix(".json").write_text(json.dumps(
            {"space": {"kind": "interval", "params": {"a": a, "b": a + 1.0}},
             "mean": mean, "grid_step": step}))
    code = f"""
        import sys
        from equimean.cli import main
        runs = {[(str(out.with_suffix(".json")), str(out)) for _, out in runs]!r}
        for config, outdir in runs[:-1]:
            assert main(["estimate-lambda", "--config", config, "--out", outdir]) == 0
        assert "numpy" not in sys.modules, "a bounded scan loaded numpy"
        config, outdir = runs[-1]
        assert main(["estimate-lambda", "--config", config, "--out", outdir]) == 0
        assert "numpy" in sys.modules
    """
    src = str(Path(equimean.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    for mean, outdir in runs:
        estimate = json.loads((outdir / "report.json").read_text())["results"]["estimate"]
        assert estimate["samples"] == (110 if mean == "dictator:0" else 101 * 100)
    assert estimate == {"argmax_tuple": [[0.0], [0.1]], "excluded_diagonal_radius": 1e-06,
                        "lambda_hat": 1.0, "method": "grid", "samples": 110}


def test_unknown_kernel_code(tmp_path, capsys):
    # a grid scan needs a mean the registry knows; an unknown name is a
    # config error (exit 2) before any scan
    path = tmp_path / "config.json"
    path.write_text('{"space": {"kind": "interval", "params": {"a": 0, "b": 1}},'
                    ' "mean": "median", "grid_step": 0.1}')
    code = main(["estimate-lambda", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err == f"equimean: unknown mean name 'median'; the names are {MEAN_NAMES}"
