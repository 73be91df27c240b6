import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
    return dataclasses.replace(BUILT_INS[name][0], space=Interval(a, b))


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
    # best first in tiles of 2, 5 or TILE a side, and without a ratio bound
    # in whole rows
    monkeypatch.setattr(_kernels, "BLOCK_CELLS", block_cells)
    a, b, step, excluded = grid
    p = built_in(kernel, a, b)
    assert p.symmetric is not kernel.startswith("dict")
    assert (p.ratio_bound is None) is kernel.startswith("dict")
    want = full_square_scan(BUILT_INS[kernel][1], a, b, step, excluded)
    for tile in (2, 5, _kernels.TILE):
        monkeypatch.setattr(_kernels, "TILE", tile)
        for q in (p, dataclasses.replace(p, ratio_bound=None)):
            assert scan(q, step, excluded) == want
    if excluded >= b - a:
        assert want == (-1.0, 0.0, 0.0, 0)


@pytest.mark.parametrize("tile", [2, 5])
@pytest.mark.parametrize("kernel, a, b", [("geom", 1.0, 4.0), ("minsq", 0.0, 1.0)])
def test_enclosure_skips_tiles_and_counts_them(monkeypatch, kernel, a, b, tile):
    # geometric's maximum lies at the corner (1, 4), minsq's next to the
    # diagonal, so once the scan has found it most tiles far from the
    # diagonal lie below it; every pair is counted, scored or not
    monkeypatch.setattr(_kernels, "TILE", tile)
    p = built_in(kernel, a, b)
    got, plain = scan(p, 1e-2, 1e-6), scan(dataclasses.replace(p, ratio_bound=None), 1e-2, 1e-6)
    assert got == plain == full_square_scan(BUILT_INS[kernel][1], a, b, 1e-2, 1e-6)
    m = _grid_points(a, b, 1e-2)
    assert got[3] == plain.scored == m * (m - 1)
    assert 0 < got.scored < got[3]


@pytest.mark.parametrize("kernel", ["arith2", "geom", "minsq", "const"])
def test_a_tile_is_kept_while_it_may_hold_the_best_ratio(monkeypatch, kernel):
    # every tile's bound is at least each of its cells' ratios, so a tile is
    # scored while its largest ratio may reach the best: a skipped cell can
    # neither win nor tie. Tiles of 4 on a grid of 301 points
    monkeypatch.setattr(_kernels, "TILE", 4)
    p = built_in(kernel, 0.5, 2.0)
    xs = 0.5 + np.arange(301) * 5e-3
    xs[-1] = 2.0
    for r0 in (0, 36, 148, 276):
        X = xs[r0:r0 + 4, None, None]
        for t0 in range(r0 + 4, len(xs), 4):
            Y = xs[None, t0:t0 + 4, None]
            P = p.batch([X, Y])
            ratios = np.maximum(P - X, Y - P) / (Y - X)
            assert (ratios <= p.ratio_bound((X[0], Y[0, 0]), (X[-1], Y[0, -1]))).all()
    got = scan(p, 5e-3, 1e-6)
    assert got == scan(dataclasses.replace(p, ratio_bound=None), 5e-3, 1e-6)
    assert got.scored < got[3]


def _box(draw, lo, hi):
    """Corners xl <= xh < yl <= yh in [lo, hi], some of them equal or a few
    ulps apart, and points of each side: both ends and some between."""
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
    return (xl, yl), (xh, yh), xs, ys


# (a built-in binary mean on [a, b], the range its intervals' ends lie in):
# arithmetic and the constant on any interval, geometric with 0 < a < b <=
# 2^511, also where x y is subnormal, and minsq on intervals of length up to 2
ENCLOSED = {
    "arith2": (lambda a, b: arithmetic_mean(Interval(a, b), 2), (-1e300, 1e300)),
    "geom": (lambda a, b: geometric_mean(Interval(a, b)), (5e-324, 2.0**511)),
    "geom-subnormal": (lambda a, b: geometric_mean(Interval(a, b)), (5e-324, 1e-155)),
    "minsq": (lambda a, b: min_plus_halfsquare_mean(Interval(a, b)), (-10.0, 10.0)),
    "const": (lambda a, b: constant_mean(Interval(a, b), [a / 2 + b / 2]), (-1e300, 1e300)),
}


def _ratios_of_cells(p, xs, ys):
    """The ratio of each cell of xs x ys (xs below ys), as the scan
    computes it."""
    X, Y = np.array(xs)[:, None, None], np.array(ys)[None, :, None]
    P = p.batch([X, Y])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.maximum(P - X, Y - P) / (Y - X)


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(ENCLOSED)), data=st.data())
def test_ratio_bound_holds_every_ratio_of_its_tile(name, data):
    make, (lo, hi) = ENCLOSED[name]
    a = data.draw(st.floats(lo, hi))
    b = data.draw(st.floats(a, min(hi, a + 2.0) if name == "minsq" else hi))
    assume(a < b)
    (xl, yl), (xh, yh), xs, ys = _box(data.draw, a, b)
    p = make(a, b)
    with np.errstate(over="ignore"):  # an inf bound holds, as the scan takes it
        bound = p.ratio_bound((np.array(xl), np.array(yl)), (np.array(xh), np.array(yh)))
    assert (_ratios_of_cells(p, xs, ys) <= bound).all()


@pytest.mark.parametrize("decades", [3, 5, 8])
def test_ratio_bound_covers_the_rounding_of_the_scan(decades):
    # on 64 points spread evenly in log scale over [1, 10^decades], tiles of
    # 8 a side far from the diagonal have cells whose float ratio lies an ulp
    # or two above r + E / (yl - xh): the factor 1 + 8u must cover them
    xs = np.geomspace(1.0, 10.0**decades, 64)
    p = geometric_mean(Interval(xs[0], xs[-1]))
    ratios = _ratios_of_cells(p, xs, xs)
    for i in range(0, 56, 8):
        for j in range(i + 8, 64, 8):
            tile = (np.array(xs[i]), np.array(xs[j])), (np.array(xs[i + 7]), np.array(xs[j + 7]))
            assert ratios[i:i + 8, j:j + 8].max() <= p.ratio_bound(*tile)


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
        bound = float(p.ratio_bound((np.array(a), np.array(b)), (np.array(a), np.array(b))))
        assert float(_ratios_of_cells(p, [a], [b])[0, 0, 0]) <= bound
        assert closed(a, b) <= bound <= closed(a, b) * (1 + 2e-15)


@pytest.mark.parametrize("kernel, a, b, step", [("geom", a, a + 3.0, 4e-4)
                                                 for a in (1.0, 1.5, 2.0, 2.5, 3.0)]
                         + [("minsq", 0.0, 1.0, 2e-4), ("arith2", 0.0, 1.0, 2e-4)])
def test_best_first_scan_equals_the_whole_row_scan(kernel, a, b, step):
    # the lambda-grid benchmark's scans: the same 4-tuple from under 1% of
    # the pairs
    p = built_in(kernel, a, b)
    got = scan(p, step, 1e-6)
    assert got == scan(dataclasses.replace(p, ratio_bound=None), step, 1e-6)
    assert got.scored < 0.01 * got[3]


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
    # one tile a block, and bounds that grow with the row: the tile of the
    # later peak (3, 3.75) is scored first, and the earlier peak (0.5, 2.25)
    # ties it in a later block and wins, as it comes first in row-major order.
    # Its tile's bound equals the peak's ratio 2, so only a bound strictly
    # below the best drops a tile
    monkeypatch.setattr(_kernels, "TILE", 2)
    monkeypatch.setattr(_kernels, "BLOCK_CELLS", 4)
    p = _two_peaks(Interval(0.0, 4.0), {(0.5, 2.25), (3.0, 3.75)}, lambda lo, hi: 1.5 + lo[0])
    want = (2.0, 0.5, 2.25, 17 * 16)
    assert scan(p, 0.25, 1e-6) == scan(dataclasses.replace(p, ratio_bound=None), 0.25, 1e-6) == want
    assert full_square_scan(lambda X, Y: p.batch([X, Y]), 0.0, 4.0, 0.25, 1e-6) == want


def test_a_tile_with_a_nan_bound_is_scored(monkeypatch):
    # the tiles of the first two rows have NaN bounds, the peak's among them;
    # every other tile has a valid bound below the peak's ratio and is skipped
    monkeypatch.setattr(_kernels, "TILE", 2)
    bound = lambda lo, hi: np.where(lo[0] <= 0.5, np.nan, 0.75) + 0 * hi[1]
    p = _two_peaks(Interval(0.0, 4.0), {(0.5, 2.25)}, bound)
    got = scan(p, 0.25, 1e-6)
    assert got == (2.0, 0.5, 2.25, 17 * 16)
    assert got.scored < got[3]


def test_a_large_scan_holds_o_of_m_memory_and_scores_under_1_percent():
    # geometric on [1, 4] at step 1e-4, m = 30,001 points: beside the grid,
    # its tile rows and a block (O(m + BLOCK_CELLS) floats) the scan holds
    # one bound per tile of the square, at most TILES^2 floats, where an
    # uncapped tiling of 16 a side would hold 3.5 million
    p = geometric_mean(Interval(1.0, 4.0))
    m = _grid_points(1.0, 4.0, 1e-4)
    assert m == 30_001
    tracemalloc.start()
    try:
        got = scan(p, 1e-4, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[:3] == (2.0 / 3.0, 1.0, 4.0) and got[3] == m * (m - 1)
    assert got.scored < 0.01 * got[3]
    assert peak < 8 * (8 * m + 8 * _kernels.BLOCK_CELLS + 2 * _kernels.TILES**2)


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
