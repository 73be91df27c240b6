import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from equimean import _kernels
from equimean._kernels import grid_scan_interval
from equimean.cli import main
from equimean.means import (
    MEAN_NAMES,
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
    # in strips whose enclosure skips tiles of 2, 5 or TILE columns, and
    # without an enclosure in whole rows
    monkeypatch.setattr(_kernels, "BLOCK_CELLS", block_cells)
    a, b, step, excluded = grid
    p = built_in(kernel, a, b)
    assert p.symmetric is not kernel.startswith("dict")
    assert (p.enclose is None) is kernel.startswith("dict")
    want = full_square_scan(BUILT_INS[kernel][1], a, b, step, excluded)
    for tile in (2, 5, _kernels.TILE):
        monkeypatch.setattr(_kernels, "TILE", tile)
        for q in (p, dataclasses.replace(p, enclose=None)):
            assert scan(q, step, excluded) == want
    if excluded >= b - a:
        assert want == (-1.0, 0.0, 0.0, 0)


@pytest.mark.parametrize("tile", [2, 5])
@pytest.mark.parametrize("kernel, a, b", [("geom", 1.0, 4.0), ("minsq", 0.0, 1.0)])
def test_enclosure_skips_tiles_and_counts_them(monkeypatch, kernel, a, b, tile):
    # geometric's maximum lies at the corner (1, 4), minsq's next to the
    # diagonal, so once a strip has found it most tiles far from the
    # diagonal lie below it; every pair is counted, scored or not
    monkeypatch.setattr(_kernels, "TILE", tile)
    p = built_in(kernel, a, b)
    got, plain = scan(p, 1e-2, 1e-6), scan(dataclasses.replace(p, enclose=None), 1e-2, 1e-6)
    assert got == plain == full_square_scan(BUILT_INS[kernel][1], a, b, 1e-2, 1e-6)
    m = _grid_points(a, b, 1e-2)
    assert got[3] == plain.scored == m * (m - 1)
    assert 0 < got.scored < got[3]


@pytest.mark.parametrize("kernel", ["arith2", "geom", "minsq", "const"])
def test_a_tile_is_kept_while_it_may_hold_the_best_ratio(monkeypatch, kernel):
    # a tile's bound is at least each of its ratios, so with best set to the
    # largest ratio of a strip's tile that tile is kept: a skipped cell can
    # neither win nor tie
    monkeypatch.setattr(_kernels, "TILE", 4)
    p = built_in(kernel, 0.5, 2.0)
    xs = 0.5 + np.arange(301) * 5e-3
    xs[-1] = 2.0
    corners = _kernels._tile_corners(xs)
    skipped = 0
    for r0 in (0, 36, 148, 276):
        r1 = r0 + 4
        X = xs[r0:r1, None, None]
        for t0 in range(r1, len(xs), 4):
            Y = xs[None, t0:t0 + 4, None]
            P = p.batch([X, Y])
            best = float((np.maximum(P - X, Y - P) / (Y - X)).max())
            with np.errstate(divide="ignore", invalid="ignore"):
                kept = _kernels._kept_columns(p, xs, corners, r0, r1, 1e-6, best)
            if kept is not None:
                assert set(range(t0, min(t0 + 4, len(xs)))) <= set(kept.tolist())
                skipped += len(xs) - r0 - 1 - len(kept)
    assert skipped > 0 or kernel == "arith2"


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
# arithmetic and the constant on any interval, geometric with a > 0, and
# minsq on intervals of length up to 2
ENCLOSED = {
    "arith2": (lambda a, b: arithmetic_mean(Interval(a, b), 2), (-1e300, 1e300)),
    "geom": (lambda a, b: geometric_mean(Interval(a, b)), (5e-324, 1e150)),
    "minsq": (lambda a, b: min_plus_halfsquare_mean(Interval(a, b)), (-10.0, 10.0)),
    "const": (lambda a, b: constant_mean(Interval(a, b), [a / 2 + b / 2]), (-1e300, 1e300)),
}


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(ENCLOSED)), data=st.data())
def test_enclosure_holds_every_batch_value_of_its_box(name, data):
    make, (lo, hi) = ENCLOSED[name]
    a = data.draw(st.floats(lo, hi))
    b = data.draw(st.floats(a, min(hi, a + 2.0) if name == "minsq" else hi))
    assume(a < b)
    (xl, yl), (xh, yh), xs, ys = _box(data.draw, a, b)
    p = make(a, b)
    corner = lambda *v: [np.array([[c]]) for c in v]
    p_lo, p_hi = p.enclose(corner(xl, yl), corner(xh, yh))
    P = p.batch([np.array(xs)[:, None, None], np.array(ys)[None, :, None]])
    assert (p_lo <= P).all() and (P <= p_hi).all()


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
