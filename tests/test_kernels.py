import dataclasses
import math

import numpy as np
import pytest

from equimean import _kernels
from equimean._kernels import grid_scan_interval
from equimean.cli import main
from equimean.means import (
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
    # the dictators take the whole-row path, the others the upper triangle
    monkeypatch.setattr(_kernels, "BLOCK_CELLS", block_cells)
    a, b, step, excluded = grid
    p = built_in(kernel, a, b)
    assert p.symmetric is not kernel.startswith("dict")
    got = scan(p, step, excluded)
    assert got == full_square_scan(BUILT_INS[kernel][1], a, b, step, excluded)
    if excluded >= b - a:
        assert got == (-1.0, 0.0, 0.0, 0)


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
    assert capsys.readouterr().err.strip() == "equimean: unknown mean name 'median'"
