import math

import numpy as np
import pytest

from equimean import _kernels
from equimean._kernels import KERNEL_CODES, fallback, grid_scan_both, grid_scan_interval

HAS_COMPILED = _kernels._compiled is not None

CASES = [
    ("arith2", 0.0, 0.0, 1.0, 1e-2),
    ("geom", 0.0, 1.0, 4.0, 5e-3),
    ("minsq", 0.0, 0.0, 1.0, 1e-2),
    ("dict0", 0.0, 0.0, 1.0, 2e-2),
    ("dict1", 0.0, -1.0, 1.0, 2e-2),
    ("const", 0.25, 0.0, 1.0, 1e-2),
]


# the plain full-square scan the upper-triangle numpy lane must reproduce:
# every ordered pair, the pyx formulas, first maximum in row-major order
REFERENCE_MEANS = {
    0: lambda X, Y, c: (X + Y) * 0.5,
    1: lambda X, Y, c: np.sqrt(X * Y),
    2: lambda X, Y, c: np.minimum(X, Y) + (X - Y) * (X - Y) * 0.5,
    3: lambda X, Y, c: X,
    4: lambda X, Y, c: Y,
    5: lambda X, Y, c: np.full(X.shape, c),
}


def full_square_scan(kind, param, a, b, step, excluded):
    m = int(math.floor((b - a) / step + 1e-9)) + 1
    xs = a + np.arange(m, dtype=np.float64) * step
    X, Y = np.broadcast_arrays(xs[:, None], xs[None, :])
    P = REFERENCE_MEANS[kind](X, Y, param)
    D = np.abs(X - Y)
    live = D > excluded
    if not live.any():
        return -1.0, 0.0, 0.0, 0
    R = np.maximum(np.abs(X - P), np.abs(Y - P))
    ratios = np.where(live, R / np.where(live, D, 1.0), -np.inf)
    i, j = divmod(int(np.argmax(ratios)), m)
    return float(ratios[i, j]), float(xs[i]), float(xs[j]), int(live.sum())


# (a, b, step, excluded): m = 1, m = 2, a few hundred points, an exclusion
# above the step, and one that removes every pair
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
@pytest.mark.parametrize("kernel", sorted(KERNEL_CODES))
def test_fallback_equals_full_square_reference(monkeypatch, kernel, grid, block_cells):
    # small blocks: several per scan, multi-row ones and a ragged last one
    monkeypatch.setattr(fallback, "_BLOCK_CELLS", block_cells)
    a, b, step, excluded = grid
    code = KERNEL_CODES[kernel]
    got = fallback.grid_scan(code, 0.8, a, b, step, excluded)
    assert got == full_square_scan(code, 0.8, a, b, step, excluded)
    if excluded >= b - a:
        assert got == (-1.0, 0.0, 0.0, 0)


@pytest.mark.parametrize("kernel", ["dict0", "dict1"])
def test_dictator_ties_pick_the_first_pair(monkeypatch, kernel):
    # every live ratio is exactly 1.0, so the first pair in row-major order wins
    monkeypatch.setattr(fallback, "_BLOCK_CELLS", 37)
    out = fallback.grid_scan(KERNEL_CODES[kernel], 0.0, 0.0, 1.0, 0.125, 1e-6)
    assert out == (1.0, 0.0, 0.125, 72)


def test_constant_kernel_worst_pair_hugs_the_diagonal(monkeypatch):
    monkeypatch.setattr(fallback, "_BLOCK_CELLS", 37)
    args = (KERNEL_CODES["const"], 0.1, 0.0, 1.0, 4e-3, 1e-6)
    lam, x, y, count = fallback.grid_scan(*args)
    assert (lam, x, y, count) == full_square_scan(*args)
    assert abs(y - x) == pytest.approx(4e-3) and lam > 200.0


def test_negative_excluded_radius_is_rejected():
    with pytest.raises(ValueError, match="excluded"):
        fallback.grid_scan(KERNEL_CODES["arith2"], 0.0, 0.0, 1.0, 0.1, -1.0)


def test_active_lane_is_named():
    assert _kernels.IMPLEMENTATION in ("cython", "numpy")
    if HAS_COMPILED:
        assert _kernels.IMPLEMENTATION == "cython"


@pytest.mark.skipif(not HAS_COMPILED, reason="compiled kernel not built")
@pytest.mark.parametrize("kernel,param,a,b,step", CASES, ids=[c[0] for c in CASES])
def test_lanes_agree_bit_for_bit(kernel, param, a, b, step):
    out = grid_scan_both(kernel, param, a, b, step, 1e-6)
    assert out["cython"] == out["numpy"]


def test_fallback_known_values():
    lam, x, y, count = fallback.grid_scan(KERNEL_CODES["arith2"], 0.0, 0.0, 1.0, 0.25, 1e-6)
    # 5 grid points, 20 ordered off-diagonal pairs, midpoint ratio exactly 1/2
    assert count == 20
    assert lam == 0.5
    lam, x, y, _ = fallback.grid_scan(KERNEL_CODES["geom"], 0.0, 1.0, 4.0, 0.5, 1e-6)
    assert (x, y) == (1.0, 4.0)
    assert lam == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_dictator_ratio_is_one():
    lam, *_ = grid_scan_interval("dict0", 0.0, 0.0, 1.0, 0.1, 1e-6)
    assert lam == 1.0


def test_constant_kernel_ratio_unbounded_growth():
    # output pinned at 0.25: the worst pair hugs the diagonal far away
    lam, x, y, _ = grid_scan_interval("const", 0.25, 0.0, 1.0, 0.05, 1e-6)
    ratio = max(abs(x - 0.25), abs(y - 0.25)) / abs(x - y)
    assert lam == ratio and lam > 10.0


def test_excluded_radius_counts():
    # exclusion below the step keeps all off-diagonal pairs, a huge
    # exclusion removes everything
    m = 11
    _, _, _, count = fallback.grid_scan(KERNEL_CODES["arith2"], 0.0, 0.0, 1.0, 0.1, 1e-6)
    assert count == m * m - m
    lam, _, _, count = fallback.grid_scan(KERNEL_CODES["arith2"], 0.0, 0.0, 1.0, 0.1, 2.0)
    assert count == 0 and lam == -1.0


def test_unknown_kernel_code():
    with pytest.raises(ValueError):
        fallback.grid_scan(99, 0.0, 0.0, 1.0, 0.1, 1e-6)
    with pytest.raises(KeyError):
        grid_scan_interval("median", 0.0, 0.0, 1.0, 0.1, 1e-6)


@pytest.mark.skipif(not HAS_COMPILED, reason="compiled kernel not built")
def test_lanes_agree_on_fine_geometric_grid():
    out = grid_scan_both("geom", 0.0, 1.0, 2.0, 1e-3, 1e-6)
    assert out["cython"] == out["numpy"]
    lam = out["cython"][0]
    assert abs(lam - (2.0 - math.sqrt(2.0))) <= 1e-3
