"""Vectorized numpy lane for the contractivity-ratio grid scan.

``_gridscan.pyx`` scores every ordered grid pair. This lane scores each
unordered pair once, over the upper triangle j > i, in row blocks small
enough to stay in cache. Every kernel's ratio matrix is symmetric in IEEE
arithmetic, so both lanes return bit-identical results (the argument is
spelled out in ``grid_scan``).
"""

from __future__ import annotations

import math

import numpy as np

from . import BLOCK_CELLS as _BLOCK_CELLS


def _mean_values(kind: int, param: float, X: np.ndarray, Y: np.ndarray,
                 out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The mean at every cell of the block X x Y, computed into ``out``
    (``tmp`` is scratch); the dictators and the constant return read-only
    broadcasts instead. The operations and their order are those of the
    ``.pyx`` formulas, so the values are the same bit for bit."""
    if kind == 0:
        np.add(X, Y, out=out)
        return np.multiply(out, 0.5, out=out)
    if kind == 1:
        np.multiply(X, Y, out=out)
        return np.sqrt(out, out=out)
    if kind == 2:
        np.subtract(X, Y, out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.multiply(tmp, 0.5, out=tmp)
        np.minimum(X, Y, out=out)
        return np.add(out, tmp, out=out)
    if kind == 3:
        return np.broadcast_to(X, np.broadcast_shapes(X.shape, Y.shape))
    if kind == 4:
        return np.broadcast_to(Y, np.broadcast_shapes(X.shape, Y.shape))
    if kind == 5:
        return np.broadcast_to(param, np.broadcast_shapes(X.shape, Y.shape))
    raise ValueError(f"unknown mean code {kind}")


def grid_scan(kind: int, param: float, a: float, b: float, step: float,
              excluded: float):
    """Return (max_ratio, argmax_x, argmax_y, evaluated_pairs).

    The result is that of the full-square scan over ordered pairs with gap
    above ``excluded`` (which must be >= 0): the pair count is ordered, and
    the argmax is the first maximum in row-major order.
    """
    # Invariant: ratio(i, j) == ratio(j, i) bit for bit, for every kernel.
    # +, *, sqrt(x*y) and min commute; (x-y)*(x-y) == (y-x)*(y-x) and
    # |x-y| == |y-x| because IEEE negation is exact; the dictators give
    # exactly 1.0 both ways. The diagonal is never live (gap 0 <= excluded).
    # Hence a maximum at (i, j) with i > j has its mirror (j, i) earlier in
    # row-major order, so the full square's first maximum lies at some
    # i < j, and it is the first maximum of the upper triangle read in
    # row-major order. Each live unordered pair stands for two ordered ones.
    if not excluded >= 0.0:
        raise ValueError(f"excluded radius must be >= 0, got {excluded!r}")
    m = int(math.floor((b - a) / step + 1e-9)) + 1
    xs = a + np.arange(m, dtype=np.float64) * step
    # one workspace for every block, so a scan allocates (and page-faults)
    # its temporaries once instead of once per block; a block has at most
    # max(_BLOCK_CELLS, m - 1) cells, and never more than (m - 1)^2
    cells = min(max(_BLOCK_CELLS, m - 1), (m - 1) ** 2)
    work = np.empty((4, cells))
    dead_work = np.empty(cells, dtype=bool)
    best = -1.0
    bi = bj = -1
    count = 0
    lo = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while lo < m - 1:
            width = m - 1 - lo  # columns lo+1 .. m-1
            hi = min(m - 1, lo + max(1, _BLOCK_CELLS // width))
            rows = hi - lo
            D, P, R, T = (w[: rows * width].reshape(rows, width) for w in work)
            dead = dead_work[: rows * width].reshape(rows, width)
            X = xs[lo:hi, None]
            Y = xs[None, lo + 1:]
            # xs is nondecreasing, so Y - X equals |x - y| where j > i and is
            # <= 0, hence never live, on the block's cells with j <= i
            np.subtract(Y, X, out=D)
            P = _mean_values(kind, param, X, Y, P, T)
            np.abs(np.subtract(X, P, out=T), out=T)
            np.abs(np.subtract(Y, P, out=R), out=R)
            np.maximum(T, R, out=R)
            np.less_equal(D, excluded, out=dead)
            count += dead.size - int(np.count_nonzero(dead))
            R /= D
            np.copyto(R, -np.inf, where=dead)
            k = int(np.argmax(R))
            val = float(R.flat[k])
            if val > best:
                best = val
                bi = lo + k // width
                bj = lo + 1 + k % width
            lo = hi
    if bi < 0:
        return -1.0, 0.0, 0.0, 0
    return best, float(xs[bi]), float(xs[bj]), 2 * count
