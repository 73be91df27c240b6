"""Contractivity-ratio grid scan of a binary mean on an interval.

The scan evaluates the mean on cache-sized blocks of the square grid
through ``QuasiMeanMap.apply``: the map's ``batch`` on broadcast views of
the grid, or ``eval`` row by row for a map without one. numpy is imported
inside the function, so importing this module, and the CLI with it, loads
no numpy.
"""

# cells per block: a block's few float64 temporaries (128 KB each) stay in
# a per-core cache instead of streaming through memory
BLOCK_CELLS = 16_384


def grid_scan_interval(p, a: float, step: float, m: int, excluded: float):
    """Max contractivity ratio of the binary map ``p`` over the square grid
    of the ``m`` points a, a + step, ..., a + (m - 2) step and the interval's
    end ``p.space.b``; returns (max_ratio, argmax_x, argmax_y, pairs).

    pairs counts the ordered pairs with gap above ``excluded`` (which must
    be >= 0), and the argmax is the first maximum of the full square in
    row-major order. A ``symmetric`` map has each unordered pair scored
    once, over the upper triangle j > i; any other map has whole rows of
    the full square scored.
    """
    # Upper triangle: p(x, y) == p(y, x) bit for bit, so ratio(i, j) ==
    # ratio(j, i): |x - p| and |y - p| swap, max commutes and |x - y| ==
    # |y - x|, because IEEE negation is exact. The diagonal is never live
    # (gap 0 <= excluded). Hence a maximum at (i, j) with i > j has its
    # mirror (j, i) earlier in row-major order, so the full square's first
    # maximum is the first maximum of the upper triangle read in row-major
    # order. Each live unordered pair stands for two ordered ones.
    import numpy as np

    if not excluded >= 0.0:
        raise ValueError(f"excluded radius must be >= 0, got {excluded!r}")
    xs = a + np.arange(m, dtype=np.float64) * step
    xs[-1] = p.space.b
    upper = p.symmetric
    # rows 0 .. stop-1 are scanned; the widest row has m - 1 (upper) or m cells
    stop = m - 1 if upper else m
    # one workspace for every block, so a scan allocates (and page-faults)
    # its temporaries once instead of once per block; a block has at most
    # max(BLOCK_CELLS, stop) cells, and never more than stop^2
    cells = min(max(BLOCK_CELLS, stop), stop * stop)
    work = np.empty((3, cells))
    dead_work = np.empty(cells, dtype=bool)
    best, bi, bj, count = -1.0, -1, -1, 0
    lo = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while lo < stop:
            c0 = lo + 1 if upper else 0
            width = m - c0
            hi = min(stop, lo + max(1, BLOCK_CELLS // width))
            shape = (hi - lo, width, 1)
            n = shape[0] * width
            D, R, T = (w[:n].reshape(shape) for w in work)
            dead = dead_work[:n].reshape(shape)
            X = xs[lo:hi, None, None]
            Y = xs[None, c0:, None]
            # xs is nondecreasing, so in the upper triangle Y - X equals
            # |x - y| where j > i and is <= 0, hence never live, elsewhere
            np.subtract(Y, X, out=D)
            if not upper:
                np.abs(D, out=D)
            P = p.apply([X, Y])
            if upper:
                # x <= y, so x - p <= y - p after rounding too, and
                # max(|x - p|, |y - p|) == max(p - x, y - p) bit for bit
                np.subtract(P, X, out=T)
                np.subtract(Y, P, out=R)
            else:
                np.abs(np.subtract(X, P, out=T), out=T)
                np.abs(np.subtract(Y, P, out=R), out=R)
            np.maximum(T, R, out=R)
            np.less_equal(D, excluded, out=dead)
            count += n - int(np.count_nonzero(dead))
            R /= D
            np.copyto(R, -np.inf, where=dead)
            k = int(np.argmax(R))
            if np.isnan(R.flat[k]):
                # argmax stops at the first NaN; a NaN ratio is never the maximum
                np.copyto(R, -np.inf, where=np.isnan(R))
                k = int(np.argmax(R))
            val = float(R.flat[k])
            if val > best:
                best, bi, bj = val, lo + k // width, c0 + k % width
            lo = hi
    pairs = 2 * count if upper else count
    if bi < 0:
        return -1.0, 0.0, 0.0, pairs
    return best, float(xs[bi]), float(xs[bj]), pairs
