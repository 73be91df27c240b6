"""Contractivity-ratio grid scan of a binary mean on an interval.

The scan evaluates the mean on cache-sized blocks of the square grid
through ``QuasiMeanMap.apply``: the map's ``batch`` on broadcast views of
the grid, or ``eval`` row by row for a map without one. A symmetric map
with an ``enclose`` skips the tiles of the grid that its enclosure proves
below the best ratio found so far (branch and bound). numpy is imported
inside the function, so importing this module, and the CLI with it, loads
no numpy.
"""

# cells per block: a block's few float64 temporaries (128 KB each) stay in
# a per-core cache instead of streaming through memory
BLOCK_CELLS = 16_384
# rows of a strip, and columns of a tile, of the pruned scan: a tile's bound
# is only as tight as its width (minsq prunes no tile closer to the diagonal
# than about 2 sqrt(TILE step)), while each strip costs one pass over its
# m / TILE tiles and at least one block. On geometric and minsq at steps 4e-4
# and 2e-4, 16 scored fewer pairs than 24 or 32 in about the same time
TILE = 16


class GridScan(tuple):
    """(max_ratio, argmax_x, argmax_y, pairs) of a grid scan, which also
    carries ``scored``: how many of the pairs had their ratio computed; the
    others lay in tiles that the map's enclosure skipped."""

    def __new__(cls, values, scored: int):
        scan = super().__new__(cls, values)
        scan.scored = scored
        return scan


def grid_scan_interval(p, a: float, step: float, m: int, excluded: float) -> GridScan:
    """Max contractivity ratio of the binary map ``p`` over the square grid
    of the ``m`` points a, a + step, ..., a + (m - 2) step and the interval's
    end ``p.space.b``; returns (max_ratio, argmax_x, argmax_y, pairs).

    pairs counts the ordered pairs with gap above ``excluded`` (which must
    be >= 0), and the argmax is the first maximum of the full square in
    row-major order. A ``symmetric`` map has each unordered pair scored
    once, over the upper triangle j > i, in strips of TILE rows when it has
    an ``enclose``; any other map has whole rows of the full square scored.
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
    prune = upper and p.enclose is not None
    # rows 0 .. stop-1 are scanned; the widest row has m - 1 (upper) or m cells
    stop = m - 1 if upper else m
    # one workspace for every block, so a scan allocates (and page-faults)
    # its temporaries once instead of once per block; a block has at most
    # max(BLOCK_CELLS, stop) cells, and never more than stop^2
    cells = min(max(BLOCK_CELLS, stop), stop * stop)
    work = np.empty((3, cells))
    dead_work = np.empty(cells, dtype=bool)
    best, bi, bj, count, skipped = -1.0, -1, -1, 0, 0
    # blocks end at check, where a pruned scan bounds its next strip
    lo, check, wait, kept = 0, 0 if prune else stop, TILE, None
    corners = _tile_corners(xs) if prune else None
    with np.errstate(divide="ignore", invalid="ignore"):
        while lo < stop:
            if prune and lo >= check:
                # a strip of rows lo .. check-1, up to the next multiple of
                # TILE, scores only the columns its enclosure keeps. When it
                # skips no tile, whole rows j > i are scored, in the blocks
                # of an unpruned scan, and the next strip is checked twice
                # as many rows later, so a map whose bounds never prune
                # (arithmetic) pays for few checks
                check = min(stop, (lo // TILE + 1) * TILE)
                kept = _kept_columns(p, xs, corners, lo, check, excluded, best)
                if kept is None:
                    wait *= 2
                    check = min(stop, lo + wait)
                else:
                    wait = TILE
                    skipped += (check - lo) * (m - lo - 1 - len(kept))
                    Y_kept = xs[None, kept, None]
            c0 = lo + 1 if upper else 0
            Y = xs[None, c0:, None] if kept is None else Y_kept
            width = Y.shape[1]
            hi = min(check, lo + max(1, BLOCK_CELLS // width))
            shape = (hi - lo, width, 1)
            n = shape[0] * width
            D, R, T = (w[:n].reshape(shape) for w in work)
            dead = dead_work[:n].reshape(shape)
            X = xs[lo:hi, None, None]
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
                best, bi = val, lo + k // width
                bj = c0 + k % width if kept is None else int(kept[k % width])
            lo = hi
    scored = count
    count += skipped
    if upper:
        scored, count = 2 * scored, 2 * count
    if bi < 0:
        return GridScan((-1.0, 0.0, 0.0, count), scored)
    return GridScan((best, float(xs[bi]), float(xs[bj]), count), scored)


def _tile_corners(xs):
    """The first and the last point of every TILE columns of the grid
    ``xs``, as an array of shape (2, tiles, 1)."""
    import numpy as np

    starts = np.arange(0, len(xs), TILE)
    return np.stack([xs[starts], xs[np.minimum(starts + TILE, len(xs)) - 1]])[..., None]


def _kept_columns(p, xs, corners, r0: int, r1: int, excluded: float, best: float):
    """The columns j > r0 that the strip of rows r0 .. r1-1 must score, in
    ascending order, or None when the enclosure of ``p`` skips no tile.

    A tile is the TILE columns from a multiple of TILE on, and ``corners``
    holds the first and the last grid point of every tile. A tile wholly
    right of the strip that lies gap = fl(yl - xh) above ``excluded`` from
    it has every cell live, and its bound U = fl(max(fl(p_hi - xl), fl(yh -
    p_lo)) / gap) is at least each of its cells' ratios: for x in [xl, xh]
    and y in [yl, yh], fl(p - x) <= fl(p_hi - xl), fl(y - p) <= fl(yh - p_lo)
    and fl(y - x) >= gap, since correctly rounded operations are monotone,
    and the numerator is >= 0. The tile is skipped when U < best, a ratio
    the scan has already computed, so a skipped cell neither wins nor ties;
    a NaN bound skips nothing. The bounds take O(m / TILE) floats, and the
    kept columns O(m), as ``xs`` does.
    """
    import numpy as np

    first = -(-r1 // TILE)  # the first tile wholly right of the strip
    yl, yh = corners[:, first:]
    xl, xh = xs[r0:r0 + 1, None], xs[r1 - 1:r1, None]
    p_lo, p_hi = p.enclose([xl, yl], [xh, yh])
    gap = yl - xh
    skip = np.maximum(p_hi - xl, yh - p_lo) / gap < best
    skip &= gap > excluded
    if not skip.any():
        return None
    keep = np.ones(len(xs) - r0 - 1, dtype=bool)
    keep[first * TILE - r0 - 1:] = np.repeat(~skip[:, 0], TILE)[:len(xs) - first * TILE]
    return np.flatnonzero(keep) + (r0 + 1)
