"""Contractivity-ratio grid scan of a binary mean on an interval.

The scan evaluates the mean on cache-sized blocks of the square grid
through ``QuasiMeanMap.apply``: the map's ``batch`` on broadcast views of
the grid, or ``eval`` row by row for a map without one. A symmetric map
with a ``ratio_bound`` is scanned best first: each tile of the upper
triangle is bounded once, and the tiles are scored in decreasing order of
bound until the rest lie below the best ratio computed (branch and bound).
numpy is imported inside the function, so importing this module, and the
CLI with it, loads no numpy.

A built-in's ratio bound on a tile [xl, xh] x [yl, yh], xh < yl, is (r + E /
(yl - xh)) (1 + 8u), u = 2^-53: r >= 1/2 is the largest exact ratio on the
tile, in closed form, and E bounds |P - p(x, y)| there, P = batch([x, y]).
With P within E of p, the float ratio is at most (r + E / (y - x)) (1 + u) /
(1 - u): a subtraction is exact or within a factor 1 +- u, and a float that
bounds a quotient bounds it rounded. The bound computes r within a factor
1 - 3u (geometric's four operations err by at most 2.75u, minsq's by 2u
against r >= 1/2; an underflow moves r by under 2^-537), E with a margin of
at least 0.2% that covers its own rounding and the division's, and the sum
and the product within 1 - u each: (1 - 3u)(1 - u)^2 (1 + 8u) > (1 + u) / (1
- u). The constants' bound is the scan's own operations at the far corners,
fl(max(c - xl, yh - c) / (yl - xh)): correctly rounded, hence monotone.
"""

# cells per block: a block's few float64 temporaries (128 KB each) stay in
# a per-core cache instead of streaming through memory
BLOCK_CELLS = 16_384
# side of a tile of the best-first scan, and the most tiles a side. A bound is
# only as tight as its tile is wide (minsq scores the tiles on and next to the
# diagonal, 1.5 m TILE cells, 1% of its pairs at step 2e-4), while each tile
# costs a bound; past TILES a side (m = 8,192), tiles grow, so bounds stay 2 MB
TILE = 16
TILES = 512


class GridScan(tuple):
    """(max_ratio, argmax_x, argmax_y, pairs) of a grid scan, which also
    carries ``scored``, how many of the pairs had their ratio computed (the
    others lay in tiles that a ratio bound skipped), and ``route``, the
    line of the debug log that names the tiles and pairs."""

    def __new__(cls, values, scored: int, tiles: tuple):
        scan = super().__new__(cls, values)
        scan.scored = scored
        scan.route = (f"{tiles[0]} tiles bounded, {tiles[1]} tiles and {scored} pairs scored, "
                      f"{values[3] - scored} pairs skipped by ratio bounds")
        return scan


def grid_scan_interval(p, a: float, step: float, m: int, excluded: float) -> GridScan:
    """Max contractivity ratio of the binary map ``p`` over the square grid
    of the ``m`` points a, a + step, ..., a + (m - 2) step and the interval's
    end ``p.space.b``; returns (max_ratio, argmax_x, argmax_y, pairs).

    pairs counts the ordered pairs with gap above ``excluded`` (which must
    be >= 0), and the argmax is the first maximum of the full square in
    row-major order. A ``symmetric`` map has each unordered pair scored
    once, over the upper triangle j > i: in tiles, best first, when it has
    a ``ratio_bound``, else in whole rows; any other map has whole rows of
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
    with np.errstate(divide="ignore", invalid="ignore"):
        if p.symmetric and p.ratio_bound is not None:
            best, bi, bj, count, scored, tiles = _best_first(p, xs, excluded)
        else:
            best, bi, bj, count, scored, tiles = _rows(p, xs, excluded)
    if p.symmetric:
        scored, count = 2 * scored, 2 * count
    if bi < 0:
        return GridScan((-1.0, 0.0, 0.0, count), scored, tiles)
    return GridScan((best, float(xs[bi]), float(xs[bj]), count), scored, tiles)


def _rows(p, xs, excluded):
    """The scan in blocks of whole rows, in row-major order: j > i for a
    symmetric map, every j otherwise."""
    import numpy as np

    upper, m = p.symmetric, len(xs)
    # rows 0 .. stop-1 are scanned, the widest with stop cells, so a block has
    # at most max(BLOCK_CELLS, stop) cells, and never more than stop^2
    stop = m - 1 if upper else m
    work = np.empty((3, min(max(BLOCK_CELLS, stop), stop * stop)))
    best, bi, bj, count, lo = -1.0, -1, -1, 0, 0
    while lo < stop:
        c0 = lo + 1 if upper else 0
        width = m - c0
        hi = min(stop, lo + max(1, BLOCK_CELLS // width))
        R, live, k = _ratios(p, xs[lo:hi, None, None], xs[None, c0:, None], excluded, upper, work)
        count += live
        if R.flat[k] > best:
            best, bi, bj = float(R.flat[k]), lo + k // width, c0 + k % width
        lo = hi
    return best, bi, bj, count, count, (0, 0)


def _best_first(p, xs, excluded):
    """The scan of a symmetric map with a ``ratio_bound`` over tiles of the
    upper triangle, best first.

    The tiles within the excluded radius of the diagonal, and those whose
    bound is NaN, are scored first, in any order; the others best first,
    the tile of the highest bound alone and then blocks of the highest
    bounds left, and a tile is dropped once its bound lies strictly below
    the best ratio computed, so a dropped cell can neither win nor tie, and
    its pairs, all live, are counted unscored. Ties across blocks keep the
    pair first in row-major order. With at most TILES tiles a side, the
    bounds take at most TILES^2 floats besides the O(m) grid.
    """
    import numpy as np

    m = len(xs)
    side = max(TILE, -(-m // TILES))
    starts = np.arange(0, m, side)
    cells = starts[:, None] + np.arange(side)
    # a tile pads its last rows with b and its last columns with a, whose
    # cells have gap <= 0 and so are dead
    xr, xc = xs[np.minimum(cells, m - 1)], xs[np.where(cells < m, cells, 0)]
    n, xl, xh = len(starts), xr[:, 0], xr[:, -1]
    # bound[i, j] of the tile of rows i and columns j: -inf below the
    # diagonal, never scored, and +inf where the tile is always scored;
    # computed a few rows at a time, so that its temporaries stay small
    bound = np.full((n, n), -np.inf)
    rows = max(1, BLOCK_CELLS // n)
    with np.errstate(over="ignore"):
        for i in range(0, n, rows):
            lo, hi = (xl[i:i + rows, None], xl[i:]), (xh[i:i + rows, None], xh[i:])
            b = p.ratio_bound(lo, hi)
            bound[i:i + rows, i:] = np.where((lo[1] - hi[0] > excluded) & ~np.isnan(b), b, np.inf)
    bound[np.tri(n, k=-1, dtype=bool)] = -np.inf
    flat = bound.ravel()
    work = np.empty((3, max(BLOCK_CELLS, side * side)))
    per = max(1, BLOCK_CELLS // (side * side))
    best, first, count, tiles = -1.0, -1, 0, 0

    def blocks():
        # a scored tile's bound becomes -inf. Scoring the tile of the highest
        # bound alone first lets few tiles pass the first filter
        forced = np.flatnonzero(flat == np.inf)
        yield from (forced[s:s + per] for s in range(0, len(forced), per))
        top = np.argmax(flat, keepdims=True)
        yield from [top] if flat[top[0]] >= best else []
        left = np.flatnonzero(flat >= best)
        while len(left := left[flat[left] >= best]):
            yield left[np.argpartition(flat[left], -per)[-per:]] if len(left) > per else left

    for t in blocks():
        flat[t] = -np.inf
        tiles += len(t)
        I, J = np.divmod(t, n)
        R, live, k = _ratios(p, xr[I, :, None, None], xc[J, None, :, None], excluded, True, work)
        count += live
        val = float(R.flat[k])
        if val >= best:
            # the block's cells that reach val, as row-major positions i m + j
            b, r, c, _ = np.nonzero(R == val)
            at = int(((starts[I[b]] + r) * m + starts[J[b]] + c).min())
            if val > best or at < first:
                best, first = val, at
    # the tiles left with a finite bound were skipped; each lies above the
    # diagonal, so it has side rows
    skipped = side * int(np.isfinite(bound).sum(axis=0) @ np.minimum(side, m - starts))
    bi, bj = divmod(first, m) if first >= 0 else (-1, -1)
    return best, bi, bj, count + skipped, count, (n * (n + 1) // 2, tiles)


def _ratios(p, X, Y, excluded: float, upper: bool, work):
    """The ratios of the cells X x Y: -inf where the gap is at most
    ``excluded``, and -inf for NaN if the block holds one; with the number
    of live cells and the flat index of the first maximum. Every block of a
    scan computes them in the rows of ``work``, so that the scan allocates
    (and page-faults) its float temporaries once instead of once a block."""
    import numpy as np

    shape = np.broadcast_shapes(X.shape, Y.shape)
    n = int(np.prod(shape))
    D, R, T = (w[:n].reshape(shape) for w in work)
    # xs is nondecreasing, so in the upper triangle Y - X equals |x - y|
    # where j > i and is <= 0, hence never live, elsewhere
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
    dead = D <= excluded
    R /= D
    np.copyto(R, -np.inf, where=dead)
    k = int(np.argmax(R))
    if np.isnan(R.flat[k]):
        # argmax stops at the first NaN; a NaN ratio is never the maximum
        np.copyto(R, -np.inf, where=np.isnan(R))
        k = int(np.argmax(R))
    return R, n - int(np.count_nonzero(dead)), k
