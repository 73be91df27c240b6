"""Contractivity-ratio grid scan of a binary mean on an interval.

The grid a, a + step, ..., a + (m - 2) step, b is a list of Python floats,
bit for bit numpy's a + arange(m) * step. A symmetric map with a
``ratio_bound`` is scanned in plain Python by best-first branch and bound
over a tree of tiles of the upper triangle (Ratschek and Rokne, *New
Computer Methods for Global Optimization*, 1988): the tile of the highest
bound is taken first, a leaf of at most LEAF cells is scored through
``p.eval`` and a larger tile split, until the highest bound left lies
below the best ratio computed. Any other map is scanned on
cache-sized blocks of whole rows through ``QuasiMeanMap.apply``, in numpy.
That path alone imports numpy, inside its function, so importing this
module, or scanning a built-in bounded mean, loads no numpy.

A built-in's ratio bound on a tile [xl, xh] x [yl, yh] is (r + E / gap) (1
+ 8u), u = 2^-53, where gap > 0 is at most fl(y - x) at each cell x < y the
bound covers: fl(yl - xh) off the diagonal; on it, where the tiles of
adjacent pairs are bounded apart from those of pairs two or more apart, the
grid's smallest adjacent difference near and 2 near, a lower bound of every
two-step difference fl(x_{i+2} - x_i) (those that end on b taken apart,
only where the tile holds b); and in the scan never below the excluded
radius, which a live cell's difference exceeds. r >= 1/2 is the largest
exact ratio on the tile in closed form (minsq's from the smallest
difference gap), and E bounds |P - p(x, y)| there, P = eval([x, y]). With P
within E of p, the float ratio is at most (r + E / (y - x)) (1 + u) / (1 -
u): a subtraction is exact or within a factor 1 +- u, and a float that
bounds a quotient bounds it rounded. As fl(y - x) >= gap, y - x >= gap / (1
+ u), so E / (y - x) <= (1 + u) E / gap. The bound computes r within a
factor 1 - 3u (geometric's four operations err by at most 2.75u; minsq's by
2u against r >= 1/2, counting the u by which an exact difference may lie
below gap; an underflow moves r by under 2^-537), E with a margin of at
least 0.2% that covers its own rounding, the factor 1 + u of gap and the
division's, and the sum and the product within 1 - u each: (1 - 3u)(1 -
u)^2 (1 + 8u) > (1 + u) / (1 - u). The constants' bound is the scan's own
operations at the far corners, fl(max(c - xl, yh - c) / gap): correctly
rounded, hence monotone, and no cell's fl(y - x) lies below gap.

The two-step gap is 2 near, from the grid's smallest adjacent difference
near, not the smallest fl(x_{i+2} - x_i), which would take a second pass over
the grid. With the reals d = x_{i+1} - x_i and d' = x_{i+2} - x_{i+1}, near <=
min(fl(d), fl(d')) = fl(min(d, d')) <= fl((d + d') / 2), as rounding is
monotone. Where (d + d') / 2 >= 2^-1022, halving commutes with rounding, so
fl((d + d') / 2) = fl(d + d') / 2 and 2 near <= fl(x_{i+2} - x_i). Below
that, the subnormal case, d + d' < 2^-1021; a difference of floats is a
multiple of 2^-1074, and every such multiple below 2^-1021 is a float, so d,
d' and d + d' are exact and 2 near <= d + d' = fl(x_{i+2} - x_i). The product
2 near is exact: it is at most such a difference, hence finite, wherever four
points or more give a two-step difference that does not end on b; with
fewer, it enters only near2_b's minimum.
"""

import math
from heapq import heappop, heappush
from operator import sub

# cells of a leaf of the branch and bound: a tile of at most LEAF cells (rows
# x columns) is scored, a larger one split. Each tile costs a bound and a
# heap entry, each leaf cell an evaluation, whether it can win or not
LEAF = 32
# cells per block of the whole-row scan: a block's few float64 temporaries
# (128 KB each) stay in a per-core cache instead of streaming through memory
BLOCK_CELLS = 16_384


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
    once, over the upper triangle j > i: by branch and bound when it has a
    ``ratio_bound``, else in whole rows; any other map has whole rows of
    the full square scored.
    """
    # Upper triangle: p(x, y) == p(y, x) bit for bit, so ratio(i, j) ==
    # ratio(j, i): |x - p| and |y - p| swap, max commutes and |x - y| ==
    # |y - x|, because IEEE negation is exact. The diagonal is never live
    # (gap 0 <= excluded). Hence a maximum at (i, j) with i > j has its
    # mirror (j, i) earlier in row-major order, so the full square's first
    # maximum is the first maximum of the upper triangle read in row-major
    # order. Each live unordered pair stands for two ordered ones.
    if not excluded >= 0.0:
        raise ValueError(f"excluded radius must be >= 0, got {excluded!r}")
    xs = [a + k * step for k in range(m)]
    xs[-1] = p.space.b
    if p.symmetric and p.ratio_bound is not None:
        best, first, count, scored, tiles = _branch_and_bound(p, xs, excluded)
    else:
        best, first, count, scored, tiles = _rows(p, xs, excluded)
    if p.symmetric:
        scored, count = 2 * scored, 2 * count
    if first < 0:
        return GridScan((-1.0, 0.0, 0.0, count), scored, tiles)
    i, j = divmod(first, m)
    return GridScan((best, xs[i], xs[j], count), scored, tiles)


def _branch_and_bound(p, xs, excluded):
    """The scan of a symmetric map with a ``ratio_bound``: best first over
    a tree of tiles of the upper triangle, in plain Python.

    A tile holds cells (i, j) of index ranges [i0, i1) x [j0, j1): a band,
    the adjacent pairs (i, i + 1) of rows [i0, i1) (j0 = i0 + 1, j1 = i1 +
    1); a triangle, the pairs of [i0, i1 + 1] at least two apart (j0 = i0 +
    2, j1 = i1 + 2); or a rectangle off the diagonal (i1 < j0), whose pairs
    are at least two apart too. It is bounded once, when it is made; a NaN
    bound counts as +inf. The tile of the highest bound is taken first: a
    band of at most LEAF pairs, or another tile of at most LEAF cells of
    its ranges, is scored, a larger band halved, a larger rectangle split
    in two along its longer side, and a larger triangle into the triangles
    of the two halves of its points and the rectangle between them. A tile
    is dropped once its bound lies strictly below the best ratio computed,
    and the search stops once the highest bound left does, so a dropped
    cell can neither win nor tie; its pairs, counted in one pass, are
    counted unscored. Equal ratios keep the pair first in row-major order.
    Beside the O(m) grid, the search holds its heap of tiles.
    """
    m, ratio_bound, evaluate = len(xs), p.ratio_bound, p.eval
    # the smallest fl(y - x) of an adjacent pair, and a lower bound of those
    # of pairs two or more apart: a pair j > i lies no closer than i and i +
    # 1, or i and i + 2,
    # and rounding is monotone. b, the last point, may lie far closer to the
    # one before it than a step does, so only the tiles that hold it take
    # the differences that end on b
    near = min(map(sub, xs[1:-1], xs), default=math.inf)
    near_b = min(near, xs[-1] - xs[-2])
    near2 = 2.0 * near  # a lower bound of every two-step difference (module docstring)
    near2_b = min(near2, xs[-1] - xs[-3]) if m > 2 else math.inf
    heap, best, first, scored, bounded, leaves = [], -1.0, -1, 0, 0, 0

    def push(i0, i1, j0, j1):
        nonlocal bounded
        if i1 <= i0:  # a triangle of under three points holds no pair two apart
            return
        xl, xh, yl, yh = xs[i0], xs[i1 - 1], xs[j0], xs[j1 - 1]
        if not yh - xl > excluded:  # no live cell
            return
        if j0 - i0 == 1:  # a band
            gap = max(near if j1 < m else near_b, excluded)
        elif i1 < j0:
            gap = max(yl - xh, excluded)
        else:
            gap = max(near2 if j1 < m else near2_b, excluded)
        bound = ratio_bound(xl, xh, yl, yh, gap) if gap > 0.0 else math.inf
        bounded += 1
        if not bound < best:
            heappush(heap, (-bound if bound == bound else -math.inf, i0, i1, j0, j1))

    push(0, m - 1, 1, m)
    push(0, m - 2, 2, m)
    while heap:
        top, i0, i1, j0, j1 = heappop(heap)
        if -top < best:
            break
        band = j0 - i0 == 1
        if (i1 - i0 if band else (i1 - i0) * (j1 - j0)) > LEAF:
            if band:
                h = (i0 + i1) // 2
                push(i0, h, j0, h + 1)
                push(h, i1, h + 1, j1)
            elif i1 >= j0:  # a triangle of the points i0 .. i1 + 1
                h = (i0 + i1 + 1) // 2
                push(i0, h - 1, j0, h + 1)
                push(h, i1, h + 2, j1)
                push(i0, h, h + 1, j1)
            elif i1 - i0 >= j1 - j0:
                h = (i0 + i1) // 2
                push(i0, h, j0, j1)
                push(h, i1, j0, j1)
            else:
                h = (j0 + j1) // 2
                push(i0, i1, j0, h)
                push(i0, i1, h, j1)
            continue
        leaves += 1
        for i in range(i0, i1):
            x, row = xs[i], i * m
            for j in range(i + 1, i + 2) if band else range(max(j0, i + 2), j1):
                y = xs[j]
                d = y - x
                if d > excluded:
                    scored += 1
                    P = evaluate([(x,), (y,)])[0]
                    # P - x and y - P are NaN together, when P is, so the
                    # ratio is NaN then, and a NaN ratio never wins
                    below, above = P - x, y - P
                    ratio = (below if below > above else above) / d
                    if ratio >= best and (ratio > best or row + j < first):
                        best, first = ratio, row + j
    return best, first, _live_pairs(xs, excluded, near_b), scored, (bounded, leaves)


def _live_pairs(xs, excluded, near):
    """The pairs j > i with fl(xs[j] - xs[i]) > excluded: all of them when
    the smallest adjacent difference ``near`` exceeds it, else counted in
    one pass, as that difference grows with j and shrinks with i, so the
    first live j of a row is never below the previous row's."""
    m, j, count = len(xs), 1, 0
    if near > excluded:
        return m * (m - 1) // 2
    for i, x in enumerate(xs):
        j = max(j, i + 1)
        while j < m and not xs[j] - x > excluded:
            j += 1
        count += m - j
    return count


def _rows(p, xs, excluded):
    """The scan in numpy, in blocks of whole rows in row-major order: j > i
    for a symmetric map, every j otherwise."""
    import numpy as np

    upper, m = p.symmetric, len(xs)
    xs = np.array(xs)
    # rows 0 .. stop-1 are scanned, the widest with stop cells, so a block has
    # at most max(BLOCK_CELLS, stop) cells, and never more than stop^2
    stop = m - 1 if upper else m
    work = np.empty((3, min(max(BLOCK_CELLS, stop), stop * stop)))
    best, first, count, lo = -1.0, -1, 0, 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while lo < stop:
            c0 = lo + 1 if upper else 0
            width = m - c0
            hi = min(stop, lo + max(1, BLOCK_CELLS // width))
            R, live, k = _ratios(p, xs[lo:hi, None, None], xs[None, c0:, None], excluded, upper,
                                 work)
            count += live
            if R.flat[k] > best:
                best, first = float(R.flat[k]), (lo + k // width) * m + c0 + k % width
            lo = hi
    return best, first, count, count, (0, 0)


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
