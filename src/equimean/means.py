"""Quasi-mean maps on metric spaces, and the estimate of their
contractivity constant.

A quasi-mean is an n-ary map X^n -> X that returns the common value on
constant tuples (unanimity). ``QuasiMeanMap`` holds such a map with its
optional array form; the built-ins are registered by name for the CLI:
``arithmetic:n``, ``geometric``, ``dictator:i``, ``constant:coords``,
``minsq``. ``derive_divisor_mean`` and ``collapse_to_quasi_mean`` build
maps of lower arity from a map. ``estimate_lambda`` estimates the
contractivity constant

    max_i d(x_i, p(x)) <= lambda * max_{j,k} d(x_j, x_k)

as a maximum of the observed ratio over a dense grid (binary means on an
interval, scanned by ``_kernels``) or over seeded random tuples refined by
hill climbing (``search``). The estimate is a lower bound witness, not a
certified supremum; the argmax tuple is reported so the claim can be
replayed.

The law checks and gates are in ``laws``, and the restart searches in
``search``, so a grid scan compiles neither.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from .errors import CapacityError, SamplingError
from .spaces import Interval, MetricSpace, Point, as_point, coordinate_bounds, is_convex

EXCLUDED_DIAMETER = 1e-6
# the work a run may plan before its first draw: the ordered pairs of a dense
# lambda grid (step 1e-4 on [0, 1] is about 10^8), or the mean evaluations of
# check_laws, random+hill or the solomonic search. The cap keeps a run to seconds
WORK_CAP = 10**9


class QuasiMeanMap:
    """An n-ary map on a space, with an optional array form.

    ``eval`` takes a sequence of n points and returns a point. ``batch``
    (optional) takes a sequence of n float64 numpy arrays that hold points
    on their last axis (length dim) and broadcast against each other on
    their leading axes, as numpy broadcasting does; it returns the map's
    values as an array whose leading axes broadcast to the common shape
    and whose last axis holds the output points. Its values equal those of
    ``eval`` bit for bit.

    ``symmetric`` promises a binary map with p(x, y) == p(y, x) bit for
    bit; the grid scan of ``estimate_lambda`` then scores each unordered
    pair once.

    ``ratio_bound`` (optional, symmetric maps on an interval) bounds the
    ratio fl(max(P - x, y - P) / (y - x)), P = ``eval([x, y])``, that the
    grid scan computes: ``ratio_bound(xl, xh, yl, yh, gap)`` takes floats,
    the corners of a tile [xl, xh] x [yl, yh] and a gap > 0, and bounds
    that ratio at every float x in [xl, xh] and y in [yl, yh] with fl(y -
    x) >= gap. The tile may straddle the diagonal; gap keeps x < y. NaN
    bounds nothing; ``_kernels`` derives the built-ins'. A tracer may
    replace ``eval`` and ``batch`` on an instance.
    """

    def __init__(self, arity: int, space: MetricSpace, eval: Callable, label: str,
                 batch: Optional[Callable] = None, symmetric: bool = False,
                 ratio_bound: Optional[Callable] = None):
        self.arity, self.space, self.eval, self.label = arity, space, eval, label
        self.batch, self.symmetric, self.ratio_bound = batch, symmetric, ratio_bound

    def __call__(self, *points) -> Point:
        pts = [as_point(p) for p in points]
        if len(pts) != self.arity:
            raise ValueError(f"{self.label} needs {self.arity} arguments, got {len(pts)}")
        return self.eval(pts)

    def apply(self, arrays):
        """The map on arrays of points, as ``batch`` takes them: through
        ``batch`` when the map has one, else ``eval`` row by row on the
        broadcast inputs."""
        if self.batch is not None:
            return self.batch(arrays)
        import numpy as np

        arrays = np.broadcast_arrays(*arrays)
        lead = arrays[0].shape[:-1]
        rows = zip(*(arr.reshape(-1, arr.shape[-1]).tolist() for arr in arrays))
        out = np.array([self.eval([tuple(pt) for pt in row]) for row in rows], dtype=np.float64)
        return out.reshape(lead + (-1,))


# ---------------------------------------------------------------------------
# contractivity constant estimation


def _but_route(record):
    """A record's class and its fields but the last, ``route``, which is
    logged, never reported and never compared; any other value as it is."""
    return (type(record), record[:-1]) if isinstance(record, tuple) else record


class LambdaEstimate(NamedTuple):
    lambda_hat: float
    argmax_tuple: tuple
    samples: int
    excluded_diagonal_radius: float
    method: str = "grid"
    # the lane and restarts random+hill took, or the pairs a grid scan
    # scored and skipped; logged, never reported
    route: str = ""

    __eq__ = lambda self, other: _but_route(self) == _but_route(other)
    __ne__ = lambda self, other: _but_route(self) != _but_route(other)
    __hash__ = lambda self: hash(_but_route(self))

    def to_json(self) -> dict:
        fields = self._asdict()
        del fields["route"]
        return {**fields, "argmax_tuple": [list(p) for p in self.argmax_tuple]}

    def csv_header(self) -> list[str]:
        return ["lambda_hat", "samples", "excluded_diagonal_radius", "method", "argmax_tuple"]

    def csv_row(self) -> list[str]:
        return [
            repr(self.lambda_hat),
            str(self.samples),
            repr(self.excluded_diagonal_radius),
            self.method,
            ";".join(",".join(repr(c) for c in p) for p in self.argmax_tuple),
        ]


class LambdaConfig(NamedTuple):
    grid_step: float = 1e-3
    excluded_diameter: float = EXCLUDED_DIAMETER
    restarts: int = 100
    seed: int = 1


def estimate_lambda(p: QuasiMeanMap, cfg: LambdaConfig = LambdaConfig()) -> LambdaEstimate:
    """Estimate the contractivity constant by ratio maximization.

    Binary means on an interval are scanned over the dense step grid,
    which ends on the interval's end b even when the step does not divide
    its length; every other map uses seeded random tuples with hill
    climbing.
    Tuples with diameter at or below the excluded radius are skipped.
    """
    if p.arity == 2 and isinstance(p.space, Interval):
        return _estimate_grid(p, cfg)
    from .search import _estimate_random

    return _estimate_random(p, cfg)


def _grid_points(a: float, b: float, step: float) -> int:
    """Number of grid points a + k*step on [a, b], plus b itself when the
    last of them falls short of b by more than rounding; raises
    CapacityError when their ordered pairs exceed WORK_CAP."""
    span = (b - a) / step + 1e-9
    m = int(math.floor(span)) + 1 if math.isfinite(span) else math.inf
    # else a step of 10^9 (b - a) or more would leave the one point a
    if m < math.inf and (m == 1 or b - (a + (m - 1) * step) > 1e-9 * step):
        m += 1
    if m * (m - 1) > WORK_CAP:
        raise CapacityError(
            f"grid step {step!r} on [{a!r}, {b!r}] gives {_count(m)} points, whose "
            f"{_count(m * (m - 1))} ordered pairs exceed the cap {WORK_CAP}"
        )
    return m


def _count(n) -> str:
    """A count as a message states it: in full up to 10^15, beyond that to
    three digits (a tiny grid step makes counts of hundreds of digits, and
    pair counts past a float's range)."""
    if n == math.inf or n <= 10**15:
        return str(n)
    from decimal import Decimal

    return f"{Decimal(n):.3g}"


def _estimate_grid(p: QuasiMeanMap, cfg: LambdaConfig) -> LambdaEstimate:
    from . import _kernels

    a = p.space.a
    m = _grid_points(a, p.space.b, cfg.grid_step)
    scan = _kernels.grid_scan_interval(p, a, cfg.grid_step, m, cfg.excluded_diameter)
    lam, x, y, count = scan
    if count == 0:
        raise SamplingError("every grid tuple fell inside the excluded diagonal radius")
    return LambdaEstimate(lam, ((x,), (y,)), count, cfg.excluded_diameter, route=scan.route)


# ---------------------------------------------------------------------------
# derived constructions


def derive_divisor_mean(p: QuasiMeanMap, k: int) -> QuasiMeanMap:
    """Arity-k map q(x_1..x_k) = p(block repeated n/k times); inherits
    unanimity, and anonymity/equivariance when p has them."""
    if k < 2:
        raise ValueError("derived arity must be >= 2")
    if p.arity % k != 0:
        raise ValueError(f"{k} does not divide {p.arity}")
    reps = p.arity // k

    def func(points):
        return p.eval(list(points) * reps)

    batch = None
    if p.batch is not None:
        batch = lambda arrays: p.batch(list(arrays) * reps)
    return QuasiMeanMap(k, p.space, func, f"{p.label}/divisor:{k}", batch=batch)


def collapse_to_quasi_mean(p: QuasiMeanMap) -> QuasiMeanMap:
    """Binary map p'(x, y) = p(x, y, ..., y); keeps the contractivity
    constant and equivariance of p."""
    tail = p.arity - 1

    def func(points):
        x, y = points
        return p.eval([x] + [y] * tail)

    batch = None
    if p.batch is not None:
        batch = lambda arrays: p.batch([arrays[0]] + [arrays[1]] * tail)
    return QuasiMeanMap(2, p.space, func, f"{p.label}/collapsed", batch=batch,
                        symmetric=p.symmetric and p.arity == 2)


# ---------------------------------------------------------------------------
# built-in registry


def _ratio_bound(ratio: Callable, error: Callable) -> Callable:
    """(r + E / gap) (1 + 8u), r = ``ratio(xl, xh, yl, yh, gap)``, E = ``error(xl, xh, yl, yh)``."""
    return lambda xl, xh, yl, yh, gap: ((ratio(xl, xh, yl, yh, gap)
                                         + error(xl, xh, yl, yh) / gap) * (1 + 2.0**-50))


def arithmetic_mean(space: MetricSpace, arity: int = 2) -> QuasiMeanMap:
    _require_convex(space, "arithmetic mean")
    # a sum of arity coordinates of at most 2^top each in absolute value stays
    # below 2^1024 after each rounding: arity < 2^bit_length
    top = 1024 - arity.bit_length()
    lo, hi = coordinate_bounds(space)
    widest = max(map(abs, lo + hi))
    if widest > 2.0**top:
        raise ValueError(f"arithmetic:{arity} mean needs coordinates of absolute value "
                         f"<= 2^{top}, got {widest!r}")

    def func(points):
        # start at -0.0, as batch does in effect: 0 + -0.0 would drop the sign
        return tuple(sum(col, -0.0) / arity for col in zip(*points))

    def batch(arrays):
        total = arrays[0]
        for arr in arrays[1:]:
            total = total + arr
        return total / arity

    # ratio 1/2; fl(x + y) / 2 errs by u |x + y| / 2 (u = 2^-53 = 1.11e-16) + 2^-1075
    bound = _ratio_bound(lambda *tile: 0.5,
                         lambda xl, xh, yl, yh: 5.6e-17 * max(abs(xl + yl), abs(xh + yh)) + 5e-324)
    return QuasiMeanMap(arity, space, func, f"arithmetic:{arity}", batch=batch,
                        symmetric=arity == 2, ratio_bound=bound if arity == 2 else None)


def geometric_mean(space: Interval) -> QuasiMeanMap:
    if not isinstance(space, Interval) or space.a <= 0:
        raise ValueError("geometric mean needs an interval with a > 0")
    if space.b > 2.0**511:  # where x * y can overflow
        raise ValueError(f"geometric mean needs b <= 2^511, got b = {space.b!r}")

    def func(points):
        (x,), (y,) = points
        return (math.sqrt(x * y),)

    def batch(arrays):
        import numpy as np

        return np.sqrt(arrays[0] * arrays[1])

    # ratio 1 / (1 + sqrt(x / y)), largest at (xl, yh); batch errs by 1.5u sqrt(xy) + 2^-537.5
    bound = _ratio_bound(lambda xl, xh, yl, yh, gap: 1 / (1 + math.sqrt(xl / yh)),
                         lambda xl, xh, yl, yh: 1.67e-16 * math.sqrt(xh * yh) + 2.0**-537)
    return QuasiMeanMap(2, space, func, "geometric", batch=batch, symmetric=True, ratio_bound=bound)


def dictator_mean(space: MetricSpace, index: int = 0, arity: int = 2) -> QuasiMeanMap:
    if not 0 <= index < arity:
        raise ValueError("dictator index out of range")

    def func(points):
        return points[index]

    def batch(arrays):
        return arrays[index]

    return QuasiMeanMap(arity, space, func, f"dictator:{index}", batch=batch)


def constant_mean(space: MetricSpace, point) -> QuasiMeanMap:
    pt = as_point(point)
    space.require_member(pt)

    def func(points):
        return pt

    def batch(arrays):
        import numpy as np

        return np.broadcast_to(np.asarray(pt), arrays[0].shape).copy()

    bound = lambda xl, xh, yl, yh, gap: max(pt[0] - xl, yh - pt[0]) / gap  # monotone
    label = "constant:" + ",".join(repr(c) for c in pt)
    return QuasiMeanMap(2, space, func, label, batch=batch, symmetric=True, ratio_bound=bound)


def min_plus_halfsquare_mean(space: Interval) -> QuasiMeanMap:
    """min{x, y} + |x - y|^2 / 2: strictly between its arguments yet not
    contractive for any constant below 1."""
    if not isinstance(space, Interval) or space.b - space.a > 2.0:
        raise ValueError("minsq mean needs an interval of length <= 2")

    def func(points):
        (x,), (y,) = points
        return (min(x, y) + (x - y) * (x - y) * 0.5,)

    def batch(arrays):
        import numpy as np

        X, Y = arrays[0], arrays[1]
        # the operations of func, two temporaries in place of five
        half_square = np.subtract(X, Y)
        half_square *= half_square
        half_square *= 0.5
        return np.add(np.minimum(X, Y), half_square, out=half_square)

    # g = y - x >= gap, ratio max(g / 2, 1 - g / 2); batch errs by u |p| + 1.5u g^2 +
    # 2^-1074, where |p| <= max(|xl|, |yh|) + g^2 / 2
    bound = _ratio_bound(lambda xl, xh, yl, yh, gap: max((yh - xl) / 2, 1 - gap / 2),
                         lambda xl, xh, yl, yh: 1.12e-16 * (max(abs(xl), abs(yh))
                                                            + 2 * (yh - xl) * (yh - xl))
                         + 2.0**-1073)
    return QuasiMeanMap(2, space, func, "minsq", batch=batch, symmetric=True, ratio_bound=bound)


def _require_convex(space: MetricSpace, what: str) -> None:
    if not is_convex(space):
        raise ValueError(f"{what} is not closed on a {space.kind} space")


MEAN_NAMES = ("arithmetic[:n] with an integer n >= 2, geometric, dictator[:i] with i 0 or 1, "
              "constant:c0[,c1,...] or minsq")


def mean_from_name(name: str, space: MetricSpace) -> QuasiMeanMap:
    """The mean a registry name gives, one of MEAN_NAMES: arithmetic has
    arity 2 and dictator index 0 when the name omits them. Any other name
    raises ValueError naming it and MEAN_NAMES."""
    head, colon, tail = name.partition(":")
    if not colon and head in ("geometric", "minsq"):
        return geometric_mean(space) if head == "geometric" else min_plus_halfsquare_mean(space)
    if head == "constant":
        try:
            coords = [float(v) for v in tail.split(",")]
        except ValueError:  # no coordinates, or one that is no float
            coords = None
        if coords is not None:
            return constant_mean(space, coords)
    if head in ("arithmetic", "dictator"):
        if not colon:
            return arithmetic_mean(space, 2) if head == "arithmetic" else dictator_mean(space, 0)
        if tail.isascii() and tail.isdigit():
            number = int(tail)
            if head == "arithmetic" and number >= 2:
                return arithmetic_mean(space, number)
            if head == "dictator" and number < 2:
                return dictator_mean(space, number)
    raise ValueError(f"unknown mean name {name!r}; the names are {MEAN_NAMES}")
