"""Metric spaces over finite real-coordinate points.

Points are plain tuples of floats (length >= 1, every coordinate finite),
immutable and hashable. Five space kinds are provided: an interval, an
axis-aligned box, a circle embedded in the plane (with a selectable chord
or arc metric), a finite point set, and a product of spaces with the
Euclidean combination of the factor metrics.

Every space is complete; completeness is assumed, never checked.
Membership is tested to the absolute tolerance ``MEMBERSHIP_TOL`` (1e-9),
and each space offers ``project`` to snap a drifted point back onto it.

A space reads from JSON as ``{"kind": <str>, "params": {...}}``, with
each kind's params in ``_PARAMS``, through the config readers of
``_readers``.
"""

from __future__ import annotations

import math
from operator import gt
from typing import Iterable, Optional, Sequence

from ._readers import (_coordinates, _list_of, _number, _numbers, _object, _positive,
                       _one_of, _read_fields, _read_kinded, _within)
from .errors import MembershipError
from .rng import Xoshiro256StarStar, as_rng

Point = tuple  # tuple[float, ...]

MEMBERSHIP_TOL = 1e-9


def as_point(value) -> Point:
    """Coerce a scalar or coordinate sequence to a validated point."""
    if isinstance(value, (int, float)):
        coords = (float(value),)
    else:
        coords = tuple(float(c) for c in value)
    if len(coords) == 0:
        raise ValueError("a point needs at least one coordinate")
    for c in coords:
        if not math.isfinite(c):
            raise ValueError(f"non-finite coordinate in point {coords}")
    return coords


def worst(scored, floor: float = -math.inf) -> tuple:
    """(defect, witness, count) of the worst of the (defect, witness) pairs:
    the first NaN, or else the first maximum above ``floor``; (floor, None,
    count) when none wins. Every pair is consumed and counted."""
    pairs = iter(scored)
    top, witness, count = floor, None, 0
    for v, w in pairs:
        count += 1
        if not v <= top:
            top, witness = v, w
            if math.isnan(v):
                count += sum(1 for _ in pairs)
                break
    return top, witness, count


def worst_array(defects, floor: float = -math.inf) -> tuple:
    """``worst`` over a float64 array of defects in their order, with each
    defect's index as its witness: (defect, index, count), the first NaN or
    else the first maximum above ``floor``, and (floor, None, count) when
    none wins."""
    import numpy as np

    nan = np.isnan(defects)
    if nan.any():
        i = int(nan.argmax())
    elif len(defects) and defects.max() > floor:
        i = int(defects.argmax())
    else:
        return floor, None, len(defects)
    return float(defects[i]), i, len(defects)


def worst_of_blocks(blocks, floor: float = -math.inf) -> tuple:
    """(defect, witness, count): ``worst`` over the defects of consecutive
    blocks, each given as (a float64 array of defects, a function from an
    index in it to that defect's witness). The first NaN, else the first
    maximum above ``floor``, of the blocks' own winners (``worst_array``)
    is the first of all their defects."""
    winners, checked = [], 0
    for defects, witness in blocks:
        top, i, count = worst_array(defects, floor)
        checked += count
        if i is not None:
            winners.append((top, witness(i)))
    top, witness, _ = worst(winners, floor)
    return top, witness, checked


def _root_sum_squares(terms) -> float:
    """sqrt of the sum of ``t * t`` over ``terms``, added in order from 0.0:
    the one rounding of every Euclidean combination, which the array form
    ``_root_sum_squares_array`` repeats. A square that overflows is inf."""
    total = 0.0
    for t in terms:
        total += t * t
    return math.sqrt(total)


def _euclidean(a: Point, b: Point) -> float:
    # _root_sum_squares of the coordinate differences, written out: this is
    # the hot path of every scalar distance
    total = 0.0
    for x, y in zip(a, b):
        t = x - y
        total += t * t
    return math.sqrt(total)


def _root_sum_squares_array(terms, m: int):
    """``_root_sum_squares`` row by row over ``terms``, float64 arrays of
    length m, equal to it bit for bit."""
    import numpy as np

    total = np.zeros(m)
    with np.errstate(over="ignore"):
        for t in terms:
            total += t * t
    return np.sqrt(total)


def _euclidean_batch(A, B):
    return _root_sum_squares_array((A[:, k] - B[:, k] for k in range(A.shape[1])), len(A))


def _square_overflows(t: float) -> bool:
    """Whether ``t * t``, as ``_euclidean`` squares a coordinate
    difference, is not a finite float."""
    return not math.isfinite(t * t)


def _rows_within(X, lo: Sequence[float], hi: Sequence[float]):
    """Whether each row of X has len(lo) coordinates, each within
    ``MEMBERSHIP_TOL`` of [lo, hi]: the comparisons of the interval's and
    the box's ``contains``, on arrays."""
    import numpy as np

    inside = np.full(len(X), X.shape[1] == len(lo))
    if inside.any():
        for k, (lo_k, hi_k) in enumerate(zip(lo, hi)):
            inside &= (lo_k - MEMBERSHIP_TOL <= X[:, k]) & (X[:, k] <= hi_k + MEMBERSHIP_TOL)
    return inside


class MetricSpace:
    """Base class; concrete kinds implement the distance, membership,
    projection and sampling surface."""

    kind = "abstract"

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def d(self, a: Point, b: Point) -> float:
        """Metric distance; membership of the arguments is not checked."""
        raise NotImplementedError

    def d_batch(self, A, B):
        """Row-wise distances between two (m, dim) float64 arrays, equal
        bit for bit to ``d`` on each pair of rows. This form loops over
        ``d``, for the arc metric, whose array form would round differently
        from the scalar one; the other kinds have array forms."""
        import numpy as np

        pairs = zip(map(tuple, A.tolist()), map(tuple, B.tolist()))
        return np.fromiter((self.d(a, b) for a, b in pairs), dtype=np.float64, count=len(A))

    def contains(self, p: Point) -> bool:
        raise NotImplementedError

    def contains_batch(self, X):
        """``contains`` on each row of an (m, k) float64 array, as a boolean
        array. This form loops over ``contains``; intervals, boxes and
        their products have array forms with the same comparisons."""
        import numpy as np

        return np.fromiter((self.contains(tuple(x)) for x in X.tolist()), dtype=bool,
                           count=len(X))

    def extent(self) -> float:
        """A length scale of the space, for sizing search steps; 1.0 for a
        kind without one."""
        return 1.0

    def project(self, p: Point) -> Point:
        """Nearest (or canonical) member point, for drift correction."""
        raise NotImplementedError

    def sample(self, seed_or_rng, count: int) -> list[Point]:
        rng = as_rng(seed_or_rng)
        return [self._sample_one(rng) for _ in range(count)]

    def _sample_one(self, rng: Xoshiro256StarStar) -> Point:
        raise NotImplementedError

    def require_member(self, p: Point) -> None:
        if not self.contains(p):
            raise MembershipError(f"point {p} is not in {self!r}")

    def params(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": self.params()}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{type(self).__name__}({inner})"


class Interval(MetricSpace):
    """Closed interval [a, b] with the absolute-difference metric."""

    kind = "interval"

    def __init__(self, a: float, b: float):
        if not (a < b and math.isfinite(b - a)):
            raise ValueError(f"interval needs a < b and a finite length b - a, got [{a}, {b}]")
        self.a = float(a)
        self.b = float(b)

    @property
    def dim(self) -> int:
        return 1

    def d(self, a: Point, b: Point) -> float:
        return abs(a[0] - b[0])

    def d_batch(self, A, B):
        return abs(A[:, 0] - B[:, 0])

    def contains(self, p: Point) -> bool:
        return len(p) == 1 and self.a - MEMBERSHIP_TOL <= p[0] <= self.b + MEMBERSHIP_TOL

    def contains_batch(self, X):
        return _rows_within(X, (self.a,), (self.b,))

    def extent(self) -> float:
        return self.b - self.a

    def project(self, p: Point) -> Point:
        return (min(max(p[0], self.a), self.b),)

    def _sample_one(self, rng):
        return (rng.uniform(self.a, self.b),)

    def params(self) -> dict:
        return {"a": self.a, "b": self.b}


class Box(MetricSpace):
    """Axis-aligned box with the Euclidean metric."""

    kind = "box"

    def __init__(self, lo: Sequence[float], hi: Sequence[float]):
        self.lo = tuple(float(v) for v in lo)
        self.hi = tuple(float(v) for v in hi)
        if len(self.lo) != len(self.hi) or not self.lo:
            raise ValueError("box bounds must be nonempty and equal length")
        for lo_i, hi_i in zip(self.lo, self.hi):
            if not (lo_i < hi_i and math.isfinite(hi_i - lo_i)):
                raise ValueError("box needs lo < hi and a finite length hi - lo on every "
                                 f"axis, got [{lo_i}, {hi_i}]")
            if _square_overflows(hi_i - lo_i):
                raise ValueError("box needs (hi - lo)^2 to be a finite float on every axis, "
                                 f"got [{lo_i}, {hi_i}]")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def d(self, a: Point, b: Point) -> float:
        return _euclidean(a, b)

    def d_batch(self, A, B):
        return _euclidean_batch(A, B)

    def contains(self, p: Point) -> bool:
        return len(p) == self.dim and all(lo - MEMBERSHIP_TOL <= c <= hi + MEMBERSHIP_TOL
                                          for c, lo, hi in zip(p, self.lo, self.hi))

    def contains_batch(self, X):
        return _rows_within(X, self.lo, self.hi)

    def extent(self) -> float:
        return _euclidean(self.hi, self.lo)

    def project(self, p: Point) -> Point:
        return tuple(min(max(c, lo), hi) for c, lo, hi in zip(p, self.lo, self.hi))

    def _sample_one(self, rng):
        return tuple(rng.uniform(lo, hi) for lo, hi in zip(self.lo, self.hi))

    def params(self) -> dict:
        return {"lo": list(self.lo), "hi": list(self.hi)}


class Circle(MetricSpace):
    """Circle of a given radius centred at the origin of the plane.

    Points are 2-vectors on the circle. Two metrics are selectable:
    ``euclidean`` (chord length) and ``geodesic`` (radius times angle).
    """

    kind = "circle"
    metrics = ("euclidean", "geodesic")

    def __init__(self, radius: float = 1.0, metric: str = "euclidean"):
        if radius <= 0:
            raise ValueError("circle radius must be positive")
        if metric not in self.metrics:
            raise ValueError(f"unknown circle metric {metric!r}")
        # the geodesic metric's dot and cross products reach radius^2
        if _square_overflows(2.0 * radius):
            raise ValueError(f"a circle needs (2 radius)^2 to be a finite float, got radius {radius}")
        self.radius = float(radius)
        self.metric = metric

    @property
    def dim(self) -> int:
        return 2

    def d(self, a: Point, b: Point) -> float:
        if self.metric == "euclidean":
            return _euclidean(a, b)
        # angle via atan2 of cross/dot: stable for near-equal and antipodal pairs
        dot = a[0] * b[0] + a[1] * b[1]
        cross = a[0] * b[1] - a[1] * b[0]
        return self.radius * math.atan2(abs(cross), dot)

    def d_batch(self, A, B):
        if self.metric == "euclidean":
            return _euclidean_batch(A, B)
        return super().d_batch(A, B)

    def contains(self, p: Point) -> bool:
        return len(p) == 2 and abs(math.hypot(p[0], p[1]) - self.radius) <= MEMBERSHIP_TOL

    def extent(self) -> float:
        return 2.0 * self.radius

    def project(self, p: Point) -> Point:
        norm = math.hypot(p[0], p[1])
        if norm == 0.0:
            return (self.radius, 0.0)
        scale = self.radius / norm
        return (p[0] * scale, p[1] * scale)

    def point_at(self, angle: float) -> Point:
        return (self.radius * math.cos(angle), self.radius * math.sin(angle))

    def _sample_one(self, rng):
        return self.point_at(rng.uniform(0.0, 2.0 * math.pi))

    def params(self) -> dict:
        return {"radius": self.radius, "metric": self.metric}


class FinitePoints(MetricSpace):
    """Nonempty finite point set with the ambient Euclidean metric."""

    kind = "finite_points"

    def __init__(self, points: Iterable[Sequence[float]]):
        self.points = tuple(as_point(p) for p in points)
        if not self.points:
            raise ValueError("finite point set must be nonempty")
        dims = {len(p) for p in self.points}
        if len(dims) != 1:
            raise ValueError("all points must share one dimension")
        for axis, coords in enumerate(zip(*self.points)):
            if _square_overflows(max(coords) - min(coords)):
                raise ValueError("a finite point set needs (max - min)^2 to be a finite float "
                                 f"on every axis, got [{min(coords)}, {max(coords)}] on axis {axis}")

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def d(self, a: Point, b: Point) -> float:
        return _euclidean(a, b)

    def d_batch(self, A, B):
        return _euclidean_batch(A, B)

    def contains(self, p: Point) -> bool:
        if len(p) != self.dim:
            return False
        return any(_euclidean(p, q) <= MEMBERSHIP_TOL for q in self.points)

    def project(self, p: Point) -> Point:
        return min(self.points, key=lambda q: _euclidean(p, q))

    def _sample_one(self, rng):
        return rng.choice(self.points)

    def params(self) -> dict:
        return {"points": [list(p) for p in self.points]}


class Product(MetricSpace):
    """Product of spaces; coordinates concatenate and the metric is the
    Euclidean combination sqrt(sum of squared factor distances)."""

    kind = "product"

    def __init__(self, spaces: Sequence[MetricSpace]):
        self.spaces = tuple(spaces)
        if not self.spaces:
            raise ValueError("product needs at least one factor")

    @property
    def dim(self) -> int:
        return sum(s.dim for s in self.spaces)

    def _split(self, p: Point) -> list[Point]:
        parts, i = [], 0
        for s in self.spaces:
            parts.append(tuple(p[i : i + s.dim]))
            i += s.dim
        return parts

    def d(self, a: Point, b: Point) -> float:
        return _root_sum_squares(
            s.d(x, y) for s, x, y in zip(self.spaces, self._split(a), self._split(b))
        )

    def d_batch(self, A, B):
        def factor_distances():
            i = 0
            for s in self.spaces:
                yield s.d_batch(A[:, i : i + s.dim], B[:, i : i + s.dim])
                i += s.dim

        return _root_sum_squares_array(factor_distances(), len(A))

    def contains(self, p: Point) -> bool:
        if len(p) != self.dim:
            return False
        return all(s.contains(x) for s, x in zip(self.spaces, self._split(p)))

    def contains_batch(self, X):
        import numpy as np

        inside = np.full(len(X), X.shape[1] == self.dim)
        if inside.any():
            i = 0
            for s in self.spaces:
                inside &= s.contains_batch(X[:, i : i + s.dim])
                i += s.dim
        return inside

    def extent(self) -> float:
        return _root_sum_squares(s.extent() for s in self.spaces)

    def project(self, p: Point) -> Point:
        out: list[float] = []
        for s, x in zip(self.spaces, self._split(p)):
            out.extend(s.project(x))
        return tuple(out)

    def _sample_one(self, rng):
        out: list[float] = []
        for s in self.spaces:
            out.extend(s._sample_one(rng))
        return tuple(out)

    def params(self) -> dict:
        return {"spaces": [s.to_json() for s in self.spaces]}


# each kind's one field beside its kind, and its class
_KINDS = {cls.kind: ({"params": (_object, "an object", False)}, cls)
          for cls in (Interval, Box, Circle, FinitePoints, Product)}


def _point(value) -> Point:
    """A number or a nonempty list of numbers, as a point."""
    return as_point(_coordinates(value))


# each kind's parameters: name -> (reader, what it reads, required)
_PARAMS = {
    "interval": {"a": (_number, "a number", True), "b": (_number, "a number", True)},
    "box": {"lo": (_numbers, "a list of numbers", True),
            "hi": (_numbers, "a list of numbers", True)},
    "circle": {"radius": (_positive, "a positive number", False),
               "metric": (_one_of(Circle.metrics), "one of " + ", ".join(Circle.metrics), False)},
    "finite_points": {"points": (_within(_list_of(_list_of(_number, 1), 1),
                                         lambda points: len(set(map(len, points))) == 1),
                                 "a list of lists of numbers, one point or more, all of one "
                                 "dimension", True)},
    "product": {"spaces": (_list_of(_object, 1), "a list of spaces, one or more", True)},
}
# the kinds whose upper end is read against the lower: kind -> (upper, lower,
# the test of the two, what the upper must be, given the lower's path)
_ENDS = {
    "interval": ("b", "a", lambda b, a: b > a, "a number above {}"),
    "box": ("hi", "lo", lambda hi, lo: len(hi) == len(lo) > 0 and all(map(gt, hi, lo)),
            "a nonempty list of numbers, one above each of {}"),
}


def space_from_json(obj: dict, path: str = "space") -> MetricSpace:
    """Rebuild a space from its ``{"kind", "params"}`` description, the
    config object at ``path``. A missing, unknown, ill-typed or out-of-range
    kind or parameter raises ValueError naming its path, as ``space.kind``
    or ``space.params.<key>``."""
    cls, fields = _read_kinded(obj, "kind", _KINDS, "space", path)
    label, where = f"{cls.kind} space", f"{path}.params"
    args = _read_fields(fields.get("params", {}), _PARAMS[cls.kind], label, where)
    if cls.kind in _ENDS:
        upper, lower, above, what = _ENDS[cls.kind]
        read = _within(lambda v: v, lambda v: above(v, args[lower]))
        _read_fields({upper: args[upper]}, {upper: (read, what.format(f"{where}.{lower}"), True)},
                     label, where)
    if cls is Product:
        return Product([space_from_json(s, f"{path}.params.spaces[{i}]")
                        for i, s in enumerate(args["spaces"])])
    return cls(**args)


def coordinate_bounds(space: MetricSpace) -> Optional[tuple[tuple, tuple]]:
    """(lo, hi), the bounds of each coordinate of a convex space, or None
    for any other: the space is the box between them, its sampler draws
    coordinate k as lo[k] + (hi[k] - lo[k]) * r, in order, and ``project``
    clips it as min(max(c, lo[k]), hi[k])."""
    if isinstance(space, Interval):
        return (space.a,), (space.b,)
    if isinstance(space, Box):
        return space.lo, space.hi
    if isinstance(space, Product):
        bounds = [coordinate_bounds(s) for s in space.spaces]
        if None not in bounds:
            return sum((lo for lo, _ in bounds), ()), sum((hi for _, hi in bounds), ())
    return None


def is_convex(space: MetricSpace) -> bool:
    """True for the kinds on which straight-line interpolation stays
    inside the space (intervals, boxes and their products)."""
    return coordinate_bounds(space) is not None


def distance(space: MetricSpace, a, b) -> float:
    """Metric distance between two member points of ``space``."""
    a, b = as_point(a), as_point(b)
    space.require_member(a)
    space.require_member(b)
    return space.d(a, b)


def diameter(space: MetricSpace, pts: Sequence[Point]) -> float:
    """Maximum pairwise distance over points; membership is not checked."""
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            best = max(best, space.d(pts[i], pts[j]))
    return best


def tuple_diameter(space: MetricSpace, points: Sequence) -> float:
    """Maximum pairwise distance over a nonempty tuple of member points."""
    if len(points) == 0:
        raise ValueError("tuple_diameter needs at least one point")
    pts = [as_point(p) for p in points]
    for p in pts:
        space.require_member(p)
    return diameter(space, pts)
