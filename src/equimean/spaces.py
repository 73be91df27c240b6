"""Metric spaces over finite real-coordinate points.

Points are plain tuples of floats (length >= 1, every coordinate finite),
immutable and hashable. Five space kinds are provided: an interval, an
axis-aligned box, a circle embedded in the plane (with a selectable chord
or arc metric), a finite point set, and a product of spaces with the
Euclidean combination of the factor metrics.

Every space is complete; completeness is assumed, never checked.
Membership is tested to an absolute tolerance (default 1e-9) and each
space offers ``project`` to snap a drifted point back onto it.

JSON schema (documented for the CLI): ``{"kind": <str>, "params": {...}}``
with kinds ``interval {a, b}``, ``box {lo, hi}``,
``circle {radius, metric}``, ``finite_points {points}`` and
``product {spaces}``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

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


def _euclidean(a: Point, b: Point) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


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
        ``d``: array forms of the Euclidean and arc metrics round
        differently from the scalar ones."""
        import numpy as np

        pairs = zip(map(tuple, A.tolist()), map(tuple, B.tolist()))
        return np.fromiter((self.d(a, b) for a, b in pairs), dtype=np.float64, count=len(A))

    def contains(self, p: Point, tol: float = MEMBERSHIP_TOL) -> bool:
        raise NotImplementedError

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

    def require_member(self, p: Point, tol: float = MEMBERSHIP_TOL) -> None:
        if not self.contains(p, tol):
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

    def contains(self, p: Point, tol: float = MEMBERSHIP_TOL) -> bool:
        return len(p) == 1 and self.a - tol <= p[0] <= self.b + tol

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

    @property
    def dim(self) -> int:
        return len(self.lo)

    def d(self, a: Point, b: Point) -> float:
        return _euclidean(a, b)

    def contains(self, p: Point, tol: float = MEMBERSHIP_TOL) -> bool:
        return len(p) == self.dim and all(
            lo - tol <= c <= hi + tol for c, lo, hi in zip(p, self.lo, self.hi)
        )

    def extent(self) -> float:
        return math.sqrt(sum((h - l) ** 2 for l, h in zip(self.lo, self.hi)))

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

    def __init__(self, radius: float = 1.0, metric: str = "euclidean"):
        if radius <= 0:
            raise ValueError("circle radius must be positive")
        if metric not in ("euclidean", "geodesic"):
            raise ValueError(f"unknown circle metric {metric!r}")
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

    def contains(self, p: Point, tol: float = MEMBERSHIP_TOL) -> bool:
        return len(p) == 2 and abs(math.hypot(p[0], p[1]) - self.radius) <= tol

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

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def d(self, a: Point, b: Point) -> float:
        return _euclidean(a, b)

    def contains(self, p: Point, tol: float = MEMBERSHIP_TOL) -> bool:
        if len(p) != self.dim:
            return False
        return any(_euclidean(p, q) <= tol for q in self.points)

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
        return math.sqrt(
            sum(s.d(x, y) ** 2 for s, x, y in zip(self.spaces, self._split(a), self._split(b)))
        )

    def contains(self, p: Point, tol: float = MEMBERSHIP_TOL) -> bool:
        if len(p) != self.dim:
            return False
        return all(s.contains(x, tol) for s, x in zip(self.spaces, self._split(p)))

    def extent(self) -> float:
        return math.sqrt(sum(s.extent() ** 2 for s in self.spaces))

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


_KINDS = {cls.kind: cls for cls in (Interval, Box, Circle, FinitePoints, Product)}


def space_from_json(obj: dict) -> MetricSpace:
    """Rebuild a space from its ``{"kind", "params"}`` description."""
    try:
        kind = obj["kind"]
        params = dict(obj.get("params", {}))
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed space description: {obj!r}") from exc
    if kind not in _KINDS:
        raise ValueError(f"unknown space kind {kind!r}")
    if kind == "product":
        return Product([space_from_json(s) for s in params["spaces"]])
    return _KINDS[kind](**params)


def is_convex(space: MetricSpace) -> bool:
    """True for the kinds on which straight-line interpolation stays
    inside the space (intervals, boxes and their products)."""
    if isinstance(space, (Interval, Box)):
        return True
    if isinstance(space, Product):
        return all(is_convex(s) for s in space.spaces)
    return False


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
