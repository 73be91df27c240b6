import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equimean.errors import MembershipError
from equimean.spaces import (
    Box,
    Circle,
    FinitePoints,
    Interval,
    Product,
    as_point,
    coordinate_bounds,
    diameter,
    distance,
    is_convex,
    space_from_json,
    tuple_diameter,
    worst,
    worst_array,
    worst_of_blocks,
)

ALL_SPACES = [
    Interval(0.0, 1.0),
    Interval(-1.0, 1.0),
    Box([0.0, 0.0], [1.0, 1.0]),
    Box([-1.0, -1.0, -1.0], [1.0, 2.0, 3.0]),
    Circle(1.0, "euclidean"),
    Circle(2.5, "geodesic"),
    FinitePoints([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]),
    Product([Interval(0.0, 1.0), Circle(1.0, "geodesic")]),
]


def test_distance_examples():
    assert distance(Interval(0, 1), 0.25, 0.75) == 0.5
    c = Circle(1.0, "euclidean")
    assert distance(c, (1.0, 0.0), (-1.0, 0.0)) == pytest.approx(2.0, abs=1e-15)
    b = Box([0, 0], [1, 1])
    assert distance(b, (0.0, 0.0), (1.0, 1.0)) == pytest.approx(math.sqrt(2), abs=1e-15)


def test_geodesic_distance():
    c = Circle(2.0, "geodesic")
    quarter = (0.0, 2.0)
    assert distance(c, (2.0, 0.0), quarter) == pytest.approx(2.0 * math.pi / 2, abs=1e-12)
    assert distance(c, (2.0, 0.0), (-2.0, 0.0)) == pytest.approx(2.0 * math.pi, abs=1e-12)


def test_diameter_is_tuple_diameter_without_the_checks():
    for sp in ALL_SPACES:
        pts = sp.sample(5, 6)
        assert diameter(sp, pts) == tuple_diameter(sp, pts)
    # the unchecked form takes points off the space and an empty tuple
    assert diameter(Interval(0.0, 1.0), [(-2.0,), (3.0,)]) == 5.0
    assert diameter(Interval(0.0, 1.0), []) == 0.0
    with pytest.raises(MembershipError):
        tuple_diameter(Interval(0.0, 1.0), [(-2.0,), (3.0,)])


def test_tuple_diameter_examples():
    sp = Interval(0, 1)
    assert tuple_diameter(sp, [0.1, 0.5, 0.9]) == pytest.approx(0.8, abs=1e-15)
    assert tuple_diameter(sp, [0.3, 0.3, 0.3]) == 0.0
    b = Box([0, 0], [1, 1])
    corners = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    assert tuple_diameter(b, corners) == pytest.approx(math.sqrt(2), abs=1e-15)
    with pytest.raises(ValueError):
        tuple_diameter(sp, [])


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: repr(s))
def test_metric_axioms_on_samples(space):
    pts = space.sample(101, 30)
    for i in range(0, 30, 3):
        x, y, z = pts[i], pts[i + 1], pts[i + 2]
        assert space.d(x, x) == 0.0
        assert abs(space.d(x, y) - space.d(y, x)) <= 1e-12
        assert space.d(x, z) <= space.d(x, y) + space.d(y, z) + 1e-12
        assert space.d(x, y) >= 0.0


# a product whose factor distance squares past the largest float
OVERFLOWING = Product([Interval(0.0, 1.5e154), Interval(0.0, 1.0)])


@pytest.mark.parametrize("space", ALL_SPACES + [
    Product([Interval(0.0, 1.0), Box([0.0, -1.0], [2.0, 1.0]), Circle(1.0, "euclidean")]),
    OVERFLOWING,
], ids=lambda s: repr(s))
def test_d_batch_matches_d_bit_for_bit(space):
    a = space.sample(103, 300)
    b = space.sample(104, 299) + [a[-1]]  # the last pair coincides
    # signed zeros, and the corners of the samples' bounding box
    zero, minus = (0.0,) * space.dim, (-0.0,) * space.dim
    a += [zero, minus, minus, tuple(map(min, zip(*a)))]
    b += [minus, zero, minus, tuple(map(max, zip(*b)))]
    got = space.d_batch(np.array(a), np.array(b))
    want = np.array([space.d(p, q) for p, q in zip(a, b)])
    assert got.dtype == np.float64 and got.shape == (304,)
    assert got.tobytes() == want.tobytes()
    assert np.isinf(want).any() == (space is OVERFLOWING)
    empty = np.empty((0, space.dim))
    assert space.d_batch(empty, empty).shape == (0,)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: repr(s))
def test_sampler_returns_members(space):
    for p in space.sample(7, 50):
        assert space.contains(p)


@given(st.permutations(list(range(5))))
def test_tuple_diameter_permutation_invariant(perm):
    sp = Box([0, 0], [1, 1])
    pts = [(0.1, 0.2), (0.9, 0.8), (0.5, 0.5), (0.0, 1.0), (1.0, 0.0)]
    base = tuple_diameter(sp, pts)
    assert tuple_diameter(sp, [pts[i] for i in perm]) == base


@given(st.lists(st.floats(0, 1), min_size=1, max_size=6),
       st.floats(0, 1))
def test_tuple_diameter_monotone_under_adding(points, extra):
    sp = Interval(0, 1)
    base = tuple_diameter(sp, points)
    assert tuple_diameter(sp, points + [extra]) >= base


def test_membership_and_projection():
    c = Circle(1.0)
    assert not c.contains((1.1, 0.0))
    assert c.contains(c.project((1.1, 0.0)))
    assert c.project((0.0, 0.0)) == (1.0, 0.0)
    b = Box([0, 0], [1, 1])
    assert b.project((1.5, -0.5)) == (1.0, 0.0)
    f = FinitePoints([(0.0,), (1.0,)])
    assert f.project((0.4,)) == (0.0,)


def test_distance_rejects_non_members():
    sp = Interval(0, 1)
    with pytest.raises(MembershipError):
        distance(sp, 0.5, 1.5)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        FinitePoints([])
    with pytest.raises(ValueError):
        Circle(1.0, "chordal")
    with pytest.raises(ValueError):
        Box([0.0], [0.0])


def test_interval_and_box_refuse_a_span_that_overflows():
    # b - a overflows to inf: samples came out as inf, which contains rejects
    for make in (lambda: Interval(-1e308, 1e308),
                 lambda: Box([0.0, -1e308], [1.0, 1e308])):
        with pytest.raises(ValueError, match=r"finite length .*\[-1e\+308, 1e\+308\]"):
            make()
    assert Interval(0.0, 1.7e308).extent() == 1.7e308


# the largest float whose square is finite, and the next float up
EDGE = math.sqrt(sys.float_info.max)
OVER = math.nextafter(EDGE, math.inf)
# each kind as (space, two members whose coordinates differ by w on one axis)
SPANNED = {
    "box": lambda w: (Box([0.0, 0.0], [w, 1.0]), (0.0, 0.0), (w, 0.0)),
    "circle": lambda w: (Circle(w / 2), (w / 2, 0.0), (-w / 2, 0.0)),
    "finite_points": lambda w: (FinitePoints([[0.0], [w]]), (0.0,), (w,)),
}


@pytest.mark.parametrize("kind", sorted(SPANNED))
def test_euclidean_kinds_refuse_a_span_whose_square_overflows(kind):
    # _euclidean squares with **, which raises OverflowError past EDGE
    space, a, b = SPANNED[kind](EDGE)
    assert space.d(a, b) == EDGE
    with pytest.raises(ValueError, match=r"\^2 to be a finite float"):
        SPANNED[kind](OVER)


def test_a_geodesic_circle_refuses_a_radius_whose_products_overflow():
    # its dot and cross products reach radius^2: past this edge d(a, a) was NaN
    circle = Circle(EDGE / 2, "geodesic")
    a = circle.point_at(0.7)
    assert circle.d(a, a) == 0.0
    assert circle.d((EDGE / 2, 0.0), (-EDGE / 2, 0.0)) == math.pi * (EDGE / 2)
    with pytest.raises(ValueError, match=r"\^2 to be a finite float, got radius"):
        Circle(OVER / 2, "geodesic")


def test_worst_takes_the_first_nan_else_the_first_maximum():
    assert worst([(0.5, "a"), (2.0, "b"), (2.0, "c"), (1.0, "d")]) == (2.0, "b", 4)
    top, witness, count = worst([(0.5, "a"), (math.nan, "b"), (3.0, "c"), (math.nan, "d")])
    assert math.isnan(top) and (witness, count) == ("b", 4)
    assert worst([]) == (-math.inf, None, 0)
    assert worst([(0.0, "a"), (-1.0, "b")], 0.0) == (0.0, None, 2)
    assert worst([(-math.inf, "a")]) == (-math.inf, None, 1)
    # every pair is drawn, also after a NaN has won
    drawn = []
    scored = ((v, drawn.append(v)) for v in (1.0, math.nan, 2.0, 0.5))
    assert worst(scored)[2] == 4 and len(drawn) == 4


DEFECTS = st.lists(st.one_of(st.sampled_from([math.nan, -math.inf, math.inf, 0.0, -0.0, 1.0]),
                             st.floats(allow_nan=True, allow_infinity=True)), max_size=30)


@given(DEFECTS, st.sampled_from([-math.inf, 0.0, 1.0]))
def test_worst_array_is_worst_over_indexed_defects(values, floor):
    got = worst_array(np.array(values, dtype=np.float64), floor)
    top, witness, count = worst(((v, i) for i, v in enumerate(values)), floor)
    assert got[1:] == (witness, count)
    assert got[0] == top or math.isnan(got[0]) and math.isnan(top)
    assert type(got[0]) is float


@given(DEFECTS, st.sampled_from([-math.inf, 0.0, 1.0]), st.integers(1, 7))
def test_worst_of_blocks_is_worst_over_all_the_blocks(values, floor, size):
    blocks = ((np.array(values[first:first + size], dtype=np.float64),
               lambda i, first=first: ("at", first + i)) for first in range(0, len(values), size))
    got = worst_of_blocks(blocks, floor)
    top, witness, count = worst(((v, ("at", i)) for i, v in enumerate(values)), floor)
    assert got[1:] == (witness, count)
    assert got[0] == top or math.isnan(got[0]) and math.isnan(top)


def test_worst_array_takes_the_first_nan_else_the_first_maximum():
    assert worst_array(np.array([0.5, 2.0, 2.0, 1.0])) == (2.0, 1, 4)
    top, i, count = worst_array(np.array([0.5, math.nan, 3.0, math.nan]))
    assert math.isnan(top) and (i, count) == (1, 4)
    assert worst_array(np.array([])) == (-math.inf, None, 0)
    assert worst_array(np.array([0.0, -1.0]), 0.0) == (0.0, None, 2)
    assert worst_array(np.array([-math.inf, -math.inf])) == (-math.inf, None, 2)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: repr(s))
@settings(max_examples=30)
@given(st.data())
def test_contains_batch_is_contains_on_each_row(space, data):
    dim = data.draw(st.sampled_from([space.dim, space.dim, space.dim + 1]))
    near = st.sampled_from([-1.0 - 1e-9, -1.0, 0.0, 1e-10, 1.0, 1.0 + 2e-9, 2.0, 3.0, math.nan])
    coords = st.one_of(near, st.floats(-4.0, 4.0))
    rows = data.draw(st.lists(st.tuples(*[coords] * dim), max_size=12))
    rows += [p + (0.0,) * (dim - space.dim) for p in space.sample(5, 3)]
    X = np.array(rows, dtype=np.float64).reshape(len(rows), dim)
    assert space.contains_batch(X).tolist() == [space.contains(p) for p in rows]


def test_point_coercion_rejects_bad_values():
    with pytest.raises(ValueError):
        as_point(float("nan"))
    with pytest.raises(ValueError):
        as_point([])
    assert as_point(0.5) == (0.5,)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: repr(s))
def test_json_round_trip(space):
    desc = space.to_json()
    back = space_from_json(desc)
    assert back.to_json() == desc
    # the rebuilt space computes identical distances
    pts = space.sample(3, 6)
    for i in range(0, 6, 2):
        assert back.d(pts[i], pts[i + 1]) == space.d(pts[i], pts[i + 1])


def test_space_from_json_errors():
    with pytest.raises(ValueError):
        space_from_json({"kind": "torus", "params": {}})
    with pytest.raises(ValueError):
        space_from_json(["interval"])


@pytest.mark.parametrize("desc, message", [
    ({"kind": "interval", "params": {"a": 0}}, "interval space requires the parameter space.params.b"),
    ({"kind": "interval", "params": {"a": 0, "b": 1, "c": 2}},
     "interval space has no parameter space.params.c"),
    ({"kind": "interval", "params": {"a": False, "b": 1}},
     "interval space parameter space.params.a must be a number, got False"),
    ({"kind": "box", "params": {"lo": [0, 0], "hi": [1, True]}},
     r"box space parameter space.params.hi must be a list of numbers, got \[1, True\]"),
    ({"kind": "box", "params": {"lo": 0, "hi": [1]}},
     "box space parameter space.params.lo must be a list of numbers, got 0"),
    ({"kind": "circle", "params": {"metric": 2}},
     "circle space parameter space.params.metric must be one of euclidean, geodesic, got 2"),
    ({"kind": "finite_points", "params": {"points": [0.0, 1.0]}},
     "finite_points space parameter space.params.points must be a list of lists of numbers"),
    ({"kind": "product", "params": {"spaces": [{"kind": "box", "params": {"lo": [0]}}]}},
     r"box space requires the parameter space.params.spaces\[0\].params.hi"),
    ({"kind": "product", "params": {"spaces": {"kind": "interval"}}},
     "product space parameter space.params.spaces must be a list of spaces"),
])
def test_space_params_are_checked_where_the_space_is_built(desc, message):
    with pytest.raises(ValueError, match=message):
        space_from_json(desc)


def test_space_params_keep_their_defaults_and_ints():
    assert space_from_json({"kind": "circle"}).to_json() == Circle(1.0).to_json()
    assert space_from_json({"kind": "interval", "params": {"a": 0, "b": 2}}).params() == {
        "a": 0.0, "b": 2.0}


def test_is_convex():
    assert is_convex(Interval(0, 1))
    assert is_convex(Box([0, 0], [1, 1]))
    assert is_convex(Product([Interval(0, 1), Box([0], [1])]))
    assert not is_convex(Circle(1.0))
    assert not is_convex(Product([Interval(0, 1), Circle(1.0)]))
    assert coordinate_bounds(Product([Interval(0, 1), Box([2, 3], [4, 5])])) == (
        (0.0, 2.0, 3.0), (1.0, 4.0, 5.0))
    assert coordinate_bounds(Product([Interval(0, 1), Circle(1.0)])) is None


def test_product_metric_combines_factors():
    pr = Product([Interval(0, 1), Interval(0, 1)])
    assert pr.d((0.0, 0.0), (1.0, 1.0)) == pytest.approx(math.sqrt(2), abs=1e-15)


def test_extent_per_kind():
    assert Interval(-1.0, 2.5).extent() == 3.5
    assert Box([0.0, -1.0], [3.0, 3.0]).extent() == 5.0
    assert Circle(2.5, "geodesic").extent() == 5.0
    assert FinitePoints([(0.0, 0.0), (9.0, 0.0)]).extent() == 1.0
    assert Product([Interval(0.0, 3.0), Box([0.0], [4.0])]).extent() == 5.0
