import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from equimean.errors import MembershipError
from equimean.spaces import (
    Box,
    Circle,
    FinitePoints,
    Interval,
    Product,
    as_point,
    diameter,
    distance,
    is_convex,
    space_from_json,
    tuple_diameter,
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


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: repr(s))
def test_d_batch_matches_d_bit_for_bit(space):
    a = space.sample(103, 300)
    b = space.sample(104, 299) + [a[-1]]  # the last pair coincides
    got = space.d_batch(np.array(a), np.array(b))
    want = np.array([space.d(p, q) for p, q in zip(a, b)])
    assert got.dtype == np.float64 and got.shape == (300,)
    assert got.tobytes() == want.tobytes()
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


def test_is_convex():
    assert is_convex(Interval(0, 1))
    assert is_convex(Box([0, 0], [1, 1]))
    assert is_convex(Product([Interval(0, 1), Box([0], [1])]))
    assert not is_convex(Circle(1.0))
    assert not is_convex(Product([Interval(0, 1), Circle(1.0)]))


def test_product_metric_combines_factors():
    pr = Product([Interval(0, 1), Interval(0, 1)])
    assert pr.d((0.0, 0.0), (1.0, 1.0)) == pytest.approx(math.sqrt(2), abs=1e-15)
