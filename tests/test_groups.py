import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equimean.errors import CapacityError, GroupConstructionError, ToleranceError
from equimean import groups
from equimean.groups import (
    CYCLIC_ORDER_CAP,
    POINT_TOL,
    FiniteGroup,
    GroupAction,
    Subgroup,
    action_from_json,
    check_action,
    coordinate_permutation_action,
    cyclic,
    dihedral,
    enumerate_subgroups,
    fixed_defect,
    full_subgroup,
    klein_four,
    negation_action,
    orbit,
    plane_rotation_action,
    reflection_action,
    rotation_action,
    stabilizer,
    swap_axes_action,
    symmetric,
    trivial_action,
)
from equimean.spaces import Box, Circle, Interval, Product

# Latin square with identity and two-sided inverses that is not
# associative (witness (1,1,2): (1*1)*2 = 2 but 1*(1*2) = 4)
NONASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_make_group_examples():
    z2 = FiniteGroup([[0, 1], [1, 0]])
    assert z2.order == 2 and z2.inv(1) == 1
    z4 = cyclic(4)
    assert z4.inv(2) == 2  # self-inverse element
    assert z4.mul(3, 2) == 1


def test_make_group_no_inverse():
    with pytest.raises(GroupConstructionError, match="no inverse for element 1"):
        FiniteGroup([[0, 1], [1, 1]])


def test_make_group_not_associative():
    with pytest.raises(GroupConstructionError, match=r"not associative at triple \(1, 1, 2\)"):
        FiniteGroup(NONASSOCIATIVE_LOOP)


def test_make_group_shape_and_identity_errors():
    with pytest.raises(GroupConstructionError, match="identity"):
        FiniteGroup([[1, 0], [0, 1]])
    with pytest.raises(GroupConstructionError, match="not closed"):
        FiniteGroup([[0, 1], [1, 2]])
    with pytest.raises(GroupConstructionError, match="length"):
        FiniteGroup([[0, 1], [1]])


def _brute_force_subgroups(G: FiniteGroup) -> set:
    """Every subset containing 0 that is closed under product and inverse."""
    rest = [g for g in range(G.order) if g != 0]
    found = set()
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            mem = frozenset((0,) + combo)
            closed = all(
                G.mul(a, b) in mem and G.inv(a) in mem for a in mem for b in mem
            )
            if closed:
                found.add(mem)
    return found


@pytest.mark.parametrize(
    "G,expected_count",
    [
        (cyclic(2), 2),
        (cyclic(4), 3),
        (cyclic(6), 4),
        (cyclic(8), 4),
        (symmetric(3), 6),
        (klein_four(), 5),
        (dihedral(4), 10),
    ],
    ids=["Z2", "Z4", "Z6", "Z8", "S3", "V4", "D4"],
)
def test_enumerate_subgroups_matches_brute_force(G, expected_count):
    subs = enumerate_subgroups(G)
    assert len(subs) == expected_count
    assert {frozenset(s.members) for s in subs} == _brute_force_subgroups(G)
    # sorted by order, trivial first, full group last
    assert subs[0].members == (0,)
    assert subs[-1].order == G.order


def test_z4_subgroup_members():
    subs = enumerate_subgroups(cyclic(4))
    assert [s.members for s in subs] == [(0,), (0, 2), (0, 1, 2, 3)]
    assert 0 in subs[1] and 2 in subs[1]
    assert 1 not in subs[1] and 4 not in subs[1]


def test_subgroup_validation():
    z4 = cyclic(4)
    with pytest.raises(GroupConstructionError):
        Subgroup(z4, (0, 1))  # not closed: 1+1=2 missing
    with pytest.raises(GroupConstructionError):
        Subgroup(z4, (1, 2))  # no identity
    assert Subgroup(z4, (0,)).order == 1
    assert full_subgroup(z4).order == 4


@pytest.mark.parametrize("members", [(0, 7), (0, 4), (0, -1)])
def test_subgroup_rejects_ids_outside_the_group(members):
    bad = members[1]
    with pytest.raises(GroupConstructionError, match=f"id {bad} outside 0..3"):
        Subgroup(cyclic(4), members)


def test_enumerate_subgroups_capacity():
    with pytest.raises(CapacityError):
        enumerate_subgroups(cyclic(65))


def test_cyclic_refuses_an_order_over_the_cap_before_building_its_table(monkeypatch):
    built = []
    monkeypatch.setattr(groups, "FiniteGroup", lambda table, name: built.append(len(table)))
    cyclic(CYCLIC_ORDER_CAP)
    for make in (cyclic, lambda n: plane_rotation_action(Box([-1, -1], [1, 1]), n)):
        with pytest.raises(CapacityError,
                           match=f"order {CYCLIC_ORDER_CAP + 1} exceeds the cap {CYCLIC_ORDER_CAP}"):
            make(CYCLIC_ORDER_CAP + 1)
    assert built == [CYCLIC_ORDER_CAP]


def test_orbit_examples():
    sp = Interval(-1.0, 1.0)
    act = negation_action(sp)
    assert sorted(p[0] for p in orbit(act, (0.5,))) == [-0.5, 0.5]
    assert orbit(act, (0.0,)) == [(0.0,)]
    circle = Circle(1.0)
    rot = rotation_action(circle, 4)
    assert len(orbit(rot, (1.0, 0.0))) == 4


def test_stabilizer_examples():
    sp = Interval(-1.0, 1.0)
    act = negation_action(sp)
    assert stabilizer(act, (0.0,)).members == (0, 1)
    assert stabilizer(act, (0.5,)).members == (0,)
    rot = rotation_action(Circle(1.0), 4)
    assert stabilizer(rot, (1.0, 0.0)).members == (0,)


def test_is_fixed_by_examples():
    box = Box([-1, -1], [1, 1])
    act = reflection_action(box, axis=1)
    H = full_subgroup(act.group)
    assert fixed_defect(act, H.members, (0.3, 0.0)) <= POINT_TOL
    assert not fixed_defect(act, H.members, (0.3, 0.2)) <= 1e-9
    assert fixed_defect(act, Subgroup(act.group, (0,)).members, (0.3, 0.2)) <= POINT_TOL


def test_fixed_defect_is_the_worst_displacement_and_nan_never_fixes():
    box = Box([-1, -1], [1, 1])
    act = reflection_action(box, axis=1)
    H = full_subgroup(act.group)
    assert fixed_defect(act, H.members, (0.3, 0.2)) == 0.4
    assert fixed_defect(act, (0,), (0.3, 0.2)) == 0.0
    # the NaN displacement is the second one, where max() would drop it
    blur = GroupAction(act.group, box, lambda g, x: x if g == 0 else (math.nan, x[1]))
    assert math.isnan(fixed_defect(blur, H.members, (0.3, 0.0)))
    assert not fixed_defect(blur, H.members, (0.3, 0.0)) <= POINT_TOL


CUBE = Box([-1, -1, -1], [1, 1, 1])
BUILTIN_ACTIONS = {
    "trivial": trivial_action(Box([-1, -1], [1, 1]), cyclic(3)),
    "negation": negation_action(Interval(-1.0, 1.0)),
    "reflection": reflection_action(Box([-1, -1], [1, 1]), axis=1),
    "rotation": rotation_action(Circle(2.0, "geodesic"), 5),
    "plane-rotation": plane_rotation_action(Box([-1, -1], [1, 1]), 4),
    "plane-rotation-of-3-coordinates": plane_rotation_action(CUBE, 3),
    "plane-rotation-of-1-coordinate": plane_rotation_action(Interval(-1.0, 1.0), 2),
    "coordinate-permutation": coordinate_permutation_action(
        Product([Interval(-1.0, 1.0), Box([-1, -1], [1, 1])]),
        [(0, 1, 2), (1, 2, 0), (2, 0, 1)]),
    "coordinate-permutation-of-a-prefix": coordinate_permutation_action(
        CUBE, [(0, 1), (1, 0)]),
    "swap-axes": swap_axes_action(Box([0, 0], [1, 1])),
}


@pytest.mark.parametrize("name", sorted(BUILTIN_ACTIONS))
@settings(max_examples=30)
@given(st.data())
def test_act_rows_is_act_on_each_row_bit_for_bit(name, data):
    action = BUILTIN_ACTIONS[name]
    dim = action.space.dim
    coords = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 1e300]),
                       st.floats(allow_nan=False, allow_infinity=False))
    rows = data.draw(st.lists(st.tuples(*[coords] * dim), min_size=1, max_size=10))
    X = np.array(rows, dtype=np.float64)
    for g in action.group.elements():
        try:
            expected = [action.act(g, x) for x in rows]
        except IndexError:
            with pytest.raises(IndexError):
                action.act_rows(g, X)
            continue
        with np.errstate(all="ignore"):  # act overflows to inf silently
            got = action.act_rows(g, X)
        assert got.dtype == np.float64 and len(got) == len(rows)
        # bytes, so that -0.0 differs from 0.0
        assert [row.tobytes() for row in got] == \
            [np.array(p, dtype=np.float64).tobytes() for p in expected]


def test_builtin_actions_have_array_forms_where_their_points_fit():
    assert all(BUILTIN_ACTIONS[name].act_batch is not None
               for name in ("trivial", "negation", "reflection", "rotation", "plane-rotation",
                            "coordinate-permutation", "swap-axes"))
    # a too short point, or a permutation of fewer coordinates: row by row
    assert BUILTIN_ACTIONS["plane-rotation-of-1-coordinate"].act_batch is None
    assert BUILTIN_ACTIONS["coordinate-permutation-of-a-prefix"].act_batch is None


def test_rotation_action_is_the_plane_rotation_on_a_circle():
    rot = rotation_action(Circle(1.0), 6)
    plane = plane_rotation_action(Circle(1.0), 6)
    assert rot.name == "rotation:6" and rot.group.order == 6
    for g in range(6):
        assert rot.act(g, (0.6, 0.8)) == plane.act(g, (0.6, 0.8))
    with pytest.raises(ValueError, match="circle"):
        rotation_action(Box([-1, -1], [1, 1]), 4)


@pytest.mark.parametrize(
    "action",
    [
        negation_action(Interval(-1.0, 1.0)),
        reflection_action(Box([-1, -1], [1, 1]), axis=1),
        rotation_action(Circle(1.0), 6),
        rotation_action(Circle(2.0, "geodesic"), 3),
        plane_rotation_action(Box([-1, -1], [1, 1]), 4),
        swap_axes_action(Box([0, 0], [1, 1])),
    ],
    ids=["negation", "reflection", "rotation6", "rotation3geo", "planar4", "swap"],
)
def test_builtin_actions_pass_checks_and_are_isometric(action):
    report = check_action(action, seed_or_rng=3, samples=40, tol=1e-9)
    assert report.passed, report.to_json()
    assert report.isometry_defect <= 1e-12


@pytest.mark.parametrize(
    "action,samples",
    [
        (negation_action(Interval(-1.0, 1.0)), 25),
        (rotation_action(Circle(1.0), 4), 25),
        (reflection_action(Box([-1, -1], [1, 1]), axis=0), 25),
        (swap_axes_action(Box([0, 0], [1, 1])), 25),
    ],
    ids=["negation", "rotation", "reflection", "swap"],
)
def test_orbit_stabilizer_product(action, samples):
    pts = action.space.sample(19, samples)
    for x in pts:
        n_orbit = len(orbit(action, x))
        n_stab = stabilizer(action, x).order
        assert n_orbit * n_stab == action.group.order


def test_broken_action_reported():
    # translation is not an action on a bounded interval: membership fails
    sp = Interval(0.0, 1.0)
    shift = action_from_json({"name": "negation"}, sp)  # wrong space for negation
    report = check_action(shift, seed_or_rng=5, samples=30)
    assert not report.membership_ok
    assert not report.passed


@pytest.mark.parametrize("whole, integral_float", [
    ({"name": "reflection", "axis": 1}, {"name": "reflection", "axis": 1.0}),
    ({"name": "plane_rotation", "n": 4}, {"name": "plane_rotation", "n": 4.0}),
    ({"name": "coordinate_permutation", "perms": [[0, 1], [1, 0]]},
     {"name": "coordinate_permutation", "perms": [[0.0, 1], [1.0, 0]]}),
])
def test_action_fields_read_an_integral_float_as_its_int(whole, integral_float):
    # as the config schema's integer type does
    box = Box([-1, -1], [1, 1])
    want, got = action_from_json(whole, box), action_from_json(integral_float, box)
    assert (got.name, got.group.cayley) == (want.name, want.group.cayley)
    assert got.act(1, (0.25, 0.5)) == want.act(1, (0.25, 0.5))


def test_a_nan_isometry_defect_is_not_isometric():
    box = Box([-1, -1], [1, 1])
    flip = reflection_action(box, axis=1)
    # the reflection, but NaN on the right half: the pairs before it are isometric
    blur = GroupAction(flip.group, box,
                       lambda g, x: (math.nan, x[1]) if g and x[0] > 0.5 else flip.act(g, x))
    report = check_action(blur, seed_or_rng=2, samples=30)
    assert math.isnan(report.isometry_defect) and not report.isometric
    assert report.to_json()["isometric"] is False
    assert check_action(flip, seed_or_rng=2, samples=30).isometric


def test_coordinate_permutation_requires_closure():
    box = Box([0, 0, 0], [1, 1, 1])
    with pytest.raises(GroupConstructionError, match="not closed"):
        coordinate_permutation_action(box, [(0, 1, 2), (1, 2, 0)])
    act = coordinate_permutation_action(box, [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    assert act.group.order == 3
    report = check_action(act, seed_or_rng=2, samples=30)
    assert report.passed and report.isometry_defect <= 1e-12


def test_dihedral_structure():
    d3 = dihedral(3)
    assert d3.order == 6
    # a reflection (id >= n) is its own inverse
    for flip in range(3, 6):
        assert d3.inv(flip) == flip
    # rotations do not commute with reflections in D3
    assert d3.mul(1, 3) != d3.mul(3, 1)


def test_symmetric_group_composition():
    s3 = symmetric(3)
    # lexicographic ordering: perms[1] = (0,2,1), perms[2] = (1,0,2);
    # composing them gives (2,0,1) = index 4 one way, (1,2,0) = index 3 the other
    assert s3.mul(1, 2) == 4
    assert s3.mul(2, 1) == 3


def test_stabilizer_tolerance_error():
    # huge tol lumps non-closed element sets together
    circle = Circle(1.0)
    rot = rotation_action(circle, 8)
    with pytest.raises(ToleranceError):
        stabilizer(rot, (1.0, 0.0), tol=0.8)


def test_sampled_associativity_for_large_groups():
    big = cyclic(30)  # above the full-check bound, uses sampled triples
    assert big.order == 30
    assert big.mul(17, 20) == 7
