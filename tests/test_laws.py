"""The two lanes of ``means.check_laws``: the scalar ``check_*`` loop and
the array lane, which must write the same reports and raise the same
errors."""

import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equimean import _law_arrays, means
from equimean.cli import main
from equimean.errors import CapacityError, SamplingError
from equimean.groups import GroupAction, Subgroup, action_from_json, cyclic
from equimean._law_arrays import check_laws_array, sample_blocks, transpositions
from equimean.means import (
    QuasiMeanMap,
    _check_laws_scalar,
    _permutations_to_check,
    check_laws,
    law_evals,
    mean_from_name,
    sample_tuples,
)
from equimean.rng import Xoshiro256StarStar
from equimean.spaces import Box, Circle, FinitePoints, Interval, Product

LAWS = ["M1", "M2", "equivariance", "strict-betweenness"]
GOLDEN = Path(__file__).parent / "data" / "golden"

SYM = Interval(-1.0, 1.0)
UNIT = Interval(0.0, 1.0)
BOX = Box([-1.0, -1.0], [1.0, 1.0])
CUBE = Product([Interval(-1.0, 1.0), Box([-1.0, -1.0], [1.0, 1.0])])
CHORD = Circle(1.0)
ARC = Circle(2.0, "geodesic")
CROSS = FinitePoints([(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])


def _nan_where_positive(space, batch=True):
    """Midpoint map that is NaN wherever its first argument is positive;
    its batch form, when asked for, equals eval bit for bit."""

    def func(points):
        (x,), (y,) = points
        return (math.nan if x > 0.0 else 0.5 * (x + y),)

    def array(arrays):
        X, Y = arrays
        return np.where(X > 0.0, np.nan, 0.5 * (X + Y))

    return QuasiMeanMap(2, space, func, "nan>0", batch=array if batch else None)


def _shift(space):
    """Translation by 0.25, which leaves [0, 1]: no action on it, and one
    without an array form."""
    return GroupAction(cyclic(2), space, lambda g, x: x if g == 0 else (x[0] + 0.25,), "shift")


# (map, action) on one space each; every built-in action appears
CASES = {
    "arithmetic:2-negation": (lambda: mean_from_name("arithmetic:2", SYM),
                              lambda: action_from_json({"name": "negation"}, SYM)),
    "arithmetic:4-plane-rotation": (lambda: mean_from_name("arithmetic:4", BOX),
                                    lambda: action_from_json({"name": "plane_rotation", "n": 4},
                                                             BOX)),
    "arithmetic:6-trivial": (lambda: mean_from_name("arithmetic:6", SYM),
                             lambda: action_from_json({"name": "trivial"}, SYM)),
    "arithmetic:3-product-permutation": (
        lambda: mean_from_name("arithmetic:3", CUBE),
        lambda: action_from_json({"name": "coordinate_permutation",
                                  "perms": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}, CUBE)),
    "arithmetic:2-reflection": (lambda: mean_from_name("arithmetic:2", BOX),
                                lambda: action_from_json({"name": "reflection", "axis": 0}, BOX)),
    "geometric-trivial": (lambda: mean_from_name("geometric", Interval(1.0, 4.0)),
                          lambda: action_from_json({"name": "trivial"}, Interval(1.0, 4.0))),
    "minsq-trivial": (lambda: mean_from_name("minsq", UNIT),
                      lambda: action_from_json({"name": "trivial"}, UNIT)),
    "dictator-swap-axes": (lambda: mean_from_name("dictator:1", BOX),
                           lambda: action_from_json({"name": "swap_axes"}, BOX)),
    "constant-reflection": (lambda: mean_from_name("constant:0.0,0.5", BOX),
                            lambda: action_from_json({"name": "reflection", "axis": 1}, BOX)),
    "nan-negation": (lambda: _nan_where_positive(SYM),
                     lambda: action_from_json({"name": "negation"}, SYM)),
    "eval-only-negation": (lambda: _nan_where_positive(SYM, batch=False),
                           lambda: action_from_json({"name": "negation"}, SYM)),
    "dictator-chord-rotation": (lambda: mean_from_name("dictator:0", CHORD),
                                lambda: action_from_json({"name": "rotation", "n": 5}, CHORD)),
    "constant-arc-rotation": (lambda: mean_from_name("constant:2.0,0.0", ARC),
                              lambda: action_from_json({"name": "rotation", "n": 3}, ARC)),
    "dictator-points-plane-rotation": (
        lambda: mean_from_name("dictator:1", CROSS),
        lambda: action_from_json({"name": "plane_rotation", "n": 4}, CROSS)),
    # images outside the space: a MembershipError in both lanes
    "arithmetic:2-negation-off-space": (lambda: mean_from_name("arithmetic:2", UNIT),
                                        lambda: action_from_json({"name": "negation"}, UNIT)),
    "arithmetic:2-shift-off-space": (lambda: mean_from_name("arithmetic:2", UNIT),
                                     lambda: _shift(UNIT)),
    # no tuple has a positive diameter: strict betweenness raises SamplingError
    "one-point": (lambda: mean_from_name("dictator:0", FinitePoints([(0.5,)])),
                  lambda: action_from_json({"name": "trivial"}, FinitePoints([(0.5,)]))),
}


def _outcome(lane, p, laws, seed, count, action):
    """The reports' JSON, or the error's type and message."""
    try:
        reports = lane(p, laws, seed, count, 1e-9, action)
    except Exception as exc:  # the lanes must raise alike
        return type(exc).__name__, str(exc)
    # json.dumps, since a NaN is not == to itself
    return "ok", json.dumps({law: r.to_json() for law, r in reports.items()}, sort_keys=True)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), count=st.integers(1, 30),
       laws=st.lists(st.sampled_from(LAWS), min_size=1, max_size=5),
       block=st.sampled_from([1, 5, 64, _law_arrays.BLOCK_FLOATS]))
def test_the_array_lane_reports_what_the_scalar_loop_does(case, seed, count, laws, block):
    make_map, make_action = CASES[case]
    p, action = make_map(), make_action()
    scalar = _outcome(_check_laws_scalar, p, laws, seed, count, action)
    with mock.patch.object(_law_arrays, "BLOCK_FLOATS", block):
        array = _outcome(check_laws_array, p, laws, seed, count, action)
    assert array == scalar


@pytest.mark.parametrize("case, error", [
    ("arithmetic:2-negation-off-space", "MembershipError"),
    ("arithmetic:2-shift-off-space", "MembershipError"),
    ("one-point", "SamplingError"),
])
def test_both_lanes_raise_the_first_error_alike(case, error):
    make_map, make_action = CASES[case]
    p, action = make_map(), make_action()
    laws = ["M1", "equivariance"] if error == "MembershipError" else ["strict-betweenness"]
    outcomes = [_outcome(lane, p, laws, 3, 40, action)
                for lane in (_check_laws_scalar, check_laws_array)]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == error
    if error == "MembershipError":
        assert outcomes[0][1].startswith("point (")


def test_the_dictator_fails_anonymity_at_the_same_witness():
    p = mean_from_name("dictator:1", BOX)
    reports = [lane(p, ["M2"], 9, 50, 1e-9, None)
               for lane in (_check_laws_scalar, check_laws_array)]
    assert not reports[0]["M2"].passed and reports[0]["M2"].witness is not None
    assert reports[0]["M2"].to_json() == reports[1]["M2"].to_json()


def test_both_lanes_check_equivariance_over_a_subgroup():
    # (x, y) -> (x_0, y_1) commutes with the half turn, not the quarter turn
    p = QuasiMeanMap(2, BOX, lambda pts: (pts[0][0], pts[1][1]), "x0-y1",
                     batch=lambda arrays: np.stack([arrays[0][..., 0], arrays[1][..., 1]], -1))
    action = action_from_json({"name": "plane_rotation", "n": 4}, BOX)
    for subgroup, order, passed in ((Subgroup(action.group, (0, 2)), 2, True), (None, 4, False)):
        reports = [lane(p, ["equivariance"], 3, 40, 1e-9, action, subgroup)["equivariance"]
                   for lane in (_check_laws_scalar, check_laws_array)]
        assert reports[0].to_json() == reports[1].to_json()
        assert reports[0].passed is passed and reports[0].samples_checked == 40 * order


# the laws that each golden law gate checks on the array lane, one call each:
# a failed anonymity check raises before equivariance runs
GATE_LAWS = {
    "symmetrize": [["M2"], ["equivariance"]],
    "symmetrize-dictator": [["M2"]],
    "deform": [["M2"], ["equivariance"]],
    "deform-subgroup": [["M2"], ["equivariance"]],
}


@pytest.mark.parametrize("name", ["laws", "laws-dictator", "laws-transpositions",
                                  *sorted(GATE_LAWS)])
def test_the_array_lane_writes_the_golden_law_reports(tmp_path, monkeypatch, name):
    ran = []

    def spy(p, laws, *args):
        ran.append(list(laws))
        return check_laws_array(p, laws, *args)

    # every planned count reaches the array lane
    monkeypatch.setattr(means, "LAW_BLOCK_EVALS", 0)
    monkeypatch.setattr(_law_arrays, "check_laws_array", spy)
    config = GOLDEN / f"{name}.json"
    cfg = json.loads(config.read_text())
    code = main([cfg["experiment"], "--config", str(config), "--out", str(tmp_path)])
    assert code == (1 if name.endswith("-dictator") else 0)
    # verify-mean checks its laws in one call
    assert ran == GATE_LAWS.get(name, [cfg.get("laws")])
    assert (tmp_path / "report.json").read_bytes() == \
        (GOLDEN / f"{name}.report.json").read_bytes()


@pytest.mark.parametrize("space", [SYM, BOX, CUBE, CHORD, CROSS], ids=lambda s: s.kind)
@given(seed=st.integers(0, 2 ** 64 - 1), count=st.integers(0, 40), n=st.integers(1, 4),
       rows=st.integers(1, 6), block=st.sampled_from([1, 5, 1 << 17]))
@settings(max_examples=20, deadline=None)
def test_sampled_arrays_are_the_sampled_points(space, seed, count, n, rows, block):
    # sample_blocks yields sample_tuples in order, in blocks of as many
    # tuples as fit BLOCK_FLOATS at rows rows a tuple, and at least one
    with mock.patch.object(_law_arrays, "BLOCK_FLOATS", block):
        blocks = list(sample_blocks(space, seed, count, n, rows))
        points = list(sample_blocks(space, seed, count, 1, rows))
    step = max(1, block // (rows * n * space.dim))
    assert [len(b) for b in blocks] == [min(step, count - i) for i in range(0, count, step)]
    assert all(b.shape[1:] == (n, space.dim) and b.dtype == np.float64 for b in blocks)
    tuples = [tuple(map(tuple, t)) for b in blocks for t in b.tolist()]
    assert tuples == sample_tuples(space, n, seed, count)
    # M1's pass, at n = 1, draws the space's own sample
    assert [tuple(x) for b in points for (x,) in b.tolist()] == space.sample(seed, count)


@pytest.mark.parametrize("arity, count", [(3, 1300), (6, 140)])
def test_law_blocks_bound_the_floats_of_each_draw_and_batch(monkeypatch, arity, count):
    # all four laws on a 2-D box, above the gate: no u64 draw and no batch
    # call holds more than BLOCK_FLOATS floats, or one tuple's rows if more
    floats = 64
    monkeypatch.setattr(_law_arrays, "BLOCK_FLOATS", floats)
    p = mean_from_name(f"arithmetic:{arity}", BOX)
    action = action_from_json({"name": "plane_rotation", "n": 4}, BOX)
    assert law_evals(p, LAWS, count, action) >= means.LAW_BLOCK_EVALS
    orders = math.factorial(arity) if arity <= 5 else arity * arity
    bound = max(floats, orders * arity * BOX.dim)
    draws, batches = [], []
    u64_array, batch = Xoshiro256StarStar.u64_array, p.batch

    def draw(self, m):
        draws.append(m)
        return u64_array(self, m)

    def spy(arrays):
        batches.append(sum(np.asarray(a).size for a in arrays))
        return batch(arrays)

    monkeypatch.setattr(Xoshiro256StarStar, "u64_array", draw)
    p.batch = spy
    reports = check_laws(p, LAWS, 5, count, 1e-9, action)
    assert all(report.samples_checked > 0 for report in reports.values())
    assert draws and batches
    assert max(draws) <= bound and max(batches) <= bound


def _rejected_first_draw_state(n):
    """A generator state whose next draw randrange(n) rejects: its output
    is 2^64 - 1, which lies at or above (2^64 - 1) // n * n for n >= 2."""
    mask = (1 << 64) - 1
    out = mask
    x = out * pow(9, -1, 1 << 64) & mask
    r = ((x >> 7) | (x << 57)) & mask  # undo the rotation by 7
    s1 = r * pow(5, -1, 1 << 64) & mask
    return [0x1234, s1, 0x5678, 0x9ABC]


@pytest.mark.parametrize("rejected", [False, True])
def test_transposition_blocks_are_the_scalar_draws(rejected):
    n = 6
    block, scalar = Xoshiro256StarStar(41), Xoshiro256StarStar(41)
    if rejected:
        block.setstate(_rejected_first_draw_state(n))
        scalar.setstate(_rejected_first_draw_state(n))
    orders = [tuple(row) for row in transpositions(block, n, 3 * n * n).tolist()]
    expected = [sigma for _ in range(3) for sigma in _permutations_to_check(n, scalar)]
    assert orders == expected
    assert block.getstate() == scalar.getstate()


def test_law_evals_count_what_each_law_evaluates():
    box = Box([-1.0, -1.0], [1.0, 1.0])
    rotation = action_from_json({"name": "plane_rotation", "n": 4}, box)
    # 3000 * (1 + 4! * 4 + 4 + (1 + 4 * 3 / 2)): strict betweenness also
    # measures the pair distances of each sample's diameter
    assert law_evals(mean_from_name("arithmetic:4", box), LAWS, 3000, rotation) == 324_000
    # transpositions: n^2 a sample, times the arity
    assert law_evals(mean_from_name("arithmetic:6", box), ["M2"], 2, None) == 2 * 36 * 6


def test_a_run_over_the_work_cap_raises_before_its_first_draw(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew samples")

    monkeypatch.setattr(_law_arrays, "sample_blocks", no_draws)
    monkeypatch.setattr(means, "sample_tuples", no_draws)
    p = mean_from_name("arithmetic:2000", UNIT)
    with pytest.raises(CapacityError, match=r"plans 80000000000 mean evaluations, "
                                            r"over the cap 1000000000"):
        check_laws(p, ["M2"], 1, 10)


def test_small_checks_take_the_scalar_loop(monkeypatch):
    def no_arrays(*args):
        raise AssertionError("array lane")

    monkeypatch.setattr(_law_arrays, "check_laws_array", no_arrays)
    p = mean_from_name("arithmetic:2", SYM)
    planned = law_evals(p, ["M1", "M2"], 100)
    assert planned < means.LAW_BLOCK_EVALS
    assert check_laws(p, ["M1", "M2"], 1, 100)["M2"].passed


def test_equivariance_needs_an_action():
    with pytest.raises(ValueError, match="needs a group action"):
        check_laws(mean_from_name("arithmetic:2", SYM), ["equivariance"], 1, 5)


@pytest.mark.parametrize("lane", [_check_laws_scalar, check_laws_array])
def test_strict_betweenness_on_no_positive_diameter_raises(lane):
    p = mean_from_name("dictator:0", FinitePoints([(0.5,)]))
    with pytest.raises(SamplingError, match="scored no sample"):
        lane(p, ["strict-betweenness"], 1, 5, 1e-9, None)
