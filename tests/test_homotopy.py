import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equimean import homotopy
from equimean.dyadics import Dyadic, nearest_dyadic
from equimean.errors import CapacityError, HypothesisError, PrecisionError
from equimean.groups import (
    Subgroup,
    full_subgroup,
    negation_action,
    reflection_action,
    swap_axes_action,
    trivial_action,
)
from equimean.homotopy import (
    LEVEL_FLOATS_CAP,
    LEVEL_SWEEP_CAP,
    ContractionBuilder,
    HolderReport,
    LevelBoundReport,
    equivariant_contraction,
    fixed_set_deformation,
    straight_line_extension,
    symmetrize,
    verify_claim1,
    verify_holder,
)
from equimean.means import (
    QuasiMeanMap,
    arithmetic_mean,
    collapse_to_quasi_mean,
    constant_mean,
    dictator_mean,
    geometric_mean,
    min_plus_halfsquare_mean,
)
from equimean.rng import Xoshiro256StarStar, as_rng, randrange_accepts
from equimean.spaces import Box, Circle, Interval, coordinate_bounds

UNIT = Interval(0.0, 1.0)
SYM = Interval(-1.0, 1.0)
GEO_LAMBDA = 2.0 - math.sqrt(2.0)  # contractivity constant of sqrt(xy) on [1, 2]


def geometric_builder(**kw) -> ContractionBuilder:
    space = Interval(1.0, 2.0)
    return ContractionBuilder(geometric_mean(space), GEO_LAMBDA, (2.0,), **kw)


def arithmetic_builder(space=UNIT, theta=(0.0,), **kw) -> ContractionBuilder:
    return ContractionBuilder(arithmetic_mean(space, 2), 0.5, theta, **kw)


def minsq_builder() -> ContractionBuilder:
    # minsq has no contractivity constant below 1; the path is still defined
    return ContractionBuilder(min_plus_halfsquare_mean(UNIT), 0.99, (0.0,))


def lopsided_builder() -> ContractionBuilder:
    # a map without a batch hook: level arrays fall back to p.eval per row
    def lopsided(pts):
        (x,), (y,) = pts
        return (0.75 * x + 0.25 * y,)

    p = QuasiMeanMap(2, UNIT, lopsided, "weighted")
    return ContractionBuilder(p, 0.75, (0.0,))


def constant_builder() -> ContractionBuilder:
    # every odd node is 1/2, so the first and last steps of each level tie
    return ContractionBuilder(constant_mean(UNIT, (0.5,)), 0.5, (0.0,))


def holey(pts):
    # the midpoint, but NaN where it lies in (0.60, 0.62): from level 6 on,
    # the path from 1 to 0 has NaN nodes, after finite ones, around t = 0.39
    m = 0.5 * (pts[0][0] + pts[1][0])
    return (math.nan if 0.60 < m < 0.62 else m,)


def holey_batch(arrays):
    m = 0.5 * (arrays[0] + arrays[1])
    return np.where((0.60 < m) & (m < 0.62), math.nan, m)


def nan_nodes_builder() -> ContractionBuilder:
    return ContractionBuilder(QuasiMeanMap(2, UNIT, holey, "holey"), 0.5, (0.0,))


BOX2 = Box([-1.0, -1.0], [1.0, 1.0])
# (builder factory, start point): interval and box spaces, batch and eval
# midpoints, tied worst steps, and a start point equal to the basepoint
SWEEP_CASES = {
    "geometric": (geometric_builder, (1.0,)),
    "geometric-interior": (geometric_builder, (1.37,)),
    "minsq": (minsq_builder, (0.9,)),
    "arithmetic-box": (lambda: arithmetic_builder(BOX2, (0.25, -0.5)), (-1.0, 0.75)),
    "x-equals-theta": (geometric_builder, (2.0,)),
    "eval-fallback": (lopsided_builder, (1.0,)),
    "tied-steps": (constant_builder, (1.0,)),
    "nan-nodes": (nan_nodes_builder, (1.0,)),
}


def claim1_reference(builder, x, depth):
    """The recursive sweep: every adjacent pair through at_dyadic; the first
    NaN ratio is the worst, else the first maximum."""
    dx = builder.space.d(x, builder.theta)
    worst, wl, wi, checked = 0.0, -1, -1, 0
    for n in range(depth + 1):
        bound = (builder.lam ** n) * dx
        for j in range(1 << n):
            step = builder.space.d(builder.at_dyadic(x, Dyadic(j, n)),
                                   builder.at_dyadic(x, Dyadic(j + 1, n)))
            checked += 1
            ratio = step / bound if bound > 0.0 else (0.0 if step == 0.0 else math.inf)
            if not math.isnan(worst) and (ratio > worst or math.isnan(ratio)):
                worst, wl, wi = ratio, n, j
    return LevelBoundReport(worst, wl, wi, checked, builder.lam, dx)


def holder_reference(builder, x, pairs, depth, seed):
    """The recursive Holder sampler: both times through at_dyadic; a NaN
    ratio is a violation, and the first one is the worst."""
    rng = as_rng(seed)

    def draw():
        level = rng.randrange(depth + 1)
        return Dyadic(rng.randrange((1 << level) + 1), level)

    C = builder.holder_constant(x)
    worst, wpair, violations = 0.0, None, 0
    for _ in range(pairs):
        s = draw()
        t = draw()
        dist = builder.space.d(builder.at_dyadic(x, s), builder.at_dyadic(x, t))
        if s == t:
            ratio = 0.0 if dist == 0.0 else math.inf
        else:
            bound = C * abs(s.value - t.value) ** builder.alpha
            ratio = dist / bound if bound > 0.0 else (0.0 if dist == 0.0 else math.inf)
        if ratio > 1.0 + 1e-9 or math.isnan(ratio):
            violations += 1
        if not math.isnan(worst) and (ratio > worst or math.isnan(ratio)):
            worst, wpair = ratio, (s, t)
    return HolderReport(worst, wpair, pairs, C, builder.alpha, violations)


# ---------------------------------------------------------------------------
# dyadic evaluation


def test_path_endpoints_and_midpoint():
    b = arithmetic_builder(theta=(0.25,))
    x = (1.0,)
    assert b.at_dyadic(x, Dyadic(0, 0)) == x
    assert b.at_dyadic(x, Dyadic(1, 0)) == (0.25,)
    assert b.at_dyadic(x, Dyadic(1, 1)) == ((1.0 + 0.25) / 2.0,)


def test_geometric_midpoint_is_sqrt2():
    b = geometric_builder()
    assert b.at_dyadic((1.0,), Dyadic(1, 1))[0] == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_recursion_argument_order():
    # an asymmetric binary map pins p(left neighbour, right neighbour)
    def lopsided(pts):
        (x,), (y,) = pts
        return (0.75 * x + 0.25 * y,)

    p = QuasiMeanMap(2, UNIT, lopsided, "weighted")
    b = ContractionBuilder(p, 0.75, (0.0,))
    x = (1.0,)
    assert b.at_dyadic(x, Dyadic(1, 1)) == (0.75,)          # p(x, theta)
    assert b.at_dyadic(x, Dyadic(1, 2)) == (0.75 * 1.0 + 0.25 * 0.75,)  # p(x, mid)
    assert b.at_dyadic(x, Dyadic(3, 2)) == (0.75 * 0.75,)   # p(mid, theta)


def test_arithmetic_path_matches_straight_line():
    # midpoint recursion against the closed form x + (theta - x) * t
    b = arithmetic_builder(theta=(0.0,))
    x = (1.0,)
    for n in range(11):
        for j in range((1 << n) + 1):
            d = Dyadic(j, n)
            got = b.at_dyadic(x, d)[0]
            assert abs(got - (1.0 - d.value)) <= 1e-12


# CHUNK_FLOATS: the sweeps' own, under which a 1-D or 2-D path is whole to
# depth 10, and three under which its chunks span 1, 2, or 5 and 6 levels
CHUNK_SIZES = (homotopy.CHUNK_FLOATS, 2, 4, 64)


def chunk_table(b, x, depth):
    """{(n, j): row} of every row ``level_chunks`` yields, checking that the
    chunks of each level start at 0, share their end rows and end at 2^n."""
    table, ends = {}, {}
    for n, start, rows in b.level_chunks(x, depth):
        assert start == ends.get(n, 0), (n, start)
        ends[n] = start + len(rows) - 1
        for i, row in enumerate(rows.tolist()):
            # reprs, in which NaN equals NaN: a shared end row is the same in both chunks
            assert repr(table.setdefault((n, start + i), tuple(row))) == repr(tuple(row))
    assert ends == {n: 1 << n for n in range(depth + 1)}
    return table


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_level_arrays_equal_at_dyadic_at_every_node(case):
    make, x = SWEEP_CASES[case]
    b = make()
    for size in CHUNK_SIZES:
        with mock.patch.object(homotopy, "CHUNK_FLOATS", size):
            table = chunk_table(b, x, 10)
        assert len(table) == sum((1 << n) + 1 for n in range(11))
        for (n, j), row in table.items():
            assert repr(row) == repr(b.at_dyadic(x, Dyadic(j, n))), (size, n, j)


def test_level_chunks_sweep_whole_levels_then_one_interval_at_a_time():
    b = arithmetic_builder(BOX2, (0.0, 0.0))
    with mock.patch.object(homotopy, "CHUNK_FLOATS", 4):  # k = 1 level in dim 2
        order = [(n, start, len(rows)) for n, start, rows in b.level_chunks((1.0, 1.0), 3)]
    assert order == [(0, 0, 2), (1, 0, 3), (2, 0, 5),
                     (3, 0, 3), (3, 2, 3), (3, 4, 3), (3, 6, 3)]
    with mock.patch.object(homotopy, "CHUNK_FLOATS", 8):  # k = 2 levels
        order = [(n, start, len(rows)) for n, start, rows in b.level_chunks((1.0, 1.0), 3)]
    assert order == [(0, 0, 2), (1, 0, 3), (2, 0, 3), (3, 0, 5), (2, 2, 3), (3, 4, 5)]


def test_level_arrays_reject_bad_batch_shape():
    space = Interval(1.0, 2.0)
    p = geometric_mean(space)
    flat = QuasiMeanMap(2, space, p.eval, "flat", batch=lambda arrays: p.batch(arrays)[:, 0])
    b = ContractionBuilder(flat, GEO_LAMBDA, (2.0,))
    with pytest.raises(ValueError, match="shape"):
        list(b.level_chunks((1.0,), 3))
    with mock.patch.object(homotopy, "LAW_BLOCK_EVALS", 0):
        with pytest.raises(ValueError, match="shape"):
            b.at_times((1.0,), [0.25, 0.5], 1e-2)


AT_TIMES_BUILDERS = {
    "interval": (arithmetic_builder, [st.floats(0.0, 1.0)]),
    "box": (lambda: arithmetic_builder(BOX2, (0.0, 0.0)), [st.floats(-1.0, 1.0)] * 2),
    "geometric": (geometric_builder, [st.floats(1.0, 2.0)]),
}


@settings(deadline=None)
@given(st.sampled_from(sorted(AT_TIMES_BUILDERS)), st.data(),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
       st.sampled_from([1e-2, 1e-4, 1e-6]))
def test_at_times_equals_at_time_and_at_dyadic_bit_for_bit(kind, data, ts, eps):
    make, coords = AT_TIMES_BUILDERS[kind]
    b = make()
    x = data.draw(st.tuples(*coords))
    ts = ts + ts[::-2]  # unsorted, with every other time repeated
    values = b.at_times(x, ts, eps)
    assert repr(values) == repr([b.at_time(x, t, eps) for t in ts])
    level = b.level_for(x, eps)
    for t, (point, err) in zip(ts, values):
        assert repr(point) == repr(b.at_dyadic(x, nearest_dyadic(t, level)))
        assert err <= eps


# (space, map on it, lambda, basepoint) of the maps with a batch form
WALK_CASES = {
    "arithmetic-interval": (SYM, lambda sp: arithmetic_mean(sp, 2), 0.5, (-0.0,)),
    "arithmetic-box": (BOX2, lambda sp: arithmetic_mean(sp, 2), 0.5, (0.25, -0.5)),
    "geometric": (Interval(1.0, 2.0), geometric_mean, GEO_LAMBDA, (2.0,)),
    "minsq": (UNIT, min_plus_halfsquare_mean, 0.99, (0.0,)),
    "dictator:0": (BOX2, lambda sp: dictator_mean(sp, 0), 0.5, (0.25, -0.5)),
    "dictator:1": (BOX2, lambda sp: dictator_mean(sp, 1), 0.5, (0.25, -0.5)),
    "constant": (UNIT, lambda sp: constant_mean(sp, (0.5,)), 0.5, (0.0,)),
    "collapsed-arithmetic:3": (SYM, lambda sp: collapse_to_quasi_mean(arithmetic_mean(sp, 3)),
                               0.7, (0.0,)),
    "nan-nodes": (UNIT, lambda sp: QuasiMeanMap(2, sp, holey, "holey", batch=holey_batch),
                  0.5, (0.0,)),
}


@settings(deadline=None)
@given(st.sampled_from(sorted(WALK_CASES)), st.data(),
       st.lists(st.floats(0.0, 1.0), max_size=8), st.integers(0, 39))
def test_at_times_array_walk_equals_the_scalar_walk(case, data, ts, level):
    space, make, lam, theta = WALK_CASES[case]
    b = ContractionBuilder(make(space), lam, theta)
    # the dictators and the constant map fail the ratio check for any
    # lambda < 1; the lanes are compared on their values alone
    b.ratio_report = arithmetic_builder().ratio_report
    x = data.draw(st.tuples(*map(st.floats, *coordinate_bounds(space))))
    ts = [0.0, 1.0] + ts + ts[::-2]  # unsorted, with every other time repeated
    # the budget of grid level `level` (or one finer, by rounding); level 0
    # when x is the basepoint
    eps = max(b.holder_constant(x) * 2.0 ** (-b.alpha * level), 1e-300)
    lanes = []
    for gate in (0, math.inf):  # the array walk, then the scalar one
        with mock.patch.object(homotopy, "LAW_BLOCK_EVALS", gate):
            lanes.append(b.at_times(x, ts, eps))
    assert repr(lanes[0]) == repr(lanes[1])


def _reference_eval(builder, x, table, j, n):
    """The dyadic recursion with each neighbour built as a Dyadic, which
    canonicalizes it, and each node kept in ``table``."""
    key = (j, n)
    cached = table.get(key)
    if cached is not None:
        return cached
    if n == 0:
        value = x if j == 0 else builder.theta
    else:
        left, right = Dyadic(j - 1, n), Dyadic(j + 1, n)
        value = builder.p.eval([
            _reference_eval(builder, x, table, left.j, left.n),
            _reference_eval(builder, x, table, right.j, right.n),
        ])
    table[key] = value
    return value


@given(st.integers(1, 62), st.data())
def test_scalar_walk_equals_the_recursion_at_odd_numerators(n, data):
    j = 2 * data.draw(st.integers(0, (1 << (n - 1)) - 1)) + 1  # odd, so j/2^n is canonical
    b = geometric_builder()
    assert b._walk_one((1.2,), j, n) == _reference_eval(b, (1.2,), {}, j, n)


def test_a_nan_map_is_refused_by_at_time():
    p = QuasiMeanMap(2, SYM, lambda pts: (math.nan,), "nan")
    b = ContractionBuilder(p, 0.5, (0.0,))
    assert math.isnan(b.ratio_report.max_violation)
    with pytest.raises(HypothesisError, match=r"^sampled contractivity ratio nan at the pair "):
        b.at_time((0.5,), 0.3, 1e-6)


def test_level_cap_enforced():
    b = arithmetic_builder()
    with pytest.raises(CapacityError):
        b.at_dyadic((1.0,), Dyadic(1, 41))


def test_builder_rejects_bad_inputs():
    with pytest.raises(ValueError, match="binary"):
        ContractionBuilder(arithmetic_mean(UNIT, 3), 0.7, (0.0,))
    with pytest.raises(ValueError, match="lambda"):
        ContractionBuilder(arithmetic_mean(UNIT, 2), 1.0, (0.0,))
    with pytest.raises(Exception, match="not in"):
        ContractionBuilder(arithmetic_mean(UNIT, 2), 0.5, (2.0,))


def test_builder_keeps_the_sampled_ratio_and_its_pair():
    space = Interval(1.0, 2.0)
    b = ContractionBuilder(geometric_mean(space), 0.3, (2.0,))
    report = b.ratio_report
    assert (report.law, report.samples_checked, report.tol) == ("contractivity", 16, 0.3 + 1e-9)
    x, y = report.witness
    m = b.p.eval([x, y])
    assert report.max_violation == max(space.d(x, m), space.d(y, m)) / space.d(x, y)
    assert report.max_violation > 0.3 and not report.passed
    message = (f"sampled contractivity ratio {report.max_violation:.6g} at the pair {(x, y)} "
               "exceeds the declared lambda 0.3; the certified errors would not hold")
    with pytest.raises(HypothesisError) as raised:
        b.at_times((1.5,), [0.0, 0.5], 1e-3)
    assert str(raised.value) == message
    assert geometric_builder().ratio_report.passed
    assert geometric_builder().ratio_report.witness is None


def test_at_times_refuses_an_understated_lambda_that_the_sweeps_report():
    evals = []
    mean = arithmetic_mean(UNIT, 2)
    p = QuasiMeanMap(2, UNIT, lambda pts: evals.append(pts) or mean.eval(pts), "counted")
    b = ContractionBuilder(p, 0.3, (0.0,))  # the arithmetic mean has lambda 1/2
    del evals[:]
    for call in (lambda: b.at_times((1.0,), [0.25, 0.5], 1e-3),
                 lambda: b.at_time((1.0,), 0.5, 1e-3)):
        with pytest.raises(HypothesisError, match="exceeds the declared lambda 0.3"):
            call()
    assert evals == []  # refused before any dyadic node was evaluated
    assert b.at_dyadic((1.0,), Dyadic(1, 1)) == (0.5,)
    report = verify_claim1(b, (1.0,), 4)
    assert not report.passed and report.max_ratio == pytest.approx((0.5 / 0.3) ** 4)


# ---------------------------------------------------------------------------
# certified bounds


def test_verify_claim1_geometric():
    b = geometric_builder()
    report = verify_claim1(b, (1.0,), 12)
    assert report.passed
    assert report.pairs_checked == sum(1 << n for n in range(13))


def test_verify_claim1_arithmetic_is_tight():
    b = arithmetic_builder()
    report = verify_claim1(b, (1.0,), 12)
    assert report.passed
    assert report.max_ratio == pytest.approx(1.0, abs=1e-12)


def test_verify_claim1_at_basepoint():
    b = geometric_builder()
    report = verify_claim1(b, (2.0,), 6)
    assert report.passed and report.max_ratio == 0.0


def test_verify_claim1_depth_cap():
    with pytest.raises(CapacityError):
        verify_claim1(arithmetic_builder(), (1.0,), LEVEL_SWEEP_CAP + 1)


def test_a_path_with_nan_nodes_fails_both_sweeps():
    b = nan_nodes_builder()
    claim1 = verify_claim1(b, (1.0,), 10)
    assert math.isnan(claim1.max_ratio) and not claim1.passed
    # the step from 24/64 to 25/64, whose node 0.609375 is the first NaN
    assert (claim1.worst_level, claim1.worst_index) == (6, 24)
    holder = verify_holder(b, (1.0,), 2000, 10, seed_or_rng=1)
    assert math.isnan(holder.max_ratio) and not holder.passed
    assert holder.violations == 56 and holder.to_json()["passed"] is False


def test_a_bound_that_is_not_positive_scores_0_for_a_zero_step_and_inf_for_others():
    steps = np.array([0.0, 1e-300, math.nan, 3.0, 0.0])
    ratios = homotopy._step_ratios(steps, np.array([0.0, 0.0, -0.0, 4.0, 2.0]))
    assert ratios.tolist() == [0.0, math.inf, math.inf, 0.75, 0.0]
    assert homotopy._step_ratios(steps, 0.0).tolist() == [0.0, math.inf, math.inf, math.inf, 0.0]
    assert homotopy._step_ratios(steps[3:], 2.0).tolist() == [1.5, 0.0]


def test_a_path_that_leaves_x_equal_to_its_basepoint_fails_both_sweeps():
    # d(x, theta) = 0 makes every bound 0, so each nonzero step is an inf ratio
    stuck = QuasiMeanMap(2, UNIT, lambda pts: (0.5,), "stuck")
    b = ContractionBuilder(stuck, 0.5, (0.0,))
    claim1 = verify_claim1(b, (0.0,), 4)
    assert claim1.max_ratio == math.inf and not claim1.passed
    assert (claim1.worst_level, claim1.worst_index) == (1, 0)
    holder = verify_holder(b, (0.0,), 200, 4, seed_or_rng=1)
    assert holder.max_ratio == math.inf and not holder.passed
    assert 0 < holder.violations < 200


def test_level_sweep_floats_are_capped_before_level_0():
    box = Box([0.0] * 64, [1.0] * 64)
    b = ContractionBuilder(arithmetic_mean(box, 2), 0.5, (0.0,) * 64)
    rng = Xoshiro256StarStar(53)
    message = rf"depth 16 in dim 64 exceeds the cap of {LEVEL_FLOATS_CAP} floats"
    # claim 1 holds levels 0..7 whole here, and verify_holder level 16
    assert verify_claim1(b, (1.0,) * 64, 16).passed
    with pytest.raises(CapacityError, match=message):
        verify_holder(b, (1.0,) * 64, 10, 16, seed_or_rng=rng)
    assert rng.next_u64() == Xoshiro256StarStar(53).next_u64()  # no draw was made
    # in 4096-D a chunk spans 3 levels, so level 17 of a depth-20 sweep is whole
    wide = Box([0.0] * 4096, [1.0] * 4096)
    b = ContractionBuilder(arithmetic_mean(wide, 2), 0.5, (0.0,) * 4096)
    with pytest.raises(CapacityError, match=r"depth 20 in dim 4096 exceeds the cap of "
                                            rf"{LEVEL_FLOATS_CAP} floats on level 17"):
        b.level_chunks((1.0,) * 4096, 20)  # on the call, before level 0
    assert (1 + (1 << 15)) * 64 <= LEVEL_FLOATS_CAP < (1 + (1 << 16)) * 64
    # a 2-D box still sweeps to the depth cap
    assert (1 + (1 << LEVEL_SWEEP_CAP)) * 2 <= LEVEL_FLOATS_CAP
    assert next(arithmetic_builder(BOX2, (0.0, 0.0)).level_chunks((1.0, 1.0), 20))[2].shape == (2, 2)


def test_verify_holder_depth_cap_before_sampling():
    rng = Xoshiro256StarStar(53)
    with pytest.raises(CapacityError):
        verify_holder(arithmetic_builder(), (1.0,), 10, LEVEL_SWEEP_CAP + 1, seed_or_rng=rng)
    assert rng.next_u64() == Xoshiro256StarStar(53).next_u64()  # no draw was made


def test_verify_holder_plans_its_work_before_the_sweep(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("built a level")

    monkeypatch.setattr(homotopy, "_midpoints", no_sweep)
    rng = Xoshiro256StarStar(53)
    # 10^9 pair distances and the 2^14 - 1 midpoints of the sweep
    with pytest.raises(CapacityError, match="plans 1000016383 mean evaluations"):
        verify_holder(geometric_builder(), (1.0,), 10**9, 14, seed_or_rng=rng)
    assert rng.next_u64() == Xoshiro256StarStar(53).next_u64()  # no draw was made


@pytest.mark.parametrize("depth", [0, 1, 3, 10])
@pytest.mark.parametrize("case", SWEEP_CASES)
def test_sweeps_equal_recursive_reference(case, depth):
    make, x = SWEEP_CASES[case]
    b = make()
    # reprs, in which NaN equals NaN
    assert repr(verify_claim1(b, x, depth)) == repr(claim1_reference(b, x, depth))
    for seed in (1, 45, 2 ** 40 + 3):
        got = verify_holder(b, x, 400, depth, seed_or_rng=seed)
        assert repr(got) == repr(holder_reference(b, x, 400, depth, seed))


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_chunked_sweeps_equal_whole_level_sweeps(case):
    make, x = SWEEP_CASES[case]
    b = make()
    whole = repr(verify_claim1(b, x, 10)), repr(verify_holder(b, x, 400, 10, seed_or_rng=45))
    for size in CHUNK_SIZES[1:]:
        with mock.patch.object(homotopy, "CHUNK_FLOATS", size):
            chunked = repr(verify_claim1(b, x, 10)), repr(verify_holder(b, x, 400, 10, seed_or_rng=45))
        assert chunked == whole, size


def two_holes(pts):
    # holey, and NaN too where the midpoint lies in (0.9003, 0.9005): the
    # path from 1 to 0 first meets that hole at 51/512, after 25/64
    m = holey(pts)[0]
    return (math.nan if 0.9003 < m < 0.9005 else m,)


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_chunked_claim1_keeps_the_first_nan_and_the_first_tied_step(size):
    # every step of level n is 2^-n against the bound 0.4^n: the ratio grows
    # with n and ties across the 4096 steps of level 12
    tied_builder = ContractionBuilder(arithmetic_mean(UNIT, 2), 0.4, (0.0,))
    with mock.patch.object(homotopy, "CHUNK_FLOATS", size):
        nan = verify_claim1(nan_nodes_builder(), (1.0,), 10)
        # at 64 floats the chunk of (9, 50) comes before that of (6, 24)
        nans = verify_claim1(ContractionBuilder(QuasiMeanMap(2, UNIT, two_holes, "two holes"),
                                                0.5, (0.0,)), (1.0,), 10)
        tied = verify_claim1(tied_builder, (1.0,), 12)
    assert (nan.worst_level, nan.worst_index) == (6, 24)
    assert (nans.worst_level, nans.worst_index) == (6, 24)
    assert (tied.worst_level, tied.worst_index) == (12, 0)
    assert tied.max_ratio == 0.5 ** 12 / 0.4 ** 12


def traced_peak(run) -> int:
    """Peak bytes that tracemalloc, which sees numpy's data, traces in run()."""
    import tracemalloc

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweeps_to_the_depth_cap_hold_bounded_memory():
    # a 2-D box at depth 20: the finest level alone is 2 x (2^20 + 1) floats
    b = arithmetic_builder(BOX2, (0.25, -0.5))
    x = (-1.0, 0.75)
    verify_claim1(b, x, 2)
    verify_holder(b, x, 10, 2)  # imports and first-call caches stay outside the peaks
    fine = ((1 << LEVEL_SWEEP_CAP) + 1) * 2 * 8
    assert traced_peak(lambda: verify_claim1(b, x, LEVEL_SWEEP_CAP)) < 4 << 20
    assert traced_peak(lambda: verify_holder(b, x, 10_000, LEVEL_SWEEP_CAP)) < fine + (4 << 20)


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_holder_blocks_keep_the_first_worst_pair(monkeypatch, case):
    # small blocks, so that the worst pair and the first NaN cross block edges
    monkeypatch.setattr(homotopy, "HOLDER_BLOCK", 37)
    make, x = SWEEP_CASES[case]
    b = make()
    got = verify_holder(b, x, 400, 10, seed_or_rng=45)
    assert repr(got) == repr(holder_reference(b, x, 400, 10, 45))


def generator_drawing(first, second):
    """A generator whose next two draws are ``first`` and ``second``. A draw
    is rotl(s1 * 5, 7) * 9, a bijection of s1 alone, and the next s1 is
    s0 ^ s1 ^ s2."""
    mask = (1 << 64) - 1

    def s1_for(out):
        r = out * pow(9, -1, 1 << 64) & mask
        return ((r >> 7) | (r << 57)) * pow(5, -1, 1 << 64) & mask

    rng = Xoshiro256StarStar(0)
    rng.setstate((0, s1_for(first), s1_for(first) ^ s1_for(second), 1))
    return rng


def test_holder_redraws_a_block_that_holds_a_rejected_draw():
    # the first pair's left time is on level 3 (3 % 15 at depth 14), and the
    # index draw for it is one that randrange(2^3 + 1) rejects
    probe = generator_drawing(3, (1 << 64) - 1)
    level, index = probe.u64_array(2)
    assert level % 15 == 3 and not randrange_accepts(index, 9)
    b = geometric_builder()
    block, scalar = generator_drawing(3, (1 << 64) - 1), generator_drawing(3, (1 << 64) - 1)
    got = verify_holder(b, (1.0,), 50, 14, seed_or_rng=block)
    assert repr(got) == repr(holder_reference(b, (1.0,), 50, 14, scalar))
    assert block.getstate() == scalar.getstate()


def test_verify_holder_geometric():
    b = geometric_builder()
    report = verify_holder(b, (1.0,), 3000, 12, seed_or_rng=45)
    assert report.passed and report.violations == 0
    assert report.constant == pytest.approx(2.0 * 1.0 / (1.0 - GEO_LAMBDA), abs=1e-15)
    assert report.exponent == pytest.approx(-math.log(GEO_LAMBDA) / math.log(2.0), abs=1e-15)


def test_verify_holder_full_span_ratio():
    # the (0, 1) pair gives distance d(x, theta) against C = 2 d/(1-lambda)
    b = arithmetic_builder()
    x = (1.0,)
    C = b.holder_constant(x)
    assert b.space.d(b.at_dyadic(x, Dyadic(0, 0)), b.at_dyadic(x, Dyadic(1, 0))) / C == \
        pytest.approx((1.0 - 0.5) / 2.0, abs=1e-15)


# ---------------------------------------------------------------------------
# real-time evaluation


def test_at_time_at_basepoint_is_free():
    b = geometric_builder()
    point, err = b.at_time((2.0,), 0.7323, eps=1e-30)
    assert point == (2.0,) and err == 0.0


def test_at_time_zero_is_x_when_its_distance_to_the_basepoint_underflows():
    b = arithmetic_builder(BOX2, (0.0, 0.0))
    x = (0.0, 1e-200)
    assert b.holder_constant(x) == 0.0
    assert b.at_times(x, [0.0, 0.4, 0.6, 1.0], eps=1e-6) == [
        (x, 0.0), (x, 0.0), ((0.0, 0.0), 0.0), ((0.0, 0.0), 0.0)]


def test_at_time_dyadic_time_has_zero_snap_error():
    b = arithmetic_builder()
    point, err = b.at_time((1.0,), 0.25, eps=1e-6)
    assert err == 0.0
    assert point[0] == pytest.approx(0.75, abs=1e-12)


def test_at_time_against_closed_form():
    b = arithmetic_builder()
    point, err = b.at_time((1.0,), 1.0 / 3.0, eps=1e-3)
    assert err <= 1e-3
    assert abs(point[0] - 2.0 / 3.0) <= err + 1e-12


def test_at_time_eps_too_small():
    b = geometric_builder()
    with pytest.raises(PrecisionError) as info:
        b.at_time((1.0,), 0.3, eps=1e-13)
    assert info.value.achievable > 0.0


def test_refinement_cauchy_property():
    b = geometric_builder()
    x = (1.0,)
    C = b.holder_constant(x)
    rng = Xoshiro256StarStar(46)
    for _ in range(30):
        t = rng.random()
        for n in (3, 5, 8):
            a = b.at_dyadic(x, nearest_dyadic(t, n))
            c = b.at_dyadic(x, nearest_dyadic(t, n + 1))
            assert b.space.d(a, c) <= C * 2.0 ** (-n * b.alpha) + 1e-12


def test_certified_error_against_deeper_reference():
    b = geometric_builder()
    x = (1.0,)
    C = b.holder_constant(x)
    rng = Xoshiro256StarStar(47)
    for _ in range(25):
        t = rng.random()
        eps = 10.0 ** (-1 - rng.randrange(4))
        point, err = b.at_time(x, t, eps)
        level = b.level_for(x, eps)
        ref_snap = nearest_dyadic(t, min(level + 6, 40))
        ref = b.at_dyadic(x, ref_snap)
        ref_err = C * abs(t - ref_snap.value) ** b.alpha
        # both approximations carry certified bounds to the same limit
        assert b.space.d(point, ref) <= err + ref_err + 1e-15
        assert err <= eps


def test_perturbation_convergence_on_fixed_grid():
    b = geometric_builder()
    x = (1.5,)
    grid = [Dyadic(j, 6) for j in range(65)]
    defects = []
    for offset in (0.2, 0.02, 0.002, 0.0002):
        xn = (1.5 + offset,)
        defects.append(max(b.space.d(b.at_dyadic(xn, d), b.at_dyadic(x, d)) for d in grid))
    assert defects[0] > defects[1] > defects[2] > defects[3]
    assert defects[-1] <= 1e-3


# ---------------------------------------------------------------------------
# symmetrization


def test_symmetrize_negation_keeps_linear_contraction():
    act = negation_action(SYM)
    p = arithmetic_mean(SYM, 2)
    base = lambda x, t: ((1.0 - t) * x[0],)
    gh = symmetrize(base, act, p, tol=1e-9)
    rng = Xoshiro256StarStar(48)
    for _ in range(40):
        x = (rng.uniform(-1.0, 1.0),)
        t = rng.random()
        assert abs(gh(x, t)[0] - (1.0 - t) * x[0]) <= 1e-15


def test_symmetrize_constant_end_becomes_fixed_point():
    act = negation_action(SYM)
    p = arithmetic_mean(SYM, 2)
    base = lambda x, t: ((1.0 - t) * x[0] + 0.5 * t,)  # ends at 0.5, not fixed
    gh = symmetrize(base, act, p, tol=1e-9)
    assert gh.report["constancy_defect_t1"] <= 1e-9
    assert gh.report["t1_value_fixed_defect"] <= 1e-15
    assert gh((0.3,), 1.0) == (0.0,)


def test_symmetrize_trivial_group_returns_base():
    act = trivial_action(SYM)
    base = lambda x, t: ((1.0 - t) * x[0] - 0.25 * t,)
    gh = symmetrize(base, act, None, tol=1e-9)
    rng = Xoshiro256StarStar(49)
    for _ in range(20):
        x = (rng.uniform(-1.0, 1.0),)
        t = rng.random()
        assert gh(x, t) == base(x, t)


def test_symmetrize_rejects_non_anonymous_mean():
    act = negation_action(SYM)
    base = lambda x, t: ((1.0 - t) * x[0],)
    with pytest.raises(HypothesisError, match="anonymity"):
        symmetrize(base, act, dictator_mean(SYM, 0), tol=1e-9)


def test_symmetrize_rejects_wrong_arity():
    act = negation_action(SYM)
    base = lambda x, t: ((1.0 - t) * x[0],)
    with pytest.raises(ValueError, match="arity"):
        symmetrize(base, act, arithmetic_mean(SYM, 3), tol=1e-9)


def test_symmetrize_equivariance_defect_reported():
    act = negation_action(SYM)
    p = arithmetic_mean(SYM, 2)
    base = lambda x, t: ((1.0 - t) * x[0],)
    gh = symmetrize(base, act, p, tol=1e-9)
    assert gh.report["equivariance_defect"] <= 1e-15


def test_symmetrize_fails_on_a_nan_base_homotopy():
    act = negation_action(SYM)
    base = lambda x, t: (math.nan,) if x[0] > 0.5 and t > 0.0 else ((1.0 - t) * x[0],)
    with pytest.raises(HypothesisError, match=r"^symmetrized homotopy equivariance defect nan "
                                              r"exceeds tol 1e-08 at witness \(\(-?0\.\d+,\), "):
        symmetrize(base, act, arithmetic_mean(SYM, 2), tol=1e-9)


def test_symmetrize_tolerance_scales_with_law_defects():
    # a mean whose laws hold to ~tol/10 yields a homotopy equivariant to tol
    act = negation_action(SYM)
    tol = 1e-12
    noise = tol / 40.0

    def noisy(pts):
        (x,), (y,) = pts
        return ((x + y) / 2.0 + noise * math.cos(3.0 * x),)

    p = QuasiMeanMap(2, SYM, noisy, "noisy-midpoint")
    base = lambda x, t: ((1.0 - t) * x[0],)
    gh = symmetrize(base, act, p, tol=tol)
    assert gh.report["equivariance_defect"] <= tol


# ---------------------------------------------------------------------------
# equivariant dyadic construction


def test_equivariant_contraction_negation_exact():
    act = negation_action(SYM)
    b = arithmetic_builder(space=SYM, theta=(0.0,))
    gh = equivariant_contraction(b, act, tol=1e-12, depth=8, samples=80)
    assert gh.report["equivariance_defect"] == 0.0
    assert gh((0.5,), 0.0) == (0.5,)


def test_equivariant_contraction_requires_fixed_basepoint():
    act = negation_action(SYM)
    b = arithmetic_builder(space=SYM, theta=(0.5,))
    with pytest.raises(HypothesisError,
                       match=r"^basepoint fixed-point defect 1 exceeds tol 1e-12 at witness \(\(0\.5,\),\)$"):
        equivariant_contraction(b, act, tol=1e-12)


def test_equivariant_contraction_error_names_the_map_witness():
    def nudged(pts):
        (x,), (y,) = pts
        return (0.5 * (x + y) + (0.05 if x > 0.0 else 0.0),)

    b = ContractionBuilder(QuasiMeanMap(2, SYM, nudged, "nudged"), 0.5, (0.0,))
    with pytest.raises(HypothesisError, match=r"^binary map equivariance defect 0\.05 exceeds tol "
                                              r"1e-09 at witness \(\(-?0\.\d+,\), \(-?0\.\d+,\)\)$"):
        equivariant_contraction(b, negation_action(SYM))


def test_equivariant_contraction_swap_axes_box():
    box = Box([0.0, 0.0], [1.0, 1.0])
    act = swap_axes_action(box)
    b = ContractionBuilder(arithmetic_mean(box, 2), 0.5, (0.5, 0.5))
    gh = equivariant_contraction(b, act, tol=1e-12, depth=10, samples=100)
    assert gh.report["equivariance_defect"] <= 1e-12


# ---------------------------------------------------------------------------
# deformation onto fixed sets


def _reflection_setup():
    box = Box([-1.0, -1.0], [1.0, 1.0])
    act = reflection_action(box, axis=1)
    retract = lambda x: (x[0], 0.0)
    ext = straight_line_extension(box, retract)
    return box, act, retract, ext


def test_fixed_set_deformation_reflection():
    box, act, retract, ext = _reflection_setup()
    H = full_subgroup(act.group)
    gh = fixed_set_deformation(act, H, retract, arithmetic_mean(box, 2), ext, tol=1e-12)
    assert gh.report["identity_defect_t0"] == 0.0
    assert gh.report["fixed_set_stationarity_defect"] <= 1e-12
    rng = Xoshiro256StarStar(50)
    for _ in range(50):
        x = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        end = gh(x, 1.0)
        assert abs(end[1]) <= 1e-12
        assert end[0] == pytest.approx(x[0], abs=1e-12)
        x0 = (rng.uniform(-1, 1), 0.0)
        assert gh(x0, rng.random()) == x0


def test_fixed_set_deformation_stationary_on_orbit_averages():
    # fixed points built by orbit averaging stay put for every time
    from equimean.laws import orbit_average_point

    box, act, retract, ext = _reflection_setup()
    H = full_subgroup(act.group)
    p = arithmetic_mean(box, 2)
    gh = fixed_set_deformation(act, H, retract, p, ext, tol=1e-12)
    rng = Xoshiro256StarStar(52)
    for x in box.sample(rng, 40):
        x0 = orbit_average_point(p, act, x, tol=1e-12)
        for t in (0.0, 0.21, 0.5, 0.875, 1.0):
            assert box.d(gh(x0, t), x0) <= 1e-12


def test_fixed_set_deformation_trivial_subgroup():
    box, act, retract, ext = _reflection_setup()
    gh = fixed_set_deformation(
        act, Subgroup(act.group, (0,)), retract, None, ext, tol=1e-12
    )
    assert gh((0.4, 0.7), 0.0) == (0.4, 0.7)
    assert gh((0.4, 0.7), 1.0) == (0.4, 0.0)


def test_fixed_set_deformation_rejects_bad_retraction():
    box, act, _, _ = _reflection_setup()
    bad = lambda x: x  # not into the fixed set
    ext = straight_line_extension(box, bad)
    with pytest.raises(HypothesisError, match="^retraction image fixed-point defect .* at witness"):
        fixed_set_deformation(
            act, full_subgroup(act.group), bad, arithmetic_mean(box, 2), ext, tol=1e-12
        )


def test_fixed_set_deformation_rejects_bad_extension():
    box, act, retract, _ = _reflection_setup()
    stuck = lambda x, t: x  # never reaches the retraction at t=1
    with pytest.raises(HypothesisError, match="time-1"):
        fixed_set_deformation(
            act, full_subgroup(act.group), retract, arithmetic_mean(box, 2), stuck,
            tol=1e-12,
        )


def test_fixed_set_deformation_fails_on_a_nan_extension():
    box, act, retract, ext = _reflection_setup()
    holey = lambda x, t: (math.nan, math.nan) if t == 0.5 and x[0] > 0.5 else ext(x, t)
    with pytest.raises(HypothesisError, match=r"^extension fixed-set stationarity defect nan exceeds "
                                              r"tol 1e-12 at witness \(\(0\.[5-9]\d*, 0\.0\), 0\.5\)$"):
        fixed_set_deformation(act, full_subgroup(act.group), retract, arithmetic_mean(box, 2),
                              holey, tol=1e-12, seed=3)


def test_straight_line_extension_needs_convexity():
    with pytest.raises(ValueError, match="convex"):
        straight_line_extension(Circle(1.0), lambda x: (1.0, 0.0))


def test_deformation_independent_of_subgroup_enumeration_order():
    # anonymity makes the aggregation order irrelevant; compare against a
    # mean that receives its inputs reversed
    box, act, retract, ext = _reflection_setup()
    H = full_subgroup(act.group)
    p = arithmetic_mean(box, 2)
    reversed_p = QuasiMeanMap(2, box, lambda pts: p.eval(pts[::-1]), "rev-arith")
    a = fixed_set_deformation(act, H, retract, p, ext, tol=1e-12)
    b = fixed_set_deformation(act, H, retract, reversed_p, ext, tol=1e-12)
    rng = Xoshiro256StarStar(51)
    for _ in range(25):
        x = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        t = rng.random()
        assert box.d(a(x, t), b(x, t)) <= 1e-15
