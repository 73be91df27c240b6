import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equimean import _kernels, means
from equimean.errors import CapacityError, HypothesisError, MembershipError, SamplingError
from equimean.groups import negation_action, plane_rotation_action, reflection_action
from equimean.means import (
    LambdaConfig,
    LambdaEstimate,
    QuasiMeanMap,
    SolomonicSearch,
    WORK_CAP,
    _grid_points,
    arithmetic_mean,
    check_anonymity,
    check_contractivity,
    check_equivariance,
    check_laws,
    check_strict_betweenness,
    check_unanimity,
    collapse_to_quasi_mean,
    constant_mean,
    contractivity_ratio,
    derive_divisor_mean,
    dictator_mean,
    estimate_lambda,
    geometric_mean,
    mean_from_name,
    min_plus_halfsquare_mean,
    orbit_average_point,
    quasi_mean,
    require_mean_laws,
    sample_tuples,
    solomonic_witness_search,
)
from equimean.rng import Xoshiro256StarStar, as_rng
from equimean.spaces import Box, Circle, FinitePoints, Interval, Product, coordinate_bounds

UNIT = Interval(0.0, 1.0)
SYM = Interval(-1.0, 1.0)


def variant(p, **changes):
    """The map p with ``changes`` to its fields, built through its class."""
    return QuasiMeanMap(**{**vars(p), **changes})


# ---------------------------------------------------------------------------
# law checkers


def test_unanimity_arithmetic_exact():
    p = arithmetic_mean(UNIT, 2)
    report = check_unanimity(p, UNIT.sample(1, 100), tol=1e-12)
    assert report.passed and report.max_violation == 0.0
    assert report.witness is None


def test_unanimity_constant_fails_with_witness():
    circle = Circle(1.0)
    p = constant_mean(circle, (1.0, 0.0))
    report = check_unanimity(p, circle.sample(2, 50), tol=1e-9)
    assert not report.passed
    assert report.witness is not None
    x = report.witness[0]
    assert circle.d(x, (1.0, 0.0)) > 0


def test_unanimity_geometric():
    p = geometric_mean(Interval(1.0, 4.0))
    report = check_unanimity(p, Interval(1.0, 4.0).sample(3, 100), tol=1e-12)
    assert report.passed


def test_anonymity_arithmetic3():
    p = arithmetic_mean(UNIT, 3)
    report = check_anonymity(p, sample_tuples(UNIT, 3, 4, 60), tol=1e-12)
    assert report.passed and report.max_violation <= 1e-15


def test_anonymity_dictator_fails():
    p = dictator_mean(Circle(1.0), 0)
    report = check_anonymity(p, sample_tuples(Circle(1.0), 2, 5, 40), tol=1e-9)
    assert not report.passed
    assert report.witness is not None


def test_anonymity_minsq_symmetric():
    p = min_plus_halfsquare_mean(UNIT)
    report = check_anonymity(p, sample_tuples(UNIT, 2, 6, 60), tol=1e-15)
    assert report.passed


def test_anonymity_large_arity_uses_transpositions():
    p = arithmetic_mean(UNIT, 6)
    report = check_anonymity(p, sample_tuples(UNIT, 6, 7, 10), tol=1e-12)
    assert report.passed
    assert report.samples_checked == 10 * 36  # n^2 transpositions per sample


def test_equivariance_arithmetic_negation():
    p = arithmetic_mean(SYM, 2)
    act = negation_action(SYM)
    report = check_equivariance(p, act, sample_tuples(SYM, 2, 8, 60), tol=1e-15)
    assert report.passed and report.max_violation == 0.0


def test_equivariance_broken_action_hits_membership():
    # translation by 0.1 is not an action on [0, 1]: images near the
    # boundary leave the space, which surfaces as a membership error
    from equimean.errors import MembershipError
    from equimean.groups import GroupAction, cyclic

    shift = GroupAction(
        cyclic(2), UNIT, lambda g, x: x if g == 0 else (x[0] + 0.1,), "shift"
    )
    p = arithmetic_mean(UNIT, 2)
    tuples = [((0.95,), (0.2,))]
    with pytest.raises(MembershipError):
        check_equivariance(p, shift, tuples, 1e-9)


def test_orbit_average_verify_laws_flag():
    # the law checks once behind a flag always run: a lawful mean gives the
    # fixed point, and a dictator, equivariant but not anonymous, returns x,
    # which the reflection moves
    box = Box([-1, -1], [1, 1])
    act = reflection_action(box, axis=1)
    p = arithmetic_mean(box, 2)
    assert orbit_average_point(p, act, (0.3, 0.4)) == (0.3, 0.0)
    with pytest.raises(HypothesisError, match=r"^orbit average fixed-point defect 0\.8 "):
        orbit_average_point(dictator_mean(box, 0), act, (0.3, 0.4))


def _nan_where_positive(space):
    """Midpoint map that is NaN wherever its first argument is positive, so
    that a NaN defect usually follows finite ones in sample order."""
    return QuasiMeanMap(2, space, lambda pts: (math.nan if pts[0][0] > 0.0
                                               else 0.5 * (pts[0][0] + pts[1][0]),), "nan>0")


@pytest.mark.parametrize("make", [
    lambda: QuasiMeanMap(2, SYM, lambda pts: (math.nan,), "nan"),
    lambda: _nan_where_positive(SYM),
], ids=["nan-everywhere", "nan-where-positive"])
def test_a_nan_defect_fails_every_law_at_its_first_witness(make):
    p = make()
    tuples = sample_tuples(SYM, 2, 5, 40)
    reports = [
        check_unanimity(p, SYM.sample(5, 40)),
        check_anonymity(p, tuples),
        check_equivariance(p, negation_action(SYM), tuples),
        check_strict_betweenness(p, tuples),
        check_contractivity(p, tuples, 0.5),
    ]
    for report in reports:
        assert math.isnan(report.max_violation) and not report.passed, report.law
        assert report.to_json()["passed"] is False
    # the witness is the first sample whose defect is NaN
    first = next(x for x in SYM.sample(5, 40) if math.isnan(p.eval([x, x])[0]))
    assert reports[0].witness == (first,)
    first = next(t for t in tuples if math.isnan(p.eval(list(t))[0]))
    assert reports[4].witness == first
    # anonymity also evaluates the swapped tuple
    first = next(t for t in tuples if math.isnan(p.eval(list(t))[0] + p.eval(list(t[::-1]))[0]))
    assert reports[1].witness == first
    with pytest.raises(HypothesisError, match=r"^anonymity defect nan exceeds tol 1e-09 at witness"):
        require_mean_laws(p, negation_action(SYM), 1e-9, None, 3, 8)


def test_orbit_average_error_names_the_point_that_is_not_fixed():
    box = Box([-1, -1], [1, 1])
    act = reflection_action(box, axis=1)
    skew = QuasiMeanMap(2, box, lambda pts: (0.5 * (pts[0][0] + pts[1][0]), 0.25), "skew")
    with pytest.raises(HypothesisError, match=r"^orbit average fixed-point defect 0\.5 exceeds "
                                              r"tol 1e-09 at witness \(\(0\.3, 0\.25\),\)$"):
        orbit_average_point(skew, act, (0.3, 0.4))


def test_mean_law_gate_checks_anonymity_then_equivariance_through_check_laws():
    box = Box([-1, -1], [1, 1])
    act = reflection_action(box, axis=1)
    require_mean_laws(arithmetic_mean(box, 2), act, 1e-9, None, 3, 8)
    # anonymous, yet it moves the second coordinate off the reflection's axis
    skew = QuasiMeanMap(2, box, lambda pts: (0.5 * (pts[0][0] + pts[1][0]), 0.25), "skew")
    with pytest.raises(HypothesisError, match=r"^equivariance defect 0\.5 exceeds tol 1e-09"):
        require_mean_laws(skew, act, 1e-9, None, 3, 8)
    # arity 6 checks transpositions, drawn as check_laws draws them: from a
    # generator of their own seeded with the gate's seed. Here that differs
    # from transpositions that continue the generator that drew the tuples
    lopsided = QuasiMeanMap(6, SYM, lambda pts: pts[0], "dictator:0/6")
    report = check_laws(lopsided, ["M2"], 3, 2)["M2"]
    rng = as_rng(3)
    continued = check_anonymity(lopsided, sample_tuples(SYM, 6, rng, 2), 1e-9, rng)
    assert continued.max_violation != report.max_violation
    message = (f"anonymity defect {report.max_violation:.3g} exceeds tol 1e-09 "
               f"at witness {report.witness}")
    with pytest.raises(HypothesisError) as raised:
        require_mean_laws(lopsided, negation_action(SYM), 1e-9, None, 3, 2)
    assert str(raised.value) == message
    # anonymity fails first, so the negation's images outside [0, 1] are
    # never checked: no MembershipError
    with pytest.raises(HypothesisError, match=r"^anonymity defect"):
        require_mean_laws(dictator_mean(UNIT, 0, 2), negation_action(UNIT), 1e-9, None, 3, 8)
    with pytest.raises(MembershipError):
        require_mean_laws(arithmetic_mean(UNIT, 2), negation_action(UNIT), 1e-9, None, 3, 8)


def test_contractivity_check_scores_the_sampled_ratios():
    p = geometric_mean(Interval(1.0, 2.0))
    tuples = sample_tuples(p.space, 2, 5, 16) + [((1.5,), (1.5,))]
    report = check_contractivity(p, tuples, 0.3)
    ratios = [contractivity_ratio(p, tup) for tup in tuples]
    assert report.samples_checked == 16 and ratios[-1] is None
    assert report.max_violation == max(ratios[:-1]) > 0.3
    assert report.witness == tuples[ratios.index(report.max_violation)]
    assert check_contractivity(p, tuples, 2.0 - math.sqrt(2.0) + 1e-9).passed


def test_equivariance_dictator_any_action():
    p = dictator_mean(Circle(1.0), 0)
    from equimean.groups import rotation_action

    act = rotation_action(Circle(1.0), 5)
    report = check_equivariance(p, act, sample_tuples(Circle(1.0), 2, 9, 40), tol=1e-12)
    assert report.passed


def test_strict_betweenness_minsq_passes():
    p = min_plus_halfsquare_mean(UNIT)
    report = check_strict_betweenness(p, sample_tuples(UNIT, 2, 10, 80))
    assert report.passed
    assert report.max_violation < 0.0


def test_strict_betweenness_dictator_equality_fails():
    p = dictator_mean(Circle(1.0, "euclidean"), 0)
    report = check_strict_betweenness(p, sample_tuples(Circle(1.0), 2, 11, 40))
    # max distance equals the diameter exactly: strictness fails at 0
    assert not report.passed
    assert report.max_violation == 0.0
    assert report.witness is not None


def test_strict_betweenness_arithmetic_margin():
    p = arithmetic_mean(UNIT, 2)
    tuples = [((0.2,), (0.8,))]
    report = check_strict_betweenness(p, tuples)
    assert report.passed
    # the midpoint sits at half the diameter from each end
    assert report.max_violation == pytest.approx(-0.3, abs=1e-15)


# ---------------------------------------------------------------------------
# lambda estimation


def test_lambda_arithmetic_half():
    est = estimate_lambda(arithmetic_mean(UNIT, 2), LambdaConfig(grid_step=1e-3))
    assert abs(est.lambda_hat - 0.5) <= 1e-3
    assert est.method.startswith("grid")


def test_lambda_geometric_matches_formula_and_oracle():
    a, b = 1.0, 4.0
    p = geometric_mean(Interval(a, b))
    est = estimate_lambda(p, LambdaConfig(grid_step=1e-3))
    formula = (b - math.sqrt(a * b)) / (b - a)
    assert formula == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert abs(est.lambda_hat - formula) <= 1e-2
    # independent coarse maximization oracle
    xs = np.linspace(a, b, 301)
    X, Y = np.meshgrid(xs, xs)
    G = np.sqrt(X * Y)
    D = np.abs(X - Y)
    mask = D > 1e-6
    R = np.maximum(np.abs(X - G), np.abs(Y - G))
    oracle = float((R[mask] / D[mask]).max())
    assert abs(est.lambda_hat - oracle) <= 1e-2


def test_lambda_minsq_ratio_identity_and_high_estimate():
    p = min_plus_halfsquare_mean(UNIT)
    for n in (2, 3, 10, 100, 1024):
        ratio = contractivity_ratio(p, ((1.0 / n,), (0.0,)))
        assert abs(ratio - (1.0 - 1.0 / (2.0 * n))) <= 1e-12
    est = estimate_lambda(p, LambdaConfig(grid_step=1e-3))
    assert est.lambda_hat >= 0.999


def test_lambda_monotone_under_grid_refinement():
    p = min_plus_halfsquare_mean(UNIT)
    values = [
        estimate_lambda(p, LambdaConfig(grid_step=s)).lambda_hat
        for s in (4e-3, 2e-3, 1e-3)
    ]
    assert values[0] <= values[1] <= values[2]


def test_lambda_random_lane_close_to_grid():
    p = geometric_mean(Interval(1.0, 4.0))
    est = means._estimate_random(p, LambdaConfig(restarts=60, seed=12))
    assert est.method == "random+hill"
    assert 0.55 <= est.lambda_hat <= 2.0 / 3.0 + 1e-9


def test_lambda_random_lane_used_for_boxes():
    p = arithmetic_mean(Box([0, 0], [1, 1]), 2)
    est = estimate_lambda(p, LambdaConfig(restarts=40, seed=13))
    assert est.method == "random+hill"
    assert est.lambda_hat <= 0.5 + 1e-9


def test_lambda_degenerate_space_errors():
    single = FinitePoints([(0.0, 0.0)])
    p = QuasiMeanMap(2, single, lambda pts: pts[0], "first")
    with pytest.raises(SamplingError):
        estimate_lambda(p, LambdaConfig(restarts=3))


def test_lambda_grid_pairs_cap_fires_before_the_scan():
    # cap 10^9: 31,623 points make 999,982,506 ordered pairs, 31,624 make
    # 1,000,045,752
    assert _grid_points(0.0, 1.0, 1.0 / 31622) == 31623
    # the message states counts up to 10^15 in full
    with pytest.raises(CapacityError) as small:
        _grid_points(0.0, 1.0, 1.0 / 31623)
    assert str(small.value) == (f"grid step {1.0 / 31623!r} on [0.0, 1.0] gives 31624 points, "
                                f"whose 1000045752 ordered pairs exceed the cap {WORK_CAP}")
    # about 10^12 pairs, 10^300 points, whose 10^600 pairs no float holds,
    # and a step whose point count overflows a float: each message stays
    # short, its counts past 10^15 given to three digits
    for step in (1e-6, 1e-300, 5e-324):
        with pytest.raises(CapacityError, match="cap") as got:
            estimate_lambda(arithmetic_mean(UNIT, 2), LambdaConfig(grid_step=step))
        assert len(str(got.value)) < 120
    with pytest.raises(CapacityError, match=r"gives 1\.00e\+300 points, whose 1\.00e\+600 "):
        _grid_points(0.0, 1.0, 1e-300)
    with pytest.raises(CapacityError, match=r"gives 100000001 points, whose 1\.00e\+16 "):
        _grid_points(0.0, 1.0, 1e-8)


def test_lambda_grid_ends_on_the_interval_end():
    # 7e-4 does not divide 3: the grid's last step point is 3.9995, and b = 4
    # is one more grid point, where the ratio 2/3 is attained
    m = 4287
    assert _grid_points(1.0, 4.0, 7e-4) == m
    est = estimate_lambda(geometric_mean(Interval(1.0, 4.0)), LambdaConfig(grid_step=7e-4))
    assert est.lambda_hat == 2.0 / 3.0
    assert est.argmax_tuple == ((1.0,), (4.0,))
    assert est.samples == m * (m - 1)
    # a step of 10^9 (b - a) or more used to leave the one point a, and the
    # scan failed with IndexError; the grid is a and b
    for step in (3e9, 1e308):
        assert _grid_points(1.0, 4.0, step) == 2
        est = estimate_lambda(geometric_mean(Interval(1.0, 4.0)), LambdaConfig(grid_step=step))
        assert (est.lambda_hat, est.argmax_tuple) == (2.0 / 3.0, ((1.0,), (4.0,)))


def _skewed_batch_mean(space):
    # 0.75 x + 0.25 y: its ratio matrix is not symmetric, so the scan must
    # score whole rows of the full square
    return QuasiMeanMap(2, space, lambda pts: (0.75 * pts[0][0] + 0.25 * pts[1][0],),
                        "skewed", batch=lambda arrays: 0.75 * arrays[0] + 0.25 * arrays[1])


@pytest.mark.parametrize("make", [
    lambda: variant(arithmetic_mean(UNIT, 2), symmetric=False),
    lambda: variant(geometric_mean(Interval(1.0, 4.0)), symmetric=False),
    lambda: _skewed_batch_mean(UNIT),
])
def test_lambda_batch_lane_does_not_depend_on_block_size(monkeypatch, make):
    p = make()
    outs = []
    # one row per block, blocks of 9 rows with a short last one, one block
    for cells in (37, 909, 10**6):
        monkeypatch.setattr(_kernels, "BLOCK_CELLS", cells)
        est = estimate_lambda(p, LambdaConfig(grid_step=(p.space.b - p.space.a) / 100))
        assert est.method == "grid"
        outs.append((est.lambda_hat, est.argmax_tuple, est.samples))
    assert outs[0] == outs[1] == outs[2]
    assert outs[0][2] == 101 * 100


def test_lambda_batch_lane_agrees_with_kernel_lane(monkeypatch):
    # the upper-triangle path of a symmetric map equals the whole-row path
    monkeypatch.setattr(_kernels, "BLOCK_CELLS", 100)
    for p in (arithmetic_mean(UNIT, 2), geometric_mean(Interval(1.0, 4.0))):
        rows = variant(p, symmetric=False)
        assert p.symmetric
        for step in (1e-2, 4e-3, 7e-3):
            cfg = LambdaConfig(grid_step=step)
            upper, whole = estimate_lambda(p, cfg), estimate_lambda(rows, cfg)
            assert ((upper.lambda_hat, upper.argmax_tuple, upper.samples)
                    == (whole.lambda_hat, whole.argmax_tuple, whole.samples))


def _double_loop_scan(p, step, excluded):
    """The plain Python scan of every ordered grid pair through ``p.eval``,
    first maximum in row-major order."""
    a, b = p.space.a, p.space.b
    m = _grid_points(a, b, step)
    xs = [a + i * step for i in range(m - 1)] + [b]
    best, bx, by, count = -1.0, 0.0, 0.0, 0
    d = p.space.d
    for x in xs:
        for y in xs:
            gap = abs(x - y)
            if gap <= excluded:
                continue
            out = p.eval([(x,), (y,)])
            r = max(d((x,), out), d((y,), out)) / gap
            count += 1
            if r > best:
                best, bx, by = r, x, y
    return best, ((bx,), (by,)), count


@pytest.mark.parametrize("make", [
    lambda: variant(geometric_mean(Interval(1.0, 4.0)), batch=None),
    lambda: variant(min_plus_halfsquare_mean(UNIT), batch=None, symmetric=True),
    lambda: variant(_skewed_batch_mean(UNIT), batch=None),
    lambda: _skewed_batch_mean(UNIT),
    lambda: QuasiMeanMap(2, Interval(-1.0, 2.0), lambda pts: (max(pts[0][0], pts[1][0]) ** 2 / 4,),
                         "square-of-max"),
    # undefined (NaN) where x + y > 1: those ratios never win
    lambda: QuasiMeanMap(2, UNIT, lambda pts: (math.nan if pts[0][0] + pts[1][0] > 1.0
                                               else 0.25 * pts[0][0] + 0.75 * pts[1][0],),
                         "nan-above-the-antidiagonal"),
], ids=["geometric-eval", "minsq-eval-symmetric", "skewed-eval", "skewed-batch",
        "square-of-max-eval", "nan-eval"])
@pytest.mark.parametrize("step", [0.05, 0.07])
def test_lambda_scan_equals_python_double_loop(monkeypatch, make, step):
    # geometric and minsq keep their ratio bound without a batch, so their
    # scan runs by branch and bound, with leaves of 2, 5 and LEAF cells
    monkeypatch.setattr(_kernels, "BLOCK_CELLS", 37)
    p = make()
    want = _double_loop_scan(p, step, 1e-6)
    for leaf in (2, 5, _kernels.LEAF):
        monkeypatch.setattr(_kernels, "LEAF", leaf)
        for q in (p, variant(p, ratio_bound=None)):
            est = estimate_lambda(q, LambdaConfig(grid_step=step))
            assert (est.lambda_hat, est.argmax_tuple, est.samples) == want


@pytest.mark.parametrize("record, field", [
    (LambdaEstimate(0.5, ((0.0,), (1.0,)), 10, 1e-6, route="a"), "samples"),
    (SolomonicSearch(1.0, None, 0.5, 10, route="a"), "evaluations"),
])
def test_the_route_is_left_out_of_equality(record, field):
    # the route is logged, never reported: records that differ only there
    # are equal and hash alike, and any other field still counts
    other = record._replace(route="b")
    assert record == other and not record != other and hash(record) == hash(other)
    assert record != record._replace(**{field: 11})
    assert repr(other).endswith("route='b')")


def _nan_on_half(space, n):
    """arithmetic:n but NaN wherever the first point's first coordinate is
    above the middle of its range, in both forms."""
    (lo, *_), (hi, *_) = coordinate_bounds(space)
    mid = lo / 2 + hi / 2
    p = arithmetic_mean(space, n)

    def func(points):
        return (math.nan,) * len(points[0]) if points[0][0] > mid else p.eval(points)

    def batch(arrays):
        return np.where(arrays[0][..., :1] > mid, np.nan, p.batch(arrays))

    return QuasiMeanMap(n, space, func, "nan-on-half", batch=batch)


# on [-1e-3, 5e-4] a pair's diameter is at or below 1e-6 with probability
# about 1.3e-3, so a few of some hundred start tuples are drawn again
RETRY_BOX = Box([-1e-3], [5e-4])
PRODUCT = Product([Interval(-0.5, 2.0), Box([-1.0, 0.0], [1.0, 3.0])])


def test_arithmetic_mean_equals_per_coordinate_sums():
    for n, space in ((2, UNIT), (3, Box([-1, -1], [1, 1])), (4, Box([0, 0, 0], [1, 2, 3]))):
        p = arithmetic_mean(space, n)
        for tup in sample_tuples(space, n, 40 + n, 50):
            dim = len(tup[0])
            want = tuple(sum(pt[i] for pt in tup) / n for i in range(dim))
            assert p.eval(list(tup)) == want


@pytest.mark.parametrize("n, top", [(2, 1022), (3, 1022), (4, 1021), (7, 1021), (8, 1020)])
def test_arithmetic_mean_refuses_coordinates_whose_sum_may_overflow(n, top):
    # n coordinates of at most 2^top = 2^(1024 - n.bit_length()) each sum to
    # under 2^1024 after each rounding, both in eval and in batch; one ulp
    # more on any coordinate, of an interval or a product, is refused (a box
    # never gets there: it needs (hi - lo)^2 finite)
    edge = 2.0**top
    p = arithmetic_mean(Product([Interval(-1.0, 0.0), Interval(-edge, edge)]), n)
    for sign in (1.0, -1.0):
        tup = [(0.0, sign * edge)] * n
        assert p.eval(tup) == (0.0, sign * edge)
        assert p.batch([np.array(pt) for pt in tup]).tolist() == [0.0, sign * edge]
    above = math.nextafter(edge, math.inf)
    for space in (Interval(-above, 0.0), Product([Interval(0.0, 1.0), Interval(0.0, above)])):
        with pytest.raises(ValueError, match=rf"^arithmetic:{n} mean needs coordinates of "
                                             rf"absolute value <= 2\^{top}, got "):
            arithmetic_mean(space, n)


def test_lambda_estimate_serialization():
    est = estimate_lambda(arithmetic_mean(UNIT, 2), LambdaConfig(grid_step=1e-2))
    blob = est.to_json()
    assert set(blob) >= {"lambda_hat", "argmax_tuple", "samples", "method"}
    header, row = est.csv_header(), est.csv_row()
    assert len(header) == len(row)
    assert float(row[0]) == est.lambda_hat


def test_contractivity_invariant_for_builtins():
    # arithmetic n-mean obeys the (n-1)/n bound on any convex space
    for n, space in ((2, UNIT), (3, UNIT), (4, Box([-1, -1], [1, 1]))):
        p = arithmetic_mean(space, n)
        lam = (n - 1) / n
        for tup in sample_tuples(space, n, 21 + n, 60):
            ratio = contractivity_ratio(p, tup)
            if ratio is not None:
                assert ratio <= lam + 1e-9


# ---------------------------------------------------------------------------
# derived constructions


def test_divisor_mean_block_repetition():
    p4 = arithmetic_mean(UNIT, 4)
    q = derive_divisor_mean(p4, 2)
    p2 = arithmetic_mean(UNIT, 2)
    for tup in sample_tuples(UNIT, 2, 30, 200):
        assert UNIT.d(q.eval(list(tup)), p2.eval(list(tup))) <= 1e-12


def test_divisor_mean_identity_and_errors():
    p = arithmetic_mean(UNIT, 4)
    q = derive_divisor_mean(p, 4)
    tup = ((0.1,), (0.4,), (0.7,), (0.9,))
    assert q.eval(list(tup)) == p.eval(list(tup))
    with pytest.raises(ValueError, match="4 does not divide 6"):
        derive_divisor_mean(arithmetic_mean(UNIT, 6), 4)


def test_divisor_mean_inherits_laws():
    q = derive_divisor_mean(arithmetic_mean(SYM, 4), 2)
    assert check_unanimity(q, SYM.sample(31, 50), 1e-12).passed
    assert check_anonymity(q, sample_tuples(SYM, 2, 32, 50), 1e-12).passed
    act = negation_action(SYM)
    assert check_equivariance(q, act, sample_tuples(SYM, 2, 33, 50), 1e-12).passed


def test_collapse_arithmetic3_closed_form():
    p = arithmetic_mean(UNIT, 3)
    collapsed = collapse_to_quasi_mean(p)
    for x in np.linspace(0, 1, 21):
        for y in np.linspace(0, 1, 21):
            expected = (x + 2.0 * y) / 3.0
            assert abs(collapsed.eval([(x,), (y,)])[0] - expected) <= 1e-12


def test_collapse_binary_is_same_map():
    p = geometric_mean(Interval(1.0, 4.0))
    collapsed = collapse_to_quasi_mean(p)
    for tup in sample_tuples(Interval(1.0, 4.0), 2, 34, 50):
        assert collapsed.eval(list(tup)) == p.eval(list(tup))


def test_collapse_keeps_contraction_constant():
    p3 = arithmetic_mean(UNIT, 3)
    collapsed = collapse_to_quasi_mean(p3)
    est3 = estimate_lambda(p3, LambdaConfig(restarts=40, seed=35))
    est2 = estimate_lambda(collapsed, LambdaConfig(grid_step=1e-3))
    assert est2.lambda_hat <= est3.lambda_hat + 1e-6


def test_divisor_then_collapse_keeps_unanimity():
    q = collapse_to_quasi_mean(derive_divisor_mean(arithmetic_mean(UNIT, 4), 2))
    assert check_unanimity(q, UNIT.sample(36, 60), 1e-12).passed


# ---------------------------------------------------------------------------
# orbit averaging


def test_orbit_average_reflection():
    box = Box([-1, -1], [1, 1])
    act = reflection_action(box, axis=1)
    p = arithmetic_mean(box, 2)
    x0 = orbit_average_point(p, act, (0.3, 0.4))
    assert x0 == (0.3, 0.0)


def test_orbit_average_fixed_point_is_returned():
    box = Box([-1, -1], [1, 1])
    act = reflection_action(box, axis=1)
    p = arithmetic_mean(box, 2)
    assert orbit_average_point(p, act, (0.3, 0.0)) == (0.3, 0.0)


def test_orbit_average_rotation_center():
    box = Box([-1, -1], [1, 1])
    act = plane_rotation_action(box, 4)
    p = arithmetic_mean(box, 4)
    x0 = orbit_average_point(p, act, (0.4, 0.2))
    assert box.d(x0, (0.0, 0.0)) <= 1e-15


def test_orbit_average_rejects_wrong_arity():
    box = Box([-1, -1], [1, 1])
    act = plane_rotation_action(box, 4)
    with pytest.raises(ValueError, match="arity"):
        orbit_average_point(arithmetic_mean(box, 2), act, (0.4, 0.2))


def test_orbit_average_detects_nonequivariant_mean():
    box = Box([-1, -1], [1, 1])
    act = reflection_action(box, axis=1)
    skew = QuasiMeanMap(
        2, box, lambda pts: (pts[0][0], 0.25 + 0.5 * (pts[0][1] + pts[1][1])), "skew"
    )
    with pytest.raises(HypothesisError):
        orbit_average_point(skew, act, (0.3, 0.4))


# ---------------------------------------------------------------------------
# witness search


def test_solomonic_constant_on_circle_found():
    circle = Circle(1.0, "euclidean")
    p = constant_mean(circle, (1.0, 0.0))
    result = solomonic_witness_search(p, 1.9, budget=4000, seed_or_rng=37)
    assert result.found
    for arg in result.witness:
        assert circle.d(arg, (1.0, 0.0)) > 1.9


def test_solomonic_contractive_map_bounded_by_lambda_diam():
    # a binary map with ratio <= 1/2 can push the output at most
    # lambda * diameter from the nearest argument, so targets above
    # that bound are unreachable
    p = arithmetic_mean(UNIT, 2)
    result = solomonic_witness_search(p, 0.6, budget=3000, seed_or_rng=38)
    assert not result.found
    assert result.best_margin <= 0.5 + 1e-9


def test_solomonic_dictator_never_found():
    p = dictator_mean(UNIT, 0)
    result = solomonic_witness_search(p, 0.1, budget=1500, seed_or_rng=39)
    assert not result.found
    assert result.best_margin == 0.0


def test_solomonic_requires_positive_target():
    with pytest.raises(ValueError):
        solomonic_witness_search(arithmetic_mean(UNIT, 2), 0.0)


def test_solomonic_rejects_a_nan_target():
    # NaN <= 0 is false too, and no margin exceeds NaN
    with pytest.raises(ValueError, match="K must be positive"):
        solomonic_witness_search(arithmetic_mean(UNIT, 2), math.nan, 300, 1)


# ---------------------------------------------------------------------------
# restart searches (random+hill and solomonic): lockstep lane and scalar loop


def _solomonic(p, K, budget):
    return lambda rng: solomonic_witness_search(p, K, budget, rng)


def _random_hill(p, restarts):
    return lambda rng: means._estimate_random(p, LambdaConfig(restarts=restarts, seed=rng))


def _search(run, seed, gate):
    """The report of ``run`` on a generator seeded with ``seed`` (or its
    SamplingError), its route and the generator's final state, with the
    lockstep gate at ``gate``."""
    rng = Xoshiro256StarStar(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(means, "SEARCH_BLOCK_BUDGET", gate)
        try:
            result = run(rng)
        except SamplingError as exc:
            return repr(exc), None, rng.getstate()
    return json.dumps(result.to_json()), result.route, rng.getstate()


def _assert_search_lanes_agree(run, seed):
    scalar, scalar_route, scalar_state = _search(run, seed, math.inf)
    lockstep, lockstep_route, lockstep_state = _search(run, seed, 0)
    assert (lockstep, lockstep_state) == (scalar, scalar_state)
    if scalar_route is not None:
        assert scalar_route.startswith("scalar substreams, ")
        assert lockstep_route.startswith("lockstep substreams, ")
    return scalar


def _scalar_climbs(monkeypatch):
    """The step caps of the climbs that run through the scalar loop."""
    steps = []
    climb = means._climb
    monkeypatch.setattr(means, "_climb", lambda *args: steps.append(args[5]) or climb(*args))
    return steps


# the first factor's extent squares past the largest float, so the scale and
# the floor of every climb are inf: no climb stops before the budget
HUGE_FACTOR_PRODUCT = Product([Interval(0.0, 1.5e154), Interval(0.0, 1.0)])
SEARCH_SPACES = [SYM, Box([-1.0, -1.0], [1.0, 1.0]), PRODUCT, HUGE_FACTOR_PRODUCT]
SEARCH_MAPS = {
    "arithmetic:2": lambda space: arithmetic_mean(space, 2),
    "arithmetic:3": lambda space: arithmetic_mean(space, 3),
    "dictator:0": lambda space: dictator_mean(space, 0),
    "constant": lambda space: constant_mean(space, coordinate_bounds(space)[0]),
    "eval-only": lambda space: variant(arithmetic_mean(space, 3), batch=None),
    "nan-on-half": lambda space: _nan_on_half(space, 2),
}
# BLOCK_FLOATS 1 and 24 split the restarts into several blocks
BLOCK_SIZES = st.sampled_from([means.BLOCK_FLOATS, 1, 24])


def _fewest(space):
    extent = space.extent()
    return means._fewest_climb_evals(0.25 * extent, 1e-12 * extent, WORK_CAP)


@settings(max_examples=60, deadline=None)
@given(space=st.sampled_from(SEARCH_SPACES), name=st.sampled_from(sorted(SEARCH_MAPS)),
       budget=st.one_of(st.sampled_from(["fewest", "fewest+1", 1]), st.integers(1, 1200)),
       # K a third of the smallest side, which the constant at a corner
       # reaches from most starts, or 1e300, which no map here reaches
       reachable=st.booleans(), block_floats=BLOCK_SIZES, seed=st.integers(0, 2 ** 64 - 1))
def test_solomonic_lanes_agree(space, name, budget, reachable, block_floats, seed):
    lo, hi = coordinate_bounds(space)
    K = min(b - a for a, b in zip(lo, hi)) / 3 if reachable or name == "constant" else 1e300
    if budget == "fewest":
        budget = min(_fewest(space), 1200)
    elif budget == "fewest+1":
        budget = min(_fewest(space), 1199) + 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(means, "BLOCK_FLOATS", block_floats)
        _assert_search_lanes_agree(_solomonic(SEARCH_MAPS[name](space), K, budget), seed)


@settings(max_examples=60, deadline=None)
@given(space=st.sampled_from(SEARCH_SPACES + [RETRY_BOX]),
       name=st.sampled_from(sorted(SEARCH_MAPS)), restarts=st.integers(1, 20),
       block_floats=BLOCK_SIZES, seed=st.integers(0, 2 ** 64 - 1))
def test_random_hill_lanes_agree(space, name, restarts, block_floats, seed):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(means, "BLOCK_FLOATS", block_floats)
        _assert_search_lanes_agree(_random_hill(SEARCH_MAPS[name](space), restarts), seed)


# ``interval``: a binary map on an interval, which estimate_lambda scans on
# the grid, so its random lane is called directly
@pytest.mark.parametrize("make, restarts, seed, interval", [
    (lambda: arithmetic_mean(Box([-1.0], [2.0]), 2), 5, 3, False),
    (lambda: arithmetic_mean(Box([-1.0, -1.0], [1.0, 1.0]), 3), 37, 4, False),
    (lambda: arithmetic_mean(Box([0.0, -1.0, -2.0], [1.0, 1.0, 3.0]), 4), 5, 5, False),
    (lambda: arithmetic_mean(UNIT, 2), 5, 6, True),
    (lambda: geometric_mean(Interval(1.0, 4.0)), 37, 12, True),
    (lambda: arithmetic_mean(PRODUCT, 3), 37, 7, False),
    (lambda: variant(arithmetic_mean(Box([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]), 4),
                                 batch=None), 5, 8, False),
    (lambda: _nan_on_half(Box([0.0, 0.0], [1.0, 1.0]), 2), 37, 9, False),
    (lambda: dictator_mean(PRODUCT, 1, 3), 1, 10, False),
    (lambda: min_plus_halfsquare_mean(UNIT), 1, 11, True),
    # the extent, 0.25 of which is the first step's scale, is inf: every
    # candidate is NaN and no climb moves
    (lambda: arithmetic_mean(HUGE_FACTOR_PRODUCT, 2), 3, 1, False),
])
def test_lambda_lockstep_matches_the_scalar_loop(monkeypatch, make, restarts, seed, interval):
    p = make()
    method = estimate_lambda(p, LambdaConfig(grid_step=0.1, restarts=1)).method
    assert method == ("grid" if interval else "random+hill")
    report = _assert_search_lanes_agree(_random_hill(p, restarts), seed)
    steps = _scalar_climbs(monkeypatch)
    monkeypatch.setattr(means, "SEARCH_BLOCK_BUDGET", 0)
    est = means._estimate_random(p, LambdaConfig(restarts=restarts, seed=seed))
    # every restart climbed in the lockstep, none through the scalar loop
    assert est.route == f"lockstep substreams, {restarts} restarts in 1 block"
    assert steps == []
    assert json.loads(report)["samples"] == restarts * (means.HILL_STEPS + 1)
    assert not math.isnan(est.lambda_hat)  # a NaN never wins


@pytest.mark.parametrize("seed, retried", [(1, True), (2, True), (3, False), (4, True),
                                           (5, False)])
def test_lambda_lockstep_block_with_a_retry_runs_the_scalar_loop(monkeypatch, seed, retried):
    # of 300 restarts, the one whose start tuple is drawn again climbs
    # through the scalar loop on its own seed, and the rest of the block in
    # lockstep
    run = _random_hill(arithmetic_mean(RETRY_BOX, 2), 300)
    _assert_search_lanes_agree(run, seed)
    steps = _scalar_climbs(monkeypatch)
    monkeypatch.setattr(means, "SEARCH_BLOCK_BUDGET", 0)
    assert run(Xoshiro256StarStar(seed)).route == "lockstep substreams, 300 restarts in 1 block"
    assert steps == ([means.HILL_STEPS] if retried else [])


def test_lambda_lockstep_blocks_span_the_restarts(monkeypatch):
    # four restarts of two points on a line a block: 37 restarts take ten
    # blocks, and the eighth holds seed 55's retry, its restart 30
    monkeypatch.setattr(means, "BLOCK_FLOATS", 4 * 2)
    run = _random_hill(arithmetic_mean(RETRY_BOX, 2), 37)
    _assert_search_lanes_agree(run, 55)
    steps = _scalar_climbs(monkeypatch)
    monkeypatch.setattr(means, "SEARCH_BLOCK_BUDGET", 0)
    assert run(Xoshiro256StarStar(55)).route == "lockstep substreams, 37 restarts in 10 blocks"
    assert steps == [means.HILL_STEPS]


def test_lambda_lockstep_block_counts_the_point_pairs_of_a_large_arity(monkeypatch):
    # arity 130 on a line counts its 130 * 129 / 2 point pairs a restart,
    # which the diameter reads, not its 130 points: the cap holds one
    # restart a block, not two
    monkeypatch.setattr(means, "BLOCK_FLOATS", 2 * 130 * 129 // 2 - 1)
    run = _random_hill(arithmetic_mean(Box([0.0], [1.0]), 130), 3)
    _assert_search_lanes_agree(run, 2)
    monkeypatch.setattr(means, "SEARCH_BLOCK_BUDGET", 0)
    assert run(Xoshiro256StarStar(2)).route == "lockstep substreams, 3 restarts in 3 blocks"


def test_solomonic_shortest_climb_on_a_box():
    # 74 shrinks by 0.7 take 0.25 below 1e-12; an inf scale never gets there
    assert _fewest(Box([-1.0, -1.0], [1.0, 1.0])) == 75
    assert _fewest(HUGE_FACTOR_PRODUCT) == WORK_CAP


@pytest.mark.parametrize("budget, restarts, rerun", [
    (1, 1, []), (75, 1, []), (76, 1, []), (150, 1, []), (151, 2, [0]), (600, 5, [50]),
    (20_000, 148, [33]),
])
def test_solomonic_lockstep_reruns_the_restart_that_crosses_the_budget(monkeypatch, budget,
                                                                        restarts, rerun):
    # the benchmark's config at seed 1, whose first restart stops after 150
    # evaluations: a restart cut short by the budget climbs again through
    # the scalar loop, with the steps the budget leaves it; one that ends on
    # the budget is the lockstep's own
    p = arithmetic_mean(Box([-1.0, -1.0], [1.0, 1.0]), 3)
    K = 4 * math.sqrt(2.0)
    report = _assert_search_lanes_agree(_solomonic(p, K, budget), 1)
    assert json.loads(report)["evaluations"] == budget
    steps = _scalar_climbs(monkeypatch)
    monkeypatch.setattr(means, "SEARCH_BLOCK_BUDGET", 0)
    result = solomonic_witness_search(p, K, budget, 1)
    assert result.route == f"lockstep substreams, {restarts} restarts in 1 block, {budget} evaluations"
    assert steps == rerun


def test_solomonic_lockstep_blocks_span_the_budget(monkeypatch):
    # two restarts of three 2-D points a block
    monkeypatch.setattr(means, "BLOCK_FLOATS", 12)
    p = arithmetic_mean(Box([-1.0, -1.0], [1.0, 1.0]), 3)
    _assert_search_lanes_agree(_solomonic(p, 5.0, 2000), 3)
    monkeypatch.setattr(means, "SEARCH_BLOCK_BUDGET", 0)
    route = solomonic_witness_search(p, 5.0, 2000, 3).route
    assert re.fullmatch(r"lockstep substreams, \d+ restarts in \d+ blocks, 2000 evaluations",
                        route)
    assert int(route.split()[5]) > 1


@pytest.mark.parametrize("gate", [0, math.inf])
def test_solomonic_search_with_no_number_for_a_margin_raises(monkeypatch, gate):
    # every margin is NaN: earlier versions reported a best margin of -inf,
    # which report.json wrote as -Infinity
    box = Box([-1.0, -1.0], [1.0, 1.0])
    nan_map = QuasiMeanMap(2, box, lambda points: (math.nan, math.nan), "nan",
                           batch=lambda arrays: np.full(np.broadcast(*arrays).shape, np.nan))
    monkeypatch.setattr(means, "SEARCH_BLOCK_BUDGET", gate)
    with pytest.raises(SamplingError, match="no usable tuple found during the solomonic search"):
        solomonic_witness_search(nan_map, 0.5, 300, 1)


# ---------------------------------------------------------------------------
# registry and construction


def test_registry_names():
    assert mean_from_name("arithmetic:3", UNIT).arity == 3
    assert mean_from_name("geometric", Interval(1, 2)).label == "geometric"
    assert mean_from_name("dictator:1", UNIT).symmetric is False
    assert mean_from_name("arithmetic:2", UNIT).symmetric is True
    assert mean_from_name("constant:0.5", UNIT).eval([(0.1,), (0.9,)]) == (0.5,)
    assert mean_from_name("minsq", UNIT).label == "minsq"
    # the bare names take arity 2 and index 0
    assert mean_from_name("arithmetic", UNIT).label == "arithmetic:2"
    assert mean_from_name("dictator", UNIT).eval([(0.1,), (0.9,)]) == (0.1,)
    with pytest.raises(ValueError):
        mean_from_name("median", UNIT)
    with pytest.raises(ValueError):
        mean_from_name("constant", UNIT)


def test_calling_a_map_reads_its_arguments_as_points():
    p = mean_from_name("dictator:1", UNIT)
    assert p(0.25, [1]) == (1.0,)
    with pytest.raises(ValueError, match="dictator:1 needs 2 arguments, got 3"):
        p(0.25, 0.5, 0.75)


@pytest.mark.parametrize("name", ["arithmetic:0", "arithmetic:1", "arithmetic:x", "arithmetic:",
                                  "dictator:x", "dictator:2", "dictator:-1", "geometric:3",
                                  "constant:x", "constant:0.5,", "minsq:2"])
def test_registry_names_the_mean_and_its_forms_for_a_bad_tail(name):
    with pytest.raises(ValueError) as info:
        mean_from_name(name, UNIT)
    assert str(info.value) == f"unknown mean name {name!r}; the names are {means.MEAN_NAMES}"


def test_registry_rejects_incompatible_spaces():
    with pytest.raises(ValueError):
        mean_from_name("arithmetic:2", Circle(1.0))
    with pytest.raises(ValueError):
        mean_from_name("geometric", Interval(-1.0, 1.0))
    with pytest.raises(ValueError):
        mean_from_name("constant:5", UNIT)  # not a member


def test_quasi_mean_factory_raises_on_unanimity_defect():
    # the defect is that of the worst of 8 points drawn from UNANIMITY_SEED
    drawn = UNIT.sample(means.UNANIMITY_SEED, 8)
    far = max(drawn, key=lambda x: abs(x[0] - 0.5))
    with pytest.raises(HypothesisError) as failure:
        quasi_mean(2, UNIT, lambda pts: (0.5,), "stuck")
    assert str(failure.value) == (f"stuck unanimity defect {abs(far[0] - 0.5):.3g} exceeds "
                                  f"tol 1e-09 at witness ({far},)")
    assert quasi_mean(2, UNIT, lambda pts: pts[0], "first").label == "first"


def test_law_report_json():
    p = dictator_mean(Circle(1.0), 0)
    report = check_anonymity(p, sample_tuples(Circle(1.0), 2, 40, 20), 1e-9)
    blob = report.to_json()
    assert blob["law"] == "M2" and blob["passed"] is False
    assert isinstance(blob["witness"], list)


def test_batch_eval_matches_scalar():
    for name, space in (("arithmetic:2", UNIT), ("geometric", Interval(1, 4)),
                        ("minsq", UNIT), ("dictator:1", UNIT)):
        p = mean_from_name(name, space)
        xs = np.array([[0.2], [0.5], [0.9]]) * (space.b - space.a) + space.a
        ys = np.array([[0.6], [0.1], [0.3]]) * (space.b - space.a) + space.a
        out = p.batch([xs, ys])
        for i in range(3):
            expected = p.eval([(xs[i, 0],), (ys[i, 0],)])
            assert abs(out[i, 0] - expected[0]) == 0.0


def test_arithmetic_eval_keeps_the_sign_of_a_negative_zero():
    # a sum that starts at the int 0 turns -0.0 + -0.0 into 0.0, where the
    # batch form, which starts at its first array, keeps -0.0
    for arity in (2, 3, 4):
        p = arithmetic_mean(Interval(-1.0, 1.0), arity)
        (value,) = p.eval([(-0.0,)] * arity)
        (batch_value,) = p.batch([np.array([-0.0])] * arity)
        assert math.copysign(1.0, batch_value) == -1.0
        assert math.copysign(1.0, value) == -1.0
    assert arithmetic_mean(Interval(-1.0, 1.0), 2).eval([(-0.0,), (0.0,)]) == (0.0,)
