import dataclasses
import math

import numpy as np
import pytest

from equimean import _kernels, means
from equimean.errors import CapacityError, HypothesisError, SamplingError
from equimean.groups import negation_action, plane_rotation_action, reflection_action
from equimean.means import (
    GRID_PAIRS_CAP,
    LambdaConfig,
    QuasiMeanMap,
    _grid_points,
    arithmetic_mean,
    check_anonymity,
    check_contractivity,
    check_equivariance,
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
from equimean.rng import as_rng
from equimean.spaces import Box, Circle, FinitePoints, Interval

UNIT = Interval(0.0, 1.0)
SYM = Interval(-1.0, 1.0)


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
    box = Box([-1, -1], [1, 1])
    act = reflection_action(box, axis=1)
    p = arithmetic_mean(box, 2)
    assert orbit_average_point(p, act, (0.3, 0.4), verify_laws=True) == (0.3, 0.0)
    with pytest.raises(HypothesisError, match="anonymity defect .* at witness"):
        orbit_average_point(dictator_mean(box, 0), act, (0.3, 0.4), verify_laws=True)


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


def test_mean_law_gate_checks_anonymity_then_equivariance_on_one_rng():
    box = Box([-1, -1], [1, 1])
    act = reflection_action(box, axis=1)
    require_mean_laws(arithmetic_mean(box, 2), act, 1e-9, None, 3, 8)
    # anonymous, yet it moves the second coordinate off the reflection's axis
    skew = QuasiMeanMap(2, box, lambda pts: (0.5 * (pts[0][0] + pts[1][0]), 0.25), "skew")
    with pytest.raises(HypothesisError, match=r"^equivariance defect 0\.5 exceeds tol 1e-09"):
        require_mean_laws(skew, act, 1e-9, None, 3, 8)
    # arity 6 draws transpositions, which continue the rng that drew the tuples
    lopsided = QuasiMeanMap(6, SYM, lambda pts: pts[0], "dictator:0/6")
    rng = as_rng(3)
    report = check_anonymity(lopsided, sample_tuples(SYM, 6, rng, 4), 1e-9, rng)
    message = (f"anonymity defect {report.max_violation:.3g} exceeds tol 1e-09 "
               f"at witness {report.witness}")
    with pytest.raises(HypothesisError) as raised:
        require_mean_laws(lopsided, negation_action(SYM), 1e-9, None, 3, 4)
    assert str(raised.value) == message


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
    est = estimate_lambda(p, LambdaConfig(force_random=True, restarts=60, seed=12))
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
    with pytest.raises(CapacityError, match=f"cap {GRID_PAIRS_CAP}"):
        _grid_points(0.0, 1.0, 1.0 / 31623)
    # about 10^12 pairs, and a step whose point count overflows a float
    for step in (1e-6, 5e-324):
        with pytest.raises(CapacityError, match="cap"):
            estimate_lambda(arithmetic_mean(UNIT, 2), LambdaConfig(grid_step=step))


def test_lambda_grid_ends_on_the_interval_end():
    # 7e-4 does not divide 3: the grid's last step point is 3.9995, and b = 4
    # is one more grid point, where the ratio 2/3 is attained
    m = 4287
    assert _grid_points(1.0, 4.0, 7e-4) == m
    est = estimate_lambda(geometric_mean(Interval(1.0, 4.0)), LambdaConfig(grid_step=7e-4))
    assert est.lambda_hat == 2.0 / 3.0
    assert est.argmax_tuple == ((1.0,), (4.0,))
    assert est.samples == m * (m - 1)


def _skewed_batch_mean(space):
    # 0.75 x + 0.25 y: its ratio matrix is not symmetric, so the scan must
    # score whole rows of the full square
    return QuasiMeanMap(2, space, lambda pts: (0.75 * pts[0][0] + 0.25 * pts[1][0],),
                        "skewed", batch=lambda arrays: 0.75 * arrays[0] + 0.25 * arrays[1])


@pytest.mark.parametrize("make", [
    lambda: dataclasses.replace(arithmetic_mean(UNIT, 2), symmetric=False),
    lambda: dataclasses.replace(geometric_mean(Interval(1.0, 4.0)), symmetric=False),
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
        rows = dataclasses.replace(p, symmetric=False)
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
    lambda: dataclasses.replace(geometric_mean(Interval(1.0, 4.0)), batch=None),
    lambda: dataclasses.replace(min_plus_halfsquare_mean(UNIT), batch=None, symmetric=True),
    lambda: dataclasses.replace(_skewed_batch_mean(UNIT), batch=None),
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
    monkeypatch.setattr(_kernels, "BLOCK_CELLS", 37)
    p = make()
    est = estimate_lambda(p, LambdaConfig(grid_step=step))
    assert (est.lambda_hat, est.argmax_tuple, est.samples) == _double_loop_scan(p, step, 1e-6)


def test_arithmetic_mean_equals_per_coordinate_sums():
    for n, space in ((2, UNIT), (3, Box([-1, -1], [1, 1])), (4, Box([0, 0, 0], [1, 2, 3]))):
        p = arithmetic_mean(space, n)
        for tup in sample_tuples(space, n, 40 + n, 50):
            dim = len(tup[0])
            want = tuple(sum(pt[i] for pt in tup) / n for i in range(dim))
            assert p.eval(list(tup)) == want


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


# ---------------------------------------------------------------------------
# registry and construction


def test_registry_names():
    assert mean_from_name("arithmetic:3", UNIT).arity == 3
    assert mean_from_name("geometric", Interval(1, 2)).label == "geometric"
    assert mean_from_name("dictator:1", UNIT).symmetric is False
    assert mean_from_name("arithmetic:2", UNIT).symmetric is True
    assert mean_from_name("constant:0.5", UNIT).eval([(0.1,), (0.9,)]) == (0.5,)
    assert mean_from_name("minsq", UNIT).label == "minsq"
    with pytest.raises(ValueError):
        mean_from_name("median", UNIT)
    with pytest.raises(ValueError):
        mean_from_name("constant", UNIT)


def test_registry_rejects_incompatible_spaces():
    with pytest.raises(ValueError):
        mean_from_name("arithmetic:2", Circle(1.0))
    with pytest.raises(ValueError):
        mean_from_name("geometric", Interval(-1.0, 1.0))
    with pytest.raises(ValueError):
        mean_from_name("constant:5", UNIT)  # not a member


def test_quasi_mean_factory_warns_on_unanimity_defect():
    with pytest.warns(UserWarning, match="unanimity defect"):
        quasi_mean(2, UNIT, lambda pts: (0.5,), "stuck")


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
