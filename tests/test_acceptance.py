"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Criteria pin both the numeric tolerances and, where stated, wall-clock
budgets.
"""

import math
import time

from equimean.dyadics import Dyadic, chain_decompose, validate_chain
from equimean.groups import full_subgroup, negation_action, reflection_action
from equimean.homotopy import (
    ContractionBuilder,
    fixed_set_deformation,
    straight_line_extension,
    verify_claim1,
    verify_holder,
)
from equimean.laws import (check_strict_betweenness, contractivity_ratio, orbit_average_point,
                           sample_tuples)
from equimean.means import (
    LambdaConfig,
    arithmetic_mean,
    collapse_to_quasi_mean,
    derive_divisor_mean,
    estimate_lambda,
    geometric_mean,
    min_plus_halfsquare_mean,
)
from equimean.rng import Xoshiro256StarStar
from equimean.spaces import Box, Interval


def _report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_arithmetic_lambda():
    t0 = time.perf_counter()
    est = estimate_lambda(arithmetic_mean(Interval(0.0, 1.0), 2), LambdaConfig(grid_step=1e-3))
    elapsed = time.perf_counter() - t0
    ok = abs(est.lambda_hat - 0.5) <= 1e-3 and elapsed < 5.0
    _report(1, ok, f"arithmetic:2 lambda_hat={est.lambda_hat:.6f} (target 0.5 +/- 1e-3), "
                   f"{elapsed:.2f}s < 5s")


def test_criterion_2_geometric_lambda():
    t0 = time.perf_counter()
    est = estimate_lambda(geometric_mean(Interval(1.0, 4.0)), LambdaConfig(grid_step=1e-3))
    elapsed = time.perf_counter() - t0
    target = 2.0 / 3.0  # (b - sqrt(a b)) / (b - a) at a=1, b=4
    ok = abs(est.lambda_hat - target) <= 1e-2 and elapsed < 5.0
    _report(2, ok, f"geometric lambda_hat={est.lambda_hat:.6f} (target 2/3 +/- 1e-2), "
                   f"{elapsed:.2f}s < 5s")


def test_criterion_3_minsq_counterexample():
    p = min_plus_halfsquare_mean(Interval(0.0, 1.0))
    worst = 0.0
    for n in range(2, 1025):
        ratio = contractivity_ratio(p, ((1.0 / n,), (0.0,)))
        worst = max(worst, abs(ratio - (1.0 - 1.0 / (2.0 * n))))
    est = estimate_lambda(p, LambdaConfig(grid_step=1e-4))
    strict = check_strict_betweenness(p, sample_tuples(p.space, 2, 77, 300))
    ok = worst <= 1e-12 and est.lambda_hat >= 0.999 and strict.passed
    _report(3, ok, f"minsq ratio identity defect={worst:.2e} (<=1e-12), "
                   f"lambda_hat={est.lambda_hat:.6f} (>=0.999), "
                   f"strict betweenness passed={strict.passed}")


def _geometric_builder_12() -> ContractionBuilder:
    space = Interval(1.0, 2.0)
    lam = 2.0 - math.sqrt(2.0)
    return ContractionBuilder(geometric_mean(space), lam, (2.0,))


def test_criterion_4_adjacent_step_sweep():
    t0 = time.perf_counter()
    report = verify_claim1(_geometric_builder_12(), (1.0,), 12)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 2.0
    _report(4, ok, f"geometric levels 0..12 worst ratio={report.max_ratio:.9f} "
                   f"(<= 1+1e-9), {elapsed:.2f}s < 2s")


def test_criterion_5_holder_sweep():
    report = verify_holder(_geometric_builder_12(), (1.0,), 10000, 12, seed_or_rng=99)
    ok = report.passed and report.violations == 0
    _report(5, ok, f"holder sweep 10^4 pairs depth 12: violations={report.violations}, "
                   f"worst ratio={report.max_ratio:.6f}")


def test_criterion_6_exhaustive_chains():
    values = [Dyadic(j, 8) for j in range(257)]
    t0 = time.perf_counter()
    bad = 0
    pairs = 0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            c = chain_decompose(values[i], values[j])
            ok, _ = validate_chain(values[i], values[j], c)
            bad += not ok
            pairs += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 1.0
    _report(6, ok, f"chains over {pairs} pairs at levels <= 8: "
                   f"{bad} violations, {elapsed:.2f}s < 1s")


def test_criterion_7_equivariant_construction():
    space = Interval(-1.0, 1.0)
    action = negation_action(space)
    builder = ContractionBuilder(arithmetic_mean(space, 2), 0.5, (0.0,))
    rng = Xoshiro256StarStar(2024)
    worst = 0.0
    for _ in range(1000):
        x = space.sample(rng, 1)[0]
        g = rng.randrange(2)
        level = rng.randrange(11)
        d = Dyadic(rng.randrange((1 << level) + 1), level)
        gx = action.act(g, x)
        worst = max(
            worst,
            space.d(builder.at_dyadic(gx, d), action.act(g, builder.at_dyadic(x, d))),
        )
    ok = worst <= 1e-12
    _report(7, ok, f"negation equivariance over 10^3 (g,x,dyadic<=10): "
                   f"max defect={worst:.2e} (<=1e-12)")


def test_criterion_8_orbit_average_fixed():
    box = Box([-1.0, -1.0], [1.0, 1.0])
    action = reflection_action(box, axis=1)
    p = arithmetic_mean(box, 2)
    rng = Xoshiro256StarStar(2025)
    worst = 0.0
    for x in box.sample(rng, 1000):
        x0 = orbit_average_point(p, action, x, tol=1e-12)
        worst = max(worst, max(box.d(action.act(h, x0), x0) for h in (0, 1)))
    ok = worst <= 1e-12
    _report(8, ok, f"orbit averages H-fixed on 10^3 samples: max defect={worst:.2e}")


def test_criterion_9_fixed_set_deformation():
    box = Box([-1.0, -1.0], [1.0, 1.0])
    action = reflection_action(box, axis=1)
    retract = lambda x: (x[0], 0.0)
    extension = straight_line_extension(box, retract)
    gh = fixed_set_deformation(
        action, full_subgroup(action.group), retract, arithmetic_mean(box, 2),
        extension, tol=1e-12, samples=64,
    )
    rng = Xoshiro256StarStar(2026)
    worst_id = worst_still = worst_end = 0.0
    for x in box.sample(rng, 1000):
        worst_id = max(worst_id, box.d(gh(x, 0.0), x))
        worst_end = max(worst_end, abs(gh(x, 1.0)[1]))  # distance to the axis
        x0 = (x[0], 0.0)
        worst_still = max(worst_still, box.d(gh(x0, rng.random()), x0))
    ok = worst_id <= 1e-12 and worst_still <= 1e-12 and worst_end <= 1e-12
    _report(9, ok, f"deformation onto the axis: id defect={worst_id:.2e}, "
                   f"stationarity={worst_still:.2e}, end-slice={worst_end:.2e} "
                   f"(all <=1e-12 on 10^3 samples)")


def test_criterion_10_divisor_and_collapse_laws():
    space = Interval(0.0, 1.0)
    q = derive_divisor_mean(arithmetic_mean(space, 4), 2)
    p2 = arithmetic_mean(space, 2)
    worst_div = 0.0
    for tup in sample_tuples(space, 2, 2027, 1000):
        worst_div = max(worst_div, space.d(q.eval(list(tup)), p2.eval(list(tup))))
    collapsed = collapse_to_quasi_mean(arithmetic_mean(space, 3))
    worst_col = 0.0
    for tup in sample_tuples(space, 2, 2028, 1000):
        expected = ((tup[0][0] + 2.0 * tup[1][0]) / 3.0,)
        worst_col = max(worst_col, space.d(collapsed.eval(list(tup)), expected))
    ok = worst_div <= 1e-12 and worst_col <= 1e-12
    _report(10, ok, f"divisor(arith4,2)==arith2 defect={worst_div:.2e}, "
                    f"collapse(arith3)==(x+2y)/3 defect={worst_col:.2e} (<=1e-12)")
