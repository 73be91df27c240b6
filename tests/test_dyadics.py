import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import equimean
from equimean.dyadics import (
    ONE,
    ZERO,
    ChainDecomposition,
    Dyadic,
    chain_decompose,
    grid_steps,
    nearest_dyadic,
    parse_dyadic,
    validate_chain,
)
from equimean.errors import CapacityError


def frac(d: Dyadic) -> Fraction:
    return Fraction(d.j, 1 << d.n)


def test_canonical_form():
    d = Dyadic(4, 4)  # 4/16 -> 1/4
    assert (d.j, d.n) == (1, 2)
    assert d.n == 2
    assert Dyadic(0, 5).n == 0
    assert Dyadic(32, 5).n == 0  # 32/32 = 1
    assert Dyadic(3, 3).n == 3
    assert str(Dyadic(6, 4)) == "3/2^3"


def test_height_endpoints():
    assert ZERO.n == 0 and ONE.n == 0
    assert ZERO.value == 0.0 and ONE.value == 1.0


def test_bounds_and_capacity():
    with pytest.raises(ValueError):
        Dyadic(9, 3)  # 9/8 > 1
    with pytest.raises(ValueError):
        Dyadic(-1, 3)
    with pytest.raises(CapacityError):
        Dyadic(1, 63)


def test_ordering_exact():
    assert Dyadic(1, 3) < Dyadic(3, 2)
    assert Dyadic(1, 1) <= Dyadic(2, 2)
    assert Dyadic(1, 1) == Dyadic(2, 2)
    assert Dyadic(3, 2) > Dyadic(5, 3)


LEVEL_5 = sorted({Dyadic(j, n) for n in range(6) for j in range((1 << n) + 1)}, key=frac)


def test_comparisons_agree_with_fractions_and_refuse_numbers():
    # __lt__ and __le__ are exact, and > and >= are their reflections
    for a in LEVEL_5:
        for b in LEVEL_5:
            fa, fb = frac(a), frac(b)
            assert (a < b, a <= b, a > b, a >= b) == (fa < fb, fa <= fb, fa > fb, fa >= fb)
    half = Dyadic(1, 1)
    for number in (0, 0.5):
        for compare in (lambda: half < number, lambda: half <= number, lambda: half > number,
                        lambda: half >= number, lambda: number < half, lambda: number >= half):
            with pytest.raises(TypeError):
                compare()


def test_parse_dyadic():
    assert parse_dyadic("0") == ZERO
    assert parse_dyadic("1") == ONE
    assert parse_dyadic("3/2^3") == Dyadic(3, 3)
    assert parse_dyadic("1/8") == Dyadic(1, 3)
    assert parse_dyadic("6/8") == Dyadic(3, 2)
    with pytest.raises(ValueError):
        parse_dyadic("1/3")


@pytest.mark.parametrize("text", ["1/0", "0/0", "3/2^x", "2^-1", ""])
def test_parse_dyadic_names_the_forms_it_reads(text):
    message = (f"cannot read {text!r} as a dyadic: the forms are 0, 1, j/2^n and j/d "
               "with d a power of two")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_dyadic(text)


def test_a_level_over_the_cap_raises_before_it_allocates():
    # 2^400000000 takes 50 MB; 2^(10^12) would take 125 GB, so that case runs
    # only once the first has passed
    src = str(Path(equimean.__file__).parents[1])
    child = textwrap.dedent("""
        import resource
        from equimean.dyadics import parse_dyadic
        from equimean.errors import CapacityError

        def peak_kb():
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        before = peak_kb()
        try:
            parse_dyadic("1/2^400000000")
        except CapacityError as exc:
            print(exc)
        assert peak_kb() - before < 4096, peak_kb() - before
        try:
            parse_dyadic("1/2^1000000000000")
        except CapacityError as exc:
            print(exc)
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                         timeout=20, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["dyadic level 400000000 exceeds the cap 62",
                                       "dyadic level 1000000000000 exceeds the cap 62"]


def test_grid_steps_examples():
    assert grid_steps(Dyadic(1, 2), Dyadic(1, 2)) == 0
    assert grid_steps(Dyadic(1, 3), Dyadic(3, 2)) == 5
    assert grid_steps(Dyadic(1, 2), Dyadic(3, 2)) == 2
    assert grid_steps(ZERO, ONE) == 1


@given(st.integers(0, 1 << 12), st.integers(0, 12), st.integers(0, 1 << 12), st.integers(0, 12))
def test_grid_steps_matches_fraction_oracle(j1, n1, j2, n2):
    a = Dyadic(min(j1, 1 << n1), n1)
    b = Dyadic(min(j2, 1 << n2), n2)
    m = max(a.n, b.n)
    expected = abs(frac(a) - frac(b)) * (1 << m)
    assert expected.denominator == 1
    assert grid_steps(a, b) == expected.numerator


def test_chain_decompose_examples():
    c = chain_decompose(Dyadic(1, 3), Dyadic(3, 2))
    assert [str(d) for d in c.s_chain] == ["1/2^3", "1/2^2", "1/2^1"]
    assert [str(d) for d in c.t_chain] == ["3/2^2", "1/2^1"]
    c = chain_decompose(Dyadic(1, 2), Dyadic(1, 1))
    assert [str(d) for d in c.s_chain] == ["1/2^2", "1/2^1"]
    assert [str(d) for d in c.t_chain] == ["1/2^1"]


def test_chain_endpoint_pair_convention():
    # no strictly level-descending bridge exists for (0, 1); the adopted
    # orientation puts the single full-interval step on the t side
    c = chain_decompose(ZERO, ONE)
    assert c.s_chain == [ZERO]
    assert c.t_chain == [ONE, ZERO]
    ok, violations = validate_chain(ZERO, ONE, c)
    assert ok, violations
    mirrored = ChainDecomposition([ZERO, ONE], [ONE])
    ok, violations = validate_chain(ZERO, ONE, mirrored)
    assert not ok
    assert any("strictly decreasing" in v for v in violations)


def test_chain_decompose_rejects_bad_order():
    with pytest.raises(ValueError):
        chain_decompose(Dyadic(3, 2), Dyadic(1, 3))
    with pytest.raises(ValueError):
        chain_decompose(Dyadic(1, 2), Dyadic(1, 2))


def test_validate_chain_flags_equal_heights():
    s, t = Dyadic(1, 3), Dyadic(3, 2)
    bad = ChainDecomposition([Dyadic(1, 3), Dyadic(3, 3)], [Dyadic(3, 2), Dyadic(3, 3)])
    ok, violations = validate_chain(s, t, bad)
    assert not ok
    assert any("strictly decreasing" in v for v in violations)


def test_validate_chain_degenerate_pair():
    d = Dyadic(3, 3)
    ok, _ = validate_chain(d, d, ChainDecomposition([d], [d]))
    assert ok
    ok, _ = validate_chain(d, d, ChainDecomposition([d, d], [d]))
    assert not ok


def _forced_paths(s: Dyadic, t: Dyadic):
    """All strictly valid decompositions of (s, t): the gap condition
    forces each next element, so only the meeting point can vary."""
    ascent = [s]
    while ascent[-1] < ONE:
        nxt = ascent[-1].step_up()
        if nxt.n >= ascent[-1].n:
            break
        ascent.append(nxt)
    descent = [t]
    while ZERO < descent[-1]:
        nxt = descent[-1].step_down()
        if nxt.n >= descent[-1].n:
            break
        descent.append(nxt)
    out = []
    for k, sv in enumerate(ascent):
        for l, tv in enumerate(descent):
            if sv == tv and sv <= t and s <= tv:
                out.append(([*ascent[: k + 1]], [*descent[: l + 1]]))
    return out


@pytest.mark.parametrize("max_level", [5])
def test_chain_decompose_matches_exhaustive_oracle(max_level):
    values = sorted({Dyadic(j, max_level) for j in range((1 << max_level) + 1)},
                    key=frac)
    for i, s in enumerate(values):
        for t in values[i + 1 :]:
            produced = chain_decompose(s, t)
            if (s, t) == (ZERO, ONE):
                assert _forced_paths(s, t) == []  # the defect is real
                continue
            options = _forced_paths(s, t)
            assert len(options) == 1
            assert (produced.s_chain, produced.t_chain) == options[0]
            ok, violations = validate_chain(s, t, produced)
            assert ok, violations


def test_chain_telescoping_exact():
    values = [Dyadic(j, 6) for j in range(65)]
    for i, s in enumerate(values):
        for t in values[i + 1 :]:
            c = chain_decompose(s, t)
            total = Fraction(0)
            for a, b in zip(c.s_chain, c.s_chain[1:]):
                total += frac(b) - frac(a)
            for a, b in zip(c.t_chain, c.t_chain[1:]):
                total += frac(a) - frac(b)
            assert total == frac(t) - frac(s)


@given(st.integers(0, 1 << 12), st.integers(0, 12), st.integers(0, 1 << 12), st.integers(0, 12))
def test_chain_decompose_validates_on_random_pairs(j1, n1, j2, n2):
    a = Dyadic(min(j1, 1 << n1), n1)
    b = Dyadic(min(j2, 1 << n2), n2)
    if a == b:
        return
    s, t = (a, b) if a < b else (b, a)
    c = chain_decompose(s, t)
    ok, violations = validate_chain(s, t, c)
    assert ok, violations
    # levels strictly decrease, so chains stay short
    assert len(c.s_chain) <= s.n + 1 or (s, t) == (ZERO, ONE)
    assert len(c.t_chain) <= t.n + 2


def test_nearest_dyadic():
    assert nearest_dyadic(0.3, 3) == Dyadic(2, 3)  # 0.3*8 = 2.4 -> 2
    assert nearest_dyadic(0.0, 10) == ZERO
    assert nearest_dyadic(1.0, 0) == ONE
    assert nearest_dyadic(1 / 3, 2) == Dyadic(1, 2)
    with pytest.raises(ValueError):
        nearest_dyadic(1.5, 3)


def test_chain_json():
    c = chain_decompose(Dyadic(1, 3), Dyadic(3, 2))
    blob = c.to_json()
    assert blob["s_chain"] == ["1/2^3", "1/2^2", "1/2^1"]
    assert blob["t_values"] == [0.75, 0.5]


# ---------------------------------------------------------------------------
# reference chain construction and validation, step by step through the
# Dyadic comparisons; the module's versions read each step's common level once


def _reference_chains(s: Dyadic, t: Dyadic) -> tuple[list, list]:
    steps = grid_steps(s, t)
    if steps == 1:
        if s.n > t.n:
            return [s, t], [t]
        return [s], [t, s]
    if s.n >= t.n:
        s1 = s.step_up()
        if s1 == t:
            return [s, t], [t]
        ss, ts = _reference_chains(s1, t)
        return [s] + ss, ts
    t1 = t.step_down()
    if t1 == s:
        return [s], [t, s]
    ss, ts = _reference_chains(s, t1)
    return ss, [t] + ts


def _reference_diff_numerator(hi: Dyadic, lo: Dyadic, denom_level: int) -> int:
    return (hi.j << (denom_level - hi.n)) - (lo.j << (denom_level - lo.n))


def _reference_validate_chain(s, t, c):
    v = []
    sc, tc = c.s_chain, c.t_chain
    if not sc or not tc:
        return False, ["chains must be nonempty"]
    if s == t:
        if not (sc == [s] and tc == [s]):
            v.append("degenerate pair s = t requires both chains == [s]")
        return len(v) == 0, v
    if sc[0] != s:
        v.append(f"s_chain starts at {sc[0]}, expected {s}")
    if tc[0] != t:
        v.append(f"t_chain starts at {tc[0]}, expected {t}")
    if sc[-1] != tc[-1]:
        v.append(f"chains do not meet: {sc[-1]} != {tc[-1]}")
    for i in range(len(sc) - 1):
        a, b = sc[i], sc[i + 1]
        if not a <= b:
            v.append(f"s_chain not ascending at {a} -> {b}")
        if not a.n > b.n:
            v.append(f"s_chain levels not strictly decreasing at {a} -> {b}")
        if _reference_diff_numerator(b, a, max(a.n, b.n)) != (1 << (max(a.n, b.n) - a.n)):
            v.append(f"s_chain step {a} -> {b} is not one cell at level {a.n}")
    for i in range(len(tc) - 1):
        a, b = tc[i], tc[i + 1]
        if not b <= a:
            v.append(f"t_chain not descending at {a} -> {b}")
        if not a.n > b.n and not (a == ONE and b == ZERO):
            v.append(f"t_chain levels not strictly decreasing at {a} -> {b}")
        if _reference_diff_numerator(a, b, max(a.n, b.n)) != (1 << (max(a.n, b.n) - a.n)):
            v.append(f"t_chain step {a} -> {b} is not one cell at level {a.n}")
    return len(v) == 0, v


def _broken(c: ChainDecomposition) -> list:
    """Hand-broken variants of a decomposition, each failing some property."""
    sc, tc = c.s_chain, c.t_chain
    return [
        ChainDecomposition(tc, sc),  # sides swapped
        ChainDecomposition(sc[::-1], tc[::-1]),  # both reversed
        ChainDecomposition(sc[:-1] or [ONE], tc),  # s side stops short
        ChainDecomposition(sc, tc[:1]),  # t side never descends
        ChainDecomposition(sc + [ZERO], tc + [ZERO]),  # a shared bad last step
        ChainDecomposition([s.step_up() if s.j < (1 << s.n) else s for s in sc], tc),
        ChainDecomposition(sc, [ONE] + tc),  # starts at 1 instead of t
        ChainDecomposition([], tc),
    ]


def test_chains_and_validation_match_reference_at_levels_up_to_6():
    values = [Dyadic(j, 6) for j in range(65)]
    for s in values:
        for t in values:
            if s < t:
                c = chain_decompose(s, t)
                assert (c.s_chain, c.t_chain) == _reference_chains(s, t)
                decompositions = [c] + _broken(c)
            else:
                # s = t, and s > t read against the chains of (t, s)
                c = chain_decompose(t, s) if t < s else ChainDecomposition([s], [s])
                decompositions = [c, ChainDecomposition(c.t_chain, c.s_chain)] + _broken(c)
            for d in decompositions:
                assert validate_chain(s, t, d) == _reference_validate_chain(s, t, d)


@given(st.integers(0, 1 << 62), st.integers(0, 62), st.integers(0, 1 << 62), st.integers(0, 62))
def test_chains_and_validation_match_reference_up_to_level_62(j1, n1, j2, n2):
    a = Dyadic(min(j1, 1 << n1), n1)
    b = Dyadic(min(j2, 1 << n2), n2)
    if a == b:
        return
    s, t = (a, b) if a < b else (b, a)
    c = chain_decompose(s, t)
    assert (c.s_chain, c.t_chain) == _reference_chains(s, t)
    for d in [c] + _broken(c):
        assert validate_chain(s, t, d) == _reference_validate_chain(s, t, d)
