"""Block draws of the generator against its scalar stream."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equimean.rng import (LANE_SPACING, Xoshiro256StarStar, _columns, _power_tables, lane_draws,
                          randrange_accepts, substream_lanes)

MASK = (1 << 64) - 1
K = LANE_SPACING
# one lane and its edges, several lanes with a short last one, and a full
# verify_holder block of 4 * 4096 draws
LENGTHS = [0, 1, K - 1, K, K + 1, 3 * K + 5, 7 * K - 1, 1 << 14]

SCALAR_CALLS = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("uniform"), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    st.tuples(st.just("randrange"), st.integers(1, 1 << 63)),
)


def replay(seed, calls):
    """Run ``calls`` on a block and a scalar generator from ``seed``: a
    length n is n draws, taken as one block against n ``next_u64`` calls,
    and any other call is made on both. Each call's output and the state
    after it must match."""
    block, scalar = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    for call in calls:
        if isinstance(call, int):
            got = block.u64_array(call)
            assert got.dtype == np.uint64 and got.shape == (call,)
            assert got.tolist() == [scalar.next_u64() for _ in range(call)]
        else:
            name, *args = call
            assert getattr(block, name)(*args) == getattr(scalar, name)(*args)
        assert block.getstate() == scalar.getstate()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, MASK),
       calls=st.lists(st.one_of(st.sampled_from(LENGTHS), SCALAR_CALLS), max_size=6))
def test_block_draws_equal_scalar_draws(seed, calls):
    replay(seed, calls)


@pytest.mark.parametrize("n", LENGTHS)
def test_each_length_continues_the_stream(n):
    replay(2 ** 40 + 3, [("random",), n, n, ("randrange", 9)])


def test_randrange_accepts_is_randrange_rejection_test():
    # randrange(n) rejects the top MASK % n + 1 draws, so that u % n is uniform
    for n in (1, 9, 15, (1 << 14) + 1, (1 << 63) + 1):
        span = (MASK // n) * n
        u = np.array([0, span - 1, span, MASK], dtype=np.uint64)
        assert randrange_accepts(u, n).tolist() == [True, True, False, False]
        bounds = np.full(4, n, dtype=np.uint64)
        assert randrange_accepts(u, bounds).tolist() == [True, True, False, False]


@pytest.mark.parametrize("lanes", [1, 300])
def test_substream_lanes_draw_each_seed_s_stream(lanes):
    # each lane is the scalar generator of its seed, across consecutive
    # draws of every length, both sides of a lane spacing among them
    seeds = [(i * 0x9E3779B97F4A7C15 + 5) & MASK for i in range(lanes)]
    s = substream_lanes(seeds)
    scalars = [Xoshiro256StarStar(seed) for seed in seeds]
    for k in (0, 1, K - 1, K, K + 1):
        got = lane_draws(s, k)
        assert got.dtype == np.uint64 and got.shape == (lanes, k)
        assert got.tolist() == [[g.next_u64() for _ in range(k)] for g in scalars]
        assert [tuple(col) for col in s.T.tolist()] == [g.getstate() for g in scalars]


@pytest.mark.parametrize("k", [LANE_SPACING.bit_length() - 1, LANE_SPACING.bit_length()])
def test_jump_tables_step_each_unit_state_2_to_the_k_times(k):
    # the base level, stepped on numpy lanes, and the first level squared
    # from it, against next_u64 on each of the 256 unit states
    unit, columns = Xoshiro256StarStar(0), []
    for i in range(256):
        state = [0, 0, 0, 0]
        state[i // 64] = 1 << (i % 64)
        unit.setstate(state)
        for _ in range(1 << k):
            unit.next_u64()
        columns.append(unit.getstate())
    assert [tuple(c) for c in _columns(_power_tables(k)).tolist()] == columns


def test_a_block_draw_builds_only_the_levels_its_lanes_jump():
    # 16,384 draws start 256 lanes 64 draws apart: T^64 .. T^(2^13)
    _power_tables.cache_clear()
    Xoshiro256StarStar(1).u64_array(1 << 14)
    assert _power_tables.cache_info().currsize == 8


class Undrawn(Xoshiro256StarStar):
    """A generator that fails the test on any draw."""

    __slots__ = ()

    def next_u64(self):
        raise AssertionError("drew before checking the bound")


@pytest.mark.parametrize("n", [0, -1, 1 << 64, (1 << 64) + 5])
def test_randrange_refuses_a_bound_outside_1_to_2_to_the_64_minus_1(n):
    # (MASK // n) * n is 0 above MASK, so no draw would ever be accepted
    with pytest.raises(ValueError, match=rf"randrange bound must lie in 1..2\^64 - 1, got {n}"):
        Undrawn(1).randrange(n)


def test_randrange_takes_the_largest_bound():
    r, scalar = Xoshiro256StarStar(3), Xoshiro256StarStar(3)
    assert r.randrange(MASK) == scalar.next_u64() % MASK
