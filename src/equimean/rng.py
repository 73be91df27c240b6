"""Seeded random number generation used by every sampler in the package.

All randomness flows from a single 64-bit seed through xoshiro256**, so a
config fixture replays byte-identically on any implementation of the same
generator. Constants (for cross-checking a port):

* state seeding: four rounds of splitmix64 over the seed, with the
  additive constant 0x9E3779B97F4A7C15 and mixing multipliers
  0xBF58476D1CE4E5B9 and 0x94D049BB133111EB (shifts 30, 27, 31);
* output function: rotl(s1 * 5, 7) * 9;
* state update: xor-shift network with shift 17 and rotation 45.

Doubles are produced from the top 53 bits, i.e. ``next_u64() >> 11``
times 2**-53, giving uniforms in [0, 1).

Block draws. ``u64_array(n)`` returns the next n draws as a numpy uint64
array: it equals n ``next_u64`` calls, and it leaves the generator in the
same state as those calls, so block and scalar draws interleave freely on
the one stream. The state update is linear over GF(2), so a 256 x 256 bit
matrix T^K jumps a state K draws ahead (Haramoto, Matsumoto, Nishimura,
Panneton & L'Ecuyer, "Efficient jump ahead for F2-linear random number
generators", INFORMS J. Computing 20(3), 2008). The block path starts
ceil(n / K) lanes K draws apart, lane i at draw iK, and steps them together
as a few vectorised uint64 operations per draw, step j writing row j of a
(steps, lanes) array; one transposed copy then puts lane i's draws
iK .. iK + K - 1 in place. The jump matrices are built once per process,
and only those a block draw uses: T^K by stepping the 256 unit states K
times on numpy lanes, then T^2K, T^4K, ... each as the square of the one
before. Each is applied through tables of XORed columns, one table per 4
bits of the state, gathered through one flat index. ``doubles`` is
``random()`` and ``randrange_accepts`` randrange's rejection test on such
arrays.

Substreams. ``substream_lanes(seeds)`` seeds one lane per seed, each as
``Xoshiro256StarStar(seed)`` seeds its state, and ``lane_draws`` steps the
lanes together through the step function of ``u64_array``, so lane i
draws what that generator's ``next_u64`` calls would. Blackman & Vigna
seed xoshiro's state from a 64-bit seed through splitmix64, as
``__init__`` does ("Scrambled linear pseudorandom number generators", ACM
TOMS 47(4), 2021); with a period of 2^256 - 1, the streams of distinct
seeds overlap with negligible probability. Both restart searches,
random+hill and the solomonic search, climb each restart on its own
substream.
"""

from __future__ import annotations

from functools import cache

_MASK = 0xFFFFFFFFFFFFFFFF
# K, the draws between the starts of neighbouring lanes of a block draw (a
# power of 2); a block of n draws steps min(n, K) times over ceil(n / K) lanes
LANE_SPACING = 64


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 seeding."""

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        seed &= _MASK
        s = []
        for _ in range(4):
            seed, out = _splitmix64(seed)
            s.append(out)
        self._s = s

    def next_u64(self) -> int:
        s = self._s
        s0, s1, s2, s3 = s
        # rotl(x, k) = ((x << k) | (x >> (64 - k))) & _MASK, written inline
        # because this is the hot path of every sampler
        r = (s1 * 5) & _MASK
        result = ((((r << 7) | (r >> 57)) & _MASK) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s[0] = s0
        s[1] = s1
        s[2] = s2
        s[3] = ((s3 << 45) | (s3 >> 19)) & _MASK
        return result

    def getstate(self) -> tuple:
        """The four state words, for ``setstate``."""
        return tuple(self._s)

    def setstate(self, state) -> None:
        self._s = list(state)

    def u64_array(self, n: int):
        """The next n draws as a numpy uint64 array, equal to n ``next_u64``
        calls and leaving the same state; see the module docstring."""
        import numpy as np

        if n <= 0:
            return np.empty(0, dtype=np.uint64)
        lanes = -(-n // LANE_SPACING)
        steps = min(n, LANE_SPACING)
        # the lane that reaches draw n, and the step at which it does
        last, at = divmod(n - 1, LANE_SPACING)
        starts = np.array([self._s], dtype=np.uint64)
        # doubling: the lanes so far, then each of them LANE_SPACING * 2^j ahead
        for j in range((lanes - 1).bit_length()):
            tables = _power_tables(LANE_SPACING.bit_length() - 1 + j)
            starts = np.concatenate([starts, _jump(starts, tables)])
        s = starts[:lanes].T.copy()  # row w is word s_w of every lane
        out = np.empty((steps, lanes), dtype=np.uint64)
        _step(s, out[:at + 1])
        # the state after draw n: lane ``last`` after step ``at``
        self._s = [int(w) for w in s[:, last]]
        _step(s, out[at + 1:])
        return _scramble(out).T.reshape(-1)[:n]

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection on the top bits, for n in
        1 .. 2^64 - 1."""
        if not 0 < n <= _MASK:
            raise ValueError(f"randrange bound must lie in 1..2^64 - 1, got {n}")
        span = (_MASK // n) * n
        while True:
            u = self.next_u64()
            if u < span:
                return u % n

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


def _step(s, out) -> None:
    """next_u64's state update on every lane of ``s`` ((4, lanes) uint64,
    row w word s_w of each lane), once per row of ``out`` ((steps, lanes)
    C-contiguous uint64), whose row j keeps each lane's s1 before step j;
    ``_scramble`` turns those into the draws."""
    import numpy as np

    t = np.empty(s.shape[1], dtype=np.uint64)
    # views made once: rows are short, so each operation's fixed cost dominates
    _, s1, s2, s3 = s
    low, high, reverse = s[:2], s[2:], s[:1:-1]
    for row in out:
        row[:] = s1
        np.left_shift(s1, 17, out=t)
        high ^= low  # s2 ^= s0, s3 ^= s1
        low ^= reverse  # s0 ^= s3, s1 ^= s2
        s2 ^= t
        np.right_shift(s3, 19, out=t)
        s3 <<= 45
        s3 |= t


def _scramble(out):
    """The output function rotl(s1 * 5, 7) * 9 on kept s1 values, in place;
    uint64 arithmetic wraps as the scalar path masks."""
    out *= 5
    high = out >> 57
    out <<= 7
    out |= high
    out *= 9
    return out


def substream_lanes(seeds):
    """The states of ``Xoshiro256StarStar(seed)`` for each seed, as lanes
    for ``lane_draws``: a (4, len(seeds)) uint64 array, column i the state
    of seeds[i]."""
    import numpy as np

    return np.array([Xoshiro256StarStar(seed).getstate() for seed in seeds],
                    dtype=np.uint64).reshape(-1, 4).T.copy()


def lane_draws(s, k: int):
    """The next k draws of every lane of ``s`` ((4, lanes) uint64, as
    ``substream_lanes`` makes), as a (lanes, k) uint64 array; row i equals
    k ``next_u64`` calls on lane i's generator, and ``s`` is advanced in
    place as those calls advance it."""
    import numpy as np

    out = np.empty((k, s.shape[1]), dtype=np.uint64)
    _step(s, out)
    return _scramble(out).T


def doubles(u):
    """``random()`` on numpy uint64 draws: their top 53 bits times 2**-53,
    as float64."""
    import numpy as np

    r = (u >> np.uint64(11)).astype(np.float64)
    r *= 2.0 ** -53
    return r


def randrange_accepts(u, n):
    """Whether ``randrange(n)`` keeps the draw u, which it then maps to
    u % n: u < (MASK // n) * n, on numpy uint64 draws and bounds."""
    import numpy as np

    n = np.asarray(n, dtype=np.uint64)
    return u < np.uint64(_MASK) // n * n


def _nibble_tables(columns):
    """Nibble tables of the GF(2) matrix M whose column k is row k of
    ``columns`` ((256, 4) uint64; bit 64w + i of a state is bit i of word
    w): entry [p, v] is M applied to the value v of the state's nibble p,
    bits 4p .. 4p + 3, i.e. the XOR of the columns of v's bits."""
    import numpy as np

    tables = np.zeros((64, 16, 4), dtype=np.uint64)
    by_nibble = columns.reshape(64, 4, 4)
    for bit in range(4):
        tables[:, 1 << bit:2 << bit] = tables[:, :1 << bit] ^ by_nibble[:, bit, None, :]
    return tables


def _columns(tables):
    """The columns of the matrix of ``tables``."""
    import numpy as np

    return tables[:, 1 << np.arange(4)].reshape(256, 4)


def _jump(states, tables):
    """M applied to each row of ``states`` ((m, 4) uint64), for the matrix
    M of ``tables``: the XOR over a state's 64 nibbles of their entries,
    gathered from the flat (1024, 4) table at nibble + 16 * position."""
    import numpy as np

    octets = np.ascontiguousarray(states, dtype="<u8").view(np.uint8)
    nibbles = np.stack([octets & 15, octets >> 4], axis=-1).reshape(len(states), 64)
    index = nibbles + np.arange(0, 1024, 16)
    return np.bitwise_xor.reduce(tables.reshape(1024, 4).take(index, axis=0), axis=1)


@cache
def _power_tables(k: int):
    """The nibble tables of T^(2^k), for the one-draw transition T: up to
    T^LANE_SPACING, the 256 unit states stepped 2^k times; above it, the
    square of the level below. A block draw's shortest jump is
    LANE_SPACING draws, so it builds no level below that one."""
    import numpy as np

    if (1 << k) > LANE_SPACING:
        half = _power_tables(k - 1)
        return _nibble_tables(_jump(_columns(half), half))
    # lane 64w + i is the state whose only set bit is bit i of word w
    units = np.zeros((4, 256), dtype=np.uint64)
    for w in range(4):
        units[w, 64 * w:64 * w + 64] = np.uint64(1) << np.arange(64, dtype=np.uint64)
    _step(units, np.empty((1 << k, 256), dtype=np.uint64))
    return _nibble_tables(units.T)


def as_rng(seed_or_rng: "int | Xoshiro256StarStar") -> Xoshiro256StarStar:
    """Accept either a raw 64-bit seed or an already-built generator."""
    if isinstance(seed_or_rng, Xoshiro256StarStar):
        return seed_or_rng
    return Xoshiro256StarStar(int(seed_or_rng))
