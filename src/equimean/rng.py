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
"""

from __future__ import annotations

_MASK = 0xFFFFFFFFFFFFFFFF


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

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection on the top bits."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        span = (_MASK // n) * n
        while True:
            u = self.next_u64()
            if u < span:
                return u % n

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


def as_rng(seed_or_rng: "int | Xoshiro256StarStar") -> Xoshiro256StarStar:
    """Accept either a raw 64-bit seed or an already-built generator."""
    if isinstance(seed_or_rng, Xoshiro256StarStar):
        return seed_or_rng
    return Xoshiro256StarStar(int(seed_or_rng))
