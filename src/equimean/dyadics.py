"""Exact dyadic rationals in [0, 1] and monotone chain decompositions.

A dyadic j/2^n is stored in canonical form (j odd, or n == 0 for the
endpoints) with plain Python integers, so every operation here is exact;
floating point only appears when a caller asks for ``value``. Levels are
capped at 62 to keep numerators inside 64 bits.

``chain_decompose`` bridges s < t by two monotone chains that meet in the
middle: an ascending chain from s and a descending chain from t, where
each step moves by exactly one grid cell of the *current* point's level,
so the levels strictly decrease along both chains. The recursion advances
on whichever side currently sits on the finer grid; each step reduces the
number of finest-grid cells separating the sides, which proves
termination. The endpoint pair (0, 1) is degenerate (both points have
level 0, so no strictly level-descending bridge exists); by convention it
decomposes as s_chain [0], t_chain [1, 0], and ``validate_chain`` accepts
exactly that orientation.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CapacityError

MAX_LEVEL = 62


class Dyadic:
    """Canonical dyadic rational j/2^n in [0, 1]."""

    __slots__ = ("j", "n")

    def __init__(self, j: int, n: int):
        if n < 0:
            raise ValueError("level must be nonnegative")
        # j <= 2^n, read off j's bits: 2^n itself may not fit in memory
        size = j.bit_length()
        if j < 0 or size > n and (size > n + 1 or j & (j - 1)):
            raise ValueError(f"{j}/2^{n} lies outside [0, 1]")
        if not j & 1:
            # j's trailing zeros bound the shift, whatever n is
            shift = min((j & -j).bit_length() - 1, n) if j else n
            j >>= shift
            n -= shift
        if n > MAX_LEVEL:
            raise CapacityError(f"dyadic level {n} exceeds the cap {MAX_LEVEL}")
        self.j = j
        self.n = n

    @property
    def value(self) -> float:
        import math

        return math.ldexp(self.j, -self.n)

    def __eq__(self, other) -> bool:
        return isinstance(other, Dyadic) and self.j == other.j and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.j, self.n))

    def _cmp_key(self, other: "Dyadic") -> tuple[int, int]:
        m = max(self.n, other.n)
        return self.j << (m - self.n), other.j << (m - other.n)

    def __lt__(self, other: "Dyadic") -> bool:
        a, b = self._cmp_key(other)
        return a < b

    def __le__(self, other: "Dyadic") -> bool:
        a, b = self._cmp_key(other)
        return a <= b

    def __gt__(self, other: "Dyadic") -> bool:
        return other < self

    def __ge__(self, other: "Dyadic") -> bool:
        return other <= self

    def step_up(self) -> "Dyadic":
        """The next grid point to the right on this point's own level."""
        return Dyadic(self.j + 1, self.n)

    def step_down(self) -> "Dyadic":
        """The next grid point to the left on this point's own level."""
        return Dyadic(self.j - 1, self.n)

    def __str__(self) -> str:
        return f"{self.j}/2^{self.n}"

    def __repr__(self) -> str:
        return f"Dyadic({self.j}, {self.n})"


ZERO = Dyadic(0, 0)
ONE = Dyadic(1, 0)


def height(x: Dyadic) -> int:
    """Minimal level whose grid contains x; equals the canonical level."""
    return x.n


def parse_dyadic(text: str) -> Dyadic:
    """Parse '0', '1', 'j/2^n' or 'j/d' with d a power of two."""
    num, slash, den = text.strip().partition("/")
    den = den.strip()
    try:
        j = int(num)
        if not slash:
            n = 0
        elif den.startswith("2^"):
            n = int(den[2:])
        else:
            d = int(den)
            n = d.bit_length() - 1
            if d <= 0 or d & (d - 1):
                raise ValueError
        if n < 0:
            raise ValueError
    except ValueError:
        raise ValueError(f"cannot read {text!r} as a dyadic: the forms are 0, 1, "
                         "j/2^n and j/d with d a power of two") from None
    return Dyadic(j, n)


def nearest_dyadic(t: float, level: int) -> Dyadic:
    """Snap a real t in [0, 1] to the closest grid point at ``level``."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time {t} outside [0, 1]")
    j = round(t * (1 << level))
    return Dyadic(min(max(j, 0), 1 << level), level)


def grid_steps(s: Dyadic, t: Dyadic) -> int:
    """Number of cells separating s and t on the finest grid of the pair:
    the unique i with |s - t| = i / 2^max(h(s), h(t))."""
    m = s.n if s.n > t.n else t.n
    return abs((s.j << (m - s.n)) - (t.j << (m - t.n)))


class ChainDecomposition(NamedTuple):
    s_chain: list  # ascending from s, levels strictly decreasing
    t_chain: list  # descending from t, levels strictly decreasing

    def to_json(self) -> dict:
        return {
            "s_chain": [str(d) for d in self.s_chain],
            "t_chain": [str(d) for d in self.t_chain],
            "s_values": [d.value for d in self.s_chain],
            "t_values": [d.value for d in self.t_chain],
        }


def _chains(s: Dyadic, t: Dyadic) -> tuple[list, list]:
    s_chain, t_chain = [s], [t]
    steps = grid_steps(s, t)
    while steps != 1:
        if s.n >= t.n:
            s1 = s.step_up()
            closer = grid_steps(s1, t)
            if closer == 0:  # s1 == t
                s_chain.append(t)
                return s_chain, t_chain
            if closer >= steps:
                raise RuntimeError(f"chain step from {s} to {s1} does not approach {t}")
            s, steps = s1, closer
            s_chain.append(s)
        else:
            t1 = t.step_down()
            closer = grid_steps(s, t1)
            if closer == 0:  # t1 == s
                t_chain.append(s)
                return s_chain, t_chain
            if closer >= steps:
                raise RuntimeError(f"chain step from {t} to {t1} does not approach {s}")
            t, steps = t1, closer
            t_chain.append(t)
    if s.n > t.n:
        s_chain.append(t)
    else:
        # t on the finer grid, or the degenerate level-0 pair (0, 1)
        t_chain.append(s)
    return s_chain, t_chain


def chain_decompose(s: Dyadic, t: Dyadic) -> ChainDecomposition:
    """Bridge s < t by one ascending and one descending dyadic chain."""
    if not s < t:
        raise ValueError(f"chain_decompose needs s < t, got {s} >= {t}")
    s_chain, t_chain = _chains(s, t)
    return ChainDecomposition(s_chain, t_chain)


def validate_chain(s: Dyadic, t: Dyadic, c: ChainDecomposition) -> tuple[bool, list[str]]:
    """Exact check of the four chain properties; returns every violation.

    Properties, for s_chain = (s_0..s_k) and t_chain = (t_0..t_l):
      (1) s = s_0 <= ... <= s_k = t_l <= ... <= t_0 = t,
      (2) levels strictly decrease along each chain,
      (3) each s-step spans exactly one cell of the left point's level,
      (4) each t-step spans exactly one cell of the right point's level.
    Exception to (2): the t-chain step from 1 down to 0 (both level 0) is
    allowed, so the conventional decomposition of (0, 1) validates while
    the mirrored orientation does not.
    """
    v: list[str] = []
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
    # each step (a, b) is read on its common level m, once: numerators
    # aj, bj over 2^m, and one cell of a's level is 2^(m - a.n) there
    for a, b in zip(sc, sc[1:]):
        m = a.n if a.n > b.n else b.n
        aj, bj = a.j << (m - a.n), b.j << (m - b.n)
        if not aj <= bj:
            v.append(f"s_chain not ascending at {a} -> {b}")
        if not a.n > b.n:
            v.append(f"s_chain levels not strictly decreasing at {a} -> {b}")
        if bj - aj != 1 << (m - a.n):
            v.append(f"s_chain step {a} -> {b} is not one cell at level {a.n}")
    for a, b in zip(tc, tc[1:]):
        m = a.n if a.n > b.n else b.n
        aj, bj = a.j << (m - a.n), b.j << (m - b.n)
        if not bj <= aj:
            v.append(f"t_chain not descending at {a} -> {b}")
        if not a.n > b.n and not (a == ONE and b == ZERO):
            v.append(f"t_chain levels not strictly decreasing at {a} -> {b}")
        if aj - bj != 1 << (m - a.n):
            v.append(f"t_chain step {a} -> {b} is not one cell at level {a.n}")
    return len(v) == 0, v
