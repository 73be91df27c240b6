"""Finite groups as Cayley tables and their actions on metric spaces.

Elements are integer ids 0..m-1 with 0 fixed as the identity, so
composition is a table lookup. Group axioms are validated on
construction (full associativity check up to order 24, seeded sampling
beyond). Actions are user-supplied point maps; they are not assumed
isometric, but ``check_action`` reports the isometry defect alongside
the action laws.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import CapacityError, GroupConstructionError, ToleranceError
from .rng import Xoshiro256StarStar, as_rng
from ._readers import _integer, _integer_in, _list_of, _read_kinded, _within
from .spaces import Circle, MetricSpace, Point, worst

POINT_TOL = 1e-9

_ASSOC_FULL_CHECK_MAX = 24
_ASSOC_SAMPLES = 4096
SUBGROUP_ORDER_BOUND = 64
# largest order ``cyclic`` builds: its Cayley table holds order^2 entries.
# Order 1024 built in 0.46 s at 55 MB peak RSS, and 2048 in 1.8 s at 194 MB
# (2-core machine, CPython 3.11)
CYCLIC_ORDER_CAP = 1024


class FiniteGroup:
    """Validated group on ids 0..m-1 given by its Cayley table."""

    __slots__ = ("order", "cayley", "inverse", "name")

    def __init__(self, cayley: Sequence[Sequence[int]], name: str = "group"):
        m = len(cayley)
        if m == 0:
            raise GroupConstructionError("empty Cayley table")
        table = tuple(tuple(int(v) for v in row) for row in cayley)
        for i, row in enumerate(table):
            if len(row) != m:
                raise GroupConstructionError(f"row {i} has length {len(row)}, expected {m}")
            for j, v in enumerate(row):
                if not 0 <= v < m:
                    raise GroupConstructionError(
                        f"not closed: entry ({i},{j}) = {v} outside 0..{m - 1}"
                    )
        for a in range(m):
            if table[0][a] != a or table[a][0] != a:
                raise GroupConstructionError(f"0 is not a two-sided identity at element {a}")
        inverse = [-1] * m
        for a in range(m):
            for b in range(m):
                if table[a][b] == 0 and table[b][a] == 0:
                    inverse[a] = b
                    break
            if inverse[a] < 0:
                raise GroupConstructionError(f"no inverse for element {a}")
        if m <= _ASSOC_FULL_CHECK_MAX:
            triples = (
                (a, b, c) for a in range(m) for b in range(m) for c in range(m)
            )
        else:
            rng = Xoshiro256StarStar(0x5EED_A550C)
            triples = (
                (rng.randrange(m), rng.randrange(m), rng.randrange(m))
                for _ in range(_ASSOC_SAMPLES)
            )
        for a, b, c in triples:
            if table[table[a][b]][c] != table[a][table[b][c]]:
                raise GroupConstructionError(f"not associative at triple ({a}, {b}, {c})")
        self.order = m
        self.cayley = table
        self.inverse = tuple(inverse)
        self.name = name

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


class Subgroup(NamedTuple("Subgroup", [("parent", FiniteGroup), ("members", tuple)])):
    """The subgroup of ``parent`` whose element ids are ``members``, which
    it holds sorted; raises GroupConstructionError unless they form one."""

    __slots__ = ()

    def __new__(cls, parent: FiniteGroup, members):
        self = super().__new__(cls, parent, tuple(sorted(set(members))))
        mem, m = self.members, parent.order
        for a in mem:
            if not 0 <= a < m:
                raise GroupConstructionError(f"subgroup element id {a} outside 0..{m - 1}")
        if 0 not in mem:
            raise GroupConstructionError("subgroup must contain the identity")
        memset = set(mem)
        for a in mem:
            if self.parent.inv(a) not in memset:
                raise GroupConstructionError(f"subgroup not closed under inverse at {a}")
            for b in mem:
                if self.parent.mul(a, b) not in memset:
                    raise GroupConstructionError(f"subgroup not closed at ({a}, {b})")
        if m % len(mem) != 0:
            raise GroupConstructionError(
                f"subgroup order {len(mem)} does not divide the group order {m}"
            )
        return self

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, g: int) -> bool:
        return g in self.members


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, tuple(range(G.order)))


def subgroup_closure(G: FiniteGroup, generators: Iterable[int]) -> frozenset:
    """Smallest subgroup containing the generators (products suffice in a
    finite group; inverses arrive as powers)."""
    members = {0}
    queue = [g for g in set(generators) if g not in members]
    members.update(queue)
    while queue:
        a = queue.pop()
        for b in list(members):
            for c in (G.mul(a, b), G.mul(b, a)):
                if c not in members:
                    members.add(c)
                    queue.append(c)
    return frozenset(members)


def enumerate_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """All subgroups, sorted by order then member ids.

    Works by growing known subgroups one generator at a time and closing,
    which reaches every subgroup (any subgroup is a chain of one-element
    extensions of the trivial one). Dense lattices near the order cap can
    take a few seconds.
    """
    if G.order > SUBGROUP_ORDER_BOUND:
        raise CapacityError(
            f"subgroup enumeration is bounded at order {SUBGROUP_ORDER_BOUND}, got {G.order}"
        )
    trivial = frozenset({0})
    found = {trivial}
    queue = [trivial]
    while queue:
        H = queue.pop()
        for g in range(1, G.order):
            if g in H:
                continue
            K = subgroup_closure(G, H | {g})
            if K not in found:
                found.add(K)
                queue.append(K)
    subs = [Subgroup(G, tuple(sorted(mem))) for mem in found]
    subs.sort(key=lambda s: (s.order, s.members))
    return subs


# ---------------------------------------------------------------------------
# actions


class GroupAction(NamedTuple):
    """Continuous action of a finite group on a metric space, given as a
    point map per element id.

    ``act_batch`` (optional) takes an element id and an (m, k) float64
    array of points, one per row, and returns the images as an array with
    one point per row, equal to ``apply`` on each row bit for bit."""

    group: FiniteGroup
    space: MetricSpace
    apply: Callable  # (element_id, Point) -> Point
    name: str = "action"
    act_batch: Optional[Callable] = None  # (element_id, array) -> array

    def act(self, g: int, x: Point) -> Point:
        return self.apply(g, x)

    def act_rows(self, g: int, X):
        """The action of g on each row of X: through ``act_batch`` when the
        action has one, else ``act`` row by row."""
        if self.act_batch is not None:
            return self.act_batch(g, X)
        import numpy as np

        images = [self.act(g, tuple(x)) for x in X.tolist()]
        return np.array(images, dtype=np.float64).reshape(len(X), -1)


class ActionReport(NamedTuple):
    identity_defect: float
    compatibility_defect: float
    membership_ok: bool
    isometry_defect: float
    samples: int
    tol: float = POINT_TOL

    @property
    def passed(self) -> bool:
        return (
            self.identity_defect <= self.tol
            and self.compatibility_defect <= self.tol
            and self.membership_ok
        )

    @property
    def isometric(self) -> bool:
        return self.isometry_defect <= self.tol

    def to_json(self) -> dict:
        fields = self._asdict()
        del fields["tol"]
        return {**fields, "isometric": self.isometric, "passed": self.passed}


def check_action(action: GroupAction, seed_or_rng=0, samples: int = 64,
                 tol: float = POINT_TOL) -> ActionReport:
    """Sampled check of the action laws plus an isometry-defect report; each
    defect is the worst over the samples, NaN if any is NaN."""
    rng = as_rng(seed_or_rng)
    pts = action.space.sample(rng, samples)
    G, sp = action.group, action.space
    member_ok = all(sp.contains(action.act(g, x)) for x in pts for g in G.elements())
    id_defect = worst(((sp.d(action.act(0, x), x), x) for x in pts), 0.0)[0]
    draws = [(x, rng.randrange(G.order), rng.randrange(G.order)) for x in pts]
    compat = worst(((sp.d(action.act(g, action.act(h, x)), action.act(G.mul(g, h), x)), x)
                    for x, g, h in draws), 0.0)[0]
    iso = worst(((abs(sp.d(action.act(g, x), action.act(g, y)) - sp.d(x, y)), (x, y))
                 for x, y in zip(pts[0::2], pts[1::2]) for g in G.elements()), 0.0)[0]
    return ActionReport(id_defect, compat, member_ok, iso, samples, tol)


def orbit(action: GroupAction, x: Point, tol: float = POINT_TOL) -> list:
    """Distinct images {g.x}, merged within tol; the size divides |G|."""
    sp = action.space
    pts: list = []
    for g in action.group.elements():
        gx = action.act(g, x)
        if all(sp.d(gx, q) > tol for q in pts):
            pts.append(gx)
    if action.group.order % len(pts) != 0:
        raise ToleranceError(
            f"orbit size {len(pts)} does not divide the group order "
            f"{action.group.order}; retry with a different tol"
        )
    return pts


def fixed_defect(action: GroupAction, members: Iterable[int], x: Point) -> float:
    """max d(h.x, x) over the given elements h: how far x is from being
    fixed by them. A NaN distance makes the defect NaN."""
    sp = action.space
    return worst(((sp.d(action.act(h, x), x), h) for h in members), 0.0)[0]


def stabilizer(action: GroupAction, x: Point, tol: float = POINT_TOL) -> Subgroup:
    """Elements fixing x within tol; must come out closed, else the
    tolerance straddles the action's geometry."""
    sp = action.space
    members = tuple(
        g for g in action.group.elements() if sp.d(action.act(g, x), x) <= tol
    )
    try:
        return Subgroup(action.group, members)
    except GroupConstructionError as exc:
        raise ToleranceError(
            f"stabilizer of {x} is not closed at tol={tol}; use a smaller tol ({exc})"
        ) from exc


# ---------------------------------------------------------------------------
# built-in groups


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    if n > CYCLIC_ORDER_CAP:
        raise CapacityError(f"cyclic group order {n} exceeds the cap {CYCLIC_ORDER_CAP}")
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)], name=f"Z{n}")


def klein_four() -> FiniteGroup:
    return FiniteGroup([[i ^ j for j in range(4)] for i in range(4)], name="V4")


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n; id = rot + n*flip."""
    if n < 1:
        raise ValueError("dihedral parameter must be >= 1")

    def compose(a: int, b: int) -> int:
        i1, j1 = a % n, a // n
        i2, j2 = b % n, b // n
        i = (i1 + (i2 if j1 == 0 else -i2)) % n
        return i + n * ((j1 + j2) % 2)

    return FiniteGroup(
        [[compose(a, b) for b in range(2 * n)] for a in range(2 * n)], name=f"D{n}"
    )


def symmetric(n: int) -> FiniteGroup:
    """Permutations of 0..n-1 in lexicographic order (identity first)."""
    import itertools

    if not 1 <= n <= 5:
        raise ValueError("symmetric(n) supported for 1 <= n <= 5")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(n))] for q in perms]
        for p in perms
    ]
    return FiniteGroup(table, name=f"S{n}")


# ---------------------------------------------------------------------------
# built-in actions


def trivial_action(space: MetricSpace, group: FiniteGroup | None = None) -> GroupAction:
    G = group if group is not None else cyclic(1)
    return GroupAction(G, space, lambda g, x: x, name="trivial", act_batch=lambda g, X: X)


def negation_action(space: MetricSpace) -> GroupAction:
    """Order-2 action x -> -x; the space must be symmetric about 0."""

    def apply(g: int, x: Point) -> Point:
        return x if g == 0 else tuple(-c for c in x)

    def act_batch(g: int, X):
        return X if g == 0 else -X

    return GroupAction(cyclic(2), space, apply, name="negation", act_batch=act_batch)


def reflection_action(space: MetricSpace, axis: int) -> GroupAction:
    """Order-2 action flipping the sign of coordinate ``axis``, one of the
    space's 0..dim-1."""
    if not 0 <= axis < space.dim:
        raise ValueError(f"reflection axis {axis} is outside 0..{space.dim - 1} "
                         f"of a space of dim {space.dim}")

    def apply(g: int, x: Point) -> Point:
        if g == 0:
            return x
        return tuple(-c if i == axis else c for i, c in enumerate(x))

    def act_batch(g: int, X):
        if g == 0:
            return X
        out = X.copy()
        out[:, axis] = -out[:, axis]
        return out

    return GroupAction(cyclic(2), space, apply, name=f"reflection:{axis}", act_batch=act_batch)


def rotation_action(space: Circle, n: int) -> GroupAction:
    """Z_n acting on a circle by rotations of 2*pi/n."""
    if not isinstance(space, Circle):
        raise ValueError("rotation action needs a circle space")
    return plane_rotation_action(space, n)._replace(name=f"rotation:{n}")


def plane_rotation_action(space: MetricSpace, n: int) -> GroupAction:
    """Z_n rotating a planar space about the origin (e.g. a symmetric box
    with n in {1, 2, 4})."""
    G = cyclic(n)
    cs = [(math.cos(2.0 * math.pi * k / n), math.sin(2.0 * math.pi * k / n)) for k in range(n)]

    def apply(g: int, x: Point) -> Point:
        c, s = cs[g]
        return (x[0] * c - x[1] * s, x[0] * s + x[1] * c)

    def act_batch(g: int, X):
        import numpy as np

        c, s = cs[g]
        x0, x1 = X[:, 0], X[:, 1]
        return np.stack([x0 * c - x1 * s, x0 * s + x1 * c], axis=1)

    # a point with fewer than 2 coordinates makes apply raise, row by row
    return GroupAction(G, space, apply, name=f"plane_rotation:{n}",
                       act_batch=act_batch if space.dim >= 2 else None)


def coordinate_permutation_action(space: MetricSpace, perms: Sequence[Sequence[int]]) -> GroupAction:
    """Action by a permutation group on coordinates; perms[0] must be the
    identity and the list must be closed under composition."""
    ptups = [tuple(p) for p in perms]
    if not ptups or ptups[0] != tuple(range(len(ptups[0]))):
        raise ValueError("perms[0] must be the identity permutation")
    for i, p in enumerate(ptups):
        if sorted(p) != list(ptups[0]):
            raise ValueError(f"perms[{i}] = {list(p)} is not a permutation of "
                             f"0..{len(ptups[0]) - 1}")
    index = {p: i for i, p in enumerate(ptups)}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(len(p)))

    try:
        table = [[index[compose(p, q)] for q in ptups] for p in ptups]
    except KeyError as exc:
        raise GroupConstructionError(f"permutation list not closed: missing {exc}") from exc
    G = FiniteGroup(table, name="perm")
    # new[k] = old[inv(p)[k]] makes (p*q).x == p.(q.x)
    invs = []
    for p in ptups:
        inv = [0] * len(p)
        for i, v in enumerate(p):
            inv[v] = i
        invs.append(tuple(inv))

    def apply(g: int, x: Point) -> Point:
        inv = invs[g]
        return tuple(x[inv[k]] for k in range(len(x)))

    def act_batch(g: int, X):
        return X[:, list(invs[g])]

    # permutations of another length than the space's points make apply
    # raise or keep a prefix, row by row
    return GroupAction(G, space, apply, name="coordinate_permutation",
                       act_batch=act_batch if len(ptups[0]) == space.dim else None)


def swap_axes_action(space: MetricSpace) -> GroupAction:
    return coordinate_permutation_action(space, [(0, 1), (1, 0)])


def action_from_json(obj: dict, space: MetricSpace) -> GroupAction:
    """The action that ``obj`` describes on ``space``: a missing, unknown or
    ill-typed field, an axis or an order out of range, perms that are not
    permutations of one 0..n - 1 led by the identity, and a rotation of a
    space that is no circle raise ValueError naming the field as
    ``action.<key>``."""
    axis = (_integer_in(0, space.dim - 1), f"an integer in 0..{space.dim - 1}", True)
    order = (_integer_in(1, CYCLIC_ORDER_CAP), f"an integer in 1..{CYCLIC_ORDER_CAP}", True)
    # each action's fields and builder, by name: the builder takes the space
    # and the fields that the config sets
    actions = {
        "trivial": ({}, trivial_action),
        "negation": ({}, negation_action),
        "reflection": ({"axis": axis}, reflection_action),
        "rotation": ({"n": order}, rotation_action),
        "plane_rotation": ({"n": order}, plane_rotation_action),
        "coordinate_permutation": ({"perms": (_within(_list_of(_list_of(_integer), 1),
                                                      _from_identity),
                                              "a list of permutations of 0..n - 1, the "
                                              "identity first", True)},
                                   coordinate_permutation_action),
        "swap_axes": ({}, swap_axes_action),
    }
    build, args = _read_kinded(obj, "name", actions, "action", "action")
    if build is rotation_action and not isinstance(space, Circle):
        raise ValueError(f"action name 'rotation' at action.name needs a circle space, "
                         f"got {space!r}")
    return build(space, **args)


def _from_identity(perms: list) -> bool:
    """Whether a nonempty list of lists of integers holds permutations of one
    0..n - 1, the identity first, as ``coordinate_permutation_action`` takes
    them."""
    identity = list(range(len(perms[0])))
    return perms[0] == identity and all(sorted(p) == identity for p in perms)
