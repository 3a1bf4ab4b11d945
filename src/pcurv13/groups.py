"""Small finite groups as explicit multiplication tables.

Groups are dense n x n int16 Cayley tables over element indices 0..n-1
with the identity at index 0.  GroupTable checks the group axioms on every
table (entries in range, the identity, Light's associativity test over a
computed generating set, every power walk reaching the identity), so a
GroupTable is a group and its rows and columns are permutations.  The table
keeps that generating set: normality is tested by conjugating with the
generators only, and the isomorphism search maps them.  One rule,
_require_order, keeps every order in 1..ORDER_CAP, in GroupTable, the
product and metacyclic builders and the file reader alike.  Structural
queries are exact searches that the hard cap keeps small; normal_rank
searches only normal subgroups above the centre, not every elementary
abelian subgroup, whose number grows exponentially with the rank.

The centre is one cached mask (row equals column) that abelianness, the
2p condition, the isomorphism prefilter and normal_rank read.  Whether a
Sylow subgroup is cyclic or normal is read off the element orders, so
group analyze builds none, and one _p_part gives every p-part.

Named groups come from build_standard alone, Burnside groups from
build_burnside, which returns the table still referenced for the same
triple, so normal_cyclic_core shares its caller's group.  Metacyclic
tables are built in one broadcast over (i, j, i', j').

The table itself is a read-only numpy array; queries that walk subgroups
use plain Python sets over indices.  A subgroup closure grows a frontier by
right multiplication with its generators, walking each generator's column
as a Python list, and element orders come from one power walk per cyclic
subgroup, so both cost a few lookups per element.  The generating set that
validation computes grows each closure from the last one, starting from the
last closure times the new generator.  Membership of a product array in a
subset is one index into a boolean mask of the subset.  A SubgroupHandle
is a sorted subgroup that its builder guarantees; it checks nothing.

Subgroup patterns take two searches: one abelian-product search grows
Z_p x Z_p, Z9xZ3 or Z3^3 a generator at a time over a numpy mask of the
elements commuting with all so far, and the non-abelian order-27 patterns
are non-commuting pairs in one Sylow 3-subgroup that close to 27 elements.
"""

from __future__ import annotations

import re
import warnings
import weakref
from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import gcd, log, prod
from typing import Iterable, Optional, TextIO

import numpy as np

from .gfp import _require_prime

ORDER_CAP = 512


class GroupError(ValueError):
    pass


def _require_order(n: int) -> None:
    if not 1 <= n <= ORDER_CAP:
        raise GroupError(f"order {n} outside supported range 1..{ORDER_CAP}")


def _element_orders(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order and inverse of every element, one power walk per cyclic subgroup.

    The walk g, g^2, ..., g^m = 1 gives each g^k the order m / gcd(k, m) and
    the inverse g^(m-k), settling at least the phi(m) generators of <g>;
    later walks start only from elements of unknown order.  A walk is cut
    off at n steps, so a power that never reaches 1 fails instead of looping.
    """
    n = table.shape[0]
    orders = [1] + [0] * (n - 1)
    inverse = [0] * n
    for g in range(1, n):
        if orders[g]:
            continue
        powers = [g]
        x = table.item(g, g)
        while x != 0:
            powers.append(x)
            if len(powers) == n:
                raise GroupError("element power never reaches the identity")
            x = table.item(x, g)
        m = len(powers) + 1
        for k, x in enumerate(powers, 1):
            if not orders[x]:
                orders[x] = m // gcd(k, m)
                inverse[x] = powers[m - k - 1]
    return np.array(orders, dtype=np.int64), np.array(inverse, dtype=np.int64)


class GroupTable:
    """Immutable finite group on indices 0..n-1 with identity 0."""

    __slots__ = (
        "order", "table", "element_order", "inverse", "name", "generators", "_central", "__weakref__",
    )

    def __init__(self, table, name: str = "G"):
        arr = np.asarray(table)
        if arr.dtype != np.int16:
            arr = np.asarray(arr, dtype=np.int64)
        n = arr.shape[0]
        if arr.shape != (n, n):
            raise GroupError("multiplication table must be square")
        _require_order(n)
        # before narrowing, which would wrap an entry like 65536 + k onto k
        if arr.min() < 0 or arr.max() >= n:
            raise GroupError("table entries out of range")
        arr = np.ascontiguousarray(arr, dtype=np.int16)
        self.generators, self.element_order, self.inverse = _validate_table(arr)
        for a in (arr, self.element_order, self.inverse):
            a.setflags(write=False)
        self.order = n
        self.table = arr
        self.name = name
        self._central: Optional[np.ndarray] = None

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def cyclic_span(self, g: int) -> frozenset[int]:
        column = self.table[:, g].tolist()
        out = [0]
        x = g
        while x != 0:
            out.append(x)
            x = column[x]
        return frozenset(out)

    @property
    def central(self) -> np.ndarray:
        """Mask of the central elements, those whose row equals their column."""
        if self._central is None:
            self._central = (self.table == self.table.T).all(axis=1)
            self._central.setflags(write=False)
        return self._central

    @property
    def is_abelian(self) -> bool:
        return bool(self.central.all())

    @property
    def exponent(self) -> int:
        return int(np.lcm.reduce(self.element_order))

    def order_profile(self) -> Counter:
        return Counter(int(o) for o in self.element_order)

    def __repr__(self) -> str:
        return f"GroupTable({self.name}, order={self.order})"


def _validate_table(arr: np.ndarray) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Raise GroupError unless arr, with entries already checked to lie in
    0..n-1, is a group table; return the generating set Light's test ran
    over, the element orders and the inverses.

    The checks prove the group axioms, so no row or column needs a check of
    its own.  0 is a two-sided identity.  The elements a passing Light's
    test, (x a) y = x (a y) for all x and y, are closed under products, so
    passing it on a generating set (whose closure under right multiplication
    from 0 is every element) makes the table associative: a finite monoid
    with identity 0.  Every power walk reaches 0, and in a monoid g^m = 1
    makes g a unit, so the monoid is a group.
    """
    idx = np.arange(arr.shape[0])
    if not (arr[0] == idx).all() or not (arr[:, 0] == idx).all():
        raise GroupError("index 0 is not a two-sided identity")
    gens = _generating_set(arr)
    for a in gens:
        if not np.array_equal(arr[arr[:, a], :], arr.take(arr[a, :], axis=1)):
            raise GroupError(f"associativity fails through element {a}")
    return (gens, *_element_orders(arr))


def _closure_indices(table: np.ndarray, seed: Iterable[int], cap: int | None = None) -> Optional[tuple[int, ...]]:
    """Subgroup generated by seed, or None if it has more than cap elements.

    In a finite group the monoid a set generates is the subgroup, so a
    frontier grown by right multiplication with the seed reaches all of it
    in |H| * |seed| lookups, each in a seed element's column as a list.
    """
    columns = [table[:, g].tolist() for g in {int(s) for s in seed} - {0}]
    elems = {0}
    if not _grow_closure(columns, elems, [0], cap):
        return None
    return tuple(sorted(elems))


def _grow_closure(columns: list[list[int]], elems: set[int], frontier: list[int], cap: int | None = None) -> bool:
    """Add to elems everything the frontier, already in elems, reaches by
    right multiplication with the columns' elements; False, with elems
    part-grown, once it holds more than cap."""
    while frontier:
        grown = []
        for col in columns:
            for a in frontier:
                b = col[a]
                if b not in elems:
                    elems.add(b)
                    grown.append(b)
        if cap is not None and len(elems) > cap:
            return False
        frontier = grown
    return True


def _generating_set(table: np.ndarray) -> tuple[int, ...]:
    """The least element not yet generated, added until all are; row 0 is
    the identity, so each closure holds the new element and the loop ends.
    In a group each closure is a subgroup strictly containing the last, so
    its order is a multiple of the last one's: checking that rejects a
    non-group early and keeps the set to at most log2(n) elements.

    Each closure grows from the last one, which is closed under the earlier
    generators: its first frontier is the last closure times the new
    generator, and every generator applies after that.  The result is the
    closure of 0 under right multiplication by all of them, in any table."""
    n = table.shape[0]
    gens: list[int] = []
    columns: list[list[int]] = []
    elems = {0}
    g = 0
    while len(elems) < n:
        while g in elems:
            g += 1
        gens.append(g)
        columns.append(table[:, g].tolist())
        size = len(elems)
        frontier = list({columns[-1][a] for a in elems} - elems)
        elems.update(frontier)
        _grow_closure(columns, elems, frontier)
        if len(elems) % size:
            raise GroupError(f"closures of {size} and {len(elems)} elements break Lagrange's theorem")
    return tuple(gens)


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup of a parent group as a sorted index set, which its builder
    guarantees: a closure by construction, the others by their own check."""

    parent: GroupTable
    elements: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    @property
    def is_cyclic(self) -> bool:
        return bool((self.parent.element_order[list(self.elements)] == self.order).any())

    @property
    def is_normal(self) -> bool:
        return _is_normal_set(self.parent, self.elements)


def closure(G: GroupTable, seed: Iterable[int]) -> SubgroupHandle:
    return SubgroupHandle(G, _closure_indices(G.table, seed))


# ---------------------------------------------------------------------------
# constructions


def _product_table(tables: Iterable[np.ndarray]) -> np.ndarray:
    """Raw table of a direct product, folded left to right in mixed radix:
    (g1, ..., gk) has index (...(g1 n2 + g2) n3 + ...) nk + gk.

    No intermediate product becomes a GroupTable; the caller validates the
    final one, which is a group only if every factor is.  The order cap is
    checked before each step of the fold.
    """
    tables = iter(tables)
    T = next(tables)
    for H in tables:
        n1, n2 = len(T), len(H)
        _require_order(n1 * n2)
        T = (T[:, None, :, None] * n2 + H[None, :, None, :]).reshape(n1 * n2, n1 * n2)
    return T


def _metacyclic_table(m: int, n: int, r: int) -> np.ndarray:
    """Raw table on pairs (i mod m, j mod n) with (i,j)(i',j') = (i + r^j i', j+j').

    Every caller passes positive m, n with r^n = 1 (mod m), which makes it
    a group (the twisting automorphism has order dividing n) that GroupTable
    proves; only the order m*n is checked, before allocation.  No coprimality is
    imposed here; see build_burnside for the classified family.
    """
    _require_order(m * n)
    # (i, j) has index i*n + j: the entry at row (i, j), column (i', j') is the
    # first coordinate (on m*n*m cells, R_j i' in int64) times n plus the
    # second, added in int16 (every index is below ORDER_CAP)
    I, J = np.arange(m), np.arange(n)
    R = np.array([pow(r, j, m) for j in range(n)], dtype=np.int64)
    first = ((I[:, None, None] + R[None, :, None] * I[None, None, :]) % m * n).astype(np.int16)
    second = ((J[:, None] + J[None, :]) % n).astype(np.int16)
    return (first[:, :, :, None] + second[None, :, None, :]).reshape(m * n, m * n)


def _unitriangular27_table() -> np.ndarray:
    """Upper unitriangular 3x3 matrices over the field with three elements,
    on triples (x, y, z) with (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x*y')."""
    n = 27
    T = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        x, y, z = a // 9, (a // 3) % 3, a % 3
        for b in range(n):
            x2, y2, z2 = b // 9, (b // 3) % 3, b % 3
            T[a, b] = ((x + x2) % 3) * 9 + ((y + y2) % 3) * 3 + (z + z2 + x * y2) % 3
    return T


# metacyclic (m, n, r) of the catalog's Z9semiZ3 (nonabelian of order 27
# with an order-9 element: b a b^{-1} = a^4) and S3
_Z9_SEMI_Z3 = (9, 3, 4)
_S3 = (3, 2, 2)


# ---------------------------------------------------------------------------
# Burnside metacyclic family


@dataclass(frozen=True)
class BurnsideParams:
    """Parameters of the two-generator presentation A^m = B^n = 1,
    B A B^{-1} = A^r with gcd((r-1)n, m) = 1 and r^n = 1 (mod m)."""

    m: int
    n: int
    r: int

    def failing_conditions(self) -> list[str]:
        out = []
        if self.m < 1 or self.n < 1 or self.r < 1:
            out.append("m, n, r must be positive")
            return out
        if pow(self.r, self.n, self.m) != 1 % self.m:
            out.append(f"r^n = {pow(self.r, self.n, self.m)} != 1 mod m")
        g = gcd((self.r - 1) * self.n, self.m)
        if g != 1 and self.n != 1:
            # n = 1 collapses B; the group is plain Z_m and the coprimality
            # constraint (vacuously about B's action) is waived.
            out.append(f"gcd((r-1)*n, m) = {g} != 1")
        return out


def _burnside_valid(m: int, n: int, r: int) -> bool:
    """The conditions failing_conditions spells out, without the messages."""
    if m < 1 or n < 1 or r < 1:
        return False
    return pow(r, n, m) == 1 % m and (n == 1 or gcd((r - 1) * n, m) == 1)


# the tables build_burnside returned that are still referenced, by params
_BURNSIDE_TABLES: "weakref.WeakValueDictionary[BurnsideParams, GroupTable]" = weakref.WeakValueDictionary()


def build_burnside(params: BurnsideParams) -> GroupTable:
    """Multiplication table of the metacyclic group for valid parameters.

    Realized on pairs (i mod m, j mod n); A = (1,0) and B = (0,1) satisfy
    the defining relations.  While a table built for the same parameters is
    referenced anywhere, that table is returned instead of a new one.
    """
    G = _BURNSIDE_TABLES.get(params)
    if G is None:
        G = _BURNSIDE_TABLES[params] = GroupTable(
            _burnside_table(params), name=f"B({params.m},{params.n},{params.r})"
        )
    return G


def _burnside_table(params: BurnsideParams) -> np.ndarray:
    bad = params.failing_conditions()
    if bad:
        raise GroupError(
            f"invalid Burnside parameters {params}: " + "; ".join(bad)
        )
    return _metacyclic_table(params.m, params.n, params.r)


def burnside_generators(params: BurnsideParams) -> tuple[int, int]:
    """Indices of A = (1,0) and B = (0,1) in the build_burnside table."""
    a = params.n if params.m > 1 else 0
    b = 1 if params.n > 1 else 0
    return a, b


def burnside_class_d(params: BurnsideParams) -> int:
    """Multiplicative order of r mod m; divides n."""
    if not _burnside_valid(params.m, params.n, params.r):
        raise GroupError(f"invalid Burnside parameters {params}")
    if params.m == 1:
        return 1
    d = 1
    x = params.r % params.m
    while x != 1:
        x = (x * params.r) % params.m
        d += 1
    return d


def normal_cyclic_core(params: BurnsideParams) -> SubgroupHandle:
    """The subgroup generated by A and B^d, d the class of the parameters.

    It is normal, cyclic of index d, and contained in no larger cyclic
    subgroup; the properties are re-verified per instance in the tests.
    Its parent is the table build_burnside(params) returns, the caller's own
    while the caller holds it.
    """
    G = build_burnside(params)
    d = burnside_class_d(params)
    a, b = burnside_generators(params)
    bd = 0
    for _ in range(d):
        bd = G.mul(bd, b)
    return closure(G, (a, bd))


def enumerate_burnside_params(max_order: int) -> list[BurnsideParams]:
    """All valid parameter triples with m*n <= max_order, ordered."""
    return [
        BurnsideParams(m, n, r)
        for m in range(1, max_order + 1)
        for n in range(1, max_order // m + 1)
        for r in range(1, m + 1)
        if _burnside_valid(m, n, r)
    ]


# ---------------------------------------------------------------------------
# structural queries


def sylow(G: GroupTable, p: int) -> SubgroupHandle:
    """A Sylow p-subgroup, grown deterministically (lowest-index p-element
    whose join keeps a p-power order).  Trivial subgroup when p does not
    divide the group order."""
    _require_prime(p)
    target = _p_part(G.order, p)
    if target == 1:
        return SubgroupHandle(G, (0,))
    # an element order divides |G|, so it divides the p-part exactly when
    # it is a power of p
    p_elems = np.flatnonzero(target % G.element_order == 0)[1:].tolist()
    gens: list[int] = []
    current: set[int] = {0}
    while len(current) < target:
        for x in p_elems:
            if x in current:
                continue
            grown = _closure_indices(G.table, gens + [x], cap=target)
            if grown is not None and _p_part(len(grown), p) == len(grown):
                gens.append(x)
                current = set(grown)
                break
        else:  # pragma: no cover - impossible for a genuine group
            raise GroupError("Sylow growth stalled")
    return SubgroupHandle(G, tuple(sorted(current)))


def _p_part(n: int, p: int) -> int:
    """The largest power of p dividing n."""
    part = 1
    while n % (part * p) == 0:
        part *= p
    return part


def prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            n //= _p_part(n, d)
        d += 1
    if n > 1:
        out.append(n)
    return out


def sylow_is_cyclic(G: GroupTable, p: int) -> bool:
    """Whether a Sylow p-subgroup is cyclic: one of order p^a is cyclic iff
    some element has order p^a."""
    _require_prime(p)
    return bool((G.element_order == _p_part(G.order, p)).any())


def all_sylow_cyclic(G: GroupTable) -> bool:
    """Every Sylow subgroup is cyclic: by the rule of sylow_is_cyclic, iff
    the p-part of the exponent is that of the order for every p, iff the
    exponent equals the order."""
    return G.exponent == G.order


def p2_condition(G: GroupTable, p: int) -> bool:
    """True iff G has no subgroup isomorphic to Z_p x Z_p (equivalently
    every subgroup of order p^2 is cyclic)."""
    _require_prime(p)
    return not _contains_abelian(G, (p, p))


def two_p_condition(G: GroupTable) -> bool:
    """True iff every involution is central."""
    return bool(G.central[G.element_order == 2].all())


PATTERNS = ("ZpxZp", "Z9xZ3", "Z3cubed", "U33", "Z9semiZ3")


def contains_copy(G: GroupTable, pattern: str, p: int | None = None) -> bool:
    """Whether some subgroup of G is isomorphic to the named pattern."""
    if pattern in ("U33", "Z9semiZ3"):
        return _contains_nonabelian27(G, pattern)
    if pattern == "ZpxZp" and p is None:
        raise GroupError("pattern ZpxZp needs the prime p")
    orders = {"ZpxZp": (p, p), "Z9xZ3": (9, 3), "Z3cubed": (3, 3, 3)}
    if pattern not in orders:
        raise GroupError(f"unknown pattern {pattern!r}; expected one of {PATTERNS}")
    return _contains_abelian(G, orders[pattern])


def _contains_abelian(G: GroupTable, orders: tuple[int, ...]) -> bool:
    """Whether some subgroup of G is Z_{o1} x ... x Z_{ok} for these orders.

    H grows one generator at a time: the next generator z has the next
    order, commutes with every earlier one and meets H only in the
    identity, so H becomes H x <z>.  Generators of equal order are taken in
    increasing index.  That loses no subgroup, because the greedy basis of
    an elementary abelian group (each element the smallest not yet
    spanned) is increasing.
    """
    if G.order % prod(orders):
        return False

    def grow(level: int, H: set[int], commuting: np.ndarray, last: int) -> bool:
        zs = np.flatnonzero(commuting & (G.element_order == orders[level]))
        if level and orders[level] == orders[level - 1]:
            zs = zs[zs > last]
        for z in zs.tolist():
            span = G.cyclic_span(z)
            if not H.isdisjoint(span - {0}):
                continue
            if level + 1 == len(orders):
                return True
            grown = {G.table.item(h, s) for h in H for s in span}
            if grow(level + 1, grown, commuting & (G.table[z] == G.table[:, z]), z):
                return True
        return False

    return grow(0, {0}, np.ones(G.order, dtype=bool), 0)


def _contains_nonabelian27(G: GroupTable, label: str) -> bool:
    """A non-abelian group of order 27 is generated by two non-commuting
    elements, one of order 3 and one of the group's exponent (9 for
    Z9semiZ3, 3 for U33).  Such pairs are searched in one Sylow 3-subgroup,
    which holds a conjugate of every 3-subgroup."""
    if G.order % 27 or G.is_abelian:
        return False
    exponent = 9 if label == "Z9semiZ3" else 3
    P = sylow(G, 3).elements
    xs = [g for g in P if int(G.element_order[g]) == exponent]
    ys = [g for g in P if int(G.element_order[g]) == 3]
    for x, y in product(xs, ys):
        if G.table.item(x, y) == G.table.item(y, x):
            continue
        sub = _closure_indices(G.table, (x, y), cap=27)
        if sub is not None and len(sub) == 27 and max(int(G.element_order[g]) for g in sub) == exponent:
            return True
    return False


def normal_rank(G: GroupTable, p: int) -> int:
    """Largest k with an elementary abelian normal subgroup of order p^k.

    Rejects non-p-groups.  Two lemmas of p-group theory (Gorenstein,
    Finite Groups, ch. 2 and 5) let the search grow normal subgroups only:

    1. For N normal elementary abelian, N E0 is normal, elementary abelian
       and of rank at least rank N, where E0 = Omega_1(Z(G)) holds the
       central elements of order 1 or p.  So the maximum is reached above E0.
    2. A p-group acting on the F_p-space N/E0 fixes a hyperplane, so every
       normal elementary abelian N > E0 holds a normal one of index p that
       still contains E0.

    So the levels start at {E0}, and S grows to S<z> for z of order p that
    commutes with S and has [z, g] in S for every generator g, which is
    exactly when S<z> is normal (zS is central in G/S).  The answer is the
    rank of the last nonempty level.
    """
    _require_prime(p)
    if _p_part(G.order, p) != G.order:
        raise GroupError(f"normal rank needs a {p}-group, got order {G.order}")
    T, inv, gens = G.table, G.inverse, np.array(G.generators, dtype=np.int64)
    order_p = np.flatnonzero(G.element_order == p)
    level = {frozenset(np.flatnonzero(G.central & (p % G.element_order == 0)).tolist())}
    while True:
        nxt: set[frozenset[int]] = set()
        for S in level:
            arr = np.fromiter(S, dtype=np.int64)
            done = np.zeros(G.order, dtype=bool)
            done[arr] = True
            inS = done.copy()
            zs = order_p[~inS[order_p]]
            zs = zs[(T[np.ix_(zs, arr)] == T[np.ix_(arr, zs)].T).all(axis=1)]
            comm = T[T[T[zs[:, None], gens], inv[zs][:, None]], inv[gens]]
            for z in zs[inS[comm].all(axis=1)].tolist():
                if not done[z]:  # else S<z> is already in nxt
                    grown = T[arr[:, None], sorted(G.cyclic_span(z))].ravel()
                    done[grown] = True
                    nxt.add(frozenset(grown.tolist()))
        if not nxt:
            return round(log(len(next(iter(level))), p))
        level = nxt


def _subset_mask(n: int, elems: np.ndarray) -> np.ndarray:
    """Boolean mask of elems among 0..n-1: indexing it with a product array
    tests membership without the sort np.isin makes."""
    mask = np.zeros(n, dtype=bool)
    mask[elems] = True
    return mask


def _is_normal_set(G: GroupTable, elems: Iterable[int]) -> bool:
    """Whether g S g^-1 is inside S for every generator g, which is enough:
    S is finite, so each such g maps S onto S, and the elements that do form
    a subgroup containing every generator."""
    arr = np.fromiter(elems, dtype=np.int64)
    gens = np.array(G.generators, dtype=np.int64)
    conj = G.table[G.table[gens[:, None], arr[None, :]], G.inverse[gens][:, None]]
    return bool(_subset_mask(G.order, arr)[conj].all())


def normal_p_complement(G: GroupTable, p: int) -> Optional[SubgroupHandle]:
    """Normal N with G = PN and P cap N = 1 for P a Sylow p-subgroup, when
    it exists.  Such an N is exactly the set of p'-elements, so existence
    reduces to that set being closed."""
    _require_prime(p)
    if G.order % p != 0:
        raise GroupError(f"{p} does not divide the group order {G.order}")
    coprime = np.flatnonzero(G.element_order % p != 0)
    if len(coprime) != G.order // _p_part(G.order, p):
        return None
    if not _subset_mask(G.order, coprime)[G.table[np.ix_(coprime, coprime)]].all():
        return None
    return SubgroupHandle(G, tuple(coprime.tolist()))


def min_cyclic_index(G: GroupTable) -> int:
    """Group order divided by the maximal element order."""
    return G.order // int(G.element_order.max())


def davis_decomposition(G: GroupTable) -> Optional[tuple[int, SubgroupHandle]]:
    """Internal splitting G = Z_{2^a} x (odd-order part), if one exists.

    Requires the odd-order elements to form a subgroup and the Sylow
    2-subgroup to be cyclic and normal; returns (2^a, odd part).  One of
    order 2^a is normal iff it holds all 2^a elements of 2-power order.
    """
    if G.order % 2:
        return 1, SubgroupHandle(G, tuple(range(G.order)))
    N = normal_p_complement(G, 2)
    if N is None:
        return None
    two_part = G.order // N.order
    if not sylow_is_cyclic(G, 2) or np.count_nonzero(two_part % G.element_order == 0) != two_part:
        return None
    return two_part, N


# ---------------------------------------------------------------------------
# isomorphism testing


def is_isomorphic(G: GroupTable, H: GroupTable) -> bool:
    """Invariant prefilter, then a backtracking generator-mapping search."""
    if G.order != H.order:
        return False
    if G.order_profile() != H.order_profile():
        return False
    if np.count_nonzero(G.central) != np.count_nonzero(H.central):
        return False
    if G.is_abelian:
        # the order profile pins down a finite abelian group
        return True
    return _find_iso(G, H, G.generators, [])


def _find_iso(G, H, gens, images) -> bool:
    i = len(images)
    if i == len(gens):
        # _build_map checked phi as an injective homomorphism on the
        # closure of every generator, which is G: phi is bijective
        return True
    want = int(G.element_order[gens[i]])
    for h in range(1, H.order):
        if h in images or int(H.element_order[h]) != want:
            continue
        trial = images + [h]
        if _build_map(G, H, gens[: i + 1], trial) and _find_iso(G, H, gens, trial):
            return True
    return False


def _build_map(G, H, gens, images) -> bool:
    """Whether gens -> images extends to an injective homomorphism on the
    subgroup the gens generate, grown along the edges a -> a*g."""
    phi = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            fa = phi[a]
            for g, h in zip(gens, images):
                b = G.table.item(a, g)
                fb = H.table.item(fa, h)
                if b in phi:
                    if phi[b] != fb:
                        return False
                else:
                    phi[b] = fb
                    nxt.append(b)
        frontier = nxt
    return len(set(phi.values())) == len(phi)


# ---------------------------------------------------------------------------
# named catalog and file format

_TERM_RE = re.compile(
    r"""^(?:
        Z_?(?P<cyc>\d+) |
        (?P<semi>Z9(?:semi|s|:)Z3) |
        (?P<s3>S_?3) |
        (?:Burnside|B)\((?P<bm>\d+),(?P<bn>\d+),(?P<br>\d+)\) |
        U_?\(?3,?3\)?
    )$""",
    re.VERBOSE | re.IGNORECASE,
)


def build_standard(name: str) -> GroupTable:
    """Group from a catalog name: cyclic Z_n, U33, Z9semiZ3, S_3,
    Burnside(m,n,r), and x-separated direct products of those."""
    terms = [t.strip() for t in re.split(r"[x×*]", name.strip()) if t.strip()]
    if not terms:
        raise GroupError(f"cannot parse group name {name!r}")
    return GroupTable(_product_table([_term_table(t) for t in terms]), name=name)


def _term_table(term: str) -> np.ndarray:
    m = _TERM_RE.match(term)
    if not m:
        raise GroupError(f"unknown group name {term!r}")
    if m.group("cyc"):
        return _metacyclic_table(int(m.group("cyc")), 1, 1)
    if m.group("semi"):
        return _metacyclic_table(*_Z9_SEMI_Z3)
    if m.group("s3"):
        return _metacyclic_table(*_S3)
    if m.group("bm"):
        return _burnside_table(
            BurnsideParams(int(m.group("bm")), int(m.group("bn")), int(m.group("br")))
        )
    return _unitriangular27_table()


def write_group_file(G: GroupTable, out: TextIO) -> None:
    """Write G to an open text stream in the format read_group_file reads."""
    out.write(f"order {G.order}\n")
    for row in G.table:
        out.write(" ".join(str(int(x)) for x in row) + "\n")


def read_group_file(path) -> GroupTable:
    """Table written by write_group_file: an 'order n' line, then n rows of
    n entries.  The order is checked against the cap before any row is read."""
    with open(path, "r", encoding="utf-8") as fh:
        header = next((ln.strip() for ln in fh if ln.strip()), "")
        if not header.startswith("order "):
            raise GroupError("group file must start with 'order n'")
        n = int(header.split()[1])
        _require_order(n)
        try:
            with warnings.catch_warnings():
                # an empty body is reported below as a row count of 0
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(fh, dtype=np.int64, ndmin=2, comments=None)
        except ValueError:
            # ragged rows, an entry that is no int64: name the first bad row
            # or entry, else pass on numpy's message
            fh.seek(0)
            _check_table_shape([ln.split() for ln in fh if ln.strip()][1:], n)
            raise
    _check_table_shape(table, n)
    return GroupTable(table, name="file")


def _check_table_shape(rows, n: int) -> None:
    """Raise GroupError at the first row of the wrong length or, in rows of
    text re-read after numpy failed, at the first entry that is no int64;
    rows and entries count from 1, and a row's length is checked first."""
    if len(rows) != n:
        raise GroupError(f"expected {n} table rows, found {len(rows)}")
    for i, row in enumerate(rows, 1):
        if len(row) != n:
            raise GroupError(f"table row {i} has {len(row)} entries, expected {n}")
        if isinstance(row, list):
            for j, entry in enumerate(row, 1):
                if not (re.fullmatch(r"[+-]?[0-9]+", entry) and -(2**63) <= int(entry) < 2**63):
                    raise GroupError(f"table row {i} entry {j} is not an int64 integer: {entry!r}")


def is_maximal_cyclic(H: SubgroupHandle) -> bool:
    """No cyclic subgroup of the parent strictly contains H."""
    eo = H.parent.element_order
    eset = set(H.elements)
    bigger = np.flatnonzero((eo > H.order) & (eo % H.order == 0)).tolist()
    return not any(eset <= H.parent.cyclic_span(g) for g in bigger)
