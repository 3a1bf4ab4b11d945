"""Small finite groups as explicit multiplication tables.

Groups are dense n x n Cayley tables over element indices 0..n-1 with the
identity at index 0.  Every constructor validates the Latin-square property
and associativity (Light's test over a computed generating set), so a
GroupTable is a group, not just a magma.  All structural queries are
exhaustive searches; the hard cap keeps them exact and fast.

The table itself is a read-only numpy array; queries that walk subgroups
use plain Python sets over indices.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional

import numpy as np

ORDER_CAP = 512


class GroupError(ValueError):
    pass


def _element_orders(table: np.ndarray) -> np.ndarray:
    n = table.shape[0]
    idx = np.arange(n)
    orders = np.zeros(n, dtype=np.int64)
    pw = idx.copy()  # pw[g] = g^k
    k = 1
    while True:
        hit = (pw == 0) & (orders == 0)
        orders[hit] = k
        if (orders == 0).sum() == 0:
            return orders
        k += 1
        if k > n:
            raise GroupError("element power never reaches the identity")
        pw = table[pw, idx]


class GroupTable:
    """Immutable finite group on indices 0..n-1 with identity 0."""

    __slots__ = ("order", "table", "element_order", "inverse", "name", "_abelian")

    def __init__(self, table, name: str = "G", validate: bool = True):
        arr = np.ascontiguousarray(np.asarray(table, dtype=np.int64))
        n = arr.shape[0]
        if arr.shape != (n, n):
            raise GroupError("multiplication table must be square")
        if n < 1 or n > ORDER_CAP:
            raise GroupError(f"order {n} outside supported range 1..{ORDER_CAP}")
        if validate:
            _validate_table(arr)
        arr.setflags(write=False)
        self.order = n
        self.table = arr
        self.element_order = _element_orders(arr)
        self.element_order.setflags(write=False)
        self.inverse = np.argmax(arr == 0, axis=1)
        self.inverse.setflags(write=False)
        self.name = name
        self._abelian: Optional[bool] = None

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def conj(self, g: int, h: int) -> int:
        """g h g^{-1}."""
        return int(self.table[self.table[g, h], self.inverse[g]])

    def power(self, g: int, k: int) -> int:
        k %= int(self.element_order[g])
        acc = 0
        for _ in range(k):
            acc = int(self.table[acc, g])
        return acc

    def cyclic_span(self, g: int) -> frozenset[int]:
        out = [0]
        x = g
        while x != 0:
            out.append(x)
            x = int(self.table[x, g])
        return frozenset(out)

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = bool((self.table == self.table.T).all())
        return self._abelian

    @property
    def exponent(self) -> int:
        return int(np.lcm.reduce(self.element_order))

    def order_profile(self) -> Counter:
        return Counter(int(o) for o in self.element_order)

    def center(self) -> tuple[int, ...]:
        return tuple(
            g for g in range(self.order) if (self.table[g, :] == self.table[:, g]).all()
        )

    def __repr__(self) -> str:
        return f"GroupTable({self.name}, order={self.order})"

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupTable) and np.array_equal(self.table, other.table)

    def __hash__(self) -> int:
        return hash((self.order, self.table.tobytes()))


def _validate_table(arr: np.ndarray) -> None:
    n = arr.shape[0]
    idx = np.arange(n)
    if arr.min() < 0 or arr.max() >= n:
        raise GroupError("table entries out of range")
    if not (arr[0] == idx).all() or not (arr[:, 0] == idx).all():
        raise GroupError("index 0 is not a two-sided identity")
    if not (np.sort(arr, axis=1) == idx).all():
        raise GroupError("some row is not a permutation")
    if not (np.sort(arr, axis=0) == idx[:, None]).all():
        raise GroupError("some column is not a permutation")
    # Light's associativity test over a generating set
    for a in _generating_set(arr):
        if not np.array_equal(arr[arr[:, a], :], arr[:, arr[a, :]]):
            raise GroupError(f"associativity fails through element {a}")


def _closure_indices(table: np.ndarray, seed: Iterable[int], cap: int | None = None) -> Optional[tuple[int, ...]]:
    """Subgroup generated by seed, or None once it exceeds cap."""
    elems = set(int(s) for s in seed) | {0}
    while True:
        arr = np.fromiter(elems, dtype=np.int64)
        prods = np.unique(table[np.ix_(arr, arr)])
        new = set(prods.tolist()) - elems
        if not new:
            return tuple(sorted(elems))
        elems |= new
        if cap is not None and len(elems) > cap:
            return None


def _generating_set(table: np.ndarray) -> list[int]:
    n = table.shape[0]
    gens: list[int] = []
    have = {0}
    x = 1
    while len(have) < n:
        while x in have:
            x += 1
        gens.append(x)
        have = set(_closure_indices(table, gens))
    return gens


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup of a parent group, as a sorted index set."""

    parent: GroupTable
    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(sorted(set(self.elements)))
        object.__setattr__(self, "elements", elems)
        if 0 not in elems:
            raise GroupError("subgroup must contain the identity")
        arr = np.array(elems)
        prods = self.parent.table[np.ix_(arr, arr)]
        if not np.isin(prods, arr).all():
            raise GroupError("element set is not closed under multiplication")

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    @property
    def is_cyclic(self) -> bool:
        return any(
            int(self.parent.element_order[g]) == self.order for g in self.elements
        )

    @property
    def is_normal(self) -> bool:
        return _is_normal_set(self.parent, self.elements)

    def as_group(self, name: str | None = None) -> GroupTable:
        arr = np.array(self.elements)
        sub = self.parent.table[np.ix_(arr, arr)]
        reindex = np.searchsorted(arr, sub)
        return GroupTable(
            reindex, name=name or f"{self.parent.name}|sub{self.order}"
        )

    def contains(self, g: int) -> bool:
        return g in set(self.elements)


def closure(G: GroupTable, seed: Iterable[int], cap: int | None = None) -> Optional[SubgroupHandle]:
    elems = _closure_indices(G.table, seed, cap)
    if elems is None:
        return None
    return SubgroupHandle(G, elems)


def trivial_subgroup(G: GroupTable) -> SubgroupHandle:
    return SubgroupHandle(G, (0,))


# ---------------------------------------------------------------------------
# constructions


def cyclic(n: int, name: str | None = None) -> GroupTable:
    idx = np.arange(n)
    return GroupTable((idx[:, None] + idx[None, :]) % n, name=name or f"Z{n}")


def direct_product(G: GroupTable, H: GroupTable, name: str | None = None) -> GroupTable:
    n1, n2 = G.order, H.order
    if n1 * n2 > ORDER_CAP:
        raise GroupError(f"product order {n1 * n2} exceeds cap {ORDER_CAP}")
    T = (G.table[:, None, :, None] * n2 + H.table[None, :, None, :]).reshape(
        n1 * n2, n1 * n2
    )
    return GroupTable(T, name=name or f"{G.name}x{H.name}")


def abelian(orders: Iterable[int], name: str | None = None) -> GroupTable:
    orders = list(orders)
    if not orders:
        return cyclic(1, name=name)
    G = cyclic(orders[0])
    for k in orders[1:]:
        G = direct_product(G, cyclic(k))
    if name:
        G.name = name
    else:
        G.name = "x".join(f"Z{k}" for k in orders)
    return G


def metacyclic(m: int, n: int, r: int, name: str | None = None) -> GroupTable:
    """Group on pairs (i mod m, j mod n) with (i,j)(i',j') = (i + r^j i', j+j').

    Requires r^n = 1 (mod m) so the construction is a group (the twisting
    automorphism has order dividing n).  No coprimality is imposed here;
    see build_burnside for the classified family.
    """
    if m < 1 or n < 1:
        raise GroupError("m and n must be positive")
    if m * n > ORDER_CAP:
        raise GroupError(f"order {m * n} exceeds cap {ORDER_CAP}")
    if pow(r, n, m) != 1 % m:
        raise GroupError(f"r^n = {pow(r, n, m)} != 1 mod {m}")
    if gcd(r % m if m > 1 else 1, m) != 1:
        raise GroupError("r must be invertible mod m")
    idx = np.arange(m * n)
    I, J = idx // n, idx % n
    R = np.array([pow(r, int(j), m) for j in range(n)]) if m > 1 else np.ones(n, dtype=np.int64)
    TI = (I[:, None] + R[J][:, None] * I[None, :]) % m
    TJ = (J[:, None] + J[None, :]) % n
    return GroupTable(TI * n + TJ, name=name or f"M({m},{n},{r})")


def unitriangular27(name: str = "U33") -> GroupTable:
    """Upper unitriangular 3x3 matrices over the field with three elements,
    on triples (x, y, z) with (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x*y')."""
    n = 27
    T = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        x, y, z = a // 9, (a // 3) % 3, a % 3
        for b in range(n):
            x2, y2, z2 = b // 9, (b // 3) % 3, b % 3
            T[a, b] = ((x + x2) % 3) * 9 + ((y + y2) % 3) * 3 + (z + z2 + x * y2) % 3
    return GroupTable(T, name=name)


def z9_semi_z3(name: str = "Z9sZ3") -> GroupTable:
    """Nonabelian order 27 with an order-9 element: b a b^{-1} = a^4."""
    return metacyclic(9, 3, 4, name=name)


def symmetric3(name: str = "S3") -> GroupTable:
    return metacyclic(3, 2, 2, name=name)


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

    @property
    def is_valid(self) -> bool:
        return not self.failing_conditions()


def build_burnside(params: BurnsideParams, name: str | None = None) -> GroupTable:
    """Multiplication table of the metacyclic group for valid parameters.

    Realized on pairs (i mod m, j mod n); A = (1,0) and B = (0,1) satisfy
    the defining relations.
    """
    bad = params.failing_conditions()
    if bad:
        raise GroupError(
            f"invalid Burnside parameters {params}: " + "; ".join(bad)
        )
    return metacyclic(
        params.m, params.n, params.r, name=name or f"B({params.m},{params.n},{params.r})"
    )


def burnside_generators(params: BurnsideParams) -> tuple[int, int]:
    """Indices of A = (1,0) and B = (0,1) in the build_burnside table."""
    a = params.n if params.m > 1 else 0
    b = 1 if params.n > 1 else 0
    return a, b


def burnside_class_d(params: BurnsideParams) -> int:
    """Multiplicative order of r mod m; divides n."""
    if not params.is_valid:
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
    out = []
    for m in range(1, max_order + 1):
        for n in range(1, max_order // m + 1):
            for r in range(1, m + 1):
                p = BurnsideParams(m, n, r)
                if p.is_valid:
                    out.append(p)
    return out


# ---------------------------------------------------------------------------
# structural queries


def sylow(G: GroupTable, p: int) -> SubgroupHandle:
    """A Sylow p-subgroup, grown deterministically (lowest-index p-element
    whose join keeps a p-power order).  Trivial subgroup when p does not
    divide the group order."""
    _require_prime(p)
    target = 1
    while G.order % (target * p) == 0:
        target *= p
    if target == 1:
        return trivial_subgroup(G)
    p_elems = [
        g
        for g in range(1, G.order)
        if _is_p_power(int(G.element_order[g]), p)
    ]
    current: set[int] = {0}
    while len(current) < target:
        for x in p_elems:
            if x in current:
                continue
            grown = _closure_indices(G.table, current | {x}, cap=target)
            if grown is not None and _is_p_power(len(grown), p):
                current = set(grown)
                break
        else:  # pragma: no cover - impossible for a genuine group
            raise GroupError("Sylow growth stalled")
    return SubgroupHandle(G, tuple(sorted(current)))


def _is_p_power(k: int, p: int) -> bool:
    while k % p == 0:
        k //= p
    return k == 1


def _require_prime(p: int) -> None:
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise GroupError(f"{p} is not prime")


def prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def all_sylow_cyclic(G: GroupTable) -> bool:
    return all(sylow(G, p).is_cyclic for p in prime_divisors(G.order))


def p2_condition(G: GroupTable, p: int) -> bool:
    """True iff G has no subgroup isomorphic to Z_p x Z_p (equivalently
    every subgroup of order p^2 is cyclic)."""
    _require_prime(p)
    return not _contains_elem_abelian_rank2(G, p)


def _contains_elem_abelian_rank2(G: GroupTable, p: int) -> bool:
    elems = [g for g in range(1, G.order) if int(G.element_order[g]) == p]
    spans: dict[int, frozenset[int]] = {}
    for i, x in enumerate(elems):
        spans[x] = G.cyclic_span(x)
        for y in elems[:i]:
            if y in spans[x]:
                continue
            if G.table[x, y] == G.table[y, x]:
                return True
    return False


def two_p_condition(G: GroupTable) -> bool:
    """True iff every involution is central."""
    for g in range(1, G.order):
        if int(G.element_order[g]) == 2:
            if not (G.table[g, :] == G.table[:, g]).all():
                return False
    return True


PATTERNS = ("ZpxZp", "Z9xZ3", "Z3cubed", "U33", "Z9semiZ3")


def contains_copy(G: GroupTable, pattern: str, p: int | None = None) -> bool:
    """Whether some subgroup of G is isomorphic to the named pattern."""
    if pattern == "ZpxZp":
        if p is None:
            raise GroupError("pattern ZpxZp needs the prime p")
        return _contains_elem_abelian_rank2(G, p)
    if pattern == "Z9xZ3":
        return _contains_z9xz3(G)
    if pattern == "Z3cubed":
        return _contains_z3_cubed(G)
    if pattern in ("U33", "Z9semiZ3"):
        return _contains_nonabelian27(G, pattern)
    raise GroupError(f"unknown pattern {pattern!r}; expected one of {PATTERNS}")


def _contains_z9xz3(G: GroupTable) -> bool:
    if G.order % 27 != 0:
        return False
    nines = [g for g in range(1, G.order) if int(G.element_order[g]) == 9]
    threes = [g for g in range(1, G.order) if int(G.element_order[g]) == 3]
    for x in nines:
        span = G.cyclic_span(x)
        for y in threes:
            if y in span:
                continue
            if G.table[x, y] == G.table[y, x]:
                return True
    return False


def _contains_z3_cubed(G: GroupTable) -> bool:
    if G.order % 27 != 0:
        return False
    threes = [g for g in range(1, G.order) if int(G.element_order[g]) == 3]
    for i, x in enumerate(threes):
        for y in threes[i + 1 :]:
            if G.table[x, y] != G.table[y, x] or y in G.cyclic_span(x):
                continue
            plane = _closure_indices(G.table, (x, y), cap=9)
            if plane is None or len(plane) != 9:
                continue
            pset = set(plane)
            for z in threes:
                if z in pset:
                    continue
                if G.table[x, z] == G.table[z, x] and G.table[y, z] == G.table[z, y]:
                    return True
    return False


def _contains_nonabelian27(G: GroupTable, label: str) -> bool:
    if G.order % 27 != 0 or G.is_abelian:
        return False
    P = sylow(G, 3)
    if P.order < 27:
        return False
    S = P.as_group()
    if S.is_abelian:
        return False
    if S.order == 27:
        return classify_order_27(S) == label
    # search two-generated order-27 subgroups inside the Sylow subgroup
    want_nine = label == "Z9semiZ3"
    xs = [
        g
        for g in range(1, S.order)
        if int(S.element_order[g]) == (9 if want_nine else 3)
    ]
    ys = [g for g in range(1, S.order) if int(S.element_order[g]) == 3]
    seen: set[tuple[int, ...]] = set()
    for x in xs:
        for y in ys:
            if y == x:
                continue
            sub = _closure_indices(S.table, (x, y), cap=27)
            if sub is None or len(sub) != 27 or sub in seen:
                continue
            seen.add(sub)
            H = SubgroupHandle(S, sub).as_group()
            if not H.is_abelian and classify_order_27(H) == label:
                return True
    return False


def normal_rank(G: GroupTable, p: int) -> int:
    """Largest k with an elementary abelian normal subgroup of order p^k.

    Rejects non-p-groups.  Abelian p-groups short-circuit to the p-rank;
    otherwise every elementary abelian subgroup is enumerated by closure
    growth and tested for normality.
    """
    _require_prime(p)
    if not _is_p_power(G.order, p):
        raise GroupError(f"normal rank needs a {p}-group, got order {G.order}")
    if G.order == 1:
        return 0
    if G.is_abelian:
        fixed = sum(1 for g in range(G.order) if int(G.element_order[g]) in (1, p))
        k = 0
        while p**k < fixed:
            k += 1
        return k
    p_elems = [g for g in range(1, G.order) if int(G.element_order[g]) == p]
    best = 0
    level: set[frozenset[int]] = {
        frozenset(G.cyclic_span(x)) for x in p_elems
    }
    seen = set(level)
    k = 1
    while level:
        if any(_is_normal_set(G, S) for S in level):
            best = k
        nxt: set[frozenset[int]] = set()
        for S in level:
            for z in p_elems:
                if z in S:
                    continue
                if all(G.table[z, s] == G.table[s, z] for s in S):
                    zspan = G.cyclic_span(z)
                    bigger = frozenset(
                        int(G.table[s, t]) for s in S for t in zspan
                    )
                    if bigger not in seen:
                        seen.add(bigger)
                        nxt.add(bigger)
        level = nxt
        k += 1
    return best


def _is_normal_set(G: GroupTable, elems: Iterable[int]) -> bool:
    arr = np.fromiter(elems, dtype=np.int64)
    mask = np.zeros(G.order, dtype=bool)
    mask[arr] = True
    gh = G.table[:, arr]
    conj = G.table[gh, G.inverse[:, None]]
    return bool(mask[conj].all())


def normal_p_complement(G: GroupTable, p: int) -> Optional[SubgroupHandle]:
    """Normal N with G = PN and P cap N = 1 for P a Sylow p-subgroup, when
    it exists.  Such an N is exactly the set of p'-elements, so existence
    reduces to that set being closed."""
    _require_prime(p)
    if G.order % p != 0:
        raise GroupError(f"{p} does not divide the group order {G.order}")
    coprime = [g for g in range(G.order) if int(G.element_order[g]) % p != 0]
    part = G.order
    while part % p == 0:
        part //= p
    if len(coprime) != part:
        return None
    arr = np.array(coprime)
    prods = G.table[np.ix_(arr, arr)]
    if not np.isin(prods, arr).all():
        return None
    return SubgroupHandle(G, tuple(coprime))


def min_cyclic_index(G: GroupTable) -> int:
    """Group order divided by the maximal element order."""
    return G.order // int(G.element_order.max())


ORDER27_LABELS = ("Z27", "Z9xZ3", "Z3cubed", "Z9semiZ3", "U33")


def classify_order_27(G: GroupTable) -> str:
    """The isomorphism type of a group of order 27, by abelianness and
    exponent (which separate all five types)."""
    if G.order != 27:
        raise GroupError(f"classification needs order 27, got {G.order}")
    exp = G.exponent
    if G.is_abelian:
        if exp == 27:
            return "Z27"
        return "Z9xZ3" if exp == 9 else "Z3cubed"
    return "Z9semiZ3" if exp == 9 else "U33"


def davis_decomposition(G: GroupTable) -> Optional[tuple[int, SubgroupHandle]]:
    """Internal splitting G = Z_{2^a} x (odd-order part), if one exists.

    Requires the odd-order elements to form a subgroup and the Sylow
    2-subgroup to be cyclic and normal; returns (2^a, odd part).
    """
    if G.order % 2:
        return 1, SubgroupHandle(G, tuple(range(G.order)))
    N = normal_p_complement(G, 2)
    if N is None:
        return None
    P = sylow(G, 2)
    if not P.is_cyclic or not P.is_normal:
        return None
    return G.order // N.order, N


# ---------------------------------------------------------------------------
# isomorphism testing


def is_isomorphic(G: GroupTable, H: GroupTable) -> bool:
    """Invariant prefilter, then a backtracking generator-mapping search."""
    if G.order != H.order:
        return False
    if G.order_profile() != H.order_profile():
        return False
    if G.is_abelian != H.is_abelian:
        return False
    if G.is_abelian:
        # the order profile pins down a finite abelian group
        return True
    if len(G.center()) != len(H.center()):
        return False
    gens = _generating_set(G.table)
    return _find_iso(G, H, gens, [], set())


def _find_iso(G, H, gens, images, used) -> bool:
    i = len(images)
    if i == len(gens):
        return _verify_hom(G, H, gens, images)
    want = int(G.element_order[gens[i]])
    prefix_size = len(_closure_indices(G.table, gens[: i + 1]))
    for h in range(1, H.order):
        if h in used or int(H.element_order[h]) != want:
            continue
        trial = images + [h]
        span = _closure_indices(H.table, trial)
        if len(span) != prefix_size:
            continue
        if _verify_partial(G, H, gens[: i + 1], trial):
            if _find_iso(G, H, gens, trial, used | {h}):
                return True
    return False


def _build_map(G, H, gens, images) -> Optional[dict[int, int]]:
    phi = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            fa = phi[a]
            for g, h in zip(gens, images):
                b = int(G.table[a, g])
                fb = int(H.table[fa, h])
                if b in phi:
                    if phi[b] != fb:
                        return None
                else:
                    phi[b] = fb
                    nxt.append(b)
        frontier = nxt
    return phi


def _verify_partial(G, H, gens, images) -> bool:
    phi = _build_map(G, H, gens, images)
    if phi is None:
        return False
    return len(set(phi.values())) == len(phi)


def _verify_hom(G, H, gens, images) -> bool:
    phi = _build_map(G, H, gens, images)
    if phi is None or len(phi) != G.order or len(set(phi.values())) != G.order:
        return False
    for a in range(G.order):
        fa = phi[a]
        for g, h in zip(gens, images):
            if phi[int(G.table[a, g])] != int(H.table[fa, h]):
                return False
    return True


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
    parts = [_build_term(t) for t in terms]
    G = parts[0]
    for P in parts[1:]:
        G = direct_product(G, P)
    G.name = name
    return G


def _build_term(term: str) -> GroupTable:
    m = _TERM_RE.match(term)
    if not m:
        raise GroupError(f"unknown group name {term!r}")
    if m.group("cyc"):
        return cyclic(int(m.group("cyc")))
    if m.group("semi"):
        return z9_semi_z3()
    if m.group("s3"):
        return symmetric3()
    if m.group("bm"):
        return build_burnside(
            BurnsideParams(int(m.group("bm")), int(m.group("bn")), int(m.group("br")))
        )
    return unitriangular27()


def write_group_file(G: GroupTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"order {G.order}\n")
        for row in G.table:
            fh.write(" ".join(str(int(x)) for x in row) + "\n")


def read_group_file(path) -> GroupTable:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("order "):
        raise GroupError("group file must start with 'order n'")
    n = int(lines[0].split()[1])
    if len(lines) != n + 1:
        raise GroupError(f"expected {n} table rows, found {len(lines) - 1}")
    rows = [[int(x) for x in ln.split()] for ln in lines[1:]]
    return GroupTable(rows, name="file")


def is_maximal_cyclic(H: SubgroupHandle) -> bool:
    """No cyclic subgroup of the parent strictly contains H."""
    G = H.parent
    h = H.order
    eset = set(H.elements)
    for g in range(G.order):
        og = int(G.element_order[g])
        if og > h and og % h == 0:
            if eset <= G.cyclic_span(g):
                return False
    return True
