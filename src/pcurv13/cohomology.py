"""Rational Betti-vector calculus for circle actions.

Covers the alternating-sum bookkeeping used throughout the case analysis:
Euler characteristics, the Smith-Gysin long exact sequence solved over the
intervals exactness leaves each quotient rank, integer trace sets of
finite-order automorphisms from their cyclotomic factors, the quotient-index
divisibility obstruction, Borel codimension feasibility, the census of
five-dimensional fixed-point profiles, and the totally-geodesic
intersection constraint.

Betti vectors, trace dimensions and Smith-Gysin solutions are plain
integer tuples, a fixed-set profile is a tuple of type names; the
obstruction is the set of surviving Lefschetz numbers, empty when excluded.
Everything is a pure function; returned lists are deterministically ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .gfp import _require_prime


def _betti(b: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(x) for x in b)
    if any(d < 0 for d in dims):
        raise ValueError("Betti numbers are nonnegative")
    return dims


def euler_char(b: Sequence[int]) -> int:
    return sum((-1) ** i * d for i, d in enumerate(_betti(b)))


# ---------------------------------------------------------------------------
# Smith-Gysin rank solver
#
# The long exact sequence for a circle action on X with fixed set F reads
#   ... -> R^i -> H^i(X) -> R^{i-1} (+) H^i(F) -> R^{i+1} -> ...
# with R^i the relative cohomology of (X/S^1, F).  Over a field, a sequence
# of dimensions is exact for some choice of maps iff the forced ranks
# r_k = d_k - r_{k-1} stay nonnegative and close at zero.


def smith_gysin_solve(
    bX: Sequence[int], bF: Sequence[int] | None, dim_x: int | None = None
) -> list[tuple[int, ...]]:
    """All exactness-consistent R-vectors, in lexicographic order.

    A solution is the tuple R = (R^0, ..., R^{dim_x - 1}); the quotient's
    relative Euler characteristic is ``euler_char(R)``.  Betti vectors
    shorter than dim_x + 1 are padded with zeros, longer ones rejected.
    R^i vanishes for i >= dim_x (the quotient has lower dimension).  With r
    the rank entering R^i, exactness at R^i and H^i(X) gives r <= R^i <=
    r + b_i(X), and R^{dim_x} = 0 forces r = 0 at the end; a depth-first
    walk over these intervals in increasing order is lexicographic.  The
    empty list means no circle action is consistent; with empty F this
    happens exactly when the Euler characteristic of X is nonzero.
    """
    x = _betti(bX)
    f = _betti(bF) if bF is not None else ()
    n = dim_x if dim_x is not None else len(x) - 1
    if n < 1:
        raise ValueError("dim_x must be at least 1")
    if max(len(x), len(f)) > n + 1:
        raise ValueError(f"a Betti vector has more than dim_x + 1 = {n + 1} entries")
    x += (0,) * (n + 1 - len(x))
    f += (0,) * (n + 1 - len(f))
    sols: list[tuple[int, ...]] = []

    def rec(i: int, R: tuple[int, ...], rank_in: int) -> None:
        if i == n:
            if rank_in == 0 and R[n - 1] + f[n] == x[n]:
                sols.append(R)
            return
        prev = R[i - 1] if i >= 1 else 0
        for ri in range(rank_in, rank_in + x[i] + 1):
            # R^i -> H^i(X) has rank ri - rank_in; the rest of H^i(X) maps
            # into R^{i-1} (+) H^i(F), and what that leaves enters R^{i+1}
            rank_out = prev + f[i] - (x[i] - (ri - rank_in))
            if rank_out >= 0:
                rec(i + 1, R + (ri,), rank_out)

    rec(0, (), 0)
    return sols


# ---------------------------------------------------------------------------
# integer traces of finite-order automorphisms

MAX_TRACE_DIM = 32  # the knapsack below walks n up to 2 * MAX_TRACE_DIM**2


def integer_trace_set(k: int, odd_order_only: bool) -> frozenset[int]:
    """Integer traces of finite-order automorphisms of Z^k, of odd order
    if ``odd_order_only``; rejects k outside 0..MAX_TRACE_DIM.

    The characteristic polynomial of such an automorphism is a product of
    cyclotomic polynomials Phi_n whose degrees phi(n) sum to k, and every
    such product occurs (a block sum of companion matrices).  The trace is
    the sum over the factors of the Moebius value mu(n), the sum of the
    primitive n-th roots of unity (Washington, Introduction to Cyclotomic
    Fields, GTM 83, ch. 2); odd order keeps odd n.  As phi(n) >= sqrt(n/2), only n <= 2k^2 occur:
    the traces are a knapsack with repeated factors over those n.
    """
    if not 0 <= k <= MAX_TRACE_DIM:
        raise ValueError(f"trace dimension must be between 0 and {MAX_TRACE_DIM}")
    phi, mu = list(range(2 * k * k + 1)), [1] * (2 * k * k + 1)
    for q in range(2, len(phi)):
        if phi[q] == q:  # q is prime: no smaller prime has touched it
            for m in range(q, len(phi), q):
                phi[m] -= phi[m] // q
                mu[m] = 0 if m % (q * q) == 0 else -mu[m]
    reach: list[set[int]] = [{0}] + [set() for _ in range(k)]
    for n in range(1, len(phi), 2 if odd_order_only else 1):
        for d in range(phi[n], k + 1):
            reach[d] |= {t + mu[n] for t in reach[d - phi[n]]}
    return frozenset(reach[k])


def lefschetz_value_set(dims: Sequence[int], odd_order: bool = True) -> frozenset[int]:
    """All alternating trace sums on (relative) cohomology of the given
    per-degree dimensions, for elements of odd order if ``odd_order``;
    degree i contributes (-1)^i times a trace from ``integer_trace_set``,
    which caps each dimension."""
    values = {0}
    for i, d in enumerate(dims):
        traces = integer_trace_set(d, odd_order)
        values = {v + (-1) ** i * t for v in values for t in traces}
    return frozenset(values)


# ---------------------------------------------------------------------------
# divisibility obstruction

MAX_INDEX_DIGITS = 1000  # longer --group values are refused before int()


@dataclass(frozen=True)
class QuotientIndex:
    """Index of the maximal normal cyclic subgroup: d for a metacyclic
    class-d group, p for an elementary abelian p x p group (index p), so
    a zpxzp value must be prime."""

    kind: str  # "cd" | "zpxzp"
    value: int

    def __post_init__(self):
        if self.kind not in ("cd", "zpxzp"):
            raise ValueError("kind must be 'cd' or 'zpxzp'")
        if self.value < 1:
            raise ValueError("index must be positive")
        if self.kind == "zpxzp":
            _require_prime(self.value)

    @classmethod
    def parse(cls, text: str) -> "QuotientIndex":
        kind, _, val = text.partition(":")
        if len(val.strip()) > MAX_INDEX_DIGITS:
            raise ValueError(f"index has more than {MAX_INDEX_DIGITS} digits")
        return cls(kind.strip().lower(), int(val))


def divisibility_obstruction(
    group: QuotientIndex, lef_values: Iterable[int]
) -> frozenset[int]:
    """The achievable Lefschetz numbers the quotient index divides; the
    scenario is excluded when this set is empty."""
    return frozenset(v for v in lef_values if v % group.value == 0)


# ---------------------------------------------------------------------------
# Borel codimension bookkeeping


def borel_feasible(codim_total: int, circle_codims: Iterable[int]) -> bool:
    """Whether per-circle codimensions can sum to the total codimension.

    All entries must be even and nonnegative (fixed components of torus
    actions have even codimension).
    """
    parts = list(circle_codims)
    if codim_total < 0 or codim_total % 2 != 0:
        raise ValueError("total codimension must be even and nonnegative")
    if any(c < 0 or c % 2 != 0 for c in parts):
        raise ValueError("circle codimensions must be even and nonnegative")
    return sum(parts) == codim_total


# ---------------------------------------------------------------------------
# fixed-point profiles

# closed vocabulary of rational cohomology types; extend only in code so
# the admissibility below stays exact
COMPONENT_BETTI: dict[str, tuple[int, ...]] = {
    "S1": (1, 1),
    "S3": (1, 0, 0, 1),
    "S5": (1, 0, 0, 0, 0, 1),
    "S7": (1, 0, 0, 0, 0, 0, 0, 1),
    "CP1xS3": (1, 0, 1, 1, 0, 1),
    "CP2": (1, 0, 1, 0, 1),
}

MAX_PROFILE_BUDGET = 1000


def enumerate_profiles(
    total_betti_budget: int, component_dim_wanted: int
) -> list[tuple[str, ...]]:
    """All multisets of admissible components of the given odd dimension
    fitting the Betti budget, with at most one even-degree-generator type
    (a second copy would exceed the generator bound of the equivariant
    Betti-sum theorem).  A profile is a tuple of type names in vocabulary
    order (S5 before CP1xS3).  Ordered by the component counts read over
    the vocabulary backwards, which is the order the walk below meets them.
    """
    if total_betti_budget < 2:
        raise ValueError("budget must be at least 2")
    # the census has about budget**2 / 8 components in dimension 5: a far
    # larger budget would run for hours instead of failing fast
    if total_betti_budget > MAX_PROFILE_BUDGET:
        raise ValueError(f"budget must be at most {MAX_PROFILE_BUDGET}")
    if component_dim_wanted % 2 == 0:
        raise ValueError("component dimension must be odd")
    if component_dim_wanted < 1:
        raise ValueError("component dimension must be at least 1")
    # types a fixed component may have: connected, b1 = 0, Poincare duality
    types = [
        t
        for t, b in COMPONENT_BETTI.items()
        if len(b) - 1 == component_dim_wanted and b[:2] == (1, 0) and b == b[::-1]
    ]
    costs = [sum(COMPONENT_BETTI[t]) for t in types]
    ranges = [
        range((1 if t == "CP1xS3" else total_betti_budget // cost) + 1)
        for t, cost in zip(types, costs)
    ]
    out = []
    for backwards in product(*reversed(ranges)):
        counts = backwards[::-1]
        total = sum(c * cost for c, cost in zip(counts, costs))
        if sum(counts) == 0 or total > total_betti_budget:
            continue
        out.append(tuple(t for t, c in zip(types, counts) for _ in range(c)))
    return out


def frankel_compatible(component_dims: Iterable[int], ambient_dim: int) -> bool:
    """False iff two disjoint totally geodesic components would be forced
    to intersect (dimension sum at least the ambient dimension)."""
    dims = sorted(component_dims, reverse=True)
    return not (len(dims) >= 2 and dims[0] + dims[1] >= ambient_dim)


# ---------------------------------------------------------------------------
# mod-p component census for five-dimensional fixed components


def mod_p_component_census(per_component_budget: int) -> list[tuple[str, tuple[int, ...]]]:
    """Possible mod-p cohomology profiles of a closed orientable positively
    curved 5-manifold within a total-dimension budget.

    Duality forces (1, b1, b2, b2, b1, 1); vanishing first integral Betti
    number plus universal coefficients forces b2 >= b1 (degree-2 torsion
    shows up in both degrees 1 and 2), which rules out the circle-times-
    4-sphere pattern.  The total 2 + 2 b1 + 2 b2 within the budget bounds
    b2 above.  Labels name the minimal models.
    """
    out = []
    for b1 in range(per_component_budget + 1):
        for b2 in range(b1, (per_component_budget - 2) // 2 - b1 + 1):
            profile = (1, b1, b2, b2, b1, 1)
            if (b1, b2) == (0, 0):
                out.append(("S5", profile))
            elif (b1, b2) == (0, 1):
                out.append(("S2xS3", profile))
            else:
                out.append((f"b1={b1},b2={b2}", profile))
    return out


def davis_parity(b: Sequence[int]) -> int:
    """Alternating Betti sum over degrees 0..(d-1)/2 of a (4k+1)-manifold;
    oddness is the splitting hypothesis for free actions."""
    bb = _betti(b)
    d = len(bb) - 1
    if d % 4 != 1:
        raise ValueError("the parity criterion applies in dimensions 4k+1")
    half = (d - 1) // 2
    return sum((-1) ** i * bb[i] for i in range(half + 1))
