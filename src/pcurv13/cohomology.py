"""Rational Betti-vector calculus for circle actions.

Covers the alternating-sum bookkeeping used throughout the case analysis:
Euler characteristics, exhaustive rank-solving of the Smith-Gysin long
exact sequence, integer trace sets of finite-order automorphisms in small
dimension, the quotient-index divisibility obstruction, Borel codimension
feasibility, the census of five-dimensional fixed-point profiles, and the
totally-geodesic intersection constraint.

Everything is a pure function; returned lists are deterministically
ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence


@dataclass(frozen=True)
class BettiVector:
    """Nonnegative dimensions indexed by degree 0..top."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if any(d < 0 for d in self.dims):
            raise ValueError("Betti numbers are nonnegative")

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    @property
    def total(self) -> int:
        return sum(self.dims)

    def __getitem__(self, i: int) -> int:
        return self.dims[i] if 0 <= i < len(self.dims) else 0

    def __iter__(self):
        return iter(self.dims)


def as_betti(b: BettiVector | Sequence[int]) -> BettiVector:
    return b if isinstance(b, BettiVector) else BettiVector(tuple(int(x) for x in b))


def euler_char(b: BettiVector | Sequence[int]) -> int:
    return sum((-1) ** i * d for i, d in enumerate(as_betti(b).dims))


# ---------------------------------------------------------------------------
# Smith-Gysin rank solver
#
# The long exact sequence for a circle action on X with fixed set F reads
#   ... -> R^i -> H^i(X) -> R^{i-1} (+) H^i(F) -> R^{i+1} -> ...
# with R^i the relative cohomology of (X/S^1, F).  Over a field, a sequence
# of dimensions is exact for some choice of maps iff the forced ranks
# r_k = d_k - r_{k-1} stay nonnegative and close at zero.


@dataclass(frozen=True)
class ExactSolution:
    """Dimensions R^0..R^{top-1} of the relative quotient cohomology."""

    R: tuple[int, ...]

    @property
    def chi_bar(self) -> int:
        return euler_char(self.R)


def smith_gysin_solve(
    bX: BettiVector | Sequence[int],
    bF: BettiVector | Sequence[int] | None,
    dim_x: int | None = None,
) -> list[ExactSolution]:
    """All exactness-consistent R-vectors, in lexicographic order.

    R^i vanishes for i >= dim_x (the quotient has lower dimension) and a
    per-entry cap of total(bX) + total(bF) bounds the search.  The empty
    list means no circle action is consistent; with empty F this happens
    exactly when the Euler characteristic of X is nonzero.
    """
    x = as_betti(bX)
    f = as_betti(bF) if bF is not None and len(tuple(bF)) else BettiVector((0,))
    n = dim_x if dim_x is not None else x.top
    if n < 1:
        raise ValueError("dim_x must be at least 1")
    budget = x.total + f.total
    sols: list[tuple[int, ...]] = []

    def advance(rank_in: int, dims: Iterable[int]) -> int | None:
        r = rank_in
        for d in dims:
            r = d - r
            if r < 0:
                return None
        return r

    def rec(i: int, R: list[int], rank_in: int) -> None:
        if i == n:
            r = advance(rank_in, (0, x[n], R[n - 1] + f[n]))
            if r == 0:
                sols.append(tuple(R))
            return
        prev = R[i - 1] if i >= 1 else 0
        for ri in range(budget + 1):
            r = advance(rank_in, (ri, x[i], prev + f[i]))
            if r is not None:
                R.append(ri)
                rec(i + 1, R, r)
                R.pop()

    rec(0, [], 0)
    return [ExactSolution(R) for R in sorted(sols)]


# ---------------------------------------------------------------------------
# integer traces of finite-order automorphisms


def integer_trace_set(k: int, odd_order_only: bool) -> frozenset[int]:
    """Integer traces of finite-order automorphisms of a rational k-space.

    For k = 2 the trace is a sum of two roots of unity; rationality forces
    both equal to +-1 or a conjugate pair 2cos(2 pi a/n) with n in
    {1,2,3,4,6}.  Restricting to odd order keeps n in {1,3}, i.e. traces
    {2, -1}.
    """
    if k not in (0, 1, 2):
        raise ValueError("trace sets computed only for dimensions 0, 1, 2")
    if k == 0:
        return frozenset({0})
    if k == 1:
        return frozenset({1}) if odd_order_only else frozenset({-1, 1})
    if odd_order_only:
        return frozenset({-1, 2})
    return frozenset({-2, -1, 0, 1, 2})


@dataclass(frozen=True)
class LefschetzSpec:
    """Per-degree dimensions of the (relative) cohomology acted on, plus
    the parity restriction on the acting element's order."""

    dims: tuple[int, ...]
    odd_order: bool = True


def lefschetz_value_set(spec: LefschetzSpec) -> frozenset[int]:
    """All alternating trace sums consistent with the dimensions and parity.

    Rejects any degree of dimension > 2: the eigenvalue analysis is only
    carried out there, larger blocks are out of scope by design.
    """
    if any(d > 2 for d in spec.dims):
        raise ValueError("per-degree dimensions above 2 are not supported")
    if any(d < 0 for d in spec.dims):
        raise ValueError("dimensions are nonnegative")
    per_degree = [
        [(-1) ** i * t for t in sorted(integer_trace_set(d, spec.odd_order))]
        for i, d in enumerate(spec.dims)
    ]
    return frozenset(sum(combo) for combo in product(*per_degree))


# ---------------------------------------------------------------------------
# divisibility obstruction


@dataclass(frozen=True)
class QuotientIndex:
    """Index of the maximal normal cyclic subgroup: d for a metacyclic
    class-d group, p for an elementary abelian p x p group (index p)."""

    kind: str  # "cd" | "zpxzp"
    value: int

    def __post_init__(self):
        if self.kind not in ("cd", "zpxzp"):
            raise ValueError("kind must be 'cd' or 'zpxzp'")
        if self.value < 1:
            raise ValueError("index must be positive")

    @property
    def divisor(self) -> int:
        return self.value

    @classmethod
    def parse(cls, text: str) -> "QuotientIndex":
        kind, _, val = text.partition(":")
        return cls(kind.strip().lower(), int(val))


@dataclass(frozen=True)
class Obstruction:
    excluded: bool
    surviving: frozenset[int]


def divisibility_obstruction(
    group: QuotientIndex, lef_values: Iterable[int]
) -> Obstruction:
    """The quotient index must divide an achievable Lefschetz number; the
    scenario is excluded when it divides none of them."""
    d = group.divisor
    surviving = frozenset(v for v in lef_values if v % d == 0)
    return Obstruction(excluded=not surviving, surviving=surviving)


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
# the duality checks stay exact
COMPONENT_BETTI: dict[str, tuple[int, ...]] = {
    "S1": (1, 1),
    "S3": (1, 0, 0, 1),
    "S5": (1, 0, 0, 0, 0, 1),
    "S7": (1, 0, 0, 0, 0, 0, 0, 1),
    "CP1xS3": (1, 0, 1, 1, 0, 1),
    "CP2": (1, 0, 1, 0, 1),
}
_TYPE_ORDER = tuple(COMPONENT_BETTI)


def component_dim(label: str) -> int:
    return len(COMPONENT_BETTI[label]) - 1


def _satisfies_duality(b: tuple[int, ...]) -> bool:
    return all(b[i] == b[len(b) - 1 - i] for i in range(len(b)))


@dataclass(frozen=True)
class FixedPointProfile:
    """Multiset of component cohomology types of a fixed-point set."""

    components: tuple[str, ...]

    def __post_init__(self):
        comps = tuple(
            sorted(self.components, key=lambda c: _TYPE_ORDER.index(c))
        )
        object.__setattr__(self, "components", comps)
        for c in comps:
            if c not in COMPONENT_BETTI:
                raise ValueError(f"unknown component type {c!r}")
            b = COMPONENT_BETTI[c]
            if b[0] != 1 or (len(b) > 1 and b[1] != 0):
                raise ValueError(f"component {c} violates b0=1, b1=0")
            if not _satisfies_duality(b):
                raise ValueError(f"component {c} violates duality")

    @property
    def total_betti(self) -> int:
        return sum(sum(COMPONENT_BETTI[c]) for c in self.components)

    def count(self, label: str) -> int:
        return sum(1 for c in self.components if c == label)


def enumerate_profiles(
    total_betti_budget: int, component_dim_wanted: int
) -> list[FixedPointProfile]:
    """All multisets of components of the given odd dimension fitting the
    Betti budget, with at most one even-degree-generator type (a second
    copy would exceed the generator bound of the equivariant Betti-sum
    theorem).  Deterministic order."""
    if total_betti_budget < 2:
        raise ValueError("budget must be at least 2")
    if component_dim_wanted % 2 == 0:
        raise ValueError("component dimension must be odd")
    types = [
        t for t in _TYPE_ORDER if component_dim(t) == component_dim_wanted
    ]
    if not types:
        return []
    costs = {t: sum(COMPONENT_BETTI[t]) for t in types}
    max_counts = {
        t: (1 if t == "CP1xS3" else total_betti_budget // costs[t]) for t in types
    }
    out = []
    ranges = [range(max_counts[t] + 1) for t in types]
    for counts in product(*ranges):
        total = sum(c * costs[t] for c, t in zip(counts, types))
        ncomp = sum(counts)
        if ncomp == 0 or total > total_betti_budget:
            continue
        comps = tuple(
            t for t, c in zip(types, counts) for _ in range(c)
        )
        out.append(FixedPointProfile(comps))
    # censored-last ordering: count vectors over reversed type order
    rev = list(reversed(types))
    out.sort(key=lambda pr: tuple(pr.count(t) for t in rev))
    return out


def frankel_compatible(component_dims: Iterable[int], ambient_dim: int) -> bool:
    """False iff two disjoint totally geodesic components would be forced
    to intersect (dimension sum at least the ambient dimension)."""
    dims = sorted(component_dims, reverse=True)
    return not (len(dims) >= 2 and dims[0] + dims[1] >= ambient_dim)


def allday_bound_check(
    bM: BettiVector | Sequence[int], bF: BettiVector | Sequence[int]
) -> bool:
    """Total Betti number of the fixed set at most that of the ambient."""
    return as_betti(bF).total <= as_betti(bM).total


# ---------------------------------------------------------------------------
# mod-p component census for five-dimensional fixed components


def mod_p_component_census(per_component_budget: int) -> list[tuple[str, tuple[int, ...]]]:
    """Possible mod-p cohomology profiles of a closed orientable positively
    curved 5-manifold within a total-dimension budget.

    Duality forces (1, b1, b2, b2, b1, 1); vanishing first integral Betti
    number plus universal coefficients forces b2 >= b1 (degree-2 torsion
    shows up in both degrees 1 and 2), which rules out the circle-times-
    4-sphere pattern.  Labels name the minimal models.
    """
    out = []
    for b1 in range(per_component_budget + 1):
        for b2 in range(per_component_budget + 1):
            total = 2 + 2 * b1 + 2 * b2
            if total > per_component_budget:
                continue
            if b1 > b2:
                continue
            profile = (1, b1, b2, b2, b1, 1)
            if (b1, b2) == (0, 0):
                out.append(("S5", profile))
            elif (b1, b2) == (0, 1):
                out.append(("S2xS3", profile))
            else:
                out.append((f"b1={b1},b2={b2}", profile))
    return out


def davis_parity(b: BettiVector | Sequence[int]) -> int:
    """Alternating Betti sum over degrees 0..(d-1)/2 of a (4k+1)-manifold;
    oddness is the splitting hypothesis for free actions."""
    bb = as_betti(b)
    d = bb.top
    if d % 4 != 1:
        raise ValueError("the parity criterion applies in dimensions 4k+1")
    half = (d - 1) // 2
    return sum((-1) ** i * bb[i] for i in range(half + 1))
