"""Bazaikin parameter tuples: admissibility, curvature sign, cohomology.

A candidate space is parametrized by five integer weights.  The quotient
construction is free iff all weights are odd and every gcd of disjoint
pair-sums equals 2; it carries positive curvature iff all pair-sums are
positive.  The degree-6/8 torsion order is the exact rational e3(q)/8,
which is *not* always an integer for admissible tuples (e.g. (1,1,1,1,1)
gives 10/8); we report it exactly with an integrality flag rather than
guessing a correction.

All arithmetic is exact (ints and Fraction); no floats anywhere.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from .spectral import ProofGateError

IndexPair = tuple[int, int]

# the 15 unordered pairs of disjoint 2-subsets of {0,..,4}
DISJOINT_PAIR_COMBINATIONS: tuple[tuple[IndexPair, IndexPair], ...] = tuple(
    (a, b)
    for a in combinations(range(5), 2)
    for b in combinations(range(5), 2)
    if set(a).isdisjoint(b) and a < b
)
if len(DISJOINT_PAIR_COMBINATIONS) != 15:
    raise ProofGateError("five indices do not give 15 disjoint pairs of pairs")


class Curvature(enum.Enum):
    POSITIVE_ALL = "positive"
    NEGATIVE_ALL = "negative"
    MIXED = "mixed"


@dataclass(frozen=True, order=True)
class QTuple:
    """Five integer weights, stored canonically.

    Canonical form: entries sorted non-increasing, with the global sign
    chosen so the majority of entries is positive (ties broken by taking
    the lexicographically larger candidate).  Construct via ``of`` to
    canonicalize arbitrary input.
    """

    q: tuple[int, int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.q) != 5:
            raise ValueError("a weight tuple has exactly five entries")
        if self.q != _canonical_entries(self.q):
            raise ValueError(f"{self.q} is not in canonical form; use QTuple.of")

    @staticmethod
    def of(*entries: int) -> "QTuple":
        if len(entries) == 1 and not isinstance(entries[0], int):
            entries = tuple(entries[0])
        return QTuple(_canonical_entries(tuple(int(e) for e in entries)))

    def __iter__(self):
        return iter(self.q)


def _canonical_entries(q: tuple[int, ...]) -> tuple[int, int, int, int, int]:
    if len(q) != 5:
        raise ValueError("a weight tuple has exactly five entries")
    plus = tuple(sorted(q, reverse=True))
    minus = tuple(sorted((-x for x in q), reverse=True))
    npos_plus = sum(1 for x in plus if x > 0)
    npos_minus = sum(1 for x in minus if x > 0)
    if npos_plus > npos_minus:
        return plus
    if npos_minus > npos_plus:
        return minus
    return max(plus, minus)


def canonicalize(q: QTuple | tuple[int, ...]) -> QTuple:
    """Canonical representative under permutations and a global sign flip."""
    if isinstance(q, QTuple):
        return q
    return QTuple.of(*q)


@dataclass(frozen=True)
class FreenessReport:
    all_odd: bool
    failing_pairs: tuple[tuple[IndexPair, IndexPair, int], ...]
    # ((i,j),(k,l),g): gcd(q_i+q_j, q_k+q_l) = g != 2, indices 0-based

    @property
    def verdict(self) -> bool:
        return self.all_odd and not self.failing_pairs


def check_free(q: QTuple | tuple[int, ...]) -> FreenessReport:
    """Freeness of the quotient action.

    The full symmetric-group quantification collapses to the 15 unordered
    pairs of disjoint index pairs; each gcd must be exactly 2.  Failing
    pairs are reported with 0-based indices into the canonical ordering.
    """
    entries = tuple(canonicalize(q))
    all_odd = all(x % 2 != 0 for x in entries)
    failing = []
    for (i, j), (k, l) in DISJOINT_PAIR_COMBINATIONS:
        g = math.gcd(entries[i] + entries[j], entries[k] + entries[l])
        if g != 2:
            failing.append(((i, j), (k, l), g))
    return FreenessReport(all_odd=all_odd, failing_pairs=tuple(failing))


def check_curvature(q: QTuple | tuple[int, ...]) -> Curvature:
    """Sign pattern of the pair-sums q_i + q_j over all i < j."""
    entries = tuple(q) if not isinstance(q, QTuple) else tuple(q.q)
    sums = [entries[i] + entries[j] for i, j in combinations(range(5), 2)]
    if all(s > 0 for s in sums):
        return Curvature.POSITIVE_ALL
    if all(s < 0 for s in sums):
        return Curvature.NEGATIVE_ALL
    return Curvature.MIXED


def e3(q: QTuple | tuple[int, ...]) -> int:
    """Third elementary symmetric polynomial of the five weights."""
    entries = tuple(q)
    return sum(
        entries[i] * entries[j] * entries[k] for i, j, k in combinations(range(5), 3)
    )


@dataclass(frozen=True)
class TorsionOrder:
    """Exact value of e3(q)/8 with an integrality flag."""

    value: Fraction
    is_integral: bool


def h6_order(q: QTuple | tuple[int, ...]) -> TorsionOrder:
    m = Fraction(e3(q), 8)
    return TorsionOrder(value=m, is_integral=(m.denominator == 1))


@dataclass(frozen=True)
class CohomologyProfile:
    """Integral cohomology in degrees 0..13.

    Free rank 1 in degrees 0,2,4,9,11,13; cyclic torsion of order |m| in
    degrees 6 and 8 whenever |m| != 1 (nothing there when |m| = 1).  The
    torsion order is kept as an exact Fraction because m = e3/8 need not
    be integral for admissible weights; ``m_integral`` flags that case.
    """

    torsion_order: Fraction  # |m|, nonnegative
    m: Fraction = field(repr=False, default=None)  # signed m, informational

    FREE_DEGREES = (0, 2, 4, 9, 11, 13)
    TOP = 13

    def __post_init__(self):
        if self.m is None:
            object.__setattr__(self, "m", self.torsion_order)
        if self.torsion_order < 0:
            raise ValueError("torsion order is a magnitude")

    @property
    def torsion_degrees(self) -> tuple[int, ...]:
        return (6, 8) if self.torsion_order != 1 else ()

    @property
    def m_integral(self) -> bool:
        return self.torsion_order.denominator == 1

    def free_rank(self, k: int) -> int:
        return 1 if k in self.FREE_DEGREES else 0

    def torsion_at(self, k: int) -> Fraction:
        return self.torsion_order if k in self.torsion_degrees else Fraction(1)

    def describe(self, k: int) -> str:
        if self.free_rank(k):
            return "Z"
        if k in self.torsion_degrees:
            return f"Z/{self.torsion_order}"
        return "0"

    def rational_betti(self) -> tuple[int, ...]:
        return tuple(self.free_rank(k) for k in range(self.TOP + 1))


def integral_cohomology(q: QTuple | tuple[int, ...]) -> CohomologyProfile:
    """Cohomology profile of an admissible tuple; rejects non-free q."""
    report = check_free(q)
    if not report.verdict:
        raise ValueError(f"tuple {tuple(q)} is not free: {_free_failure(report)}")
    m = h6_order(q).value
    return CohomologyProfile(torsion_order=abs(m), m=m)


def _free_failure(report: FreenessReport) -> str:
    if not report.all_odd:
        return "not all entries are odd"
    (i, j), (k, l), g = report.failing_pairs[0]
    return f"pair sums at indices {(i, j)} and {(k, l)} have gcd {g} != 2"


def _p_divides(p: int, r: Fraction) -> bool:
    """p-adic valuation of r is >= 1 (for odd p the denominator 8 is a unit)."""
    num, den = r.numerator, r.denominator
    if num == 0:
        return True
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v >= 1


def mod_p_betti(profile: CohomologyProfile, p: int) -> tuple[int, ...]:
    """Mod-p dimensions by universal coefficients.

    dim_k = free rank of H^k, plus 1 if p divides the torsion of H^k,
    plus 1 if p divides the torsion of H^{k+1}.
    """
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise ValueError(f"{p} is not prime")
    dims = []
    for k in range(profile.TOP + 1):
        d = profile.free_rank(k)
        if _p_divides(p, profile.torsion_at(k)):
            d += 1
        if k + 1 <= profile.TOP and _p_divides(p, profile.torsion_at(k + 1)):
            d += 1
        dims.append(d)
    return tuple(dims)


MOD3_CP2xS9 = "CP2xS9"
MOD3_CP4xS5 = "CP4xS5"


def mod3_type(q: QTuple | tuple[int, ...]) -> str:
    """Mod-3 cohomology type: product-of-projective-plane-and-9-sphere when
    3 does not divide the torsion order, otherwise CP^4 x S^5.

    Three-divisibility of m = e3/8 is read off e3 (8 is a unit mod 3), so
    this is well-defined even when m itself is not integral.
    """
    return MOD3_CP4xS5 if e3(q) % 3 == 0 else MOD3_CP2xS9


def enumerate_spaces(bound: int) -> list[QTuple]:
    """All canonical admissible tuples with max|q_i| <= bound and positive
    curvature; sorted lexicographically, duplicate-free."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    odd_values = [v for v in range(-bound, bound + 1) if v % 2 != 0]
    found = set()
    for entries in combinations_with_replacement(sorted(odd_values, reverse=True), 5):
        q = QTuple.of(*entries)
        if q in found:
            continue
        if check_curvature(q) is not Curvature.POSITIVE_ALL:
            continue
        if not check_free(q).verdict:
            continue
        found.add(q)
    return sorted(found)
