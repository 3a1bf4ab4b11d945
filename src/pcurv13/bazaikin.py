"""Bazaikin parameter tuples: admissibility, curvature sign, cohomology.

A candidate space is parametrized by five integer weights, given as any
sequence of ints.  The quotient construction is free iff all weights are
odd and every gcd of disjoint pair-sums equals 2; it carries positive
curvature iff all pair-sums are positive.  The degree-6/8 torsion order
is the exact rational e3(q)/8, which is *not* always an integer for
admissible tuples (e.g. (1,1,1,1,1) gives 10/8); we report the Fraction
itself rather than guessing a correction.

The catalog walks only the positive-curvature cone: a nonincreasing tuple
is positively curved iff q4 + q5 > 0, so at least four entries are
positive and the descending tuple is already canonical.  Each candidate
is met once, filtered by freeness, and gated on canonical form and
curvature.

All arithmetic is exact (ints and Fraction); no floats anywhere.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Sequence

from .gates import _gate

IndexPair = tuple[int, int]

# the 15 unordered pairs of disjoint 2-subsets of {0,..,4}
DISJOINT_PAIR_COMBINATIONS: tuple[tuple[IndexPair, IndexPair], ...] = tuple(
    (a, b)
    for a in combinations(range(5), 2)
    for b in combinations(range(5), 2)
    if set(a).isdisjoint(b) and a < b
)
_gate(len(DISJOINT_PAIR_COMBINATIONS) == 15, "five indices do not give 15 disjoint pairs of pairs")


class Curvature(enum.Enum):
    POSITIVE_ALL = "positive"
    NEGATIVE_ALL = "negative"
    MIXED = "mixed"


def canonicalize(q: Sequence[int]) -> tuple[int, ...]:
    """Canonical representative under permutations and a global sign flip.

    Entries sorted non-increasing, with the global sign chosen so the
    majority of entries is positive (ties broken by taking the
    lexicographically larger candidate).
    """
    entries = tuple(int(e) for e in q)
    if len(entries) != 5:
        raise ValueError("a weight tuple has exactly five entries")
    plus = tuple(sorted(entries, reverse=True))
    minus = tuple(sorted((-x for x in entries), reverse=True))
    npos_plus = sum(1 for x in plus if x > 0)
    npos_minus = sum(1 for x in minus if x > 0)
    if npos_plus > npos_minus:
        return plus
    if npos_minus > npos_plus:
        return minus
    return max(plus, minus)


@dataclass(frozen=True)
class FreenessReport:
    all_odd: bool
    failing_pairs: tuple[tuple[IndexPair, IndexPair, int], ...]
    # ((i,j),(k,l),g): gcd(q_i+q_j, q_k+q_l) = g != 2, indices 0-based

    @property
    def verdict(self) -> bool:
        return self.all_odd and not self.failing_pairs


def check_free(q: Sequence[int]) -> FreenessReport:
    """Freeness of the quotient action.

    The full symmetric-group quantification collapses to the 15 unordered
    pairs of disjoint index pairs; each gcd must be exactly 2.  Failing
    pairs are reported with 0-based indices into the canonical ordering.
    """
    return _freeness(canonicalize(q))


def _freeness(entries: tuple[int, ...]) -> FreenessReport:
    all_odd = all(x % 2 != 0 for x in entries)
    failing = []
    for (i, j), (k, l) in DISJOINT_PAIR_COMBINATIONS:
        g = math.gcd(entries[i] + entries[j], entries[k] + entries[l])
        if g != 2:
            failing.append(((i, j), (k, l), g))
    return FreenessReport(all_odd=all_odd, failing_pairs=tuple(failing))


def check_curvature(q: Sequence[int]) -> Curvature:
    """Sign pattern of the pair-sums q_i + q_j over all i < j."""
    entries = tuple(q)
    sums = [entries[i] + entries[j] for i, j in combinations(range(5), 2)]
    if all(s > 0 for s in sums):
        return Curvature.POSITIVE_ALL
    if all(s < 0 for s in sums):
        return Curvature.NEGATIVE_ALL
    return Curvature.MIXED


def e3(q: Sequence[int]) -> int:
    """Third elementary symmetric polynomial of the five weights."""
    entries = tuple(q)
    return sum(
        entries[i] * entries[j] * entries[k] for i, j, k in combinations(range(5), 3)
    )


def h6_order(q: Sequence[int]) -> Fraction:
    """The signed torsion order m = e3(q)/8, exact and possibly not integral."""
    return Fraction(e3(q), 8)


# rational Betti numbers in degrees 0..13; the integral cohomology is free
# of rank 1 in these degrees and cyclic of order |m| in degrees 6 and 8
# (nothing there when |m| = 1)
RATIONAL_BETTI = (1, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1)


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


def mod_p_betti(torsion_order: Fraction, p: int) -> tuple[int, ...]:
    """Mod-p dimensions in degrees 0..13 by universal coefficients, for
    torsion of order ``torsion_order`` = |m| in degrees 6 and 8.

    dim_k = free rank of H^k, plus 1 if p divides the torsion of H^k,
    plus 1 if p divides the torsion of H^{k+1}: when p divides |m| that
    adds one to degrees 5, 6, 7 and 8, otherwise nothing.
    """
    if torsion_order < 0:
        raise ValueError("torsion order is a magnitude")
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise ValueError(f"{p} is not prime")
    if not _p_divides(p, torsion_order):
        return RATIONAL_BETTI
    return tuple(b + (5 <= k <= 8) for k, b in enumerate(RATIONAL_BETTI))


MOD3_CP2xS9 = "CP2xS9"
MOD3_CP4xS5 = "CP4xS5"


def mod3_type(q: Sequence[int]) -> str:
    """Mod-3 cohomology type: product-of-projective-plane-and-9-sphere when
    3 does not divide the torsion order, otherwise CP^4 x S^5.

    Three-divisibility of m = e3/8 is read off e3 (8 is a unit mod 3), so
    this is well-defined even when m itself is not integral.
    """
    return MOD3_CP4xS5 if e3(q) % 3 == 0 else MOD3_CP2xS9


MAX_ENUMERATE_BOUND = 49


def enumerate_spaces(bound: int) -> list[tuple[int, ...]]:
    """All canonical admissible tuples with max|q_i| <= bound and positive
    curvature; sorted lexicographically, duplicate-free.

    Only the positive-curvature cone is walked.  For q1 >= ... >= q5 the
    smallest pair-sum is q4 + q5, so positive curvature is q4 + q5 > 0:
    at most q5 is <= 0, the majority is positive, and the descending tuple
    is already canonical.  The candidates are four positive odd entries,
    nonincreasing, and an odd q5 with -q4 < q5 <= q4 (3289 at bound 19, of
    42504 odd multisets), each met once.  Freeness filters them as built;
    a returned tuple that is not canonical or not positively curved
    raises ``ProofGateError``.  The cost grows like bound^5, so a bound
    above MAX_ENUMERATE_BOUND (18981 spaces, a few seconds) is rejected.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bound > MAX_ENUMERATE_BOUND:
        raise ValueError(f"bound must be at most {MAX_ENUMERATE_BOUND}")
    positive_odd = range(bound if bound % 2 else bound - 1, 0, -2)
    spaces = []
    for q1, q2, q3, q4 in combinations_with_replacement(positive_odd, 4):
        for q5 in range(q4, -q4, -2):
            q = (q1, q2, q3, q4, q5)
            if not _freeness(q).verdict:
                continue
            _gate(q == canonicalize(q), f"enumerated tuple {q} is not canonical")
            _gate(
                check_curvature(q) is Curvature.POSITIVE_ALL,
                f"enumerated tuple {q} is not positively curved",
            )
            spaces.append(q)
    return sorted(spaces)
