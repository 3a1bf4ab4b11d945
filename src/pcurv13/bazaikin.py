"""Bazaikin parameter tuples: admissibility, curvature sign, cohomology.

A candidate space is parametrized by five integer weights, given as any
sequence of ints.  The quotient construction is free iff all weights are
odd and every gcd of disjoint pair-sums equals 2; it carries positive
curvature iff all pair-sums are positive.  The degree-6/8 torsion order
is the exact rational e3(q)/8, which is *not* always an integer for
admissible tuples (e.g. (1,1,1,1,1) gives 10/8); we report the Fraction
itself rather than guessing a correction.

``row(q)`` is the one function for a tuple's facts: its catalog row, with
freeness, curvature, m and the mod-3 type read off one canonical form and
one e3.  One rule, ``_divides``, decides whether a prime divides m.

The catalog walks only the positive-curvature cone: a nonincreasing tuple
is positively curved iff q4 + q5 > 0, so at least four entries are
positive and the descending tuple is already canonical.  Of the 15 gcd
conditions, 3 involve only the head (q1, q2, q3, q4): they are tested
once per head, and the 12 that involve q5 once per candidate.  Each
survivor is gated on canonical form and curvature.

All arithmetic is exact (ints and Fraction); no floats anywhere.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Iterator, Sequence

from .gates import _gate
from .gfp import _require_prime

IndexPair = tuple[int, int]

# the 15 unordered pairs of disjoint 2-subsets of {0,..,4}
DISJOINT_PAIR_COMBINATIONS: tuple[tuple[IndexPair, IndexPair], ...] = tuple(
    (a, b)
    for a in combinations(range(5), 2)
    for b in combinations(range(5), 2)
    if set(a).isdisjoint(b) and a < b
)
_gate(len(DISJOINT_PAIR_COMBINATIONS) == 15, "five indices do not give 15 disjoint pairs of pairs")

# the catalog tests the 3 pairs of pairs within the head q1..q4 once per
# head, and the 12 that involve q5 once per candidate
_HEAD_PAIRS = tuple(c for c in DISJOINT_PAIR_COMBINATIONS if 4 not in c[0] + c[1])
_Q5_PAIRS = tuple(c for c in DISJOINT_PAIR_COMBINATIONS if 4 in c[0] + c[1])
_gate(
    len(_HEAD_PAIRS) == 3 and sorted(_HEAD_PAIRS + _Q5_PAIRS) == sorted(DISJOINT_PAIR_COMBINATIONS),
    "the head and q5 pairs of pairs do not partition the 15",
)


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


def _failing_pairs(
    entries: Sequence[int], pairs: Sequence[tuple[IndexPair, IndexPair]]
) -> Iterator[tuple[IndexPair, IndexPair, int]]:
    """The pairs of pairs ((i,j),(k,l)) in ``pairs`` whose pair-sums
    entries[i] + entries[j] and entries[k] + entries[l] do not have gcd 2,
    each with that gcd, in the order of ``pairs``."""
    for (i, j), (k, l) in pairs:
        g = math.gcd(entries[i] + entries[j], entries[k] + entries[l])
        if g != 2:
            yield (i, j), (k, l), g


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


# rational Betti numbers in degrees 0..13; the integral cohomology is free
# of rank 1 in these degrees and cyclic of order |m| in degrees 6 and 8
# (nothing there when |m| = 1)
RATIONAL_BETTI = (1, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1)


def _divides(p: int, m: Fraction) -> bool:
    # a Fraction is in lowest terms, so its p-adic valuation is at least 1
    # exactly when p divides its numerator; m = 0 has numerator 0
    return m.numerator % p == 0


def mod_p_betti(torsion_order: Fraction, p: int) -> tuple[int, ...]:
    """Mod-p dimensions in degrees 0..13 by universal coefficients, for
    torsion of order ``torsion_order`` = |m| in degrees 6 and 8.

    dim_k = free rank of H^k, plus 1 if p divides the torsion of H^k,
    plus 1 if p divides the torsion of H^{k+1}: when p divides |m| that
    adds one to degrees 5, 6, 7 and 8, otherwise nothing.  |m| need not be
    integral: p divides it when p divides its reduced numerator.
    """
    if torsion_order < 0:
        raise ValueError("torsion order is a magnitude")
    _require_prime(p)
    if not _divides(p, torsion_order):
        return RATIONAL_BETTI
    return tuple(b + (5 <= k <= 8) for k, b in enumerate(RATIONAL_BETTI))


MOD3_CP2xS9 = "CP2xS9"
MOD3_CP4xS5 = "CP4xS5"


def row(q: Sequence[int]) -> dict:
    """The catalog row of q: canonical form, freeness, curvature sign, e3,
    m = e3/8 as text, whether m is integral, and mod-3 type.

    The action is free iff all entries are odd and each of the 15 gcds of
    disjoint pair-sums is 2; failing pairs carry 0-based indices into the
    canonical form.  The mod-3 type is CP^4 x S^5 when 3 divides m and
    CP^2 x S^9 otherwise, for m not integral too, since 8 is a unit mod 3."""
    entries = canonicalize(q)
    all_odd = all(x % 2 != 0 for x in entries)
    failing = [[list(ij), list(kl), g] for ij, kl, g in _failing_pairs(entries, DISJOINT_PAIR_COMBINATIONS)]
    e = e3(entries)
    m = Fraction(e, 8)
    return {
        "q": list(entries),
        "free": all_odd and not failing,
        "all_odd": all_odd,
        "failing_pairs": failing,
        "curvature": check_curvature(entries).value,
        "e3": e,
        "m": f"{e}/8",
        "m_integral": m.denominator == 1,
        "mod3_type": MOD3_CP4xS5 if _divides(3, m) else MOD3_CP2xS9,
    }


MAX_ENUMERATE_BOUND = 49


def enumerate_spaces(bound: int) -> list[tuple[int, ...]]:
    """All canonical admissible tuples with max|q_i| <= bound and positive
    curvature; sorted lexicographically, duplicate-free.

    Only the positive-curvature cone is walked.  For q1 >= ... >= q5 the
    smallest pair-sum is q4 + q5, so positive curvature is q4 + q5 > 0:
    at most q5 is <= 0, the majority is positive, and the descending tuple
    is already canonical.  A head is four positive odd entries,
    nonincreasing; the 3 freeness conditions within it are tested once,
    and a head that fails one is skipped with all its q5.  A passing head
    takes each odd q5 with -q4 < q5 <= q4, tested against the 12 conditions
    that involve q5 (at bound 19: 715 heads, 332 passing, 1540 candidates).
    A returned tuple that is not canonical or not positively curved raises
    ``ProofGateError``.  The cost grows like bound^5, so a bound above
    MAX_ENUMERATE_BOUND (18981 spaces, about 0.4 s) is rejected.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if bound > MAX_ENUMERATE_BOUND:
        raise ValueError(f"bound must be at most {MAX_ENUMERATE_BOUND}")
    positive_odd = range(bound if bound % 2 else bound - 1, 0, -2)
    spaces = []
    for head in combinations_with_replacement(positive_odd, 4):
        if next(_failing_pairs(head, _HEAD_PAIRS), None):
            continue
        for q5 in range(head[3], -head[3], -2):
            q = head + (q5,)
            if next(_failing_pairs(q, _Q5_PAIRS), None):
                continue
            _gate(q == canonicalize(q), f"enumerated tuple {q} is not canonical")
            _gate(
                check_curvature(q) is Curvature.POSITIVE_ALL,
                f"enumerated tuple {q} is not positively curved",
            )
            spaces.append(q)
    return sorted(spaces)
