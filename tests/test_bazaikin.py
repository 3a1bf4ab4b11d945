import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pcurv13 import bazaikin as bz

entries5 = st.tuples(*[st.integers(min_value=-9, max_value=9)] * 5)


# --- oracles -----------------------------------------------------------


def freeness_oracle_120(q):
    """Full permutation-group quantification of the gcd condition."""
    if any(x % 2 == 0 for x in q):
        return False
    for s in permutations(range(5)):
        if math.gcd(q[s[0]] + q[s[1]], q[s[2]] + q[s[3]]) != 2:
            return False
    return True


def e3_oracle_poly(q):
    """Coefficient of x^2 in prod (x + q_i), by polynomial expansion."""
    coeffs = [1]  # ascending powers
    for a in q:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] += c * a
        coeffs = nxt
    return coeffs[2]


# --- canonicalization --------------------------------------------------


def test_canonicalize_examples():
    assert bz.canonicalize((3, 1, 1, 1, 1)) == (3, 1, 1, 1, 1)
    assert bz.canonicalize([1, 1, 3, 1, 1]) == (3, 1, 1, 1, 1)
    assert bz.canonicalize((-1, -1, -1, -1, -3)) == (3, 1, 1, 1, 1)
    # two positive, two negative: the lexicographically larger sign wins
    assert bz.canonicalize((2, 1, 0, -1, -3)) == (3, 1, 0, -1, -2)


@given(entries5)
def test_canonicalize_idempotent(q):
    c1 = bz.canonicalize(q)
    c2 = bz.canonicalize(c1)
    assert c1 == c2


@given(entries5, st.permutations(range(5)))
def test_canonicalize_permutation_invariant(q, perm):
    assert bz.canonicalize(q) == bz.canonicalize([q[i] for i in perm])


@given(entries5)
def test_canonicalize_sign_invariant(q):
    assert bz.canonicalize(q) == bz.canonicalize([-x for x in q])


@given(entries5)
def test_canonical_form_is_sorted_and_majority_positive(q):
    c = bz.canonicalize(q)
    assert list(c) == sorted(c, reverse=True)
    pos = sum(1 for x in c if x > 0)
    neg = sum(1 for x in c if x < 0)
    assert pos >= neg


def test_rejects_wrong_arity():
    with pytest.raises(ValueError, match="a weight tuple has exactly five entries"):
        bz.canonicalize((1, 2, 3))


# --- freeness ----------------------------------------------------------


def test_free_all_ones():
    row = bz.row((1, 1, 1, 1, 1))
    assert row["free"] and row["all_odd"] and not row["failing_pairs"]
    # all 15 disjoint-pair gcds are exactly 2, computed here directly
    q = (1, 1, 1, 1, 1)
    pairs = [
        (a, b)
        for a in combinations(range(5), 2)
        for b in combinations(range(5), 2)
        if set(a).isdisjoint(b) and a < b
    ]
    assert len(pairs) == 15
    assert all(
        math.gcd(q[i] + q[j], q[k] + q[l]) == 2 for (i, j), (k, l) in pairs
    )


def test_not_free_even_entry():
    row = bz.row((1, 1, 1, 1, 2))
    assert not row["free"] and not row["all_odd"]


def test_not_free_gcd_four():
    row = bz.row((5, 3, 3, 1, 1))
    assert not row["free"] and row["all_odd"]
    assert any(g == 4 for _, _, g in row["failing_pairs"])


def test_reduction_matches_full_permutation_oracle():
    rng = random.Random(20240817)
    for _ in range(200):
        q = tuple(rng.randint(-15, 15) for _ in range(5))
        assert bz.row(q)["free"] == freeness_oracle_120(q), q


# --- curvature ---------------------------------------------------------


def test_curvature_examples():
    assert bz.check_curvature((1, 1, 1, 1, 1)) is bz.Curvature.POSITIVE_ALL
    assert bz.check_curvature((-1, -1, -1, -1, -1)) is bz.Curvature.NEGATIVE_ALL
    assert bz.check_curvature((3, 1, 1, 1, -3)) is bz.Curvature.MIXED


@given(entries5)
def test_curvature_flips_with_sign(q):
    flipped = tuple(-x for x in q)
    c1, c2 = bz.check_curvature(q), bz.check_curvature(flipped)
    swap = {
        bz.Curvature.POSITIVE_ALL: bz.Curvature.NEGATIVE_ALL,
        bz.Curvature.NEGATIVE_ALL: bz.Curvature.POSITIVE_ALL,
        bz.Curvature.MIXED: bz.Curvature.MIXED,
    }
    assert c2 is swap[c1]


# --- torsion order -----------------------------------------------------


def test_h6_examples():
    assert Fraction(bz.e3((1, 1, 1, 1, 1)), 8) == Fraction(10, 8)
    assert Fraction(bz.e3((1, 1, 1, 1, -1)), 8) == Fraction(-2, 8)
    assert Fraction(bz.e3((2, 0, 0, 0, 0)), 8) == Fraction(0)
    assert bz.row((2, 0, 0, 0, 0))["m_integral"]


@given(entries5)
def test_e3_against_polynomial_expansion(q):
    assert bz.e3(q) == e3_oracle_poly(q)


@given(entries5, st.permutations(range(5)))
def test_symmetric_invariance(q, perm):
    qp = tuple(q[i] for i in perm)
    assert bz.e3(q) == bz.e3(qp)
    assert bz.row(q)["free"] == bz.row(qp)["free"]


@given(entries5)
def test_sign_flip_invariance(q):
    flipped = tuple(-x for x in q)
    assert bz.row(q)["free"] == bz.row(flipped)["free"]
    assert abs(bz.e3(q)) == abs(bz.e3(flipped))


# --- cohomology profile ------------------------------------------------


def test_profile_shape_trivial_torsion():
    # order 1 leaves no torsion, so no prime sees more than the free part
    for p in (2, 3, 5, 7):
        assert bz.mod_p_betti(Fraction(1), p) == bz.RATIONAL_BETTI
    assert [k for k in range(14) if bz.RATIONAL_BETTI[k]] == [0, 2, 4, 9, 11, 13]
    assert bz.RATIONAL_BETTI == (1, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1)


def test_profile_shape_with_torsion():
    # torsion in degrees 6 and 8 shows mod 3 in degrees 5, 6 and 7, 8
    dims = bz.mod_p_betti(Fraction(3), 3)
    assert [k for k in range(14) if dims[k] != bz.RATIONAL_BETTI[k]] == [5, 6, 7, 8]


def test_profile_of_all_ones_reports_exact_rational():
    q = (1, 1, 1, 1, 1)
    row = bz.row(q)
    assert row["free"]
    assert abs(Fraction(row["e3"], 8)) == Fraction(5, 4)
    assert not row["m_integral"]
    # the torsion order is not 1, so a prime dividing its numerator sees it
    assert bz.mod_p_betti(abs(Fraction(row["e3"], 8)), 5) != bz.RATIONAL_BETTI


def test_mod_p_betti_rejects_bad_input():
    with pytest.raises(ValueError, match="magnitude"):
        bz.mod_p_betti(Fraction(-3), 3)
    with pytest.raises(ValueError, match="not prime"):
        bz.mod_p_betti(Fraction(3), 9)
    # an order of 0 is divisible by every prime
    assert sum(bz.mod_p_betti(Fraction(0), 7)) == 10


# --- universal coefficients --------------------------------------------


def uct_oracle(free_ranks, torsion, p):
    """Independent accounting of mod-p dims from integral data."""
    top = len(free_ranks) - 1
    out = []
    for k in range(top + 1):
        d = free_ranks[k]
        if torsion[k] % p == 0 and torsion[k] != 1:
            d += 1
        if k + 1 <= top and torsion[k + 1] % p == 0 and torsion[k + 1] != 1:
            d += 1
        out.append(d)
    return tuple(out)


def test_mod3_with_torsion_divisible_by_three():
    dims = bz.mod_p_betti(Fraction(3), 3)
    assert sum(dims) == 10
    assert tuple(i for i, d in enumerate(dims) if d) == (0, 2, 4, 5, 6, 7, 8, 9, 11, 13)
    free = list(bz.RATIONAL_BETTI)
    tor = [3 if k in (6, 8) else 1 for k in range(14)]
    assert dims == uct_oracle(free, tor, 3)


def test_mod3_without_three_torsion():
    dims = bz.mod_p_betti(Fraction(5), 3)
    assert sum(dims) == 6
    assert tuple(i for i, d in enumerate(dims) if d) == (0, 2, 4, 9, 11, 13)


def test_mod5_without_five_torsion_matches_rational():
    assert bz.mod_p_betti(Fraction(3), 5) == bz.RATIONAL_BETTI


@pytest.mark.parametrize("order", [1, 3, 5, 9, 15])
def test_mod_p_total_at_least_rational(order):
    for p in (3, 5, 7):
        total = sum(bz.mod_p_betti(Fraction(order), p))
        assert total >= 6
        assert (total == 6) == (order % p != 0)


def valuation_at_least_one(p, r):
    """The p-adic valuation of r, counted factor by factor, is at least 1
    (an order of 0 is divisible by every prime)."""
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


def test_mod_p_betti_matches_the_valuation_loop():
    bumped = tuple(b + (5 <= k <= 8) for k, b in enumerate(bz.RATIONAL_BETTI))
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(-60, 61):
            for d in range(1, 61):
                r = abs(Fraction(n, d))
                expected = bumped if valuation_at_least_one(p, r) else bz.RATIONAL_BETTI
                assert bz.mod_p_betti(r, p) == expected, (n, d, p)


def test_mod3_type_uses_e3():
    assert bz.row((1, 1, 1, 1, 1))["mod3_type"] == bz.MOD3_CP2xS9  # e3 = 10
    assert bz.e3((3, 1, 1, 1, 1)) == 22  # 6 triples with the 3, 4 without
    assert bz.row((3, 1, 1, 1, 1))["mod3_type"] == bz.MOD3_CP2xS9
    q = (3, 3, 3, 1, 1)
    assert bz.e3(q) == e3_oracle_poly(q) == 90
    assert bz.row(q)["mod3_type"] == bz.MOD3_CP4xS5


# --- catalog -----------------------------------------------------------


def test_enumerate_bound_one_and_two():
    assert [tuple(q) for q in bz.enumerate_spaces(1)] == [(1, 1, 1, 1, 1)]
    assert [tuple(q) for q in bz.enumerate_spaces(2)] == [(1, 1, 1, 1, 1)]


def test_enumerate_output_is_canonical_sorted_unique():
    out = bz.enumerate_spaces(5)
    assert out == sorted(set(out))
    for q in out:
        assert type(q) is tuple and bz.canonicalize(q) == q
        assert bz.check_curvature(q) is bz.Curvature.POSITIVE_ALL
        # re-verify the 15 gcds independently
        e = tuple(q)
        for a in combinations(range(5), 2):
            for b in combinations(range(5), 2):
                if set(a).isdisjoint(b):
                    assert math.gcd(e[a[0]] + e[a[1]], e[b[0]] + e[b[1]]) == 2


def enumerate_oracle(bound):
    """Every 5-multiset of integers in [-bound, bound], evens included, kept
    when all 10 pair-sums are positive and the 120-permutation freeness
    check passes, then canonicalized."""
    found = set()
    for m in combinations_with_replacement(range(-bound, bound + 1), 5):
        if all(a + b > 0 for a, b in combinations(m, 2)) and freeness_oracle_120(m):
            found.add(bz.canonicalize(m))
    return sorted(found)


@pytest.mark.parametrize("bound,count", [(1, 1), (3, 2), (7, 13), (11, 57), (19, 422)])
def test_enumerate_matches_exhaustive_oracle(bound, count):
    out = bz.enumerate_spaces(bound)
    assert out == enumerate_oracle(bound)
    assert len(out) == count


def unsplit_enumerate(bound):
    """The catalog loop with row's full 15-pair freeness verdict on every
    candidate of the positive-curvature cone, no condition tested early."""
    positive_odd = range(bound if bound % 2 else bound - 1, 0, -2)
    return sorted(
        q
        for head in combinations_with_replacement(positive_odd, 4)
        for q in (head + (q5,) for q5 in range(head[3], -head[3], -2))
        if bz.row(q)["free"]
    )


@pytest.mark.parametrize("bound", [19, 29, 39])
def test_enumerate_matches_the_unsplit_freeness_loop(bound):
    assert bz.enumerate_spaces(bound) == unsplit_enumerate(bound)


def test_enumerate_even_bound_equals_the_odd_bound_below():
    out = bz.enumerate_spaces(20)
    assert out == bz.enumerate_spaces(19)
    assert len(out) == 422


def test_enumerate_rejects_bad_bound():
    with pytest.raises(ValueError):
        bz.enumerate_spaces(0)


def test_enumerate_cap_runs_in_time_and_above_it_fails_at_once():
    start = time.perf_counter()
    assert len(bz.enumerate_spaces(bz.MAX_ENUMERATE_BOUND)) == 18981
    assert time.perf_counter() - start < 30
    for bound in (bz.MAX_ENUMERATE_BOUND + 1, 999999):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"bound must be at most {bz.MAX_ENUMERATE_BOUND}"):
            bz.enumerate_spaces(bound)
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "name, replacement, message",
    [
        ("canonicalize", "lambda q: tuple(-x for x in q)", "is not canonical"),
        ("check_curvature", "lambda q: bz.Curvature.MIXED", "is not positively curved"),
    ],
)
def test_enumerate_gates_survive_optimize_flag(name, replacement, message):
    """With the canonical form or the curvature check broken, enumeration
    stops at a proof gate also under ``python -O``, which strips asserts."""
    script = f"""
import sys
from pcurv13 import bazaikin as bz, gates
print("optimize:", sys.flags.optimize)
bz.{name} = {replacement}
try:
    bz.enumerate_spaces(3)
except gates.ProofGateError as exc:
    print("gate:", exc)
    sys.exit(0)
sys.exit(1)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(bz.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "optimize: 1" in proc.stdout and message in proc.stdout
