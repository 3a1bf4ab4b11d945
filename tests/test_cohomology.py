import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcurv13 import cohomology as ch
from pcurv13 import gfp
from pcurv13 import pipeline as pl


# --- oracles -----------------------------------------------------------


def exactness_oracle(bX, bF, dim_x, R):
    """Independent rank propagation along the full flattened sequence.

    Builds the dimension list A_0 B_0 C_0 A_1 ... A_n B_n C_n and pushes
    the forced ranks through; exact iff every rank is nonnegative and the
    final one closes at zero.
    """

    def bx(i):
        return bX[i] if 0 <= i < len(bX) else 0

    def bf(i):
        return bF[i] if 0 <= i < len(bF) else 0

    def r(i):
        return R[i] if 0 <= i < len(R) else 0

    dims = []
    for i in range(dim_x + 1):
        a = r(i) if i < dim_x else 0
        dims += [a, bx(i), r(i - 1) + bf(i)]
    rank = 0
    for d in dims:
        rank = d - rank
        if rank < 0:
            return False
    return rank == 0


def trace_sweep_oracle(limit=99):
    """Integer values of 2*cos(2*pi*a/n) over odd n, plus the trivial pair."""
    vals = {2}
    for n in range(1, limit + 1, 2):
        for a in range(n):
            x = 2 * math.cos(2 * math.pi * a / n)
            if abs(x - round(x)) < 1e-9:
                vals.add(round(x))
    return vals


# --- euler and exact sequences -------------------------------------------


def test_euler_examples():
    assert ch.euler_char((1, 0, 0, 0, 0, 1)) == 0
    assert ch.euler_char((1, 0, 1, 1, 0, 1)) == 0
    assert ch.euler_char((1, 0, 2, 0, 1)) == 4


def test_smith_gysin_five_sphere():
    sols = ch.smith_gysin_solve((1, 0, 0, 0, 0, 1), None, 5)
    assert sols == [(1, 0, 1, 0, 1)]
    assert ch.euler_char(sols[0]) == 3


def test_smith_gysin_product_component():
    sols = ch.smith_gysin_solve((1, 0, 1, 1, 0, 1), None, 5)
    assert sols == [(1, 0, 2, 0, 1)]
    assert ch.euler_char(sols[0]) == 4


def test_smith_gysin_nonzero_euler_is_empty():
    assert ch.smith_gysin_solve((1, 0, 1), None, 2) == []


def test_smith_gysin_three_sphere():
    sols = ch.smith_gysin_solve((1, 0, 0, 1), None, 3)
    assert sols == [(1, 0, 1)]
    assert ch.euler_char(sols[0]) == 2


def test_smith_gysin_rejects_vectors_longer_than_dim_x_plus_one():
    with pytest.raises(ValueError, match=r"more than dim_x \+ 1 = 2 entries"):
        ch.smith_gysin_solve((1, 1, 0, 1), None, 1)
    # a 5-sphere fixed set cannot sit in a 3-sphere
    with pytest.raises(ValueError, match=r"more than dim_x \+ 1 = 4 entries"):
        ch.smith_gysin_solve((1, 0, 0, 1), (1, 0, 0, 0, 0, 1), 3)
    # shorter vectors are still padded with zeros
    assert ch.smith_gysin_solve((1, 0, 0, 1), (1, 1), 3) == ch.smith_gysin_solve(
        (1, 0, 0, 1), (1, 1, 0, 0), 3
    )


def test_solutions_pass_independent_oracle():
    cases = [
        ((1, 0, 0, 0, 0, 1), (), 5),
        ((1, 0, 1, 1, 0, 1), (), 5),
        ((1, 0, 0, 1), (), 3),
        ((1, 1), (), 1),
        ((1, 0, 0, 0, 0, 1), (1, 1), 5),
        ((2, 0, 0, 0, 0, 2), (), 5),
    ]
    for bX, bF, dim in cases:
        sols = ch.smith_gysin_solve(bX, bF or None, dim)
        for R in sols:
            assert exactness_oracle(bX, bF, dim, R), (bX, bF, R)
        # the solver finds everything the oracle accepts, in a box two
        # past the total Betti number in every entry
        budget = sum(bX) + sum(bF)
        found = set(sols)
        for R in itertools.product(range(budget + 3), repeat=dim):
            assert (R in found) == exactness_oracle(bX, bF, dim, R)


@given(
    st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=6).map(tuple)
)
def test_fiberless_solutions_force_zero_euler(bX):
    bX = (1,) + bX[1:]
    dim = len(bX) - 1
    sols = ch.smith_gysin_solve(bX, None, dim)
    if ch.euler_char(bX) != 0:
        assert sols == []
    for R in sols:
        assert exactness_oracle(bX, (), dim, R)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=4),
    st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=4),
)
def test_solutions_with_fixed_set_match_oracle(bX, bF):
    bF = bF[: len(bX)]
    if not any(bF):
        bF[0] = 1
    dim = len(bX) - 1
    found = ch.smith_gysin_solve(bX, bF, dim)
    assert found == sorted(set(found))
    box = range(sum(bX) + sum(bF) + 3)
    accepted = [R for R in itertools.product(box, repeat=dim) if exactness_oracle(bX, bF, dim, R)]
    assert found == accepted


# --- trace sets ----------------------------------------------------------


def test_trace_sets_exact():
    assert ch.integer_trace_set(2, True) == {-1, 2}
    assert ch.integer_trace_set(1, True) == {1}
    assert ch.integer_trace_set(2, False) == {-2, -1, 0, 1, 2}
    assert ch.integer_trace_set(1, False) == {-1, 1}
    assert ch.integer_trace_set(0, True) == {0}
    assert ch.integer_trace_set(0, False) == {0}
    assert ch.integer_trace_set(3, True) == {0, 3}
    assert ch.integer_trace_set(3, False) == set(range(-3, 4))
    assert ch.integer_trace_set(4, True) == {-2, -1, 1, 4}


def test_trace_sets_run_at_the_cap_and_reject_beyond_it():
    cap = ch.MAX_TRACE_DIM
    assert ch.integer_trace_set(cap, False) == set(range(-cap, cap + 1))
    assert cap in ch.integer_trace_set(cap, True)  # the identity
    for k, odd in itertools.product((cap + 1, -1), (True, False)):
        with pytest.raises(ValueError, match=f"between 0 and {cap}"):
            ch.integer_trace_set(k, odd)


@pytest.mark.parametrize("k", [2, 3])
def test_trace_sets_match_every_small_integer_matrix(k):
    """Every k x k matrix with entries in {-1, 0, 1}: a finite-order one in
    dimension at most 3 has order 1, 2, 3, 4 or 6, so A^12 = I, and odd
    order 1 or 3, so A^3 = I."""
    A = np.array(list(itertools.product((-1, 0, 1), repeat=k * k))).reshape(-1, k, k)
    traces = np.trace(A, axis1=1, axis2=2)
    for power, odd in ((12, False), (3, True)):
        finite = (np.linalg.matrix_power(A, power) == np.eye(k, dtype=int)).all(axis=(1, 2))
        assert set(traces[finite].tolist()) == ch.integer_trace_set(k, odd)


def test_trace_set_matches_cosine_sweep():
    assert ch.integer_trace_set(2, True) == frozenset(trace_sweep_oracle(99))


def test_trace_set_any_order_matches_pair_sweep():
    # all integer sums of two roots of unity with order <= 24
    vals = set()
    for n1 in range(1, 25):
        for a1 in range(n1):
            for n2 in range(1, 25):
                for a2 in range(n2):
                    z = (
                        complex(math.cos(2 * math.pi * a1 / n1), math.sin(2 * math.pi * a1 / n1))
                        + complex(math.cos(2 * math.pi * a2 / n2), math.sin(2 * math.pi * a2 / n2))
                    )
                    if abs(z.imag) < 1e-9 and abs(z.real - round(z.real)) < 1e-9:
                        vals.add(round(z.real))
    assert ch.integer_trace_set(2, False) == frozenset(vals)


def test_lefschetz_value_sets():
    assert ch.lefschetz_value_set((1, 0, 2, 0, 1)) == {1, 4}
    assert ch.lefschetz_value_set((1, 0, 1, 0, 1)) == {3}
    assert ch.lefschetz_value_set(()) == {0}
    assert ch.lefschetz_value_set((0, 0, 0)) == {0}
    # the Smith-Gysin quotient of the census vector (1, 0, 2, 2, 0, 1)
    assert ch.lefschetz_value_set((1, 0, 3, 0, 1)) == {2, 5}
    for dims in [(1, 0, ch.MAX_TRACE_DIM + 1), (1, -1)]:
        with pytest.raises(ValueError, match=f"between 0 and {ch.MAX_TRACE_DIM}"):
            ch.lefschetz_value_set(dims)
    assert len(ch.lefschetz_value_set((ch.MAX_TRACE_DIM,) * 2, odd_order=False)) == 4 * ch.MAX_TRACE_DIM + 1


def test_lefschetz_signs_alternate():
    # odd-degree contributions enter negatively
    assert ch.lefschetz_value_set((1, 1), odd_order=True) == {0}
    assert ch.lefschetz_value_set((0, 2), odd_order=True) == {-2, 1}


# --- divisibility obstruction ---------------------------------------------


def test_divisibility_examples():
    d3 = ch.QuotientIndex("cd", 3)
    assert ch.divisibility_obstruction(d3, {1, 4}) == frozenset()
    assert ch.divisibility_obstruction(d3, {3}) == {3}
    p5 = ch.QuotientIndex("zpxzp", 5)
    assert not ch.divisibility_obstruction(p5, {3})


def test_divisibility_zero_is_never_an_obstruction():
    assert ch.divisibility_obstruction(ch.QuotientIndex("cd", 9), {0}) == {0}


def test_quotient_index_parsing():
    qi = ch.QuotientIndex.parse("cd:3")
    assert qi.kind == "cd" and qi.value == 3
    with pytest.raises(ValueError):
        ch.QuotientIndex.parse("weird:3")
    digits = "9" * gfp.MAX_DIGITS
    assert ch.QuotientIndex.parse(f"cd: {digits} ").value == int(digits)
    with pytest.raises(ValueError, match=f"^index has more than {gfp.MAX_DIGITS} digits$"):
        ch.QuotientIndex.parse(f"cd:{digits}9")


# --- Borel feasibility -----------------------------------------------------


def test_borel():
    assert not any(ch.borel_feasible(10, (4,) * k) for k in range(4))
    assert ch.borel_feasible(10, (2, 4, 4))
    assert ch.borel_feasible(0, ())
    with pytest.raises(ValueError):
        ch.borel_feasible(10, (3, 4))
    with pytest.raises(ValueError):
        ch.borel_feasible(7, (4,))


# --- profile census ---------------------------------------------------------


def test_profile_census_budget6():
    profs = ch.enumerate_profiles(6, 5)
    assert profs == [
        ("S5",),
        ("S5", "S5"),
        ("S5", "S5", "S5"),
        ("CP1xS3",),
        ("S5", "CP1xS3"),
    ]


def test_profile_census_smaller_budgets():
    assert ch.enumerate_profiles(2, 5) == [("S5",)]
    assert ch.enumerate_profiles(4, 5) == [
        ("S5",),
        ("S5", "S5"),
        ("CP1xS3",),
    ]


def test_profile_census_never_two_even_generator_components():
    for budget in (6, 8, 10, 12):
        for p in ch.enumerate_profiles(budget, 5):
            assert p.count("CP1xS3") <= 1
            assert sum(sum(ch.COMPONENT_BETTI[c]) for c in p) <= budget
            for c in p:
                b = ch.COMPONENT_BETTI[c]
                assert b[0] == 1 and b[1] == 0
                assert all(b[i] == b[len(b) - 1 - i] for i in range(len(b)))


def census_oracle(budget, dim):
    """Multisets of admissible types (b0 = 1, b1 = 0, duality) of the given
    dimension, at most one CP1xS3, total Betti number within the budget,
    sorted by the count vector over the vocabulary read backwards."""
    vocab = list(ch.COMPONENT_BETTI)
    admissible = [
        t
        for t, b in ch.COMPONENT_BETTI.items()
        if len(b) - 1 == dim and b[0] == 1 and b[1] == 0 and b == b[::-1]
    ]
    out = []
    for k in range(1, budget + 1):
        for combo in itertools.combinations_with_replacement(admissible, k):
            cost = sum(sum(ch.COMPONENT_BETTI[t]) for t in combo)
            if combo.count("CP1xS3") <= 1 and cost <= budget:
                out.append(tuple(sorted(combo, key=vocab.index)))
    return sorted(out, key=lambda c: tuple(c.count(t) for t in reversed(vocab)))


@pytest.mark.parametrize("dim", [1, 3, 5, 7, 9])
def test_profile_census_matches_multiset_oracle(dim):
    for budget in range(2, 31):
        got = ch.enumerate_profiles(budget, dim)
        assert got == census_oracle(budget, dim), (budget, dim)


def test_profile_census_validation():
    with pytest.raises(ValueError):
        ch.enumerate_profiles(1, 5)
    with pytest.raises(ValueError):
        ch.enumerate_profiles(6, 4)
    with pytest.raises(ValueError, match="component dimension must be at least 1"):
        ch.enumerate_profiles(6, -3)
    for branch in (pl.lemma56_branch, pl.mod3_branch):
        with pytest.raises(ValueError, match=r"profile \('S5', 'X9'\) is not in the census"):
            branch(("S5", "X9"))
        with pytest.raises(ValueError, match=r"profile \('S5', 'S1'\) is not in the census"):
            branch(("S5", "S1"))


# --- geometric side conditions ----------------------------------------------


def test_frankel():
    assert not ch.frankel_compatible((7, 7), 13)
    assert ch.frankel_compatible((7, 5), 13)
    assert ch.frankel_compatible((5, 5, 5), 13)
    assert ch.frankel_compatible((13,), 13)


def test_mod_p_component_census():
    assert ch.mod_p_component_census(5) == [
        ("S5", (1, 0, 0, 0, 0, 1)),
        ("S2xS3", (1, 0, 1, 1, 0, 1)),
    ]
    assert ch.mod_p_component_census(3) == [("S5", (1, 0, 0, 0, 0, 1))]
    # the circle-times-4-sphere shape (b1=1, b2=0) never appears
    for budget in range(2, 12):
        for _, prof in ch.mod_p_component_census(budget):
            assert not (prof[1] > 0 and prof[2] == 0)


def test_davis_parity():
    assert ch.davis_parity((1, 0, 0, 0, 0, 1)) == 1
    assert ch.davis_parity((1, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1)) == 3
    with pytest.raises(ValueError):
        ch.davis_parity((1, 0, 1))
