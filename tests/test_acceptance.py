"""Acceptance gate: one test per criterion, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Timings are wall-clock on the machine running the suite and the
asserted budgets are the contract ones.
"""

import math
import random
import time
from fractions import Fraction
from itertools import permutations

from pcurv13 import bazaikin as bz
from pcurv13 import cohomology as ch
from pcurv13 import groups as gr
from pcurv13 import pipeline as pl
from pcurv13 import spectral as ss


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


# -------------------------------------------------------------------------
# 1. freeness reduction equals the full permutation quantification


def test_criterion_1_freeness_reduction():
    rng = random.Random(13)
    tuples = [tuple(rng.randint(-15, 15) for _ in range(5)) for _ in range(1000)]

    def oracle(q):
        if any(x % 2 == 0 for x in q):
            return False
        return all(
            math.gcd(q[s[0]] + q[s[1]], q[s[2]] + q[s[3]]) == 2
            for s in permutations(range(5))
        )

    t0 = time.perf_counter()
    mismatches = [q for q in tuples if bz.row(q)["free"] != oracle(q)]
    elapsed = time.perf_counter() - t0
    assert not mismatches
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, f"1000 random tuples, 15-pair check == 120-permutation oracle ({elapsed:.2f}s)")


# -------------------------------------------------------------------------
# 2. torsion-order formula and mod-3 profiles


def test_criterion_2_bazaikin_constants():
    rng = random.Random(29)

    def poly_oracle(q):
        coeffs = [1]
        for a in q:
            nxt = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] += c
                nxt[i] += c * a
            coeffs = nxt
        return coeffs[2]

    for _ in range(10_000):
        q = tuple(rng.randint(-50, 50) for _ in range(5))
        assert bz.e3(q) == poly_oracle(q)

    with_three = bz.mod_p_betti(Fraction(3), 3)
    assert sum(with_three) == 10
    assert tuple(i for i, d in enumerate(with_three) if d) == (
        0, 2, 4, 5, 6, 7, 8, 9, 11, 13,
    )
    without = bz.mod_p_betti(Fraction(5), 3)
    assert sum(without) == 6
    assert tuple(i for i, d in enumerate(without) if d) == (0, 2, 4, 9, 11, 13)
    _report(2, "e3 == polynomial oracle on 10000 tuples; mod-3 supports 10/6 as stated")


# -------------------------------------------------------------------------
# 3. Burnside family sweep


def test_criterion_3_burnside_suite():
    t0 = time.perf_counter()
    params = gr.enumerate_burnside_params(200)
    assert params, "no valid parameters found"
    for p in params:
        G = gr.build_burnside(p)
        assert G.order == p.m * p.n
        assert gr.all_sylow_cyclic(G)
        d = gr.burnside_class_d(p)
        core = gr.normal_cyclic_core(p)
        assert core.parent is G
        assert core.is_normal and core.is_cyclic
        assert core.index == d
        assert gr.is_maximal_cyclic(core)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report(3, f"{len(params)} parameter triples with mn <= 200 verified ({elapsed:.1f}s)")


# -------------------------------------------------------------------------
# 4. cyclic-Sylow / no-elementary-abelian equivalence on the odd catalog


def _odd_abelian_catalog(limit):
    def partitions(n):
        if n == 0:
            yield ()
            return
        for first in range(n, 0, -1):
            for rest in partitions(n - first):
                if not rest or rest[0] <= first:
                    yield (first,) + rest

    for order in range(1, limit + 1, 2):
        factor_parts = []
        rem = order
        p = 3
        while p * p <= rem:
            if rem % p == 0:
                a = 0
                while rem % p == 0:
                    rem //= p
                    a += 1
                factor_parts.append((p, a))
            p += 2
        if rem > 1:
            factor_parts.append((rem, 1))
        groups_per_prime = [
            [tuple(q**e for e in part) for part in partitions(a)]
            for q, a in factor_parts
        ]
        # cartesian product of per-prime partitions
        def combine(idx, acc):
            if idx == len(groups_per_prime):
                yield acc
                return
            for opt in groups_per_prime[idx]:
                yield from combine(idx + 1, acc + list(opt))

        for orders in combine(0, []):
            yield orders or [1]


def test_criterion_4_wolf_equivalence():
    t0 = time.perf_counter()
    catalog = []
    for p in gr.enumerate_burnside_params(200):
        if (p.m * p.n) % 2 == 1:
            catalog.append(gr.build_burnside(p))
    for orders in _odd_abelian_catalog(243):
        catalog.append(gr.build_standard("x".join(f"Z{k}" for k in orders)))
    exceptions = []
    for G in catalog:
        sylow_cyclic = gr.all_sylow_cyclic(G)
        no_rank2 = all(
            gr.p2_condition(G, q) for q in gr.prime_divisors(G.order)
        )
        if sylow_cyclic != no_rank2:
            exceptions.append(G.name)
    elapsed = time.perf_counter() - t0
    assert not exceptions
    _report(
        4,
        f"equivalence on {len(catalog)} odd-order groups, zero exceptions ({elapsed:.1f}s)",
    )


# -------------------------------------------------------------------------
# 5. order-27 classification facts


def test_criterion_5_order_27():
    five = {
        "Z27": gr.build_standard("Z27"),
        "Z9xZ3": gr.build_standard("Z9xZ3"),
        "Z3cubed": gr.build_standard("Z3xZ3xZ3"),
        "Z9semiZ3": gr.build_standard("Z9semiZ3"),
        "U33": gr.build_standard("U33"),
    }
    # pairwise non-isomorphic: is_isomorphic holds on the diagonal only
    assert all(gr.is_isomorphic(G, H) == (a == b) for a, G in five.items() for b, H in five.items())
    U = five["U33"]
    assert gr.normal_rank(U, 3) == 2
    assert all(int(o) == 3 for g, o in enumerate(U.element_order) if g != 0)
    _report(5, "five pairwise non-isomorphic order-27 groups; normal rank 2; exponent three")


# -------------------------------------------------------------------------
# 6. exact-sequence solver pins the quotient cohomology


def test_criterion_6_smith_gysin():
    s5 = ch.smith_gysin_solve((1, 0, 0, 0, 0, 1), None, 5)
    assert s5 == [(1, 0, 1, 0, 1)]
    assert ch.euler_char(s5[0]) == 3
    cp = ch.smith_gysin_solve((1, 0, 1, 1, 0, 1), None, 5)
    assert cp == [(1, 0, 2, 0, 1)]
    for bX in [(1, 0, 1), (1, 0, 0, 0, 1), (2, 0, 1), (1, 1, 1)]:
        if ch.euler_char(bX) != 0:
            assert ch.smith_gysin_solve(bX, None, len(bX) - 1) == []
    _report(6, "unique solutions (1,0,1,0,1) chi 3 and (1,0,2,0,1); empty when chi != 0")


# -------------------------------------------------------------------------
# 7. integer trace sets


def test_criterion_7_trace_sets():
    assert ch.integer_trace_set(2, True) == {-1, 2}
    sweep = {2}
    for n in range(1, 100, 2):
        for a in range(n):
            x = 2 * math.cos(2 * math.pi * a / n)
            if abs(x - round(x)) < 1e-9:
                sweep.add(round(x))
    assert ch.integer_trace_set(2, True) == frozenset(sweep)
    assert ch.lefschetz_value_set((1, 0, 2, 0, 1), True) == {1, 4}
    _report(7, "trace set {-1, 2} matches the odd-n sweep; Lefschetz set {1, 4}")


# -------------------------------------------------------------------------
# 8. spectral engine


def test_criterion_8_spectral_engine():
    dims = tuple(ss.base_dim(k) for k in range(8))
    assert (dims[6], dims[3], dims[2], dims[0]) == (7, 4, 3, 1)
    t0 = time.perf_counter()
    rep3 = ss.exhaustive_verdict(3)
    t3 = time.perf_counter() - t0
    assert rep3.verdict
    assert t3 < 60.0, f"p=3 took {t3:.1f}s"
    rep5 = ss.exhaustive_verdict(5)
    assert rep5.verdict
    # the minimizing choices replay to the same counts in the page engine
    assert ss.run_choice(3, rep3.minimizing_choice).total_degree(6) == rep3.min_deg6_survivors
    assert ss.run_choice(5, rep5.minimizing_choice).total_degree(6) == rep5.min_deg6_survivors
    _report(
        8,
        f"base dims 7/4/3/1; verdicts true for p=3 ({t3:.1f}s, "
        f"{rep3.choices_examined} choices) and p=5 ({rep5.choices_examined} choices)",
    )


# -------------------------------------------------------------------------
# 9. profile census


def test_criterion_9_profile_census():
    profs = ch.enumerate_profiles(6, 5)
    assert profs == [
        ("S5",),
        ("S5", "S5"),
        ("S5", "S5", "S5"),
        ("CP1xS3",),
        ("S5", "CP1xS3"),
    ]
    _report(9, "budget-6 census is exactly the five profiles, in order")


# -------------------------------------------------------------------------
# 10. pipeline


def test_criterion_10_pipeline():
    rat = pl.theorem_a_report(pl.ScenarioInput(2, pl.RATIONAL))
    assert set(rat.index_bound_set) == {27} | {d for d in range(1, 19) if 18 % d == 0}
    m3 = pl.theorem_a_report(pl.ScenarioInput(2, pl.MOD3))
    assert set(m3.index_bound_set) == {1, 2, 3, 6, 9}
    r3 = pl.theorem_a_report(pl.ScenarioInput(3, pl.RATIONAL))
    assert set(r3.index_bound_set) == {1, 2, 3}

    replayed = 0
    for rep in (rat, m3, r3):
        for step in rep.case_trace:
            assert pl.replay_step(step), step.name
            replayed += 1

    cp_live = [
        s
        for s in rat.case_trace
        if s.name == "cohomology.odd_divisor_candidates" and s.tag.endswith("CP1xS3")
    ]
    assert cp_live and all(s.output == [1] for s in cp_live)
    s5_live = [
        s
        for s in rat.case_trace
        if s.name == "cohomology.odd_divisor_candidates" and s.tag == "fixed-dim-5:S5"
    ]
    assert s5_live and all(s.output == [1, 3] for s in s5_live)
    _report(
        10,
        f"bounds {{27}} u div(18), {{1,2,3,6,9}}, {{1,2,3}}; {replayed} steps replayed; "
        "d=1 and d|3 recomputed live",
    )
