import gc
import json
import os
import re
import subprocess
import sys
import weakref
from itertools import combinations, permutations, product
from math import prod
from pathlib import Path

import numpy as np
import pytest

from pcurv13 import groups as gr
from pcurv13 import pipeline


# --- oracles -----------------------------------------------------------


def orders_by_multiplication(G):
    """Element orders recomputed by repeated table multiplication."""
    out = []
    for g in range(G.order):
        x, k = g, 1
        while x != 0:
            x = int(G.table[x, g])
            k += 1
        out.append(k)
    return out


def as_group(H):
    """The subgroup H as a validated table of its own, its elements
    renumbered in increasing order."""
    arr = np.array(H.elements)
    return gr.GroupTable(np.searchsorted(arr, H.parent.table[np.ix_(arr, arr)]))


def squaring_closure(table, seed):
    """Subgroup generated by seed: the set times itself, until it stops growing."""
    elems = {int(s) for s in seed} | {0}
    while True:
        arr = np.fromiter(elems, dtype=np.int64)
        new = set(np.unique(table[np.ix_(arr, arr)]).tolist()) - elems
        if not new:
            return tuple(sorted(elems))
        elems |= new


def sylow_subgroup(G, p):
    """A Sylow p-subgroup, grown from the identity: each step joins the
    lowest-index p-element whose squaring closure with the subgroup so far
    keeps a power of p as its order."""
    target = gr._p_part(G.order, p)
    p_elems = [g for g in range(1, G.order) if target % int(G.element_order[g]) == 0]
    elems = (0,)
    while len(elems) < target:
        grown = (squaring_closure(G.table, elems + (x,)) for x in p_elems if x not in elems)
        elems = next(H for H in grown if gr._p_part(len(H), p) == len(H))
    return gr.SubgroupHandle(G, elems)


def oracle_groups():
    """Every Burnside group of order <= 60 and the named catalog groups."""
    burnside = [gr.build_burnside(p) for p in gr.enumerate_burnside_params(60)]
    named = [gr.build_standard(n) for n in ("Z27", "U33", "Z9semiZ3", "S3", "Z16xU33")]
    return burnside + named


def full_associativity(G):
    n = G.order
    T = G.table
    return all(
        T[T[a, b], c] == T[a, T[b, c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def u33_matrix_table():
    """Order-27 unitriangular table built by actual matrix multiplication."""
    mats = []
    for x in range(3):
        for y in range(3):
            for z in range(3):
                mats.append(np.array([[1, x, z], [0, 1, y], [0, 0, 1]]))
    index = {m.tobytes(): i for i, m in enumerate(np.array(mats) % 3)}
    T = np.zeros((27, 27), dtype=np.int64)
    for i, A in enumerate(mats):
        for j, B in enumerate(mats):
            T[i, j] = index[((A @ B) % 3).tobytes()]
    return T


# --- table construction and validation ----------------------------------


def test_validation_catches_broken_tables():
    Z4 = gr.build_standard("Z4")
    bad = np.array(Z4.table)
    bad[2, 3] = 2  # duplicate in a row
    with pytest.raises(gr.GroupError):
        gr.GroupTable(bad)
    # associative magma with identity but shifted identity index
    with pytest.raises(gr.GroupError):
        gr.GroupTable([[1, 0], [0, 1]])


def test_cyclic_checks_the_cap_before_building():
    # the table of Z_{10^6} would take 8 TB: the cap must reject it first
    with pytest.raises(gr.GroupError, match="order 1000000 outside supported range 1..512"):
        gr.build_standard("Z1000000")


def test_lights_test_agrees_with_full_associativity():
    for G in [gr.build_standard("Z6"), gr.build_standard("S3"), gr.build_standard("Z3xS3")]:
        assert full_associativity(G)  # the validated tables really associate


def test_element_orders_cached_vs_recomputed():
    for G in oracle_groups():
        assert list(G.element_order) == orders_by_multiplication(G)
        assert all(G.order % int(o) == 0 for o in G.element_order)


def test_element_orders_fail_fast_on_a_magma():
    # 1*1 = 2 and 2*1 = 2: the powers of 1 never reach the identity
    magma = [[0, 1, 2], [1, 2, 0], [2, 2, 2]]
    with pytest.raises(gr.GroupError, match="never reaches the identity"):
        gr._element_orders(np.array(magma))


def test_closure_matches_squaring_oracle():
    rng = np.random.default_rng(0)
    for G in oracle_groups():
        seeds = [(g,) for g in range(G.order)]
        seeds += [tuple(rng.integers(0, G.order, size=k).tolist()) for k in (2, 3) for _ in range(4)]
        for seed in seeds:
            want = squaring_closure(G.table, seed)
            assert gr._closure_indices(G.table, seed) == want, (G.name, seed)
            assert gr._closure_indices(G.table, seed, cap=len(want)) == want, (G.name, seed)
            assert gr._closure_indices(G.table, seed, cap=len(want) - 1) is None, (G.name, seed)


def is_group_by_definition(T):
    """Brute-force reference: entries in range, a two-sided identity at 0,
    every row and column a permutation, and all n^3 associativity triples."""
    T = np.asarray(T)
    n = len(T)
    idx = np.arange(n)
    if T.min() < 0 or T.max() >= n:
        return False
    if not ((T[0] == idx).all() and (T[:, 0] == idx).all()):
        return False
    if not ((np.sort(T, axis=1) == idx).all() and (np.sort(T, axis=0) == idx[:, None]).all()):
        return False
    # T[T][a, b, c] = (ab)c and T[a, T[b, c]] = a(bc)
    return bool((T[T] == T[idx[:, None, None], T[None, :, :]]).all())


def accepted(T):
    try:
        gr.GroupTable(T)
    except gr.GroupError:
        return False
    return True


def bordered_tables(n):
    """Every n x n table over 0..n-1 whose row 0 and column 0 are the identity."""
    for interior in product(range(n), repeat=(n - 1) ** 2):
        T = np.empty((n, n), dtype=np.int64)
        T[0] = T[:, 0] = np.arange(n)
        T[1:, 1:] = np.reshape(interior, (n - 1, n - 1))
        yield T


@pytest.mark.parametrize("n, tables", [(2, 2), (3, 81)])
def test_validation_accepts_exactly_the_groups_among_bordered_tables(n, tables):
    verdicts = [(accepted(T), is_group_by_definition(T)) for T in bordered_tables(n)]
    assert len(verdicts) == tables
    assert all(got == want for got, want in verdicts)
    assert sum(got for got, _ in verdicts) == 1  # Z_n, the only group of order n


def relabellings(T):
    """Every table of the same group with the identity kept at 0."""
    n = len(T)
    out = set()
    for rest in permutations(range(1, n)):
        perm = np.array((0, *rest))
        inv = np.argsort(perm)
        out.add(perm[T[np.ix_(inv, inv)]].tobytes())
    return out


@pytest.mark.slow
def test_validation_accepts_exactly_the_groups_of_order_4():
    got = set()
    for T in bordered_tables(4):
        ok = accepted(T)
        assert ok == is_group_by_definition(T), T
        if ok:
            got.add(T.tobytes())
    want = set()
    for name in ("Z4", "Z2xZ2"):
        want |= relabellings(np.asarray(gr.build_standard(name).table, dtype=np.int64))
    assert len(want) == 4  # three labellings of Z4 (by its involution), one of V4
    assert got == want


def test_every_single_cell_change_of_a_small_group_is_rejected():
    small = [G for G in oracle_groups() if G.order <= 8]
    small += [gr.build_standard(n) for n in ("Z2xZ2", "Z2xZ4", "Z2xZ2xZ2")]
    small.append(gr.GroupTable(gr._metacyclic_table(4, 2, 3)))  # dihedral of order 8
    for G in small:
        n = G.order
        for a, b, v in product(range(n), range(n), range(n)):
            if v == G.table[a, b]:
                continue
            T = np.array(G.table, dtype=np.int64)
            T[a, b] = v
            assert not is_group_by_definition(T)
            with pytest.raises(gr.GroupError):
                gr.GroupTable(T)


def test_inverse_is_where_the_row_meets_the_identity():
    for G in oracle_groups():
        assert list(G.inverse) == [int(np.argmax(G.table[g] == 0)) for g in range(G.order)]


def test_an_entry_that_would_wrap_under_int16_is_out_of_range():
    T = np.array(gr.build_standard("Z4").table, dtype=np.int64)
    T[1, 1] += 65536  # an int16 cast would wrap it back to the right entry, 2
    with pytest.raises(gr.GroupError, match="table entries out of range"):
        gr.GroupTable(T)



def test_a_non_group_fails_at_its_second_generator():
    # identity border and every other product 0: each new generator would
    # add one element, so the generating set would take n - 1 closures;
    # closures of 2 and then 3 elements are impossible in a group
    n = gr.ORDER_CAP
    T = np.zeros((n, n), dtype=np.int64)
    T[0] = T[:, 0] = np.arange(n)
    with pytest.raises(gr.GroupError, match="closures of 2 and 3 elements break Lagrange's theorem"):
        gr.GroupTable(T)


def generating_set_from_scratch(table):
    """The generating set with every closure rebuilt from 0 after each new
    generator, as it was before closures grew from the last one."""
    n = table.shape[0]
    gens, have = [], (0,)
    while len(have) < n:
        gens.append(next((i for i, h in enumerate(have) if i != h), len(have)))
        grown = gr._closure_indices(table, gens)
        if len(grown) % len(have):
            raise gr.GroupError(f"closures of {len(have)} and {len(grown)} elements break Lagrange's theorem")
        have = grown
    return tuple(gens)


def generating_set_outcome(find, table):
    try:
        return find(table)
    except gr.GroupError as exc:
        return str(exc)


def tables_built_from_a_name():
    """Every group that a test file here builds with build_standard("...")."""
    text = "".join(path.read_text() for path in Path(__file__).parent.glob("test_*.py"))
    out = []
    for name in sorted(set(re.findall(r'build_standard\("([^"]+)"\)', text))):
        try:
            out.append(gr.build_standard(name))
        except gr.GroupError:  # the names a test expects to be rejected
            continue
    return out


def test_generating_set_matches_the_from_scratch_closures():
    named = tables_built_from_a_name()
    assert len(named) >= 20  # the regex still finds the names
    for G in named + oracle_groups():
        assert gr._generating_set(G.table) == generating_set_from_scratch(G.table), G


def test_generating_set_rejects_a_lagrange_breaking_magma_as_before():
    # closures {0, 1} and then {0, 1, 2}
    T = np.array([[0, 1, 2], [1, 1, 0], [2, 0, 0]], dtype=np.int16)
    for find in (gr._generating_set, generating_set_from_scratch):
        with pytest.raises(gr.GroupError, match="closures of 2 and 3 elements break Lagrange's theorem"):
            find(T)


def test_generating_set_matches_the_from_scratch_closures_on_every_single_cell_change():
    for name in ("Z6", "S3", "Z2xZ4", "Z2xZ2xZ2"):
        G = gr.build_standard(name)
        n = G.order
        for a, b, v in product(range(1, n), range(1, n), range(n)):
            T = np.array(G.table)
            T[a, b] = v
            assert generating_set_outcome(gr._generating_set, T) == generating_set_outcome(
                generating_set_from_scratch, T
            ), (name, a, b, v)


def test_every_table_is_int16(tmp_path):
    assert gr.ORDER_CAP - 1 <= np.iinfo(np.int16).max  # every index fits
    G = gr.build_standard("Z3xS3")
    path = tmp_path / "g.grp"
    with open(path, "w", encoding="utf-8") as fh:
        gr.write_group_file(G, fh)
    tables = [
        G,
        gr.build_burnside(gr.BurnsideParams(7, 3, 2)),
        gr.read_group_file(path),
        as_group(sylow_subgroup(G, 3)),
        gr.GroupTable([[0, 1], [1, 0]]),
    ]
    assert [T.table.dtype for T in tables] == [np.int16] * len(tables)


# --- Burnside family ----------------------------------------------------


def test_burnside_7_3_2():
    params = gr.BurnsideParams(7, 3, 2)
    G = gr.build_burnside(params)
    assert G.order == 21
    assert set(orders_by_multiplication(G)) == {1, 3, 7}
    a, b = params.n, 1  # A = (1, 0) and B = (0, 1) at index i*n + j
    # defining relations hold: a^7 = 1, b^3 = 1, b a b^-1 = a^2
    assert int(G.element_order[a]) == 7 and int(G.element_order[b]) == 3
    conj = G.table.item(G.table.item(b, a), int(G.inverse[b]))
    assert conj == G.table.item(a, a)


def test_burnside_n1_collapses_to_cyclic():
    G = gr.build_burnside(gr.BurnsideParams(5, 1, 1))
    assert G.order == 5
    assert gr.is_isomorphic(G, gr.build_standard("Z5"))


def test_burnside_rejects_gcd_failure():
    with pytest.raises(gr.GroupError, match="gcd"):
        gr.build_burnside(gr.BurnsideParams(4, 2, 3))


def test_class_d_examples():
    assert gr.burnside_class_d(gr.BurnsideParams(7, 3, 2)) == 3
    assert gr.burnside_class_d(gr.BurnsideParams(9, 1, 1)) == 1
    assert gr.burnside_class_d(gr.BurnsideParams(11, 5, 3)) == 5


def test_normal_cyclic_core_examples():
    core = gr.normal_cyclic_core(gr.BurnsideParams(7, 3, 2))
    assert core.order == 7 and core.index == 3
    assert core.is_normal and core.is_cyclic
    assert gr.is_maximal_cyclic(core)

    whole = gr.normal_cyclic_core(gr.BurnsideParams(5, 1, 1))
    assert whole.index == 1 and whole.is_cyclic

    core11 = gr.normal_cyclic_core(gr.BurnsideParams(11, 5, 3))
    assert core11.order == 11 and core11.index == 5 and core11.is_normal


def test_build_burnside_returns_the_live_table():
    params = gr.BurnsideParams(7, 3, 2)
    G = gr.build_burnside(params)
    assert gr.build_burnside(gr.BurnsideParams(7, 3, 2)) is G
    assert gr.normal_cyclic_core(params).parent is G
    ref = weakref.ref(G)
    del G
    gc.collect()
    assert ref() is None
    assert gr.build_burnside(params).name == "B(7,3,2)"


def test_generators_kept_from_validation_generate_the_group():
    for G in oracle_groups():
        assert G.generators == gr._generating_set(G.table)
        assert gr._closure_indices(G.table, G.generators) == tuple(range(G.order))


def test_class_d_divides_n():
    for p in gr.enumerate_burnside_params(80):
        assert p.n % gr.burnside_class_d(p) == 0


def test_invalid_burnside_parameters_raise_with_their_failing_conditions():
    line = "invalid Burnside parameters BurnsideParams(m=7, n=3, r=3): r^n = 6 != 1 mod m"
    for build in (gr.burnside_class_d, gr.normal_cyclic_core, gr.build_burnside):
        with pytest.raises(gr.GroupError) as exc:
            build(gr.BurnsideParams(7, 3, 3))
        assert str(exc.value) == line


def test_normal_cyclic_core_is_the_closure_of_a_and_b_to_the_d():
    """The core read off the presentation against the walk it replaced:
    A = (1, 0) and B = (0, 1) at index i*n + j, B powered d times by table
    lookups, the pair closed by a frontier walk, and d found as the least
    k with r^k = 1 mod m, for every valid triple up to the order cap."""
    triples = gr.enumerate_burnside_params(gr.ORDER_CAP)
    assert len(triples) == 2168
    for p in triples:
        G = gr.build_burnside(p)
        d = next(k for k in range(1, p.n + 1) if pow(p.r, k, p.m) == 1 % p.m)
        assert gr.burnside_class_d(p) == d, p
        a, b, bd = 1 % p.m * p.n, 1 % p.n, 0
        for _ in range(d):
            bd = G.table.item(bd, b)
        assert gr.normal_cyclic_core(p).elements == gr.closure(G, (a, bd)).elements, p


def metacyclic_by_entries(m, n, r):
    """Table of (i, j)(i', j') = (i + r^j i', j + j'), one entry at a time,
    with (i, j) at index i*n + j."""
    N = m * n
    T = np.zeros((N, N), dtype=np.int64)
    for a in range(N):
        i, j = divmod(a, n)
        for b in range(N):
            i2, j2 = divmod(b, n)
            T[a, b] = ((i + pow(r, j, m) * i2) % m) * n + (j + j2) % n
    return T


def test_metacyclic_table_matches_entry_by_entry_oracle():
    triples = [(p.m, p.n, p.r) for p in gr.enumerate_burnside_params(60)]
    triples += [(61, 5, 20), (95, 4, 94), gr._S3, gr._Z9_SEMI_Z3]
    for t in triples:
        assert np.array_equal(gr._metacyclic_table(*t), metacyclic_by_entries(*t)), t


def test_enumerate_burnside_params_matches_brute_force():
    want = [
        gr.BurnsideParams(m, n, r)
        for m in range(1, 201)
        for n in range(1, 200 // m + 1)
        for r in range(1, m + 1)
        if not gr.BurnsideParams(m, n, r).failing_conditions()
    ]
    assert len(want) == 688
    assert gr.enumerate_burnside_params(200) == want


# --- Sylow machinery ----------------------------------------------------


def test_all_sylow_cyclic():
    assert gr.all_sylow_cyclic(gr.build_burnside(gr.BurnsideParams(7, 3, 2)))
    assert not gr.all_sylow_cyclic(gr.build_standard("Z3xZ3"))
    assert gr.all_sylow_cyclic(gr.build_standard("Z45"))


def test_all_sylow_cyclic_matches_every_sylow_subgroup():
    """Against building each Sylow subgroup and testing it for cyclicity,
    on the oracle groups, the Burnside family to order 120 and some groups
    with a non-cyclic Sylow subgroup."""
    family = [gr.build_burnside(p) for p in gr.enumerate_burnside_params(120)]
    others = [gr.build_standard(n) for n in ("Z3xZ3", "Z9xZ3", "Z5xZ3xZ3", "Z3xZ3xZ3")]
    verdicts = []
    for G in oracle_groups() + family + others:
        expect = all(sylow_subgroup(G, p).is_cyclic for p in gr.prime_divisors(G.order))
        assert gr.all_sylow_cyclic(G) == expect, G.name
        verdicts.append(expect)
    assert True in verdicts and False in verdicts


def test_p2_condition():
    assert not gr.p2_condition(gr.build_standard("Z9semiZ3"), 3)
    assert gr.p2_condition(gr.build_standard("Z27"), 3)
    assert not gr.p2_condition(gr.build_standard("U33"), 3)


def test_p2_matches_exhaustive_commuting_pair_search(fact_groups):
    """Z_p x Z_p is two commuting elements of order p, neither a power of
    the other; every pair is tried, at each prime whose square divides |G|."""
    verdicts = set()
    for G in fact_groups:
        T = G.table.tolist()
        for p in gr.prime_divisors(G.order):
            if G.order % (p * p):
                continue
            spans = {x: G.cyclic_span(x) for x in range(1, G.order) if G.element_order[x] == p}
            found = any(T[x][y] == T[y][x] and y not in spans[x] for x, y in combinations(spans, 2))
            assert gr.p2_condition(G, p) == (not found), (G.name, p)
            verdicts.add((p, found))
    assert {(2, True), (2, False), (3, True), (3, False)} <= verdicts


def test_two_p_condition():
    assert not gr.two_p_condition(gr.build_standard("S3"))
    assert gr.two_p_condition(gr.build_standard("Z4"))
    assert gr.two_p_condition(gr.build_burnside(gr.BurnsideParams(7, 3, 2)))


# --- subgroup patterns ---------------------------------------------------


def test_contains_copy_examples():
    assert gr.contains_copy(gr.build_standard("Z9xZ3"), "ZpxZp", p=3)
    assert not gr.contains_copy(gr.build_standard("Z27"), "ZpxZp", p=3)
    assert not gr.contains_copy(gr.build_standard("U33"), "Z9xZ3")
    assert all(
        int(o) in (1, 3) for o in gr.build_standard("U33").element_order
    )  # exponent three
    assert gr.contains_copy(gr.build_standard("Z9xZ9"), "Z9xZ3")
    assert gr.contains_copy(gr.build_standard("Z3xZ3xZ3xZ3"), "Z3cubed")
    assert not gr.contains_copy(gr.build_standard("Z9xZ3"), "Z3cubed")
    assert gr.contains_copy(gr.build_standard("Z3xU33"), "U33")
    assert gr.contains_copy(gr.build_standard("Z3xZ9semiZ3"), "Z9semiZ3")
    assert not gr.contains_copy(gr.build_standard("Z3xU33"), "Z9semiZ3")
    assert not gr.contains_copy(gr.build_standard("Z9semiZ3"), "Z9xZ3")


# the five groups of order 27, under the names of gr.PATTERNS where they
# are patterns
ORDER_27 = {
    label: gr.build_standard(name)
    for label, name in [
        ("Z27", "Z27"), ("Z9xZ3", "Z9xZ3"), ("Z3cubed", "Z3xZ3xZ3"),
        ("Z9semiZ3", "Z9semiZ3"), ("U33", "U33"),
    ]
}


def order_27_label(H):
    """The label of the one group in ORDER_27 that H is isomorphic to."""
    labels = [label for label, G in ORDER_27.items() if gr.is_isomorphic(H, G)]
    assert len(labels) == 1, labels
    return labels[0]


def pattern_oracle(G):
    """The patterns G contains at p = 3, by brute force.

    Every 3-subgroup is conjugate into one Sylow 3-subgroup P, and every
    pattern but Z3cubed is generated by two elements, so closing every pair
    of nonidentity elements of P, then every triple of its order-3
    elements, meets a copy of each pattern G contains.
    """
    P = sylow_subgroup(G, 3).elements
    found = set()
    seen = set()

    def close(seed):
        sub = gr._closure_indices(G.table, seed, cap=27)
        if sub is None or sub in seen:
            return
        seen.add(sub)
        if len(sub) == 27:
            found.add(order_27_label(as_group(gr.SubgroupHandle(G, sub))))
        elif len(sub) == 9 and all(int(G.element_order[g]) in (1, 3) for g in sub):
            found.add("ZpxZp")

    for pair in combinations(P[1:], 2):
        close(pair)
    threes = [g for g in P if int(G.element_order[g]) == 3]
    for triple in combinations(threes, 3):
        if "Z3cubed" in found:
            break
        close(triple)
    return found


def test_contains_copy_matches_brute_force_oracle():
    names = pipeline._THREE_GROUP_CATALOG + ("S3xU33", "Z16xU33", "Z27xZ9")
    for name in names:
        G = gr.build_standard(name)
        found = pattern_oracle(G)
        got = {pat for pat in gr.PATTERNS if gr.contains_copy(G, pat, p=3)}
        assert got == found & set(gr.PATTERNS), name
        assert gr.p2_condition(G, 3) == ("ZpxZp" not in found), name


def nonabelian27_in_one_sylow(G, label):
    """The order-27 search with its pairs taken from one built Sylow
    3-subgroup, which holds a conjugate of every 3-subgroup, and the
    closure's exponent checked."""
    if G.order % 27 or G.is_abelian:
        return False
    exponent = 9 if label == "Z9semiZ3" else 3
    P = sylow_subgroup(G, 3).elements
    xs = [g for g in P if int(G.element_order[g]) == exponent]
    ys = [g for g in P if int(G.element_order[g]) == 3]
    for x, y in product(xs, ys):
        if G.table.item(x, y) == G.table.item(y, x):
            continue
        sub = gr._closure_indices(G.table, (x, y), cap=27)
        if sub is not None and len(sub) == 27 and max(int(G.element_order[g]) for g in sub) == exponent:
            return True
    return False


def test_nonabelian27_search_over_g_matches_the_search_in_one_sylow_subgroup():
    family = [gr.build_burnside(p) for p in gr.enumerate_burnside_params(gr.ORDER_CAP) if p.m * p.n % 27 == 0]
    named = [G for G in map(gr.build_standard, NAMED_IN_TESTS) if G.order % 27 == 0]
    verdicts = set()
    for G in family + named:
        for label in ("U33", "Z9semiZ3"):
            want = nonabelian27_in_one_sylow(G, label)
            assert gr.contains_copy(G, label) == want, (G.name, label)
            verdicts.add((label, want))
    assert verdicts == {("U33", True), ("U33", False), ("Z9semiZ3", True), ("Z9semiZ3", False)}


def test_order_81_fact():
    # every non-cyclic abelian group of order 81 contains one of the two
    # rank patterns
    partitions4 = [[81], [27, 3], [9, 9], [9, 3, 3], [3, 3, 3, 3]]
    for part in partitions4:
        G = gr.build_standard("x".join(f"Z{k}" for k in part))
        assert G.order == 81
        if len(part) == 1:
            continue
        assert gr.contains_copy(G, "Z9xZ3") or gr.contains_copy(G, "Z3cubed")


def test_three_group_classification_instance():
    catalog = {
        "Z3": gr.build_standard("Z3"),
        "Z9": gr.build_standard("Z9"),
        "Z27": gr.build_standard("Z27"),
        "Z3xZ3": gr.build_standard("Z3xZ3"),
        "Z9xZ3": gr.build_standard("Z9xZ3"),
        "Z3cubed": gr.build_standard("Z3xZ3xZ3"),
        "Z9xZ9": gr.build_standard("Z9xZ9"),
        "Z27xZ3": gr.build_standard("Z27xZ3"),
        "U33": gr.build_standard("U33"),
        "Z9semiZ3": gr.build_standard("Z9semiZ3"),
        "Z3xU33": gr.build_standard("Z3xU33"),
    }
    small = [gr.build_standard("Z3xZ3"), gr.build_standard("Z9semiZ3")]
    for name, G in catalog.items():
        hyp = (
            gr.contains_copy(G, "ZpxZp", p=3)
            and not gr.contains_copy(G, "Z9xZ3")
            and not gr.contains_copy(G, "Z3cubed")
            and not gr.contains_copy(G, "U33")
        )
        if hyp:
            assert any(gr.is_isomorphic(G, H) for H in small), name


# --- normal rank, complements, indices -----------------------------------


def test_normal_rank():
    assert gr.normal_rank(gr.build_standard("Z27"), 3) == 1
    assert gr.normal_rank(gr.build_standard("Z3xZ3"), 3) == 2
    assert gr.normal_rank(gr.build_standard("U33"), 3) == 2
    assert gr.normal_rank(gr.build_standard("Z9semiZ3"), 3) == 2
    assert gr.normal_rank(gr.build_standard("Z3xZ3xZ3"), 3) == 3
    with pytest.raises(gr.GroupError):
        gr.normal_rank(gr.build_standard("Z6"), 3)


def test_normal_rank_nonabelian_matches_subgroup_scan():
    # brute oracle: scan all subsets realized as subgroups via closures of
    # up to three commuting order-3 elements, keep elementary abelian
    # normal ones
    for G in [gr.build_standard("U33"), gr.build_standard("Z9semiZ3")]:
        threes = [g for g in range(1, G.order) if int(G.element_order[g]) == 3]
        best = 0
        seen = set()
        import itertools

        for k in (1, 2, 3):
            for combo in itertools.combinations(threes, k):
                if any(G.table.item(a, b) != G.table.item(b, a) for a in combo for b in combo):
                    continue
                H = gr.closure(G, combo)
                if H.elements in seen:
                    continue
                seen.add(H.elements)
                if all(int(G.element_order[g]) in (1, 3) for g in H.elements):
                    if H.is_normal:
                        size = H.order
                        rank = 0
                        while 3**rank < size:
                            rank += 1
                        best = max(best, rank)
        assert gr.normal_rank(G, 3) == best


def normal_rank_by_walk(G, p):
    """Every elementary abelian subgroup, level by level from the order-p
    ones, each grown by a commuting element of order p; the rank of the
    last level that holds a normal one, by conjugation with every element."""
    T = G.table.tolist()
    p_elems = [g for g in range(1, G.order) if G.element_order[g] == p]
    level = {G.cyclic_span(x) for x in p_elems}
    seen = set(level)
    best, k = 0, 1
    while level:
        if any(normal_by_every_element(G, sorted(S)) for S in level):
            best = k
        nxt = set()
        for S in level:
            for z in p_elems:
                if z not in S and all(T[z][s] == T[s][z] for s in S):
                    bigger = frozenset(T[s][t] for s in S for t in G.cyclic_span(z))
                    if bigger not in seen:
                        seen.add(bigger)
                        nxt.add(bigger)
        level = nxt
        k += 1
    return best


def d8_times_z2(k):
    """Dihedral group of order 8 times k copies of Z2."""
    return gr._product_table([gr._metacyclic_table(4, 2, 3)] + [gr._metacyclic_table(2, 1, 1)] * k)


def extraspecial_table(k):
    """The extraspecial group 2^(1+2k) on pairs (v, c), v in F_2^(2k) and c in
    F_2, at index 2v + c, with (v, c)(w, d) = (v + w, c + d + b(v, w)) for
    b(v, w) = v_1 w_2 + v_3 w_4 + ...  Commutators give the non-degenerate
    form b(v, w) + b(w, v), so the centre is {(0, 0), (0, 1)}."""
    V = np.arange(4**k)
    bits = (V[:, None] >> np.arange(2 * k)) & 1
    b = (bits[:, None, 0::2] * bits[None, :, 1::2]).sum(axis=-1) % 2
    T = np.zeros((2 * 4**k,) * 2, dtype=np.int64)
    for c, d in product((0, 1), repeat=2):
        T[c::2, d::2] = (V[:, None] ^ V[None, :]) * 2 + (c + d + b) % 2
    return T


def test_normal_rank_matches_the_walk_on_the_oracle_groups():
    for G in oracle_groups():
        primes = gr.prime_divisors(G.order) or [2]
        if len(primes) > 1:
            with pytest.raises(gr.GroupError):
                gr.normal_rank(G, primes[0])
        else:
            assert gr.normal_rank(G, primes[0]) == normal_rank_by_walk(G, primes[0]), G.name


@pytest.mark.parametrize(
    "table, p, rank",
    [
        # holds Z2xZ2, but no such subgroup is normal
        (gr._metacyclic_table(8, 2, 7), 2, 1),
        (d8_times_z2(0), 2, 2),
        (d8_times_z2(1), 2, 3),
        (d8_times_z2(2), 2, 4),
        (d8_times_z2(3), 2, 5),
        (extraspecial_table(2), 2, 3),
        (gr.build_standard("Z3xU33").table, 3, 3),
        (gr.build_standard("Z9xU33").table, 3, 3),
        (gr.build_standard("U33xZ3xZ3").table, 3, 4),
        (gr.build_standard("Z9semiZ3xZ3xZ3").table, 3, 4),
    ],
    ids=["D16", "D8", "D8xZ2", "D8xZ2^2", "D8xZ2^3", "2^1+4", "Z3xU33", "Z9xU33", "U33xZ3xZ3", "Z9semiZ3xZ3xZ3"],
)
def test_normal_rank_matches_the_walk(table, p, rank):
    G = gr.GroupTable(table)
    assert gr.normal_rank(G, p) == normal_rank_by_walk(G, p) == rank


@pytest.mark.parametrize(
    "k, build, rank", [(6, d8_times_z2, 8), (4, extraspecial_table, 5)], ids=["D8xZ2^6", "2^1+8"]
)
def test_group_analyze_finds_the_normal_rank_of_order_512_in_time(k, build, rank, tmp_path):
    # the walk over every elementary abelian subgroup ran for minutes on
    # these; the timeout turns such a regression into a failure
    path = tmp_path / "g.grp"
    with open(path, "w", encoding="utf-8") as fh:
        gr.write_group_file(gr.GroupTable(build(k)), fh)
    env = dict(os.environ, PYTHONPATH=str(Path(gr.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "pcurv13", "group", "analyze", "--in", str(path), "--json"],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert (data["order"], data["normal_rank"]) == (512, rank)


def test_normal_rank_builds_two_subgroups_on_d8xz2_6(monkeypatch):
    """One cyclic_span call per subgroup the search builds.  Above E0 = Z2^7
    it builds two; grown from the identity it builds about a million, so the
    count stops the search at a small bound instead of a clock."""
    G = gr.GroupTable(d8_times_z2(6))
    calls = []
    cyclic_span = gr.GroupTable.cyclic_span

    def counted(self, g):
        calls.append(g)
        assert len(calls) <= 20, "normal_rank built more than 20 subgroups"
        return cyclic_span(self, g)

    monkeypatch.setattr(gr.GroupTable, "cyclic_span", counted)
    assert gr.normal_rank(G, 2) == 8
    assert len(calls) == 2


def normal_by_every_element(G, elems):
    """g h g^-1 in H for every g in G and h in H."""
    arr = np.array(elems)
    conj = G.table[G.table[:, arr], G.inverse[:, None]]
    return bool(np.isin(conj, arr).all())


def test_is_normal_set_matches_conjugation_by_every_element():
    non_normal = 0
    for G in oracle_groups():
        # one generator per cyclic subgroup; closing each pair of them gives
        # the closure of every pair of elements
        spans = {}
        for g in range(G.order):
            spans.setdefault(tuple(sorted(G.cyclic_span(g))), g)
        subgroups = set(spans)
        reps = list(spans.values())
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                subgroups.add(gr._closure_indices(G.table, (a, b)))
        for H in subgroups:
            want = normal_by_every_element(G, H)
            assert gr._is_normal_set(G, H) == want, (G.name, H)
            non_normal += not want
    assert non_normal > 0
    S3 = gr.build_standard("S3")
    assert not gr._is_normal_set(S3, (0, 1))
    assert gr._is_normal_set(S3, (0, 2, 4))


def test_min_cyclic_index():
    assert gr.min_cyclic_index(gr.build_standard("Z12")) == 1
    assert gr.min_cyclic_index(gr.build_burnside(gr.BurnsideParams(7, 3, 2))) == 3
    assert gr.min_cyclic_index(gr.build_standard("Z3xZ3")) == 3


def test_min_cyclic_index_times_max_order():
    for G in [gr.build_standard("Z12"), gr.build_standard("S3"), gr.build_standard("U33"), gr.build_standard("Z9xZ3")]:
        assert gr.min_cyclic_index(G) * int(G.element_order.max()) == G.order


# --- splitting -----------------------------------------------------------


def test_davis_decomposition():
    assert gr.davis_decomposition(gr.build_standard("Z12")) == 4
    assert gr.davis_decomposition(gr.build_standard("Z6xBurnside(7,3,2)")) == 2
    assert gr.davis_decomposition(gr.build_standard("S3")) is None
    assert gr.davis_decomposition(gr.build_standard("Z9")) == 1
    assert gr.davis_decomposition(gr.build_standard("Z2xZ2xZ3")) is None


# --- centre and Sylow facts against built subgroups --------------------------

# every group the tests build by name
NAMED_IN_TESTS = (
    "B(7,3,2)", "S3", "S3xU33", "U33", "U33xZ3xZ3", "Z12", "Z15",
    "Z16xU33", "Z27", "Z27xZ3", "Z27xZ9", "Z2xZ2", "Z2xZ2xZ2", "Z2xZ2xZ3", "Z2xZ4", "Z3", "Z3xS3",
    "Z3xU33", "Z3xZ3", "Z3xZ3xZ3", "Z3xZ3xZ3xZ3", "Z3xZ9", "Z3xZ9semiZ3", "Z4", "Z45",
    "Z5", "Z5xZ3xZ3", "Z6", "Z6xBurnside(7,3,2)", "Z81", "Z9", "Z9semiZ3",
    "Z9semiZ3xZ3xZ3", "Z9xU33", "Z9xZ3", "Z9xZ3xZ3", "Z9xZ9",
)


@pytest.fixture(scope="module")
def fact_groups():
    """The named groups and every Burnside group of order <= 100, among them
    S3 and B(5,4,2), whose Sylow 2-subgroup is cyclic but not normal."""
    named = [gr.build_standard(name) for name in NAMED_IN_TESTS]
    return named + [gr.build_burnside(p) for p in gr.enumerate_burnside_params(100)]


def central_by_element(G):
    """Elements whose row equals their column, compared one element at a time."""
    return tuple(g for g in range(G.order) if (G.table[g, :] == G.table[:, g]).all())


def test_centre_facts_match_per_element_oracle(fact_groups):
    for G in fact_groups:
        centre = central_by_element(G)
        assert tuple(np.flatnonzero(G.central).tolist()) == centre, G.name
        assert G.is_abelian == (len(centre) == G.order), G.name
        involutions = set(np.flatnonzero(G.element_order == 2).tolist())
        assert gr.two_p_condition(G) == (involutions <= set(centre)), G.name


def odd_elements_form_a_complement(G, P):
    """Whether the odd-order elements are closed and |G| / |P| of them: a
    subgroup meeting the Sylow 2-subgroup P trivially, of complementary order."""
    odd = np.flatnonzero(G.element_order % 2)
    return len(odd) * P.order == G.order and bool(np.isin(G.table[np.ix_(odd, odd)], odd).all())


def davis_by_sylow(G):
    """2^a of davis_decomposition, read off a built Sylow 2-subgroup P:
    P cyclic and normal, and the odd-order elements a complement, which
    is then normal as well, so that G is their direct product."""
    P = sylow_subgroup(G, 2)
    if not (P.is_cyclic and P.is_normal and odd_elements_form_a_complement(G, P)):
        return None
    return P.order


def test_sylow_facts_match_built_sylow_subgroups(fact_groups):
    """A Sylow p-subgroup of order p^a is cyclic iff some element has order
    p^a, and normal iff G has exactly p^a elements of p-power order."""
    for G in fact_groups:
        for p in gr.prime_divisors(G.order):
            P = sylow_subgroup(G, p)
            assert gr.sylow_is_cyclic(G, p) == P.is_cyclic, (G.name, p)
            p_power = int((P.order % G.element_order == 0).sum())
            assert (p_power == P.order) == P.is_normal, (G.name, p)
        assert gr.davis_decomposition(G) == davis_by_sylow(G), G.name
    # a 2-complement and a Sylow 2-subgroup that is cyclic but not normal,
    # or normal but not cyclic
    for name, cyclic, normal in (("S3", True, False), ("B(5,4,2)", True, False), ("Z2xZ2xZ3", False, True)):
        G = gr.build_standard(name)
        P = sylow_subgroup(G, 2)
        assert odd_elements_form_a_complement(G, P) and (P.is_cyclic, P.is_normal) == (cyclic, normal)
        assert gr.davis_decomposition(G) is None


def test_p_part_matches_prime_divisors():
    for n in range(1, 1025):
        primes = gr.prime_divisors(n)
        parts = [gr._p_part(n, p) for p in primes]
        assert prod(parts) == n
        for p, part in zip(primes, parts):
            assert gr.prime_divisors(part) == [p] and (n // part) % p, (n, p)
        assert all(gr._p_part(n, q) == 1 for q in (2, 3, 5, 7, 11) if q not in primes)


# --- standard catalog, files, isomorphism ---------------------------------


def test_u33_against_matrix_oracle():
    G = gr.build_standard("U33")
    oracle = u33_matrix_table()
    # identical tables: both enumerate (x, y, z) lexicographically
    assert np.array_equal(G.table, oracle)
    assert len(np.flatnonzero(G.central)) == 3


def test_z9_semi_z3_structure():
    G = gr.build_standard("Z9semiZ3")
    assert G.order == 27 and not G.is_abelian
    # the order-9 generator spans a normal subgroup
    nine = next(g for g in range(G.order) if int(G.element_order[g]) == 9)
    H = gr.SubgroupHandle(G, tuple(sorted(G.cyclic_span(nine))))
    assert H.order == 9 and H.is_normal


def product_by_digits(factors):
    """Direct product table entry by entry in mixed radix: the element
    (g1, ..., gk) has index ravel_multi_index((g1, ..., gk), orders)."""
    orders = tuple(len(T) for T in factors)
    digits = np.unravel_index(np.arange(prod(orders)), orders)
    return np.ravel_multi_index(
        tuple(T[np.ix_(d, d)] for T, d in zip(factors, digits)), orders
    )


def catalog_factor(term):
    """Raw table of a catalog term from the entry-by-entry builders above,
    which share no code with build_standard."""
    if term == "U33":
        return u33_matrix_table()
    if term == "Z9semiZ3":
        return metacyclic_by_entries(9, 3, 4)
    k = int(term[1:])
    return np.array([[(i + j) % k for j in range(k)] for i in range(k)])


@pytest.mark.parametrize("name", [*pipeline._THREE_GROUP_CATALOG, "Z16xU33"])
def test_product_tables_match_mixed_radix_oracle(name):
    terms = name.split("x")
    want = product_by_digits([catalog_factor(t) for t in terms])
    G = gr.build_standard(name)
    assert np.array_equal(G.table, want) and G.name == name


def test_build_standard_products():
    G = gr.build_standard("Z3xZ3xZ3")
    assert G.order == 27 and G.is_abelian and G.exponent == 3
    B = gr.build_standard("Burnside(7,3,2)")
    assert B.order == 21
    with pytest.raises(gr.GroupError):
        gr.build_standard("Q8")


def test_group_file_roundtrip(tmp_path):
    G = gr.build_burnside(gr.BurnsideParams(7, 3, 2))
    path = tmp_path / "b.grp"
    with open(path, "w", encoding="utf-8") as fh:
        gr.write_group_file(G, fh)
    H = gr.read_group_file(path)
    assert np.array_equal(G.table, H.table)


def test_is_isomorphic_relabelled():
    rng = np.random.default_rng(7)
    G = gr.build_standard("U33")
    perm = np.concatenate([[0], 1 + rng.permutation(G.order - 1)])
    inv = np.argsort(perm)
    relabelled = perm[G.table[np.ix_(inv, inv)]]
    H = gr.GroupTable(relabelled)
    assert gr.is_isomorphic(G, H)
    assert not gr.is_isomorphic(G, gr.build_standard("Z9semiZ3"))
    assert not gr.is_isomorphic(G, gr.build_standard("Z3xZ3xZ3"))
    assert gr.is_isomorphic(gr.build_standard("Z3xZ9"), gr.build_standard("Z9xZ3"))


def test_is_isomorphic_past_every_prefilter():
    # same order profile, non-abelian, centres of one size: only the
    # generator-mapping search tells these pairs apart
    pairs = [((4, 8, 3), (8, 4, 5)), ((8, 4, 3), (8, 4, 7)), ((16, 4, 7), (16, 4, 15))]
    rng = np.random.default_rng(11)
    for a, b in pairs:
        G, H = gr.GroupTable(gr._metacyclic_table(*a)), gr.GroupTable(gr._metacyclic_table(*b))
        assert G.order_profile() == H.order_profile()
        assert not G.is_abelian and not H.is_abelian
        assert np.count_nonzero(G.central) == np.count_nonzero(H.central)
        assert not gr.is_isomorphic(G, H) and not gr.is_isomorphic(H, G)
        perm = np.concatenate([[0], 1 + rng.permutation(G.order - 1)])
        inv = np.argsort(perm)
        assert gr.is_isomorphic(G, gr.GroupTable(perm[G.table[np.ix_(inv, inv)]]))
