import numpy as np
import pytest

from pcurv13 import groups as gr


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


def squaring_closure(table, seed):
    """Subgroup generated by seed: the set times itself, until it stops growing."""
    elems = {int(s) for s in seed} | {0}
    while True:
        arr = np.fromiter(elems, dtype=np.int64)
        new = set(np.unique(table[np.ix_(arr, arr)]).tolist()) - elems
        if not new:
            return tuple(sorted(elems))
        elems |= new


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
    Z4 = gr.cyclic(4)
    bad = np.array(Z4.table)
    bad[2, 3] = 2  # duplicate in a row
    with pytest.raises(gr.GroupError):
        gr.GroupTable(bad)
    # associative magma with identity but shifted identity index
    with pytest.raises(gr.GroupError):
        gr.GroupTable([[1, 0], [0, 1]])


def test_lights_test_agrees_with_full_associativity():
    for G in [gr.cyclic(6), gr.symmetric3(), gr.direct_product(gr.cyclic(3), gr.symmetric3())]:
        assert full_associativity(G)  # the validated tables really associate


def test_element_orders_cached_vs_recomputed():
    for G in oracle_groups():
        assert list(G.element_order) == orders_by_multiplication(G)
        assert all(G.order % int(o) == 0 for o in G.element_order)


def test_element_orders_fail_fast_on_a_magma():
    # 1*1 = 2 and 2*1 = 2: the powers of 1 never reach the identity
    magma = [[0, 1, 2], [1, 2, 0], [2, 2, 2]]
    with pytest.raises(gr.GroupError, match="never reaches the identity"):
        gr.GroupTable(magma, validate=False)


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


# --- Burnside family ----------------------------------------------------


def test_burnside_7_3_2():
    params = gr.BurnsideParams(7, 3, 2)
    G = gr.build_burnside(params)
    assert G.order == 21
    assert set(orders_by_multiplication(G)) == {1, 3, 7}
    a, b = gr.burnside_generators(params)
    # defining relations hold: a^7 = 1, b^3 = 1, b a b^-1 = a^2
    assert int(G.element_order[a]) == 7 and int(G.element_order[b]) == 3
    conj = G.conj(b, a)
    assert conj == G.mul(a, a)


def test_burnside_n1_collapses_to_cyclic():
    G = gr.build_burnside(gr.BurnsideParams(5, 1, 1))
    assert G.order == 5
    assert gr.is_isomorphic(G, gr.cyclic(5))


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


def test_class_d_divides_n():
    for p in gr.enumerate_burnside_params(80):
        assert p.n % gr.burnside_class_d(p) == 0


# --- Sylow machinery ----------------------------------------------------


def test_sylow_examples():
    assert gr.sylow(gr.cyclic(12), 2).order == 4
    B = gr.build_burnside(gr.BurnsideParams(7, 3, 2))
    S7 = gr.sylow(B, 7)
    assert S7.order == 7 and S7.is_cyclic
    a, _ = gr.burnside_generators(gr.BurnsideParams(7, 3, 2))
    assert S7.contains(a)
    assert gr.sylow(gr.cyclic(15), 7).order == 1


def test_all_sylow_cyclic():
    assert gr.all_sylow_cyclic(gr.build_burnside(gr.BurnsideParams(7, 3, 2)))
    assert not gr.all_sylow_cyclic(gr.abelian([3, 3]))
    assert gr.all_sylow_cyclic(gr.cyclic(45))


def test_sylow_cyclic_iff_element_of_full_p_power_order():
    # independent characterization: a cyclic Sylow subgroup exists iff some
    # element realizes the full p-part of the order
    for G in [
        gr.cyclic(45),
        gr.abelian([9, 3]),
        gr.build_burnside(gr.BurnsideParams(7, 3, 2)),
        gr.unitriangular27(),
        gr.direct_product(gr.cyclic(5), gr.abelian([3, 3])),
    ]:
        for p in gr.prime_divisors(G.order):
            part = 1
            while G.order % (part * p) == 0:
                part *= p
            expect = any(int(o) == part for o in G.element_order)
            assert gr.sylow(G, p).is_cyclic == expect


def test_p2_condition():
    assert not gr.p2_condition(gr.z9_semi_z3(), 3)
    assert gr.p2_condition(gr.cyclic(27), 3)
    assert not gr.p2_condition(gr.unitriangular27(), 3)


def test_p2_matches_exhaustive_commuting_pair_search():
    for G in [gr.z9_semi_z3(), gr.cyclic(27), gr.unitriangular27(), gr.abelian([9, 3])]:
        found = False
        for x in range(1, G.order):
            if int(G.element_order[x]) != 3:
                continue
            span = G.cyclic_span(x)
            for y in range(1, G.order):
                if int(G.element_order[y]) != 3 or y in span:
                    continue
                if G.mul(x, y) == G.mul(y, x):
                    found = True
        assert gr.p2_condition(G, 3) == (not found)


def test_two_p_condition():
    assert not gr.two_p_condition(gr.symmetric3())
    assert gr.two_p_condition(gr.cyclic(4))
    assert gr.two_p_condition(gr.build_burnside(gr.BurnsideParams(7, 3, 2)))


# --- subgroup patterns ---------------------------------------------------


def test_contains_copy_examples():
    assert gr.contains_copy(gr.abelian([9, 3]), "ZpxZp", p=3)
    assert not gr.contains_copy(gr.cyclic(27), "ZpxZp", p=3)
    assert not gr.contains_copy(gr.unitriangular27(), "Z9xZ3")
    assert all(
        int(o) in (1, 3) for o in gr.unitriangular27().element_order
    )  # exponent three
    assert gr.contains_copy(gr.abelian([9, 9]), "Z9xZ3")
    assert gr.contains_copy(gr.abelian([3, 3, 3, 3]), "Z3cubed")
    assert not gr.contains_copy(gr.abelian([9, 3]), "Z3cubed")
    assert gr.contains_copy(gr.build_standard("Z3xU33"), "U33")
    assert gr.contains_copy(gr.build_standard("Z3xZ9semiZ3"), "Z9semiZ3")
    assert not gr.contains_copy(gr.build_standard("Z3xU33"), "Z9semiZ3")
    assert not gr.contains_copy(gr.z9_semi_z3(), "Z9xZ3")


def test_order_81_fact():
    # every non-cyclic abelian group of order 81 contains one of the two
    # rank patterns
    partitions4 = [[81], [27, 3], [9, 9], [9, 3, 3], [3, 3, 3, 3]]
    for part in partitions4:
        G = gr.abelian(part)
        assert G.order == 81
        if len(part) == 1:
            continue
        assert gr.contains_copy(G, "Z9xZ3") or gr.contains_copy(G, "Z3cubed")


def test_three_group_classification_instance():
    catalog = {
        "Z3": gr.cyclic(3),
        "Z9": gr.cyclic(9),
        "Z27": gr.cyclic(27),
        "Z3xZ3": gr.abelian([3, 3]),
        "Z9xZ3": gr.abelian([9, 3]),
        "Z3cubed": gr.abelian([3, 3, 3]),
        "Z9xZ9": gr.abelian([9, 9]),
        "Z27xZ3": gr.abelian([27, 3]),
        "U33": gr.unitriangular27(),
        "Z9semiZ3": gr.z9_semi_z3(),
        "Z3xU33": gr.build_standard("Z3xU33"),
    }
    small = [gr.abelian([3, 3]), gr.z9_semi_z3()]
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
    assert gr.normal_rank(gr.cyclic(27), 3) == 1
    assert gr.normal_rank(gr.abelian([3, 3]), 3) == 2
    assert gr.normal_rank(gr.unitriangular27(), 3) == 2
    assert gr.normal_rank(gr.z9_semi_z3(), 3) == 2
    assert gr.normal_rank(gr.abelian([3, 3, 3]), 3) == 3
    with pytest.raises(gr.GroupError):
        gr.normal_rank(gr.cyclic(6), 3)


def test_normal_rank_nonabelian_matches_subgroup_scan():
    # brute oracle: scan all subsets realized as subgroups via closures of
    # up to three commuting order-3 elements, keep elementary abelian
    # normal ones
    for G in [gr.unitriangular27(), gr.z9_semi_z3()]:
        threes = [g for g in range(1, G.order) if int(G.element_order[g]) == 3]
        best = 0
        seen = set()
        import itertools

        for k in (1, 2, 3):
            for combo in itertools.combinations(threes, k):
                if any(G.mul(a, b) != G.mul(b, a) for a in combo for b in combo):
                    continue
                H = gr.closure(G, combo, cap=27)
                if H is None or H.elements in seen:
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


def test_normal_p_complement():
    S3 = gr.symmetric3()
    N = gr.normal_p_complement(S3, 2)
    assert N is not None and N.order == 3 and N.is_normal

    B = gr.build_burnside(gr.BurnsideParams(7, 3, 2))
    N7 = gr.normal_p_complement(B, 3)
    assert N7 is not None and N7.order == 7

    V = gr.abelian([3, 3])
    NV = gr.normal_p_complement(V, 3)
    assert NV is not None and NV.order == 1

    # A4 has no normal 2-complement: build it as a permutation-free table?
    # S3 at p=3: complement must have order 2 and be normal; none exists
    assert gr.normal_p_complement(S3, 3) is None


def test_min_cyclic_index():
    assert gr.min_cyclic_index(gr.cyclic(12)) == 1
    assert gr.min_cyclic_index(gr.build_burnside(gr.BurnsideParams(7, 3, 2))) == 3
    assert gr.min_cyclic_index(gr.abelian([3, 3])) == 3


def test_min_cyclic_index_times_max_order():
    for G in [gr.cyclic(12), gr.symmetric3(), gr.unitriangular27(), gr.abelian([9, 3])]:
        assert gr.min_cyclic_index(G) * int(G.element_order.max()) == G.order


# --- order 27 classification and splitting --------------------------------


def test_classify_order_27_all_five():
    labels = {
        gr.classify_order_27(gr.cyclic(27)): "Z27",
        gr.classify_order_27(gr.abelian([9, 3])): "Z9xZ3",
        gr.classify_order_27(gr.abelian([3, 3, 3])): "Z3cubed",
        gr.classify_order_27(gr.z9_semi_z3()): "Z9semiZ3",
        gr.classify_order_27(gr.unitriangular27()): "U33",
    }
    assert all(k == v for k, v in labels.items())
    assert len(labels) == 5
    with pytest.raises(gr.GroupError):
        gr.classify_order_27(gr.cyclic(9))


def test_davis_decomposition():
    a, N = gr.davis_decomposition(gr.cyclic(12))
    assert a == 4 and N.order == 3

    G = gr.direct_product(gr.cyclic(6), gr.build_burnside(gr.BurnsideParams(7, 3, 2)))
    a, N = gr.davis_decomposition(G)
    assert a == 2 and N.order == 63

    assert gr.davis_decomposition(gr.symmetric3()) is None

    a, N = gr.davis_decomposition(gr.cyclic(9))
    assert a == 1 and N.order == 9


# --- standard catalog, files, isomorphism ---------------------------------


def test_u33_against_matrix_oracle():
    G = gr.unitriangular27()
    oracle = u33_matrix_table()
    # identical tables: both enumerate (x, y, z) lexicographically
    assert np.array_equal(G.table, oracle)
    assert len(G.center()) == 3


def test_z9_semi_z3_structure():
    G = gr.z9_semi_z3()
    assert G.order == 27 and not G.is_abelian
    # the order-9 generator spans a normal subgroup
    nine = next(g for g in range(G.order) if int(G.element_order[g]) == 9)
    H = gr.SubgroupHandle(G, tuple(sorted(G.cyclic_span(nine))))
    assert H.order == 9 and H.is_normal


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
    gr.write_group_file(G, path)
    H = gr.read_group_file(path)
    assert np.array_equal(G.table, H.table)


def test_is_isomorphic_relabelled():
    rng = np.random.default_rng(7)
    G = gr.unitriangular27()
    perm = np.concatenate([[0], 1 + rng.permutation(G.order - 1)])
    inv = np.argsort(perm)
    relabelled = perm[G.table[np.ix_(inv, inv)]]
    H = gr.GroupTable(relabelled)
    assert gr.is_isomorphic(G, H)
    assert not gr.is_isomorphic(G, gr.z9_semi_z3())
    assert not gr.is_isomorphic(G, gr.abelian([3, 3, 3]))
    assert gr.is_isomorphic(gr.abelian([3, 9]), gr.abelian([9, 3]))


def test_is_isomorphic_past_every_prefilter():
    # same order profile, non-abelian, centres of one size: only the
    # generator-mapping search tells these pairs apart
    pairs = [((4, 8, 3), (8, 4, 5)), ((8, 4, 3), (8, 4, 7)), ((16, 4, 7), (16, 4, 15))]
    rng = np.random.default_rng(11)
    for a, b in pairs:
        G, H = gr.metacyclic(*a), gr.metacyclic(*b)
        assert G.order_profile() == H.order_profile()
        assert not G.is_abelian and not H.is_abelian
        assert len(G.center()) == len(H.center())
        assert not gr.is_isomorphic(G, H) and not gr.is_isomorphic(H, G)
        perm = np.concatenate([[0], 1 + rng.permutation(G.order - 1)])
        inv = np.argsort(perm)
        assert gr.is_isomorphic(G, gr.GroupTable(perm[G.table[np.ix_(inv, inv)]]))


def test_subgroup_as_group_valid():
    B = gr.build_burnside(gr.BurnsideParams(7, 3, 2))
    S = gr.sylow(B, 7).as_group()
    assert S.order == 7
    assert gr.is_isomorphic(S, gr.cyclic(7))
