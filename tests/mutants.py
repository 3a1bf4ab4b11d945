"""A register of mutants: deliberate faults in ``src/pcurv13``, each with
the tests that must catch it.

Each entry names a file of the package, an exact snippet that occurs in
it once, the snippet's replacement, and pytest node ids (relative to the
repository root) of which at least one fails once the snippet is
replaced.  ``tests/test_mutants.py`` checks in tier-1 that every snippet
still occurs exactly once, and, under the ``slow`` marker, applies each
mutant to a copy of ``src/`` and runs its tests there.  A change that
rewrites a snippet carries its mutant along.  Standard library only.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    fault: str
    file: str  # relative to src/pcurv13
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "m read as integral when 4 divides e3",
        "bazaikin.py",
        '"m_integral": m.denominator == 1,',
        '"m_integral": e % 4 == 0,',
        ("tests/test_cli.py::test_bazaikin_check_json_matches_the_oracle",),
    ),
    Mutant(
        "p divides m read off the denominator",
        "bazaikin.py",
        "return m.numerator % p == 0",
        "return m.denominator % p == 0",
        ("tests/test_bazaikin.py::test_mod_p_betti_matches_the_valuation_loop",),
    ),
    Mutant(
        "replay accepts a step of unknown kind that names a registered op",
        "pipeline.py",
        'if step.kind != "op" or step.name not in OPS:',
        "if step.name not in OPS:",
        ("tests/test_pipeline.py::test_replay_rejects_malformed_steps",),
    ),
    Mutant(
        "the surviving primes tested for primality by d % 3",
        "pipeline.py",
        "d > 2 and is_prime(d)]",
        "d > 2 and d % 3]",
        ("tests/test_package.py::test_surviving_odd_primes_are_the_odd_primes_dividing_the_value",),
    ),
    Mutant(
        "Light's associativity test skipped",
        "groups.py",
        "if not np.array_equal(arr[arr[:, a], :], arr.take(arr[a, :], axis=1)):",
        "if False:",
        (
            "tests/test_groups.py::test_validation_catches_broken_tables",
            "tests/test_groups.py::test_every_single_cell_change_of_a_small_group_is_rejected",
        ),
    ),
    Mutant(
        "the Lagrange check on the generating set's closures dropped",
        "groups.py",
        "if len(elems) % size:",
        "if False:",
        (
            "tests/test_groups.py::test_generating_set_rejects_a_lagrange_breaking_magma_as_before",
            "tests/test_groups.py::test_a_non_group_fails_at_its_second_generator",
        ),
    ),
    Mutant(
        "the order cap lets one element too many through",
        "groups.py",
        "if not 1 <= n <= ORDER_CAP:",
        "if not 1 <= n <= ORDER_CAP + 1:",
        (
            "tests/test_cli.py::test_size_inputs_run_at_their_largest_value_and_reject_the_next",
        ),
    ),
    Mutant(
        "the centre mask takes an element whose row meets its column anywhere",
        "groups.py",
        "(self.table == self.table.T).all(axis=1)",
        "(self.table == self.table.T).any(axis=1)",
        (
            "tests/test_groups.py::test_centre_facts_match_per_element_oracle",
            "tests/test_groups.py::test_two_p_condition",
        ),
    ),
    Mutant(
        "the splitting takes a cyclic Sylow 2-subgroup as normal without counting",
        "groups.py",
        "if not sylow_is_cyclic(G, 2) or np.count_nonzero(two_part % G.element_order == 0) != two_part:",
        "if not sylow_is_cyclic(G, 2):",
        (
            "tests/test_groups.py::test_davis_decomposition",
            "tests/test_groups.py::test_sylow_facts_match_built_sylow_subgroups",
        ),
    ),
    Mutant(
        "line orbits weighted by their lines, not their points",
        "spectral.py",
        "size + (p - 1) ** sum(map(any, x))",
        "size + 1",
        (
            "tests/test_spectral.py::test_invariant_classes_match_the_closure_build[3]",
            "tests/test_spectral.py::test_zero_frame_d4x_orbits_match_full_group_p3",
            "tests/test_spectral.py::test_orbit_builds_match_orbits_of_every_point[3]",
        ),
    ),
    Mutant(
        "the rank-2 frame key drops the discriminant's square class",
        "spectral.py",
        "pow(disc, (p - 1) // 2, p), skew * skew",
        "0, skew * skew",
        (
            "tests/test_spectral.py::test_invariant_classes_match_the_closure_build[3]",
            "tests/test_spectral.py::test_orbit_counts_at_every_supported_prime[3-267]",
        ),
    ),
    Mutant(
        "the zero frame's d4(xy) lines weighted as point counts",
        "spectral.py",
        "[(w, n // (p - 1)) for w, n in d4x_orbits if any(w)]",
        "[(w, n) for w, n in d4x_orbits if any(w)]",
        (
            "tests/test_spectral.py::test_zero_frame_d4xy_orbits_match_every_line[3]",
            "tests/test_spectral.py::test_exhaustive_verdict_p3",
        ),
    ),
    Mutant(
        "one survivor too many at (3,3)",
        "spectral.py",
        "s33_top = len(fr.u_kernel(3)) - fr.ideal_piece(fr.xi, 3, 0).dim",
        "s33_top = len(fr.u_kernel(3)) - fr.ideal_piece(fr.xi, 3, 0).dim + 1",
        (
            "tests/test_spectral.py::test_exhaustive_verdict_p3",
            "tests/test_spectral.py::test_frame_minimum_matches_every_class_loop[3]",
        ),
    ),
    Mutant(
        "Smith-Gysin solutions accepted with rank left over at the top",
        "cohomology.py",
        "if rank_in == 0 and R[n - 1] + f[n] == x[n]:",
        "if R[n - 1] + f[n] == x[n]:",
        (
            "tests/test_cohomology.py::test_fiberless_solutions_force_zero_euler",
            "tests/test_cohomology.py::test_solutions_with_fixed_set_match_oracle",
        ),
    ),
    Mutant(
        "the census allows b2 below b1",
        "cohomology.py",
        "for b2 in range(b1,",
        "for b2 in range(0,",
        ("tests/test_cohomology.py::test_mod_p_component_census",),
    ),
    Mutant(
        "the catalog skips the head's freeness conditions",
        "bazaikin.py",
        "if next(_failing_pairs(head, _HEAD_PAIRS), None):",
        "if False:",
        (
            "tests/test_bazaikin.py::test_enumerate_matches_exhaustive_oracle",
            "tests/test_bazaikin.py::test_enumerate_output_is_canonical_sorted_unique",
        ),
    ),
    Mutant(
        "a row is free when its entries are odd or its gcds are 2",
        "bazaikin.py",
        '"free": all_odd and not failing,',
        '"free": all_odd or not failing,',
        (
            "tests/test_bazaikin.py::test_reduction_matches_full_permutation_oracle",
            "tests/test_cli.py::test_bazaikin_check_json_matches_the_oracle",
        ),
    ),
    Mutant(
        "the memo hands out its stored output",
        "pipeline.py",
        "return json.loads(_OUTPUTS[key])",
        'return _OUTPUTS.setdefault((key, "decoded"), json.loads(_OUTPUTS[key]))',
        ("tests/test_pipeline.py::test_registry_hit_is_an_independent_copy",),
    ),
    Mutant(
        "the tracer records its inputs as passed",
        "pipeline.py",
        "inputs = json.loads(_json_text(inputs))",
        "pass",
        ("tests/test_pipeline.py::test_a_trace_read_from_its_json_equals_the_live_trace",),
    ),
    Mutant(
        "the prime cap lets one value too many through",
        "gfp.py",
        "if p > PRIME_CAP:",
        "if p > PRIME_CAP + 1:",
        ("tests/test_cli.py::test_size_inputs_run_at_their_largest_value_and_reject_the_next",),
    ),
    Mutant(
        "a zpxzp quotient index need not be prime",
        "cohomology.py",
        "_require_prime(self.value)",
        "pass",
        (
            "tests/test_package.py::test_prime_checks_reject_exactly_the_non_primes",
            "tests/test_cli.py::test_invalid_input_exits_2_with_one_error_line",
        ),
    ),
    Mutant(
        "group build --out lets an unwritable path raise",
        "cli.py",
        'raise ValueError(f"cannot write group table: {exc}")',
        "raise",
        ("tests/test_cli.py::test_invalid_input_exits_2_with_one_error_line",),
    ),
    Mutant(
        "the direct parse takes a value outside an option's choices",
        "cli.py",
        'if "choices" in kwargs and any(v not in kwargs["choices"] for v in converted):',
        "if False:",
        (
            "tests/test_cli.py::test_direct_parse_leaves_the_rest_to_argparse",
            "tests/test_cli.py::test_a_direct_parse_equals_the_full_parsers",
        ),
    ),
    Mutant(
        "the direct parse takes a repeated option",
        "cli.py",
        "if key not in spec or key in seen:",
        "if key not in spec or key in seen & {None}:",
        ("tests/test_cli.py::test_direct_parse_leaves_the_rest_to_argparse",),
    ),
    Mutant(
        "the direct parse takes positional values split by an option",
        "cli.py",
        "if key not in spec or key in seen:",
        "if key not in spec or key in seen - {None}:",
        (
            "tests/test_cli.py::test_direct_parse_leaves_the_rest_to_argparse",
            "tests/test_cli.py::test_a_direct_parse_equals_the_full_parsers",
        ),
    ),
    Mutant(
        "the mod-3 branch takes a profile outside the census",
        "pipeline.py",
        '    _check_census(profile)\n    k = profile.count("S5")',
        '    k = profile.count("S5")',
        ("tests/test_pipeline.py::test_both_branches_take_exactly_the_census_profiles",),
    ),
    Mutant(
        "the Smith-Gysin solver truncates an overlong Betti vector",
        "cohomology.py",
        "if max(len(x), len(f)) > n + 1:",
        "if False:",
        ("tests/test_cohomology.py::test_smith_gysin_rejects_vectors_longer_than_dim_x_plus_one",),
    ),
    Mutant(
        "the census builds profiles CP1xS3-first",
        "cohomology.py",
        "zip(types, counts) for _ in range(c)",
        "zip(types[::-1], counts[::-1]) for _ in range(c)",
        (
            "tests/test_cohomology.py::test_profile_census_budget6",
            "tests/test_cohomology.py::test_profile_census_matches_multiset_oracle",
        ),
    ),
    Mutant(
        "the normal-rank search grows S by z without [z, g] in S",
        "groups.py",
        "for z in zs[inS[comm].all(axis=1)].tolist():",
        "for z in zs.tolist():",
        ("tests/test_groups.py::test_normal_rank_matches_the_walk[D16]",),
    ),
    Mutant(
        "the normal-rank search starts from the whole centre",
        "groups.py",
        "G.central & (p % G.element_order == 0)",
        "G.central",
        ("tests/test_groups.py::test_normal_rank",),
    ),
    Mutant(
        "the normal-rank search grows from the identity",
        "groups.py",
        "level = {frozenset(np.flatnonzero(G.central & (p % G.element_order == 0)).tolist())}",
        "level = {frozenset([0])}",
        ("tests/test_groups.py::test_normal_rank_builds_two_subgroups_on_d8xz2_6",),
    ),
    Mutant(
        "an even n enters the odd-order trace set",
        "cohomology.py",
        "2 if odd_order_only else 1",
        "1",
        (
            "tests/test_cohomology.py::test_trace_sets_exact",
            "tests/test_cohomology.py::test_trace_sets_match_every_small_integer_matrix[3]",
        ),
    ),
    Mutant(
        "the Smith-Gysin interval one short at its upper end",
        "cohomology.py",
        "range(rank_in, rank_in + x[i] + 1)",
        "range(rank_in, rank_in + x[i])",
        (
            "tests/test_cohomology.py::test_solutions_pass_independent_oracle",
            "tests/test_cohomology.py::test_solutions_with_fixed_set_match_oracle",
        ),
    ),
    Mutant(
        "the Smith-Gysin interval one lower at its lower end",
        "cohomology.py",
        "range(rank_in, rank_in + x[i] + 1)",
        "range(max(rank_in - 1, 0), rank_in + x[i] + 1)",
        (
            "tests/test_cohomology.py::test_solutions_pass_independent_oracle",
            "tests/test_cohomology.py::test_solutions_with_fixed_set_match_oracle",
        ),
    ),
    Mutant(
        "the census walks the count ranges in vocabulary order",
        "cohomology.py",
        "for backwards in product(*reversed(ranges)):\n        counts = backwards[::-1]",
        "for counts in product(*ranges):",
        ("tests/test_cohomology.py::test_profile_census_budget6",),
    ),
    Mutant(
        "the census admits a type with b1 != 0",
        "cohomology.py",
        "b[:2] == (1, 0)",
        "b[0] == 1",
        ("tests/test_cli.py::test_fixedpoint_profiles_of_circles_are_empty",),
    ),
    Mutant(
        "the mod-p census b2 range one short",
        "cohomology.py",
        "(per_component_budget - 2) // 2 - b1 + 1)",
        "(per_component_budget - 2) // 2 - b1)",
        ("tests/test_cohomology.py::test_mod_p_component_census",),
    ),
    Mutant(
        "every abelian group read as having cyclic Sylow subgroups",
        "groups.py",
        "return G.exponent == G.order",
        "return G.exponent == G.order or G.is_abelian",
        (
            "tests/test_groups.py::test_all_sylow_cyclic",
            "tests/test_groups.py::test_all_sylow_cyclic_matches_every_sylow_subgroup",
        ),
    ),
    Mutant(
        "the canonical form breaks a sign tie by the smaller candidate",
        "bazaikin.py",
        "return max(plus, minus)",
        "return min(plus, minus)",
        ("tests/test_bazaikin.py::test_canonicalize_examples",),
    ),
    Mutant(
        "the profile budget cap lets one budget too many through",
        "cohomology.py",
        "if total_betti_budget > MAX_PROFILE_BUDGET:",
        "if total_betti_budget > MAX_PROFILE_BUDGET + 1:",
        ("tests/test_cli.py::test_size_inputs_run_at_their_largest_value_and_reject_the_next",),
    ),
    Mutant(
        "the memo stores an output before its op has run",
        "pipeline.py",
        "_OUTPUTS[key] = _json_text(fn(**inputs))",
        '_OUTPUTS[key] = "null"; _OUTPUTS[key] = _json_text(fn(**inputs))',
        ("tests/test_pipeline.py::test_registry_stores_no_raising_op",),
    ),
    Mutant(
        "the memo key leaves out the inputs",
        "pipeline.py",
        "key = (name, json.dumps(inputs, sort_keys=True))",
        'key = (name, "")',
        (
            "tests/test_pipeline.py::test_rank2_rational_bounds",
            "tests/test_pipeline.py::test_every_trace_step_replays",
        ),
    ),
    Mutant(
        "the zero frame drops its last d4(xy) orbit",
        "spectral.py",
        "[(w, n // (p - 1)) for w, n in d4x_orbits if any(w)]",
        "[(w, n // (p - 1)) for w, n in d4x_orbits if any(w)][:-1]",
        ("tests/test_spectral.py::test_exhaustive_verdict_p3",),
    ),
    Mutant(
        "a new generator's closure starts from the generator alone",
        "groups.py",
        "frontier = list({columns[-1][a] for a in elems} - elems)",
        "frontier = [g]",
        (
            "tests/test_groups.py::test_generating_set_matches_the_from_scratch_closures_on_every_single_cell_change",
        ),
    ),
    Mutant(
        "the catalog walk tests 11 of the 12 q5 pairs",
        "bazaikin.py",
        "_failing_pairs(q, _Q5_PAIRS)",
        "_failing_pairs(q, _Q5_PAIRS[:-1])",
        (
            "tests/test_bazaikin.py::test_enumerate_matches_the_unsplit_freeness_loop[29]",
            "tests/test_bazaikin.py::test_enumerate_matches_the_unsplit_freeness_loop[39]",
        ),
    ),
)
