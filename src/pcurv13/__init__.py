"""Obstruction calculus for fundamental groups of positively curved
13-manifolds with torus symmetry: parameter catalog, finite-group
analysis, fixed-point bookkeeping, a mod-p spectral-sequence engine and
the case pipeline tying them together."""

from .bazaikin import (
    CohomologyProfile,
    Curvature,
    FreenessReport,
    canonicalize,
    check_curvature,
    check_free,
    enumerate_spaces,
    h6_order,
    integral_cohomology,
    mod3_type,
    mod_p_betti,
)
from .cohomology import (
    FixedPointProfile,
    QuotientIndex,
    allday_bound_check,
    borel_feasible,
    divisibility_obstruction,
    enumerate_profiles,
    euler_char,
    frankel_compatible,
    integer_trace_set,
    lefschetz_value_set,
    smith_gysin_solve,
)
from .groups import (
    BurnsideParams,
    GroupTable,
    SubgroupHandle,
    all_sylow_cyclic,
    build_burnside,
    build_standard,
    burnside_class_d,
    classify_order_27,
    contains_copy,
    davis_decomposition,
    is_isomorphic,
    min_cyclic_index,
    normal_cyclic_core,
    normal_p_complement,
    normal_rank,
    p2_condition,
    sylow,
    two_p_condition,
)
from .pipeline import (
    MOD3,
    RATIONAL,
    ObstructionReport,
    ScenarioInput,
    lemma56_branch,
    mod3_branch,
    replay_step,
    theorem_a_report,
)
from .spectral import (
    BigradedPage,
    DifferentialChoice,
    VerdictReport,
    bg_dims,
    e2_page,
    exhaustive_verdict,
    run_choice,
    zero_choice,
)

__version__ = "0.1.0"
