"""Case engine composing the module verdicts into cyclic-index bounds.

The scenario is a closed positively curved 13-manifold whose universal
cover has the rational (optionally also mod-3) cohomology of the
parametrized family, carrying an effective isometric torus action of rank
2 or 3.  The engine walks the case tree over fixed-point configurations
and emits the set of admissible indices of a minimal-index cyclic
subgroup of the fundamental group, together with a replayable trace.

Geometric theorems with no finite verification are modeled as named
axioms and recorded in the trace; every arithmetic, cohomological or
group-theoretic step is recomputed live through the other modules and can
be replayed via the operation registry.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Iterable

from . import bazaikin, cohomology, groups, spectral
from .spectral import ProofGateError, _gate

RATIONAL = "rational"
MOD3 = "mod3"

AMBIENT_DIM = 13

# geometric inputs taken on faith, in a fixed declaration order
AXIOMS: dict[str, str] = {
    "connectedness_lemma": (
        "a closed totally geodesic submanifold of codimension k in a closed "
        "positively curved n-manifold is (n-2k+1)-connected in it"
    ),
    "berger_sugahara": (
        "an effective isometric torus action on a closed odd-dimensional "
        "positively curved manifold has a circle orbit; some corank-one "
        "subtorus has a fixed point"
    ),
    "frankel": (
        "two compact totally geodesic submanifolds of a closed positively "
        "curved manifold whose dimensions sum to at least the ambient "
        "dimension must intersect"
    ),
    "weinstein": (
        "an isometry of a closed oriented positively curved even-dimensional "
        "manifold with no fixed point reverses orientation; consequently a "
        "free isometric action here preserves orientation and acts trivially "
        "on top cohomology"
    ),
    "smith": (
        "an elementary abelian p-group of rank two cannot act freely on a "
        "mod-p homology sphere"
    ),
    "davis_weinberger": (
        "a finite group acting freely on a closed (4k+1)-manifold with odd "
        "half-range alternating Betti sum, trivially on rational cohomology, "
        "splits as a cyclic 2-group times an odd-order group"
    ),
    "codim2": (
        "a closed totally geodesic codimension-two submanifold of a closed "
        "positively curved odd-dimensional manifold (dim >= 5) forces every "
        "group acting freely on both to be cyclic"
    ),
}


@dataclass(frozen=True)
class ScenarioInput:
    symmetry_rank: int
    cohomology_type: str = RATIONAL

    def __post_init__(self):
        if self.symmetry_rank not in (2, 3):
            raise ValueError("symmetry rank must be 2 or 3")
        if self.cohomology_type not in (RATIONAL, MOD3):
            raise ValueError(f"cohomology type must be {RATIONAL!r} or {MOD3!r}")


@dataclass(frozen=True)
class TraceStep:
    tag: str  # branch label
    kind: str  # "op" | "axiom"
    name: str  # registry operation or axiom key
    inputs: dict
    output: object
    note: str = ""

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ObstructionReport:
    scenario: ScenarioInput
    index_bound_set: frozenset[int]
    case_trace: tuple[TraceStep, ...]
    axioms_used: tuple[str, ...]

    def __post_init__(self):
        if not self.index_bound_set:
            raise ValueError("the admissible index set cannot be empty")

    def to_json(self) -> dict:
        return {
            "scenario": {
                "rank": self.scenario.symmetry_rank,
                "cohomology": self.scenario.cohomology_type,
            },
            "index_bounds": sorted(self.index_bound_set),
            "axioms": list(self.axioms_used),
            "trace": [s.to_json() for s in self.case_trace],
        }

    def explain(self) -> str:
        lines = [
            f"scenario: rank-{self.scenario.symmetry_rank} torus, "
            f"{self.scenario.cohomology_type} cohomology type",
        ]
        for s in self.case_trace:
            if s.kind == "axiom":
                lines.append(f"[{s.tag}] axiom {s.name}: {AXIOMS[s.name]}")
            else:
                args = ", ".join(f"{k}={v!r}" for k, v in s.inputs.items())
                lines.append(f"[{s.tag}] {s.name}({args}) -> {s.output!r}")
            if s.note:
                lines.append(f"    {s.note}")
        lines.append(
            "admissible cyclic-subgroup indices: "
            + ", ".join(str(d) for d in sorted(self.index_bound_set))
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# operation registry: every "op" trace step replays through these


def _rational_betti() -> list[int]:
    profile = bazaikin.CohomologyProfile(torsion_order=Fraction(1))
    return list(profile.rational_betti())


def _mod3_betti_totals() -> dict:
    plain = bazaikin.CohomologyProfile(torsion_order=Fraction(1))
    torsion3 = bazaikin.CohomologyProfile(torsion_order=Fraction(3))
    return {
        bazaikin.MOD3_CP2xS9: sum(bazaikin.mod_p_betti(plain, 3)),
        bazaikin.MOD3_CP4xS5: sum(bazaikin.mod_p_betti(torsion3, 3)),
    }


def _even_betti_total(betti: list[int]) -> int:
    return sum(b for i, b in enumerate(betti) if i % 2 == 0)


def _smith_gysin(betti_x: list[int], dim: int) -> dict:
    sols = cohomology.smith_gysin_solve(betti_x, None, dim)
    return {
        "solutions": [list(s.R) for s in sols],
        "chi_bar": [s.chi_bar for s in sols],
    }


def _lefschetz_values(dims: list[int], odd_order: bool) -> list[int]:
    return sorted(
        cohomology.lefschetz_value_set(
            cohomology.LefschetzSpec(tuple(dims), odd_order)
        )
    )


def _divisibility(kind: str, value: int, lef_values: list[int]) -> dict:
    res = cohomology.divisibility_obstruction(
        cohomology.QuotientIndex(kind, value), lef_values
    )
    return {"excluded": res.excluded, "surviving": sorted(res.surviving)}


def _odd_divisor_candidates(values: list[int]) -> list[int]:
    if not values:
        return []
    out = []
    for d in range(1, max(abs(v) for v in values) + 1):
        if d % 2 == 0:
            continue
        res = cohomology.divisibility_obstruction(
            cohomology.QuotientIndex("cd", d), values
        )
        if not res.excluded:
            out.append(d)
    return out


def _surviving_odd_primes(values: list[int]) -> list[int]:
    cands = _odd_divisor_candidates(values)
    return [d for d in cands if d > 2 and groups.prime_divisors(d) == [d]]


def _enumerate_profiles(budget: int, dim: int) -> list[list[str]]:
    return [list(p.components) for p in cohomology.enumerate_profiles(budget, dim)]


def _component_census(budget: int) -> list[list]:
    return [[name, list(prof)] for name, prof in cohomology.mod_p_component_census(budget)]


def _small_normal_quotient_index(name: str) -> int:
    """Index of a normal order-3 subgroup contained in no larger cyclic
    subgroup, for the named order-27 group; the obstruction divisor."""
    G = groups.build_standard(name)
    for g in range(1, G.order):
        if int(G.element_order[g]) != 3:
            continue
        H = groups.SubgroupHandle(G, tuple(sorted(G.cyclic_span(g))))
        if H.is_normal and groups.is_maximal_cyclic(H):
            return G.order // H.order
    raise groups.GroupError(f"no maximal-cyclic normal order-3 subgroup in {name}")


_THREE_GROUP_CATALOG = (
    "Z3",
    "Z9",
    "Z27",
    "Z81",
    "Z3xZ3",
    "Z9xZ3",
    "Z9xZ9",
    "Z27xZ3",
    "Z3xZ3xZ3",
    "Z9xZ3xZ3",
    "Z3xZ3xZ3xZ3",
    "U33",
    "Z9semiZ3",
    "Z3xU33",
    "Z3xZ9semiZ3",
)


def _three_group_options() -> dict:
    """Catalog instance of the classification: a 3-group containing a rank
    two elementary abelian subgroup but none of the three order-27
    obstructions is one of the two small types."""
    small = [groups.build_standard(name) for name in ("Z3xZ3", "Z9semiZ3")]
    satisfying = []
    verdict = True
    for name in _THREE_GROUP_CATALOG:
        G = groups.build_standard(name)
        if not groups.contains_copy(G, "ZpxZp", p=3):
            continue
        if (
            groups.contains_copy(G, "Z9xZ3")
            or groups.contains_copy(G, "Z3cubed")
            or groups.contains_copy(G, "U33")
        ):
            continue
        satisfying.append(name)
        if not any(groups.is_isomorphic(G, H) for H in small):
            verdict = False
    return {"hypothesis_met": satisfying, "all_small": verdict}


def _normal_rank_by_name(name: str, p: int) -> int:
    return groups.normal_rank(groups.build_standard(name), p)


def _ss_verdict(p: int) -> dict:
    rep = spectral.exhaustive_verdict(p)
    return {
        "verdict": rep.verdict,
        "min_deg6_survivors": rep.min_deg6_survivors,
        "choices_examined": rep.choices_examined,
    }


OPS: dict[str, Callable] = {
    "bazaikin.rational_betti": _rational_betti,
    "bazaikin.mod3_betti_totals": _mod3_betti_totals,
    "cohomology.even_betti_total": _even_betti_total,
    "cohomology.davis_parity": lambda betti: cohomology.davis_parity(betti),
    "cohomology.smith_gysin_solve": _smith_gysin,
    "cohomology.lefschetz_value_set": _lefschetz_values,
    "cohomology.divisibility_obstruction": _divisibility,
    "cohomology.odd_divisor_candidates": _odd_divisor_candidates,
    "cohomology.surviving_odd_primes": _surviving_odd_primes,
    "cohomology.borel_feasible": lambda codim_total, circle_codims: cohomology.borel_feasible(
        codim_total, circle_codims
    ),
    "cohomology.enumerate_profiles": _enumerate_profiles,
    "cohomology.frankel_compatible": lambda dims, ambient: cohomology.frankel_compatible(
        dims, ambient
    ),
    "cohomology.mod_p_component_census": _component_census,
    "groups.small_normal_quotient_index": _small_normal_quotient_index,
    "groups.three_group_options": _three_group_options,
    "groups.normal_rank": _normal_rank_by_name,
    "spectral.exhaustive_verdict": _ss_verdict,
}


def replay_step(step: TraceStep) -> bool:
    """Re-execute a trace step and compare with its recorded output."""
    if step.kind == "axiom":
        return step.name in AXIOMS and step.output == AXIOMS[step.name]
    return OPS[step.name](**step.inputs) == step.output


class _Tracer:
    def __init__(self):
        self.steps: list[TraceStep] = []

    def op(self, _tag: str, _opname: str, note: str = "", _expect=None, **inputs):
        """Run and record a registry op; a given ``_expect`` is a proof gate
        on its output."""
        out = OPS[_opname](**inputs)
        self.steps.append(
            TraceStep(
                tag=_tag, kind="op", name=_opname, inputs=inputs, output=out, note=note
            )
        )
        if _expect is not None and out != _expect:
            raise ProofGateError(
                f"[{_tag}] {_opname} gave {out!r}, expected {_expect!r}"
            )
        return out

    def axiom(self, _tag: str, _name: str, note: str = ""):
        self.steps.append(
            TraceStep(
                tag=_tag,
                kind="axiom",
                name=_name,
                inputs={},
                output=AXIOMS[_name],
                note=note,
            )
        )


def _divisors(n: int) -> frozenset[int]:
    return frozenset(d for d in range(1, n + 1) if n % d == 0)


def _stabilizer_bound(k: int, per_component: Iterable[int]) -> frozenset[int]:
    """Indices when the group permutes k components: passing to a component
    stabilizer multiplies the index by at most k."""
    return frozenset(i * d for i in range(1, k + 1) for d in per_component)


# ---------------------------------------------------------------------------
# branches


def _splitting_steps(tr: _Tracer, tag: str) -> None:
    """Passage to an index <= 2 subgroup acting trivially on rational
    cohomology, split off its odd-order part."""
    betti = tr.op(
        tag,
        "bazaikin.rational_betti",
        note=(
            "rational type of the universal cover: classes in degrees "
            "0,2,4,9,11,13 with the degree-2 class generating degrees 2,4"
        ),
    )
    tr.axiom(
        tag,
        "weinstein",
        note=(
            "deck transformations preserve orientation, so they fix the top "
            "class; the kernel of the degree-2 sign character has index at "
            "most 2 and acts trivially on all of rational cohomology"
        ),
    )
    parity = tr.op(
        tag,
        "cohomology.davis_parity",
        betti=betti,
        note="half-range alternating Betti sum; odd, so the splitting applies",
    )
    _gate(
        parity % 2 == 1,
        "the half-range alternating Betti sum is even; the splitting does not apply",
    )
    tr.axiom(
        tag,
        "davis_weinberger",
        note=(
            "the trivial-action subgroup splits as a cyclic 2-group times an "
            "odd-order group; cyclic-index bounds transfer between the two"
        ),
    )


def _torus_fixed_branch(tr: _Tracer) -> frozenset[int]:
    """Rank-two fixed point present: index at most three."""
    tag = "torus-fixed"
    betti = tr.op(tag, "bazaikin.rational_betti")
    even = tr.op(
        tag,
        "cohomology.even_betti_total",
        betti=betti,
        note=(
            "the fixed set of the full torus has at most this many "
            "components, bounding the index of a component stabilizer"
        ),
        _expect=3,
    )
    tr.axiom(
        tag,
        "codim2",
        note=(
            "if the stabilized component has codimension two inside some "
            "circle's fixed set, the stabilizer is cyclic; a one-dimensional "
            "component is a circle, with cyclic stabilizer directly"
        ),
    )
    tr.axiom(
        tag,
        "connectedness_lemma",
        note=(
            "no totally geodesic submanifold of codimension two or four "
            "exists for this rational type, so circle fixed sets have "
            "dimension at most seven"
        ),
    )
    for k in range(0, 4):
        tr.op(
            tag,
            "cohomology.borel_feasible",
            codim_total=10,
            circle_codims=[4] * k,
            note=(
                "remaining case: a 3-dimensional torus-fixed component inside "
                "7-dimensional circle-fixed sets; each circle contributes "
                "codimension 4, which can never total 10"
            ),
            _expect=False,
        )
    return frozenset(range(1, even + 1))


def _lefschetz_steps(
    tr: _Tracer, tag: str, component: str, expect: tuple, notes: tuple[str, str, str]
) -> list[int]:
    """Quotient the component by a second, fixed-point-free circle, take the
    Lefschetz numbers odd-order isometries realize on the quotient, and keep
    the odd primes they allow; ``expect`` and ``notes`` go to the three
    steps in that order."""
    betti_x = list(cohomology.COMPONENT_BETTI[component])
    gys = tr.op(
        tag,
        "cohomology.smith_gysin_solve",
        betti_x=betti_x,
        dim=len(betti_x) - 1,
        note=notes[0],
        _expect=expect[0],
    )
    lef = tr.op(
        tag,
        "cohomology.lefschetz_value_set",
        dims=gys["solutions"][0],
        odd_order=True,
        note=notes[1],
        _expect=expect[1],
    )
    tr.op(
        tag, "cohomology.surviving_odd_primes", values=lef, note=notes[2], _expect=expect[2]
    )
    return lef


def _dim_1_3_branch(tr: _Tracer) -> frozenset[int]:
    """Some circle-fixed component of dimension one or three: divides 6."""
    tag = "fixed-dim-1-3"
    _splitting_steps(tr, tag)
    betti = tr.op(tag, "bazaikin.rational_betti")
    tr.op(
        tag,
        "cohomology.even_betti_total",
        betti=betti,
        note="at most this many fixed components, so the component "
        "stabilizer in the odd-order part has index dividing 3",
        _expect=3,
    )
    # dimension 1: the component is a circle, stabilizer cyclic
    # dimension 3: quotient Euler characteristic forces total cyclicity
    lef = _lefschetz_steps(
        tr,
        tag,
        "S3",
        ({"solutions": [[1, 0, 1]], "chi_bar": [2]}, [2], []),
        (
            "3-dimensional rational-sphere component with a second circle "
            "acting without fixed points; unique consistent quotient ranks",
            "",
            "an elementary abelian p x p subgroup would force p to divide an "
            "achievable Lefschetz number; no odd prime does, so all Sylow "
            "subgroups of the stabilizer are cyclic",
        ),
    )
    tr.op(
        tag,
        "cohomology.odd_divisor_candidates",
        values=lef,
        note=(
            "the stabilizer is metacyclic with a maximal normal cyclic "
            "subgroup whose index must divide an achievable Lefschetz "
            "number; only 1 survives, so the stabilizer is cyclic"
        ),
        _expect=[1],
    )
    return _divisors(6)


def _cp1s3_component_steps(tr: _Tracer, tag: str) -> frozenset[int]:
    """A component with two even-degree classes pins the whole odd part."""
    lef = _lefschetz_steps(
        tr,
        tag,
        "CP1xS3",
        ({"solutions": [[1, 0, 2, 0, 1]], "chi_bar": [4]}, [1, 4], []),
        (
            "quotient of the component by a second, fixed-point-free circle",
            "odd-order isometries realize only these Lefschetz numbers",
            "",
        ),
    )
    tr.op(
        tag,
        "cohomology.odd_divisor_candidates",
        values=lef,
        note="the odd-order part is cyclic; only the index <= 2 passage "
        "to the trivial-action subgroup remains",
        _expect=[1],
    )
    return _divisors(2)


def _s5_component_steps(tr: _Tracer, tag: str) -> frozenset[int]:
    """Rational 5-sphere component: odd part has cyclic subgroup of index
    dividing 9."""
    lef = _lefschetz_steps(
        tr,
        tag,
        "S5",
        ({"solutions": [[1, 0, 1, 0, 1]], "chi_bar": [3]}, [3], [3]),
        (
            "quotient by a second, fixed-point-free circle",
            "",
            "only p = 3 can support an elementary abelian p x p subgroup",
        ),
    )
    for name in ("Z3xZ3xZ3", "Z9xZ3", "U33"):
        idx = tr.op(
            tag,
            "groups.small_normal_quotient_index",
            name=name,
            note=(
                f"{name} has a normal order-3 subgroup contained in no larger "
                "cyclic subgroup; its quotient index must divide a Lefschetz "
                "value"
            ),
        )
        tr.op(
            tag,
            "cohomology.divisibility_obstruction",
            kind="cd",
            value=idx,
            lef_values=lef,
            _expect={"excluded": True, "surviving": []},
        )
    tr.op(
        tag,
        "groups.three_group_options",
        note=(
            "a 3-group avoiding the three excluded subgroups while "
            "containing an elementary abelian rank-2 subgroup is one of the "
            "two small types; hence the Sylow 3-subgroup is cyclic, "
            "elementary abelian of rank 2, or the order-27 metacyclic type"
        ),
        _expect={"hypothesis_met": ["Z3xZ3", "Z9semiZ3"], "all_small": True},
    )
    for name in ("Z3xZ3", "Z9semiZ3"):
        tr.op(
            tag,
            "groups.normal_rank",
            name=name,
            p=3,
            note=(
                "normal rank at most two gives a normal 3-complement for the "
                "smallest prime; adjoining an order-3 (or order-9) subgroup "
                "yields an index-3 subgroup with all Sylow subgroups cyclic"
            ),
            _expect=2,
        )
    tr.op(
        tag,
        "cohomology.odd_divisor_candidates",
        values=lef,
        note=(
            "metacyclic class index divides 3, on the group itself (cyclic "
            "Sylow 3) or on the index-3 complement-extension"
        ),
        _expect=[1, 3],
    )
    return _divisors(9)


def lemma56_branch(
    profile: cohomology.FixedPointProfile,
) -> tuple[frozenset[int], list[TraceStep]]:
    """Admissible indices for one five-dimensional fixed-point profile.

    The profile must come from the budget-6 census; anything else is
    rejected.
    """
    if profile not in cohomology.enumerate_profiles(6, 5):
        raise ValueError(f"profile {profile.components} is not in the census")
    tr = _Tracer()
    tag = "fixed-dim-5:" + ",".join(profile.components)
    _splitting_steps(tr, tag)
    if profile.count("CP1xS3") == 1:
        # the odd part acts on the unique such component
        bounds = _cp1s3_component_steps(tr, tag)
    else:
        bounds = _stabilizer_bound(profile.count("S5"), _s5_component_steps(tr, tag))
    return bounds, tr.steps


def mod3_branch(
    profile: cohomology.FixedPointProfile,
) -> tuple[frozenset[int], list[TraceStep]]:
    """Sharper indices when the universal cover is also a mod-3 type and
    the fixed set is two or three rational 5-spheres."""
    k = profile.count("S5")
    if profile.count("CP1xS3") or k not in (2, 3):
        raise ValueError(
            "the mod-3 refinement applies to two or three sphere components"
        )
    tr = _Tracer()
    tag = f"mod3:{','.join(profile.components)}"
    totals = tr.op(
        tag,
        "bazaikin.mod3_betti_totals",
        note="mod-3 Betti total of the universal cover is at most 10",
        _expect={bazaikin.MOD3_CP2xS9: 6, bazaikin.MOD3_CP4xS5: 10},
    )
    per_component = max(totals.values()) // k
    census = tr.op(
        tag,
        "cohomology.mod_p_component_census",
        budget=per_component,
        note=(
            f"{k} components share the mod-3 budget, so one has total at "
            f"most {per_component}; duality and the degree-1/2 torsion "
            "linkage leave only these shapes"
        ),
    )
    names = [c[0] for c in census]
    _gate(
        set(names) <= {"S5", "S2xS3"},
        "the census has a component shape other than S5 and S2xS3",
    )
    if "S5" in names:
        tr.axiom(
            tag,
            "smith",
            note="no free rank-two elementary abelian 3-group on a mod-3 "
            "cohomology 5-sphere component",
        )
    if "S2xS3" in names:
        tr.op(
            tag,
            "spectral.exhaustive_verdict",
            p=3,
            note=(
                "exhaustive differential sweep: some class of total degree 6 "
                "in the quotient fibration always survives, so no free "
                "rank-two elementary abelian 3-group on this component type"
            ),
            _expect={
                "verdict": True,
                "min_deg6_survivors": 4,
                "choices_examined": 166213,
            },
        )
    ds = tr.op(
        tag,
        "cohomology.odd_divisor_candidates",
        values=[3],
        note=(
            "with the 3-rank obstruction removed, all Sylow subgroups of the "
            "component stabilizer are cyclic and its metacyclic class index "
            "divides 3"
        ),
        _expect=[1, 3],
    )
    return _stabilizer_bound(k, ds), tr.steps


def _dim7_branch(tr: _Tracer) -> frozenset[int]:
    """Seven-dimensional circle-fixed set: either directly cyclic or the
    situation reduces to the other branches."""
    tag = "fixed-dim-7"
    tr.op(
        tag,
        "cohomology.frankel_compatible",
        dims=[7, 7],
        ambient=AMBIENT_DIM,
        note="two seven-dimensional components cannot coexist",
        _expect=False,
    )
    tr.axiom(
        tag,
        "frankel",
        note=(
            "used twice: once to rule out a second 7-dimensional component, "
            "once to force an intersection (hence a torus fixed point) when "
            "a second circle also has a large fixed set"
        ),
    )
    tr.axiom(
        tag,
        "connectedness_lemma",
        note=(
            "a connected 7-dimensional component pulls back the degree-2 "
            "class, so extra components have total Betti number at most 2 "
            "and fall to the low-dimensional branches"
        ),
    )
    tr.axiom(
        tag,
        "berger_sugahara",
        note=(
            "if the circle acts with a finite nontrivial isotropy group, its "
            "fixed submanifold meets a second circle with lower-dimensional "
            "fixed set (or yields a torus fixed point); with no finite "
            "isotropy the fundamental group is cyclic outright"
        ),
    )
    return frozenset({1})


def theorem_a_report(scenario: ScenarioInput) -> ObstructionReport:
    """Admissible cyclic-subgroup indices for the scenario, with trace."""
    tr = _Tracer()
    bounds: frozenset[int] = frozenset()
    if scenario.symmetry_rank == 3:
        tr.axiom(
            "rank3",
            "berger_sugahara",
            note="some rank-two subtorus has a fixed point; the fixed-point "
            "branch applies verbatim",
        )
        bounds = _torus_fixed_branch(tr)
    else:
        tr.axiom(
            "rank2",
            "berger_sugahara",
            note="choose a circle in the torus with nonempty fixed set; its "
            "fixed components have odd dimension at most 7",
        )
        bounds = _torus_fixed_branch(tr)
        bounds |= _dim_1_3_branch(tr)
        profiles = tr.op(
            "fixed-dim-5",
            "cohomology.enumerate_profiles",
            budget=6,
            dim=5,
            note="all five-dimensional fixed-set profiles within the Betti "
            "budget of the ambient rational type",
        )
        for comps in profiles:
            profile = cohomology.FixedPointProfile(tuple(comps))
            use_mod3 = (
                scenario.cohomology_type == MOD3
                and profile.count("CP1xS3") == 0
                and profile.count("S5") >= 2
            )
            if use_mod3:
                sub_bounds, steps = mod3_branch(profile)
            else:
                sub_bounds, steps = lemma56_branch(profile)
            tr.steps.extend(steps)
            bounds |= sub_bounds
        bounds |= _dim7_branch(tr)
    invoked = {s.name for s in tr.steps if s.kind == "axiom"}
    return ObstructionReport(
        scenario=scenario,
        index_bound_set=bounds,
        case_trace=tuple(tr.steps),
        axioms_used=tuple(a for a in AXIOMS if a in invoked),
    )
