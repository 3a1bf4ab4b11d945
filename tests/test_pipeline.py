import ast
import dataclasses
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pcurv13 import cohomology as ch
from pcurv13 import cli, gates, groups
from pcurv13 import pipeline as pl

SRC = Path(pl.__file__).resolve().parent


def divisors(n):
    return {d for d in range(1, n + 1) if n % d == 0}


def profile(*comps):
    return tuple(comps)


# --- headline conclusions ---------------------------------------------------


def test_rank2_rational_bounds():
    rep = pl.theorem_a_report(pl.ScenarioInput(2, pl.RATIONAL))
    assert set(rep.index_bound_set) == {27} | divisors(18)
    assert set(rep.index_bound_set) == {1, 2, 3, 6, 9, 18, 27}


def test_rank2_mod3_bounds():
    rep = pl.theorem_a_report(pl.ScenarioInput(2, pl.MOD3))
    assert set(rep.index_bound_set) == {1, 2, 3, 6, 9}
    assert max(rep.index_bound_set) <= 9


def test_rank3_bounds():
    for coh in (pl.RATIONAL, pl.MOD3):
        rep = pl.theorem_a_report(pl.ScenarioInput(3, coh))
        assert set(rep.index_bound_set) == {1, 2, 3}


def test_mod3_is_subset_of_rational():
    rat = pl.theorem_a_report(pl.ScenarioInput(2, pl.RATIONAL)).index_bound_set
    m3 = pl.theorem_a_report(pl.ScenarioInput(2, pl.MOD3)).index_bound_set
    assert m3 <= rat


def test_scenario_validation():
    with pytest.raises(ValueError):
        pl.ScenarioInput(4, pl.RATIONAL)
    with pytest.raises(ValueError):
        pl.ScenarioInput(2, "integral")


# --- replay and axioms --------------------------------------------------------


def test_every_trace_step_replays():
    for rank, coh in [(2, pl.RATIONAL), (2, pl.MOD3), (3, pl.RATIONAL)]:
        rep = pl.theorem_a_report(pl.ScenarioInput(rank, coh))
        for step in rep.case_trace:
            assert pl.replay_step(step), (rank, coh, step.name)


@pytest.mark.parametrize("rank, coh", [(2, pl.RATIONAL), (2, pl.MOD3), (3, pl.RATIONAL)])
def test_a_trace_read_from_its_json_equals_the_live_trace(rank, coh, capsys):
    """The steps rebuilt from `theorem-a --json`, as a replay from disk
    rebuilds them, equal the live steps, inputs and outputs included."""
    assert cli.main(["theorem-a", "--rank", str(rank), "--cohomology", coh, "--json"]) == 0
    saved = json.loads(capsys.readouterr().out)["trace"]
    report = pl.theorem_a_report(pl.ScenarioInput(rank, coh))
    assert [pl.TraceStep(**s) for s in saved] == list(report.case_trace)


def test_axioms_used_are_the_trace_axiom_steps():
    counts = {(2, pl.RATIONAL): 6, (2, pl.MOD3): 7, (3, pl.RATIONAL): 3}
    for (rank, coh), n in counts.items():
        rep = pl.theorem_a_report(pl.ScenarioInput(rank, coh))
        invoked = {s.name for s in rep.case_trace if s.kind == "axiom"}
        assert invoked <= set(pl.AXIOMS)
        assert rep.axioms_used == tuple(a for a in pl.AXIOMS if a in invoked)
        assert len(rep.axioms_used) == n
    rational = pl.theorem_a_report(pl.ScenarioInput(2, pl.RATIONAL))
    assert "smith" not in rational.axioms_used


def test_trace_steps_name_registry_ops_or_axioms():
    rep = pl.theorem_a_report(pl.ScenarioInput(2, pl.MOD3))
    for step in rep.case_trace:
        if step.kind == "op":
            assert step.name in pl.OPS
        else:
            assert step.kind == "axiom" and step.name in pl.AXIOMS


def test_live_divisibility_recordings():
    rep = pl.theorem_a_report(pl.ScenarioInput(2, pl.RATIONAL))
    # the even-generator component branch recomputes d = 1
    cp_steps = [
        s
        for s in rep.case_trace
        if s.tag.endswith("CP1xS3") and s.name == "cohomology.odd_divisor_candidates"
    ]
    assert cp_steps and all(s.output == [1] for s in cp_steps)
    # the single-sphere branch recomputes d | 3
    s5_steps = [
        s
        for s in rep.case_trace
        if s.tag == "fixed-dim-5:S5" and s.name == "cohomology.odd_divisor_candidates"
    ]
    assert s5_steps and all(s.output == [1, 3] for s in s5_steps)


# --- branch operations ----------------------------------------------------------


def test_lemma56_branch_bounds():
    cases = [
        (profile("CP1xS3"), {1, 2}),
        (profile("S5"), {1, 3, 9}),
        (profile("S5", "S5"), divisors(18)),
        (profile("S5", "S5", "S5"), divisors(18) | divisors(27)),
        (profile("S5", "CP1xS3"), {1, 2}),
    ]
    for prof, expect in cases:
        bounds, steps = pl.lemma56_branch(prof)
        assert set(bounds) == expect, prof
        assert steps
        for s in steps:
            assert pl.replay_step(s)


def test_lemma56_rejects_unknown_profile():
    with pytest.raises(ValueError):
        pl.lemma56_branch(profile("S3"))


def test_mod3_branch_bounds():
    b2, steps2 = pl.mod3_branch(profile("S5", "S5"))
    assert set(b2) == divisors(6)
    b3, steps3 = pl.mod3_branch(profile("S5", "S5", "S5"))
    assert set(b3) == {1, 2, 3, 6, 9}
    for s in steps2 + steps3:
        assert pl.replay_step(s)


def test_mod3_branch_uses_spectral_verdict_for_two_spheres():
    _, steps = pl.mod3_branch(profile("S5", "S5"))
    names = [s.name for s in steps]
    assert "spectral.exhaustive_verdict" in names
    _, steps3 = pl.mod3_branch(profile("S5", "S5", "S5"))
    # with three components the census leaves only the sphere shape
    names3 = [s.name for s in steps3]
    assert "spectral.exhaustive_verdict" not in names3
    assert any(s.kind == "axiom" and s.name == "smith" for s in steps3)


def test_mod3_branch_rejects_wrong_profiles():
    with pytest.raises(ValueError):
        pl.mod3_branch(profile("CP1xS3"))
    with pytest.raises(ValueError):
        pl.mod3_branch(profile("S5"))


def test_both_branches_take_exactly_the_census_profiles():
    """Each branch rejects a profile outside the budget-6 census, also one
    listed out of vocabulary order, and keeps its bounds on the census."""
    for comps in [("S3", "S5", "S5"), ("S5", "S5", "S7", "S7"), ("CP1xS3", "S5")]:
        for branch in (pl.lemma56_branch, pl.mod3_branch):
            with pytest.raises(ValueError, match=r"^profile \(.*\) is not in the census$"):
                branch(comps)
    lemma56 = {
        ("S5",): {1, 3, 9},
        ("S5", "S5"): divisors(18),
        ("S5", "S5", "S5"): divisors(18) | divisors(27),
        ("CP1xS3",): {1, 2},
        ("S5", "CP1xS3"): {1, 2},
    }
    mod3 = {("S5", "S5"): divisors(6), ("S5", "S5", "S5"): {1, 2, 3, 6, 9}}
    assert ch.enumerate_profiles(6, 5) == list(lemma56)
    for prof, expect in lemma56.items():
        assert set(pl.lemma56_branch(prof)[0]) == expect, prof
        if prof in mod3:
            assert set(pl.mod3_branch(prof)[0]) == mod3[prof], prof
        else:
            with pytest.raises(ValueError, match="two or three sphere components"):
                pl.mod3_branch(prof)


# --- report object ---------------------------------------------------------------


def test_report_json_shape():
    rep = pl.theorem_a_report(pl.ScenarioInput(2, pl.MOD3))
    js = rep.to_json()
    assert js["scenario"] == {"rank": 2, "cohomology": "mod3"}
    assert js["index_bounds"] == sorted(rep.index_bound_set)
    assert js["axioms"] == list(rep.axioms_used)
    assert all({"tag", "kind", "name", "inputs", "output"} <= set(s) for s in js["trace"])
    text = rep.explain()
    assert "admissible cyclic-subgroup indices: 1, 2, 3, 6, 9" in text


def test_empty_bounds_rejected():
    with pytest.raises(ValueError):
        pl.ObstructionReport(
            scenario=pl.ScenarioInput(2, pl.RATIONAL),
            index_bound_set=frozenset(),
            case_trace=(),
        )


# --- proof gates ------------------------------------------------------------------


def test_pipeline_gate_survives_optimize_flag():
    script = """
import sys
from pcurv13 import cohomology, gates, pipeline as pl
print("optimize:", sys.flags.optimize)
cohomology.davis_parity = lambda betti: 2
try:
    pl.theorem_a_report(pl.ScenarioInput(2, "rational"))
except gates.ProofGateError as exc:
    print("gate:", exc)
    sys.exit(0)
sys.exit(1)
"""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "optimize: 1" in proc.stdout
    assert "alternating Betti sum is even" in proc.stdout


# (tag, op) pairs that carry no expected output: the Betti vector and the
# quotient indices feed later gated steps, and the Davis parity and the
# mod-3 census shape are gated on a derived value
_UNGATED_IN_BOTH = {
    ("torus-fixed", "bazaikin.rational_betti"),
    ("fixed-dim-5:S5", "groups.small_normal_quotient_index"),
    *(
        (tag, name)
        for tag in (
            "fixed-dim-1-3",
            "fixed-dim-5:S5",
            "fixed-dim-5:CP1xS3",
            "fixed-dim-5:S5,CP1xS3",
        )
        for name in ("bazaikin.rational_betti", "cohomology.davis_parity")
    ),
}
UNGATED = {
    pl.RATIONAL: _UNGATED_IN_BOTH
    | {
        (tag, name)
        for tag in ("fixed-dim-5:S5,S5", "fixed-dim-5:S5,S5,S5")
        for name in (
            "bazaikin.rational_betti",
            "cohomology.davis_parity",
            "groups.small_normal_quotient_index",
        )
    },
    pl.MOD3: _UNGATED_IN_BOTH
    | {
        ("mod3:S5,S5", "cohomology.mod_p_component_census"),
        ("mod3:S5,S5,S5", "cohomology.mod_p_component_census"),
    },
}


def _changed(out):
    """A different output of the same kind."""
    if isinstance(out, bool):
        return not out
    if isinstance(out, int):
        return out + 1
    if isinstance(out, list):
        return out + [out[-1] if out else 1]
    return {**out, "extra": True}


def _changing_call(op, nth):
    """``op`` with the output of its nth call (counting from 0) changed."""
    calls = itertools.count()

    def changed_op(**inputs):
        out = op(**inputs)
        return _changed(out) if next(calls) == nth else out

    return changed_op


@pytest.mark.parametrize("coh", [pl.RATIONAL, pl.MOD3])
def test_every_gated_step_stops_a_changed_output(coh, monkeypatch):
    """Change one op step's output at a time: a gated step raises at once,
    naming itself, what it got and the output it expected; the pinned pairs
    reach a later check or the end."""
    scenario = pl.ScenarioInput(2, coh)
    calls_so_far = {}
    ungated = set()
    for step in pl.theorem_a_report(scenario).case_trace:
        if step.kind != "op":
            continue
        nth = calls_so_far[step.name] = calls_so_far.get(step.name, -1) + 1
        message = (
            f"[{step.tag}] {step.name} gave {_changed(step.output)!r}, "
            f"expected {step.output!r}"
        )
        with monkeypatch.context() as m:
            m.setitem(pl.OPS, step.name, _changing_call(pl.OPS[step.name], nth))
            try:
                pl.theorem_a_report(scenario)
            except gates.ProofGateError as exc:
                if str(exc) == message:
                    continue
            except ValueError:
                pass  # a changed Betti vector fails the parity criterion's dimension check
        ungated.add((step.tag, step.name))
    assert ungated == UNGATED[coh]


# --- each distinct step once per process -------------------------------------------


def test_registry_hit_is_an_independent_copy():
    op = pl.OPS["groups.three_group_options"]
    first = op()
    second = op()
    assert first == second and first is not second
    assert first["hypothesis_met"] is not second["hypothesis_met"]
    first["hypothesis_met"].append("Z27")
    first["all_small"] = False
    assert op() == {"hypothesis_met": ["Z3xZ3", "Z9semiZ3"], "all_small": True}


def test_registry_hands_out_json_values():
    """An op's output reaches every caller as JSON reads it back: a tuple
    as a list, a set as a sorted list, an int key as a string."""
    op = pl._once_per_process(
        "test.json_values", lambda: [(1, 2), frozenset({3, 1, 2}), {5: "five"}]
    )
    first = op()
    second = op()
    assert first == [[1, 2], [1, 2, 3], {"5": "five"}]
    assert first == second and first is not second


def test_replay_after_a_live_run_still_stops_a_changed_output():
    rep = pl.theorem_a_report(pl.ScenarioInput(2, pl.RATIONAL))
    ops = [s for s in rep.case_trace if s.kind == "op"]
    assert ops
    for step in ops:
        assert pl.replay_step(step)
        assert not pl.replay_step(dataclasses.replace(step, output=_changed(step.output)))


def test_replay_rejects_malformed_steps():
    rep = pl.theorem_a_report(pl.ScenarioInput(2, pl.RATIONAL))
    op = next(s for s in rep.case_trace if s.kind == "op")
    axiom = next(s for s in rep.case_trace if s.kind == "axiom")
    assert pl.replay_step(op) and pl.replay_step(axiom)
    malformed = [
        dataclasses.replace(op, kind="bogus"),  # an unknown kind naming a registered op
        dataclasses.replace(op, name="cohomology.no_such_op"),
        dataclasses.replace(axiom, name="no such axiom"),
        dataclasses.replace(axiom, inputs={"p": 3}),  # an axiom takes no inputs
        dataclasses.replace(op, inputs={**op.inputs, "bogus": 1}),  # an input the op does not take
        pl.TraceStep(  # inputs the op rejects
            tag="x", kind="op", name="groups.normal_rank", inputs={"name": "Z6", "p": 3}, output=2
        ),
    ]
    for step in malformed:
        assert pl.replay_step(step) is False, step


def test_registry_stores_no_raising_op():
    for _ in range(2):
        with pytest.raises(groups.GroupError, match="needs a 3-group"):
            pl.OPS["groups.normal_rank"](name="Z6", p=3)


def test_reports_repeat_in_one_process():
    for rank, coh in [(2, pl.RATIONAL), (2, pl.MOD3), (3, pl.RATIONAL)]:
        scenario = pl.ScenarioInput(rank, coh)
        first = pl.theorem_a_report(scenario).to_json()
        assert pl.theorem_a_report(scenario).to_json() == first


def test_fresh_rational_run_evaluates_each_distinct_group_step_once():
    """The rational trace repeats its group steps across branches (73 op
    steps, 28 distinct); evaluated at every step they cost 105 pattern
    searches, 66 tables and 9 isomorphism tests."""
    script = """
import collections, contextlib, io, json
from pcurv13 import cli, groups

calls = collections.Counter()

def counting(name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return counted

groups.contains_copy = counting("pattern_searches", groups.contains_copy)
groups.is_isomorphic = counting("isomorphism_tests", groups.is_isomorphic)
groups.GroupTable.__init__ = counting("tables", groups.GroupTable.__init__)
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["theorem-a", "--rank", "2", "--cohomology", "rational", "--json"])
print(json.dumps({"rc": rc, **calls}))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    assert counts == {"rc": 0, "pattern_searches": 35, "tables": 22, "isomorphism_tests": 3}


def test_no_bare_asserts_in_the_package():
    """``python -O`` strips assert statements, so a proof gate must raise."""
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
