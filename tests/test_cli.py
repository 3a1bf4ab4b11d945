import argparse
import collections
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcurv13 import bazaikin as bz
from pcurv13 import cli, gates
from pcurv13 import groups as gr
from pcurv13 import spectral as ss
from pcurv13.cli import main

SRC = Path(cli.__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bazaikin_check_json(capsys):
    code, out, _ = run_cli(capsys, "bazaikin", "check", "1", "1", "1", "1", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["q"] == [1, 1, 1, 1, 1]
    assert data["free"] is True
    assert data["curvature"] == "positive"
    assert data["e3"] == 10
    assert data["m"] == "10/8"
    assert data["m_integral"] is False
    assert data["mod3_type"] == "CP2xS9"


def test_bazaikin_check_human(capsys):
    code, out, _ = run_cli(capsys, "bazaikin", "check", "5", "3", "3", "1", "1")
    assert code == 0
    assert "free action: NO" in out
    assert "gcd 4" in out


def test_bazaikin_enumerate_tsv(capsys):
    code, out, _ = run_cli(capsys, "bazaikin", "enumerate", "--bound", "1", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 and lines[1].startswith("1\t1\t1\t1\t1")


def test_bazaikin_enumerate_tsv_bound_7(capsys):
    code, out, _ = run_cli(capsys, "bazaikin", "enumerate", "--bound", "7", "--format", "tsv")
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert header == "q1\tq2\tq3\tq4\tq5\te3\tm\tm_integral\tmod3_type"
    assert len(rows) == 13
    assert all(len(row.split("\t")) == 9 for row in rows)


def test_bazaikin_enumerate_json(capsys):
    code, out, _ = run_cli(capsys, "bazaikin", "enumerate", "--bound", "3", "--format", "json")
    data = json.loads(out)
    assert data["count"] == len(data["spaces"]) == 2
    assert all(s["free"] for s in data["spaces"])


def bazaikin_check_oracle(q):
    """The `bazaikin check --json` document of q, from a gcd loop over the
    15 disjoint pairs of pairs, check_curvature and e3; m = e3/8 is integral
    iff 8 divides e3, and 3 divides m iff 3 divides e3."""
    canonical = bz.canonicalize(q)
    all_odd = all(x % 2 for x in canonical)
    failing_pairs = []
    for (i, j), (k, l) in bz.DISJOINT_PAIR_COMBINATIONS:
        g = math.gcd(canonical[i] + canonical[j], canonical[k] + canonical[l])
        if g != 2:
            failing_pairs.append([[i, j], [k, l], g])
    e = bz.e3(canonical)
    row = {
        "q": list(canonical),
        "free": all_odd and not failing_pairs,
        "all_odd": all_odd,
        "failing_pairs": failing_pairs,
        "curvature": bz.check_curvature(canonical).value,
        "e3": e,
        "m": f"{e}/8",
        "m_integral": e % 8 == 0,
        "mod3_type": "CP4xS5" if e % 3 == 0 else "CP2xS9",
    }
    return json.dumps(row, indent=2) + "\n"


BAZAIKIN_CHECK_EDGE_CASES = [
    (1, 1, 1, 1, 1),
    (2, 1, 1, 1, 1),  # an even entry
    (0, 0, 0, 0, 0),
    (2, 0, 0, 0, 0),  # e3 = 0, so m = 0 is integral and divisible by 3
    (2, 2, 1, 0, 0),  # e3 = 4, so m = 1/2
    (2, 2, 2, 1, 1),  # e3 = 20, 4 mod 8 again
    (-1, -1, -1, -1, -3),  # all negative
    (-3, 5, -1, 7, 1),  # mixed signs, not in canonical order
    (1, 3, 5, 7, 9),  # increasing
    (1, 1, -1, -1, 0),  # two of each sign: the tie-break picks the larger
    (3, 1, 0, -1, -3),
    (4, 4, 4, 4, 4),
]


def test_bazaikin_check_json_matches_the_oracle(capsys):
    sample = random.Random(20261019).choices(range(-4, 5), k=5 * 80)
    tuples = BAZAIKIN_CHECK_EDGE_CASES + [tuple(sample[i : i + 5]) for i in range(0, len(sample), 5)]
    residues = set()
    for q in tuples:
        code, out, _ = run_cli(capsys, "bazaikin", "check", *map(str, q), "--json")
        assert code == 0
        assert out == bazaikin_check_oracle(q), q
        residues.add(bz.e3(bz.canonicalize(q)) % 8)
    # every residue of e3 mod 8 occurs, so m_integral is told from e3 % 4 == 0
    assert residues == set(range(8))


@pytest.mark.parametrize(
    "argv, e3_calls",
    [("bazaikin enumerate --bound 19", 422), ("bazaikin check 1 1 1 1 1", 1)],
)
def test_bazaikin_row_facts_are_derived_once_outside_cli(argv, e3_calls, capsys, monkeypatch):
    # one e3 per row, and cli derives no row fact itself
    callers = collections.Counter()
    for name in ("check_curvature", "e3"):
        def spy(*args, _fn=getattr(bz, name), _name=name):
            callers[_name, sys._getframe(1).f_globals["__name__"]] += 1
            return _fn(*args)

        monkeypatch.setattr(bz, name, spy)
    code, _, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert sum(n for (name, _), n in callers.items() if name == "e3") == e3_calls
    assert [key for key in callers if key[1] == cli.__name__] == []


def test_group_build_stdout_and_analyze(tmp_path, capsys):
    path = tmp_path / "g.grp"
    code, out, _ = run_cli(capsys, "group", "build", "--burnside", "7", "3", "2")
    assert code == 0
    assert out.startswith("order 21\n")

    code, _, _ = run_cli(
        capsys, "group", "build", "--burnside", "7", "3", "2", "--out", str(path)
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "group", "analyze", "--in", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 21
    assert data["sylow"] == {"3": True, "7": True}
    assert data["p2"] == {"3": True, "7": True}
    assert data["min_cyclic_index"] == 3
    assert data["normal_rank"] is None
    assert data["davis"] == {"a": 0, "two_part": 1, "odd_order": 21}


# groups of several orders, abelian or not, with normal and non-normal,
# cyclic and non-cyclic Sylow subgroups, p-groups among them
ANALYZE_SET = (
    "Z12", "S3", "Z3xS3", "Z2xZ4", "Z2xZ2xZ2", "U33", "Z9semiZ3", "Z9xZ3",
    "Z3xZ3xZ3xZ3", "B(5,4,2)", "Z6xBurnside(7,3,2)", "Z16xU33",
)


def analyze_set_outputs(tmp_path, capsys):
    """`group analyze --json` of each ANALYZE_SET table, written with
    write_group_file, concatenated in order."""
    outputs = []
    for i, name in enumerate(ANALYZE_SET):
        path = tmp_path / f"{i}.grp"
        with open(path, "w", encoding="utf-8") as fh:
            gr.write_group_file(gr.build_standard(name), fh)
        code, out, _ = run_cli(capsys, "group", "analyze", "--in", str(path), "--json")
        assert code == 0, name
        outputs.append(out)
    return "".join(outputs)


def test_group_analyze_pinned(tmp_path, capsys):
    out = analyze_set_outputs(tmp_path, capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ef32d408e1effac1659e1b6f84a9f7f39aea4b3c5d3e8f5186f9b60df3886f2e"
    )


def test_group_build_name_roundtrip(tmp_path, capsys):
    path = tmp_path / "u.grp"
    code, _, _ = run_cli(capsys, "group", "build", "--name", "U33", "--out", str(path))
    assert code == 0
    G = gr.read_group_file(path)
    assert np.array_equal(G.table, gr.build_standard("U33").table)


def test_group_build_invalid_params(capsys):
    code, _, err = run_cli(capsys, "group", "build", "--burnside", "4", "2", "3")
    assert code == 2
    assert "gcd" in err


def test_group_analyze_rejects_oversized_order(tmp_path, capsys):
    path = tmp_path / "big.grp"
    path.write_text(f"order {gr.ORDER_CAP + 1}\n")
    code, _, err = run_cli(capsys, "group", "analyze", "--in", str(path))
    assert code == 2
    assert f"order {gr.ORDER_CAP + 1} outside supported range 1..{gr.ORDER_CAP}" in err


def test_group_analyze_rejects_ragged_row(tmp_path, capsys):
    path = tmp_path / "ragged.grp"
    path.write_text("order 3\n0 1 2\n1 2\n2 0 1\n")
    code, _, err = run_cli(capsys, "group", "analyze", "--in", str(path))
    assert code == 2
    assert "table row 2 has 2 entries, expected 3" in err


def test_group_analyze_rejects_an_entry_that_would_wrap_under_int16(tmp_path, capsys):
    # 65536 is 0 in int16, the right entry of Z2 at (1, 1)
    path = tmp_path / "wrap.grp"
    path.write_text("order 2\n0 1\n1 65536\n")
    code, out, err = run_cli(capsys, "group", "analyze", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: cannot read group table: table entries out of range\n"


@pytest.mark.parametrize(
    "entry, line",
    [
        (
            "99999999999999999999999",
            "table row 2 entry 2 is not an int64 integer: '99999999999999999999999'",
        ),
        ("0.5", "table row 2 entry 2 is not an int64 integer: '0.5'"),
        # int() itself refuses more than 4300 digits with advice for Python code
        pytest.param(
            "9" * 5000, "table row 2 entry 2 is not an int64 integer: '99999", id="<5000 nines>"
        ),
    ],
)
def test_group_analyze_rejects_entry_that_is_no_int64(entry, line, tmp_path, capsys):
    path = tmp_path / "bad.grp"
    path.write_text(f"order 2\n0 1\n1 {entry}\n")
    code, out, err = run_cli(capsys, "group", "analyze", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read group table: {line}")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "header, line",
    [
        ("order x", "group file must start with 'order n'"),
        ("order 2 3", "group file must start with 'order n'"),
        ("order", "group file must start with 'order n'"),
        ("size 2", "group file must start with 'order n'"),
        pytest.param(f"order {'9' * 5000}", "order has more than 1000 digits", id="order <5000 nines>"),
    ],
)
def test_group_analyze_reads_a_header_of_order_and_one_integer(header, line, tmp_path, capsys):
    path = tmp_path / "bad.grp"
    path.write_text(f"{header}\n0 1\n1 0\n")
    code, out, err = run_cli(capsys, "group", "analyze", "--in", str(path))
    assert (code, out, err) == (2, "", f"error: cannot read group table: {line}\n")
    path.write_text(" order  2 \n0 1\n1 0\n")
    code, out, err = run_cli(capsys, "group", "analyze", "--in", str(path))
    assert (code, err) == (0, "") and out.startswith("order: 2\n")


def test_fixedpoint_profiles(capsys):
    code, out, _ = run_cli(capsys, "fixedpoint", "profiles", "--budget", "6", "--dim", "5", "--json")
    data = json.loads(out)
    assert data["profiles"] == [
        ["S5"],
        ["S5", "S5"],
        ["S5", "S5", "S5"],
        ["CP1xS3"],
        ["S5", "CP1xS3"],
    ]


def test_fixedpoint_profiles_of_circles_are_empty(capsys):
    # S1 has b1 = 1, so no fixed component is a circle: the census is empty,
    # as it is in dimension 9 where the vocabulary has no type at all
    for dim in ("1", "9"):
        code, out, err = run_cli(capsys, "fixedpoint", "profiles", "--dim", dim, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"profiles": []}


def test_fixedpoint_gysin(capsys):
    code, out, _ = run_cli(capsys, "fixedpoint", "gysin", "--space", "S5", "--fixed", "empty")
    data = json.loads(out)
    assert data["R"] == [1, 0, 1, 0, 1]
    assert data["chi_bar"] == 3


def test_fixedpoint_gysin_unknown_space(capsys):
    code, _, err = run_cli(capsys, "fixedpoint", "gysin", "--space", "K3", "--fixed", "empty")
    assert code == 2 and "unknown space" in err


def test_fixedpoint_obstruct(capsys):
    code, out, _ = run_cli(capsys, "fixedpoint", "obstruct", "--group", "cd:3", "--lef", "1,4")
    data = json.loads(out)
    assert data["excluded"] is True and data["surviving"] == []


def test_ss_verify(capsys):
    code, out, _ = run_cli(capsys, "ss", "verify", "--p", "3")
    data = json.loads(out)
    assert list(data) == ["p", "choices", "min_deg6_survivors", "free_action_possible"]
    assert data["p"] == 3
    assert data["free_action_possible"] is False
    assert data["min_deg6_survivors"] >= 1
    assert data["choices"] > 0


def test_ss_verify_trace(capsys):
    code, out, _ = run_cli(capsys, "ss", "verify", "--p", "3", "--trace")
    data = json.loads(out)
    assert data["pages"][0]["r"] == 2
    assert data["pages"][-1]["r"] == "inf"
    assert data["pages"][-1]["total_degree_6"] == data["min_deg6_survivors"]


def test_ss_verify_trace_checks_the_page_engine(capsys, monkeypatch):
    run_choice_pages = ss.run_choice_pages

    def one_more_survivor(p, choice):
        *pages, limit = run_choice_pages(p, choice)
        dims = dict(limit.dims)
        dims[(6, 0)] = dims.get((6, 0), 0) + 1
        return [*pages, ss.BigradedPage(r=None, dims=dims)]

    monkeypatch.setattr(ss, "run_choice_pages", one_more_survivor)
    with pytest.raises(gates.ProofGateError, match="leaves 5 degree-6 survivors"):
        main(["ss", "verify", "--p", "3", "--trace"])
    assert capsys.readouterr().out == ""


def test_ss_verify_stats(capsys):
    code, out, _ = run_cli(capsys, "ss", "verify", "--p", "3", "--stats")
    assert code == 0
    data = json.loads(out)
    stats = data["stats"]
    assert {k: stats[k] for k in ("frames", "frame_orbits", "zero_frame_d4x_orbits")} == {
        "frames": 267,
        "frame_orbits": 18,
        "zero_frame_d4x_orbits": 10,
    }
    assert {k: stats[k] for k in ("d4x_lines", "d4xy_lines", "d6_lines")} == {
        "d4x_lines": 172,
        "d4xy_lines": 30,
        "d6_lines": 23,
    }
    assert stats["choices"] == data["choices"] == 166213
    assert stats["orbit_build_s"] >= 0 and stats["frame_sweep_s"] >= 0
    assert "pages" not in data


def test_ss_verify_bad_prime(capsys):
    code, _, err = run_cli(capsys, "ss", "verify", "--p", "2")
    assert code == 2


def test_theorem_a_json(capsys):
    code, out, _ = run_cli(capsys, "theorem-a", "--rank", "2", "--cohomology", "rational", "--json")
    data = json.loads(out)
    assert data["index_bounds"] == [1, 2, 3, 6, 9, 18, 27]


def test_theorem_a_explain(capsys):
    code, out, _ = run_cli(capsys, "theorem-a", "--rank", "3", "--explain")
    assert code == 0
    assert "axiom berger_sugahara" in out
    assert "admissible cyclic-subgroup indices: 1, 2, 3" in out


def test_theorem_a_summary(capsys):
    code, out, _ = run_cli(capsys, "theorem-a", "--rank", "2", "--cohomology", "mod3")
    assert code == 0
    assert "1, 2, 3, 6, 9" in out


# sha256 of the whole `theorem-a --json` output: replay checks each step on
# its own, this catches any change to the trace as a whole
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "--rank 2 --cohomology rational",
            "a0e3d984c78a1ffbe9b1941292fa22cd696d1c722fbdca535de8d6c46a21e1d5",
        ),
        (
            "--rank 2 --cohomology mod3",
            "319bd3b1157f79fe4586f4333806a0a17956494e3c1e4a14ceba2762ba5f1f40",
        ),
        ("--rank 3", "c5c509f1e94e6e91ee662831e250539816ee30b1087af443fcbedb7f8c11c18f"),
    ],
)
def test_theorem_a_json_pinned(argv, digest, capsys):
    code, out, _ = run_cli(capsys, "theorem-a", *argv.split(), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of whole outputs of the other subcommands, computed before the
# wrapper types of `bazaikin` and `cohomology` gave way to plain values
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "bazaikin enumerate --bound 19 --format json",
            "3f09cc7053c5cd4e56f1988815ea7ecc42234753ccdf8384e1d862e6df35b002",
        ),
        (
            "bazaikin enumerate --bound 19 --format tsv",
            "89e5c3a71d997e5a9b2f07c68ea263fda6f6a6b09f0f7b178828cdfd90c5489f",
        ),
        (
            "bazaikin check 1 1 1 1 1 --json",
            "398d843a239cacbe97c391c95dcc068c2c7e8f5fd6ec855e9c54dc6191b527c6",
        ),
        (
            "bazaikin check 5 3 3 1 1 --json",
            "d0f683a7b7080c1c4bafa4efbe39fb7846477ee2640c1242043427d601fd1511",
        ),
        (
            "bazaikin check -1 -1 -1 -1 -3 --json",
            "bc66df059583b71452e8515706b25949eafeb82a6d12771d0d34b8b4f461dae5",
        ),
        (
            "fixedpoint obstruct --group cd:3 --lef 1,4",
            "d42f810a35367aa0fe73a879976d14a5f1c8e1bf717fe54b3acb918a222c3916",
        ),
        (
            "fixedpoint obstruct --group cd:3 --lef 3",
            "47319345ecbb144b90c965ce0d57135ce94322ed6e9643a25b23a56fbb70e9d7",
        ),
        (
            "ss verify --p 3 --trace",
            "4fb41933f75cea7c467b81166d37425ecdaa9fda4754596024ea0a044a298760",
        ),
    ],
)
def test_output_pinned(argv, digest, capsys):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the whole `theorem-a --explain` output: it prints every step's
# inputs and output repr and every note, so a refactor of the case engine
# that changes any of them shows here
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "--rank 2 --cohomology rational",
            "ebc864738f45dcae4612fc1fa0504fd452816dadde6d270d17765bf674a0ebe9",
        ),
        (
            "--rank 2 --cohomology mod3",
            "74c04a362e827783c02d5a35992419ae66dbace925433cd48a5aa7707069cfd0",
        ),
        ("--rank 3", "7d3364fb74b01907225a9aab4b6959b328f26f6322fbab593860aae406162c30"),
    ],
)
def test_theorem_a_explain_pinned(argv, digest, capsys):
    code, out, _ = run_cli(capsys, "theorem-a", *argv.split(), "--explain")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, line",
    [
        ("bazaikin enumerate --bound 0", "bound must be at least 1"),
        ("bazaikin enumerate --bound 50", "bound must be at most 49"),
        ("group build --burnside 7 3 2 --name Z3", "give either --burnside or --name, not both"),
        ("group build", "one of --burnside m n r or --name NAME is required"),
        (
            "group build --burnside 4 2 3",
            "invalid Burnside parameters BurnsideParams(m=4, n=2, r=3): gcd((r-1)*n, m) = 4 != 1",
        ),
        ("group build --name Q8", "unknown group name 'Q8'"),
        ("group build --name Z1000000", "order 1000000 outside supported range 1..512"),
        (
            "group build --name Z3 --out {tmp}/missing/x.grp",
            "cannot write group table: [Errno 2] No such file or directory: '{tmp}/missing/x.grp'",
        ),
        ("group build --name Z3 --out {tmp}", "cannot write group table: [Errno 21] Is a directory: '{tmp}'"),
        (
            "group analyze --in {tmp}/missing.grp",
            "cannot read group table: [Errno 2] No such file or directory: '{tmp}/missing.grp'",
        ),
        ("fixedpoint profiles --budget 1", "budget must be at least 2"),
        ("fixedpoint profiles --budget 1001", "budget must be at most 1000"),
        ("fixedpoint profiles --dim -3", "component dimension must be at least 1"),
        (
            "fixedpoint gysin --space K3",
            "unknown space 'K3'; choose from ['CP1xS3', 'CP2', 'S1', 'S3', 'S5', 'S7']",
        ),
        (
            "fixedpoint gysin --space S5 --fixed S7",
            "fixed component 'S7' has dimension 7, above the dimension 5 of 'S5'",
        ),
        ("fixedpoint gysin --space S5 --fixed ,", "--fixed wants 'empty' or at least one component"),
        ("fixedpoint gysin --space S5 --fixed ''", "--fixed wants 'empty' or at least one component"),
        (
            "fixedpoint obstruct --group xx:3 --lef 1",
            "bad --group (want cd:D or zpxzp:P): kind must be 'cd' or 'zpxzp'",
        ),
        ("fixedpoint obstruct --group zpxzp:4 --lef 4,8", "bad --group (want cd:D or zpxzp:P): 4 is not prime"),
        ("fixedpoint obstruct --group zpxzp:1 --lef 1", "bad --group (want cd:D or zpxzp:P): 1 is not prime"),
        # trial division to the square root of a value this size would not end
        (
            "fixedpoint obstruct --group zpxzp:2305843009213693951 --lef 3",
            "bad --group (want cd:D or zpxzp:P): 2305843009213693951 is above the largest supported prime 2147483647",
        ),
        pytest.param(
            f"fixedpoint obstruct --group zpxzp:{10**400 + 1} --lef 3",
            f"bad --group (want cd:D or zpxzp:P): {10**400 + 1} is above the largest supported prime 2147483647",
            id="fixedpoint obstruct --group zpxzp:10**400+1",
        ),
        # int() itself refuses more than 4300 digits with advice for Python code
        pytest.param(
            f"fixedpoint obstruct --group cd:{'9' * 5000} --lef 3",
            "bad --group (want cd:D or zpxzp:P): index has more than 1000 digits",
            id="fixedpoint obstruct --group cd:<5000 nines>",
        ),
        pytest.param(
            f"fixedpoint obstruct --group zpxzp:{'9' * 1001} --lef 3",
            "bad --group (want cd:D or zpxzp:P): index has more than 1000 digits",
            id="fixedpoint obstruct --group zpxzp:<1001 nines>",
        ),
        pytest.param(
            f"fixedpoint obstruct --group cd:3 --lef {'9' * 5000}",
            "--lef value has more than 1000 digits",
            id="fixedpoint obstruct --group cd:3 --lef <5000 nines>",
        ),
        pytest.param(
            f"group build --name Z{'9' * 5000}",
            "group order has more than 1000 digits",
            id="group build --name Z<5000 nines>",
        ),
        pytest.param(
            f"group build --name B({'9' * 5000},1,1)",
            "Burnside parameter has more than 1000 digits",
            id="group build --name B(<5000 nines>,1,1)",
        ),
        # each value is under int()'s 4300 digits, but the order m*n is not
        pytest.param(
            f"group build --burnside {10**2200 - 1} {2**14000} {10**2200 - 2}",
            "Burnside parameter has more than 1000 digits",
            id="group build --burnside <2200 digits> 2**14000 <2200 digits>",
        ),
        ("fixedpoint obstruct --group cd:3 --lef 1,a", "--lef wants a comma-separated integer list"),
        ("fixedpoint obstruct --group cd:3 --lef ,", "--lef wants at least one integer"),
        ("fixedpoint obstruct --group cd:3 --lef ''", "--lef wants at least one integer"),
        ("ss verify --p 2", "supported primes are (3, 5, 7, 11, 13), got 2"),
        ("theorem-a --rank 2 --json --explain", "give --json or --explain, not both"),
    ],
)
def test_invalid_input_exits_2_with_one_error_line(argv, line, tmp_path, capsys):
    code, out, err = run_cli(capsys, *shlex.split(argv.format(tmp=tmp_path)))
    assert code == 2
    assert out == ""
    assert err == f"error: {line.format(tmp=tmp_path)}\n"


def test_emit_writes_one_document_in_one_call(monkeypatch):
    writes = []
    monkeypatch.setattr(sys, "stdout", argparse.Namespace(write=writes.append))
    data = {"bound": 3, "spaces": [{"q": [1, 1, 1, 1, 1], "free": True, "m": "10/8"}], "x": None}
    cli._emit(data)
    assert writes == [json.dumps(data, indent=2) + "\n"]
    # a payload that cannot be encoded leaves no partial document behind
    writes.clear()
    with pytest.raises(TypeError):
        cli._emit({"a": [1, object()]})
    assert writes == []


@pytest.mark.parametrize(
    "largest, limit_s, next_value, line",
    [
        ("bazaikin enumerate --bound 49", 30, "bazaikin enumerate --bound 50", "bound must be at most 49"),
        ("fixedpoint profiles --budget 1000", 5, "fixedpoint profiles --budget 1001", "budget must be at most 1000"),
        ("ss verify --p 13", 30, "ss verify --p 17", "supported primes are (3, 5, 7, 11, 13), got 17"),
        (
            "group build --name Z512 --out {tmp}/out.grp", 5,
            "group build --name Z513", "order 513 outside supported range 1..512",
        ),
        (
            "group build --name 'Z2 x Z256'", 5,
            "group build --name 'Z3 x Z171'", "order 513 outside supported range 1..512",
        ),
        (
            "group build --burnside 512 1 1", 5,
            "group build --burnside 513 1 1", "order 513 outside supported range 1..512",
        ),
        (
            "group analyze --in {tmp}/512.grp", 5,
            "group analyze --in {tmp}/513.grp",
            "cannot read group table: order 513 outside supported range 1..512",
        ),
        (
            "fixedpoint obstruct --group zpxzp:2147483647 --lef 3", 1,
            "fixedpoint obstruct --group zpxzp:2147483648 --lef 3",
            "bad --group (want cd:D or zpxzp:P): 2147483648 is above the largest supported prime 2147483647",
        ),
        # --dim has no cap: an odd dimension past the vocabulary finds nothing
        (
            "fixedpoint profiles --dim 1000001", 1,
            "fixedpoint profiles --dim 1000000", "component dimension must be odd",
        ),
        # e3 of 2001-digit weights has more digits than int() prints (4300)
        (
            f"bazaikin check {'9' * 1000} {'9' * 1000} {'9' * 1000} 1 1 --json", 1,
            f"bazaikin check 1{'0' * 1000} 1 1 1 1 --json", "weight has more than 1000 digits",
        ),
        (
            f"bazaikin check {'9' * 1000} {'9' * 1000} {'9' * 1000} 1 1", 1,
            f"bazaikin check {'9' * 2001} {'9' * 2001} {'9' * 2001} 1 1", "weight has more than 1000 digits",
        ),
    ],
    ids=[
        "bound", "budget", "p", "name", "product", "burnside", "table-order", "prime", "dim",
        "weight-json", "weight",
    ],
)
def test_size_inputs_run_at_their_largest_value_and_reject_the_next(
    largest, limit_s, next_value, line, tmp_path, capsys
):
    """Each leaf's numeric or size input: the largest accepted value runs
    within a time limit, and the next value exits 2 at once with one line."""
    with (tmp_path / "512.grp").open("w") as fh:
        gr.write_group_file(gr.build_standard("Z512"), fh)
    (tmp_path / "513.grp").write_text("order 513\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *shlex.split(largest.format(tmp=tmp_path)))
    assert (code, err) == (0, "")
    assert time.perf_counter() - start < limit_s
    if largest.startswith("bazaikin enumerate"):
        assert json.loads(out)["count"] == 18981
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *shlex.split(next_value.format(tmp=tmp_path)))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: {line}\n")


def _readme_commands():
    """The `pcurv13 ...` lines of the README's command-line block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("pcurv13 ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert commands
    for line in commands:
        code, _, err = run_cli(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)


LEAVES = [
    ("bazaikin", "check"), ("bazaikin", "enumerate"), ("group", "build"),
    ("group", "analyze"), ("fixedpoint", "profiles"), ("fixedpoint", "gysin"),
    ("fixedpoint", "obstruct"), ("ss", "verify"), ("theorem-a",),
]


def parse_outcome(capsys, parse, argv):
    """Exit code, stdout and stderr of a parse that help or an error ends."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize(
    "argv",
    [[*leaf, "--help"] for leaf in LEAVES]
    + [[*leaf, "--no-such-option"] for leaf in LEAVES]
    + [["--help"], ["group", "analyse"], []]
    # unrecognized arguments, which the top-level usage line reports
    + [["group", "analyze", "--in", "g.grp", "extra"], ["theorem-a", "--rank", "3", "extra"]]
    + [[group, "--help"] for group in ("bazaikin", "group", "fixedpoint", "ss")],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_leaf_parser_prints_and_exits_as_the_full_parser(argv, capsys):
    """Help and errors leave the direct parse for argparse: main prints and
    exits exactly as the full parser does."""
    assert cli._parse_leaf(argv) is None
    called = parse_outcome(capsys, main, argv)
    assert called == parse_outcome(capsys, cli.build_parser().parse_args, argv)
    assert called[0] in (0, 2)


COUNT_PARSERS = """
import argparse, sys
from pcurv13 import cli
built = 0
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
code = cli.main(sys.argv[1:])
sys.stderr.write(f"parsers {built} locale {'locale' in sys.modules}\\n")
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["group", "analyze", "--in", "{table}", "--json"], 0),
        (["theorem-a", "--rank", "3", "--json"], 0),
        # negative values, which argparse also reads as values
        (["bazaikin", "check", "-1", "-1", "-1", "-1", "-3", "--json"], 0),
        (["fixedpoint", "profiles", "--dim", "-3"], 2),
    ],
    ids=["group analyze", "theorem-a", "bazaikin check", "fixedpoint profiles"],
)
def test_a_call_builds_only_its_own_parsers(argv, code, tmp_path):
    """A well-formed call builds no parser, so argparse never looks up a
    translated message (the first lookup imports locale); this holds also
    for a call that the command itself rejects."""
    table = tmp_path / "z3.grp"
    with open(table, "w", encoding="utf-8") as fh:
        gr.write_group_file(gr.build_standard("Z3"), fh)
    proc = subprocess.run(
        [sys.executable, "-c", COUNT_PARSERS, *(a.format(table=table) for a in argv)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.splitlines()[-1] == "parsers 0 locale False"


def _perfbench_commands(tmp_path, monkeypatch):
    """The argv of every pcurv13 call the benchmark's workloads make."""
    spec = importlib.util.spec_from_file_location("perfbench_run", SRC.parent / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    monkeypatch.setattr(sys, "path", list(sys.path))  # it prepends perfbench/
    spec.loader.exec_module(run)
    # the argv does not depend on the table files, so none is built
    monkeypatch.setattr(run.catalog, "build_group", lambda entry: None)
    monkeypatch.setattr(run.catalog, "write_table", lambda group, path: None)
    return [
        inv.spec["argv"]
        for workload in run.WORKLOADS.values()
        for step in workload(1, tmp_path, run.EXPECTED)[0]
        for inv in step.invocations
        if inv.spec["kind"] == "cli"
    ]


def test_documented_and_benchmarked_calls_take_the_direct_parse(tmp_path, monkeypatch):
    parser = cli.build_parser()
    readme = [shlex.split(line)[1:] for line in _readme_commands()]
    bench = _perfbench_commands(tmp_path, monkeypatch)
    assert readme and bench
    for argv in readme + bench:
        args = cli._parse_leaf(argv)
        assert args is not None, argv
        assert args == parser.parse_args(argv)


@pytest.mark.parametrize(
    "argv",
    [
        "theorem-a --rank 4",  # a bad choice
        "bazaikin enumerate --bound 9 --format xml",
        "theorem-a --rank 2 --rank 3",  # a repeated option
        "theorem-a --rank 3 --json --json",
        "bazaikin check 1 1 1 1 1 --json 1 1 1 1 1",  # a second positional run
        "bazaikin check 1 1 --json 1 1 1",
        "bazaikin check 1 1 1 1 1 1",
        "bazaikin check 1 1 1 1",
        "theorem-a --tr 3",  # an abbreviation
        "theorem-a --rank=3",
        "theorem-a --rank 3 -h",
        "theorem-a --rank 3 --",
        "ss verify --p x",
        "ss verify --p -3x",
        "ss verify --p -1e3",
        "group build --burnside 7 3",
        "group analyze --json",  # a missing required option
        "ss",
        "group analyse --in g.grp",
    ],
)
def test_direct_parse_leaves_the_rest_to_argparse(argv):
    assert cli._parse_leaf(argv.split()) is None


# every option of any leaf, values of every kind, and what only argparse reads
_OPTIONS = sorted({flags[0] for *_, arguments, _ in cli._LEAVES for flags, _ in arguments if flags[0][0] == "-"})
_VALUES = ["0", "1", "2", "3", "7", "-1", "-3", "+5", "x", "json", "tsv", "mod3", "rational",
           "S5", "empty", "cd:3", "1,4", "Z3", "g.grp", "", " 2"]
_ODD = ["-h", "--help", "--", "--p=3", "--tr", "-", "extra"]
FULL_PARSER = cli.build_parser()


@st.composite
def leaf_argv(draw):
    """A leaf's path, then in any order: chunks for some of its own
    arguments (the positional as a bare run of values), each mostly with as
    many values as it takes and valid ones, and up to two chunks of noise
    (another of its arguments again, any option or what only argparse reads)."""
    path, _, arguments, _ = draw(st.sampled_from(cli._LEAVES))
    own = [arg for arg in arguments if arg[1].get("required") or draw(st.integers(0, 3))]
    stray = st.sampled_from([((flag,), {}) for flag in _OPTIONS + _ODD])
    noise = draw(st.lists(st.one_of(st.sampled_from(arguments), stray), max_size=2))
    chunks = []
    for flags, kwargs in own + noise:
        n = 0 if kwargs.get("action") == "store_true" else kwargs.get("nargs", 1)
        choices = kwargs.get("choices") or (["1", "3", "19"] if kwargs.get("type") is int else ["S5", "1,4"])
        valid = st.sampled_from([str(v) for v in choices])
        value = st.one_of(valid, valid, st.sampled_from(_VALUES))
        count = draw(st.sampled_from([n, n, n, n, n + 1, max(n - 1, 0)]))
        chunks.append([flags[0]] * flags[0].startswith("-") + draw(st.lists(value, min_size=count, max_size=count)))
    return list(path) + [tok for chunk in draw(st.permutations(chunks)) for tok in chunk]


@settings(max_examples=500, deadline=None)
@given(argv=leaf_argv())
# positional values split by an option, or one run too many
@example(argv="bazaikin check 1 1 --json 1 1 1".split())
@example(argv="bazaikin check 1 1 1 1 1 --json 3 3 3 3 3".split())
@example(argv="bazaikin enumerate --bound 9 --format xml".split())
def test_a_direct_parse_equals_the_full_parsers(argv):
    args = cli._parse_leaf(argv)
    if args is None:
        return
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
            expected = FULL_PARSER.parse_args(argv)
    except SystemExit:
        pytest.fail(f"{argv} parsed directly to {args}, but the full parser says {err.getvalue()}")
    assert args == expected


@pytest.mark.parametrize(
    "argv",
    ["bazaikin enumerate --bound 49 --format tsv", "fixedpoint profiles --budget 1000 --dim 3"],
)
def test_a_closed_stdout_ends_the_call_quietly(argv):
    """A reader that stops early (`| head -1`) gets its line; the call exits
    1 with nothing on stderr, not with a BrokenPipeError traceback."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "pcurv13", *argv.split()], env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    first = proc.stdout.readline()
    proc.stdout.close()  # the output is far larger than the pipe holds
    _, err = proc.communicate(timeout=60)
    assert first.strip() and err == ""
    assert proc.returncode == 1


def test_python_dash_m_pcurv13_reads_its_command_line(capsys):
    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "pcurv13", *argv],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
        )

    helped = run_module("--help")
    assert helped.returncode == 0, helped.stderr
    assert helped.stdout.startswith("usage: pcurv13 ")
    proc = run_module("theorem-a", "--rank", "3", "--json")
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run_cli(capsys, "theorem-a", "--rank", "3", "--json")
    assert code == 0
    assert proc.stdout == out
