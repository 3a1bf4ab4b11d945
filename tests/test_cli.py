import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_group_analyze_builds_no_sylow_subgroup(tmp_path, capsys, monkeypatch):
    calls = []
    sylow = gr.sylow
    monkeypatch.setattr(gr, "sylow", lambda *args: calls.append(args) or sylow(*args))
    analyze_set_outputs(tmp_path, capsys)
    assert calls == []


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
        ("bazaikin enumerate --bound 0", "--bound must be at least 1"),
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
        (
            "fixedpoint obstruct --group xx:3 --lef 1",
            "bad --group (want cd:D or zpxzp:P): kind must be 'cd' or 'zpxzp'",
        ),
        ("fixedpoint obstruct --group cd:3 --lef 1,a", "--lef wants a comma-separated integer list"),
        ("ss verify --p 2", "supported primes are (3, 5, 7, 11, 13), got 2"),
    ],
)
def test_invalid_input_exits_2_with_one_error_line(argv, line, tmp_path, capsys):
    code, out, err = run_cli(capsys, *argv.format(tmp=tmp_path).split())
    assert code == 2
    assert out == ""
    assert err == f"error: {line.format(tmp=tmp_path)}\n"


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


def parse_outcome(capsys, parser, argv):
    """Exit code, stdout and stderr of a parse that help or an error ends."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def parsers_built(monkeypatch, argv):
    """build_parser(argv) and the number of ArgumentParser objects it made."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(argparse.ArgumentParser, "__init__", counting)
        parser = cli.build_parser(argv)
    return parser, len(built)


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
def test_leaf_parser_prints_and_exits_as_the_full_parser(argv, capsys, monkeypatch):
    parser, built = parsers_built(monkeypatch, argv)
    named = [leaf for leaf in LEAVES if tuple(argv[: len(leaf)]) == leaf]
    assert built == (len(named[0]) + 1 if named else 14)
    leaf_only = parse_outcome(capsys, parser, argv)
    assert leaf_only == parse_outcome(capsys, cli.build_parser(), argv)
    assert leaf_only[0] in (0, 2)


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
sys.stderr.write(f"parsers {built}\\n")
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv, parsers",
    [(["group", "analyze", "--in", "{table}", "--json"], 3), (["theorem-a", "--rank", "3", "--json"], 2)],
    ids=["group analyze", "theorem-a"],
)
def test_a_call_builds_only_its_own_parsers(argv, parsers, tmp_path):
    table = tmp_path / "z3.grp"
    with open(table, "w", encoding="utf-8") as fh:
        gr.write_group_file(gr.build_standard("Z3"), fh)
    proc = subprocess.run(
        [sys.executable, "-c", COUNT_PARSERS, *(a.format(table=table) for a in argv)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == f"parsers {parsers}"


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
