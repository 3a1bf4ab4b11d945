import json

import numpy as np

from pcurv13 import groups as gr
from pcurv13.cli import main


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


def test_group_build_name_roundtrip(tmp_path, capsys):
    path = tmp_path / "u.grp"
    code, _, _ = run_cli(capsys, "group", "build", "--name", "U33", "--out", str(path))
    assert code == 0
    G = gr.read_group_file(path)
    assert np.array_equal(G.table, gr.unitriangular27().table)


def test_group_build_invalid_params(capsys):
    code, _, err = run_cli(capsys, "group", "build", "--burnside", "4", "2", "3")
    assert code == 2
    assert "gcd" in err


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
