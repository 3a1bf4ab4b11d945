"""The benchmark's child process still runs against this checkout: each of
its three kinds of invocation exits cleanly on a small input."""

import json
import subprocess
import sys
from pathlib import Path

from pcurv13.cli import main

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"


def run_child(spec):
    proc = subprocess.run(
        [sys.executable, str(CHILD), json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["error"] is None
    assert result["rc"] == 0
    with open(spec["out"], encoding="utf-8") as fh:
        return result, json.load(fh)


def test_child_cli(tmp_path):
    spec = {"kind": "cli", "argv": ["bazaikin", "enumerate", "--bound", "5"],
            "out": str(tmp_path / "out.json")}
    _, payload = run_child(spec)
    assert payload["count"] == len(payload["spaces"]) > 0


def test_child_replay(tmp_path, capsys):
    assert main(["theorem-a", "--rank", "3", "--json"]) == 0
    trace = tmp_path / "rank3.json"
    trace.write_text(capsys.readouterr().out, encoding="utf-8")
    spec = {"kind": "replay", "traces": [str(trace)], "out": str(tmp_path / "out.json")}
    _, payload = run_child(spec)
    [verdicts] = payload["verdicts"]
    assert verdicts and all(v is True for v in verdicts)


def test_child_burnside_traced(tmp_path):
    spec = {"kind": "burnside", "max_order": 12, "spans": str(tmp_path / "spans.json"),
            "out": str(tmp_path / "out.json")}
    result, payload = run_child(spec)
    assert payload["triples"] and payload["failures"] == []
    assert result["trace"]["calls"]
