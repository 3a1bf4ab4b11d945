"""Self-check of the benchmark, in a short mode (one cycle per run).

Usage (from the repository root): python3 perfbench/selfcheck.py

* Each workload runs once untraced and twice traced.  Every metric named
  in BENCHMARK.json must be emitted with its unit, no operation may fail,
  and the two traced runs must give the same counts.  The readable report
  of each untraced run names every end-to-end metric by the path it times.
* The certify workload runs again against a deliberately wrong expected
  index set; the run must report failed operations, not a pass.
* run.py in a directory holding only BENCHMARK.json and perfbench/ must
  exit non-zero without printing a result.

Exits 0 when every check holds; takes about three minutes on two cores.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expect(ok: bool, what: str, problems: list) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def check_metrics(report, wanted, label, problems) -> None:
    got = {k: v["unit"] for k, v in report["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    expect(got == want, f"{label}: emits exactly its {len(want)} metrics with their units", problems)
    expect(report["failed"] == 0, f"{label}: {report['failed']} of {report['attempted']} operations failed", problems)


def main() -> int:
    problems: list = []
    for w in SPEC["workloads"]:
        name = w["name"]
        report = run.measure(name, seed=1, seconds=1, traced=False)
        run.print_report(report)
        check_metrics(report, SPEC["end_to_end"], f"{name} untraced", problems)
        counts = []
        for _ in range(2):
            report = run.measure(name, seed=1, seconds=1, traced=True)
            check_metrics(report, SPEC["per_layer"], f"{name} traced", problems)
            counts.append({k: v["value"] for k, v in report["metrics"].items() if v["unit"] == "count"})
        expect(counts[0] == counts[1], f"{name} traced: two runs give the same counts", problems)

    wrong = copy.deepcopy(run.EXPECTED)
    wrong["index_bounds"]["rational"] = [1, 2, 3]
    report = run.measure("certify", seed=1, seconds=1, traced=False, expected=wrong)
    expect(
        report["failed"] >= 1 and any("index_bounds" in e for e in report["errors"]),
        "a wrong expected index set is reported as a failed operation",
        problems,
    )

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(
        proc.returncode != 0 and '"correct"' not in proc.stdout,
        f"without the program the benchmark exits {proc.returncode} and prints no result",
        problems,
    )

    print("self-check " + ("passed" if not problems else f"FAILED: {len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
