"""Benchmark of pcurv13's certificate paths, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify|sweep|catalog \
        --seed N --seconds S --trace 0|1

One client runs a closed loop: it starts the next invocation only after
the previous one has finished.  Every timed invocation is a fresh
interpreter (perfbench/child.py), because a user pays one process per
certificate; the clock covers the call into pcurv13, not the import.  The
loop repeats the workload's cycle of invocations while the next cycle
still fits in S seconds (the first cycle always runs), checks every
output, and reports each metric as the mean of its samples.

With --trace 0 the last line holds the end-to-end metrics; with --trace 1
each cycle runs once untraced and once traced, and the last line holds the
per-layer metrics of the traced cycles.  Every earlier line is a readable
report naming each metric by the path it times.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import permutations
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalog  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_IMPORTS = 10
RUN_LIMIT_S = 165.0  # a run never outlives this, whatever the program does
BURNSIDE_MAX_ORDER = 200
ENUMERATE_BOUND = 19
SWEEP_P3_REPEATS = 6  # before and after the p=5 sweep

EXPECTED = {
    "index_bounds": {
        "rational": [1, 2, 3, 6, 9, 18, 27],
        "mod3": [1, 2, 3, 6, 9],
        "rank3": [1, 2, 3],
    },
    "choices": {3: 166213, 5: 24694001},
    "burnside_triples": 688,
}

LAYER_METRICS = [
    ("cli.self_s", "s"),
    ("pipeline.self_s", "s"),
    ("pipeline.trace_steps", "count"),
    ("pipeline.replay_steps", "count"),
    ("pipeline.replay_mismatches", "count"),
    ("spectral.self_s", "s"),
    ("spectral.verdict_calls", "count"),
    ("spectral.page_runs", "count"),
    ("spectral.choices_examined", "count"),
    ("gfp.self_s", "s"),
    ("gfp.rref_calls", "count"),
    ("gfp.rref_rows_in", "count"),
    ("gfp.subspaces_built", "count"),
    ("gfp.reduce_calls", "count"),
    ("gfp.preimage_calls", "count"),
    ("gfp.union_size_calls", "count"),
    ("groups.self_s", "s"),
    ("groups.tables_built", "count"),
    ("groups.tables_validated", "count"),
    ("groups.table_cells", "count"),
    ("groups.isomorphism_tests", "count"),
    ("groups.pattern_searches", "count"),
    ("groups.files_read", "count"),
    ("cohomology.self_s", "s"),
    ("cohomology.calls", "count"),
    ("bazaikin.self_s", "s"),
    ("bazaikin.tuples_checked", "count"),
    ("bazaikin.spaces_found", "count"),
    ("trace.overhead_s", "s"),
]

# counter -> the wrapped calls it sums (tracing.py names them)
CALL_COUNTERS = {
    "pipeline.replay_steps": ["pipeline.replay_step"],
    "spectral.verdict_calls": ["spectral.exhaustive_verdict"],
    "spectral.page_runs": ["spectral.run_choice", "spectral.run_choice_pages"],
    "gfp.rref_calls": ["gfp.rref"],
    "gfp.subspaces_built": ["gfp.Subspace.__init__"],
    "gfp.reduce_calls": ["gfp.Subspace.reduce"],
    "gfp.preimage_calls": ["gfp.preimage_subspace"],
    "gfp.union_size_calls": ["gfp.union_size"],
    "groups.tables_built": ["groups.GroupTable.__init__"],
    "groups.isomorphism_tests": ["groups.is_isomorphic"],
    "groups.pattern_searches": ["groups.contains_copy"],
    "groups.files_read": ["groups.read_group_file"],
    "bazaikin.tuples_checked": ["bazaikin.QTuple.of"],
}


# ---------------------------------------------------------------------------
# invocations


@dataclass
class Invocation:
    """One fresh-interpreter call, its time limit and its output check.

    ``check(payload)`` gets the decoded output and returns None when it
    is right, or a reason when it is not."""

    spec: dict
    limit_s: float
    check: object


@dataclass
class Step:
    """A named sample: the summed time of its invocations in one cycle.
    A step named None is run and checked but not timed as a metric."""

    name: str | None
    invocations: list


@dataclass
class Outcome:
    elapsed_s: float | None
    error: str | None
    maxrss_kb: int = 0
    trace: dict | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def record(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {error}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"  # traced counts must repeat exactly
    return env


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()
        self.tally = Tally()

    def timeout(self, limit_s: float) -> float:
        return max(0.0, min(limit_s, self.deadline - time.monotonic()))

    def setup_time(self) -> float | None:
        """Wall time of a fresh interpreter importing pcurv13."""
        cmd = [sys.executable, "-c", "import pcurv13"]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=self.timeout(30.0),
            )
        except subprocess.TimeoutExpired:
            self.tally.record("import", "time limit")
            return None
        elapsed = time.perf_counter() - t0
        error = None if proc.returncode == 0 else proc.stderr.strip()[-300:]
        self.tally.record("import", error)
        return None if error else elapsed

    def call(self, inv: Invocation, spans: str | None = None) -> Outcome:
        spec = dict(inv.spec, spans=spans)
        label = inv.spec.get("label", inv.spec["kind"])
        outcome = self._run_child(spec, inv.limit_s)
        if outcome.error is None:
            try:
                with open(spec["out"], encoding="utf-8") as fh:
                    payload = json.load(fh)
                outcome.error = inv.check(payload)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                outcome.error = f"unreadable output: {type(exc).__name__}: {exc}"
        self.tally.record(label, outcome.error)
        return outcome

    def _run_child(self, spec: dict, limit_s: float) -> Outcome:
        Path(spec["out"]).unlink(missing_ok=True)
        timeout = self.timeout(limit_s)
        if timeout <= 0:
            return Outcome(None, "no time left in the run")
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), json.dumps(spec)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return Outcome(None, f"time limit of {timeout:.0f} s")
        lines = proc.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except ValueError:
            res = None
        if res is None:
            return Outcome(None, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if res["error"] is not None:
            return Outcome(None, res["error"])
        if res["rc"] != 0:
            return Outcome(None, f"pcurv13 exit code {res['rc']}")
        return Outcome(res["elapsed_s"], None, res["maxrss_kb"], res.get("trace"))


# ---------------------------------------------------------------------------
# output checks


def _expect(name, got, want):
    return None if got == want else f"{name}: got {got!r}, expected {want!r}"


def check_theorem_a(expected_bounds):
    return lambda payload: _expect("index_bounds", payload["index_bounds"], expected_bounds)


def check_replay(trace_paths):
    def check(payload):
        verdicts = payload["verdicts"]
        for path, got in zip(trace_paths, verdicts, strict=True):
            with open(path, encoding="utf-8") as fh:
                steps = len(json.load(fh)["trace"])
            if len(got) != steps or not all(v is True for v in got):
                bad = [i for i, v in enumerate(got) if v is not True]
                return f"{Path(path).name}: {len(got)}/{steps} steps replayed, mismatches at {bad[:5]}"
        return None

    return check


def check_sweep(p, choices, with_pages):
    def check(payload):
        for reason in (
            _expect("p", payload["p"], p),
            _expect("choices", payload["choices"], choices),
            _expect("free_action_possible", payload["free_action_possible"], False),
        ):
            if reason:
                return reason
        if payload["min_deg6_survivors"] < 1:
            return f"min_deg6_survivors {payload['min_deg6_survivors']} < 1"
        if with_pages:
            limit = payload["pages"][-1]
            if limit["r"] != "inf":
                return f"last page is r={limit['r']}, not the limit page"
            return _expect(
                "limit page total degree 6", limit["total_degree_6"],
                payload["min_deg6_survivors"],
            )
        return None

    return check


def check_burnside(expected_count):
    reference = [list(t) for t in catalog.burnside_triples(BURNSIDE_MAX_ORDER)]

    def check(payload):
        if payload["failures"]:
            return f"{len(payload['failures'])} triples fail: {payload['failures'][:3]}"
        if len(payload["triples"]) != expected_count:
            return f"{len(payload['triples'])} triples, expected {expected_count}"
        return _expect("triples", payload["triples"], reference)

    return check


def free_by_permutations(q) -> bool:
    """The freeness condition quantified over all 120 orderings."""
    if any(x % 2 == 0 for x in q):
        return False
    return all(gcd(q[s[0]] + q[s[1]], q[s[2]] + q[s[3]]) == 2 for s in permutations(range(5)))


def positively_curved(q) -> bool:
    return all(q[i] + q[j] > 0 for i in range(5) for j in range(i + 1, 5))


def check_enumerate(bound):
    def check(payload):
        spaces = [tuple(s["q"]) for s in payload["spaces"]]
        if payload["bound"] != bound or payload["count"] != len(spaces) or not spaces:
            return f"bound {payload['bound']}, count {payload['count']}, {len(spaces)} spaces"
        for q in spaces:
            if max(abs(x) for x in q) > bound:
                return f"{q} exceeds the bound"
            if not free_by_permutations(q):
                return f"{q} fails the 120-permutation freeness oracle"
            if not positively_curved(q):
                return f"{q} is not positively curved"
        return None

    return check


# ---------------------------------------------------------------------------
# workloads: (steps of one cycle, names of the steps' metrics, notes)


def cli_spec(label, argv, out):
    return {"kind": "cli", "label": label, "argv": argv, "out": str(out)}


def certify(seed, work, expected):
    traces = {s: work / f"theorem-a-{s}.json" for s in ("rational", "mod3", "rank3")}
    argv = {
        "rational": ["theorem-a", "--rank", "2", "--cohomology", "rational", "--json"],
        "mod3": ["theorem-a", "--rank", "2", "--cohomology", "mod3", "--json"],
        "rank3": ["theorem-a", "--rank", "3", "--json"],
    }
    bounds = expected["index_bounds"]
    inv = {
        s: Invocation(cli_spec(f"theorem-a {s}", argv[s], traces[s]), 60.0, check_theorem_a(bounds[s]))
        for s in traces
    }
    paths = [str(p) for p in traces.values()]
    replay = Invocation(
        {"kind": "replay", "traces": paths, "out": str(work / "replay.json")},
        60.0, check_replay(paths),
    )
    steps = [
        Step("theorem_a_rational_s", [inv["rational"]]),
        Step("theorem_a_mod3_s", [inv["mod3"]]),
        Step(None, [inv["rank3"]]),  # under 1 ms: checked, replayed, not timed
        Step("replay_s", [replay]),
    ]
    slots = ["theorem_a_rational_s", "theorem_a_mod3_s", "replay_s"]
    return steps, slots, "inputs fixed by the paper; the seed does not change them"


def sweep(seed, work, expected):
    def ss(label, p, trace):
        argv = ["ss", "verify", "--p", str(p)] + (["--trace"] if trace else [])
        out = work / f"{label}.json"
        limit = 60.0 if p == 3 else 150.0
        return Invocation(cli_spec(label, argv, out), limit, check_sweep(p, expected["choices"][p], trace))

    # one p=5 sweep fills half a cycle; the short p=3 paths repeat around
    # it, so that their medians span the whole run
    p3 = [Step("ss_p3_s", [ss("ss-p3-trace", 3, True)]), Step("ss_p3_notrace_s", [ss("ss-p3", 3, False)])]
    steps = p3 * SWEEP_P3_REPEATS + [Step("ss_p5_s", [ss("ss-p5", 5, False)])] + p3 * SWEEP_P3_REPEATS
    slots = ["ss_p3_s", "ss_p5_s", "ss_p3_notrace_s"]
    return steps, slots, "inputs fixed by the paper; the seed does not change them"


def catalog_workload(seed, work, expected):
    tables = work / "tables"
    tables.mkdir(exist_ok=True)
    analyze, entries = [], catalog.analyze_set(seed)
    for entry in entries:
        path = tables / f"{entry['name']}.grp"
        if not path.exists():  # contents depend on the name alone
            catalog.write_table(catalog.build_group(entry), path)
        spec = cli_spec(
            f"group analyze {entry['name']}",
            ["group", "analyze", "--in", str(path), "--json"],
            work / f"analyze-{entry['name']}.json",
        )
        expect = entry["expect"]
        analyze.append(Invocation(spec, 60.0, lambda payload, e=expect: catalog.check_analysis(payload, e)))
    burnside = Invocation(
        {"kind": "burnside", "max_order": BURNSIDE_MAX_ORDER, "out": str(work / "burnside.json")},
        90.0, check_burnside(expected["burnside_triples"]),
    )
    enumerate_ = Invocation(
        cli_spec(
            "bazaikin enumerate",
            ["bazaikin", "enumerate", "--bound", str(ENUMERATE_BOUND), "--format", "json"],
            work / "enumerate.json",
        ),
        60.0, check_enumerate(ENUMERATE_BOUND),
    )
    enumerate_step = Step("bazaikin_enumerate_s", [enumerate_])
    steps = [Step("burnside_s", [burnside]), enumerate_step, Step("group_analyze_s", analyze), enumerate_step]
    slots = ["burnside_s", "group_analyze_s", "bazaikin_enumerate_s"]
    names = ", ".join(e["name"] for e in entries)
    return steps, slots, f"seed {seed} drew the analyze set: {names}"


WORKLOADS = {"certify": certify, "sweep": sweep, "catalog": catalog_workload}


# ---------------------------------------------------------------------------
# measurement


def run_cycle(runner, steps, work, traced):
    """Run every step once: (step name, summed time or None if any of its
    invocations failed) per step, the trace summaries when traced, and the
    peak memory of the invocations."""
    times, traces, rss = [], [], 0
    for j, step in enumerate(steps):
        total = 0.0
        for i, inv in enumerate(step.invocations):
            spans = str(work / "spans" / f"step{j}-{i}.json") if traced else None
            outcome = runner.call(inv, spans)
            rss = max(rss, outcome.maxrss_kb)
            if outcome.elapsed_s is None or total is None:
                total = None
            else:
                total += outcome.elapsed_s
            if outcome.trace is not None:
                traces.append(outcome.trace)
        times.append((step.name, total))
    return times, traces, rss


def layer_metrics(traces) -> dict:
    calls, counts = {}, {}
    self_s = {name.split(".")[0]: 0.0 for name, unit in LAYER_METRICS if name.endswith(".self_s")}
    for t in traces:
        for k, v in t["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in t["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in t["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
    out = {f"{layer}.self_s": s for layer, s in self_s.items()}
    for name, sources in CALL_COUNTERS.items():
        out[name] = sum(calls.get(s, 0) for s in sources)
    out["cohomology.calls"] = sum(v for k, v in calls.items() if k.startswith("cohomology."))
    for name, _ in LAYER_METRICS:
        if name not in out and name != "trace.overhead_s":
            out[name] = counts.get(name, 0)
    return out


def summarize(values) -> dict:
    """Mean, median, a high percentile and the sample count.

    The high percentile is the highest of p99/p95/p90/p75 with at least ten
    samples above it; with fewer samples it is the maximum."""
    vals = sorted(values)
    n = len(vals)
    out = {"mean": statistics.fmean(vals), "median": statistics.median(vals)}
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            out[f"p{q}"] = statistics.quantiles(vals, n=100)[q - 1]
            break
    else:
        out["max"] = vals[-1]
    out["n"] = n
    return out


def measure(name, seed, seconds, traced, expected=EXPECTED):
    start = time.monotonic()
    runner = Runner(start + RUN_LIMIT_S)
    work = WORK / name
    (work / "spans").mkdir(parents=True, exist_ok=True)
    steps, slots, note = WORKLOADS[name](seed, work, expected)
    if traced:  # per-layer counts describe one invocation of each path
        steps = list({id(s): s for s in steps}.values())

    runner.setup_time()  # warm-up: byte-compiles the sources once
    setup = [] if traced else [runner.setup_time() for _ in range(SETUP_IMPORTS)]

    samples = {s.name: [] for s in steps if s.name}
    limits = {s.name: sum(inv.limit_s for inv in s.invocations) for s in steps if s.name}
    layer_cycles, overheads, peak_kb, cycles = [], [], 0, 0
    loop_start = time.monotonic()
    while True:
        cycle_start = time.monotonic()
        times, _, rss = run_cycle(runner, steps, work, traced=False)
        peak_kb = max(peak_kb, rss)
        for k, v in times:
            if k and v is not None:
                samples[k].append(v)
        if traced:
            ttimes, traces, _ = run_cycle(runner, steps, work, traced=True)
            layer_cycles.append(layer_metrics(traces))
            pairs = [(t, u) for (_, t), (_, u) in zip(ttimes, times)]
            if all(t is not None and u is not None for t, u in pairs):
                overheads.append(sum(t - u for t, u in pairs))
        cycles += 1
        now = time.monotonic()
        if now - loop_start + (now - cycle_start) > seconds or now > runner.deadline:
            break

    report = {
        "workload": name,
        "traced": traced,
        "seed": seed,
        "inputs": note,
        "cycles": cycles,
        "attempted": runner.tally.attempted,
        "failed": runner.tally.failed,
        "errors": runner.tally.errors,
        "samples_s": samples,
    }
    named = {}
    for step_name, vals in samples.items():
        vals = vals or [limits[step_name]]  # a failure counts as the limit
        named[step_name] = summarize(vals)
    report["named"] = named

    if traced:
        first = layer_cycles[0] if layer_cycles else {}
        metrics = {}
        for metric, unit in LAYER_METRICS:
            if metric == "trace.overhead_s":
                value = statistics.median(overheads) if overheads else 0.0
            elif unit == "s":
                value = statistics.median(c[metric] for c in layer_cycles)
            else:
                value = first.get(metric, 0)
            metrics[metric] = {"value": value, "unit": unit}
    else:
        setup_ok = [v for v in setup if v is not None] or [30.0]
        samples["setup_s"] = setup
        report["setup_s"] = summarize(setup_ok)
        metrics = {"setup_s": {"value": report["setup_s"]["mean"], "unit": "s"}}
        for i, slot in enumerate(slots, start=1):
            metrics[f"path{i}_s"] = {"value": named[slot]["mean"], "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}
        report["slots"] = {f"path{i}_s": slot for i, slot in enumerate(slots, start=1)}
    report["metrics"] = metrics
    return report


def _row(name: str, stats: dict, unit: str = "s") -> str:
    hi = next(k for k in stats if k not in ("mean", "median", "n"))
    return (
        f"  {name:<34} mean {stats['mean']:.4f} {unit}  median {stats['median']:.4f} {unit}  "
        f"{hi} {stats[hi]:.4f} {unit}  n={stats['n']}"
    )


def print_report(report) -> None:
    print(f"workload {report['workload']}, seed {report['seed']}: {report['inputs']}")
    print(f"cycles {report['cycles']}, closed loop, one client, one fresh interpreter per invocation")
    if "setup_s" in report:
        print(_row("setup_s", report["setup_s"]))
    slot_of = {v: k for k, v in report.get("slots", {}).items()}
    for name, stats in report["named"].items():
        print(_row(name + (f" ({slot_of[name]})" if name in slot_of else ""), stats))
    if "peak_rss_mb" in report["metrics"]:
        print(f"  {'peak_rss_mb':<34} {report['metrics']['peak_rss_mb']['value']:.1f} MB")
    rate = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    print(f"  {'error_rate':<34} {rate:.4f} ({report['failed']} of {report['attempted']} operations failed)")
    for err in report["errors"]:
        print(f"  failed: {err}")
    if report["traced"]:
        for name, m in report["metrics"].items():
            print(f"  {name:<34} {m['value']} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pcurv13" / "cli.py").is_file():
        print(f"error: no pcurv13 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
