"""One timed invocation of pcurv13, run in a fresh interpreter.

Usage: python3 perfbench/child.py '<json spec>'

The spec names what to call:

* ``{"kind": "cli", "argv": [...], "out": PATH}``: ``pcurv13.cli.main(argv)``
  with standard output captured and written to PATH afterwards;
* ``{"kind": "replay", "traces": [PATH, ...], "out": PATH}``: rebuild every
  ``TraceStep`` of each saved ``theorem-a --json`` trace, then call
  ``pipeline.replay_step`` on each; the verdicts go to PATH;
* ``{"kind": "burnside", "max_order": N, "out": PATH}``: the Burnside family
  sweep of acceptance criterion 3; the triples and the failures go to PATH.

With ``"spans": PATH`` the layers are traced (see tracing.py) and the spans
are written to PATH and PATH.bin.  The import of pcurv13 and the tracer's set-up happen
before the clock starts; reading inputs and writing outputs happen outside
it too.  The last line of standard output is one JSON object: elapsed
seconds, exit code, error, peak resident memory and the trace summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))


def _cli(spec):
    from pcurv13 import cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(spec["argv"])
    elapsed = time.perf_counter() - t0
    return elapsed, rc, buf.getvalue()


def _replay(spec):
    from pcurv13 import pipeline

    traces = []
    for path in spec["traces"]:
        with open(path, encoding="utf-8") as fh:
            traces.append([pipeline.TraceStep(**s) for s in json.load(fh)["trace"]])
    t0 = time.perf_counter()
    verdicts = [[pipeline.replay_step(step) for step in steps] for steps in traces]
    elapsed = time.perf_counter() - t0
    return elapsed, 0, json.dumps({"verdicts": verdicts})


def _burnside(spec):
    from pcurv13 import groups

    failures = []
    t0 = time.perf_counter()
    params = groups.enumerate_burnside_params(spec["max_order"])
    for p in params:
        G = groups.build_burnside(p)
        core = groups.normal_cyclic_core(p)
        checks = {
            "order": G.order == p.m * p.n,
            "all_sylow_cyclic": groups.all_sylow_cyclic(G),
            "core_normal": core.is_normal,
            "core_cyclic": core.is_cyclic,
            "core_index": core.index == groups.burnside_class_d(p),
            "core_maximal_cyclic": groups.is_maximal_cyclic(core),
        }
        failed = [name for name, ok in checks.items() if not ok]
        if failed:
            failures.append([p.m, p.n, p.r, failed])
    elapsed = time.perf_counter() - t0
    triples = [[p.m, p.n, p.r] for p in params]
    return elapsed, 0, json.dumps({"triples": triples, "failures": failures})


KINDS = {"cli": _cli, "replay": _replay, "burnside": _burnside}


def main() -> int:
    spec = json.loads(sys.argv[1])
    import pcurv13  # noqa: F401  (import cost is set-up, not the timed call)

    tracer = None
    if spec.get("spans"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    result = {"elapsed_s": None, "rc": None, "error": None}
    try:
        elapsed, rc, output = KINDS[spec["kind"]](spec)
        result.update(elapsed_s=elapsed, rc=rc)
        with open(spec["out"], "w", encoding="utf-8") as fh:
            fh.write(output)
    except SystemExit as exc:  # argparse rejects its input this way
        result["rc"] = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # reported to the parent as a failed operation
        result["error"] = f"{type(exc).__name__}: {exc}"
    if tracer is not None:
        tracer.write_spans(spec["spans"])
        result["trace"] = tracer.summary()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
