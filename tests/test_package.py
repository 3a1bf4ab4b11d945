import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pcurv13
from pcurv13 import bazaikin, cohomology, groups, pipeline, spectral

SRC = Path(pcurv13.__file__).resolve().parents[1]


def test_layers_below_groups_import_without_numpy():
    # only groups needs numpy; the package itself binds nothing but its version
    script = """
import sys, types
import pcurv13
public = [n for n in vars(pcurv13) if not n.startswith("_")]
import pcurv13.bazaikin, pcurv13.cohomology, pcurv13.gfp, pcurv13.spectral
if public:
    sys.exit(f"pcurv13 binds {public}")
if "numpy" in sys.modules:
    sys.exit("numpy was loaded")
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def _sieve(n):
    prime = [False, False] + [True] * (n - 1)
    for d in range(2, int(n**0.5) + 1):
        if prime[d]:
            prime[d * d :: d] = [False] * len(prime[d * d :: d])
    return prime


def test_prime_checks_reject_exactly_the_non_primes():
    # the four callers of the one prime guard reject the non-primes in
    # 0..200 with one message, and only them; spectral also rejects 2, and
    # the quotient index 0, in their own words
    Z6 = groups.build_standard("Z6")
    checks = [
        (lambda p: groups.sylow_is_cyclic(Z6, p), {}),
        (lambda p: bazaikin.mod_p_betti(Fraction(1), p), {}),
        (lambda p: cohomology.QuotientIndex("zpxzp", p), {0: "index must be positive"}),
        (spectral._require_odd_prime, {2: "the engine requires an odd prime"}),
    ]
    prime = _sieve(200)
    for check, special in checks:
        for p in range(201):
            if p in special:
                with pytest.raises(ValueError, match=f"^{special[p]}$"):
                    check(p)
            elif prime[p]:
                check(p)
            else:
                with pytest.raises(ValueError, match=f"^{p} is not prime$"):
                    check(p)


def test_each_shared_error_is_raised_by_one_function():
    # the prime guard, the order cap, the digit cap, the trace dimension
    # cap, the Burnside parameter check and the proof gate are one rule
    # each: a second function raising the same words, or building the same
    # error, is a copy that can drift from the first
    raisers = {
        "is not prime": set(),
        "above the largest supported prime": set(),
        "outside supported range": set(),
        "digits": set(),
        "trace dimension must be between": set(),
        "invalid Burnside parameters": set(),
    }
    gate_errors = set()
    for path in sorted((SRC / "pcurv13").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        # ast.walk is breadth-first, so a nested function's name overwrites
        # its enclosing one's
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                text = "".join(
                    c.value for c in ast.walk(node) if isinstance(c, ast.Constant) and isinstance(c.value, str)
                )
                for message, where in raisers.items():
                    if message in text:
                        where.add(f"{path.stem}.{owner.get(node, '<module>')}")
            if isinstance(node, ast.Call) and "ProofGateError" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                gate_errors.add(f"{path.stem}.{owner.get(node, '<module>')}")
    assert raisers == {
        "is not prime": {"gfp._require_prime"},
        "above the largest supported prime": {"gfp._require_prime"},
        "outside supported range": {"groups._require_order"},
        "digits": {"gfp._require_digits"},
        "trace dimension must be between": {"cohomology.integer_trace_set"},
        "invalid Burnside parameters": {"groups._valid_triple"},
    }
    assert gate_errors == {"gates._gate"}


def test_surviving_odd_primes_are_the_odd_primes_dividing_the_value():
    prime = _sieve(200)
    for n in range(1, 201):
        expected = [d for d in range(3, n + 1) if prime[d] and n % d == 0]
        assert pipeline.OPS["cohomology.surviving_odd_primes"](values=[n]) == expected, n


def test_every_function_and_class_is_used_by_the_program():
    # a name that only tests call is a second form of a fact the program
    # derives once; the page engine's entry point stays as the sweep's
    # reference.  Names only: a local variable of the same name hides an
    # unused method
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for root in (SRC / "pcurv13", Path(__file__).resolve().parents[1] / "perfbench")
        for path in sorted(root.rglob("*.py"))
    }
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unused = sorted(
        f"{path.stem}.{node.name}"
        for path, tree in trees.items()
        if path.parent.name == "pcurv13"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )
    assert unused == ["spectral.run_choice"]
