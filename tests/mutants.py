"""A register of mutants: deliberate faults in ``src/pcurv13``, each with
the tests that must catch it.

Each entry names a file of the package, an exact snippet that occurs in
it once, the snippet's replacement, and pytest node ids (relative to the
repository root) of which at least one fails once the snippet is
replaced.  ``tests/test_mutants.py`` checks in tier-1 that every snippet
still occurs exactly once, and, under the ``slow`` marker, applies each
mutant to a copy of ``src/`` and runs its tests there.  A change that
rewrites a snippet carries its mutant along.  Standard library only.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    fault: str
    file: str  # relative to src/pcurv13
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "m read as integral when 4 divides e3",
        "bazaikin.py",
        '"m_integral": m.denominator == 1,',
        '"m_integral": e % 4 == 0,',
        ("tests/test_cli.py::test_bazaikin_check_json_matches_the_oracle",),
    ),
    Mutant(
        "p divides m read off the denominator",
        "bazaikin.py",
        "return m.numerator % p == 0",
        "return m.denominator % p == 0",
        ("tests/test_bazaikin.py::test_mod_p_betti_matches_the_valuation_loop",),
    ),
    Mutant(
        "replay accepts a step of unknown kind that names a registered op",
        "pipeline.py",
        'if step.kind != "op" or step.name not in OPS:',
        "if step.name not in OPS:",
        ("tests/test_pipeline.py::test_replay_rejects_malformed_steps",),
    ),
    Mutant(
        "the surviving primes tested for primality by d % 3",
        "pipeline.py",
        "d > 2 and is_prime(d)]",
        "d > 2 and d % 3]",
        ("tests/test_package.py::test_surviving_odd_primes_are_the_odd_primes_dividing_the_value",),
    ),
)
