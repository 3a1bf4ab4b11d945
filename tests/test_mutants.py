import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pcurv13"

each_mutant = pytest.mark.parametrize("mutant", MUTANTS, ids=[m.fault for m in MUTANTS])


@each_mutant
def test_mutant_is_well_formed_and_not_stale(mutant):
    assert (PACKAGE / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for node in mutant.tests:
        path, name = node.split("::")
        assert f"\ndef {name.split('[')[0]}(" in (ROOT / path).read_text(), node


@pytest.mark.slow
@each_mutant
def test_mutant_is_caught(mutant, tmp_path):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / "pcurv13" / mutant.file
    target.write_text(target.read_text().replace(mutant.old, mutant.new))
    env = dict(os.environ, PYTHONPATH=str(src))
    imported = subprocess.run(
        [sys.executable, "-c", "import pcurv13; print(pcurv13.__file__)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert Path(imported.stdout.strip()).parent == target.parent
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *mutant.tests],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    # exit code 1: the tests ran and one failed; any other code is no catch
    assert proc.returncode == 1, proc.stdout[-3000:] + proc.stderr[-3000:]
