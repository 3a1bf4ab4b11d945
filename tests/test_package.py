import os
import subprocess
import sys
from pathlib import Path

import pcurv13

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
