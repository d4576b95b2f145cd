"""Each demo script runs to completion on its own, with `src` on the path."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["01_cartan_pairing.py", "02_trace_formula.py",
                                  "03_serre_and_dualizing.py",
                                  "04_three_pairings.py"])
def test_demo_exits_zero(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if name == "02_trace_formula.py":
        # the projective instance and the cone instance
        assert proc.stdout.count("equal: True") == 2
        assert "equal: False" not in proc.stdout
