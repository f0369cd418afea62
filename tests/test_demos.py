"""The demos run to completion with every warning an error (demo 03 repeats criterion 3 and stays out)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import worldsheet

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(worldsheet.__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "name", ["01_geometry_identities.py", "02_energy_functionals.py", "04_causal_structure.py"]
)
def test_demo_runs(tmp_path, name):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
