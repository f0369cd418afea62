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


def test_readme_quick_start_runs(tmp_path):
    readme = (DEMOS.parent / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", block],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
