"""The demos that write no files run to completion.

Demo 03 (dense eigensolves, several seconds) and demos 06-08 (they write
into ``demos/output/``) are left out.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", [
    "02_contour_dependent_metrics.py",
    "04_isomorphic_hilbert_spaces.py",
    "05_blowup_tamed_by_metric.py",
])
def test_demo_runs(name):
    assert run_demo(name)


def test_demo_01_every_contour_swaps_to_the_anchor():
    swaps = [line.strip() for line in
             run_demo("01_one_hermitian_hamiltonian.py").splitlines()
             if "swap:" in line]
    assert swaps == ["swap: p^2 - 2*x + 4*x^4"] * 5
