"""The demos run to completion, and the figures they draw are the committed
ones byte for byte.

Demos 06-08 write into the ``output/`` directory next to the script, so each
runs from a copy in a temporary directory and its figures are compared with
``demos/output/``.  Demo 03 (dense eigensolves, several seconds) is left out.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str, demos: Path = ROOT / "demos") -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demos / name)],
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


@pytest.mark.parametrize("name,figures", [
    pytest.param(name, figures, id=name) for name, figures in [
        ("06_wedge_figure.py", ["wedges_all.svg"]),
        ("07_wkb_profiles.py", ["wkb_bare.svg", "wkb_weighted.svg"]),
        ("08_hermite_weight_analogy.py", ["hermite.svg"])]])
def test_demo_figures_match_the_committed_ones(tmp_path, name, figures):
    shutil.copy(ROOT / "demos" / name, tmp_path)
    run_demo(name, tmp_path)
    written = sorted(p.name for p in (tmp_path / "output").iterdir())
    assert written == sorted(figures)
    for figure in figures:
        assert (tmp_path / "output" / figure).read_bytes() \
            == (ROOT / "demos" / "output" / figure).read_bytes(), figure
