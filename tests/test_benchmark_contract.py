"""The benchmark harness in ``perfbench/`` still fits the package.

``perfbench/spans.py`` looks each traced function up by name and
``perfbench/workloads.py`` calls the package directly, so a rename in
``src/`` can break the benchmark.  Both files are loaded by path and left
unchanged.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for module_name, fn_name in _load("spans").TARGETS:
        module = importlib.import_module(f"ptcontour.{module_name}")
        assert callable(getattr(module, fn_name)), (module_name, fn_name)


@pytest.mark.parametrize("name", ["spectra", "isometry", "sweep"])
def test_one_cycle_passes_its_check(tmp_path, name):
    # a cycle is every grid size, level count and ANCHOR op the workload runs
    workload = _load("workloads").WORKLOADS[name](1, tmp_path)
    for i in range(workload.cycle):
        passed, _ = workload.check(i, workload.call(i))
        assert passed, (name, i)
