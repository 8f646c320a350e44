"""The benchmark's contract with the package still holds.

``perfbench/spans.py`` wraps each ``(path, attr)`` of its ``TRACED`` list by
reading ``owner.__dict__[attr]``, so a renamed or removed function breaks a
traced benchmark run.  ``perfbench/workloads.py`` drives ``cli.main`` with
fixed argument lists and checks each call's output, so a renamed or removed
flag fails its checks.  Both files are loaded by path and left unchanged.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
WORKLOADS = SPANS.with_name("workloads.py")


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load(SPANS, "perfbench_spans")


@pytest.fixture(scope="module")
def workloads():
    return _load(WORKLOADS, "perfbench_workloads")


@pytest.mark.parametrize("name, path, attr", [
    (name, path, attr) for name, targets in spans.TRACED for path, attr in targets])
def test_traced_target_resolves(name, path, attr):
    assert attr in spans._resolve(path).__dict__, f"{name}: {path}.{attr} is gone"


def test_exact_solve_calls_pass_the_benchmark_checks(workloads, tmp_path):
    w = workloads.ExactSolveWorkload(7, tmp_path)
    w.setup()
    for i in range(len(w.calls)):
        assert w.errors(i, w.run(i)) == [], w.calls[i]["argv"]


def test_fit_csv_call_passes_the_benchmark_checks(workloads, tmp_path):
    w = workloads.FitCsvWorkload(7, tmp_path, laws=1)
    w.setup()
    assert w.errors(0, w.run(0)) == []
