"""The benchmark's contract with the package still holds.

``perfbench/spans.py`` wraps each ``(path, attr)`` of its ``TRACED`` list by
reading ``owner.__dict__[attr]``, so a renamed or removed function breaks a
traced benchmark run.  ``perfbench/workloads.py`` drives ``cli.main`` with
fixed argument lists and checks each call's output, so a renamed or removed
flag fails its checks, and it runs simulation studies whose cells must all
converge and whose pooled bias and RMSE must stay in the criterion-7 band.
The tracer also reads counts off the results of the calls it wraps
(``spans._extra``), so one traced fit and one traced solve must yield them.
Both files are loaded by path and left unchanged.
"""

import importlib.util
import time
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


def test_traced_calls_give_the_layer_metrics(workloads, tmp_path):
    # The tracer reads ``from_csv(...).rows`` and ``bind(...).patterns`` off the
    # results of the calls it wraps (``spans._extra``).
    (tmp_path / "fit").mkdir()
    (tmp_path / "solve").mkdir()
    fit = workloads.FitCsvWorkload(7, tmp_path / "fit", laws=1)
    solve = workloads.ExactSolveWorkload(7, tmp_path / "solve")
    fit.setup()
    solve.setup()
    tracer = spans.Tracer(tmp_path / "workers")
    windows = []
    tracer.install()
    try:
        for op, w in enumerate((fit, solve)):
            tracer.op = op
            start = time.perf_counter()
            out = w.run(0)
            windows.append((start, time.perf_counter()))
            assert w.errors(0, out) == []
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans, windows, items=len(windows), workers=1)
    assert metrics["estimate.bind.patterns"] > 0
    assert metrics["estimate.from_csv.records"] > 0


def test_sim_ccm22_pool_calls_pass_the_benchmark_checks(workloads, tmp_path):
    # Eight calls pool enough replications for the criterion-7 band that
    # ``finish`` checks on the whole run.
    w = workloads.WORKLOADS["sim-ccm22-pool"](7, tmp_path)
    w.setup()
    for i in range(8):
        attempted, failed, why = w.check(i, w.run(i))
        assert (attempted, failed) == (16, 0), why
    assert w.finish() == (0, [])
