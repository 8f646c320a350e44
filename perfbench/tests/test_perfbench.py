"""Self-test of the benchmark: tiny runs of every workload, and failures being counted.

    python3 -m pytest perfbench/tests
"""

import functools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from colluder_lab import FitConfig, cli  # noqa: E402

TINY = {
    "sim-ccm22-pool": {"sample_sizes": (2000,), "replications": 16},
    "sim-ccm44": {"sample_sizes": (1000,), "replications": 1},
    "fit-csv": {"laws": 2, "records": 5000},
    "exact-solve": {},
}
NAMED = {
    "sim-ccm22-pool": ["cells_per_s = .* cells/s", "run_scenario_p50_ms = .* ms",
                       "run_scenario_tail_ms = .* ms"],
    "sim-ccm44": ["cells_per_s = .* cells/s", "run_scenario_p50_ms = .* ms",
                  "run_scenario_tail_ms = .* ms"],
    "fit-csv": ["fits_per_s = .* fits/s", "fit_p50_ms = .* ms", "fit_tail_ms = .* ms"],
    "exact-solve": ["solves_per_s = .* solves/s", "call_p50_ms = .* ms", "call_tail_ms = .* ms"],
}
COMMON = ["failed_frac = .* ratio", "peak_rss_mb = .* MB", "setup_s = .* s"]


def declared(kind: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", run.NAMES)
def test_tiny_run_prints_every_metric(name, trace, tmp_path, capsys):
    result = run.run_one(name, 5, 0.5, trace, TINY[name], out_dir=tmp_path)
    out = capsys.readouterr().out
    want = declared("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert out.startswith("env: ")
    lines = [f"  {k} = .* {u}" for k, u in want.items()] if trace else NAMED[name] + COMMON
    for line in lines:
        assert re.search(line, out), line
    record = json.loads((tmp_path / "results" / f"{name}-seed5-trace{int(trace)}.json").read_text())
    assert record["env"]["cores"] >= 1 and "OPENBLAS_NUM_THREADS" in record["env"]
    if name == "exact-solve":
        assert result["failed"] == 0


def test_missing_sources_exit_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact-solve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_shifted_mechanism_value_is_a_failure(tmp_path):
    wl = workloads.ExactSolveWorkload(7, tmp_path)
    wl.setup()
    code, stdout = wl.run(0)
    assert wl.check(0, (code, stdout))[:2] == (1, 0)
    doc = json.loads(stdout)
    doc["colluders"][0]["values"][0][0][0] += 1e-6
    assert wl.check(0, (code, json.dumps(doc)))[:2] == (1, 1)
    assert wl.check(0, (1, stdout))[:2] == (1, 1)


def test_capped_fit_counts_every_call_failed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "FitConfig", functools.partial(FitConfig, max_iterations=3))
    result = run.run_one("fit-csv", 5, 0.5, False, TINY["fit-csv"], out_dir=tmp_path)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"] and not result["correct"]
    assert "not converged" in capsys.readouterr().out


def test_corrupted_or_raising_study_is_counted(tmp_path):
    wl = workloads.WORKLOADS["sim-ccm44"](7, tmp_path, **TINY["sim-ccm44"])
    report = wl.run(0)
    assert wl.check(0, RuntimeError("cell raised"))[:2] == (1, 1)
    for params in report.per_parameter.values():
        for v in params.values():
            v["rmse"] *= 10.0
    assert wl.check(0, report)[:2] == (1, 0)
    failed, why = wl.finish()
    assert failed == 1 and any("RMSE" in w for w in why)
