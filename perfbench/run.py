"""colluder-lab benchmark: four closed-loop workloads, one caller in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Every input is generated from ``--seed`` during set-up.  The program prints
the environment block and each metric by name with its unit, and as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run measures the first half of its
time untraced and the second half traced, on the same inputs, and reports
the difference as the tracing overhead.  ``--workload all`` runs each
workload in a child process and prints one table.  Results, and the spans of
traced runs, are written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NAMES = ("sim-ccm22-pool", "sim-ccm44", "fit-csv", "exact-solve")

# The end-to-end metrics under the names each workload reports them by.
ITEM = {"sim-ccm22-pool": "cells", "sim-ccm44": "cells", "fit-csv": "fits",
        "exact-solve": "solves"}
OP = {"sim-ccm22-pool": "run_scenario", "sim-ccm44": "run_scenario", "fit-csv": "fit",
      "exact-solve": "call"}


def environment() -> dict:
    """Core count, library versions and the BLAS thread variables as found."""
    import numpy
    import scipy

    def blas(config) -> str:
        dep = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {"cores": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy.show_config),
            "scipy_blas": blas(scipy.show_config),
            **{v: os.environ.get(v, "unset") for v in BLAS_VARS}}


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value.

    Below 20 samples that percentile would not exceed the median, so the
    maximum is reported instead, as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def peak_rss_mb() -> float:
    """Peak RSS of this process or of the largest worker it has reaped, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(workload, seconds: float, tracer=None) -> dict:
    """Call the workload in a closed loop for about ``seconds``.

    A call starts only while the previous call's duration still fits before
    the deadline, so runs end close to ``seconds`` and never cut a call.
    """
    windows, items, failed, messages = [], 0, 0, []
    begin = time.perf_counter()
    i = 0
    while True:
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        out = workload.run(i)
        t1 = time.perf_counter()
        n, bad, why = workload.check(i, out)
        windows.append((t0, t1))
        items += n
        failed += bad
        messages += why
        i += 1
        if time.perf_counter() - begin + (t1 - t0) > seconds:
            break
    return {"windows": windows, "items": items, "failed": failed, "messages": messages}


def setup(name: str, seed: int, workdir: Path, options: dict):
    """Make the workload's inputs and run one warm-up call, ``SETUP_REPEATS`` times.

    Returns the last workload and the median set-up time.
    """
    from workloads import WORKLOADS

    times = []
    for k in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = time.perf_counter()
        workload = WORKLOADS[name](seed, workdir, **options)
        workload.setup()
        times.append(time.perf_counter() - t0)
    return workload, statistics.median(times)


def end_to_end(name: str, phase: dict, setup_s: float) -> tuple[dict, dict]:
    """The contract metrics and the same figures under the workload's own names."""
    walls = [b - a for a, b in phase["windows"]]
    rate = phase["items"] / sum(walls)
    p50 = 1e3 * statistics.median(walls)
    pct, worst = tail(walls)
    rss = peak_rss_mb()
    # The tail is printed, not returned among the contract metrics: on
    # exact-solve it is the 99.7th percentile, which on a shared 2-core host
    # spread by 0.35 of its median between seeds, above any allowed bound.
    metrics = {"ops_per_s": (rate, "1/s"), "op_p50_ms": (p50, "ms"),
               "peak_rss_mb": (rss, "MB"), "setup_s": (setup_s, "s")}
    item, op = ITEM[name], OP[name]
    named = {f"{item}_per_s": (rate, f"{item}/s"),
             f"{op}_p50_ms": (p50, "ms"),
             f"{op}_tail_ms": (1e3 * worst, f"ms (p{pct:.0f} of {len(walls)} {op} calls)"),
             "failed_frac": (phase["failed"] / phase["items"], "ratio"),
             "peak_rss_mb": (rss, "MB"), "setup_s": (setup_s, "s")}
    return metrics, named


def run_one(name: str, seed: int, seconds: float, trace: bool, options: dict | None = None,
            out_dir: Path = OUT) -> dict:
    """One benchmark run; prints the report and returns the result object."""
    t0 = time.perf_counter()
    import colluder_lab.cli  # noqa: F401  (import cost belongs to set-up)
    import workloads  # noqa: F401
    import_s = time.perf_counter() - t0

    env = environment()
    print("env: " + json.dumps(env))
    run_id = f"{name}-seed{seed}-trace{int(trace)}"
    workdir = out_dir / "work" / f"{run_id}-{os.getpid()}"
    try:
        workload, setup_s = setup(name, seed, workdir, options or {})
        setup_s += import_s
        if not trace:
            phase = measure(workload, seconds)
            metrics, named = end_to_end(name, phase, setup_s)
        else:
            from spans import Tracer, layer_metrics
            plain = measure(workload, seconds / 2)
            tracer = Tracer(workdir / "spans")
            tracer.install()
            try:
                traced = measure(workload, seconds / 2, tracer)
            finally:
                tracer.uninstall()
            per_item = [sum(b - a for a, b in p["windows"]) / p["items"] for p in (plain, traced)]
            layers = layer_metrics(tracer.spans, traced["windows"], traced["items"],
                                   workload.workers)
            layers["trace.overhead_frac"] = per_item[1] / per_item[0] - 1.0
            metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
            named = metrics
            phase = {k: plain[k] + traced[k] for k in ("items", "failed", "messages")}
            (out_dir / "traces").mkdir(parents=True, exist_ok=True)
            tracer.write(out_dir / "traces" / f"{run_id}.jsonl")
        extra_failed, why = workload.finish()
        phase["failed"] += extra_failed
        phase["messages"] += why
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {name}, seed {seed}, {'traced' if trace else 'untraced'}: "
          f"{phase['items']} {ITEM[name]} attempted, {phase['failed']} failed")
    for msg in phase["messages"][:10]:
        print(f"  failure: {msg}")
    for key, (value, unit) in named.items():
        print(f"  {key} = {value:.6g} {unit}")
    result = {"correct": phase["failed"] == 0, "attempted": phase["items"],
              "failed": phase["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "result": result, "failures": phase["messages"],
              "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
              **workload.record()}
    (out_dir / "results" / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its suffix."""
    last = metric.rsplit(".", 1)[-1]
    if last in ("ms", "us", "self_ms"):
        return last.replace("self_", "")
    if last == "calls" or last.endswith("_calls"):
        return "count/op"
    if last.endswith("frac"):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Every workload in its own child process, then one table."""
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"workload {name} exited with code {proc.returncode}")
            total["correct"] = False
            continue
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
            rows.append((name, key, m["value"], m["unit"]))
    print()
    for name, key, value, unit in rows:
        print(f"{name:<16} {key:<40} {value:>14.6g} {unit}")
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = ROOT / "src"
    if not (src / "colluder_lab" / "__init__.py").is_file():
        print(f"perfbench: no colluder_lab package under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
