"""Spans around calls into colluder-lab's layers, recorded from outside the package.

``Tracer.install()`` replaces the public functions listed in ``TRACED`` (and
the simulation cell runner, the unit the process pool executes) with
wrappers that record one span per call: name, start, end, parent span,
operation id, cell id and a few per-call counts.  Spans stay in memory and
are written out when the benchmark ends.  ``Tracer.uninstall()`` restores
the originals, so untraced measurements run the package unmodified.

Pool workers are forked and inherit the wrappers.  A worker keeps its own
spans and appends them to ``spans-<pid>.jsonl`` in the tracer's worker
directory after every cell; the wrapper around ``run_scenario`` merges those
files back once the pool has shut down.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

# (span name, [(module or class path, attribute), ...]).  A name appears in
# every module that imported it with ``from ... import``, because patching
# the defining module alone would miss those references.
TRACED = [
    ("cli.main", [("cli", "main")]),
    ("simstudy.run_scenario", [("simstudy", "run_scenario"), ("cli", "run_scenario")]),
    ("simstudy.cell", [("simstudy", "_run_cell")]),
    ("simstudy.sample_dataset", [("simstudy", "sample_dataset")]),
    ("lawtable.random_law", [("lawtable", "random_law"), ("simstudy", "random_law")]),
    ("lawtable.joint_table", [("lawtable.CategoricalLaw", "joint_table")]),
    ("lawtable.observed_law", [("lawtable", "observed_law"), ("cli", "observed_law"),
                               ("oracles", "observed_law")]),
    ("lawtable.law_from_json", [("lawtable.CategoricalLaw", "from_json")]),
    ("estimate.from_csv", [("estimate.Dataset", "from_csv")]),
    ("estimate.bind", [("estimate.LikelihoodModel", "bind")]),
    ("estimate.log_likelihood", [("estimate.LikelihoodModel", "log_likelihood")]),
    ("estimate.gradient", [("estimate.LikelihoodModel", "gradient")]),
    ("estimate.hessian", [("estimate.LikelihoodModel", "hessian")]),
    ("estimate.fit", [("estimate", "fit"), ("simstudy", "fit"), ("cli", "fit")]),
    ("identify.decide_full_law", [("identify", "decide_full_law"), ("cli", "decide_full_law")]),
    ("identify.colluder_mechanism", [("identify", "colluder_mechanism"),
                                     ("cli", "colluder_mechanism")]),
    ("identify.build_colluder_system", [("identify", "build_colluder_system")]),
    ("identify.solve_colluder", [("identify", "solve_colluder")]),
    ("mdgraph.m_separated", [("mdgraph", "m_separated"), ("identify", "m_separated")]),
    ("mdgraph.graph_from_json", [("mdgraph.MissingDataGraph", "from_json")]),
    ("oracles.construction", [(mod, fn) for mod in ("oracles", "cli")
                              for fn in ("appendix_a_law", "appendix_b_pair", "appendix_c_pair")]),
]

# Entry points the caller invokes; they do not count as layer coverage.
ENTRY_SPANS = ("cli.main", "simstudy.run_scenario")


def _extra(name, args, result) -> dict:
    """Per-call counts recorded on the span."""
    if name == "estimate.from_csv":
        return {"records": len(result.rows)}
    if name == "estimate.bind":
        return {"patterns": len(result.patterns)}
    if name == "estimate.fit":
        return {"iterations": int(result.iterations), "converged": bool(result.converged)}
    if name == "simstudy.cell":
        return {"cell": [int(args[1]), int(args[2])]}
    return {}


def _resolve(path: str):
    mod, _, cls = path.partition(".")
    obj = importlib.import_module(f"colluder_lab.{mod}")
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span recorder for one benchmark process and the pool workers it forks."""

    def __init__(self, worker_dir: Path):
        self.worker_dir = Path(worker_dir)
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        self.owner = self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self._next = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        for name, targets in TRACED:
            for path, attr in targets:
                owner = _resolve(path)
                raw = owner.__dict__[attr]
                self._saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                self._forked()
            sid = (self.pid << 24) | self._next
            self._next += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            span = {"id": sid, "parent": parent, "name": name, "op": self.op, "pid": self.pid}
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span.update(_extra(name, args, result))
                return result
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
                self.spans.append(span)
                if name == "simstudy.cell" and self.pid != self.owner:
                    self._flush_worker()
                elif name == "simstudy.run_scenario" and self.pid == self.owner:
                    self._merge_workers()

        return wrapper

    # -- pool workers ----------------------------------------------------------

    def _forked(self) -> None:
        # A forked worker inherits the caller's open spans as parents but not
        # its recorded spans, which the caller keeps and writes itself.
        self.pid = os.getpid()
        self.spans = []
        self._next = 0

    def _flush_worker(self) -> None:
        self.write(self.worker_dir / f"spans-{self.pid}.jsonl", "a")
        self.spans = []

    def _merge_workers(self) -> None:
        for path in sorted(self.worker_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                self.spans.extend(json.loads(line) for line in fh)
            path.unlink()

    def write(self, path: Path, mode: str = "w") -> None:
        """Write the recorded spans as JSON lines (``mode`` "a" appends)."""
        with open(path, mode) as fh:
            fh.writelines(json.dumps(s) + "\n" for s in self.spans)


# -- per-layer metrics ------------------------------------------------------------

PER_CALL_MS = ["simstudy.sample_dataset", "simstudy.run_scenario", "lawtable.random_law",
               "lawtable.joint_table", "lawtable.observed_law", "lawtable.law_from_json",
               "estimate.from_csv", "estimate.bind", "estimate.hessian", "estimate.fit",
               "identify.colluder_mechanism", "mdgraph.graph_from_json",
               "oracles.construction"]
PER_CALL_US = ["estimate.log_likelihood", "estimate.gradient", "identify.decide_full_law",
               "identify.solve_colluder", "mdgraph.m_separated"]
PER_OP_CALLS = ["simstudy.sample_dataset", "lawtable.observed_law", "estimate.log_likelihood",
                "estimate.gradient", "estimate.hessian", "identify.build_colluder_system",
                "mdgraph.m_separated"]
SELF_MS = ["estimate.fit", "cli.main"]


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans: list[dict], op_windows: list[tuple[float, float]], items: int,
                  workers: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced phase.

    ``op_windows`` are the (start, end) times of the caller's operations,
    indexed by the operation id spans carry, and ``items`` the cells or
    calls they completed; per-operation counts are
    divided by ``items``.  The gradient calls a finite-difference Hessian
    makes are counted under ``estimate.hessian.gradient_calls`` only.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def parent_name(s):
        p = by_id.get(s["parent"])
        return p["name"] if p else None

    groups: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        if s["name"] == "estimate.gradient" and parent_name(s) == "estimate.hessian":
            groups["estimate.hessian.gradient"].append(s)
        else:
            groups[s["name"]].append(s)

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    def dur(s) -> float:
        return s["end"] - s["start"]

    out: dict[str, float] = {}
    for name in PER_CALL_MS:
        out[f"{name}.ms"] = 1e3 * mean(dur(s) for s in groups[name])
    for name in PER_CALL_US:
        out[f"{name}.us"] = 1e6 * mean(dur(s) for s in groups[name])
    per_item = 1.0 / max(items, 1)
    for name in PER_OP_CALLS:
        out[f"{name}.calls"] = len(groups[name]) * per_item
    out["estimate.hessian.gradient_calls"] = len(groups["estimate.hessian.gradient"]) * per_item
    for name in SELF_MS:
        out[f"{name}.self_ms"] = 1e3 * mean(dur(s) - child_time[s["id"]] for s in groups[name])
    out["estimate.from_csv.records"] = mean(s["records"] for s in groups["estimate.from_csv"])
    out["estimate.bind.patterns"] = mean(s["patterns"] for s in groups["estimate.bind"])
    fits = groups["estimate.fit"]
    out["estimate.fit.iterations"] = mean(s["iterations"] for s in fits)
    out["estimate.fit.converged_frac"] = mean(float(s["converged"]) for s in fits)

    owner = {s["pid"] for s in groups["simstudy.run_scenario"]}
    worker_cells = [s for s in groups["simstudy.cell"] if s["pid"] not in owner]
    scenario_wall = sum(dur(s) for s in groups["simstudy.run_scenario"])
    out["simstudy.pool.busy_frac"] = (sum(dur(s) for s in worker_cells)
                                      / (workers * scenario_wall)
                                      if worker_cells and scenario_wall else 0.0)

    wall = sum(b - a for a, b in op_windows)
    layer: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["name"] not in ENTRY_SPANS:
            layer[s["op"]].append((s["start"], s["end"]))
    covered = sum(_union((max(s, a), min(e, b)) for s, e in layer[i])
                  for i, (a, b) in enumerate(op_windows))
    out["trace.uncovered_frac"] = 1.0 - covered / wall if wall else 0.0
    return out
