"""Replicated simulation studies: draw laws, sample, fit, aggregate bias and RMSE.

Replications are independent cells seeded by (scenario seed, sample-size
index, replication index), and a cell's fit does not depend on the other
cells fitted in its batch, so results are reproducible under any scheduling;
aggregation is a deterministic fold in replication order.

Each cell is fitted by :func:`~colluder_lab.estimate.fit_counts` from its
plug-in start (:func:`~colluder_lab.estimate.plug_in`), where the
saturated-model certificate may settle it, and its random starts.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ColluderLabError, LawError, check_integer, is_finite_real
# ``fit`` is not called here, but perfbench's tracer wraps ``simstudy.fit``.
from .estimate import (Dataset, FitConfig, LikelihoodModel, ParameterEstimate,  # noqa: F401
                       fit, fit_counts, plug_in)
from .fixtures import ccm_graph
from .lawtable import (CategoricalLaw, SimConstraints, coarsening_map, observable_axes,
                       random_law)
from .mdgraph import MissingDataGraph, VertexRole, json_object, load_json_source


def sample_dataset(law: CategoricalLaw, n: int, seed=None) -> Dataset:
    """Draw ``n`` i.i.d. records by forward sampling and masking the proxies.

    The dataset holds the records as observed-cell counts.
    """
    return Dataset.from_cell_weights(law.graph, _cell_counts(law, n, seed))


def _cell_counts(law: CategoricalLaw, n: int, seed) -> np.ndarray:
    """The count of every observed cell among ``n`` i.i.d. records drawn for ``seed``.

    One multinomial draw over the flattened full joint, summed by the coarsening map.
    """
    if n < 1:
        raise LawError("sample size must be positive")
    probs = law.joint_table().values.astype(float).reshape(-1)
    counts = np.random.default_rng(seed).multinomial(n, probs / probs.sum())
    size = int(np.prod([a.size for a in observable_axes(law.graph)]))
    return np.bincount(coarsening_map(law.graph).reshape(-1), weights=counts, minlength=size)


@dataclass(frozen=True)
class SimScenario:
    """One simulation design on the two-variable colluder graph with X -> Y."""

    m: int = 2
    q: int = 2
    sample_sizes: tuple[int, ...] = (1000, 10000, 100000)
    replications: int = 200
    seed: int = 0
    constraints: SimConstraints = field(default_factory=SimConstraints)
    restarts: int = 2
    max_failure_rate: float = 0.02

    def __post_init__(self):
        for name, low in (("m", 1), ("q", 1), ("replications", 1), ("seed", 0),
                          ("restarts", 1)):
            check_integer(name, getattr(self, name), low, LawError)
        if not self.sample_sizes:
            raise LawError("sample_sizes must not be empty")
        for n in self.sample_sizes:
            check_integer("sample size", n, 1, LawError)
        rate = self.max_failure_rate
        if not (is_finite_real(rate) and 0.0 <= rate <= 1.0):
            raise LawError(f"max_failure_rate must lie in [0, 1], got {rate!r}")
        if self.m > self.q:
            raise LawError(f"CCM({self.m},{self.q}) needs m <= q for an identifiable design")

    def graph(self) -> MissingDataGraph:
        return ccm_graph(self.m, self.q)

    def to_json(self) -> dict:
        return {"m": self.m, "q": self.q, "sample_sizes": list(self.sample_sizes),
                "replications": self.replications, "seed": self.seed,
                "constraints": self.constraints.to_json(), "restarts": self.restarts,
                "max_failure_rate": self.max_failure_rate}

    @classmethod
    def from_json(cls, source) -> "SimScenario":
        obj = json_object(load_json_source(source, LawError), "scenario",
                          [f.name for f in fields(cls)], LawError)
        kwargs = dict(obj)
        if "sample_sizes" in kwargs:
            if not isinstance(kwargs["sample_sizes"], (list, tuple)):
                raise LawError(f"sample_sizes must be a list, got {kwargs['sample_sizes']!r}")
            kwargs["sample_sizes"] = tuple(kwargs["sample_sizes"])
        if "constraints" in kwargs:
            kwargs["constraints"] = SimConstraints.from_json(kwargs["constraints"])
        return cls(**kwargs)


def _parameter_layout(graph: MissingDataGraph) -> list[tuple[str, str, str]]:
    """The probabilities a fit reports, in its order: (vertex, colluder/other group, label)."""
    coords = []
    for name, given, level, _, _ in LikelihoodModel(graph).parameter_coords():
        indicator = graph.vertex(name).role is VertexRole.RESPONSE_INDICATOR
        # Only the label is read; the estimate fields are placeholders.
        label = ParameterEstimate(name, given, level, np.nan, None, None, False, False).label()
        coords.append((name, "colluder" if indicator and given else "other", label))
    return coords


def _run_cell(scenario: SimScenario, n_idx: int, rep: int):
    """One replication's draws: its law, its sample's observed-cell counts and its fit seed."""
    ss = np.random.SeedSequence((scenario.seed, n_idx, rep))
    law_seed, data_seed, fit_seed = ss.spawn(3)
    law = random_law(scenario.graph(), scenario.constraints, law_seed)
    counts = _cell_counts(law, scenario.sample_sizes[n_idx], data_seed)
    return law, counts, int(fit_seed.generate_state(1)[0])


#: The most cells one Newton batch holds.  A batch keeps about 70 kB per start of a
#: CCM(4,4) cell, and a cell holds 1 start when the certificate settles it,
#: ``restarts`` + 1 with a plug-in it does not settle and ``restarts`` without one,
#: so the cap bounds a large study's memory; a cell's fit does not depend on its
#: batch, so the cap does not change results.
_BATCH_CELLS = 64


def _run_cells(scenario: SimScenario, cells) -> list:
    """Fit the (sample-size index, replication) ``cells`` in batches of at most
    ``_BATCH_CELLS`` cells, each from its plug-in start and its random starts
    (see :func:`~colluder_lab.estimate.fit_counts`).  Each cell's result is its
    error vector, or None where the fit did not converge, and whether the
    certificate settled it."""
    if len(cells) > _BATCH_CELLS:
        return [r for i in range(0, len(cells), _BATCH_CELLS)
                for r in _run_cells(scenario, cells[i:i + _BATCH_CELLS])]
    model = LikelihoodModel(scenario.graph())
    draws = [_run_cell(scenario, n_idx, rep) for n_idx, rep in cells]
    counts = np.stack([c for _, c, _ in draws])
    theta, *_, converged, _, certified = fit_counts(
        model, counts, [plug_in(model, c) for c in counts], [seed for *_, seed in draws],
        scenario.restarts, FitConfig().max_iterations)
    est = model.probabilities(theta)
    # A law's CPT entries of levels 1 and up, vertex by vertex, are in parameter order.
    return [(e - np.concatenate([law.cpts[name][..., 1:].reshape(-1) for name in model.names])
             if ok else None, bool(c))
            for (law, *_), e, ok, c in zip(draws, est, converged, certified)]


@dataclass(frozen=True)
class GroupSummary:
    group: str
    label: str
    n: int
    bias_min: float
    bias_max: float
    rmse_mean: float
    rmse_max: float

    def to_json(self) -> dict:
        return {"group": self.group, "label": self.label, "n": self.n,
                "bias_min": self.bias_min, "bias_max": self.bias_max,
                "rmse_mean": self.rmse_mean, "rmse_max": self.rmse_max}


@dataclass(frozen=True)
class SimReport:
    scenario: SimScenario
    summaries: tuple[GroupSummary, ...]
    per_parameter: dict
    failures: dict
    certified: dict

    def summary(self, group: str, n: int) -> GroupSummary:
        for s in self.summaries:
            if s.group == group and s.n == n:
                return s
        raise KeyError((group, n))

    def to_json(self) -> dict:
        return {"scenario": self.scenario.to_json(),
                "summaries": [s.to_json() for s in self.summaries],
                "per_parameter": {str(k): v for k, v in self.per_parameter.items()},
                "failures": {str(k): v for k, v in self.failures.items()},
                "certified": {str(k): v for k, v in self.certified.items()}}

    def format_table(self) -> str:
        head = f"Scenario m={self.scenario.m}, q={self.scenario.q} " \
               f"({self.scenario.replications} replications)"
        rows = [("Parameters for", "n", "Bias min", "Bias max", "RMSE mean", "RMSE max")]
        for group in ("colluder", "other"):
            for s in self.summaries:
                if s.group != group:
                    continue
                rows.append((s.label, str(s.n), f"{s.bias_min:.4f}", f"{s.bias_max:.4f}",
                             f"{s.rmse_mean:.4f}", f"{s.rmse_max:.4f}"))
        widths = [max(len(r[i]) for r in rows) for i in range(6)]
        lines = [head, ""]
        for i, r in enumerate(rows):
            lines.append("  ".join(f"{r[j]:<{widths[j]}}" if j == 0 else f"{r[j]:>{widths[j]}}"
                                   for j in range(6)).rstrip())
            if i == 0:
                lines.append("-" * (sum(widths) + 10))
        fails = ", ".join(f"n={n}: {c}" for n, c in sorted(self.failures.items()))
        settled = ", ".join(f"n={n}: {c}" for n, c in sorted(self.certified.items()))
        lines.append("")
        lines.append(f"non-converged replications excluded: {fails}")
        lines.append(f"replications certified at the saturated optimum: {settled}")
        return "\n".join(lines)


def _openblas_thread_controls() -> list[tuple[Callable, Callable]]:
    """``(set_num_threads, get_num_threads)`` of each OpenBLAS mapped into this process.

    numpy and scipy wheels each bundle their own OpenBLAS under its own
    symbol prefix.  Empty where ``/proc/self/maps`` is unreadable or no
    loaded library exports the functions.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for stem, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
            setter = getattr(lib, f"{stem}_set_num_threads{suffix}", None)
            getter = getattr(lib, f"{stem}_get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return controls


@contextlib.contextmanager
def _one_blas_thread():
    """Run every loaded OpenBLAS on one thread inside the block.

    The processes of a study fill the cores, so a BLAS thread pool per
    process would oversubscribe them.  The previous thread counts are
    restored on exit, also when the block raises.  Only counts above one are
    set: OpenBLAS rebuilds its thread pool, whose idle threads spin for a
    while, on the first ``set_num_threads`` after a fork, so a worker forked
    inside the block, which inherits the count of one, must not set it again.
    """
    saved = [(set_threads, get_threads())
             for set_threads, get_threads in _openblas_thread_controls()]
    changed = [(set_threads, count) for set_threads, count in saved if count != 1]
    for set_threads, _ in changed:
        set_threads(1)
    try:
        yield
    finally:
        for set_threads, count in changed:
            set_threads(count)


def _fit_share(scenario: SimScenario, cells) -> list:
    """A worker's share of a study.  The pool pickles this function by name, and it
    looks up :func:`_run_cells` when the share runs, on the one BLAS thread the
    worker inherits from the caller's :func:`_one_blas_thread` block."""
    return _run_cells(scenario, cells)


def run_scenario(scenario: SimScenario, threads: int = 1) -> SimReport:
    """Run every (sample size, replication) cell and aggregate bias and RMSE by group.

    Each cell's law and sample are drawn from its own seed; the cells are
    then fitted in batches of up to ``_BATCH_CELLS`` cells (see
    :func:`_run_cells`).  ``threads`` must be at least 1.  With ``threads`` =
    w > 1 the cells are split into w contiguous shares: the calling process
    fits the first share while w - 1 forked worker processes fit the others,
    each process with its BLAS limited to one thread, and the results are
    joined in cell order.  The report is the same for any value.
    Non-convergent fits are excluded from the aggregates and counted; the
    scenario fails if more than ``max_failure_rate`` of the replications at
    any sample size did not converge.  The report also counts the
    replications the certificate settled at each sample size.
    """
    check_integer("threads", threads, 1, ColluderLabError)
    graph = scenario.graph()
    coords = _parameter_layout(graph)
    groups = [c[1] for c in coords]
    labels = [c[2] for c in coords]

    cells = [(n_idx, rep) for n_idx in range(len(scenario.sample_sizes))
             for rep in range(scenario.replications)]
    workers = min(threads, len(cells))
    if workers > 1:
        first, *others = [cells[len(cells) * i // workers:len(cells) * (i + 1) // workers]
                          for i in range(workers)]
        with _one_blas_thread(), ProcessPoolExecutor(max_workers=workers - 1) as pool:
            forked = pool.map(_fit_share, [scenario] * len(others), others)
            results = _run_cells(scenario, first) + [r for share in forked for r in share]
    else:
        results = _run_cells(scenario, cells)

    summaries = []
    per_parameter: dict = {}
    failures: dict = {}
    certified: dict = {}
    group_label = {
        g: ", ".join(sorted({_vertex_label(graph, c[0]) for c in coords if c[1] == g}))
        for g in ("colluder", "other")
    }
    for n_idx, n in enumerate(scenario.sample_sizes):
        errs = [results[i] for i, (ni, _) in enumerate(cells) if ni == n_idx]
        ok = np.array([e for e, _ in errs if e is not None])
        failed = sum(1 for e, _ in errs if e is None)
        failures[n] = failed
        certified[n] = sum(c for _, c in errs)
        if failed > scenario.max_failure_rate * scenario.replications:
            raise ColluderLabError(
                f"scenario failed: {failed}/{scenario.replications} replications "
                f"did not converge at n={n}")
        bias = ok.mean(axis=0)
        rmse = np.sqrt((ok ** 2).mean(axis=0))
        per_parameter[n] = {lb: {"bias": float(b), "rmse": float(r)}
                            for lb, b, r in zip(labels, bias, rmse)}
        for group in ("colluder", "other"):
            sel = [i for i, g in enumerate(groups) if g == group]
            if not sel:
                continue
            summaries.append(GroupSummary(
                group, group_label[group], n,
                bias_min=float(bias[sel].min()), bias_max=float(bias[sel].max()),
                rmse_mean=float(rmse[sel].mean()), rmse_max=float(rmse[sel].max())))
    per_parameter = {int(k): v for k, v in per_parameter.items()}
    return SimReport(scenario, tuple(summaries), per_parameter, failures, certified)


def _vertex_label(graph: MissingDataGraph, name: str) -> str:
    parents = CategoricalLaw.parent_order(graph, name)
    head = f"p({name}=1" if graph.vertex(name).role is VertexRole.RESPONSE_INDICATOR \
        else f"p({name}"
    return head + (f" | {', '.join(parents)})" if parents else ")")
