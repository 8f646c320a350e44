"""Replicated simulation studies: draw laws, sample, fit, aggregate bias and RMSE.

Replications are independent cells seeded by (scenario seed, sample-size
index, replication index), and a cell's fit does not depend on the other
cells fitted in its batch, so results are reproducible under any scheduling;
aggregation is a deterministic fold in replication order.

The caller settles every cell it can: it draws the cell, reads its plug-in
start (:func:`~colluder_lab.estimate.plug_in`) and runs the saturated-model
certificate (:func:`~colluder_lab.estimate.certify`).  A batch of cells is
handled at once at every stage: its laws are drawn by one
:func:`~colluder_lab.lawtable.random_cpts` call, its samples binned by one
``bincount`` and its plug-ins read in one float pass.  Each cell keeps its own
generators, so its law and sample do not depend on its batch.  The cells left
climb their plug-in and random starts (:func:`~colluder_lab.estimate.climb`).

On w > 1 processes, and with two climbs left or more, the climbs are split
into at most w shares and a child is forked per extra share.  It inherits
the drawn counts, plug-ins and seeds, and sends its share's results, or the
exception its share raised, back through a one-way pipe; nothing is pickled
to it.  The ``fork`` start method is pinned: a forked child inherits the
caller's BLAS cap and its module state, which a ``spawn`` or ``forkserver``
child (the Linux default from Python 3.14) would not.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import multiprocessing
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ColluderLabError, LawError, check_integer, is_finite_real
# ``fit`` and ``random_law`` are not called here, but perfbench's tracer wraps
# ``simstudy.fit`` and ``simstudy.random_law``.
from .estimate import (Dataset, FitConfig, LikelihoodModel, ParameterEstimate,  # noqa: F401
                       certify, climb, fit, plug_in)
from .fixtures import ccm_graph
from .lawtable import (CategoricalLaw, SimConstraints, coarsening_map,  # noqa: F401
                       cpt_subscripts, joint_from_cpts, observable_axes, random_cpts,
                       random_law)
from .mdgraph import MissingDataGraph, VertexRole, json_object, load_json_source


def sample_dataset(law: CategoricalLaw, n: int, seed=None) -> Dataset:
    """Draw ``n`` i.i.d. records by forward sampling and masking the proxies.

    The dataset holds the records as observed-cell counts, drawn by
    :func:`_cell_counts` from the law's joint; an exact law's joint is exact
    until each cell is rounded once.
    """
    joint = law.joint_table().values.astype(float)
    return Dataset.from_cell_weights(law.graph, _cell_counts(law.graph, joint[None], [n],
                                                             [seed])[0])


def _cell_counts(graph: MissingDataGraph, joints: np.ndarray, sizes, seeds) -> np.ndarray:
    """The count of every observed cell (C, n_obs) among ``sizes[i]`` i.i.d. records
    drawn from ``joints[i]`` for ``seeds[i]``; ``joints`` is (C, *full-joint shape).

    One multinomial draw per joint over its flattened cells, each from its own
    generator; the draws are then summed by the coarsening map in one ``bincount``.
    """
    if min(sizes) < 1:
        raise LawError("sample size must be positive")
    probs = joints.reshape(len(joints), -1)
    probs = probs / probs.sum(axis=1, keepdims=True)
    counts = np.stack([np.random.default_rng(seed).multinomial(n, p)
                       for n, seed, p in zip(sizes, seeds, probs)])
    n_obs = int(np.prod([a.size for a in observable_axes(graph)]))
    cells = coarsening_map(graph).reshape(-1) + n_obs * np.arange(len(probs))[:, None]
    return np.bincount(cells.reshape(-1), weights=counts.reshape(-1),
                       minlength=len(probs) * n_obs).reshape(len(probs), n_obs)


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
        if len(set(self.sample_sizes)) < len(self.sample_sizes):
            raise LawError(f"sample_sizes must be distinct, got {list(self.sample_sizes)}")
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


def _parameter_layout(model: LikelihoodModel) -> list[tuple[str, str, str]]:
    """The probabilities ``model``'s fit reports, in its order: (vertex,
    colluder/other group, label)."""
    coords = []
    for name, given, level, _, _ in model.parameter_coords():
        indicator = model.graph.vertex(name).role is VertexRole.RESPONSE_INDICATOR
        # Only the label is read; the estimate fields are placeholders.
        label = ParameterEstimate(name, given, level, np.nan, None, None, False, False).label()
        coords.append((name, "colluder" if indicator and given else "other", label))
    return coords


def _draw_cells(scenario: SimScenario, graph: MissingDataGraph, cells):
    """The draws of the (sample-size index, replication) ``cells`` on the scenario's
    ``graph``: their laws' CPTs with a leading cell axis (see
    :func:`~colluder_lab.lawtable.random_cpts`), their samples' observed-cell counts
    (C, n_obs) and their fit seeds.  A cell's law, sample and fit seed come from
    the three children of the seed sequence (scenario seed, sample-size index,
    replication), so they do not depend on the cell's batch.  Each child is built
    as ``SeedSequence.spawn(3)`` builds it, from the parent's entropy and its own
    spawn key, without mixing the parent's entropy pool first."""
    seeds = [[np.random.SeedSequence((scenario.seed, n_idx, rep), spawn_key=(k,))
              for k in range(3)] for n_idx, rep in cells]
    cpts = random_cpts(graph, scenario.constraints, [law for law, _, _ in seeds])
    joints = joint_from_cpts(cpt_subscripts(graph), [cpts[v.name] for v in graph.vertices])
    counts = _cell_counts(graph, joints, [scenario.sample_sizes[n_idx] for n_idx, _ in cells],
                          [data for _, data, _ in seeds])
    return cpts, counts, [int(fit.generate_state(1)[0]) for *_, fit in seeds]


def _run_cell(scenario: SimScenario, n_idx: int, rep: int, graph: MissingDataGraph):
    """One replication's draws on the scenario's ``graph``: its law, its sample's
    observed-cell counts and its fit seed, as :func:`_draw_cells` draws them in any
    batch.  A study draws its cells in batches; perfbench's tracer wraps this."""
    cpts, counts, seeds = _draw_cells(scenario, graph, [(n_idx, rep)])
    return CategoricalLaw(graph, {name: cpt[0] for name, cpt in cpts.items()}), counts[0], seeds[0]


#: The most cells one batch holds, in either pass.  A climb keeps about 70 kB per
#: start of a CCM(4,4) cell, ``restarts`` + 1 starts with a plug-in and
#: ``restarts`` without, and the certificate 1 per cell with a plug-in, so the cap
#: bounds a large study's memory; a cell's fit does not depend on its batch, so
#: the cap does not change results.
_BATCH_CELLS = 64


def _settle_cells(scenario: SimScenario, model: LikelihoodModel, cells) -> tuple[dict, list]:
    """Draw the (sample-size index, replication) ``cells`` and read their plug-ins
    (see :func:`_draw_cells`) in batches of at most ``_BATCH_CELLS`` cells, and
    certify what can be.  Returns each settled cell's result, its error vector and
    True, by cell, and the climbs left in cell order: ``(cell, counts, plug-in,
    fit seed, true parameters)`` of each cell the certificate did not settle."""
    settled, climbs = {}, []
    for i in range(0, len(cells), _BATCH_CELLS):
        batch = cells[i:i + _BATCH_CELLS]
        cpts, counts, seeds = _draw_cells(scenario, model.graph, batch)
        plug_ins = plug_in(model, counts)
        fitted = certify(model, counts, plug_ins, FitConfig().max_iterations)
        # A law's CPT entries of levels 1 and up, vertex by vertex, are in parameter order.
        truth = np.concatenate([cpts[name][..., 1:].reshape(len(batch), -1)
                                for name in model.names], axis=1)
        if fitted:
            errors = model.probabilities(np.array([f[0] for f in fitted.values()]))
            settled.update((batch[j], (e - truth[j], True)) for j, e in zip(fitted, errors))
        climbs += [(cell, counts[j], plug_ins[j], seeds[j], truth[j])
                   for j, cell in enumerate(batch) if j not in fitted]
    return settled, climbs


def _climb_cells(scenario: SimScenario, model: LikelihoodModel, climbs) -> list:
    """Fit each of ``climbs`` (see :func:`_settle_cells`) from its plug-in and random
    starts (see :func:`~colluder_lab.estimate.climb`), in batches of at most
    ``_BATCH_CELLS`` cells.  Each one's result is its error vector, or None where
    the fit did not converge, and False: the certificate did not settle it."""
    results = []
    for i in range(0, len(climbs), _BATCH_CELLS):
        _, counts, plug_ins, seeds, truth = zip(*climbs[i:i + _BATCH_CELLS])
        theta, *_, converged, _ = climb(model, np.stack(counts), plug_ins, seeds,
                                        scenario.restarts, FitConfig().max_iterations)
        results += [(e - t if ok else None, False)
                    for e, t, ok in zip(model.probabilities(theta), truth, converged)]
    return results


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
    """A study's aggregates.  ``per_parameter[n]`` is None, and ``summaries`` hold
    nothing for n, where no replication at sample size n converged."""

    scenario: SimScenario
    summaries: tuple[GroupSummary, ...]
    per_parameter: dict
    failures: dict
    certified: dict

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
        empty = ", ".join(f"n={n}" for n, v in sorted(self.per_parameter.items()) if v is None)
        if empty:
            lines.append(f"no replication converged, so no bias or RMSE: {empty}")
        return "\n".join(lines)


@functools.cache
def _openblas_thread_controls() -> tuple[tuple[Callable, Callable], ...]:
    """``(set_num_threads, get_num_threads)`` of each OpenBLAS mapped into this process.

    numpy and scipy wheels each bundle their own OpenBLAS under its own
    symbol prefix.  Empty where ``/proc/self/maps`` is unreadable or no
    loaded library exports the functions.  Found once per process: numpy's
    OpenBLAS is mapped when this module is imported, and a fit runs no other
    BLAS, so one loaded later needs no cap.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return ()
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
    return tuple(controls)


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


def _send_share(sender, scenario: SimScenario, model: LikelihoodModel, climbs) -> None:
    """A child's share of a study's climbs: send ``(True, results)``, or
    ``(False, exception)`` if the share raised.  :func:`_climb_cells` is looked up
    when the share runs, on the one BLAS thread the child inherits from the
    caller's :func:`_one_blas_thread` block."""
    try:
        message = (True, _climb_cells(scenario, model, climbs))
    except Exception as exc:
        message = (False, exc)
    sender.send(message)


def _receive_share(number: int, child, receiver) -> list:
    """Share ``number``'s results as its child sent them; raise what the share raised."""
    try:
        ok, payload = receiver.recv()
    except (EOFError, OSError):
        child.join()
        raise ColluderLabError(f"share {number} of the study: its worker process exited "
                               f"with code {child.exitcode} before sending results") from None
    if not ok:
        raise payload
    return payload


def run_scenario(scenario: SimScenario, threads: int = 1) -> SimReport:
    """Run every (sample size, replication) cell and aggregate bias and RMSE by group.

    The caller settles what the certificate can (see :func:`_settle_cells`), and
    the other cells climb (see :func:`_climb_cells`).  ``threads`` must be at
    least 1.  With ``threads`` = w > 1 and two climbs left or more, the climbs
    are split into at most w contiguous shares and the caller's BLAS is limited
    to one thread; then one child per share after the first is forked with the
    ``fork`` start method, so that it inherits that limit, the climbs and the
    module's state.  The caller fits the first share and reads each child's
    results from its pipe in share order.  An exception a share raised is
    raised in the caller, and a child that exits without sending its results
    raises :class:`ColluderLabError`; the children still running are then
    terminated.  Every child is joined before this returns or raises.  The
    report is the same for any value.
    Non-convergent fits are excluded from the aggregates and counted; the
    scenario fails if more than ``max_failure_rate`` of the replications at
    any sample size did not converge, and a sample size at which none
    converged has no aggregates.  The report also counts the replications the
    certificate settled at each sample size.
    """
    check_integer("threads", threads, 1, ColluderLabError)
    graph = scenario.graph()
    model = LikelihoodModel(graph)
    coords = _parameter_layout(model)
    groups = [c[1] for c in coords]
    labels = [c[2] for c in coords]

    cells = [(n_idx, rep) for n_idx in range(len(scenario.sample_sizes))
             for rep in range(scenario.replications)]
    results, climbs = _settle_cells(scenario, model, cells)
    workers = min(threads, len(climbs))
    if workers > 1:
        first, *others = [climbs[len(climbs) * i // workers:len(climbs) * (i + 1) // workers]
                          for i in range(workers)]
        context = multiprocessing.get_context("fork")
        children = []
        with _one_blas_thread():
            try:
                for share in others:
                    receiver, sender = context.Pipe(duplex=False)
                    child = context.Process(target=_send_share,
                                            args=(sender, scenario, model, share))
                    child.start()
                    # Closed before the next fork, so that the pipe reads EOF once
                    # this child exits, also when it dies without sending.
                    sender.close()
                    children.append((child, receiver))
                climbed = _climb_cells(scenario, model, first)
                for number, (child, receiver) in enumerate(children, start=2):
                    climbed += _receive_share(number, child, receiver)
            except BaseException:
                for child, _ in children:
                    child.terminate()
                raise
            finally:
                for child, receiver in children:
                    child.join()
                    receiver.close()
    else:
        climbed = _climb_cells(scenario, model, climbs)
    results.update((cell, r) for (cell, *_), r in zip(climbs, climbed))

    summaries = []
    per_parameter: dict = {}
    failures: dict = {}
    certified: dict = {}
    group_label = {
        g: ", ".join(sorted({_vertex_label(graph, c[0]) for c in coords if c[1] == g}))
        for g in ("colluder", "other")
    }
    for n_idx, n in enumerate(scenario.sample_sizes):
        errs = [results[n_idx, rep] for rep in range(scenario.replications)]
        ok = [e for e, _ in errs if e is not None]
        failed = len(errs) - len(ok)
        failures[n] = failed
        certified[n] = sum(c for _, c in errs)
        if failed > scenario.max_failure_rate * scenario.replications:
            raise ColluderLabError(
                f"scenario failed: {failed}/{scenario.replications} replications "
                f"did not converge at n={n}")
        if not ok:
            per_parameter[n] = None
            continue
        ok = np.array(ok)
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
    parents = graph.parents(name)
    head = f"p({name}=1" if graph.vertex(name).role is VertexRole.RESPONSE_INDICATOR \
        else f"p({name}"
    return head + (f" | {', '.join(parents)})" if parents else ")")
