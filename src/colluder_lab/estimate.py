"""Maximum likelihood for the categorical full law from incomplete records.

A record's probability is the mass of its observed cell: the sum of the
full-joint cells that :func:`~colluder_lab.lawtable.coarsening_map` sends
there (the record's completion set).  CPT rows are mapped to unconstrained
parameters by exponential normalization with the first level pinned as
reference.  Derivatives are exact: the score sums each full cell's
complete-data score over its expected count given the data, and the Hessian
follows from Louis's identity.  Every start is fitted by damped modified
Newton on that Hessian.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from statistics import NormalDist
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, FitError
from .lawtable import (CategoricalLaw, ObservedLawTable, coarsening_map, cpt_subscripts,
                       joint_from_cpts, observable_axes)
from .mdgraph import MissingDataGraph, VertexRole

_THETA_BOUND = 40.0
#: A fit has converged when the final gradient norm is at most this.
_GRAD_TOL = 1e-8
#: Estimates this close to 0 or 1 are flagged as on the boundary.
_BOUNDARY_TOL = 1e-6
#: Information eigenvalues at most this fraction of the largest span the null space.
_INFO_REL_TOL = 1e-8
#: Coverage of the Wald intervals.
_CI_LEVEL = 0.95


# -- datasets -------------------------------------------------------------------


class Dataset:
    """Incomplete records over the observable columns of a graph.

    Columns follow graph declaration order: fully observed variables, then
    each partially observed variable under its true-variable name (value =
    level or the NA code, which is the level count), then response
    indicators.  ``weights`` are per-record multiplicities (counts, or
    population masses for expected-data fits), finite and non-negative.
    """

    NA = -1  # convenience alias accepted in input rows; stored as the NA level

    def __init__(self, graph: MissingDataGraph, rows, weights=None,
                 columns: Sequence[str] | None = None):
        self.graph = graph
        axes = observable_axes(graph)
        names = [a.name for a in axes]
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            rows = rows.reshape(0, len(names))
        elif rows.ndim == 1:
            rows = rows.reshape(1, -1)
        if rows.shape[1] != len(names):
            raise DataError(f"records have {rows.shape[1]} columns, expected {len(names)}")
        if columns is not None:
            columns = list(columns)
            if sorted(columns) != sorted(names):
                raise DataError(f"columns {columns} do not match graph vertices {names}")
            perm = [columns.index(n) for n in names]
            rows = rows[:, perm]
        rows = rows.copy()

        na_axis = {}
        for i, a in enumerate(axes):
            if a.kind == "proxy":
                na = a.size - 1
                col = rows[:, i]
                col[col == self.NA] = na
                na_axis[i] = na
        for i, a in enumerate(axes):
            col = rows[:, i]
            bad = np.nonzero((col < 0) | (col >= a.size))[0]
            if bad.size:
                raise DataError(f"value {rows[bad[0], i]} out of range for column {a.name!r}",
                                row=int(bad[0]))
        for p in graph.pairs:
            xi = names.index(p.true)
            ri = names.index(p.indicator)
            bad = np.nonzero((rows[:, xi] == na_axis[xi]) != (rows[:, ri] == 0))[0]
            if bad.size:
                raise DataError(
                    f"inconsistent record: {p.true} must be NA exactly when {p.indicator}=0",
                    row=int(bad[0]))

        if weights is None:
            weights = np.ones(len(rows))
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(rows),):
            raise DataError("weights must have one entry per record")
        if not np.all(np.isfinite(weights) & (weights >= 0)):
            raise DataError("weights must be finite and non-negative")
        rows.setflags(write=False)
        weights.setflags(write=False)
        self.columns = tuple(names)
        self.rows = rows
        self.weights = weights

    @property
    def n_records(self) -> int:
        return len(self.rows)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    @classmethod
    def from_cell_weights(cls, graph: MissingDataGraph, weights) -> "Dataset":
        """One record per observed cell of nonzero weight, in ascending cell order.

        ``weights`` has one entry per cell of the observed table (the shape
        of :func:`~colluder_lab.lawtable.observable_axes`, or flat in
        row-major order), such as counts or probabilities.
        """
        weights = np.asarray(weights, dtype=float).reshape(
            [a.size for a in observable_axes(graph)])
        nonzero = weights != 0
        return cls(graph, np.argwhere(nonzero), weights[nonzero])

    def permuted(self, order) -> "Dataset":
        return Dataset(self.graph, self.rows[order], self.weights[order])

    # -- CSV --------------------------------------------------------------

    @classmethod
    def from_csv(cls, path, graph: MissingDataGraph, *, na_token: str = "NA",
                 one_based: bool = False) -> "Dataset":
        """Records from a CSV file with a header row, in file order.

        Each distinct line is parsed and validated once, and each distinct
        field of a column is converted once, so reading costs about as much as
        the file's distinct lines.  Blank lines are skipped.  An error names
        the first line of the file that holds the bad content; a quoted field
        cannot span lines.
        """
        axes = observable_axes(graph)
        kind = {a.name: a.kind for a in axes}
        with open(path) as fh:
            text = fh.read()
        if not text:
            raise DataError("empty CSV file")
        header, *lines = text.split("\n")
        header = [h.strip() for h in next(csv.reader([header]))]
        if sorted(header) != sorted(a.name for a in axes):
            raise DataError(f"CSV columns {header} do not match graph vertices "
                            f"{[a.name for a in axes]}")

        def line_of(content: str) -> int:
            return lines.index(content) + 2

        def level(name: str, cell: str, line: str) -> int:
            cell = cell.strip()
            if cell == na_token:
                if kind[name] != "proxy":
                    raise DataError(f"NA not allowed in column {name!r}", line=line_of(line))
                return cls.NA
            try:
                v = int(cell)
            except ValueError:
                raise DataError(f"non-integer value {cell!r} in column {name!r}",
                                line=line_of(line)) from None
            return v - 1 if one_based and kind[name] != "indicator" else v

        # Each distinct line maps to its record's row of ``table``, or -1 if blank;
        # each column's distinct raw fields map to their levels.
        index = dict.fromkeys(lines)
        levels = [{} for _ in header]
        reader = csv.reader(index)
        table, sources = [], []
        for i, (line, rec) in enumerate(zip(index, reader), start=1):
            if reader.line_num != i:
                raise DataError("quoted field runs past the end of the line",
                                line=line_of(line))
            if not "".join(rec).strip():  # no field holds anything but whitespace
                index[line] = -1
                continue
            if len(rec) != len(header):
                raise DataError("wrong number of fields", line=line_of(line))
            out = []
            for name, cell, seen in zip(header, rec, levels):
                if cell not in seen:
                    seen[cell] = level(name, cell, line)
                out.append(seen[cell])
            index[line] = len(table)
            table.append(out)
            sources.append(line)
        try:
            table = cls(graph, np.array(table, dtype=np.int64).reshape(len(table), len(header)),
                        columns=header)
        except DataError as e:
            if e.row is None:
                raise
            raise DataError(e.reason, line=line_of(sources[e.row])) from None
        order = np.fromiter(map(index.__getitem__, lines), dtype=np.intp, count=len(lines))
        return table.permuted(order[order >= 0])

    def to_csv(self, path, *, na_token: str = "NA", one_based: bool = False) -> None:
        if not np.allclose(self.weights, 1.0):
            raise DataError("only unit-weight datasets can be written as record CSVs")
        axes = observable_axes(self.graph)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.rows:
                out = []
                for a, v in zip(axes, row):
                    if a.kind == "proxy" and v == a.size - 1:
                        out.append(na_token)
                    elif one_based and a.kind != "indicator":
                        out.append(int(v) + 1)
                    else:
                        out.append(int(v))
                writer.writerow(out)


def population_dataset(obs: ObservedLawTable) -> Dataset:
    """A weighted dataset carrying the exact observed law (one record per positive cell)."""
    return Dataset.from_cell_weights(obs.graph, obs.values)


def completion_set(record: Mapping[str, int], graph: MissingDataGraph) -> list[dict]:
    """All full configurations compatible with one observed record.

    The record assigns every observable column (NA for a partially observed
    variable may be given as the NA level or -1).  Singleton when nothing is
    missing; otherwise the hidden true values range over their state spaces.
    """
    axes = observable_axes(graph)
    missing = [a.name for a in axes if a.name not in record]
    if missing:
        raise DataError(f"record is missing columns {missing}")
    options: list[tuple[str, range | tuple]] = []
    for a in axes:
        v = record[a.name]
        if a.kind == "proxy":
            levels = a.size - 1
            if v in (Dataset.NA, levels):
                options.append((a.name, range(levels)))
            else:
                options.append((a.name, (v,)))
        else:
            options.append((a.name, (v,)))
    out: list[dict] = [{}]
    for name, vals in options:
        out = [{**d, name: v} for d in out for v in vals]
    return out


# -- likelihood model -------------------------------------------------------------


class LikelihoodModel:
    """Parameter packing plus fast marginalized likelihood and score for one graph."""

    def __init__(self, graph: MissingDataGraph):
        self.graph = graph
        verts = graph.non_proxy_vertices()
        for v in verts:
            if v.levels is None:
                raise FitError(f"vertex {v.name!r} is continuous; the categorical "
                               f"likelihood requires declared levels")
        self.names = [v.name for v in verts]
        self.levels = [v.levels for v in verts]
        self.pos = {n: i for i, n in enumerate(self.names)}
        self.parents = {v.name: CategoricalLaw.parent_order(graph, v.name) for v in verts}
        self.shape = tuple(self.levels)
        self._subs = cpt_subscripts(graph)
        # The observation process: each full cell's flat observed-cell index.
        self._cells = coarsening_map(graph).reshape(-1)
        self._n_obs = int(np.prod([a.size for a in observable_axes(graph)]))

        # Complete-data score layout.  Full cell x scores 1[pa(x) = r](1[x_v = l] - p_vrl)
        # on parameter (v, r, l): its score row is level_hits[x] - row_hits[x] * p.
        full = np.indices(self.shape).reshape(len(self.shape), -1)
        self._blocks = []  # (name, offset, n_rows, levels, cpt_shape)
        level_hits, row_hits, row_of = [], [], []  # row_of: each parameter's CPT row
        off = rows = 0
        for n in self.names:
            cpt_shape = tuple(graph.vertex(p).levels for p in self.parents[n]) + (
                self.levels[self.pos[n]],)
            L, n_rows = cpt_shape[-1], int(np.prod(cpt_shape[:-1]))
            self._blocks.append((n, off, n_rows, L, cpt_shape))
            row, level = np.divmod(np.ravel_multi_index(
                [full[self.pos[p]] for p in self.parents[n] + (n,)], cpt_shape), L)
            free = np.arange(n_rows * (L - 1))  # this vertex's parameters
            level_hits.append(np.where(level > 0, row * (L - 1) + level - 1, -1)[:, None]
                              == free)
            row_hits.append(row[:, None] == free // (L - 1))
            row_of.append(rows + free // (L - 1))
            off, rows = off + n_rows * (L - 1), rows + n_rows
        self.n_params = off
        # theta_to_cpts gathers each CPT row's logits from [0, theta...], level 0
        # reading the pinned 0, with one gather per level count so that each row
        # is summed over exactly its own levels.
        self._gathers, self._layout = [], [None] * len(self._blocks)
        size = 0
        for width in sorted({L for *_, L, _ in self._blocks}):
            gather = []
            for b, (n, off, n_rows, L, cpt_shape) in enumerate(self._blocks):
                if L == width:
                    idx = np.zeros((n_rows, L), dtype=np.intp)
                    idx[:, 1:] = 1 + off + np.arange(n_rows * (L - 1)).reshape(n_rows, L - 1)
                    gather.append(idx)
                    self._layout[b] = size
                    size += n_rows * L
            self._gathers.append(np.vstack(gather))
        # Each parameter's position among the flat probabilities, in parameter order.
        self._free = np.concatenate([
            (start + np.arange(n_rows)[:, None] * L + np.arange(1, L)).reshape(-1)
            for (n, off, n_rows, L, cpt_shape), start in zip(self._blocks, self._layout)])
        self._level_hits = np.hstack(level_hits, dtype=float)
        self._row_hits = np.hstack(row_hits, dtype=float)
        row_of = np.concatenate(row_of)
        self._same_row = np.equal.outer(row_of, row_of)

    # -- parameter transform ------------------------------------------------

    def theta_to_cpts(self, theta: np.ndarray) -> dict[str, np.ndarray]:
        """Map unconstrained parameters to CPTs (reference level pinned at 0)."""
        return self._cpts(self._cpt_probs(theta))

    def _cpt_probs(self, theta: np.ndarray) -> np.ndarray:
        """Every CPT row's probabilities, flat in the layout of ``_gathers``."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise FitError(f"theta has shape {theta.shape}, expected ({self.n_params},)")
        logits = np.concatenate(([0.0], theta))
        out = []
        for gather in self._gathers:
            rows = logits[gather]
            rows -= rows.max(axis=1, keepdims=True)
            ex = np.exp(rows)
            out.append((ex / ex.sum(axis=1, keepdims=True)).reshape(-1))
        return out[0] if len(out) == 1 else np.concatenate(out)

    def _cpts(self, probs: np.ndarray) -> dict[str, np.ndarray]:
        """Each vertex's CPT as a view of :meth:`_cpt_probs`' array."""
        cpts = {}
        for (n, off, n_rows, L, cpt_shape), start in zip(self._blocks, self._layout):
            cpts[n] = probs[start:start + n_rows * L].reshape(cpt_shape)
        return cpts

    def cpts_to_theta(self, cpts: Mapping[str, np.ndarray]) -> np.ndarray:
        theta = np.zeros(self.n_params)
        for name, off, n_rows, L, cpt_shape in self._blocks:
            arr = np.asarray(cpts[name], dtype=float).reshape(n_rows, L)
            if np.any(arr <= 0.0):
                raise FitError(f"CPT for {name!r} has a zero entry; the unconstrained "
                               f"transform covers the open simplex only")
            theta[off:off + n_rows * (L - 1)] = (
                np.log(arr[:, 1:]) - np.log(arr[:, :1])).reshape(-1)
        return theta

    def law(self, theta: np.ndarray) -> CategoricalLaw:
        return CategoricalLaw(self.graph, self.theta_to_cpts(theta))

    def joint(self, cpts: Mapping[str, np.ndarray]) -> np.ndarray:
        return joint_from_cpts(self._subs, [np.asarray(cpts[n], dtype=float)
                                            for n in self.names])

    def _observed_probs(self, joint: np.ndarray) -> np.ndarray:
        """Mass of every observed cell: the full cells the coarsening map sends there."""
        return np.bincount(self._cells, weights=joint.reshape(-1), minlength=self._n_obs)

    # -- data binding ---------------------------------------------------------

    def bind(self, data: Dataset) -> "_BoundData":
        """The data as its observed cells of positive weight, each with its total weight."""
        axes = observable_axes(self.graph)
        if observable_axes(data.graph) != axes:
            raise FitError("dataset columns, level counts or kinds do not match "
                           "the model graph")
        cells = np.ravel_multi_index(data.rows.T, [a.size for a in axes])
        weights = np.bincount(cells, weights=data.weights, minlength=self._n_obs)
        patterns = np.flatnonzero(weights > 0)
        if not len(patterns):
            raise FitError("empty dataset")
        return _BoundData(patterns, weights[patterns])

    # -- objective -------------------------------------------------------------

    def pattern_probs(self, theta: np.ndarray, bound: "_BoundData") -> np.ndarray:
        """The probability of each observed cell of positive weight in ``bound``."""
        joint = self.joint(self.theta_to_cpts(theta))
        return self._observed_probs(joint)[bound.patterns]

    def log_likelihood(self, theta: np.ndarray, bound: "_BoundData") -> float:
        """Weighted log-likelihood; -inf when a weighted record has probability zero.

        The line search rejects such points by their -inf value, while
        :meth:`gradient` and :meth:`hessian` raise :class:`FitError` there.
        """
        probs = self.pattern_probs(theta, bound)
        if np.any(probs <= 0.0):
            return -np.inf
        return float(np.dot(bound.weights, np.log(probs)))

    def _posterior(self, theta: np.ndarray, bound: "_BoundData"):
        """Free-level probabilities, the flat joint, observed-cell masses and the
        expected count of every full cell given the data."""
        probs = self._cpt_probs(theta)
        joint = self.joint(self._cpts(probs)).reshape(-1)
        mass = self._observed_probs(joint)
        seen = mass[bound.patterns]
        if np.any(seen <= 0.0):
            raise FitError("derivatives undefined: a record has probability zero")
        ratio = np.zeros(self._n_obs)
        ratio[bound.patterns] = bound.weights / seen
        return probs[self._free], joint, mass, ratio[self._cells] * joint

    def gradient(self, theta: np.ndarray, bound: "_BoundData") -> np.ndarray:
        """Exact score: the complete-data score summed over expected full-cell counts.

        Raises :class:`FitError` when a weighted record has probability zero.
        """
        p, _, _, expected = self._posterior(theta, bound)
        return self._level_hits.T @ expected - (self._row_hits.T @ expected) * p

    def hessian(self, theta: np.ndarray, bound: "_BoundData") -> np.ndarray:
        """Exact second derivatives by Louis's identity.

        The observed information is the expected complete-data information
        minus the complete-data score's covariance within each observed cell,
        both taken over the full cells' expected counts.  Raises
        :class:`FitError` when a weighted record has probability zero.
        """
        p, joint, mass, expected = self._posterior(theta, bound)
        score = self._level_hits - self._row_hits * p
        cell_score = np.zeros((self._n_obs, self.n_params))
        np.add.at(cell_score, self._cells, joint[:, None] * score)
        cell_score /= np.where(mass > 0.0, mass, 1.0)[:, None]
        centered = (score - cell_score[self._cells]) * np.sqrt(expected)[:, None]
        row_counts = self._row_hits.T @ expected
        info = np.diag(row_counts * p) - self._same_row * (row_counts[:, None] * np.outer(p, p))
        return centered.T @ centered - info

    # -- labels ------------------------------------------------------------------

    def parameter_coords(self):
        """All reported probabilities: (vertex, parent assignment, level, theta block)."""
        out = []
        for name, off, n_rows, L, cpt_shape in self._blocks:
            parent_shape = cpt_shape[:-1]
            for row_i, pa in enumerate(np.ndindex(*parent_shape) if parent_shape else [()]):
                for level in range(1, L):
                    out.append((name, tuple(zip(self.parents[name], pa)), level,
                                off + row_i * (L - 1), row_i))
        return out


@dataclass
class _BoundData:
    """A dataset's observed cells of positive weight, and each cell's total weight."""
    patterns: np.ndarray  # flat observed-cell indices, ascending
    weights: np.ndarray


# -- module-level operations --------------------------------------------------------


def log_likelihood(theta: np.ndarray, data: Dataset, graph: MissingDataGraph) -> float:
    """Marginalized log-likelihood: sum over records of log sum over completions."""
    model = LikelihoodModel(graph)
    return model.log_likelihood(np.asarray(theta, dtype=float), model.bind(data))


def grad_log_likelihood(theta: np.ndarray, data: Dataset, graph: MissingDataGraph) -> np.ndarray:
    """Exact analytic gradient of :func:`log_likelihood` in the unconstrained parameters."""
    model = LikelihoodModel(graph)
    return model.gradient(np.asarray(theta, dtype=float), model.bind(data))


# -- fitting --------------------------------------------------------------------------


@dataclass(frozen=True)
class FitConfig:
    restarts: int = 5
    seed: int | None = None
    max_iterations: int = 10_000  # Newton steps per start
    allow_nonidentifiable: bool = False
    compute_ci: bool = True


@dataclass(frozen=True)
class ParameterEstimate:
    vertex: str
    given: tuple[tuple[str, int], ...]
    level: int
    estimate: float
    se: float | None
    ci: tuple[float, float] | None
    boundary: bool
    reliable: bool

    def label(self, one_based: bool = False, graph: MissingDataGraph | None = None) -> str:
        def show(name, lv):
            if one_based and graph is not None and \
                    graph.vertex(name).role is not VertexRole.RESPONSE_INDICATOR:
                return lv + 1
            return lv

        head = f"p({self.vertex}={show(self.vertex, self.level)}"
        if self.given:
            cond = ", ".join(f"{n}={show(n, v)}" for n, v in self.given)
            return f"{head} | {cond})"
        return head + ")"

    def to_json(self) -> dict:
        return {"vertex": self.vertex, "given": [list(g) for g in self.given],
                "level": self.level, "estimate": self.estimate, "se": self.se,
                "ci": list(self.ci) if self.ci else None,
                "boundary": self.boundary, "reliable": self.reliable}


@dataclass
class FitResult:
    theta: np.ndarray
    cpts: dict[str, np.ndarray]
    log_likelihood: float
    grad_norm: float
    parameters: list[ParameterEstimate]
    converged: bool
    iterations: int
    restarts: int
    best_restart: int
    graph: MissingDataGraph

    def to_json(self) -> dict:
        return {
            "log_likelihood": self.log_likelihood,
            "grad_norm": self.grad_norm,
            "converged": self.converged,
            "iterations": self.iterations,
            "restarts": self.restarts,
            "best_restart": self.best_restart,
            "theta": [float(t) for t in self.theta],
            "cpts": {k: np.asarray(v).tolist() for k, v in self.cpts.items()},
            "parameters": [p.to_json() for p in self.parameters],
        }

    def format_table(self, one_based: bool = False) -> str:
        rows = [("Parameter", "Estimate", f"{_CI_LEVEL:.0%} CI")]
        for p in self.parameters:
            est = f"{p.estimate:.3f}"
            if not p.reliable:
                ci = "(not reliably estimable)"
            elif p.ci is not None:
                ci = f"({p.ci[0]:.3f}, {p.ci[1]:.3f})"
            else:
                ci = ""
            if p.boundary:
                est += "*"
            rows.append((p.label(one_based, self.graph), est, ci))
        w0 = max(len(r[0]) for r in rows)
        w1 = max(len(r[1]) for r in rows)
        lines = [f"{r[0]:<{w0}}  {r[1]:>{w1}}  {r[2]}".rstrip() for r in rows]
        lines.insert(1, "-" * max(len(line) for line in lines))
        if any(p.boundary for p in self.parameters):
            lines.append("* estimate within boundary tolerance of 0 or 1")
        return "\n".join(lines)


def _newton(model: LikelihoodModel, bound: _BoundData, theta: np.ndarray,
            max_steps: int) -> tuple[np.ndarray, int, bool]:
    """Damped modified Newton ascent from one start.

    Returns the final point, the number of steps taken, and whether the step
    cap stopped the ascent.  Near the maximum the log-likelihood differences
    fall below float resolution, so steps are also accepted when they
    clearly contract the gradient without losing likelihood beyond rounding.
    """
    best_ll = model.log_likelihood(theta, bound)
    ll_slack = max(1.0, abs(best_ll)) * 1e-12
    steps = 0
    while True:
        g = model.gradient(theta, bound)
        gn = float(np.linalg.norm(g))
        if gn <= _GRAD_TOL * 1e-2:
            return theta, steps, False
        if steps == max_steps:
            return theta, steps, True
        # Modified Newton: reflect convex-side curvature and keep the
        # magnitude of flat eigenvalues, so saddle and ridge directions still
        # yield ascent steps sized by the actual curvature; cap the step so
        # backtracking starts from a sane trust region, which also bounds
        # the steps along flat directions.
        evals, evecs = np.linalg.eigh(model.hessian(theta, bound))
        floor = max(1e-15 * float(np.abs(evals).max(initial=0.0)), np.finfo(float).tiny)
        step = evecs @ ((evecs.T @ g) / np.maximum(np.abs(evals), floor))
        if not np.all(np.isfinite(step)):
            return theta, steps, False
        big = float(np.abs(step).max())
        if big > 4.0:
            step *= 4.0 / big
        for _ in range(30):
            cand = np.clip(theta + step, -_THETA_BOUND, _THETA_BOUND)
            ll = model.log_likelihood(cand, bound)
            if ll > best_ll + ll_slack or (
                    ll >= best_ll - ll_slack
                    and float(np.linalg.norm(model.gradient(cand, bound))) < 0.97 * gn):
                theta, best_ll = cand, max(best_ll, ll)
                break
            step *= 0.5
        else:
            return theta, steps, False
        steps += 1


def fit(data: Dataset, graph: MissingDataGraph, config: FitConfig | None = None) -> FitResult:
    """Maximum likelihood estimation with multiple restarts and Wald intervals.

    Requires a structurally identifiable graph unless
    ``config.allow_nonidentifiable`` is set; a non-identifiable model still
    optimizes fine but the optimum is a ridge, so estimates of the affected
    parameters are arbitrary within it.
    """
    config = config or FitConfig()
    model = LikelihoodModel(graph)
    bound = model.bind(data)

    if not config.allow_nonidentifiable:
        from .identify import decide_full_law
        verdict = decide_full_law(graph)
        if not verdict.identifiable:
            raise FitError(
                "graph is structurally non-identifiable; pass allow_nonidentifiable=True "
                f"to fit anyway: {[r.detail for r in verdict.reasons]}")

    rng = np.random.default_rng(config.seed)
    starts = [np.zeros(model.n_params)]
    while len(starts) < max(1, config.restarts):
        cpts = {}
        for name, off, n_rows, L, cpt_shape in model._blocks:
            cpts[name] = rng.dirichlet(np.ones(L), size=n_rows).reshape(cpt_shape)
        starts.append(model.cpts_to_theta(cpts))

    best = None
    total_iters = 0
    for i, start in enumerate(starts):
        theta, steps, capped = _newton(model, bound, start, config.max_iterations)
        total_iters += steps
        ll = model.log_likelihood(theta, bound)
        if best is None or ll > best[0]:
            best = (ll, i, theta, capped)

    ll, best_i, theta, capped = best
    grad_norm = float(np.linalg.norm(model.gradient(theta, bound)))
    # A best start stopped by its step cap has an unconfirmed optimum.
    converged = grad_norm <= _GRAD_TOL and not capped

    probs = model._cpt_probs(theta)
    est = probs[model._free]
    boundary = (est <= _BOUNDARY_TOL) | (est >= 1.0 - _BOUNDARY_TOL)
    reliable, se, ci = ~boundary, [None] * len(est), [None] * len(est)
    if config.compute_ci:
        eigval, eigvec = np.linalg.eigh(-model.hessian(theta, bound))
        lam_max = float(eigval.max(initial=0.0))
        null_mask = eigval <= _INFO_REL_TOL * max(lam_max, 0.0)
        inv = np.where(null_mask, 0.0, 1.0 / np.where(null_mask, 1.0, eigval))
        cov = (eigvec * inv) @ eigvec.T
        z = NormalDist().inv_cdf(0.5 + _CI_LEVEL / 2.0)
        # Row i holds dp_i / dtheta: p_i (1[i = k] - p_k) for k in the row of i.
        jac = est[:, None] * (np.eye(len(est)) - model._same_row * est)
        gnorm2 = np.einsum("ij,ij->i", jac, jac)
        null_frac = np.divide(((jac @ eigvec[:, null_mask]) ** 2).sum(axis=1), gnorm2,
                              out=np.ones_like(gnorm2), where=gnorm2 > 0.0)
        reliable &= null_frac <= 1e-6
        sd = np.sqrt(np.maximum(np.einsum("ij,ij->i", jac @ cov, jac), 0.0))
        lo, hi = np.maximum(0.0, est - z * sd), np.minimum(1.0, est + z * sd)
        se = [float(s) if r else None for s, r in zip(sd, reliable)]
        ci = [(float(a), float(b)) if r else None for a, b, r in zip(lo, hi, reliable)]

    parameters = [ParameterEstimate(name, given, level, float(e), s, c, bool(b), bool(r))
                  for (name, given, level, *_), e, s, c, b, r
                  in zip(model.parameter_coords(), est, se, ci, boundary, reliable)]
    return FitResult(theta=theta, cpts=model._cpts(probs), log_likelihood=ll,
                     grad_norm=grad_norm, parameters=parameters, converged=converged,
                     iterations=total_iters, restarts=len(starts), best_restart=best_i,
                     graph=graph)
