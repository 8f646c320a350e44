"""Maximum likelihood for the categorical full law from incomplete records.

A record's probability is the mass of its observed cell: the sum of the
full-joint cells that :func:`~colluder_lab.lawtable.coarsening_map` sends
there (the record's completion set).  So for fitting, a dataset is its weight
per observed cell, :attr:`Dataset.counts`, and that vector is the only data
form the likelihood and its derivatives take.  CPT rows are mapped to
unconstrained parameters by exponential normalization with the first level
pinned as reference.  Derivatives are exact: the score sums each full cell's
complete-data score over its expected count given the data, and the Hessian
follows from Louis's identity.  Every start is fitted by damped modified
Newton on that Hessian.

The objective and its derivatives take a batch of parameter vectors, one per
row, each with its own observed-cell weights, and a row's result does not
depend on the other rows.  A fit climbs all of its starts as one batch, and a
simulation study climbs every start of many datasets at once, with as many
starts per dataset as it needs.  A climb evaluates each point it visits once,
and each Newton step takes the gradient and the Hessian from one posterior per
row, built from that evaluation.

Datasets given as observed-cell counts are fitted by :func:`fit_counts`.  A
dataset's plug-in start (:func:`plug_in`) is the identified law of its
frequencies, read in float for a whole batch of datasets.  In a saturated
model an interior plug-in is the maximum: a dataset whose climb from it
reproduces its frequencies, which maximize the multinomial likelihood over
every observed law, is certified (:func:`certify`); the others climb their
plug-in and random starts (:func:`climb`).  A simulation study runs the two
phases itself; :func:`fit` passes no plug-in and climbs the uniform law and
random laws only.
"""

from __future__ import annotations

import csv
import itertools
from collections import Counter
from dataclasses import dataclass
from statistics import NormalDist
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, FitError, GraphQueryError, check_integer
from .identify import count_cpts
from .lawtable import (Axis, coarsening_map, cpt_subscripts, joint_from_cpts, observable_axes,
                       uniform_simplex)
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
    """Incomplete records over the observable columns of a graph, as observed-cell weights.

    Columns follow graph declaration order: fully observed variables, then
    each partially observed variable under its true-variable name (value =
    level or the NA code, which is the level count), then response
    indicators.  The constructor takes records with per-record ``weights``
    (counts, or population masses for expected-data fits), finite and
    non-negative.  A record is consistent when
    :func:`~colluder_lab.lawtable.coarsening_map` produces it.

    The likelihood reads the data only through each observed cell's total
    weight, so that is all a dataset keeps: records with the same content
    merge, and their order is not kept.  ``counts`` holds every observed
    cell's total weight, flat in row-major order, which is what the
    likelihood takes.  Beside it, one entry per observed cell of positive
    weight, in ascending cell order: ``patterns`` holds the flat
    observed-cell indices, ``weights`` each cell's total weight and ``rows``
    each cell's record.  All four arrays are read-only.
    """

    NA = -1  # convenience alias accepted in input rows; stored as the NA level

    def __init__(self, graph: MissingDataGraph, rows, weights=None,
                 columns: Sequence[str] | None = None):
        self.graph = graph
        axes = observable_axes(graph)
        names = [a.name for a in axes]
        # Sequences keep their Python values, so that a boolean is seen as one.
        rows = rows if isinstance(rows, np.ndarray) else np.asarray(rows, dtype=object)
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
            rows = rows[:, [columns.index(n) for n in names]]
        if rows.dtype.kind not in "iu" and not set(map(type, rows.ravel().tolist())) <= {int}:
            for i, record in enumerate(rows.tolist()):
                for j, x in enumerate(record):
                    if isinstance(x, bool) or not (isinstance(x, (int, np.integer)) or
                                                   (isinstance(x, float) and x.is_integer())):
                        raise DataError(f"value {x!r} in column {names[j]!r} is not an "
                                        f"integer code", row=i)
        rows = rows.astype(np.int64)

        for i, a in enumerate(axes):
            col = rows[:, i]
            if a.kind == "proxy":
                col[col == self.NA] = a.size - 1
            bad = np.nonzero((col < 0) | (col >= a.size))[0]
            if bad.size:
                raise DataError(f"value {rows[bad[0], i]} out of range for column {a.name!r}",
                                row=int(bad[0]))
        sizes = [a.size for a in axes]
        cells = np.ravel_multi_index(rows.T, sizes)
        produced = np.zeros(int(np.prod(sizes)), dtype=bool)
        produced[coarsening_map(graph).reshape(-1)] = True
        bad = np.flatnonzero(~produced[cells])
        if bad.size:
            raise DataError("inconsistent record: a partially observed variable must be NA "
                            "exactly when its response indicator is 0", row=int(bad[0]))

        if weights is None:
            weights = np.ones(len(rows))
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(rows),):
            raise DataError("weights must have one entry per record")
        if not np.all(np.isfinite(weights) & (weights >= 0)):
            raise DataError("weights must be finite and non-negative")
        self.columns = tuple(names)
        self.counts = np.bincount(cells, weights=weights, minlength=len(produced))
        self.patterns = np.flatnonzero(self.counts > 0)
        self.weights = self.counts[self.patterns]
        self.rows = np.stack(np.unravel_index(self.patterns, sizes), axis=1)
        for arr in (self.counts, self.patterns, self.weights, self.rows):
            arr.setflags(write=False)

    @classmethod
    def from_cell_weights(cls, graph: MissingDataGraph, weights) -> "Dataset":
        """The dataset whose observed cells have ``weights``.

        ``weights`` has one entry per cell of the observed table (the shape
        of :func:`~colluder_lab.lawtable.observable_axes`, or flat in
        row-major order), such as counts or probabilities.  Weight on a cell
        that :func:`~colluder_lab.lawtable.coarsening_map` never produces is
        refused, naming the cell's column values.
        """
        axes, weights = observable_axes(graph), np.asarray(weights, float)
        shape = [a.size for a in axes]
        if weights.size != np.prod(shape):
            raise DataError(f"{weights.size} observed-cell weights given, expected "
                            f"{np.prod(shape)}")
        weights = weights.reshape(shape)
        nonzero = weights != 0
        cells = np.argwhere(nonzero)
        try:
            return cls(graph, cells, weights[nonzero])
        except DataError as e:
            if e.row is None:
                raise
            values = ", ".join(f"{a.name}={'NA' if a.kind == 'proxy' and v == a.size - 1 else v}"
                               for a, v in zip(axes, cells[e.row].tolist()))
            raise DataError(f"{e.reason} (observed cell {values})") from None

    # -- CSV --------------------------------------------------------------

    @classmethod
    def from_csv(cls, path, graph: MissingDataGraph, *, na_token: str = "NA",
                 one_based: bool = False) -> "Dataset":
        """The records of a CSV file with a header row.

        The lines are counted as they stream from the file, so memory grows
        with the file's distinct lines, not with its records.  Each distinct
        line is then parsed and checked once, with its number of occurrences
        as weight, and each distinct field of a column is converted once.
        Blank lines are skipped.  An error names the first line of the file
        that holds the bad content, which only an error reads the file again
        to find; a quoted field cannot span lines, and a line must be UTF-8.
        """
        axes = {a.name: a for a in observable_axes(graph)}

        def read():
            # A byte that is not UTF-8 reads as a lone surrogate, which no UTF-8 text holds.
            return open(path, encoding="utf-8-sig", errors="surrogateescape")

        def utf8(text: str) -> bool:
            try:
                text.encode()
            except UnicodeEncodeError:
                return False
            return True

        with read() as fh:
            header = fh.readline()
            # Keys are lines without their "\n", so that a last line without one
            # merges into its twin.
            counts = Counter()
            for line, n in Counter(fh).items():
                counts[line.removesuffix("\n")] += n
        if not header:
            raise DataError("empty CSV file")
        header = header.removesuffix("\n")
        if not utf8(header):
            raise DataError("not UTF-8 text", line=1)
        header = [h.strip() for h in next(csv.reader([header]))]
        if sorted(header) != sorted(axes):
            raise DataError(f"CSV columns {header} do not match graph vertices {list(axes)}")

        def line_of(content: str) -> int | None:
            with read() as fh:
                next(fh)
                for number, line in enumerate(fh, start=2):
                    if line.removesuffix("\n") == content:
                        return number
            return None

        def level(a: Axis, cell: str, line: str) -> int:
            cell = cell.strip()
            if cell == na_token:
                if a.kind != "proxy":
                    raise DataError(f"NA not allowed in column {a.name!r}", line=line_of(line))
                return a.size - 1
            try:
                v = int(cell)
            except ValueError:
                raise DataError(f"non-integer value {cell!r} in column {a.name!r}",
                                line=line_of(line)) from None
            code = v - 1 if one_based and a.kind != "indicator" else v
            # A proxy's last level is NA, which only the NA token spells.
            if not 0 <= code < a.size - (a.kind == "proxy"):
                raise DataError(f"value {v} out of range for column {a.name!r}",
                                line=line_of(line))
            return code

        # Each distinct line once, with its count; each column's distinct raw
        # fields map to their levels.
        columns = [axes[h] for h in header]
        levels = [{} for _ in header]
        reader = csv.reader(counts)
        kept, table = [], []
        for i, (line, rec) in enumerate(zip(counts, reader), start=1):
            if not utf8(line):
                raise DataError("not UTF-8 text", line=line_of(line))
            if reader.line_num != i:
                raise DataError("quoted field runs past the end of the line",
                                line=line_of(line))
            if not "".join(rec).strip():  # no field holds anything but whitespace
                continue
            if len(rec) != len(header):
                raise DataError("wrong number of fields", line=line_of(line))
            out = []
            for a, cell, seen in zip(columns, rec, levels):
                if cell not in seen:
                    seen[cell] = level(a, cell, line)
                out.append(seen[cell])
            kept.append(line)
            table.append(out)
        table = np.array(table, dtype=np.int64).reshape(len(table), len(header))
        try:
            return cls(graph, table, [counts[line] for line in kept], columns=header)
        except DataError as e:
            if e.row is None:
                raise
            raise DataError(e.reason, line=line_of(kept[e.row])) from None

    def to_csv(self, path, *, na_token: str = "NA", one_based: bool = False) -> None:
        """Write each cell's record ``weight`` times, in ascending cell order."""
        if np.any(self.weights % 1 != 0):
            raise DataError("only datasets with whole-number weights can be written as "
                            "record CSVs")
        axes = observable_axes(self.graph)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row, weight in zip(self.rows, self.weights):
                out = []
                for a, v in zip(axes, row):
                    if a.kind == "proxy" and v == a.size - 1:
                        out.append(na_token)
                    elif one_based and a.kind != "indicator":
                        out.append(int(v) + 1)
                    else:
                        out.append(int(v))
                writer.writerows(itertools.repeat(out, int(weight)))


# -- likelihood model -------------------------------------------------------------


class LikelihoodModel:
    """Parameter packing plus fast marginalized likelihood and score for one graph."""

    def __init__(self, graph: MissingDataGraph):
        if graph.bidirected_edges:
            edges = ", ".join(f"{u}<->{w}" for u, w in graph.bidirected_edges)
            raise FitError(f"the likelihood factors over directed parents only and would "
                           f"drop the bidirected edges {edges}")
        self.graph = graph
        verts = graph.vertices
        for v in verts:
            if v.levels is None:
                raise FitError(f"vertex {v.name!r} is continuous; the categorical "
                               f"likelihood requires declared levels")
        self.names = [v.name for v in verts]
        self.levels = [v.levels for v in verts]
        self.pos = {n: i for i, n in enumerate(self.names)}
        self.parents = {v.name: graph.parents(v.name) for v in verts}
        self.shape = tuple(self.levels)
        self._subs = cpt_subscripts(graph)
        # The observation process: each full cell's flat observed-cell index.
        self._cells = coarsening_map(graph).reshape(-1)
        self._n_obs = int(np.prod([a.size for a in observable_axes(graph)]))
        # The full cells grouped by observed cell, in ascending order within a group.
        # np.add.reduceat picks its own order of addition within a group, so a group
        # sum may differ in the last bit from observed_law's left-to-right sum.
        self._reachable, self._group, sizes = np.unique(
            self._cells, return_inverse=True, return_counts=True)
        self._by_group = np.argsort(self._cells, kind="stable")
        self._group_starts = np.cumsum(sizes) - sizes

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

    def probabilities(self, theta: np.ndarray) -> np.ndarray:
        """Each CPT row's probabilities of levels 1 and up, in parameter order."""
        return self._cpt_probs(theta)[..., self._free]

    def _cpt_probs(self, theta: np.ndarray) -> np.ndarray:
        """Every CPT row's probabilities, flat in the layout of ``_gathers``.

        ``theta`` is one parameter vector or a batch of them, one per row.
        """
        theta = np.asarray(theta, dtype=float)
        if theta.ndim not in (1, 2) or theta.shape[-1] != self.n_params:
            raise FitError(f"theta has shape {theta.shape}, expected ({self.n_params},) "
                           f"or (B, {self.n_params})")
        lead = theta.shape[:-1]
        logits = np.concatenate((np.zeros(lead + (1,)), theta), axis=-1)
        out = []
        for gather in self._gathers:
            rows = logits[..., gather]
            rows -= rows.max(axis=-1, keepdims=True)
            ex = np.exp(rows)
            out.append((ex / ex.sum(axis=-1, keepdims=True)).reshape(lead + (-1,)))
        return out[0] if len(out) == 1 else np.concatenate(out, axis=-1)

    def _cpts(self, probs: np.ndarray) -> dict[str, np.ndarray]:
        """Each vertex's CPT as a view of :meth:`_cpt_probs`' array, batch axis first."""
        cpts = {}
        for (n, off, n_rows, L, cpt_shape), start in zip(self._blocks, self._layout):
            cpts[n] = probs[..., start:start + n_rows * L].reshape(probs.shape[:-1] + cpt_shape)
        return cpts

    def cpts_to_theta(self, cpts: Mapping[str, np.ndarray]) -> np.ndarray:
        """The parameters of ``cpts``; CPTs with a leading batch axis give one row each."""
        name, *_, cpt_shape = self._blocks[0]
        lead = np.shape(cpts[name])[:np.ndim(cpts[name]) - len(cpt_shape)]
        theta = np.zeros(lead + (self.n_params,))
        for name, off, n_rows, L, cpt_shape in self._blocks:
            arr = np.asarray(cpts[name], dtype=float).reshape(lead + (n_rows, L))
            if np.any(arr <= 0.0):
                raise FitError(f"CPT for {name!r} has a zero entry; the unconstrained "
                               f"transform covers the open simplex only")
            theta[..., off:off + n_rows * (L - 1)] = (
                np.log(arr[..., 1:]) - np.log(arr[..., :1])).reshape(lead + (n_rows * (L - 1),))
        return theta

    def joint(self, cpts: Mapping[str, np.ndarray]) -> np.ndarray:
        return joint_from_cpts(self._subs, [np.asarray(cpts[n], dtype=float)
                                            for n in self.names])

    def _group_sums(self, x: np.ndarray) -> np.ndarray:
        """Sums of ``x`` (B, n_full, ...) over the full cells of each reachable observed cell."""
        return np.add.reduceat(x[:, self._by_group], self._group_starts, axis=1)

    def _masses(self, probs: np.ndarray):
        """The flat joints (B, n_full) and observed-cell masses (B, n_obs) of rows of
        :meth:`_cpt_probs`: each observed cell holds the full cells the coarsening map
        sends there."""
        joint = self.joint(self._cpts(probs)).reshape(len(probs), -1)
        mass = np.zeros((len(probs), self._n_obs))
        mass[:, self._reachable] = self._group_sums(joint)
        return joint, mass

    # -- data binding ---------------------------------------------------------

    def bind(self, data: Dataset) -> Dataset:
        """``data``, once checked to be over this model's observed table and not empty."""
        if observable_axes(data.graph) != observable_axes(self.graph):
            raise FitError("dataset columns, level counts or kinds do not match "
                           "the model graph")
        if not len(data.patterns):
            raise FitError("empty dataset")
        return data

    # -- objective -------------------------------------------------------------
    #
    # Each method takes one parameter vector (k,) or a batch (B, k), and
    # answers for each row.  The data are observed-cell weights, such as a
    # dataset's ``counts``: one vector (n_obs,) for every row, or one row of
    # weights (B, n_obs) per row of theta.  A row's arithmetic does not depend
    # on the other rows or on where the row lies in memory: sums run along
    # fixed axes, and contractions go through einsum's loops rather than BLAS,
    # whose kernels may order a sum by the data's alignment.

    def pattern_probs(self, theta: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """The probability of each observed cell of positive weight in ``weights`` (n_obs,)."""
        _, mass = self._masses(np.atleast_2d(self._cpt_probs(theta)))
        return mass[:, np.asarray(weights) > 0.0].reshape(np.shape(theta)[:-1] + (-1,))

    def _evaluate(self, theta: np.ndarray, weights):
        """Each row's CPT probabilities (see :meth:`_cpt_probs`), flat joint and
        observed-cell masses (see :meth:`_masses`), and log-likelihood (see
        :meth:`log_likelihood`), as a batch (B, ...) also for one parameter vector.

        Every other quantity at a point, the derivatives included, follows from
        these and the weights, so a climb evaluates each point it visits once.
        """
        probs = np.atleast_2d(self._cpt_probs(theta))
        weights = np.broadcast_to(np.asarray(weights, dtype=float), (len(probs), self._n_obs))
        joint, mass = self._masses(probs)
        ll = np.sum(weights * np.log(np.where(mass > 0.0, mass, 1.0)), axis=1)
        ll[np.any((weights > 0.0) & (mass <= 0.0), axis=1)] = -np.inf
        return probs, joint, mass, ll

    def log_likelihood(self, theta: np.ndarray, weights):
        """Weighted log-likelihood; -inf when a weighted record has probability zero.

        A float for one parameter vector, an array (B,) for a batch.  The
        line search rejects such points by their -inf value, while
        :meth:`gradient` and :meth:`hessian` raise :class:`FitError` there.
        """
        ll = self._evaluate(theta, weights)[3]
        return float(ll[0]) if np.ndim(theta) == 1 else ll

    def _posterior(self, probs: np.ndarray, joint: np.ndarray, mass: np.ndarray, weights):
        """Free-level probabilities, flat joints, observed-cell masses and the
        expected count of every full cell given the data, from rows of
        :meth:`_evaluate` with their observed-cell weights."""
        weights = np.asarray(weights, dtype=float)
        seen = weights > 0.0
        if np.any(seen & (mass <= 0.0)):
            raise FitError("derivatives undefined: a record has probability zero")
        ratio = np.divide(weights, mass, out=np.zeros_like(mass), where=seen)
        return probs[:, self._free], joint, mass, ratio[:, self._cells] * joint

    def _score(self, p: np.ndarray, expected: np.ndarray) -> np.ndarray:
        """Each row's score from its posterior (see :meth:`gradient`)."""
        return (np.einsum("bf,fk->bk", expected, self._level_hits)
                - np.einsum("bf,fk->bk", expected, self._row_hits) * p)

    def _hessian(self, p, joint, mass, expected) -> np.ndarray:
        """Each row's Hessian from its posterior (see :meth:`hessian`)."""
        score = self._level_hits - self._row_hits * p[:, None]
        cell_score = self._group_sums(joint[:, :, None] * score)[:, self._group]
        cell_score /= np.where(mass > 0.0, mass, 1.0)[:, self._cells, None]
        centered = (score - cell_score) * np.sqrt(expected)[:, :, None]
        row_counts = np.einsum("bf,fk->bk", expected, self._row_hits)
        info = -(self._same_row * (row_counts[:, :, None] * (p[:, :, None] * p[:, None])))
        diag = np.arange(self.n_params)
        info[:, diag, diag] += row_counts * p
        return np.einsum("bfi,bfj->bij", centered, centered) - info

    def gradient(self, theta: np.ndarray, weights) -> np.ndarray:
        """Exact score: the complete-data score summed over expected full-cell counts.

        Raises :class:`FitError` when a weighted record has probability zero.
        """
        p, _, _, expected = self._posterior(*self._evaluate(theta, weights)[:3], weights)
        return self._score(p, expected).reshape(np.shape(theta))

    def hessian(self, theta: np.ndarray, weights) -> np.ndarray:
        """Exact second derivatives by Louis's identity.

        The observed information is the expected complete-data information
        minus the complete-data score's covariance within each observed cell,
        both taken over the full cells' expected counts.  Raises
        :class:`FitError` when a weighted record has probability zero.
        """
        post = self._posterior(*self._evaluate(theta, weights)[:3], weights)
        return self._hessian(*post).reshape(np.shape(theta) + (self.n_params,))

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


# -- fitting --------------------------------------------------------------------------


@dataclass(frozen=True)
class FitConfig:
    restarts: int = 5
    seed: int | None = None
    max_iterations: int = 10_000  # Newton steps per start
    allow_nonidentifiable: bool = False

    def __post_init__(self):
        check_integer("restarts", self.restarts, 1, FitError)
        check_integer("max_iterations", self.max_iterations, 0, FitError)
        if self.seed is not None:
            check_integer("seed", self.seed, 0, FitError)


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


def _newton(model: LikelihoodModel, theta: np.ndarray, weights: np.ndarray,
            max_steps: int) -> tuple[np.ndarray, ...]:
    """Damped modified Newton ascent from every row of ``theta`` at once.

    Row i of ``theta`` (B, k) climbs the log-likelihood of the observed-cell
    weights ``weights[i]`` (B, n_obs), so one batch holds any mix of starts
    and datasets.  The rows move in lockstep, but each keeps its own step
    count, step cap, halving and stop, and no row's arithmetic depends on the
    others, so a row ends where it would end alone.  Each step takes the
    gradient and the Hessian from one posterior.  Near the maximum the
    log-likelihood differences fall below float resolution, so steps are also
    accepted when they clearly contract the gradient without losing
    likelihood beyond rounding.

    Each point is evaluated once (:meth:`LikelihoodModel._evaluate`): the starts
    together, then each line search's candidates together.  A row's arithmetic
    does not depend on its batch, so an accepted candidate's evaluation is kept
    as its row's current one.  It gives the next step's posterior and the final
    log-likelihood, and the score that decides a near acceptance comes from the
    candidate's own evaluation.

    Returns each row's final point, its log-likelihood, final gradient norm and
    number of steps, whether the step cap stopped it, and its observed-cell masses.
    """
    theta = np.array(theta, dtype=float)
    current = list(model._evaluate(theta, weights))  # probabilities, joints, masses, ll
    best_ll = current[3].copy()
    ll_slack = np.maximum(1.0, np.abs(best_ll)) * 1e-12
    steps = np.zeros(len(theta), dtype=int)
    capped = np.zeros(len(theta), dtype=bool)
    grad_norm = np.zeros(len(theta))
    active = np.arange(len(theta))
    while len(active):
        post = model._posterior(*(a[active] for a in current[:3]), weights[active])
        g = model._score(post[0], post[3])
        grad_norm[active] = gn = np.linalg.norm(g, axis=1)
        done, at_cap = gn <= _GRAD_TOL * 1e-2, steps[active] == max_steps
        capped[active] = at_cap & ~done
        go = ~done & ~at_cap
        if not go.any():
            break
        # Modified Newton: reflect convex-side curvature and keep the
        # magnitude of flat eigenvalues, so saddle and ridge directions still
        # yield ascent steps sized by the actual curvature; cap the step so
        # backtracking starts from a sane trust region, which also bounds
        # the steps along flat directions.
        evals, evecs = np.linalg.eigh(model._hessian(*(a[go] for a in post)))
        floor = np.maximum(1e-15 * np.abs(evals).max(axis=1, initial=0.0), np.finfo(float).tiny)
        coef = np.einsum("bi,bij->bj", g[go], evecs) / np.maximum(np.abs(evals), floor[:, None])
        step = np.einsum("bij,bj->bi", evecs, coef)
        finite = np.all(np.isfinite(step), axis=1)
        active, step, gn = active[go][finite], step[finite], gn[go][finite]
        big = np.abs(step).max(axis=1, initial=0.0)
        step[big > 4.0] *= (4.0 / big[big > 4.0])[:, None]
        # Backtrack each row on its own; rows still searching after 30 halvings stop.
        searching = np.arange(len(active))
        for _ in range(30):
            if not len(searching):
                break
            rows = active[searching]
            cand = np.clip(theta[rows] + step[searching], -_THETA_BOUND, _THETA_BOUND)
            evaluated = model._evaluate(cand, weights[rows])
            ll = evaluated[3]
            accept = ll > best_ll[rows] + ll_slack[rows]
            near = ~accept & (ll >= best_ll[rows] - ll_slack[rows])
            if near.any():
                p, _, _, expected = model._posterior(*(a[near] for a in evaluated[:3]),
                                                     weights[rows[near]])
                g_near = model._score(p, expected)
                accept[near] = np.linalg.norm(g_near, axis=1) < 0.97 * gn[searching[near]]
            moved = rows[accept]
            theta[moved] = cand[accept]
            for kept, new in zip(current, evaluated):
                kept[moved] = new[accept]
            best_ll[moved] = np.maximum(best_ll[moved], ll[accept])
            steps[moved] += 1
            searching = searching[~accept]
            step[searching] *= 0.5
        active = np.delete(active, searching)
    return theta, current[3], grad_norm, steps, capped, current[2]


def starting_points(model: LikelihoodModel, restarts: int, seed) -> np.ndarray:
    """A fit's starts, one per row: the uniform law, then random laws drawn from ``seed``.

    A random law's CPTs are drawn in vertex order, each row uniform on the simplex,
    by :func:`~colluder_lab.lawtable.uniform_simplex`: standard exponentials times
    the reciprocal of their sum, added left to right, which are ``Generator.dirichlet``'s
    rows bit for bit.
    """
    rng = np.random.default_rng(seed)
    starts = [np.zeros(model.n_params)]
    while len(starts) < restarts:
        starts.append(model.cpts_to_theta({
            name: uniform_simplex([rng], cpt_shape)[0]
            for name, off, n_rows, L, cpt_shape in model._blocks}))
    return np.array(starts)


def maximize(model: LikelihoodModel, weights: np.ndarray, starts, max_steps: int):
    """Climb every start of every dataset in one Newton batch; keep each dataset's best.

    ``weights`` (C, n_obs) holds each dataset's observed-cell weights and
    ``starts`` its starts: C arrays (R_c, k), one per dataset, whose start
    counts may differ, or one array (C, R, k).  Returns per dataset the best
    start's point, log-likelihood and index (the first of the highest), its
    final gradient norm and whether it converged, the steps of every start
    (C arrays (R_c,)), and the best start's observed-cell masses (C, n_obs), as
    :meth:`LikelihoodModel._evaluate` gave them at its point.
    """
    sizes = np.array([len(s) for s in starts])
    first = np.cumsum(sizes) - sizes
    rows = np.repeat(weights, sizes, axis=0)
    theta, ll, grad_norm, steps, capped, mass = _newton(model, np.concatenate(starts), rows,
                                                        max_steps)
    pick = first + np.array([np.argmax(ll[i:i + r]) for i, r in zip(first, sizes)], dtype=int)
    # A best start stopped by its step cap has an unconfirmed optimum.
    converged = (grad_norm[pick] <= _GRAD_TOL) & ~capped[pick]
    return (theta[pick], ll[pick], pick - first, grad_norm[pick], converged,
            np.split(steps, first[1:]), mass[pick])


#: A fitted observed-cell mass equals a cell's frequency to rounding when it lies
#: within this fraction of it; the log-likelihood of n records is then within
#: n * _CERTIFY_RTOL**2 of the multinomial maximum.
_CERTIFY_RTOL = 1e-9


def plug_in(model: LikelihoodModel, counts: np.ndarray) -> list:
    """The identified law of each of observed-cell ``counts`` (C, n_obs), read in float
    by :func:`~colluder_lab.identify.count_cpts`, as a start: a parameter vector per
    row, or None where it cannot be read (a graph outside the CCM family, an empty
    event, a singular colluder matrix) or lies outside the parameter space, which
    puts the maximum on the boundary: on the bundled designs a start clipped into
    the interior from there cost a quarter of the random starts' Newton steps and in
    283 cells never ended above them."""
    starts = [None] * len(counts)
    try:
        read, cpts = count_cpts(model.graph, counts)
    except GraphQueryError:
        return starts
    inside = np.all([((c > 0.0) & (c < 1.0)).all(axis=tuple(range(1, c.ndim)))
                     for c in cpts.values()], axis=0)
    theta = model.cpts_to_theta({name: c[inside] for name, c in cpts.items()})
    for i, point in zip(read[inside], theta):
        starts[i] = point
    return starts


def certify(model: LikelihoodModel, counts: np.ndarray, plug_ins, max_steps: int) -> dict:
    """What :func:`maximize` returns for each dataset of observed-cell ``counts``
    (C, n_obs) that the certificate settles, by index.  In a saturated model (one
    parameter per free observed cell) the starts in ``plug_ins`` (a point or None)
    climb alone, in one Newton batch; a dataset is certified when that climb
    converged to observed-cell masses equal to its frequencies to rounding."""
    alone = [i for i, p in enumerate(plug_ins) if p is not None]
    if not alone or model.n_params != len(model._reachable) - 1:
        return {}
    climbed = maximize(model, counts[alone], [plug_ins[i][None] for i in alone], max_steps)
    freq = counts[alone] / counts[alone].sum(axis=1, keepdims=True)
    settled = climbed[4] & np.all(np.abs(climbed[6] - freq) <= _CERTIFY_RTOL * freq, axis=1)
    return {i: fitted for i, fitted, ok in zip(alone, zip(*climbed), settled) if ok}


def climb(model: LikelihoodModel, counts: np.ndarray, plug_ins, seeds, restarts: int,
          max_steps: int):
    """Climb each dataset's observed-cell ``counts`` (C, n_obs) from its start in
    ``plug_ins`` (a point or None) and ``restarts`` starts drawn from its seed in
    ``seeds`` (see :func:`starting_points`), in one Newton batch.  Returns what
    :func:`maximize` returns."""
    starts = [starting_points(model, restarts, seed) for seed in seeds]
    starts = [s if p is None else np.vstack([p, s]) for p, s in zip(plug_ins, starts)]
    return maximize(model, counts, starts, max_steps)


def fit_counts(model: LikelihoodModel, counts: np.ndarray, plug_ins, seeds, restarts: int,
               max_steps: int):
    """Fit each dataset's observed-cell ``counts`` (C, n_obs): :func:`certify`
    settles what it can, and every other dataset climbs its start in ``plug_ins``
    and ``restarts`` starts drawn from its seed in ``seeds`` (:func:`climb`).
    Returns what :func:`maximize` returns but the masses, and whether the
    certificate settled each dataset (C,)."""
    fitted = certify(model, counts, plug_ins, max_steps)
    certified = np.array([i in fitted for i in range(len(counts))])
    rest = np.flatnonzero(~certified)
    if len(rest):
        fitted.update(zip(rest, zip(*climb(model, counts[rest], [plug_ins[i] for i in rest],
                                           [seeds[i] for i in rest], restarts, max_steps))))
    *arrays, steps, _ = zip(*(fitted[i] for i in range(len(counts))))
    return (*map(np.array, arrays), list(steps), certified)


def fit(data: Dataset, graph: MissingDataGraph, config: FitConfig | None = None) -> FitResult:
    """Maximum likelihood estimation with multiple restarts and Wald intervals.

    Requires a structurally identifiable graph unless
    ``config.allow_nonidentifiable`` is set; a non-identifiable model still
    optimizes fine but the optimum is a ridge, so estimates of the affected
    parameters are arbitrary within it.  The starts are climbed as one batch.
    """
    config = config or FitConfig()
    model = LikelihoodModel(graph)
    counts = model.bind(data).counts

    if not config.allow_nonidentifiable:
        from .identify import decide_full_law
        verdict = decide_full_law(graph)
        if not verdict.identifiable:
            raise FitError(
                "graph is structurally non-identifiable; pass allow_nonidentifiable=True "
                f"to fit anyway: {[r.detail for r in verdict.reasons]}")

    theta, ll, best_i, grad_norm, converged, steps, _ = (a[0] for a in fit_counts(
        model, counts[None], [None], [config.seed], config.restarts, config.max_iterations))

    est = model.probabilities(theta)
    boundary = (est <= _BOUNDARY_TOL) | (est >= 1.0 - _BOUNDARY_TOL)
    eigval, eigvec = np.linalg.eigh(-model.hessian(theta, counts))
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
    reliable = ~boundary & (null_frac <= 1e-6)
    sd = np.sqrt(np.maximum(np.einsum("ij,ij->i", jac @ cov, jac), 0.0))
    lo, hi = np.maximum(0.0, est - z * sd), np.minimum(1.0, est + z * sd)
    se = [float(s) if r else None for s, r in zip(sd, reliable)]
    ci = [(float(a), float(b)) if r else None for a, b, r in zip(lo, hi, reliable)]

    parameters = [ParameterEstimate(name, given, level, float(e), s, c, bool(b), bool(r))
                  for (name, given, level, *_), e, s, c, b, r
                  in zip(model.parameter_coords(), est, se, ci, boundary, reliable)]
    return FitResult(theta=theta, cpts=model.theta_to_cpts(theta), log_likelihood=float(ll),
                     grad_norm=float(grad_norm), parameters=parameters,
                     converged=bool(converged), iterations=int(steps.sum()),
                     restarts=len(steps), best_restart=int(best_i), graph=graph)
