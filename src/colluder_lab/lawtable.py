"""Categorical full laws, exact observed-data tables, and random law generation.

Tables are dense multidimensional arrays in row-major level order; the NA
state of a proxy is its last level.  Float totals are correctly rounded
(``math.fsum``); tables holding ``fractions.Fraction`` entries (object
dtype) are summed exactly, which the appendix constructions rely on.  Laws
and tables are immutable value objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from string import ascii_letters
from typing import Mapping, Sequence

import numpy as np

from .errors import GraphQueryError, LawError, PositivityError
from .mdgraph import MissingDataGraph, VertexRole, load_json_source

#: Default positivity threshold for conditioning events.
EPS_POS = 1e-12

_ROW_SUM_TOL = 1e-12


def table_total(values: np.ndarray):
    """Total mass of a table: correctly rounded for floats, exact for object arrays."""
    if values.dtype == object:
        return sum(values.flat, start=Fraction(0))
    return math.fsum(values.flat)


@dataclass(frozen=True)
class Axis:
    """A named table axis.  ``kind`` is 'observed', 'proxy', or 'indicator'."""

    name: str
    size: int
    kind: str = "observed"


def observable_axes(graph: MissingDataGraph) -> tuple[Axis, ...]:
    """Axes of the observed data law, in graph declaration order.

    A partially observed variable contributes one axis under its *true*
    variable's name whose last level is the NA state; response indicators
    contribute binary axes.
    """
    axes = []
    for v in graph.non_proxy_vertices():
        if v.levels is None:
            raise LawError(f"vertex {v.name!r} is continuous; observed tables are categorical only")
        if v.role is VertexRole.TRUE_VARIABLE:
            axes.append(Axis(v.name, v.levels + 1, "proxy"))
        elif v.role is VertexRole.RESPONSE_INDICATOR:
            axes.append(Axis(v.name, 2, "indicator"))
        else:
            axes.append(Axis(v.name, v.levels, "observed"))
    return tuple(axes)


class ProbabilityTable:
    """An immutable probability table over named categorical axes."""

    def __init__(self, axes: Sequence[Axis], values: np.ndarray):
        axes = tuple(axes)
        values = np.asarray(values).copy()
        if values.shape != tuple(a.size for a in axes):
            raise LawError(f"table shape {values.shape} does not match axes")
        values.setflags(write=False)
        self.axes = axes
        self.values = values
        self._index = {a.name: i for i, a in enumerate(axes)}

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.axes)

    def axis(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise GraphQueryError(f"table has no axis {name!r}") from None

    def total(self):
        return table_total(self.values)

    def event_prob(self, assignment: Mapping[str, int]):
        """Probability of the event fixing the given axes (others summed out)."""
        sl = [slice(None)] * len(self.axes)
        for name, level in assignment.items():
            i = self.axis(name)
            if not 0 <= level < self.axes[i].size:
                raise LawError(f"level {level} out of range for axis {name!r}")
            sl[i] = level
        return table_total(np.asarray(self.values[tuple(sl)]).reshape(-1))

    def marginal(self, names: Sequence[str]) -> "ProbabilityTable":
        """Marginal table over ``names``, in the order given."""
        keep = [self.axis(n) for n in names]
        drop = tuple(i for i in range(len(self.axes)) if i not in keep)
        summed = self.values.sum(axis=drop) if drop else self.values
        rank = {ax: pos for pos, ax in enumerate(sorted(keep))}
        out = np.transpose(summed, [rank[k] for k in keep]) if keep else summed
        return ProbabilityTable([self.axes[i] for i in keep], out)

    def __repr__(self) -> str:
        return f"ProbabilityTable(axes={[a.name for a in self.axes]})"


def conditional(table: ProbabilityTable, targets: Sequence[str],
                conditions: Sequence[str] = (), eps_pos: float = EPS_POS) -> ProbabilityTable:
    """Exact conditional table p(targets | conditions) by ratio of marginals.

    The result has the condition axes first, then the target axes; each
    condition configuration indexes a normalized distribution over targets.
    Raises :class:`PositivityError` if any conditioning event has probability
    below ``eps_pos``.
    """
    targets = list(targets)
    conditions = list(conditions)
    joint = table.marginal(conditions + targets)
    if not conditions:
        return joint
    denom = table.marginal(conditions)
    mass = denom.values
    null = np.argwhere(mass.astype(float) < eps_pos)
    if len(null):
        names = {a.name: int(i) for a, i in zip(denom.axes, null[0])}
        raise PositivityError(f"conditioning on a null event {names}", stratum=names)
    out = joint.values / mass.reshape(mass.shape + (1,) * len(targets))
    return ProbabilityTable(joint.axes, out)


class ObservedLawTable(ProbabilityTable):
    """Exact observed-data law over fully observed variables, proxies (with NA), and indicators."""

    def __init__(self, graph: MissingDataGraph, values: np.ndarray):
        super().__init__(observable_axes(graph), values)
        self.graph = graph

    def consistent(self, atol: float = _ROW_SUM_TOL) -> bool:
        """True when mass totals 1 and every inconsistent NA pattern has zero mass."""
        if abs(float(self.total()) - 1.0) > atol:
            return False
        for p in self.graph.pairs:
            t = self.graph.vertex(p.true)
            na = t.levels
            # proxy NA with indicator 1, or an observed value with indicator 0
            if float(self.event_prob({p.true: na, p.indicator: 1})) > atol:
                return False
            for x in range(t.levels):
                if float(self.event_prob({p.true: x, p.indicator: 0})) > atol:
                    return False
        return True


class CategoricalLaw:
    """A full law factored into one CPT per non-proxy vertex of the graph.

    ``cpts[v]`` has shape ``(*parent_levels, levels_of_v)`` with parents in
    graph declaration order; every row is a probability vector.  Entries may
    be floats or exact rationals (object dtype).
    """

    def __init__(self, graph: MissingDataGraph, cpts: Mapping[str, np.ndarray]):
        self.graph = graph
        clean: dict[str, np.ndarray] = {}
        for v in graph.non_proxy_vertices():
            if v.levels is None:
                raise LawError(f"vertex {v.name!r} is continuous; categorical laws only")
            if v.name not in cpts:
                raise LawError(f"missing CPT for vertex {v.name!r}")
            parents = self.parent_order(graph, v.name)
            arr = np.asarray(cpts[v.name]).copy()
            want = tuple(graph.vertex(p).levels for p in parents) + (v.levels,)
            if arr.shape != want:
                raise LawError(
                    f"CPT for {v.name!r} has shape {arr.shape}, expected {want} "
                    f"(parents {parents} in declaration order)")
            flat_rows = arr.reshape(-1, v.levels)
            for row in flat_rows:
                s = sum(row, start=Fraction(0)) if arr.dtype == object else math.fsum(row)
                if abs(float(s) - 1.0) > _ROW_SUM_TOL:
                    raise LawError(f"CPT row for {v.name!r} sums to {float(s)!r}, not 1")
                if any(float(x) < 0 or float(x) > 1 for x in row):
                    raise LawError(f"CPT entry for {v.name!r} outside [0, 1]")
            arr.setflags(write=False)
            clean[v.name] = arr
        extra = set(cpts) - set(clean)
        if extra:
            raise LawError(f"CPTs given for unknown or proxy vertices: {sorted(extra)}")
        self.cpts = clean

    @staticmethod
    def parent_order(graph: MissingDataGraph, name: str) -> tuple[str, ...]:
        """Non-proxy parents of ``name`` in graph declaration order."""
        order = {v.name: i for i, v in enumerate(graph.vertices)}
        ps = [p for p in graph.parents(name)
              if graph.vertex(p).role is not VertexRole.PROXY]
        return tuple(sorted(ps, key=order.__getitem__))

    def strictly_positive(self, eps_pos: float = EPS_POS) -> bool:
        return all(float(x) >= eps_pos for arr in self.cpts.values() for x in arr.flat)

    def is_exact(self) -> bool:
        return all(arr.dtype == object for arr in self.cpts.values())

    def joint_table(self) -> ProbabilityTable:
        """The full joint over non-proxy vertices, in declaration order."""
        verts = self.graph.non_proxy_vertices()
        dtype = object if self.is_exact() else float
        out = joint_from_cpts(cpt_subscripts(self.graph),
                              [np.asarray(self.cpts[v.name], dtype=dtype) for v in verts])
        kinds = {VertexRole.FULLY_OBSERVED: "observed",
                 VertexRole.TRUE_VARIABLE: "true",
                 VertexRole.RESPONSE_INDICATOR: "indicator"}
        axes = [Axis(v.name, v.levels, kinds[v.role]) for v in verts]
        return ProbabilityTable(axes, out)

    def to_json(self) -> dict:
        def enc(x):
            if isinstance(x, Rational) and not isinstance(x, int):
                return f"{x.numerator}/{x.denominator}"
            return repr(float(x))

        cpts = {}
        for name, arr in self.cpts.items():
            nested = np.frompyfunc(enc, 1, 1)(arr).tolist()
            cpts[name] = {"parents": list(self.parent_order(self.graph, name)),
                          "table": nested}
        return {"graph": self.graph.to_json(), "cpts": cpts}

    @classmethod
    def from_json(cls, source, graph: MissingDataGraph | None = None) -> "CategoricalLaw":
        obj = load_json_source(source)
        unknown = set(obj) - {"graph", "cpts"}
        if unknown:
            raise LawError(f"unknown law keys: {sorted(unknown)}")
        if graph is None:
            gspec = obj.get("graph")
            if gspec is None:
                raise LawError("law document needs a 'graph' object or an explicit graph")
            graph = MissingDataGraph.from_json(gspec)

        def dec(s):
            if isinstance(s, str) and "/" in s:
                num, den = s.split("/")
                return Fraction(int(num), int(den))
            return float(s)

        cpts = {}
        for name, entry in obj["cpts"].items():
            unknown = set(entry) - {"parents", "table"}
            if unknown:
                raise LawError(f"unknown CPT keys for {name!r}: {sorted(unknown)}")
            arr = np.array(entry["table"], dtype=object)
            vals = np.frompyfunc(dec, 1, 1)(arr)
            if not any(isinstance(x, Fraction) for x in vals.flat):
                vals = vals.astype(float)
            declared = list(entry.get("parents", []))
            canonical = list(cls.parent_order(graph, name))
            if sorted(declared) != sorted(canonical):
                raise LawError(f"CPT parents for {name!r} are {declared}, graph says {canonical}")
            if declared != canonical:
                perm = [declared.index(p) for p in canonical] + [len(declared)]
                vals = np.transpose(vals, perm)
            cpts[name] = vals
        return cls(graph, cpts)


# -- core operations ----------------------------------------------------------


def joint_probability(law: CategoricalLaw, assignment: Mapping[str, int]):
    """Full-law probability of one configuration: the product of CPT entries."""
    prob = Fraction(1) if law.is_exact() else 1.0
    for v in law.graph.non_proxy_vertices():
        if v.name not in assignment:
            raise LawError(f"assignment is missing vertex {v.name!r}")
        level = assignment[v.name]
        if not 0 <= level < v.levels:
            raise LawError(f"level {level} out of range for {v.name!r}")
        parents = CategoricalLaw.parent_order(law.graph, v.name)
        key = tuple(assignment[p] for p in parents) + (level,)
        prob = prob * law.cpts[v.name][key]
    return prob


def cpt_subscripts(graph: MissingDataGraph) -> list[str]:
    """einsum subscripts of each non-proxy vertex's CPT, in declaration order.

    Each vertex has one letter; a CPT's subscript is its parents' letters in
    :meth:`CategoricalLaw.parent_order`, then its own.
    """
    names = [v.name for v in graph.non_proxy_vertices()]
    if len(names) > len(ascii_letters):
        raise LawError(f"{len(names)} vertices exceed the {len(ascii_letters)} einsum "
                       f"subscripts of the table-based joint")
    letters = dict(zip(names, ascii_letters))
    return ["".join(letters[p] for p in CategoricalLaw.parent_order(graph, n)) + letters[n]
            for n in names]


def joint_from_cpts(subscripts: Sequence[str], cpts: Sequence[np.ndarray]) -> np.ndarray:
    """The full joint as the product of the CPTs, one einsum over :func:`cpt_subscripts`.

    Each cell multiplies its CPT entries in vertex order, for float and for
    object (``Fraction``) arrays alike, so exact laws stay exact.  CPTs with
    leading batch axes give one joint per batch entry.
    """
    return np.einsum(",".join("..." + s for s in subscripts)
                     + "->..." + "".join(s[-1] for s in subscripts), *cpts)


def coarsening_map(graph: MissingDataGraph) -> np.ndarray:
    """The observation process as an array: full cell -> flat observed cell.

    An integer array over the full-joint shape (non-proxy vertices in
    declaration order).  Each entry is the row-major flat index, in the
    shape of :func:`observable_axes`, of the observed cell that full cell
    produces: a proxy takes the true value when its indicator is 1 and its
    NA level otherwise; every other vertex is copied.
    """
    axes = observable_axes(graph)
    full = np.indices([v.levels for v in graph.non_proxy_vertices()])
    pos = {a.name: i for i, a in enumerate(axes)}
    observed = list(full)
    for p in graph.pairs:
        x, r = pos[p.true], pos[p.indicator]
        observed[x] = np.where(full[r] == 1, full[x], axes[x].size - 1)
    return np.ravel_multi_index(observed, [a.size for a in axes])


def observed_law(law: CategoricalLaw) -> ObservedLawTable:
    """Apply the proxy mechanism and sum out hidden true values where R = 0.

    Full cells are added into their observed cells in row-major order, so
    float totals are summed in a fixed order and rational ones exactly.
    """
    graph = law.graph
    joint = law.joint_table().values.reshape(-1)
    cells = coarsening_map(graph).reshape(-1)
    shape = [a.size for a in observable_axes(graph)]
    size = int(np.prod(shape))
    if joint.dtype == object:
        out = np.full(size, Fraction(0), dtype=object)
        np.add.at(out, cells, joint)
    else:
        out = np.bincount(cells, weights=joint, minlength=size)
    return ObservedLawTable(graph, out.reshape(shape))


# -- random law generation -----------------------------------------------------


@dataclass(frozen=True)
class SimConstraints:
    """Constraints for random law generation.

    ``exogenous_response_prob`` pins p(R=1) for parentless response
    indicators.  Indicators with parents get one observation probability per
    parent configuration, drawn uniformly from ``response_interval`` with all
    values pairwise at least ``response_min_gap`` apart.  Rows of the other
    CPTs are uniform on the simplex, redrawn until every level has mass at
    least ``min_prob`` and (for variables with parents) every pair of rows
    is at least ``dependency_gap`` apart in total variation.  The floor
    keeps the sampled designs away from degenerate marginals under which the
    colluder parameters are estimable only in principle.
    """

    exogenous_response_prob: float = 0.8
    response_interval: tuple[float, float] = (0.7, 0.9)
    response_min_gap: float = 1e-3
    dependency_gap: float = 0.1
    min_prob: float = 0.1
    max_tries: int = 10_000

    def to_json(self) -> dict:
        doc = {"exogenous_response_prob": self.exogenous_response_prob,
               "response_interval": list(self.response_interval),
               "response_min_gap": self.response_min_gap,
               "dependency_gap": self.dependency_gap,
               "min_prob": self.min_prob}
        # Written only when it differs from the default, so that scenarios and
        # reports with the default keep the bytes they had before the field
        # was serialized.
        if self.max_tries != SimConstraints.max_tries:
            doc["max_tries"] = self.max_tries
        return doc

    @classmethod
    def from_json(cls, obj: dict) -> "SimConstraints":
        unknown = set(obj) - {"exogenous_response_prob", "response_interval",
                              "response_min_gap", "dependency_gap", "min_prob", "max_tries"}
        if unknown:
            raise LawError(f"unknown constraint keys: {sorted(unknown)}")
        kwargs = dict(obj)
        if "response_interval" in kwargs:
            kwargs["response_interval"] = tuple(kwargs["response_interval"])
        return cls(**kwargs)


def _tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def random_law(graph: MissingDataGraph, constraints: SimConstraints | None = None,
               seed=None) -> CategoricalLaw:
    """Sample a categorical law compatible with ``graph`` under ``constraints``.

    Unconstrained CPT rows are uniform on the simplex.  Deterministic given
    ``seed``; the generator is owned by this call.
    """
    constraints = constraints or SimConstraints()
    rng = np.random.default_rng(seed)
    lo, hi = constraints.response_interval
    if not 0.0 < lo < hi < 1.0:
        raise LawError(f"response interval {constraints.response_interval} must be within (0, 1)")

    cpts: dict[str, np.ndarray] = {}
    for v in graph.non_proxy_vertices():
        if v.levels is None:
            raise LawError(f"vertex {v.name!r} is continuous; cannot sample a categorical law")
        parents = CategoricalLaw.parent_order(graph, v.name)
        n_rows = 1
        for p in parents:
            pl = graph.vertex(p).levels
            if pl is None:
                raise LawError(f"parent {p!r} of {v.name!r} is continuous")
            n_rows *= pl
        shape = tuple(graph.vertex(p).levels for p in parents) + (v.levels,)

        if v.role is VertexRole.RESPONSE_INDICATOR:
            if not parents:
                p1 = constraints.exogenous_response_prob
                cpts[v.name] = np.array([1.0 - p1, p1])
                continue
            if (n_rows - 1) * constraints.response_min_gap >= (hi - lo):
                raise LawError(
                    f"cannot place {n_rows} response probabilities in "
                    f"[{lo}, {hi}] with pairwise gap {constraints.response_min_gap}")
            for _ in range(constraints.max_tries):
                vals = rng.uniform(lo, hi, size=n_rows)
                diffs = np.abs(vals[:, None] - vals[None, :])
                if n_rows == 1 or diffs[np.triu_indices(n_rows, 1)].min() >= constraints.response_min_gap:
                    break
            else:
                raise LawError(f"could not satisfy the response gap for {v.name!r}")
            rows = np.stack([1.0 - vals, vals], axis=1)
            cpts[v.name] = rows.reshape(shape)
            continue

        # fully observed or true variable: uniform-simplex rows
        if constraints.dependency_gap > 1.0:
            raise LawError("dependency gap above 1 is unreachable in total variation")
        if constraints.min_prob * v.levels >= 1.0:
            raise LawError(f"min_prob {constraints.min_prob} is infeasible for "
                           f"{v.levels} levels")
        def draw_row():
            for _ in range(constraints.max_tries):
                row = rng.dirichlet(np.ones(v.levels))
                if row.min() >= constraints.min_prob:
                    return row
            raise LawError(f"could not satisfy min_prob {constraints.min_prob} "
                           f"for {v.name!r}")

        for _ in range(constraints.max_tries):
            rows = np.stack([draw_row() for _ in range(n_rows)])
            if n_rows == 1:
                break
            gaps = [_tv_distance(rows[i], rows[j])
                    for i in range(n_rows) for j in range(i + 1, n_rows)]
            if min(gaps) >= constraints.dependency_gap:
                break
        else:
            raise LawError(f"could not satisfy the dependency gap for {v.name!r}")
        cpts[v.name] = rows.reshape(shape)

    return CategoricalLaw(graph, cpts)
