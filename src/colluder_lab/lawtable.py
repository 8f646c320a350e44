"""Categorical full laws, exact observed-data tables, and random law generation.

Tables are dense multidimensional arrays in row-major level order; the NA
state of a proxy is its last level.  An exact law's joint and observed
tables are held as :class:`Rationals`, Python-int numerators over one common
denominator, so their products and sums need no gcd; their ``Fraction``
values are built only when read.  Every reduction of a table (its total, an
event's probability, a marginal) adds the integer numerators of the table's
exact value, float tables included, since a float is a dyadic rational.  An
exact table returns the sum as a ``Fraction``, which the appendix
constructions rely on; a float table rounds it once to float, so each float
sum is correctly rounded and equals ``math.fsum`` of the same cells.  Laws
and tables are immutable value objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from numbers import Rational
from string import ascii_letters
from typing import Mapping, Sequence

import numpy as np

from .errors import GraphQueryError, LawError, PositivityError, check_integer, is_finite_real
from .mdgraph import MissingDataGraph, VertexRole, json_object, load_json_source

#: Positivity threshold for conditioning events.
EPS_POS = 1e-12

_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Rationals:
    """An exact array: Python-int ``numerators`` (object dtype) over one ``denominator``."""

    numerators: np.ndarray
    denominator: int

    @classmethod
    def of(cls, values: np.ndarray) -> "Rationals":
        """The exact value of a float or rational array over the lcm of its denominators.

        A float is a dyadic rational, so a float array's denominator is a
        power of two and its exact totals, correctly rounded by ``n / d``,
        equal ``math.fsum`` of the same cells.
        """
        values = np.asarray(values)
        ratios = [x.as_integer_ratio() if isinstance(x, float)
                  else (int(x.numerator), int(x.denominator))
                  for x in values.reshape(-1).tolist()]
        den = math.lcm(*{d for _, d in ratios})
        nums = np.empty(len(ratios), dtype=object)
        nums[:] = [n * (den // d) for n, d in ratios]
        return cls(nums.reshape(values.shape), den)

    def fractions(self, numerators) -> np.ndarray:
        """Each of ``numerators`` (an array of ints) over this denominator, an object
        array of ``Fraction``."""
        den = self.denominator
        return np.asarray(np.frompyfunc(lambda n: Fraction(n, den), 1, 1)(numerators),
                          dtype=object)

    def floats(self, numerators) -> np.ndarray:
        """Each of ``numerators`` (an array or one int) over this denominator, correctly
        rounded to float."""
        den = self.denominator
        numerators = np.asarray(numerators, dtype=object)
        return np.array([n / den for n in numerators.reshape(-1).tolist()]).reshape(
            numerators.shape)


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
    for v in graph.vertices:
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
    """An immutable probability table over named categorical axes.

    ``values`` is a float or object array, or :class:`Rationals` for an
    exact table; the ``Fraction`` array of an exact table is built on first
    read of :attr:`values`.
    """

    def __init__(self, axes: Sequence[Axis], values):
        axes = tuple(axes)
        if isinstance(values, Rationals):
            if values.denominator < 1:
                raise LawError(f"table denominator {values.denominator} is not positive")
            nums = np.array(values.numerators, dtype=object)
            nums.setflags(write=False)
            self._exact = Rationals(nums, values.denominator)
            self._values = None
            shape = nums.shape
        else:
            self._exact = None
            self._values = np.asarray(values).copy()
            self._values.setflags(write=False)
            shape = self._values.shape
        if shape != tuple(a.size for a in axes):
            raise LawError(f"table shape {shape} does not match axes")
        self.axes = axes
        self._index = {a.name: i for i, a in enumerate(axes)}

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            values = self._exact.fractions(self._exact.numerators)
            values.setflags(write=False)
            self._values = values
        return self._values

    def rationals(self) -> Rationals:
        """The table's exact values as integer numerators over one denominator."""
        if self._exact is None:
            self._exact = Rationals.of(self._values)
        return self._exact

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.axes)

    def axis(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise GraphQueryError(f"table has no axis {name!r}") from None

    def total(self):
        return self.event_prob({})

    def event_prob(self, assignment: Mapping[str, int]):
        """Probability of the event fixing the given axes (others summed out)."""
        sl = [slice(None)] * len(self.axes)
        for name, level in assignment.items():
            i = self.axis(name)
            if not 0 <= level < self.axes[i].size:
                raise LawError(f"level {level} out of range for axis {name!r}")
            sl[i] = level
        exact = self.rationals()
        n = np.asarray(exact.numerators[tuple(sl)], dtype=object).sum()
        return exact.floats(n).item() if self._rounded else Fraction(n, exact.denominator)

    def marginal(self, names: Sequence[str]) -> "ProbabilityTable":
        """Marginal table over ``names``, in the order given."""
        keep = [self.axis(n) for n in names]
        drop = [i for i in range(len(self.axes)) if i not in keep]
        exact = self.rationals()
        sums = np.asarray(np.transpose(exact.numerators, keep + drop).sum(
            axis=tuple(range(len(keep), len(self.axes)))), dtype=object)
        return ProbabilityTable([self.axes[i] for i in keep], exact.floats(sums)
                                if self._rounded else Rationals(sums, exact.denominator))

    @property
    def _rounded(self) -> bool:
        """Whether this is a float table, whose exact sums are rounded once to float."""
        return self._values is not None and self._values.dtype != object

    def __repr__(self) -> str:
        return f"ProbabilityTable(axes={[a.name for a in self.axes]})"


def conditional(table: ProbabilityTable, targets: Sequence[str],
                conditions: Sequence[str] = ()) -> ProbabilityTable:
    """Exact conditional table p(targets | conditions) by ratio of marginals.

    The result has the condition axes first, then the target axes; each
    condition configuration indexes a normalized distribution over targets.
    Raises :class:`PositivityError` if any conditioning event has probability
    below ``EPS_POS``.
    """
    targets = list(targets)
    conditions = list(conditions)
    joint = table.marginal(conditions + targets)
    if not conditions:
        return joint
    denom = table.marginal(conditions)
    mass = denom.values
    null = np.argwhere(mass.astype(float) < EPS_POS)
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

    def consistent(self) -> bool:
        """True when mass totals 1 and the cells :func:`coarsening_map` never produces
        hold no mass: exactly for an exact table, within 1e-12 for a float one."""
        exact = self.rationals()
        nums = exact.numerators.reshape(-1)
        unreachable = np.ones(nums.size, dtype=bool)
        unreachable[coarsening_map(self.graph).reshape(-1)] = False
        total, stray = nums.sum(), nums[unreachable].sum()
        if not self._rounded:
            return total == exact.denominator and stray == 0
        total, stray = exact.floats([total, stray])
        return abs(total - 1.0) <= _ROW_SUM_TOL and stray <= _ROW_SUM_TOL


def _fraction(entry) -> Fraction:
    """An exact CPT entry read from JSON: ``"p/q"``, a decimal string, or a number."""
    num, slash, den = str(entry).partition("/")
    return Fraction(int(num), int(den)) if slash else Fraction(num)


def _check_rows(name: str, rows: np.ndarray, one=1.0) -> None:
    """Raise :class:`LawError` unless every row of ``rows`` (N, levels), the rows of
    ``name``'s CPT, is a probability vector.

    Float rows must be finite, with entries in [0, 1] and a correctly rounded sum
    (``math.fsum``) within ``_ROW_SUM_TOL`` of 1.  An exact CPT's rows are judged on
    its integer numerators: entries in [0, ``one``], its denominator, summing to it.
    The error names the first bad row's sum before its range.
    """
    if rows.dtype == object:
        sums = rows.sum(axis=1)
        off_sum = sums != one
    else:
        if not np.isfinite(rows).all():
            raise LawError(f"CPT for {name!r} holds a non-finite entry")
        sums = np.array([math.fsum(row) for row in rows.tolist()])
        off_sum = np.abs(sums - 1.0) > _ROW_SUM_TOL
    bad = np.flatnonzero(off_sum | np.any((rows < 0) | (rows > one), axis=1))
    if bad.size and off_sum[bad[0]]:
        raise LawError(f"CPT row for {name!r} sums to {float(sums[bad[0]] / one)!r}, not 1")
    if bad.size:
        raise LawError(f"CPT entry for {name!r} outside [0, 1]")


class CategoricalLaw:
    """A full law factored into one CPT per vertex of the graph.

    ``cpts[v]`` has shape ``(*parent_levels, levels_of_v)`` with parents in
    graph declaration order; every row is a probability vector.  Entries may
    be floats or exact rationals (object dtype).  The factorization has no
    term for a bidirected edge, so the graph must have none.
    """

    def __init__(self, graph: MissingDataGraph, cpts: Mapping[str, np.ndarray]):
        if graph.bidirected_edges:
            edges = ", ".join(f"{u}<->{w}" for u, w in graph.bidirected_edges)
            raise LawError(f"a law factors over directed parents only and would drop the "
                           f"bidirected edges {edges}")
        self.graph = graph
        self._exact_cpts: dict[str, Rationals] = {}
        clean: dict[str, np.ndarray] = {}
        for v in graph.vertices:
            if v.levels is None:
                raise LawError(f"vertex {v.name!r} is continuous; categorical laws only")
            if v.name not in cpts:
                raise LawError(f"missing CPT for vertex {v.name!r}")
            parents = graph.parents(v.name)
            arr = np.asarray(cpts[v.name]).copy()
            want = tuple(graph.vertex(p).levels for p in parents) + (v.levels,)
            if arr.shape != want:
                raise LawError(
                    f"CPT for {v.name!r} has shape {arr.shape}, expected {want} "
                    f"(parents {parents} in declaration order)")
            if arr.dtype == bool or (arr.dtype == object
                                     and any(isinstance(x, bool) for x in arr.flat)):
                raise LawError(f"CPT for {v.name!r} holds a boolean entry")
            if arr.dtype == object:
                bad = [x for x in arr.flat if not isinstance(x, Rational)]
                if bad:
                    raise LawError(f"exact CPT for {v.name!r} holds a non-rational entry "
                                   f"{bad[0]!r}")
                exact = self._exact_cpts[v.name] = Rationals.of(arr)
                _check_rows(v.name, exact.numerators.reshape(-1, v.levels), exact.denominator)
            else:
                _check_rows(v.name, np.asarray(arr, dtype=float).reshape(-1, v.levels))
            arr.setflags(write=False)
            clean[v.name] = arr
        extra = set(cpts) - set(clean)
        if extra:
            raise LawError(f"CPTs given for unknown vertices: {sorted(extra)}")
        self.cpts = clean

    #: :meth:`MissingDataGraph.parents`; ``perfbench/workloads.py`` still calls it.
    parent_order = staticmethod(MissingDataGraph.parents)

    def is_exact(self) -> bool:
        return all(arr.dtype == object for arr in self.cpts.values())

    def joint_table(self) -> ProbabilityTable:
        """The full joint over the vertices, in declaration order.

        An exact law's joint is :class:`Rationals`: the product of its CPTs'
        integer numerators over the product of their denominators.
        """
        verts = self.graph.vertices
        subscripts = cpt_subscripts(self.graph)
        if self.is_exact():
            cpts = [self._exact_cpts[v.name] for v in verts]
            out = Rationals(joint_from_cpts(subscripts, [c.numerators for c in cpts]),
                            math.prod(c.denominator for c in cpts))
        else:
            out = joint_from_cpts(subscripts,
                                  [np.asarray(self.cpts[v.name], dtype=float) for v in verts])
        kinds = {VertexRole.FULLY_OBSERVED: "observed",
                 VertexRole.TRUE_VARIABLE: "true",
                 VertexRole.RESPONSE_INDICATOR: "indicator"}
        axes = [Axis(v.name, v.levels, kinds[v.role]) for v in verts]
        return ProbabilityTable(axes, out)

    def to_json(self) -> dict:
        def exact(x):
            return f"{x.numerator}/{x.denominator}"

        def approx(x):
            return repr(float(x))

        cpts = {}
        for name, arr in self.cpts.items():
            enc = exact if arr.dtype == object else approx
            nested = np.frompyfunc(enc, 1, 1)(arr).tolist()
            cpts[name] = {"parents": list(self.graph.parents(name)),
                          "table": nested}
        return {"graph": self.graph.to_json(), "cpts": cpts}

    @classmethod
    def from_json(cls, source, graph: MissingDataGraph | None = None) -> "CategoricalLaw":
        obj = json_object(load_json_source(source, LawError), "law", ("graph", "cpts"), LawError)
        if not isinstance(obj.get("cpts"), dict):
            raise LawError("law document needs a 'cpts' object")
        if graph is None:
            gspec = obj.get("graph")
            if not isinstance(gspec, dict):
                raise LawError("law document needs a 'graph' object or an explicit graph")
            graph = MissingDataGraph.from_json(gspec)

        cpts = {}
        for name, entry in obj["cpts"].items():
            json_object(entry, f"CPT {name!r}", ("parents", "table"), LawError)
            if "table" not in entry:
                raise LawError(f"CPT {name!r} needs a 'table'")
            declared = entry.get("parents", [])
            canonical = list(graph.parents(name))
            if not isinstance(declared, list) or sorted(declared, key=str) != sorted(canonical):
                raise LawError(f"CPT parents for {name!r} are {declared}, graph says {canonical}")
            arr = np.array(entry["table"], dtype=object)
            if arr.ndim != len(canonical) + 1:
                raise LawError(f"CPT table for {name!r} has {arr.ndim} axes, "
                               f"expected {len(canonical) + 1}")
            if any(isinstance(x, bool) for x in arr.flat):
                raise LawError(f"CPT for {name!r} holds a boolean entry")
            # One fraction string makes the whole table exact: its decimal
            # entries are read as the rationals they spell, not as floats.
            exact = any(isinstance(x, str) and "/" in x for x in arr.flat)
            try:
                vals = np.frompyfunc(_fraction, 1, 1)(arr) if exact \
                    else np.frompyfunc(float, 1, 1)(arr).astype(float)
            except (ValueError, TypeError, ZeroDivisionError) as e:
                raise LawError(f"CPT for {name!r} holds an unreadable entry: {e}") from None
            if declared != canonical:
                perm = [declared.index(p) for p in canonical] + [len(declared)]
                vals = np.transpose(vals, perm)
            cpts[name] = vals
        return cls(graph, cpts)


# -- core operations ----------------------------------------------------------


def joint_probability(law: CategoricalLaw, assignment: Mapping[str, int]):
    """Full-law probability of one configuration: the product of CPT entries."""
    prob = Fraction(1) if law.is_exact() else 1.0
    for v in law.graph.vertices:
        if v.name not in assignment:
            raise LawError(f"assignment is missing vertex {v.name!r}")
        level = assignment[v.name]
        if not 0 <= level < v.levels:
            raise LawError(f"level {level} out of range for {v.name!r}")
        parents = law.graph.parents(v.name)
        key = tuple(assignment[p] for p in parents) + (level,)
        prob = prob * law.cpts[v.name][key]
    return prob


def cpt_subscripts(graph: MissingDataGraph) -> list[str]:
    """einsum subscripts of each vertex's CPT, in declaration order.

    Each vertex has one letter; a CPT's subscript is its parents' letters in
    :meth:`MissingDataGraph.parents`, then its own.
    """
    names = [v.name for v in graph.vertices]
    if len(names) > len(ascii_letters):
        raise LawError(f"{len(names)} vertices exceed the {len(ascii_letters)} einsum "
                       f"subscripts of the table-based joint")
    letters = dict(zip(names, ascii_letters))
    return ["".join(letters[p] for p in graph.parents(n)) + letters[n]
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

    An integer array over the full-joint shape (vertices in declaration
    order).  Each entry is the row-major flat index, in the shape of
    :func:`observable_axes`, of the observed cell that full cell produces: a
    proxy takes the true value when its indicator is 1 and its NA level
    otherwise; every other vertex is copied.
    """
    axes = observable_axes(graph)
    full = np.indices([v.levels for v in graph.vertices])
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
    joint = law.joint_table()
    cells = coarsening_map(graph).reshape(-1)
    shape = [a.size for a in observable_axes(graph)]
    exact = law.is_exact()
    values = joint.rationals().numerators if exact else joint.values
    out = np.zeros(int(np.prod(shape)), dtype=values.dtype)
    np.add.at(out, cells, values.reshape(-1))
    out = out.reshape(shape)
    return ObservedLawTable(graph, Rationals(out, joint.rationals().denominator) if exact else out)


# -- random law generation -----------------------------------------------------


@dataclass(frozen=True)
class SimConstraints:
    """Constraints for random law generation.

    ``exogenous_response_prob`` pins p(R=1) for parentless response
    indicators.  Indicators with parents get one observation probability per
    parent configuration, drawn uniformly from ``response_interval`` with all
    values pairwise at least ``response_min_gap`` apart.  Rows of the other
    CPTs are uniform on the simplex with every level's mass at least
    ``min_prob``; both are drawn in closed form.  The floor keeps the sampled
    designs away from degenerate marginals under which the colluder
    parameters are estimable only in principle.  A variable's rows are
    redrawn as a block until every pair is at least ``dependency_gap`` apart
    in total variation, and ``max_tries`` bounds those blocks.
    """

    exogenous_response_prob: float = 0.8
    response_interval: tuple[float, float] = (0.7, 0.9)
    response_min_gap: float = 1e-3
    dependency_gap: float = 0.1
    min_prob: float = 0.1
    max_tries: int = 10_000

    def __post_init__(self):
        for name in ("exogenous_response_prob", "response_min_gap", "dependency_gap",
                     "min_prob"):
            value = getattr(self, name)
            if not is_finite_real(value):
                raise LawError(f"{name} must be a finite real number, got {value!r}")
        interval = self.response_interval
        if not (isinstance(interval, (list, tuple)) and len(interval) == 2
                and all(map(is_finite_real, interval))):
            raise LawError(f"response_interval must be two numbers, got {interval!r}")
        if not 0.0 < interval[0] < interval[1] < 1.0:
            raise LawError(f"response_interval (lo, hi) must satisfy 0 < lo < hi < 1, "
                           f"got {interval!r}")
        object.__setattr__(self, "response_interval", tuple(interval))
        check_integer("max_tries", self.max_tries, 1, LawError)

    def to_json(self) -> dict:
        return {"exogenous_response_prob": self.exogenous_response_prob,
                "response_interval": list(self.response_interval),
                "response_min_gap": self.response_min_gap,
                "dependency_gap": self.dependency_gap,
                "min_prob": self.min_prob,
                "max_tries": self.max_tries}

    @classmethod
    def from_json(cls, obj: dict) -> "SimConstraints":
        """The constraints of a decoded JSON object, such as a scenario's ``constraints``."""
        return cls(**json_object(obj, "constraints", [f.name for f in fields(cls)], LawError))


#: The most pairwise-difference cells one gap test of candidate blocks holds in
#: :func:`_simplex_rows`, over all of its generators, which bounds its memory when
#: blocks keep failing.
_BATCH_CELLS = 1 << 20

#: Every multiple of this in [0, 1) is a float, and so is any sum of them below 1.
_GRID = 2.0 ** -53


def uniform_simplex(rngs: Sequence[np.random.Generator], shape) -> np.ndarray:
    """For each generator in ``rngs``, rows uniform on the simplex (len(rngs), *shape),
    the last axis of ``shape`` holding a row's levels.

    Each generator draws what ``rng.dirichlet(np.ones(shape[-1]), shape[:-1])`` draws,
    bit for bit, and is left in the same state.  A Dirichlet(1, ..., 1) row is
    standard exponentials over their sum (Devroye, *Non-Uniform Random Variate
    Generation*, 1986, ch. XI), and ``dirichlet`` draws them as
    ``standard_gamma(1.0)``.  It then multiplies each by the reciprocal of the row's
    sum, added left to right; ``np.cumsum`` adds in that order, while a row ``sum``
    of 8 levels or more adds pairwise and may differ in the last bit.  The rows of
    all the generators are normalized in one pass, so 16 generators' rows cost
    about a quarter of 16 ``dirichlet`` calls.
    """
    gamma = np.array([rng.standard_gamma(1.0, shape) for rng in rngs])
    return gamma * (1.0 / np.cumsum(gamma, axis=-1)[..., -1:])


def _simplex_rows(rngs: Sequence[np.random.Generator], n_rows: int, levels: int,
                  c: SimConstraints, name: str) -> np.ndarray:
    """For each generator in ``rngs``, ``n_rows`` rows uniform on the simplex with every
    entry at least ``min_prob``, pairwise at least ``dependency_gap`` apart in total
    variation (len(rngs), n_rows, levels).

    A uniform row with every entry at least ``a`` is ``a + (1 - levels * a)`` times a
    uniform row (:func:`uniform_simplex`), so only the dependency gap rejects.  Each
    generator draws blocks of ``n_rows`` rows in batches of doubling size and keeps
    the first block that clears the gap; a generator that has drawn ``max_tries``
    blocks without one fails the call.  The generators still drawing share each gap
    test, which holds at most ``_BATCH_CELLS`` pairwise-difference cells, so a
    generator's draws do not depend on the others.
    """
    floor = max(c.min_prob, 0.0)
    scale = 1.0 - levels * floor
    first, second = np.nonzero(~np.tri(n_rows, dtype=bool))  # the pairs of rows
    most = max(1, _BATCH_CELLS // max(1, first.size * levels))
    out = np.empty((len(rngs), n_rows, levels))
    todo, tried, size = np.arange(len(rngs)), 0, 1
    while todo.size:
        if tried >= c.max_tries:
            raise LawError(f"could not satisfy the dependency gap for {name!r}")
        size = min(size, most, c.max_tries - tried)
        step, failed = most // size, []  # generators per gap test
        for group in (todo[i:i + step] for i in range(0, todo.size, step)):
            rows = floor + scale * uniform_simplex([rngs[i] for i in group],
                                                   (size, n_rows, levels))
            gap = 0.5 * np.abs(rows[:, :, first] - rows[:, :, second]).sum(axis=-1)
            passed = np.all(gap >= c.dependency_gap, axis=2)
            hit = passed.any(axis=1)
            out[group[hit]] = rows[hit, passed[hit].argmax(axis=1)]
            failed.append(group[~hit])
        todo, tried, size = np.concatenate(failed), tried + size, size * 2
    return out


def _response_probs(rngs: Sequence[np.random.Generator], n_rows: int, c: SimConstraints,
                    name: str) -> np.ndarray:
    """For each generator in ``rngs``, ``n_rows`` observation probabilities uniform on
    ``response_interval`` given that every pair is at least ``response_min_gap`` apart
    (len(rngs), n_rows).

    Such values are ``n_rows`` uniforms on ``[lo, hi - (n_rows - 1) * gap]``, each
    shifted up by ``gap`` times its rank (the spacings argument: Devroye,
    *Non-Uniform Random Variate Generation*, 1986, ch. V).  The bounds, the gap and
    the draws are rounded inwards to multiples of ``_GRID``, where the sums are
    exact, so every value and every gap meets its constraint as a float.
    """
    lo, hi = (math.ceil(c.response_interval[0] / _GRID) * _GRID,
              math.floor(c.response_interval[1] / _GRID) * _GRID)
    gap = math.ceil(min(max(c.response_min_gap, 0.0), 1.0) / _GRID) * _GRID
    room = hi - lo - (n_rows - 1) * gap
    if room <= 0.0:
        raise LawError(f"cannot place {n_rows} response probabilities in "
                       f"{list(c.response_interval)} with pairwise gap {c.response_min_gap} "
                       f"for {name!r}")
    u = np.floor(np.stack([rng.uniform(0.0, room, n_rows) for rng in rngs]) / _GRID) * _GRID
    return lo + u + gap * np.argsort(np.argsort(u, axis=1), axis=1)


def random_cpts(graph: MissingDataGraph, constraints: SimConstraints | None,
                seeds: Sequence) -> dict[str, np.ndarray]:
    """The CPTs of one law per seed in ``seeds``, each with a leading axis over the seeds.

    Each CPT is drawn from the uniform distribution on the rows that meet
    ``constraints`` (see :class:`SimConstraints`).  Every seed has its own generator,
    which draws the vertices in declaration order, so a seed's law does not depend
    on the other seeds; the draws of all seeds are transformed and tested together.
    Every row is checked as :class:`CategoricalLaw` checks it.  A seed whose
    generator exhausts ``max_tries`` raises what :func:`random_law` raises for it.
    """
    constraints = constraints or SimConstraints()
    rngs = [np.random.default_rng(seed) for seed in seeds]

    cpts: dict[str, np.ndarray] = {}
    for v in graph.vertices:
        parents = graph.parents(v.name)
        shape = tuple(graph.vertex(p).levels for p in parents) + (v.levels,)
        if None in shape:
            raise LawError(f"{v.name!r} or one of its parents is continuous; cannot sample a "
                           f"categorical law")
        n_rows = math.prod(shape[:-1])

        if v.role is VertexRole.RESPONSE_INDICATOR:
            vals = (_response_probs(rngs, n_rows, constraints, v.name) if parents
                    else np.full((len(rngs), 1), constraints.exogenous_response_prob))
            rows = np.stack([1.0 - vals, vals], axis=-1)
        else:
            # fully observed or true variable: uniform-simplex rows
            if constraints.dependency_gap > 1.0:
                raise LawError("dependency gap above 1 is unreachable in total variation")
            if constraints.min_prob * v.levels >= 1.0:
                raise LawError(f"min_prob {constraints.min_prob} is infeasible for "
                               f"{v.levels} levels")
            rows = _simplex_rows(rngs, n_rows, v.levels, constraints, v.name)
        _check_rows(v.name, rows.reshape(-1, v.levels))
        cpts[v.name] = rows.reshape((len(rngs),) + shape)
    return cpts


def random_law(graph: MissingDataGraph, constraints: SimConstraints | None = None,
               seed=None) -> CategoricalLaw:
    """Sample a categorical law compatible with ``graph`` under ``constraints``.

    The one-seed case of :func:`random_cpts`.  Deterministic given ``seed``; the
    generator is owned by this call.
    """
    cpts = random_cpts(graph, constraints, [seed])
    return CategoricalLaw(graph, {name: cpt[0] for name, cpt in cpts.items()})
