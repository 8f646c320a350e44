"""Colluder equations, rank conditions, identifying functionals, and verdicts.

All operations are pure functions of immutable inputs.  The linear systems
are built from observed-data quantities only; full laws enter only through
their observed tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .errors import (ConditionalIndependenceError, GraphQueryError, LawError,
                     PositivityError, RankDeficiencyError)
from .lawtable import (EPS_POS, Axis, CategoricalLaw, ObservedLawTable,
                       ProbabilityTable, conditional)
from .mdgraph import Colluder, MissingDataGraph, VertexRole, m_separated

#: Relative tolerance for the numerical rank of a colluder matrix.
RANK_TOL = 1e-10


# -- colluder systems ---------------------------------------------------------


@dataclass(frozen=True)
class ColluderSystem:
    """The linear system A s = b of one colluder at one stratum, for one arm r.

    ``a[i, j] = p(Y=y_i | R_X=r, X=x_j, R_Y=1, Z=z) * p(R_Y=1 | Z=z)`` and
    ``b[k] = p(Y=y_k, R_Y=1, R_X=r | Z=z)``, taken from the observed data
    distribution; for r = 0 the first factor of ``a`` is replaced by its
    r = 1 counterpart, which is equal under the conditional independence
    that makes the system readable from observed data.
    """

    colluder: Colluder
    z_stratum: dict[str, int]
    r: int
    a: np.ndarray
    b: np.ndarray

    @property
    def m(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class ColluderSolution:
    values: np.ndarray
    residual: float
    out_of_range: tuple[int, ...] = ()


def separation_condition(g: MissingDataGraph, col: Colluder) -> bool:
    """The conditional independence required to read the system off observed data:
    R_X independent of Y given everything else except proxies."""
    y_true = g.true_of(col.target_indicator)
    cond = [v.name for v in g.non_proxy_vertices()
            if v.name not in (col.response_of_true, y_true)]
    return m_separated(g, {col.response_of_true}, {y_true}, cond)


def stratum_variables(g: MissingDataGraph, col: Colluder) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Names of the stratum variables of a colluder.

    Returns ``(enumerable, indicators)``: fully observed and other true
    variables whose levels index the strata, and the remaining response
    indicators, which are always fixed to 1.
    """
    y_true = g.true_of(col.target_indicator)
    enumerable = []
    indicators = []
    for v in g.non_proxy_vertices():
        if v.name in (col.true_variable, y_true, col.response_of_true, col.target_indicator):
            continue
        if v.role is VertexRole.RESPONSE_INDICATOR:
            indicators.append(v.name)
        else:
            enumerable.append(v.name)
    return tuple(enumerable), tuple(indicators)


def enumerate_strata(g: MissingDataGraph, col: Colluder):
    """Yield every stratum assignment of Z, indicators pinned to 1."""
    enumerable, indicators = stratum_variables(g, col)
    sizes = []
    for n in enumerable:
        lv = g.vertex(n).levels
        if lv is None:
            raise GraphQueryError(f"stratum variable {n!r} is continuous; cannot enumerate strata")
        sizes.append(range(lv))
    base = {n: 1 for n in indicators}
    for combo in product(*sizes):
        yield {**dict(zip(enumerable, combo)), **base}


@dataclass(frozen=True)
class _Stacks:
    """Every stratum's colluder quantities, read in one pass off the observed table.

    Leading axis: strata in :func:`enumerate_strata` order.  ``p_z`` (S,)
    is the stratum mass, ``p_x`` (S, m) the mass of {X=x_j, R_X=1, R_Y=1},
    ``a`` (S, q, m) the colluder matrices and ``b`` (S, 2, q) the right-hand
    sides of both arms.  Each mass is its exact total rounded once to float,
    so the entries equal per-event ``float(event_prob(...))`` arithmetic.
    """

    p_z: np.ndarray
    p_x: np.ndarray
    a: np.ndarray
    b: np.ndarray


def _stacks(obs: ObservedLawTable, g: MissingDataGraph, col: Colluder) -> _Stacks:
    """The colluder quantities of every stratum."""
    x_name, rx, ry = col.true_variable, col.response_of_true, col.target_indicator
    y_name = g.true_of(ry)
    m, q = g.vertex(x_name).levels, g.vertex(y_name).levels
    enumerable, indicators = stratum_variables(g, col)
    exact = obs.rationals()
    index = [slice(None)] * len(obs.axes)
    for n in indicators:
        index[obs.axis(n)] = 1
    for n in enumerable:
        index[obs.axis(n)] = slice(g.vertex(n).levels)
    kept = [a.name for a, i in zip(obs.axes, index) if isinstance(i, slice)]
    order = [kept.index(n) for n in (*enumerable, x_name, y_name, rx, ry)]
    t = np.transpose(exact.numerators[tuple(index)], order).reshape(-1, m + 1, q + 1, 2, 2)

    p_z = exact.floats(t.sum(axis=(1, 2, 3, 4)))
    p_ry1 = exact.floats(t[..., 1].sum(axis=(1, 2, 3)))
    p_x = exact.floats(t[:, :m, :, 1, 1].sum(axis=2))
    joint = exact.floats(t[:, :m, :q, 1, 1])
    b = exact.floats(np.moveaxis(t[:, :, :q, :, 1].sum(axis=1), 2, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        p_ry1 = p_ry1 / p_z
        a = np.swapaxes(joint / p_x[:, :, None] * p_ry1[:, None, None], 1, 2)
        b = b / p_z[:, None, None]
    return _Stacks(p_z, p_x, np.ascontiguousarray(a), b)


def _check_positivity(st: _Stacks, s: int, z: dict, col: Colluder) -> None:
    if st.p_z[s] < EPS_POS:
        raise PositivityError(f"positivity violated at stratum {z}", stratum=z)
    x_name, rx, ry = col.true_variable, col.response_of_true, col.target_indicator
    null = np.flatnonzero(st.p_x[s] < EPS_POS)
    if null.size:
        j = null[0]
        raise PositivityError(
            f"positivity violated: event {{{x_name}={j}, {rx}=1, {ry}=1}} "
            f"has zero mass at stratum {z}", stratum=z)


def build_colluder_system(obs: ObservedLawTable, g: MissingDataGraph, col: Colluder,
                          z: Mapping[str, int], r: int) -> ColluderSystem:
    """Populate the colluder matrix and right-hand side from an observed law.

    ``z`` must be one of :func:`enumerate_strata`'s strata: every stratum
    variable assigned a level, and every response indicator in it set to 1.
    Raises :class:`ConditionalIndependenceError` when the required
    m-separation fails and :class:`PositivityError` when the stratum or a
    conditioning event has mass below ``EPS_POS``.
    """
    if r not in (0, 1):
        raise LawError(f"r must be 0 or 1, got {r!r}")
    if not separation_condition(g, col):
        raise ConditionalIndependenceError(
            f"conditional independence violated: {col.response_of_true} is not "
            f"m-separated from {g.true_of(col.target_indicator)} given the remaining variables",
            colluder=col)

    z = dict(z)
    strata = list(enumerate_strata(g, col))
    if z not in strata:
        enumerable, indicators = stratum_variables(g, col)
        raise LawError(f"{z} is not a stratum of colluder {col}: a stratum assigns a level "
                       f"to each of {list(enumerable)} and 1 to each of {list(indicators)}")
    s = strata.index(z)
    st = _stacks(obs, g, col)
    _check_positivity(st, s, z, col)
    return ColluderSystem(col, z, r, st.a[s], st.b[s, r])


def rank_test(sys: ColluderSystem) -> tuple[int, np.ndarray]:
    """Numerical rank of the colluder matrix: singular values above ``RANK_TOL`` * largest."""
    sv = np.linalg.svd(sys.a, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0, sv
    return int(np.sum(sv > RANK_TOL * sv[0])), sv


def solve_colluder(sys: ColluderSystem) -> ColluderSolution:
    """Solve A s = b by the Moore-Penrose inverse; requires full column rank.

    For square systems this is the plain inverse, and for consistent
    overdetermined systems it is exact; a residual above 1e-8 raises.  Raw
    solution values are returned unclipped; entries outside [0, 1] by more
    than 1e-8 are flagged.
    """
    rank, sv = rank_test(sys)
    if rank < sys.m:
        raise RankDeficiencyError(
            f"not identifiable at this stratum: rank {rank} < {sys.m}",
            colluder=sys.colluder, stratum=sys.z_stratum, rank=rank,
            required=sys.m, singular_values=sv)
    s, *_ = np.linalg.lstsq(sys.a, sys.b, rcond=None)
    residual = float(np.max(np.abs(sys.a @ s - sys.b)))
    if residual > 1e-8:
        raise LawError(f"colluder system inconsistent: residual {residual:.3e} exceeds 1e-8")
    flagged = tuple(int(j) for j in range(sys.m) if s[j] < -1e-8 or s[j] > 1 + 1e-8)
    return ColluderSolution(s, residual, flagged)


def colluder_mechanism(obs: ObservedLawTable, g: MissingDataGraph,
                       col: Colluder) -> ProbabilityTable:
    """The identified conditional law of R_X given all variables, other indicators at 1.

    Solves both arms of the colluder equations at every stratum and returns
    the table ``p(R_X | O, X1, (R minus R_X) = 1)``: axes are all fully
    observed and true variables in declaration order plus a final binary
    axis for R_X.  The value is ``s_rj / (s_0j + s_1j)`` and is constant in
    the true variable paired with the target indicator.  Any stratum that
    fails positivity or the rank condition raises, naming the stratum.
    """
    if not separation_condition(g, col):
        raise ConditionalIndependenceError(
            "conditional independence violated: the colluder equations cannot be "
            "read off the observed data", colluder=col)

    x_name, rx = col.true_variable, col.response_of_true
    y_name = g.true_of(col.target_indicator)
    variables = [v for v in g.non_proxy_vertices()
                 if v.role is not VertexRole.RESPONSE_INDICATOR]
    axes = [Axis(v.name, v.levels, "observed" if v.role is VertexRole.FULLY_OBSERVED else "true")
            for v in variables]
    axes.append(Axis(rx, 2, "indicator"))

    st = _stacks(obs, g, col)
    solutions = np.empty((len(st.p_z), 2, g.vertex(x_name).levels))
    for s, z in enumerate(enumerate_strata(g, col)):
        _check_positivity(st, s, z, col)
        for r in (0, 1):
            sys = ColluderSystem(col, z, r, st.a[s], st.b[s, r])
            solutions[s, r] = solve_colluder(sys).values
        null = np.flatnonzero(solutions[s, 0] + solutions[s, 1] < EPS_POS)
        if null.size:
            raise PositivityError(
                f"positivity violated: {x_name}={null[0]} has no mass at stratum {z}",
                stratum=z)

    # (strata, R_X, X) -> (*stratum variables, X, R_X, Y), then declaration order
    mech = solutions / (solutions[:, 0] + solutions[:, 1])[:, None]
    enumerable, _ = stratum_variables(g, col)
    labels = [*enumerable, x_name, rx, y_name]
    mech = np.swapaxes(mech, 1, 2).reshape(
        [g.vertex(n).levels for n in labels[:-1]] + [1])
    mech = np.transpose(mech, [labels.index(a.name) for a in axes])
    return ProbabilityTable(axes, np.broadcast_to(mech, [a.size for a in axes]))


# -- binary closed form ---------------------------------------------------------


@dataclass(frozen=True)
class BinaryColluderQuantities:
    """Observed-data quantities entering the binary closed-form solution.

    ``a`` = p(R_X=0), ``b`` = p(X=0), ``c`` = p(Y=0 | X=0),
    ``h`` = p(Y=0 | X=1), ``r`` = p(Y=0, R_X=0, R_Y=1),
    ``s`` = p(Y=1, R_X=0, R_Y=1).
    """

    a: float
    b: float
    c: float
    h: float
    r: float
    s: float

    def __post_init__(self):
        for name in ("a", "b", "c", "h", "r", "s"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise LawError(f"quantity {name}={v!r} must lie strictly inside (0, 1)")


def quantities_from_observed(obs: ObservedLawTable, g: MissingDataGraph,
                             col: Colluder) -> BinaryColluderQuantities:
    """Read the closed-form quantities off an observed law of a binary two-variable model."""
    x, rx, ry = col.true_variable, col.response_of_true, col.target_indicator
    y = g.true_of(ry)
    if g.vertex(x).levels != 2 or g.vertex(y).levels != 2:
        raise LawError("closed-form quantities require binary colluder variables")
    extra, _ = stratum_variables(g, col)
    if extra:
        raise LawError(f"closed form applies to the two-variable model; extra variables {extra}")
    a = float(obs.event_prob({rx: 0}))
    b = float(obs.event_prob({x: 0, rx: 1})) / float(obs.event_prob({rx: 1}))
    cx0 = float(obs.event_prob({x: 0, rx: 1, ry: 1}))
    cx1 = float(obs.event_prob({x: 1, rx: 1, ry: 1}))
    c = float(obs.event_prob({x: 0, y: 0, rx: 1, ry: 1})) / cx0
    h = float(obs.event_prob({x: 1, y: 0, rx: 1, ry: 1})) / cx1
    r = float(obs.event_prob({y: 0, rx: 0, ry: 1}))
    s = float(obs.event_prob({y: 1, rx: 0, ry: 1}))
    return BinaryColluderQuantities(a, b, c, h, r, s)


def binary_closed_form(q: BinaryColluderQuantities) -> tuple[float, float]:
    """Closed-form identifying functional for p(R_Y=1 | X, R_X=0) in the binary model.

    Returns the pair for X = 0 and X = 1.  Requires the dependency c != h;
    equal conditionals make the denominators vanish.
    """
    if q.c == q.h:
        raise LawError("dependency assumption violated: p(Y=0|X=0) equals p(Y=0|X=1)")
    p0 = (q.r - q.h * q.r - q.h * q.s) / (q.a * q.b * (q.c - q.h))
    p1 = (q.r - q.c * q.r - q.c * q.s) / (q.a * (q.b - 1.0) * (q.c - q.h))
    return p0, p1


# -- odds-ratio factorization check ---------------------------------------------


def or_factorization_check(law: CategoricalLaw, ordering: Sequence[str]) -> float:
    """Maximum absolute violation of the odds-ratio factorization identity.

    Evaluates the missingness mechanism p(R | O, X1) of ``law`` against its
    factorization into univariate conditionals (all other indicators at 1)
    and pairwise odds-ratio terms with a normalizing constant, over every
    configuration.  The identity holds for any strictly positive law and any
    ordering of the response indicators, so this should be ~0 up to rounding.
    """
    g = law.graph
    r_names = [v.name for v in g.with_role(VertexRole.RESPONSE_INDICATOR)]
    if sorted(ordering) != sorted(r_names):
        raise LawError(f"ordering must be a permutation of {sorted(r_names)}")
    ordering = list(ordering)
    K = len(ordering)
    cond_names = [v.name for v in g.non_proxy_vertices()
                  if v.role is not VertexRole.RESPONSE_INDICATOR]

    joint = law.joint_table()
    joint = ProbabilityTable(joint.axes, joint.values.astype(float))
    table = conditional(joint, targets=ordering, conditions=cond_names).values
    n_cond = len(cond_names)
    zero = np.argwhere((table < EPS_POS).reshape(table.shape[:n_cond] + (-1,)).any(axis=-1))
    if len(zero):
        raise PositivityError(
            f"positivity violated: missingness mechanism has a zero cell at "
            f"{dict(zip(cond_names, map(int, zero[0])))}")

    def cond_prob(k, below):
        """p(R_k | R_<k = below, R_>k = 1) on every conditioning cell and indicator
        pattern; ``below=()`` keeps every value of R_<k."""
        t = table[(Ellipsis,) + below + (slice(None),) + (1,) * (K - k - 1)]
        t = t / t.sum(axis=-1, keepdims=True)
        axes = [1] * K
        axes[len(below):k + 1] = t.shape[n_cond:]
        return t.reshape(table.shape[:n_cond] + tuple(axes))

    first = [cond_prob(k, (1,) * k) for k in range(K)]
    unnorm = 1.0
    for p in first:
        unnorm = unnorm * p
    for k in range(1, K):
        p, axis = cond_prob(k, ()), n_cond + k
        unnorm = unnorm * (p / p.take([1], axis) * first[k].take([1], axis) / first[k])
    total = unnorm.sum(axis=tuple(range(n_cond, n_cond + K)), keepdims=True)
    return float(np.max(np.abs(unnorm / total - table)))


# -- full-law verdict ------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    kind: str
    colluder: str | None
    detail: str

    def to_json(self) -> dict:
        return {"kind": self.kind, "colluder": self.colluder, "detail": self.detail}


@dataclass(frozen=True)
class IdentifiabilityVerdict:
    decision: str  # "Identifiable" or "NotIdentifiable"
    reasons: tuple[Finding, ...]
    rank_condition_pending: bool

    @property
    def identifiable(self) -> bool:
        return self.decision == "Identifiable"

    def to_json(self) -> dict:
        return {"decision": self.decision,
                "reasons": [f.to_json() for f in self.reasons],
                "rank_condition_pending": self.rank_condition_pending}


def decide_full_law(g: MissingDataGraph) -> IdentifiabilityVerdict:
    """Structural full-law identifiability decision for a colluder graph.

    Non-identifiability is certain when a self-censoring edge exists, when a
    colluder fails the required m-separation, or when a colluder matrix
    cannot reach full column rank because it has fewer rows than columns.
    Otherwise the graph is identifiable *subject to rank*: the remaining
    full-rank requirement depends on the distribution and must be tested
    against a law or dataset stratum by stratum.
    """
    from .mdgraph import find_colluders, find_self_censoring

    reasons: list[Finding] = []
    for t, rr in find_self_censoring(g):
        reasons.append(Finding("self-censoring", None, f"self-censoring edge {t} -> {rr}"))

    colluders = find_colluders(g)
    for col in colluders:
        y_true = g.true_of(col.target_indicator)
        m = g.vertex(col.true_variable).levels
        q = g.vertex(y_true).levels
        if m is None or q is None:
            raise GraphQueryError(
                f"missing category counts: colluder {col} involves a continuous variable")
        if not separation_condition(g, col):
            reasons.append(Finding(
                "m-separation", str(col),
                f"{col.response_of_true} is not m-separated from {y_true} given the "
                f"remaining variables; the colluder equations are not identified"))
        if q < m:
            reasons.append(Finding(
                "structural-rank", str(col),
                f"colluder matrix is {q}x{m}: rank at most {q} < {m}, never full column rank"))

    if reasons:
        return IdentifiabilityVerdict("NotIdentifiable", tuple(reasons), False)
    return IdentifiabilityVerdict("Identifiable", (), bool(colluders))
