"""Colluder equations, rank conditions, identifying functionals, and verdicts.

All operations are pure functions of immutable inputs.  The linear systems
are built from observed-data quantities only; full laws enter only through
their observed tables, and a reader of a table takes the graph the table
carries.  Colluder systems are solved in floats; the identified law of a
CCM-family table solves one arm exactly, in the table's integer counts, and
that of a batch of count tables solves it in float, from the same gather.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

import numpy as np

from .errors import (ConditionalIndependenceError, GraphQueryError, LawError,
                     PositivityError, RankDeficiencyError)
from .lawtable import (EPS_POS, Axis, CategoricalLaw, ObservedLawTable, ProbabilityTable,
                       Rationals, conditional, observable_axes)
from .mdgraph import (Colluder, MissingDataGraph, VertexRole, find_colluders,
                      find_self_censoring, m_separated)

#: Relative tolerance for the numerical rank of a colluder matrix.
RANK_TOL = 1e-10


# -- colluder systems ---------------------------------------------------------


@dataclass(frozen=True)
class ColluderSystem:
    """The float linear systems A s = b of one colluder at every stratum, both arms r.

    The leading axis follows ``strata``, :func:`enumerate_strata`'s order.
    ``a[z, i, j] = p(Y=y_i | R_X=1, X=x_j, R_Y=1, Z=z) * p(R_Y=1 | Z=z)``
    (S, q, m) and ``b[z, r, k] = p(Y=y_k, R_Y=1, R_X=r | Z=z)`` (S, 2, q),
    from the observed data distribution.  Both arms share ``a``: its first
    factor at R_X=0 equals that at R_X=1 under the conditional independence
    that makes the system readable from observed data.
    """

    colluder: Colluder
    strata: tuple[dict[str, int], ...]
    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class ColluderSolution:
    """``values[z, r]`` solves arm r at stratum z; ``residual`` is the largest of
    every system, and ``out_of_range`` lists (stratum, arm, level) triples."""

    values: np.ndarray
    residual: float
    out_of_range: tuple[tuple[int, int, int], ...] = ()


def separation_condition(g: MissingDataGraph, col: Colluder) -> bool:
    """The conditional independence required to read the system off observed data:
    R_X independent of Y given every other vertex."""
    y_true = g.true_of(col.target_indicator)
    cond = [v.name for v in g.vertices
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
    for v in g.vertices:
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


def _stratum_counts(obs: ObservedLawTable, col: Colluder):
    """The strata, the table's exact value and its integer numerators t[z, x, y, r_x, r_y]
    (S, m + 1, q + 1, 2, 2), with p(z) (S,) and p(x_j, R_X=1, R_Y=1, z) (S, m) rounded
    once to float.  Raises :class:`PositivityError` for the first stratum whose mass,
    or whose mass of some {X=x_j, R_X=1, R_Y=1}, is below ``EPS_POS``.  The caller
    checks the m-separation that makes the counts a colluder system."""
    g = obs.graph
    x_name, rx, ry = col.true_variable, col.response_of_true, col.target_indicator
    y_name = g.true_of(ry)
    m, q = g.vertex(x_name).levels, g.vertex(y_name).levels
    enumerable, indicators = stratum_variables(g, col)
    strata = tuple(enumerate_strata(g, col))
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
    p_x = exact.floats(t[:, :m, :, 1, 1].sum(axis=2))
    null = np.flatnonzero((p_z < EPS_POS) | (p_x < EPS_POS).any(axis=1))
    if null.size:
        z = strata[null[0]]
        if p_z[null[0]] < EPS_POS:
            raise PositivityError(f"positivity violated at stratum {z}", stratum=z)
        j = np.argmax(p_x[null[0]] < EPS_POS)
        raise PositivityError(
            f"positivity violated: event {{{x_name}={j}, {rx}=1, {ry}=1}} "
            f"has zero mass at stratum {z}", stratum=z)
    return strata, exact, t, p_z, p_x


def build_colluder_system(obs: ObservedLawTable, col: Colluder) -> ColluderSystem:
    """The colluder's float system at every stratum, read in one pass off the observed
    table: each mass is its exact total rounded once, so the entries equal per-event
    ``float(event_prob(...))`` arithmetic.  Raises :class:`ConditionalIndependenceError`
    when the required m-separation fails, then as :func:`_stratum_counts` does."""
    g = obs.graph
    if not separation_condition(g, col):
        raise ConditionalIndependenceError(
            f"conditional independence violated: {col.response_of_true} is not "
            f"m-separated from {g.true_of(col.target_indicator)} given the remaining "
            f"variables", colluder=col)
    strata, exact, t, p_z, p_x = _stratum_counts(obs, col)
    m, q = p_x.shape[1], t.shape[2] - 1
    p_ry1 = exact.floats(t[..., 1].sum(axis=(1, 2, 3))) / p_z
    joint = exact.floats(t[:, :m, :q, 1, 1])
    a = np.swapaxes(joint / p_x[:, :, None] * p_ry1[:, None, None], 1, 2)
    b = exact.floats(np.moveaxis(t[:, :, :q, :, 1].sum(axis=1), 2, 1)) / p_z[:, None, None]
    return ColluderSystem(col, strata, np.ascontiguousarray(a), b)


def rank_test(sys: ColluderSystem) -> tuple[np.ndarray, np.ndarray]:
    """Each stratum's numerical rank (S,), the count of its singular values above
    ``RANK_TOL`` * the largest, and the singular values (S, min(q, m))."""
    sv = np.linalg.svd(sys.a, compute_uv=False)
    return np.sum(sv > RANK_TOL * sv[:, :1], axis=1), sv


def _require_full_rank(sys: ColluderSystem) -> None:
    """Raise :class:`RankDeficiencyError` at the first stratum below full numerical rank."""
    m = sys.a.shape[2]
    rank, sv = rank_test(sys)
    deficient = np.flatnonzero(rank < m)
    if deficient.size:
        s = deficient[0]
        raise RankDeficiencyError(
            f"not identifiable at this stratum: rank {rank[s]} < {m}",
            colluder=sys.colluder, stratum=sys.strata[s], rank=int(rank[s]),
            required=m, singular_values=sv[s])


def solve_colluder(sys: ColluderSystem) -> ColluderSolution:
    """Solve every float A s = b by the Moore-Penrose inverse; requires full column rank.

    For square systems this is the plain inverse, and for consistent
    overdetermined systems it is exact.  The first rank-deficient stratum
    raises :class:`RankDeficiencyError`, then the first system with a
    residual above 1e-8 raises :class:`LawError`.  Raw values (S, 2, m) are
    returned unclipped; entries outside [0, 1] by more than 1e-8 are flagged.
    """
    _require_full_rank(sys)
    values = np.stack([np.linalg.lstsq(a, b.T, rcond=None)[0].T for a, b in zip(sys.a, sys.b)])
    residual = np.abs(values @ np.swapaxes(sys.a, 1, 2) - sys.b).max(axis=2)
    inconsistent = residual[residual > 1e-8]
    if inconsistent.size:
        raise LawError(f"colluder system inconsistent: residual {inconsistent[0]:.3e} exceeds 1e-8")
    flagged = np.argwhere((values < -1e-8) | (values > 1 + 1e-8)).tolist()
    return ColluderSolution(values, float(residual.max()), tuple(map(tuple, flagged)))


def _solve_integers(a: np.ndarray, b: np.ndarray, col: Colluder, stratum: dict):
    """The exact least-squares solution s = num / den of the integer system a s = b,
    a (q, m), by fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968) of a where square and of its normal equations otherwise.  Every division
    is exact, and the elimination ends at den times the identity.  A rank below m
    raises :class:`RankDeficiencyError`."""
    q, m = a.shape
    if q != m:
        a, b = a.T @ a, a.T @ b
    rows = [[*row, v] for row, v in zip(a.tolist(), b.tolist())]
    rank, den = 0, 1
    for j in range(m):
        pivot = next((i for i in range(rank, m) if rows[i][j]), None)
        if pivot is not None:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            top = rows[rank]
            rows = [row if i == rank else [(top[j] * v - row[j] * w) // den
                                           for v, w in zip(row, top)]
                    for i, row in enumerate(rows)]
            den, rank = top[j], rank + 1
    if rank < m:
        raise RankDeficiencyError(f"not identifiable at this stratum: rank {rank} < {m}",
                                  colluder=col, stratum=stratum, rank=rank, required=m)
    return np.array([row[m] for row in rows], dtype=object), den


def colluder_mechanism(obs: ObservedLawTable, col: Colluder) -> ProbabilityTable:
    """The identified conditional law of R_X given all variables, other indicators at 1.

    Solves both arms of the colluder equations at every stratum and returns
    the table ``p(R_X | O, X1, (R minus R_X) = 1)``: axes are all fully
    observed and true variables in declaration order plus a final binary
    axis for R_X.  The value is ``s_rj / (s_0j + s_1j)`` and is constant in
    the true variable paired with the target indicator.  The checks run in
    this order, each naming the first stratum that fails it: positivity of
    every stratum, rank, residual, a level of X with no mass, and, for an
    exact table, an arm value outside [0, 1], which no law of the graph gives.
    """
    g = obs.graph
    sys = build_colluder_system(obs, col)
    solution = solve_colluder(sys)
    sol = solution.values
    x_name, rx, y_name = col.true_variable, col.response_of_true, g.true_of(col.target_indicator)
    mass = sol[:, 0] + sol[:, 1]
    null = np.argwhere(mass < EPS_POS)
    if len(null):
        s, j = null[0]
        raise PositivityError(
            f"positivity violated: {x_name}={j} has no mass at stratum {sys.strata[s]}",
            stratum=sys.strata[s])
    if solution.out_of_range and not obs._rounded:
        s, r, j = solution.out_of_range[0]
        raise LawError(f"no law of the graph produces this table: arm {rx}={r} of colluder "
                       f"{col} solves to {sol[s, r, j]:.6g} at {x_name}={j}, stratum "
                       f"{sys.strata[s]}, outside [0, 1]")

    variables = [v for v in g.vertices
                 if v.role is not VertexRole.RESPONSE_INDICATOR]
    axes = [Axis(v.name, v.levels, "observed" if v.role is VertexRole.FULLY_OBSERVED else "true")
            for v in variables]
    axes.append(Axis(rx, 2, "indicator"))

    # (strata, R_X, X) -> (*stratum variables, X, R_X, Y), then declaration order
    mech = sol / mass[:, None]
    enumerable, _ = stratum_variables(g, col)
    labels = [*enumerable, x_name, rx, y_name]
    mech = np.swapaxes(mech, 1, 2).reshape(
        [g.vertex(n).levels for n in labels[:-1]] + [1])
    mech = np.transpose(mech, [labels.index(a.name) for a in axes])
    return ProbabilityTable(axes, np.broadcast_to(mech, [a.size for a in axes]))


# -- the identified full law ------------------------------------------------------


def _ccm_colluder(g: MissingDataGraph) -> Colluder:
    """The colluder {X, R_X} of R_Y in a CCM-family graph.

    The family holds X and Y with their indicators and nothing else: X and
    R_X are roots, Y is a root or a child of X, and R_Y is a child of X and
    R_X only, with no bidirected edge; R_X is then m-separated from Y given X
    and R_Y.  Any other graph raises :class:`GraphQueryError` naming its
    bidirected edges or the first vertex, indicators first, whose CPT no rule
    reads.
    """
    if g.bidirected_edges:
        edges = ", ".join(f"{u}<->{w}" for u, w in g.bidirected_edges)
        raise GraphQueryError(f"identified_cpts covers the CCM family only: the graph has "
                              f"bidirected edges {edges}")
    colluders = find_colluders(g)
    if not colluders:
        raise GraphQueryError("identified_cpts covers the CCM family only: the graph has "
                              "no colluder")
    col = colluders[0]
    x, rx, ry = col.true_variable, col.response_of_true, col.target_indicator
    rules = {rx: set(), ry: {x, rx}, x: set(), g.true_of(ry): {x}}
    for v in sorted(g.vertices,
                    key=lambda v: v.role is not VertexRole.RESPONSE_INDICATOR):
        parents = set(g.parents(v.name))
        if v.name not in rules or not parents <= rules[v.name]:
            raise GraphQueryError(
                f"identified_cpts covers the CCM family only: no rule reads the CPT of "
                f"{v.name} given {sorted(parents)} off the observed law")
    return col


def _ccm_gather(t: np.ndarray):
    """The counts the identified law of a CCM-family table reads, off counts ``t``
    (C, X, Y, R_X, R_Y) with the NA levels last: n(R_X) (C, 2), n(X, R_X = 1, R_Y)
    (C, m, 2), n(X, Y, R = 1) (C, m, q), and b (C, q) with b_k = n(y_k, R_X = 0,
    R_Y = 1), the right side of arm 0's system J u = b, J being n(X, Y, R = 1)
    transposed."""
    return (t.sum(axis=(1, 2, 4)), t[:, :-1, :, 1, :].sum(axis=2), t[:, :-1, :-1, 1, 1],
            t[:, :, :-1, 0, 1].sum(axis=1))


def _ccm_cpts(g: MissingDataGraph, col: Colluder, counts, num, den, ratio) -> dict:
    """Every CPT of a CCM-family graph, with a leading axis over count tables, from
    :func:`_ccm_gather`'s ``counts`` and arm 0's solution u = ``num`` / ``den``
    (C, m).  Each entry is ``ratio`` of two count arrays: ``Fraction`` for integer
    counts, float division for float ones."""
    x, rx, ry = col.true_variable, col.response_of_true, col.target_indicator
    y = g.true_of(ry)
    n_rx, n_x_ry, n_xy, _ = counts
    top, bottom = num * n_rx[:, 1:] * n_x_ry[..., 1], den * n_rx[:, :1] * n_x_ry.sum(axis=2)
    ry_cpt = np.stack([ratio(np.stack([bottom - top, top], axis=-1), bottom[..., None]),
                       ratio(n_x_ry, n_x_ry.sum(axis=2, keepdims=True))], axis=2)
    cpts = {
        x: ratio(n_x_ry.sum(axis=2), n_rx[:, 1:]),
        y: ratio(n_xy, n_xy.sum(axis=2, keepdims=True)) if g.parents(y)
        else ratio(n_xy.sum(axis=1), n_xy.sum(axis=(1, 2))[:, None]),
        rx: ratio(n_rx, n_rx.sum(axis=1, keepdims=True)),
        # (C, X, R_X, R_Y) -> R_Y's parents in declaration order
        ry: np.transpose(ry_cpt, [0, *(1 + (x, rx).index(p) for p in g.parents(ry)), 3]),
    }
    return {v.name: cpts[v.name] for v in g.vertices}


def identified_cpts(obs: ObservedLawTable) -> dict[str, np.ndarray]:
    """Every CPT of a CCM-family graph read off its observed law, unclipped.

    With X, Y, R_X and R_Y as in :func:`~colluder_lab.fixtures.ccm_graph`:

    - p(R_X) and p(R_Y | X, R_X = 1) are observed conditionals;
    - p(X) and p(Y | X) are conditionals of p(X, Y, R = 1) divided by the
      indicators' CPTs at R = 1.  Those do not involve Y, and p(R_X) no
      variable, so the division leaves p(X | R_X = 1) and p(Y | X, R = 1);
    - p(R_Y = 1 | X, R_X = 0) comes from the colluder system.  Its arm r
      solves s_rj = p(x_j) p(R_X = r) p(R_Y = 1 | x_j, r) / p(R_Y = 1), so
      the value is s_0j / s_1j * p(R_X = 1) p(R_Y = 1 | x_j, R_X = 1) / p(R_X = 0).
      In the counts n(.) of the table's numerators, arm 0 is J u = b with
      J_kj = n(x_j, y_k, R = 1) and b_k = n(y_k, R_X = 0, R_Y = 1), A's columns
      rescaled by n(x_j, R = 1) n / n(R_Y = 1), which moves no least-squares
      minimizer; arm 1 has right side J 1, so at full column rank it solves to
      ones and u_j = s_0j / s_1j.  J u = b is solved exactly in integers.

    An exact table gives ``Fraction`` CPTs, equal to the law's own at full
    column rank.  A float table is read at its exact value, each entry then
    rounded once, if its float colluder system passes :func:`rank_test`.  A
    sampled system with m < q takes its least-squares solution, and entries
    may lie outside [0, 1].  Raises :class:`GraphQueryError` for a graph
    outside the family, :class:`PositivityError` for an empty conditioning
    event and :class:`RankDeficiencyError` for a rank-deficient colluder matrix.
    :func:`count_cpts` reads many count tables at once, in float.
    """
    g = obs.graph
    col = _ccm_colluder(g)
    if obs._rounded:
        _require_full_rank(build_colluder_system(obs, col))
    strata, table, t, _, _ = _stratum_counts(obs, col)  # t over (X, Y, R_X, R_Y)
    counts = _ccm_gather(t)
    n_rx, _, n_xy, b = (c[0] for c in counts)
    num, den = _solve_integers(n_xy.T, b, col, strata[0])
    if table.floats(n_rx[0]) < EPS_POS:
        raise PositivityError(f"positivity violated: event {{{col.response_of_true}=0}} "
                              f"has zero mass")
    cpts = _ccm_cpts(g, col, counts, num[None], den, np.frompyfunc(Fraction, 2, 1))
    return {name: c[0].astype(float) if obs._rounded else c[0] for name, c in cpts.items()}


#: :func:`count_cpts` solves a table's arm-0 matrix in float where its |det| is above
#: this fraction of Hadamard's bound (the product of its row norms).  Its rows scaled
#: to unit norm then have a condition number below m^(m/2) / 1e-3, so the solution
#: keeps at least 11 correct digits.
_FLOAT_READ_DET = 1e-3
#: A float-read entry of p(R_Y | X, R_X = 0) this close to 0 may be 0 exactly, whose
#: sign rounding does not decide.
_FLOAT_READ_EDGE = 1e-9


def count_cpts(g: MissingDataGraph, counts: np.ndarray):
    """:func:`identified_cpts` of each observed-cell count table in ``counts``
    (C, n_obs) of a CCM-family graph, read in float in one pass: the indices of the
    tables that could be read, and their CPTs with a leading axis in that order.

    The tables are gathered once.  A table is not read where an event the exact
    read divides by is empty, or where its arm-0 matrix (J, or J^T J for m < q,
    the normal equations) is singular.  The matrices whose determinant is clear of
    zero (``_FLOAT_READ_DET``) are solved in one stacked ``np.linalg.solve``.  The
    others, and the tables whose solved entries come within ``_FLOAT_READ_EDGE`` of
    0 or 1, are read exactly by :func:`identified_cpts`, which decides singularity
    and the boundary exactly.  Every other entry is a ratio of integer counts, exact
    in float below 2^53, so it equals the exact read's rounded entry.  Raises
    :class:`GraphQueryError` for a graph outside the family.
    """
    col = _ccm_colluder(g)
    rx, ry = col.response_of_true, col.target_indicator
    axes = observable_axes(g)
    names, shape = [a.name for a in axes], [a.size for a in axes]
    order = [names.index(n) for n in (col.true_variable, g.true_of(ry), rx, ry)]
    counts = np.asarray(counts, dtype=float)
    t = counts.reshape([len(counts), *shape]).transpose([0, *(1 + i for i in order)])
    gathered = _ccm_gather(t)
    n_rx, _, n_xy, b = gathered
    j = np.swapaxes(n_xy, 1, 2)
    lhs, rhs = (j, b) if j.shape[1] == j.shape[2] else (n_xy @ j, (n_xy @ b[..., None])[..., 0])
    filled = np.flatnonzero((n_xy.sum(axis=2) > 0).all(axis=1) & (n_rx[:, 0] > 0))
    clear = (np.abs(np.linalg.det(lhs[filled]))
             > _FLOAT_READ_DET * np.prod(np.linalg.norm(lhs[filled], axis=2), axis=1))
    read = filled[clear]
    u = np.linalg.solve(lhs[read], rhs[read][..., None])[..., 0]
    cpts = _ccm_cpts(g, col, [c[read] for c in gathered], u, 1.0, np.divide)
    arm = np.take(cpts[ry], 0, axis=1 + g.parents(ry).index(rx))  # (C, X, R_Y) at R_X = 0
    edge = (np.abs(arm) <= _FLOAT_READ_EDGE).any(axis=(1, 2))
    exact = []
    for i in (*filled[~clear], *read[edge]):
        table = Rationals(counts[i].astype(np.int64).astype(object).reshape(shape),
                          int(counts[i].sum()))
        try:
            exact.append((i, identified_cpts(ObservedLawTable(g, table))))
        except (PositivityError, RankDeficiencyError):
            continue
    return np.array([*read[~edge], *(i for i, _ in exact)], dtype=np.intp), {
        name: np.concatenate([c[~edge], [e[name].astype(float) for _, e in exact]])
        if exact else c[~edge] for name, c in cpts.items()}


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


def quantities_from_observed(obs: ObservedLawTable, col: Colluder) -> BinaryColluderQuantities:
    """Read the closed-form quantities off an observed law of a binary two-variable model."""
    g = obs.graph
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
    cond_names = [v.name for v in g.vertices
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
    cannot reach full column rank: it has fewer rows than columns, or X is
    m-separated from Y given the strata, R_X and R_Y, so that its m >= 2
    columns are one law of Y.
    Otherwise the graph is identifiable *subject to rank*: the remaining
    full-rank requirement depends on the distribution and must be tested
    against a law or dataset stratum by stratum.
    """
    reasons: list[Finding] = []
    for t, rr in find_self_censoring(g):
        reasons.append(Finding("self-censoring", None, f"self-censoring edge {t} -> {rr}"))

    colluders = find_colluders(g)
    for col in colluders:
        y_true = g.true_of(col.target_indicator)
        m, q = g.vertex(col.true_variable).levels, g.vertex(y_true).levels
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
        enumerable, indicators = stratum_variables(g, col)
        if m >= 2 and m_separated(g, {col.true_variable}, {y_true},
                                  [*enumerable, *indicators, col.response_of_true,
                                   col.target_indicator]):
            reasons.append(Finding(
                "structural-rank", str(col),
                f"{col.true_variable} is m-separated from {y_true} given the strata, "
                f"{col.response_of_true} and {col.target_indicator}: every column of the "
                f"colluder matrix is the same law of {y_true}, so its rank is at most 1 < {m}"))

    if reasons:
        return IdentifiabilityVerdict("NotIdentifiable", tuple(reasons), False)
    return IdentifiabilityVerdict("Identifiable", (), bool(colluders))
