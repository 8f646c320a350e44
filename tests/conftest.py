"""Shared fixtures and independent brute-force oracles for the test suite."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from colluder_lab import (CategoricalLaw, ColluderSystem, ConditionalIndependenceError, LawError,
                          MissingDataGraph, PositivityError, SimConstraints, Vertex, VertexRole,
                          ccm_graph, enumerate_strata, solve_colluder)
from colluder_lab.identify import separation_condition
from colluder_lab.lawtable import EPS_POS

pytest_plugins = ["pytester"]


@pytest.fixture
def fig1b():
    return ccm_graph(2, 2)


def colluder_doc(**changes) -> dict:
    """The JSON graph document of X -> Y with the colluder {X, R_X} of R_Y, with
    ``changes`` replacing its top-level entries."""
    doc = {"vertices": [{"name": "X", "role": "X1", "levels": 2},
                        {"name": "Y", "role": "X1", "levels": 2},
                        {"name": "R_X", "role": "R"}, {"name": "R_Y", "role": "R"}],
           "edges": [{"from": "X", "to": "Y"}, {"from": "X", "to": "R_Y"},
                     {"from": "R_X", "to": "R_Y"}],
           "pairs": [{"true": "X", "indicator": "R_X"}, {"true": "Y", "indicator": "R_Y"}]}
    return {**doc, **changes}


_EDGES = colluder_doc()["edges"]

#: Graph documents that ``from_json`` must reject, each with a fragment of its message.
BAD_GRAPH_DOCS = [
    (colluder_doc(edges=[{"from": "X"}]), "edge {'from': 'X'} needs a string 'to'"),
    (colluder_doc(pairs=[{"true": "X"}]), "pair {'true': 'X'} needs a string 'indicator'"),
    (colluder_doc(vertices=5), "'vertices' must be a list, got 5"),
    (colluder_doc(edges=5), "'edges' must be a list, got 5"),
    (colluder_doc(pairs={"true": "X"}), "'pairs' must be a list"),
    (colluder_doc(vertices=["X"]), "vertex must be a JSON object, got 'X'"),
    (colluder_doc(vertices=[{"name": 3, "role": "O", "levels": 2}]),
     "needs a string 'name'"),
    (colluder_doc(edges=_EDGES + [{"from": "Y", "to": "X"}]),
     "[cycle] directed part of the graph contains a cycle"),
    (colluder_doc(edges=_EDGES + [{"from": "R_X", "to": "Y"}]),
     "[response-parents-variable] response indicator 'R_X' is a parent of 'Y'"),
    (colluder_doc(edges=_EDGES + [{"from": "Y", "to": "X_obs"}]),
     "edge ('Y', 'X_obs') references unknown vertex"),
    (colluder_doc(pairs=[{"true": "X", "indicator": "R_X"}]),
     "[pairing] true variable 'Y' has 0 paired response indicators"),
]


def appendix_a_params(rng=None, lo=0.05, hi=0.95, min_ch_gap=1e-3):
    """Draw one valid parameter tuple (a..h) with the dependency c != h."""
    rng = rng or np.random.default_rng(0)
    while True:
        a, b, c, d, e, f, g, h = rng.uniform(lo, hi, size=8)
        if abs(c - h) >= min_ch_gap:
            return a, b, c, d, e, f, g, h


# -- brute-force separation oracle ------------------------------------------------


def all_paths_blocked(graph: MissingDataGraph, a_set, b_set, z_set) -> bool:
    """Path-enumeration m-separation: exponential but independent of the
    reachability implementation.  Treats a bidirected edge as having an
    arrowhead at both endpoints."""
    z_set = set(z_set)
    an_z = graph.ancestors(z_set) if z_set else set()

    # edges as (u, v, head_at_u, head_at_v)
    edges = []
    for u, v in graph.directed_edges:
        edges.append((u, v, False, True))
    for u, v in graph.bidirected_edges:
        edges.append((u, v, True, True))

    incident = {}
    for i, (u, v, hu, hv) in enumerate(edges):
        incident.setdefault(u, []).append((i, v, hu, hv))
        incident.setdefault(v, []).append((i, u, hv, hu))

    def path_open(path):
        # path: list of (vertex, head_in, head_out); endpoints excluded
        for v, head_in, head_out in path:
            collider = head_in and head_out
            if collider and v not in an_z:
                return False
            if not collider and v in z_set:
                return False
        return True

    def explore(v, used_edges, interior, head_at_v):
        if v in b_set:
            return path_open(interior)
        for i, w, mark_v, mark_w in incident.get(v, []):
            if i in used_edges:
                continue
            if any(x == w for x, _, _ in interior):
                continue
            if w in a_set:
                continue
            new_interior = interior
            if head_at_v is not None:
                new_interior = interior + [(v, head_at_v, mark_v)]
            if explore(w, used_edges | {i}, new_interior, mark_w):
                return True
        return False

    for a in a_set:
        if explore(a, frozenset(), [], None):
            return False
    return True


def random_dag(rng, n_vertices, edge_prob=0.35, bidirected_prob=0.0):
    """A random graph of fully observed binary vertices, acyclic by construction."""
    names = [f"V{i}" for i in range(n_vertices)]
    vertices = [Vertex(n, VertexRole.FULLY_OBSERVED, 2) for n in names]
    directed = [(names[i], names[j]) for i in range(n_vertices)
                for j in range(i + 1, n_vertices) if rng.random() < edge_prob]
    bidirected = []
    if bidirected_prob:
        bidirected = [(names[i], names[j]) for i in range(n_vertices)
                      for j in range(i + 1, n_vertices) if rng.random() < bidirected_prob]
    return MissingDataGraph(vertices, directed, bidirected)


def random_disjoint_sets(rng, names):
    labels = rng.integers(0, 4, size=len(names))  # 3 = unused
    a = {n for n, l in zip(names, labels) if l == 0}
    b = {n for n, l in zip(names, labels) if l == 1}
    z = {n for n, l in zip(names, labels) if l == 2}
    return a, b, z


# -- brute-force probability oracles ------------------------------------------------


def brute_joint_probability(law, assignment) -> float:
    """Multiply CPT entries looked up independently of the library path."""
    graph = law.graph
    order = {v.name: i for i, v in enumerate(graph.vertices)}
    prob = 1.0
    for v in graph.vertices:
        parents = sorted(graph.parents(v.name), key=order.__getitem__)
        idx = tuple(assignment[p] for p in parents) + (assignment[v.name],)
        prob *= float(np.asarray(law.cpts[v.name], dtype=float)[idx])
    return prob


def mechanism_oracle(law, response: str):
    """p(R = r | all other non-proxy variables, other responses = 1) from the full law.

    Returns a function (assignment, r) -> probability, where the assignment
    covers every fully observed and true variable.
    """
    joint = law.joint_table()
    values = joint.values.astype(float)
    names = list(joint.names)
    graph = law.graph
    r_names = [v.name for v in graph.vertices
               if v.role is VertexRole.RESPONSE_INDICATOR]

    def prob(assignment, r):
        idx = []
        for n in names:
            if n == response:
                idx.append(r)
            elif n in r_names:
                idx.append(1)
            else:
                idx.append(assignment[n])
        num = values[tuple(idx)]
        idx[names.index(response)] = 1 - r
        return num / (num + values[tuple(idx)])

    return prob


def loop_observed_law(law) -> np.ndarray:
    """The observed law by visiting every full cell in row-major order and
    adding its mass into the observed cell it produces."""
    graph = law.graph
    joint = law.joint_table()
    names = list(joint.names)
    indicator = {p.true: p.indicator for p in graph.pairs}
    shape = [graph.vertex(n).levels + (n in indicator) for n in names]
    out = np.zeros(shape, dtype=joint.values.dtype)
    if out.dtype == object:
        out[...] = 0
    for idx in np.ndindex(*joint.values.shape):
        cell = dict(zip(names, idx))
        obs = tuple(cell[n] if n not in indicator or cell[indicator[n]] == 1
                    else graph.vertex(n).levels for n in names)
        out[obs] += joint.values[idx]
    return out


# -- random small graphs and exact laws ----------------------------------------------


@st.composite
def small_graphs(draw, min_pairs=1):
    """Up to two fully observed vertices and ``min_pairs`` to two partially
    observed pairs, 2-3 levels each, with random edges along declaration order."""
    observed = [Vertex(f"W{i}", VertexRole.FULLY_OBSERVED, draw(st.integers(2, 3)))
                for i in range(draw(st.integers(0, 2)))]
    n_pairs = draw(st.integers(min_pairs, 2))
    true = [Vertex(f"X{i}", VertexRole.TRUE_VARIABLE, draw(st.integers(2, 3)))
            for i in range(n_pairs)]
    indicators = [Vertex(f"R_X{i}", VertexRole.RESPONSE_INDICATOR, 2) for i in range(n_pairs)]
    vertices = observed + true + indicators
    names = [v.name for v in vertices]
    edges = [(u, w) for i, u in enumerate(names) for w in names[i + 1:] if draw(st.booleans())]
    return MissingDataGraph(vertices, edges,
                            pairs=[(t.name, r.name) for t, r in zip(true, indicators)])


def exact_random_law(graph, rng) -> CategoricalLaw:
    """A strictly positive law whose CPT rows are rationals with small denominators."""
    cpts = {}
    for v in graph.vertices:
        parents = graph.parents(v.name)
        shape = tuple(graph.vertex(p).levels for p in parents) + (v.levels,)
        ticks = rng.integers(1, 20, size=shape)
        arr = np.empty(shape, dtype=object)
        for idx in np.ndindex(*shape):
            arr[idx] = Fraction(int(ticks[idx]), int(ticks[idx[:-1]].sum()))
        cpts[v.name] = arr
    return CategoricalLaw(graph, cpts)


# -- per-parameter reporting reference -----------------------------------------------


def per_parameter_report(model, theta, counts):
    """Estimate, SE, CI, boundary and reliability flags of every parameter at
    ``theta``, one parameter at a time: each estimate read from its CPT row,
    and each delta-method gradient built by hand over the row's free levels."""
    from statistics import NormalDist

    cpts = model.theta_to_cpts(theta)
    eigval, eigvec = np.linalg.eigh(-model.hessian(theta, counts))
    lam_max = float(eigval.max(initial=0.0))
    null_mask = eigval <= 1e-8 * max(lam_max, 0.0)
    inv = np.where(null_mask, 0.0, 1.0 / np.where(null_mask, 1.0, eigval))
    cov = (eigvec * inv) @ eigvec.T
    z = NormalDist().inv_cdf(0.975)
    null_vecs = eigvec[:, null_mask]
    out = []
    for name, given, level, off, row_i in model.parameter_coords():
        L = cpts[name].shape[-1]
        p_row = cpts[name].reshape(-1, L)[row_i]
        est = float(p_row[level])
        boundary = est <= 1e-6 or est >= 1.0 - 1e-6
        se, ci = None, None
        dp = np.zeros(model.n_params)
        for k in range(1, L):
            dp[off + k - 1] = p_row[level] * ((k == level) - p_row[k])
        gnorm2 = float(dp @ dp)
        null_frac = 1.0 if gnorm2 == 0.0 else float(((null_vecs.T @ dp) ** 2).sum()) / gnorm2
        reliable = not boundary and null_frac <= 1e-6
        if reliable:
            se = float(np.sqrt(max(dp @ cov @ dp, 0.0)))
            ci = (max(0.0, est - z * se), min(1.0, est + z * se))
        out.append((name, given, level, est, se, ci, boundary, reliable))
    return out


# -- per-entry colluder systems and row-at-a-time law draws ---------------------------


def loop_event_prob(table, assignment):
    """An event's probability summed from the table's cell values: correctly
    rounded for floats (``math.fsum``), exact for ``Fraction`` cells."""
    sl = [slice(None)] * len(table.axes)
    for name, level in assignment.items():
        sl[table.axis(name)] = level
    cells = np.asarray(table.values[tuple(sl)]).reshape(-1)
    if cells.dtype == object:
        return sum(cells, start=Fraction(0))
    return math.fsum(cells)


def loop_colluder_system(obs, g, col, z, eps_pos=EPS_POS):
    """The colluder system of stratum ``z`` alone, a stack of one, with one event
    probability per entry."""
    x_name, rx, ry = col.true_variable, col.response_of_true, col.target_indicator
    y_name = g.true_of(ry)
    m, q = g.vertex(x_name).levels, g.vertex(y_name).levels
    p_z = float(loop_event_prob(obs, z))
    if p_z < eps_pos:
        raise PositivityError(f"positivity violated at stratum {z}", stratum=z)
    p_ry1 = float(loop_event_prob(obs, {**z, ry: 1})) / p_z
    a = np.zeros((1, q, m))
    for j in range(m):
        p_xj = float(loop_event_prob(obs, {**z, x_name: j, rx: 1, ry: 1}))
        if p_xj < eps_pos:
            raise PositivityError(
                f"positivity violated: event {{{x_name}={j}, {rx}=1, {ry}=1}} "
                f"has zero mass at stratum {z}", stratum=z)
        for i in range(q):
            joint = float(loop_event_prob(obs, {**z, x_name: j, rx: 1, ry: 1, y_name: i}))
            a[0, i, j] = joint / p_xj * p_ry1
    b = np.zeros((1, 2, q))
    for r in (0, 1):
        for k in range(q):
            b[0, r, k] = float(loop_event_prob(obs, {**z, y_name: k, ry: 1, rx: r})) / p_z
    return ColluderSystem(col, (z,), a, b)


def loop_colluder_mechanism(obs, g, col, eps_pos=EPS_POS):
    """p(R_X | variables, other indicators = 1) solved stratum by stratum and
    written one cell at a time, from :func:`loop_colluder_system`.  Every
    stratum's positivity is checked before any is solved, and every stratum
    is solved before any level of X is checked for mass."""
    if not separation_condition(g, col):
        raise ConditionalIndependenceError("not m-separated", colluder=col)
    x_name, y_name = col.true_variable, g.true_of(col.target_indicator)
    variables = [v for v in g.vertices
                 if v.role is not VertexRole.RESPONSE_INDICATOR]
    names = [v.name for v in variables] + [col.response_of_true]
    out = np.zeros([v.levels for v in variables] + [2])
    strata = list(enumerate_strata(g, col))
    systems = [loop_colluder_system(obs, g, col, z, eps_pos) for z in strata]
    solved = [solve_colluder(sys).values[0] for sys in systems]
    for z, (s0, s1) in zip(strata, solved):
        for j in range(g.vertex(x_name).levels):
            denom = s0[j] + s1[j]
            if denom < eps_pos:
                raise PositivityError(
                    f"positivity violated: {x_name}={j} has no mass at stratum {z}", stratum=z)
            idx = [slice(None)] * len(names)
            for name, level in z.items():
                if name in names:
                    idx[names.index(name)] = level
            idx[names.index(x_name)] = j
            for r, s in ((0, s0), (1, s1)):
                idx[-1] = r
                out[tuple(idx)] = s[j] / denom
    return names, out


def loop_random_law(graph, constraints=None, seed=None) -> CategoricalLaw:
    """The rejection sampler of ``random_law``'s law distribution, one draw at a
    time: Dirichlet rows failing ``min_prob`` are redrawn, blocks failing the
    dependency gap are redrawn whole, and response values are redrawn until
    every pair clears ``response_min_gap``, each up to ``max_tries`` times."""
    c = constraints or SimConstraints()
    rng = np.random.default_rng(seed)
    lo, hi = c.response_interval
    cpts = {}
    for v in graph.vertices:
        parents = graph.parents(v.name)
        shape = tuple(graph.vertex(p).levels for p in parents) + (v.levels,)
        n_rows = int(np.prod(shape[:-1]))
        if v.role is VertexRole.RESPONSE_INDICATOR:
            if not parents:
                p1 = c.exogenous_response_prob
                cpts[v.name] = np.array([1.0 - p1, p1])
                continue
            for _ in range(c.max_tries):
                vals = rng.uniform(lo, hi, size=n_rows)
                diffs = np.abs(vals[:, None] - vals[None, :])
                if n_rows == 1 or diffs[np.triu_indices(n_rows, 1)].min() >= c.response_min_gap:
                    break
            else:
                raise LawError(f"could not satisfy the response gap for {v.name!r}")
            cpts[v.name] = np.stack([1.0 - vals, vals], axis=1).reshape(shape)
            continue

        def draw_row():
            for _ in range(c.max_tries):
                row = rng.dirichlet(np.ones(v.levels))
                if row.min() >= c.min_prob:
                    return row
            raise LawError(f"could not satisfy min_prob {c.min_prob} for {v.name!r}")

        for _ in range(c.max_tries):
            rows = np.stack([draw_row() for _ in range(n_rows)])
            if n_rows == 1:
                break
            gaps = [0.5 * float(np.abs(rows[i] - rows[j]).sum())
                    for i in range(n_rows) for j in range(i + 1, n_rows)]
            if min(gaps) >= c.dependency_gap:
                break
        else:
            raise LawError(f"could not satisfy the dependency gap for {v.name!r}")
        cpts[v.name] = rows.reshape(shape)
    return CategoricalLaw(graph, cpts)
