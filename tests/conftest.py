"""Shared fixtures and independent brute-force oracles for the test suite."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from colluder_lab import CategoricalLaw, MissingDataGraph, Vertex, VertexRole, ccm_graph


@pytest.fixture
def fig1b():
    return ccm_graph(2, 2)


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
    for v in graph.non_proxy_vertices():
        parents = sorted(
            (p for p in graph.parents(v.name)
             if graph.vertex(p).role is not VertexRole.PROXY),
            key=order.__getitem__)
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
    r_names = [v.name for v in graph.non_proxy_vertices()
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
def small_graphs(draw):
    """Up to two fully observed vertices and one to two partially observed
    pairs, 2-3 levels each, with random edges along declaration order."""
    observed = [Vertex(f"W{i}", VertexRole.FULLY_OBSERVED, draw(st.integers(2, 3)))
                for i in range(draw(st.integers(0, 2)))]
    n_pairs = draw(st.integers(1, 2))
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
    for v in graph.non_proxy_vertices():
        parents = CategoricalLaw.parent_order(graph, v.name)
        shape = tuple(graph.vertex(p).levels for p in parents) + (v.levels,)
        ticks = rng.integers(1, 20, size=shape)
        arr = np.empty(shape, dtype=object)
        for idx in np.ndindex(*shape):
            arr[idx] = Fraction(int(ticks[idx]), int(ticks[idx[:-1]].sum()))
        cpts[v.name] = arr
    return CategoricalLaw(graph, cpts)
