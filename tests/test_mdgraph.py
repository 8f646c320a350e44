import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colluder_lab import (Colluder, GraphFormatError, GraphQueryError,
                          MissingDataGraph, Vertex, VertexRole, ccm_graph,
                          cross_censoring_graph, example_graph,
                          find_colluders, find_self_censoring, m_separated,
                          observed_law)
from conftest import (BAD_GRAPH_DOCS, all_paths_blocked, colluder_doc, exact_random_law,
                      random_dag, random_disjoint_sets, relabel)

O = VertexRole.FULLY_OBSERVED
X1 = VertexRole.TRUE_VARIABLE
R = VertexRole.RESPONSE_INDICATOR


class TestValidation:
    def test_colluder_graph_is_valid(self, fig1b):
        # Rebuilding the graph from its declared parts regenerates its proxies.
        h = relabel(fig1b, {})
        assert h.to_json() == fig1b.to_json()
        assert [v.name for v in h.vertices] == [v.name for v in fig1b.vertices]
        assert h.directed_edges == fig1b.directed_edges

    def test_all_example_graphs_are_valid(self):
        for key, g in {k: example_graph(k) for k in "abcdef"}.items():
            assert MissingDataGraph.from_json(g.to_json()).to_json() == g.to_json(), key
        ccm_graph(2, 2, dependency=False)

    def test_response_indicator_parenting_true_variable(self):
        with pytest.raises(GraphFormatError, match=r"\[response-parents-variable\] "
                           r"response indicator 'R_X' is a parent of 'X'"):
            MissingDataGraph([Vertex("X", X1, 2), Vertex("R_X", R, 2)],
                             [("R_X", "X")], pairs=[("X", "R_X")])

    def test_cycle_detected(self):
        with pytest.raises(GraphFormatError, match=r"\[cycle\]"):
            MissingDataGraph([Vertex("A", O, 2), Vertex("B", O, 2)], [("A", "B"), ("B", "A")])

    def test_cross_dependence_with_a_colluder_rejected(self):
        # X <-> Y as two directed edges, with the colluder {X, R_X} of R_Y.
        with pytest.raises(GraphFormatError, match=r"\[cycle\]"):
            MissingDataGraph(
                [Vertex("X", X1, 2), Vertex("Y", X1, 2), Vertex("R_X", R, 2), Vertex("R_Y", R, 2)],
                [("X", "Y"), ("Y", "X"), ("X", "R_Y"), ("R_X", "R_Y")],
                pairs=[("X", "R_X"), ("Y", "R_Y")])

    @pytest.mark.parametrize("edge", [("X", "X_obs"), ("X_obs", "Y")])
    def test_edge_touching_proxy_rejected(self, edge):
        # The graph holds no proxy vertex, so a proxy's name is an unknown vertex.
        with pytest.raises(GraphFormatError, match="references unknown vertex"):
            MissingDataGraph([Vertex("X", X1, 2), Vertex("Y", O, 2), Vertex("R_X", R, 2)],
                             [edge], pairs=[("X", "R_X")])

    def test_missing_pair_reported(self):
        with pytest.raises(GraphFormatError, match=r"\[pairing\] true variable 'X' has 0"):
            MissingDataGraph([Vertex("X", X1, 2), Vertex("R_X", R, 2)])

    def test_two_violations_named_in_one_error(self):
        with pytest.raises(GraphFormatError) as err:
            MissingDataGraph(
                [Vertex("A", O, 2), Vertex("B", O, 2), Vertex("X", X1, 2), Vertex("R_X", R, 3)],
                [("A", "B"), ("B", "A"), ("R_X", "X")], pairs=[("X", "R_X")])
        lines = str(err.value).splitlines()
        assert lines[0] == "graph is not a valid missing-data graph:"
        assert lines[1:] == [
            "[cycle] directed part of the graph contains a cycle",
            "[role-levels] response indicator 'R_X' is not binary",
            "[response-parents-variable] response indicator 'R_X' is a parent of 'X'"]


@st.composite
def drawn_structures(draw):
    """Roles, levels, pairs and directed edges drawn without regard to the rules:
    unpaired and doubly paired vertices, non-binary indicators, back edges and
    indicator -> variable edges all occur."""
    names = [f"V{i}" for i in range(draw(st.integers(2, 5)))]
    roles = {n: draw(st.sampled_from([O, X1, R, R])) for n in names}
    levels = {n: draw(st.sampled_from([2, 2, 2, 2, 3])) for n in names}
    pairs = list(zip([n for n in names if roles[n] is X1], [n for n in names if roles[n] is R]))
    if draw(st.integers(0, 3)) == 0:
        pairs.append((draw(st.sampled_from(names)), draw(st.sampled_from(names))))
    edges = draw(st.lists(st.sampled_from([(u, w) for u in names for w in names if u != w]),
                          max_size=5, unique=True))
    return roles, levels, pairs, edges


def is_legal(roles, levels, pairs, edges) -> bool:
    """The missing-data graph rules, checked by brute force."""
    acyclic = any(all(order.index(u) < order.index(w) for u, w in edges)
                  for order in itertools.permutations(roles))
    paired = (all(roles[t] is X1 and roles[r] is R for t, r in pairs)
              and all(sum(t == n for t, _ in pairs) == 1 for n in roles if roles[n] is X1)
              and all(sum(r == n for _, r in pairs) <= 1 for n in roles if roles[n] is R))
    binary = all(levels[n] == 2 for n in roles if roles[n] is R)
    return (acyclic and paired and binary
            and not any(roles[u] is R and roles[w] is not R for u, w in edges))


class TestConstructorContract:
    @settings(max_examples=200, deadline=None)
    @given(parts=drawn_structures(), seed=st.integers(0, 2**32 - 1))
    def test_constructs_exactly_when_legal(self, parts, seed):
        roles, levels, pairs, edges = parts
        vertices = [Vertex(n, roles[n], levels[n]) for n in roles]
        if not is_legal(roles, levels, pairs, edges):
            with pytest.raises(GraphFormatError, match="not a valid missing-data graph"):
                MissingDataGraph(vertices, edges, pairs=pairs)
            return
        g = MissingDataGraph(vertices, edges, pairs=pairs)
        law = exact_random_law(g, np.random.default_rng(seed))
        assert law.joint_table().total() == 1
        assert observed_law(law).consistent()


class TestConstruction:
    def test_graph_holds_only_its_declared_vertices_and_edges(self, fig1b):
        assert [v.name for v in fig1b.vertices] == ["X", "Y", "R_X", "R_Y"]
        assert fig1b.non_proxy_vertices() == fig1b.vertices
        assert set(fig1b.directed_edges) == {("X", "Y"), ("X", "R_Y"), ("R_X", "R_Y")}
        with pytest.raises(GraphQueryError, match="unknown vertex 'X_obs'"):
            fig1b.vertex("X_obs")

    def test_duplicate_names_rejected(self):
        with pytest.raises(GraphFormatError):
            MissingDataGraph([Vertex("A", O, 2), Vertex("A", O, 2)])

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(GraphFormatError):
            MissingDataGraph([Vertex("A", O, 2)], [("A", "B")])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            MissingDataGraph([Vertex("A", O, 2)], [("A", "A")])


class TestJson:
    def test_round_trip(self, fig1b):
        doc = fig1b.to_json()
        g2 = MissingDataGraph.from_json(doc)
        assert g2.to_json() == doc
        assert [v.name for v in g2.vertices] == [v.name for v in fig1b.vertices]

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(GraphFormatError, match="unknown graph keys"):
            MissingDataGraph.from_json({"vertices": [], "extra": 1})

    def test_unknown_vertex_key_rejected(self):
        with pytest.raises(GraphFormatError, match="unknown vertex keys"):
            MissingDataGraph.from_json(
                {"vertices": [{"name": "A", "role": "O", "levels": 2, "color": "red"}]})

    def test_unknown_role_rejected(self):
        with pytest.raises(GraphFormatError, match="unknown role"):
            MissingDataGraph.from_json({"vertices": [{"name": "A", "role": "X", "levels": 2}]})

    def test_bad_levels_rejected(self):
        with pytest.raises(GraphFormatError, match="levels"):
            MissingDataGraph.from_json({"vertices": [{"name": "A", "role": "O", "levels": 1}]})

    def test_continuous_levels(self):
        g = MissingDataGraph.from_json(
            {"vertices": [{"name": "A", "role": "O", "levels": "continuous"}]})
        assert g.vertex("A").levels is None

    def test_colluder_document_parses(self):
        g = MissingDataGraph.from_json(colluder_doc())
        assert find_colluders(g) == [Colluder("X", "R_X", "R_Y")]

    @pytest.mark.parametrize("doc, match", BAD_GRAPH_DOCS)
    def test_malformed_or_invalid_document_rejected(self, doc, match):
        with pytest.raises(GraphFormatError, match=re.escape(match)):
            MissingDataGraph.from_json(doc)

    def test_invalid_json_text(self):
        with pytest.raises(GraphFormatError, match="invalid JSON"):
            MissingDataGraph.from_json("{not json")


class TestMSeparation:
    def test_colluder_graph_condition_holds(self, fig1b):
        assert m_separated(fig1b, {"R_X"}, {"Y"}, {"X", "R_Y"})

    def test_confounded_example_condition_fails(self):
        g = example_graph("c")
        assert not m_separated(g, {"R_X"}, {"Y"}, {"X", "R_Y"})

    def test_disconnected_vertices_separated(self):
        g = MissingDataGraph([Vertex("A", O, 2), Vertex("B", O, 2)])
        assert m_separated(g, {"A"}, {"B"}, set())

    def test_unknown_vertex_raises(self, fig1b):
        with pytest.raises(GraphQueryError, match="unknown vertex"):
            m_separated(fig1b, {"nope"}, {"Y"}, set())

    def test_overlapping_sets_rejected(self, fig1b):
        with pytest.raises(GraphQueryError, match="disjoint"):
            m_separated(fig1b, {"X"}, {"X"}, set())

    def test_symmetry_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            g = random_dag(rng, 6, bidirected_prob=0.2)
            names = [v.name for v in g.vertices]
            a, b, z = random_disjoint_sets(rng, names)
            if not a or not b:
                continue
            assert m_separated(g, a, b, z) == m_separated(g, b, a, z)

    def test_agrees_with_path_enumeration_on_dags(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 300:
            g = random_dag(rng, int(rng.integers(3, 8)))
            a, b, z = random_disjoint_sets(rng, [v.name for v in g.vertices])
            if not a or not b:
                continue
            assert m_separated(g, a, b, z) == all_paths_blocked(g, a, b, z)
            checked += 1

    def test_agrees_with_path_enumeration_on_mixed_graphs(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 300:
            g = random_dag(rng, int(rng.integers(3, 7)), bidirected_prob=0.25)
            a, b, z = random_disjoint_sets(rng, [v.name for v in g.vertices])
            if not a or not b:
                continue
            assert m_separated(g, a, b, z) == all_paths_blocked(g, a, b, z)
            checked += 1


class TestColluders:
    def test_single_colluder(self):
        g = ccm_graph(2, 2, dependency=False)
        assert find_colluders(g) == [Colluder("X", "R_X", "R_Y")]

    def test_sequential_colluders(self):
        g = example_graph("d")
        assert find_colluders(g) == [
            Colluder("X", "R_X", "R_Y"), Colluder("Y", "R_Y", "R_Z")]

    def test_mcar_graph_has_none(self):
        g = MissingDataGraph(
            [Vertex("X", X1, 2), Vertex("R_X", R, 2)], pairs=[("X", "R_X")])
        assert find_colluders(g) == []

    def test_two_colluders_of_same_target(self):
        g = example_graph("e")
        assert find_colluders(g) == [
            Colluder("X", "R_X", "R_Y"), Colluder("Z", "R_Z", "R_Y")]

    def test_shared_pair_colludes_twice(self):
        g = example_graph("f")
        assert find_colluders(g) == [
            Colluder("X", "R_X", "R_Y"), Colluder("X", "R_X", "R_Z")]


class TestSelfCensoring:
    def test_example_graphs_have_none(self):
        for key, g in {k: example_graph(k) for k in "abcdef"}.items():
            assert find_self_censoring(g) == [], key

    def test_direct_self_censoring_found(self):
        g = MissingDataGraph(
            [Vertex("Y", X1, 2), Vertex("R_Y", R, 2)],
            [("Y", "R_Y")], pairs=[("Y", "R_Y")])
        assert find_self_censoring(g) == [("Y", "R_Y")]

    def test_cross_censoring_is_not_self_censoring(self):
        g = cross_censoring_graph(2, 2)
        assert find_self_censoring(g) == []


class TestRelabelEquivariance:
    def test_colluders_and_self_censoring_follow_relabeling(self):
        g = example_graph("d")
        mapping = {"X": "P", "Y": "Q", "Z": "S", "R_X": "R_P", "R_Y": "R_Q", "R_Z": "R_S"}
        h = relabel(g, mapping)
        want = {Colluder(mapping[c.true_variable], mapping[c.response_of_true],
                         mapping[c.target_indicator]) for c in find_colluders(g)}
        assert set(find_colluders(h)) == want
        assert find_self_censoring(h) == [
            (mapping[a], mapping[b]) for a, b in find_self_censoring(g)]

    def test_self_censoring_relabel(self):
        g = MissingDataGraph(
            [Vertex("Y", X1, 2), Vertex("R_Y", R, 2)],
            [("Y", "R_Y")], pairs=[("Y", "R_Y")])
        h = relabel(g, {"Y": "W", "R_Y": "R_W"})
        assert find_self_censoring(h) == [("W", "R_W")]
