from fractions import Fraction

import numpy as np
import pytest

from colluder_lab import (APPENDIX_C_OBSERVED, LawError, MissingDataGraph, Vertex,
                          VertexRole, appendix_a_law, appendix_b_pair, appendix_c_pair,
                          binary_closed_form, ccm_graph, colluder_mechanism,
                          cross_censoring_graph, example_graph, find_colluders,
                          joint_probability, m_separated, observed_law, parameter_count,
                          quantities_from_observed)
from colluder_lab.errors import (ConditionalIndependenceError,
                                 RankDeficiencyError)

F = Fraction

B_ARGS = dict(a=F(3, 10), e=F(2, 5), g=F(1, 5), h=F(3, 10),
              i=F(2, 5), j=F(1, 2), k=F(3, 5), l=F(7, 10), n=F(4, 10))


def rational_params(rng, n):
    return [F(int(rng.integers(1, 19)), 20) for _ in range(n)]


class TestIdentifiableBinaryLaw:
    def test_fully_observed_corner_cell(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b, c, d, e, f, h = rational_params(rng, 7)
            g_ = rational_params(rng, 1)[0]
            if c == h:
                h = c + F(1, 40)
            law = appendix_a_law(a, b, c, d, e, f, g_, h)
            p = joint_probability(law, {"X": 1, "Y": 1, "R_X": 1, "R_Y": 1})
            assert p == (1 - a) * (1 - b) * (1 - h) * (1 - g_)

    def test_half_parameterization_normalizes_exactly(self):
        half = F(1, 2)
        law = appendix_a_law(half, half, half, half, half, half, half, F(1, 4))
        assert law.joint_table().total() == 1

    def test_closed_form_returns_unobserved_response_probs(self):
        a, b, c, d, e, f, g_, h = (F(3, 10), F(2, 5), F(3, 5), F(1, 4),
                                   F(1, 2), F(7, 20), F(9, 20), F(1, 5))
        law = appendix_a_law(a, b, c, d, e, f, g_, h)
        obs = observed_law(law)
        qty = quantities_from_observed(obs, find_colluders(law.graph)[0])
        p0, p1 = binary_closed_form(qty)
        assert p0 == pytest.approx(float(1 - d), abs=1e-12)
        assert p1 == pytest.approx(float(1 - f), abs=1e-12)

    def test_observed_table_matches_symbolic_expressions(self):
        # all sixteen observable cells written out independently
        rng = np.random.default_rng(1)
        for _ in range(10):
            a, b, c, d, e, f, h = rational_params(rng, 7)
            g_ = rational_params(rng, 1)[0]
            if c == h:
                h = c + F(1, 40) if c < F(9, 10) else c - F(1, 40)
            law = appendix_a_law(a, b, c, d, e, f, g_, h)
            obs = observed_law(law)
            na = 2
            expected = {
                (na, na, 0, 0): a * (b * d + (1 - b) * f),
                (0, na, 1, 0): (1 - a) * b * e,
                (1, na, 1, 0): (1 - a) * (1 - b) * g_,
                (na, 0, 0, 1): a * (b * c * (1 - d) + (1 - b) * h * (1 - f)),
                (na, 1, 0, 1): a * (b * (1 - c) * (1 - d) + (1 - b) * (1 - h) * (1 - f)),
                (0, 0, 1, 1): (1 - a) * b * c * (1 - e),
                (1, 0, 1, 1): (1 - a) * (1 - b) * h * (1 - g_),
                (0, 1, 1, 1): (1 - a) * b * (1 - c) * (1 - e),
                (1, 1, 1, 1): (1 - a) * (1 - b) * (1 - h) * (1 - g_),
            }
            total = F(0)
            for (x, y, rx, ry), want in expected.items():
                got = obs.event_prob({"X": x, "Y": y, "R_X": rx, "R_Y": ry})
                assert got == want, (x, y, rx, ry)
                total += want
            assert total == 1

    def test_parameter_validation(self):
        with pytest.raises(LawError, match="strictly inside"):
            appendix_a_law(0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.25)
        with pytest.raises(LawError, match="dependency"):
            appendix_a_law(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)


class TestTernaryPair:
    def test_observed_laws_agree_exactly(self):
        pair = appendix_b_pair(**B_ARGS)
        obs1, obs2 = observed_law(pair.law1), observed_law(pair.law2)
        assert np.array_equal(obs1.values, obs2.values)
        cell = obs1.event_prob({"X": 3, "Y": 2, "R_X": 0, "R_Y": 0})
        a, g_, i, k = (B_ARGS[x] for x in "agik")
        assert cell == a * (F(1, 4) * g_ + F(1, 2) * i + F(1, 4) * k)

    def test_witness_cells_follow_the_swap(self):
        pair = appendix_b_pair(**B_ARGS)
        witnesses = {tuple(sorted(w.items())) for w in pair.witness_cells}
        first = {"X": 0, "Y": 0, "R_X": 0, "R_Y": 0}
        assert tuple(sorted(first.items())) in witnesses
        a, n, g_, k = B_ARGS["a"], B_ARGS["n"], B_ARGS["g"], B_ARGS["k"]
        assert joint_probability(pair.law1, first) == a * F(1, 4) * n * g_
        assert joint_probability(pair.law2, first) == a * F(1, 4) * n * k

    def test_equal_swap_values_collapse(self):
        args = dict(B_ARGS)
        args["k"] = args["g"]
        with pytest.raises(LawError, match="collapses"):
            appendix_b_pair(**args)

    def test_pipeline_rank_failure_is_shared(self):
        pair = appendix_b_pair(**B_ARGS)
        g = pair.law1.graph
        col = find_colluders(g)[0]
        sigs = []
        for law in (pair.law1, pair.law2):
            with pytest.raises(RankDeficiencyError) as exc:
                colluder_mechanism(observed_law(law), col)
            sigs.append(exc.value.signature())
        assert sigs[0] == sigs[1]


class TestCrossCensoringPair:
    def test_nine_observed_cells_exact(self):
        pair = appendix_c_pair()
        for law in (pair.law1, pair.law2):
            obs = observed_law(law)
            total = F(0)
            for (x, y), want in APPENDIX_C_OBSERVED.items():
                got = obs.event_prob({"X": x, "Y": y,
                                      "R_X": 0 if x == 2 else 1,
                                      "R_Y": 0 if y == 2 else 1})
                assert got == want
                total += got
            assert total == 1

    def test_full_law_witness_values(self):
        pair = appendix_c_pair()
        cell = {"X": 0, "Y": 0, "R_X": 0, "R_Y": 0}
        assert joint_probability(pair.law1, cell) == F(257, 1425)
        assert joint_probability(pair.law2, cell) == F(1611, 10450)
        assert any(w == cell for w in pair.witness_cells)

    def test_separation_precondition_fails(self):
        g = cross_censoring_graph(2, 2)
        assert not m_separated(g, {"R_X"}, {"Y"}, {"X", "R_Y"})


class TestParameterCount:
    def test_binary_with_dependency_edge(self):
        g = cross_censoring_graph(2, 2)
        assert parameter_count(g) == (9, 8, 1)

    def test_degenerate_single_level(self):
        g = cross_censoring_graph(1, 2)
        assert parameter_count(g) == (5, 5, 0)

    def test_ternary_without_dependency_edge(self):
        g = cross_censoring_graph(3, 3, dependency=False)
        assert parameter_count(g) == (13, 11, 2)

    def test_fixture_validation(self):
        with pytest.raises(LawError, match="cross-censoring"):
            parameter_count(ccm_graph(2, 2))
        with pytest.raises(LawError, match="single-colluder"):
            parameter_count(example_graph("d"))
        g = cross_censoring_graph(2, 2)
        continuous_x = MissingDataGraph([Vertex("X", VertexRole.TRUE_VARIABLE), *g.vertices[1:]],
                                        g.directed_edges,
                                        pairs=[(p.true, p.indicator) for p in g.pairs])
        with pytest.raises(LawError, match="needs categorical X and Y"):
            parameter_count(continuous_x)


class TestEndToEnd:
    def test_identifiable_law_recovered_but_pairs_fail(self):
        # the identifiable construction round-trips through identification
        law = appendix_a_law(0.3, 0.4, 0.6, 0.25, 0.5, 0.35, 0.45, 0.2)
        obs = observed_law(law)
        col = find_colluders(law.graph)[0]
        mech = colluder_mechanism(obs, col)
        assert mech.values.min() > 0

        # neither counterexample pair admits identification
        pair_b = appendix_b_pair(**B_ARGS)
        with pytest.raises(RankDeficiencyError):
            colluder_mechanism(observed_law(pair_b.law1), find_colluders(pair_b.law1.graph)[0])
        pair_c = appendix_c_pair()
        with pytest.raises(ConditionalIndependenceError):
            colluder_mechanism(observed_law(pair_c.law1), find_colluders(pair_c.law1.graph)[0])
