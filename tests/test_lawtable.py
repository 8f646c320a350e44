import json
import math
import re
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colluder_lab import (Axis, CategoricalLaw, LawError, MissingDataGraph,
                          PositivityError, ProbabilityTable, SimConstraints, SimScenario, Vertex,
                          VertexRole, appendix_a_law, ccm_graph, conditional, example_graph,
                          joint_probability, observed_law, random_law)
from colluder_lab import lawtable
from colluder_lab.lawtable import ObservedLawTable, Rationals, coarsening_map, random_cpts
from colluder_lab.oracles import _cross_censoring_law, _APPENDIX_C_PARAMS
from conftest import (brute_joint_probability, exact_random_law, loop_observed_law,
                      loop_random_law, small_graphs)

O = VertexRole.FULLY_OBSERVED
X1 = VertexRole.TRUE_VARIABLE
R = VertexRole.RESPONSE_INDICATOR

A_PARAMS = tuple(Fraction(x, 20) for x in (6, 8, 12, 5, 10, 7, 9, 4))


@pytest.fixture
def law_a():
    return appendix_a_law(*A_PARAMS)


class TestJointProbability:
    def test_identifiable_binary_law_cell(self, law_a):
        a, b, c, d, e, f, g, h = A_PARAMS
        p = joint_probability(law_a, {"X": 0, "Y": 0, "R_X": 0, "R_Y": 0})
        assert p == a * b * c * d

    def test_point_mass_law(self):
        g = MissingDataGraph([Vertex("A", O, 2), Vertex("B", O, 2)], [("A", "B")])
        law = CategoricalLaw(g, {"A": np.array([1.0, 0.0]),
                                 "B": np.array([[0.0, 1.0], [1.0, 0.0]])})
        assert joint_probability(law, {"A": 0, "B": 1}) == 1.0
        assert joint_probability(law, {"A": 0, "B": 0}) == 0.0
        assert joint_probability(law, {"A": 1, "B": 0}) == 0.0

    def test_chain_law_normalizes(self):
        g = MissingDataGraph(
            [Vertex("A", O, 2), Vertex("B", O, 3), Vertex("C", O, 2)],
            [("A", "B"), ("B", "C")])
        law = random_law(g, seed=5)
        total = sum(joint_probability(law, {"A": a, "B": b, "C": c})
                    for a in range(2) for b in range(3) for c in range(2))
        assert abs(total - 1.0) < 1e-12

    def test_out_of_range_level(self, law_a):
        with pytest.raises(LawError, match="out of range"):
            joint_probability(law_a, {"X": 2, "Y": 0, "R_X": 0, "R_Y": 0})

    def test_against_independent_oracle(self):
        g = ccm_graph(3, 2)
        law = random_law(g, seed=2)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            assignment = {"X": int(rng.integers(3)), "Y": int(rng.integers(2)),
                          "R_X": int(rng.integers(2)), "R_Y": int(rng.integers(2))}
            assert joint_probability(law, assignment) == pytest.approx(
                brute_joint_probability(law, assignment), abs=1e-15)


class TestObservedLaw:
    def test_both_missing_cell_formula(self, law_a):
        a, b, c, d, e, f, g, h = A_PARAMS
        obs = observed_law(law_a)
        na = 2
        cell = obs.event_prob({"X": na, "Y": na, "R_X": 0, "R_Y": 0})
        assert cell == a * (b * d + (1 - b) * f)

    def test_cross_censoring_rational_cells(self):
        law = _cross_censoring_law(*_APPENDIX_C_PARAMS[0])
        obs = observed_law(law)
        assert obs.event_prob({"X": 2, "Y": 2, "R_X": 0, "R_Y": 0}) == Fraction(69, 200)
        assert obs.event_prob({"X": 2, "Y": 1, "R_X": 0, "R_Y": 1}) == Fraction(1, 200)

    def test_no_missingness_reduces_to_full_law(self):
        g = ccm_graph(2, 2)
        law = CategoricalLaw(g, {
            "X": np.array([0.3, 0.7]),
            "Y": np.array([[0.2, 0.8], [0.6, 0.4]]),
            "R_X": np.array([0.0, 1.0]),
            "R_Y": np.array([[[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]]),
        })
        obs = observed_law(law)
        for x in range(2):
            for y in range(2):
                assert obs.event_prob({"X": x, "Y": y, "R_X": 1, "R_Y": 1}) == \
                    pytest.approx(joint_probability(law, {"X": x, "Y": y, "R_X": 1, "R_Y": 1}))
        assert obs.event_prob({"R_X": 0}) == 0.0

    def test_random_law_observed_is_consistent(self):
        for seed in range(5):
            law = random_law(ccm_graph(3, 3), seed=seed)
            obs = observed_law(law)
            assert abs(obs.total() - 1.0) < 1e-12
            assert obs.consistent()

    def test_commutes_with_marginalizing_fully_observed(self):
        # W has no children among the response indicators, so summing W out
        # before or after applying the proxy mechanism is the same thing.
        g = MissingDataGraph(
            [Vertex("W", O, 2), Vertex("X", X1, 2), Vertex("R_X", R, 2)],
            [("W", "X")], pairs=[("X", "R_X")])
        law = random_law(g, seed=11)
        obs = observed_law(law)
        w = np.asarray(law.cpts["W"], float)
        pxw = np.asarray(law.cpts["X"], float)
        reduced_graph = MissingDataGraph(
            [Vertex("X", X1, 2), Vertex("R_X", R, 2)], pairs=[("X", "R_X")])
        reduced = CategoricalLaw(reduced_graph, {
            "X": w @ pxw, "R_X": np.asarray(law.cpts["R_X"], float)})
        reduced_obs = observed_law(reduced)
        marg = obs.marginal(["X", "R_X"])
        assert np.allclose(marg.values, reduced_obs.values, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(graph=small_graphs(), seed=st.integers(0, 2**32 - 1))
def test_observed_law_float_and_exact_paths_agree(graph, seed):
    exact = exact_random_law(graph, np.random.default_rng(seed))
    approx = CategoricalLaw(graph, {k: v.astype(float) for k, v in exact.cpts.items()})
    obs_exact, obs_float = observed_law(exact), observed_law(approx)
    assert obs_exact.values.dtype == object and obs_float.values.dtype == float
    assert np.array_equal(obs_exact.values, loop_observed_law(exact))
    assert np.array_equal(obs_float.values, loop_observed_law(approx))
    assert np.allclose(obs_float.values, obs_exact.values.astype(float), rtol=1e-12, atol=0)
    assert obs_exact.total() == 1
    assert abs(obs_float.total() - 1.0) <= 1e-12
    assert obs_exact.consistent() and obs_float.consistent()


@settings(max_examples=40, deadline=None)
@given(graph=small_graphs(), seed=st.integers(0, 2**32 - 1))
def test_mass_off_the_coarsening_map_is_inconsistent(graph, seed):
    # small_graphs() always has a pair, so some observed cell is never produced.
    rng = np.random.default_rng(seed)
    exact = exact_random_law(graph, rng)
    approx = CategoricalLaw(graph, {k: v.astype(float) for k, v in exact.cpts.items()})
    obs = observed_law(exact)
    unproduced = np.setdiff1d(np.arange(obs.values.size), coarsening_map(graph))
    assert unproduced.size
    stray = rng.choice(unproduced)
    for law, moved in ((exact, Fraction(1, 10**6)), (approx, 1e-6)):
        obs = observed_law(law)
        assert obs.consistent()
        values = obs.values.copy().reshape(-1)
        largest = int(np.argmax(values.astype(float)))
        values[largest] -= moved
        values[stray] += moved
        assert not ObservedLawTable(graph, values.reshape(obs.values.shape)).consistent()
        values[stray] -= moved  # back on produced cells, but the total is now 1 - 1e-6
        assert not ObservedLawTable(graph, values.reshape(obs.values.shape)).consistent()


class TestIntegerTables:
    @settings(max_examples=40, deadline=None)
    @given(graph=small_graphs(), seed=st.integers(0, 2**32 - 1))
    def test_exact_joint_is_the_cpt_product(self, graph, seed):
        law = exact_random_law(graph, np.random.default_rng(seed))
        joint = law.joint_table()
        assert joint.values.dtype == object
        for idx in np.ndindex(*joint.values.shape):
            cell = joint.values[idx]
            assert isinstance(cell, Fraction)
            assert cell == joint_probability(law, dict(zip(joint.names, idx)))

    @settings(max_examples=40, deadline=None)
    @given(graph=small_graphs(), seed=st.integers(0, 2**32 - 1))
    def test_exact_events_and_marginals(self, graph, seed):
        law = exact_random_law(graph, np.random.default_rng(seed))
        obs = observed_law(law)
        cells = loop_observed_law(law)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            fixed = {a.name: int(rng.integers(a.size)) for a in obs.axes if rng.random() < 0.5}
            sl = tuple(fixed.get(a.name, slice(None)) for a in obs.axes)
            want = sum(np.asarray(cells[sl]).reshape(-1), start=Fraction(0))
            got = obs.event_prob(fixed)
            assert isinstance(got, Fraction) and got == want
        keep = [a.name for a in obs.axes[::2]]
        marg = obs.marginal(keep)
        drop = tuple(i for i, a in enumerate(obs.axes) if a.name not in keep)
        assert np.array_equal(marg.values, cells.sum(axis=drop))
        assert obs.total() == 1

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(0, 1), min_size=1, max_size=60),
           seed=st.integers(0, 2**32 - 1))
    def test_float_totals_equal_fsum(self, values, seed):
        values = np.array(values)
        exact = Rationals.of(values)
        subset = np.random.default_rng(seed).random(values.size) < 0.5
        total = exact.floats(np.array(sum(exact.numerators[subset].tolist())))
        assert float(total) == math.fsum(values[subset])

    @settings(max_examples=40, deadline=None)
    @given(graph=small_graphs(), seed=st.integers(0, 2**32 - 1))
    def test_float_reductions_are_one_rounding_of_the_exact_sum(self, graph, seed):
        obs = observed_law(CategoricalLaw(graph, {
            k: v.astype(float) for k, v in
            exact_random_law(graph, np.random.default_rng(seed)).cpts.items()}))
        assert obs.total() == math.fsum(obs.values.flat)
        rng = np.random.default_rng(seed)
        keep = [a.name for a in obs.axes if rng.random() < 0.5]
        marg = obs.marginal(keep)
        assert marg.values.dtype == float
        for idx in np.ndindex(*marg.values.shape):
            event = dict(zip(keep, idx))
            sl = tuple(event.get(a.name, slice(None)) for a in obs.axes)
            want = math.fsum(np.asarray(obs.values[sl]).flat)
            assert marg.values[idx] == obs.event_prob(event) == want

    def test_float_table_reads_its_own_denominator(self):
        exact = Rationals.of(np.array([0.5, 0.25, 0.125, 0.125]))
        assert exact.denominator == 8
        assert exact.numerators.tolist() == [4, 2, 1, 1]


class TestConditional:
    def test_recovers_cpt_from_joint(self, law_a):
        a, b, c, d, e, f, g, h = A_PARAMS
        joint = law_a.joint_table()
        cond = conditional(joint, targets=["Y"], conditions=["X"])
        assert cond.values[0][0] == c
        assert cond.values[1][0] == h

    def test_full_conditioning_gives_point_mass(self):
        g = MissingDataGraph([Vertex("A", O, 2), Vertex("B", O, 2)], [("A", "B")])
        law = CategoricalLaw(g, {"A": np.array([0.4, 0.6]),
                                 "B": np.array([[0.0, 1.0], [1.0, 0.0]])})
        cond = conditional(law.joint_table(), targets=["B"], conditions=["A"])
        assert cond.values.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_empty_conditions_is_marginal(self, law_a):
        a, b, *_ = A_PARAMS
        cond = conditional(law_a.joint_table(), targets=["X"])
        assert cond.values[0] == b

    def test_null_event_raises(self, law_a):
        g = law_a.graph
        law = CategoricalLaw(g, {
            "X": np.array([1.0, 0.0]),
            "Y": np.array([[0.5, 0.5], [0.5, 0.5]]),
            "R_X": np.array([0.5, 0.5]),
            "R_Y": np.full((2, 2, 2), 0.5),
        })
        with pytest.raises(PositivityError, match="null event"):
            conditional(law.joint_table(), targets=["Y"], conditions=["X"])


def draw_outcome(draw, graph, constraints, seed):
    """The CPT bytes of ``draw``'s law, or the message of the error it raised."""
    try:
        return {k: v.tobytes() for k, v in draw(graph, constraints, seed=seed).cpts.items()}
    except LawError as e:
        return str(e)


def response_rows(graph):
    """The row count of each response indicator's CPT that has parents."""
    return [math.prod(graph.vertex(p).levels for p in parents)
            for v in graph.vertices if v.role is R
            for parents in [graph.parents(v.name)] if parents]


@st.composite
def law_settings(draw):
    """A ``small_graphs()`` graph and constraints for it, some of them infeasible, with
    the response gap sometimes within a few roundings of the largest that fits."""
    graph = draw(small_graphs())
    lo = draw(st.floats(0.01, 0.9))
    hi = draw(st.floats(lo, 0.99, exclude_min=True))
    n = max(response_rows(graph), default=1)
    slack = draw(st.integers(0, 8)) * 2.0 ** -53
    gap = draw(st.one_of(st.floats(-0.05, 0.3), st.just((hi - lo - slack) / max(n - 1, 1))))
    return graph, SimConstraints(exogenous_response_prob=draw(st.floats(0.0, 1.0)),
                                 response_interval=(lo, hi), response_min_gap=gap,
                                 dependency_gap=draw(st.floats(-0.1, 1.0)),
                                 min_prob=draw(st.floats(-0.1, 0.5)),
                                 max_tries=draw(st.integers(1, 50)))


@st.composite
def ccm_designs(draw):
    """CCM(m, q), 1 <= m <= q <= 4, with or without X -> Y; constraints, some of them
    infeasible or failing within their tries; and up to six seeds."""
    m, q = draw(st.sampled_from([(m, q) for q in range(1, 5) for m in range(1, q + 1)]))
    lo = draw(st.floats(0.05, 0.8))
    hi = draw(st.floats(lo + 0.05, 0.95))
    constraints = SimConstraints(
        exogenous_response_prob=draw(st.floats(0.0, 1.0)), response_interval=(lo, hi),
        response_min_gap=draw(st.floats(0.0, 0.02)), dependency_gap=draw(st.floats(-0.1, 0.7)),
        min_prob=draw(st.floats(-0.1, 0.24)), max_tries=draw(st.integers(1, 100)))
    seeds = draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=6))
    return ccm_graph(m, q, dependency=draw(st.booleans())), constraints, seeds


def assert_meets(law, c):
    """Every CPT of ``law`` meets ``c`` as a ``>=`` on its floats."""
    lo, hi = c.response_interval
    for v in law.graph.vertices:
        rows = np.asarray(law.cpts[v.name], float).reshape(-1, v.levels)
        if v.role is R and not law.graph.parents(v.name):
            assert rows[0, 1] == c.exogenous_response_prob
        elif v.role is R:
            p = np.sort(rows[:, 1])
            assert lo <= p[0] and p[-1] <= hi
            assert np.all(np.diff(p) >= c.response_min_gap)
        else:
            assert rows.min() >= c.min_prob
            i, j = np.triu_indices(len(rows), 1)
            assert np.all(0.5 * np.abs(rows[i] - rows[j]).sum(axis=-1) >= c.dependency_gap)


class TestRandomLaw:
    def test_exogenous_response_prob_exact(self):
        law = random_law(ccm_graph(2, 2), seed=0)
        assert float(law.cpts["R_X"][1]) == 0.8

    def test_same_seed_identical(self):
        g = ccm_graph(2, 2)
        l1 = random_law(g, seed=42)
        l2 = random_law(g, seed=42)
        for name in l1.cpts:
            assert np.array_equal(l1.cpts[name], l2.cpts[name])

    def test_quaternary_response_probs_pairwise_distinct(self):
        law = random_law(ccm_graph(4, 4), seed=1)
        vals = np.asarray(law.cpts["R_Y"], float)[..., 1].ravel()
        assert len(vals) == 8
        diffs = np.abs(vals[:, None] - vals[None, :])[np.triu_indices(8, 1)]
        assert diffs.min() >= SimConstraints().response_min_gap
        assert vals.min() >= 0.7 and vals.max() <= 0.9

    def test_dependency_gap_enforced(self):
        cons = SimConstraints(dependency_gap=0.3, min_prob=0.0)
        for seed in range(5):
            law = random_law(ccm_graph(2, 2), cons, seed=seed)
            pyx = np.asarray(law.cpts["Y"], float)
            assert 0.5 * np.abs(pyx[0] - pyx[1]).sum() >= 0.3

    def test_min_prob_enforced(self):
        cons = SimConstraints(min_prob=0.15)
        law = random_law(ccm_graph(4, 4), cons, seed=3)
        assert np.asarray(law.cpts["X"], float).min() >= 0.15
        assert np.asarray(law.cpts["Y"], float).min() >= 0.15

    def test_infeasible_constraints_raise(self):
        with pytest.raises(LawError):
            random_law(ccm_graph(2, 2), SimConstraints(dependency_gap=1.5), seed=0)
        with pytest.raises(LawError):
            random_law(ccm_graph(4, 4), SimConstraints(min_prob=0.3), seed=0)
        with pytest.raises(LawError):
            random_law(ccm_graph(4, 4),
                       SimConstraints(response_interval=(0.7, 0.70001)), seed=0)
        with pytest.raises(LawError, match="cannot place 8 response probabilities"):
            random_law(ccm_graph(4, 4), SimConstraints(response_min_gap=1e300), seed=0)

    def test_dependency_gap_fails_after_max_tries_blocks(self):
        g, c = example_graph("e", 3), SimConstraints(dependency_gap=0.9, max_tries=30)
        for seed in range(10):
            assert draw_outcome(random_law, g, c, seed) == \
                draw_outcome(loop_random_law, g, c, seed) == \
                "could not satisfy the dependency gap for 'Y'"

    @pytest.mark.parametrize("kw", [dict(min_prob=0.33, dependency_gap=0.0, max_tries=1),
                                    dict(response_min_gap=0.004, dependency_gap=0.0,
                                         max_tries=1)], ids=["min_prob", "response gap"])
    def test_feasible_sets_the_loop_refused_draw_valid_laws(self, kw):
        # 3 x 0.33 < 1, and R_Y's 36 values need 0.14 of the 0.2-wide interval;
        # max_tries bounds only dependency-gap blocks, which a zero gap never rejects.
        g, c = example_graph("e", 3), SimConstraints(**kw)
        with pytest.raises(LawError, match="could not satisfy"):
            loop_random_law(g, c, seed=0)
        for seed in range(10):
            assert_meets(random_law(g, c, seed=seed), c)

    @settings(max_examples=150, deadline=None)
    @given(setting=law_settings(), seed=st.integers(0, 2 ** 32 - 1))
    def test_drawn_laws_meet_their_constraints(self, setting, seed):
        g, c = setting
        try:
            law = random_law(g, c, seed=seed)
        except LawError as e:
            # only the dependency gap rejects; the other failures are infeasible sets
            lo, hi = c.response_interval
            msg = str(e)
            if msg.startswith("min_prob"):
                assert any(c.min_prob * v.levels >= 1.0 for v in g.vertices
                           if v.role is not R)
            elif msg.startswith("cannot place"):
                n = max(response_rows(g))
                assert (n - 1) * max(c.response_min_gap, 0.0) >= hi - lo - (n + 2) * 2.0 ** -53
            else:
                assert "dependency gap" in msg, msg
            return
        assert_meets(law, c)

    @pytest.mark.parametrize("graph, constraints", [
        (ccm_graph(2, 2), SimScenario.from_json(str(
            resources.files("colluder_lab").joinpath("data", "ccm22.json"))).constraints),
        (MissingDataGraph([Vertex("A", O, 5)]), SimConstraints(min_prob=0.1)),
        (MissingDataGraph([Vertex("W", O, 4), Vertex("X", X1, 2), Vertex("R_X", R, 2)],
                          [("W", "R_X")], pairs=[("X", "R_X")]),
         SimConstraints(response_min_gap=0.02, min_prob=0.0)),
    ], ids=["ccm22-design", "five-levels-floor", "four-row-response"])
    def test_draws_match_the_row_at_a_time_loop_in_distribution(self, graph, constraints):
        # Every CPT entry's mean over 2,000 laws agrees with the rejection loop's
        # within 4 standard errors of the difference.
        def entries(draw, seed):
            cpts = draw(graph, constraints, seed=seed).cpts.values()
            return np.concatenate([np.asarray(a, float).ravel() for a in cpts])

        n = 2000
        new = np.array([entries(random_law, seed) for seed in range(n)])
        loop = np.array([entries(loop_random_law, seed) for seed in range(n, 2 * n)])
        diff = new.mean(axis=0) - loop.mean(axis=0)
        se = np.sqrt((new.var(axis=0) + loop.var(axis=0)) / n)
        assert np.all(np.abs(diff) <= 4.0 * se + 1e-12), np.abs(diff) / se

    @settings(max_examples=80, deadline=None)
    @given(design=ccm_designs())
    def test_batch_draws_each_seeds_law(self, design):
        # Row i of every CPT of the batch is random_law's law for seeds[i], bit for
        # bit; a batch with a failing seed raises what random_law raises for it.
        g, c, seeds = design
        outcomes = [draw_outcome(random_law, g, c, seed) for seed in seeds]
        errors = [o for o in outcomes if isinstance(o, str)]
        if errors:
            with pytest.raises(LawError) as err:
                random_cpts(g, c, seeds)
            assert str(err.value) in errors
            return
        cpts = random_cpts(g, c, seeds)
        assert [{name: cpt[i].tobytes() for name, cpt in cpts.items()}
                for i in range(len(seeds))] == outcomes

    def test_batch_with_a_failing_seed_raises_its_error(self):
        g, c = ccm_graph(2, 2), SimConstraints(dependency_gap=0.5, max_tries=1)
        outcomes = [draw_outcome(random_law, g, c, seed) for seed in range(20)]
        failing = [seed for seed, o in enumerate(outcomes) if isinstance(o, str)]
        assert 0 < len(failing) < 20
        assert outcomes[failing[0]] == "could not satisfy the dependency gap for 'Y'"
        with pytest.raises(LawError, match=f"^{re.escape(outcomes[failing[0]])}$"):
            random_cpts(g, c, range(20))

    def test_batch_memory_bound_spans_the_batch(self, monkeypatch):
        # With room for 4 blocks per gap test, 5 seeds share their tests and still
        # draw their own laws.
        g, c = ccm_graph(2, 3), SimConstraints(dependency_gap=0.45, min_prob=0.15)
        monkeypatch.setattr(lawtable, "_BATCH_CELLS", 4 * 3)
        want = [draw_outcome(random_law, g, c, seed) for seed in range(5)]
        cpts = random_cpts(g, c, range(5))
        assert [{name: cpt[i].tobytes() for name, cpt in cpts.items()}
                for i in range(5)] == want

    @pytest.mark.parametrize("levels", range(1, 13))
    def test_uniform_simplex_draws_what_dirichlet_draws(self, levels):
        # Bit for bit, and each generator is left where dirichlet leaves it.  From 8
        # levels on, a pairwise row sum would differ in the last bit on these seeds.
        seeds = range(8)
        for shape in [(), (1,), (5,), (3, 4), (2, 3, 2)]:
            ours = [np.random.default_rng(s) for s in seeds]
            theirs = [np.random.default_rng(s) for s in seeds]
            rows = lawtable.uniform_simplex(ours, shape + (levels,))
            want = np.stack([rng.dirichlet(np.ones(levels), shape) for rng in theirs])
            assert rows.shape == (len(seeds),) + shape + (levels,)
            assert rows.tobytes() == want.tobytes()
            assert [rng.random() for rng in ours] == [rng.random() for rng in theirs]

    def test_continuous_vertex_rejected(self):
        g = MissingDataGraph([Vertex("A", O, None)])
        with pytest.raises(LawError, match="continuous"):
            random_law(g, seed=0)


class TestLawValidation:
    def test_row_sum_violation(self):
        g = MissingDataGraph([Vertex("A", O, 2)])
        with pytest.raises(LawError, match="sums to"):
            CategoricalLaw(g, {"A": np.array([0.5, 0.4])})

    def test_negative_entry(self):
        g = MissingDataGraph([Vertex("A", O, 2)])
        with pytest.raises(LawError, match="outside"):
            CategoricalLaw(g, {"A": np.array([1.2, -0.2])})

    def test_exact_rows_sum_to_exactly_one(self, law_a):
        # 1e-14 over 1 is inside the float tolerance, which float rows keep.
        x = np.array([Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**14)], dtype=object)
        with pytest.raises(LawError, match=r"^CPT row for 'X' sums to 1\.00000000000001, not 1$"):
            CategoricalLaw(law_a.graph, {**law_a.cpts, "X": x})
        floats = {k: v.astype(float) for k, v in law_a.cpts.items()}
        CategoricalLaw(law_a.graph, {**floats, "X": x.astype(float)})
        x = np.array([Fraction(3, 2), Fraction(-1, 2)], dtype=object)
        with pytest.raises(LawError, match=r"^CPT entry for 'X' outside \[0, 1\]$"):
            CategoricalLaw(law_a.graph, {**law_a.cpts, "X": x})

    def test_exact_table_is_consistent_only_when_exact(self, law_a):
        # Mass 1e-14 times the table's own denominator off: within the float
        # tolerance, which float tables keep.
        obs = observed_law(law_a)
        graph, exact, scale = obs.graph, obs.rationals(), 10**14
        cell, stray = coarsening_map(graph).reshape(-1)[0], obs.values.size - 1
        assert stray not in coarsening_map(graph)
        nums = exact.numerators.reshape(-1) * scale
        den = exact.denominator * scale

        def table(bumps):
            moved = nums.copy()
            for i, n in bumps:
                moved[i] += n
            return Rationals(moved.reshape(obs.values.shape), den)

        assert ObservedLawTable(graph, table([])).consistent()
        for bumps in ([(cell, 1)], [(cell, -1), (stray, 1)]):
            assert not ObservedLawTable(graph, table(bumps)).consistent()
            floats = table(bumps).floats(table(bumps).numerators)
            assert ObservedLawTable(graph, floats).consistent()

    def test_wrong_shape(self):
        g = ccm_graph(2, 2)
        cpts = {"X": np.array([0.5, 0.5]), "Y": np.array([0.5, 0.5]),
                "R_X": np.array([0.5, 0.5]), "R_Y": np.full((2, 2, 2), 0.5)}
        with pytest.raises(LawError, match="shape"):
            CategoricalLaw(g, cpts)

    def test_missing_cpt(self):
        g = MissingDataGraph([Vertex("A", O, 2)])
        with pytest.raises(LawError, match="missing CPT"):
            CategoricalLaw(g, {})

    @pytest.mark.parametrize("row", [[float("nan"), 1.0], [0.5, float("nan")],
                                     [float("inf"), 0.0]])
    def test_non_finite_entry_names_vertex(self, row):
        g = MissingDataGraph([Vertex("A", O, 2)])
        with pytest.raises(LawError, match="'A' holds a non-finite entry"):
            CategoricalLaw(g, {"A": np.array(row)})


class TestBidirectedGraphs:
    """A law factors over directed parents, so a bidirected edge would be dropped."""

    @pytest.mark.parametrize("key", ["a", "b"])
    def test_law_on_confounded_graph_names_the_edges(self, key):
        g = example_graph(key)
        # (a) and (b) have the directed edges of CCM(2,2), so its CPTs fit their shapes
        cpts = random_law(ccm_graph(2, 2), seed=0).cpts
        for build in (lambda: CategoricalLaw(g, cpts), lambda: random_law(g, seed=0)):
            with pytest.raises(LawError) as err:
                build()
            for u, w in g.bidirected_edges:
                assert f"{u}<->{w}" in str(err.value)


class TestSimConstraintsChecks:
    @pytest.mark.parametrize("bad, match", [
        ({"max_tries": 2.5}, "max_tries must be an integer, got 2.5"),
        ({"max_tries": 0}, "max_tries must be at least 1, got 0"),
        ({"max_tries": "10"}, "max_tries must be an integer, got '10'"),
        ({"min_prob": "0.1"}, "min_prob must be a finite real number"),
        ({"min_prob": float("nan")}, "min_prob must be a finite real number"),
        ({"dependency_gap": None}, "dependency_gap must be a finite real number"),
        ({"exogenous_response_prob": [0.8]}, "exogenous_response_prob must be a finite real"),
        ({"response_min_gap": "0"}, "response_min_gap must be a finite real number"),
        ({"response_interval": [0.7]}, "response_interval must be two numbers"),
        ({"response_interval": 0.7}, "response_interval must be two numbers"),
        ({"response_interval": [0.7, "0.9"]}, "response_interval must be two numbers"),
        ({"response_interval": [0.7, float("inf")]}, "response_interval must be two numbers"),
        ({"response_interval": [0.9, 0.7]}, "must satisfy 0 < lo < hi < 1, got"),
        ({"response_interval": [0.0, 0.5]}, "must satisfy 0 < lo < hi < 1, got"),
        ({"response_interval": [0.5, 1.0]}, "must satisfy 0 < lo < hi < 1, got"),
    ])
    def test_bad_constraints_rejected(self, bad, match):
        with pytest.raises(LawError, match=match):
            SimConstraints(**bad)
        with pytest.raises(LawError, match=match):
            SimConstraints.from_json(bad)

    def test_constraints_document_must_be_an_object(self):
        with pytest.raises(LawError, match="constraints must be a JSON object"):
            SimConstraints.from_json(5)


class TestSerialization:
    def test_float_round_trip(self):
        law = random_law(ccm_graph(2, 2), seed=9)
        doc = law.to_json()
        law2 = CategoricalLaw.from_json(doc)
        for name in law.cpts:
            assert np.array_equal(np.asarray(law.cpts[name], float),
                                  np.asarray(law2.cpts[name], float))

    def test_rational_round_trip(self, law_a):
        doc = json.loads(json.dumps(law_a.to_json()))
        law2 = CategoricalLaw.from_json(doc)
        assert law2.cpts["Y"][0][0] == Fraction(12, 20)

    def test_exact_point_mass_round_trip(self):
        g = MissingDataGraph([Vertex("A", O, 2), Vertex("B", O, 2)], [("A", "B")])
        cpts = {"A": np.array([1, 0], dtype=object),
                "B": np.array([[Fraction(1, 3), Fraction(2, 3)], [0, 1]], dtype=object)}
        law = CategoricalLaw(g, cpts)
        doc = json.loads(json.dumps(law.to_json()))
        assert doc["cpts"]["A"]["table"] == ["1/1", "0/1"]
        law2 = CategoricalLaw.from_json(doc)
        assert law2.is_exact()
        assert all(isinstance(x, Fraction) for arr in law2.cpts.values() for x in arr.flat)
        obs, obs2 = observed_law(law), observed_law(law2)
        assert np.array_equal(obs.values, obs2.values)
        assert all(isinstance(x, Fraction) for x in obs2.values.flat)

    def test_decimal_beside_fraction_is_exact(self):
        doc = appendix_a_law(*A_PARAMS).to_json()
        doc["cpts"]["X"]["table"] = ["0.1", "9/10"]
        law = CategoricalLaw.from_json(doc)
        assert law.cpts["X"].tolist() == [Fraction(1, 10), Fraction(9, 10)]
        assert law.is_exact()

    def test_float_law_keeps_its_bytes(self):
        law = random_law(ccm_graph(2, 2), seed=9)
        doc = law.to_json()
        assert doc["cpts"]["X"]["table"] == [repr(float(x)) for x in law.cpts["X"]]
        law2 = CategoricalLaw.from_json(json.loads(json.dumps(doc)))
        assert json.dumps(law2.to_json()) == json.dumps(doc)

    def test_unreadable_entry_names_vertex(self):
        doc = appendix_a_law(*A_PARAMS).to_json()
        doc["cpts"]["Y"]["table"][0][0] = "3/x"
        with pytest.raises(LawError, match="'Y'"):
            CategoricalLaw.from_json(doc)

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: doc["cpts"]["Y"]["table"].__setitem__(1, ["nan", "nan"]),
         "'Y' holds a non-finite entry"),
        (lambda doc: doc.pop("cpts"), "needs a 'cpts' object"),
        (lambda doc: doc.update(cpts=[1]), "needs a 'cpts' object"),
        (lambda doc: doc["cpts"]["Y"].pop("table"), "CPT 'Y' needs a 'table'"),
        (lambda doc: doc["cpts"].update(Y=5), "CPT 'Y' must be a JSON object, got 5"),
        (lambda doc: doc["cpts"]["Y"].update(parents=5), "CPT parents for 'Y' are 5"),
        (lambda doc: doc["cpts"]["R_Y"].update(parents=[1, "X"]), "CPT parents for 'R_Y'"),
        (lambda doc: doc["cpts"]["Y"].update(table=5), "table for 'Y' has 0 axes, expected 2"),
        (lambda doc: doc["cpts"]["R_Y"].update(parents=["R_X", "X"], table=[0.5, 0.5]),
         "table for 'R_Y' has 1 axes, expected 3"),
    ], ids=["nan-entries", "no-cpts", "cpts-list", "no-table", "number-entry",
            "number-parents", "mixed-parents", "number-table", "flat-table"])
    def test_malformed_document_rejected(self, edit, match):
        doc = random_law(ccm_graph(2, 2), seed=9).to_json()
        edit(doc)
        with pytest.raises(LawError, match=match):
            CategoricalLaw.from_json(doc)

    @pytest.mark.parametrize("text", ["[]", "5"])
    def test_document_must_be_an_object(self, text):
        with pytest.raises(LawError, match="must be a JSON object"):
            CategoricalLaw.from_json(text)

    def test_exact_cpt_with_float_entry_rejected(self):
        g = MissingDataGraph([Vertex("A", O, 2)])
        with pytest.raises(LawError, match="'A'.*non-rational"):
            CategoricalLaw(g, {"A": np.array([Fraction(1, 2), 0.5], dtype=object)})

    def test_unknown_keys_rejected(self):
        law = random_law(ccm_graph(2, 2), seed=9)
        doc = law.to_json()
        doc["surprise"] = 1
        with pytest.raises(LawError, match="unknown law keys"):
            CategoricalLaw.from_json(doc)

    def test_parents_in_declaration_order_whatever_the_edge_order(self):
        doc = ccm_graph(2, 2).to_json()
        doc["edges"].reverse()  # R_X -> R_Y is now listed before X -> R_Y
        g = MissingDataGraph.from_json(doc)
        assert g.parents("R_Y") == ("X", "R_X")
        law = random_law(g, seed=9)
        back = CategoricalLaw.from_json(json.dumps(law.to_json()))
        assert back.graph.parents("R_Y") == ("X", "R_X")
        for name, cpt in law.cpts.items():
            assert np.array_equal(back.cpts[name], cpt)

    def test_parent_order_reconciled(self):
        g = ccm_graph(2, 2)
        law = random_law(g, seed=9)
        doc = law.to_json()
        ry = doc["cpts"]["R_Y"]
        # transpose the stored table to the swapped parent order
        arr = np.array([[list(map(float, cell)) for cell in row] for row in ry["table"]])
        ry["parents"] = ["R_X", "X"]
        ry["table"] = [[[repr(float(arr[x, r, v])) for v in range(2)] for x in range(2)]
                       for r in range(2)]
        law2 = CategoricalLaw.from_json(doc)
        assert np.allclose(np.asarray(law2.cpts["R_Y"], float),
                           np.asarray(law.cpts["R_Y"], float))


def test_table_total_beats_naive():
    values = np.array([1.0] + [1e-16] * 10000)
    table = ProbabilityTable([Axis("A", values.size)], values)
    assert table.total() == pytest.approx(1.0 + 1e-12, abs=1e-18)
