import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from colluder_lab import (BinaryColluderQuantities, ColluderSystem,
                          ConditionalIndependenceError, GraphQueryError,
                          LawError, LikelihoodModel, MissingDataGraph, PositivityError,
                          RankDeficiencyError, Vertex, VertexRole,
                          appendix_a_law, appendix_b_pair, appendix_c_pair,
                          binary_closed_form, build_colluder_system, ccm_graph,
                          colluder_mechanism, cross_censoring_graph,
                          decide_full_law, example_graph, find_colluders,
                          identified_cpts, observed_law, or_factorization_check,
                          observable_axes, quantities_from_observed, random_law,
                          rank_test, simstudy, solve_colluder)
from colluder_lab.estimate import plug_in
from colluder_lab.identify import count_cpts, enumerate_strata
from colluder_lab.lawtable import CategoricalLaw, ObservedLawTable, Rationals, SimConstraints
from conftest import (appendix_a_params, exact_random_law, loop_colluder_mechanism,
                      loop_colluder_system, mechanism_oracle, small_graphs)

O = VertexRole.FULLY_OBSERVED
X1 = VertexRole.TRUE_VARIABLE
R = VertexRole.RESPONSE_INDICATOR


def binary_matrix_oracle(q: BinaryColluderQuantities):
    """The 2x2 closed-form system evaluated by plain matrix inversion."""
    a_mat = np.array([
        [q.a * q.b * q.c, q.a * (1 - q.b) * q.h],
        [q.a * q.b * (1 - q.c), q.a * (1 - q.b) * (1 - q.h)],
    ])
    return np.linalg.solve(a_mat, np.array([q.r, q.s]))


@pytest.fixture
def setup_a():
    params = (0.3, 0.4, 0.6, 0.25, 0.5, 0.35, 0.45, 0.2)
    law = appendix_a_law(*params)
    obs = observed_law(law)
    col = find_colluders(law.graph)[0]
    return params, law, obs, col


class TestBuildSystem:
    def test_entries_match_full_law(self, setup_a):
        (a, b, c, d, e, f, g, h), law, obs, col = setup_a
        joint = law.joint_table().values.astype(float)
        p_ry1 = joint[:, :, :, 1].sum()
        sys = build_colluder_system(obs, col)
        assert sys.strata == ({},)
        # first factor of each entry is p(Y=y | X=x), free of the indicators here
        want = np.array([[c, h], [1 - c, 1 - h]]) * p_ry1
        assert np.allclose(sys.a[0], want, atol=1e-14)
        r = a * (b * c * (1 - d) + (1 - b) * h * (1 - f))
        s = a * (b * (1 - c) * (1 - d) + (1 - b) * (1 - h) * (1 - f))
        assert np.allclose(sys.b[0, 0], [r, s], atol=1e-14)

    def test_solution_is_full_law_functional(self, setup_a):
        _, law, obs, col = setup_a
        joint = law.joint_table().values.astype(float)
        p_ry1 = joint[:, :, :, 1].sum()
        sol = solve_colluder(build_colluder_system(obs, col))
        assert sol.values.shape == (1, 2, 2)
        for r in (0, 1):
            truth = [joint[j, :, r, 1].sum() / p_ry1 for j in range(2)]
            assert np.allclose(sol.values[0, r], truth, atol=1e-10)
        assert sol.residual <= 1e-10
        assert sol.out_of_range == ()

    def test_single_level_true_variable_collapses(self):
        g = MissingDataGraph(
            [Vertex("X", X1, 1), Vertex("Y", X1, 2), Vertex("R_X", R, 2),
             Vertex("R_Y", R, 2)],
            [("X", "R_Y"), ("R_X", "R_Y")],
            pairs=[("X", "R_X"), ("Y", "R_Y")])
        law = CategoricalLaw(g, {
            "X": np.array([1.0]),
            "Y": np.array([0.3, 0.7]),
            "R_X": np.array([0.2, 0.8]),
            "R_Y": np.array([[[0.3, 0.7], [0.1, 0.9]]]),
        })
        obs = observed_law(law)
        col = find_colluders(g)[0]
        sys = build_colluder_system(obs, col)
        assert sys.a.shape == (1, 2, 1)
        sol = solve_colluder(sys)
        joint = law.joint_table().values.astype(float)
        want = joint[0, :, 0, 1].sum() / joint[:, :, :, 1].sum()
        assert sol.values[0, 0, 0] == pytest.approx(want, abs=1e-12)

    def test_ternary_system_is_wide(self):
        g = ccm_graph(3, 2)
        law = random_law(g, seed=4)
        obs = observed_law(law)
        col = find_colluders(g)[0]
        sys = build_colluder_system(obs, col)
        assert sys.a.shape == (1, 2, 3)
        rank, _ = rank_test(sys)
        assert rank.shape == (1,) and rank[0] <= 2
        with pytest.raises(RankDeficiencyError, match="not identifiable"):
            solve_colluder(sys)

    def test_precondition_checked(self):
        g = cross_censoring_graph(2, 2)
        law = random_law(g, seed=5)
        obs = observed_law(law)
        col = find_colluders(g)[0]
        with pytest.raises(ConditionalIndependenceError, match="conditional independence"):
            build_colluder_system(obs, col)

    def test_null_stratum_raises(self):
        g = MissingDataGraph(
            [Vertex("W", O, 2), Vertex("X", X1, 2), Vertex("Y", X1, 2),
             Vertex("R_X", R, 2), Vertex("R_Y", R, 2)],
            [("X", "Y"), ("X", "R_Y"), ("R_X", "R_Y")],
            pairs=[("X", "R_X"), ("Y", "R_Y")])
        law = random_law(g, seed=6)
        cpts = dict(law.cpts)
        cpts["W"] = np.array([1.0, 0.0])
        law = CategoricalLaw(g, cpts)
        obs = observed_law(law)
        col = find_colluders(g)[0]
        with pytest.raises(PositivityError, match="positivity violated at stratum") as exc:
            build_colluder_system(obs, col)
        assert exc.value.stratum == {"W": 1}


class TestRank:
    def test_full_rank_under_dependency(self, setup_a):
        _, law, obs, col = setup_a
        rank, sv = rank_test(build_colluder_system(obs, col))
        assert rank.tolist() == [2]
        assert sv[0, 1] > 1e-3 * sv[0, 0]

    def test_equal_conditionals_drop_rank(self):
        # p(Y|X) identical across X makes the two columns coincide
        law = appendix_a_law(0.3, 0.4, 0.6, 0.25, 0.5, 0.35, 0.45, 0.6 + 1e-13)
        obs = observed_law(law)
        col = find_colluders(law.graph)[0]
        sys = build_colluder_system(obs, col)
        rank, _ = rank_test(sys)
        assert rank.tolist() == [1]
        with pytest.raises(RankDeficiencyError):
            solve_colluder(sys)

    def test_square_full_rank_matches_plain_inverse(self, setup_a):
        _, law, obs, col = setup_a
        sys = build_colluder_system(obs, col)
        sol = solve_colluder(sys)
        for r in (0, 1):
            direct = np.linalg.solve(sys.a[0], sys.b[0, r])
            assert np.allclose(sol.values[0, r], direct, atol=1e-12)

    def test_overdetermined_consistent_system_exact(self):
        g = ccm_graph(2, 3)
        law = random_law(g, seed=8)
        obs = observed_law(law)
        col = find_colluders(g)[0]
        sys = build_colluder_system(obs, col)
        assert sys.a.shape == (1, 3, 2)
        sol = solve_colluder(sys)
        assert sol.residual <= 1e-10


class TestMechanism:
    def test_matches_full_law_oracle(self, setup_a):
        _, law, obs, col = setup_a
        mech = colluder_mechanism(obs, col)
        oracle = mechanism_oracle(law, "R_X")
        for x in range(2):
            for y in range(2):
                want = oracle({"X": x, "Y": y}, 0)
                assert mech.values[x, y, 0] == pytest.approx(want, abs=1e-8)
                assert mech.values[x, y, 0] + mech.values[x, y, 1] == pytest.approx(1.0, abs=1e-8)

    def test_constant_in_partner_variable(self, setup_a):
        _, law, obs, col = setup_a
        mech = colluder_mechanism(obs, col)
        assert np.allclose(mech.values[:, 0, :], mech.values[:, 1, :], atol=1e-12)

    def test_inconsistent_system_refused(self):
        # Sampled frequencies of CCM(2, 3) held as floats: the overdetermined
        # system has no exact solution.
        g = ccm_graph(2, 3)
        probs = np.asarray(observed_law(random_law(g, seed=4)).values, float)
        counts = np.random.default_rng(1).multinomial(2000, probs.reshape(-1) / probs.sum())
        obs = ObservedLawTable(g, (counts / counts.sum()).reshape(probs.shape))
        col = find_colluders(g)[0]
        message = re.escape("colluder system inconsistent: residual 6.898e-03 exceeds 1e-8")
        with pytest.raises(LawError, match=message):
            solve_colluder(build_colluder_system(obs, col))
        with pytest.raises(LawError, match=message):
            colluder_mechanism(obs, col)

    def test_shared_pair_graph_strata(self):
        # two colluders of the same pair: the mechanism conditions on both
        # extra true variables, constant in the partner one
        g = example_graph("f")
        law = random_law(g, seed=12)
        obs = observed_law(law)
        col = [c for c in find_colluders(g) if c.target_indicator == "R_Y"][0]
        mech = colluder_mechanism(obs, col)
        assert mech.names == ("X", "Y", "Z", "R_X")
        oracle = mechanism_oracle(law, "R_X")
        for x in range(2):
            for y in range(2):
                for z in range(2):
                    want = oracle({"X": x, "Y": y, "Z": z}, 0)
                    assert mech.values[x, y, z, 0] == pytest.approx(want, abs=1e-8)

    def test_out_of_model_exact_table_refused(self):
        # A consistent exact CCM(2, 2) table over 200 whose arm 0 solves to -0.0625 at
        # X = 0: p(Y | X, R = 1) is (0.9, 0.1) and (0.1, 0.9), every record with
        # R_X = 0 and R_Y = 1 has Y = 1, and 80 records of each X have R_Y = 0.
        g = ccm_graph(2, 2)
        counts = {(0, 0, 1, 1): 9, (0, 1, 1, 1): 1, (1, 0, 1, 1): 1, (1, 1, 1, 1): 9,
                  (2, 1, 0, 1): 20, (0, 2, 1, 0): 80, (1, 2, 1, 0): 80}
        nums = np.zeros([a.size for a in observable_axes(g)], dtype=object)
        for cell, n in counts.items():
            nums[cell] = n
        obs = ObservedLawTable(g, Rationals(nums, 200))
        col = find_colluders(g)[0]
        assert obs.consistent()
        assert solve_colluder(build_colluder_system(obs, col)).out_of_range == ((0, 0, 0),)
        message = ("no law of the graph produces this table: arm R_X=0 of colluder "
                   "{X, R_X} of R_Y solves to -0.0625 at X=0, stratum {}, outside [0, 1]")
        with pytest.raises(LawError, match=f"^{re.escape(message)}$"):
            colluder_mechanism(obs, col)

    def test_rank_failure_names_stratum(self):
        law = appendix_a_law(0.3, 0.4, 0.6, 0.25, 0.5, 0.35, 0.45, 0.6 + 1e-13)
        obs = observed_law(law)
        col = find_colluders(law.graph)[0]
        with pytest.raises(RankDeficiencyError) as exc:
            colluder_mechanism(obs, col)
        assert exc.value.stratum == {}
        assert exc.value.rank == 1 and exc.value.required == 2

    def test_strata_enumeration(self):
        g = example_graph("d")
        col = [c for c in find_colluders(g) if c.target_indicator == "R_Y"][0]
        strata = list(enumerate_strata(g, col))
        assert strata == [{"Z": 0, "R_Z": 1}, {"Z": 1, "R_Z": 1}]


def float_copy(law):
    return CategoricalLaw(law.graph, {k: v.astype(float) for k, v in law.cpts.items()})


def mechanism_or_error(fn):
    """``fn()``'s result, or the class, stratum and message of what it raised."""
    try:
        return fn()
    except (LawError, PositivityError, RankDeficiencyError,
            ConditionalIndependenceError) as e:
        return type(e), getattr(e, "stratum", None), str(e)


def assert_same_as_per_entry(law):
    """Every colluder mechanism, on the exact law and on its float copy,
    equals the per-entry construction bit for bit, or fails the same way."""
    for each in (law, float_copy(law)):
        obs, g = observed_law(each), each.graph
        for col in find_colluders(g):
            got = mechanism_or_error(lambda: colluder_mechanism(obs, col))
            want = mechanism_or_error(lambda: loop_colluder_mechanism(obs, g, col))
            if isinstance(want, tuple) and isinstance(want[0], type):
                if want[0] is ConditionalIndependenceError:
                    assert got[0] is want[0]
                else:
                    assert got == want
                continue
            names, values = want
            assert got.names == tuple(names)
            assert got.values.dtype == values.dtype
            assert got.values.tobytes() == values.tobytes()


class TestStackedSystems:
    """The one-pass stacks against one event probability per entry."""

    # A colluder needs two pairs; one-pair graphs would only be filtered out, and
    # 50 filtered draws before 10 kept ones fail hypothesis's filter_too_much check.
    @settings(max_examples=60, deadline=None)
    @given(graph=small_graphs(min_pairs=2).filter(lambda g: find_colluders(g)),
           seed=st.integers(0, 2**32 - 1))
    def test_small_graphs(self, graph, seed):
        assert_same_as_per_entry(exact_random_law(graph, np.random.default_rng(seed)))

    @settings(max_examples=12, deadline=None)
    @given(key=st.sampled_from("def"), levels=st.sampled_from([2, 3]),
           seed=st.integers(0, 2**32 - 1))
    def test_example_graphs(self, key, levels, seed):
        assert_same_as_per_entry(exact_random_law(example_graph(key, levels),
                                                  np.random.default_rng(seed)))

    @settings(max_examples=20, deadline=None)
    @given(m=st.integers(2, 4), q=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_ccm_graphs(self, m, q, seed):
        assert_same_as_per_entry(exact_random_law(ccm_graph(m, q), np.random.default_rng(seed)))

    def test_rank_deficient_law(self):
        law = exact_random_law(ccm_graph(3, 2), np.random.default_rng(0))
        assert_same_as_per_entry(law)
        col = find_colluders(law.graph)[0]
        with pytest.raises(RankDeficiencyError) as exc:
            colluder_mechanism(observed_law(law), col)
        assert exc.value.stratum == {} and exc.value.rank == 2

    def _stratum_law(self, pin_w, equal_y_at=1):
        """W -> Y beside the colluder; with ``pin_w`` p(W=1) is zero, otherwise
        p(Y | X, W=1) is equal across X, so stratum W=1 fails.  With
        ``equal_y_at=0`` and ``pin_w``, p(Y | X, W=0) is equal across X as well."""
        g = MissingDataGraph(
            [Vertex("W", O, 2), Vertex("X", X1, 2), Vertex("Y", X1, 2),
             Vertex("R_X", R, 2), Vertex("R_Y", R, 2)],
            [("W", "Y"), ("X", "Y"), ("X", "R_Y"), ("R_X", "R_Y")],
            pairs=[("X", "R_X"), ("Y", "R_Y")])
        law = exact_random_law(g, np.random.default_rng(1))
        cpts = dict(law.cpts)
        if pin_w:
            cpts["W"] = np.array([Fraction(1), Fraction(0)], dtype=object)
        if not pin_w or equal_y_at == 0:
            y = cpts["Y"].copy()
            y[equal_y_at, 1] = y[equal_y_at, 0]
            cpts["Y"] = y
        return CategoricalLaw(g, cpts)

    @pytest.mark.parametrize("pin_w, error", [(True, PositivityError),
                                              (False, RankDeficiencyError)])
    def test_failing_stratum_named(self, pin_w, error):
        law = self._stratum_law(pin_w)
        assert_same_as_per_entry(law)
        col = find_colluders(law.graph)[0]
        for each in (law, float_copy(law)):
            with pytest.raises(error) as exc:
                colluder_mechanism(observed_law(each), col)
            assert exc.value.stratum == {"W": 1}

    def test_positivity_of_every_stratum_comes_first(self):
        # W=0 is rank-deficient and W=1 has no mass: the null stratum is named
        law = self._stratum_law(True, equal_y_at=0)
        assert_same_as_per_entry(law)
        col = find_colluders(law.graph)[0]
        for each in (law, float_copy(law)):
            with pytest.raises(PositivityError, match="positivity violated at stratum") as exc:
                colluder_mechanism(observed_law(each), col)
            assert exc.value.stratum == {"W": 1}

    def test_build_system_reads_one_stratum(self):
        """Each stratum of the stack equals that stratum read alone, per entry."""
        law = exact_random_law(example_graph("d", 3), np.random.default_rng(5))
        for each in (law, float_copy(law)):
            obs, g = observed_law(each), each.graph
            for col in find_colluders(g):
                got = build_colluder_system(obs, col)
                assert got.strata == tuple(enumerate_strata(g, col))
                for s, z in enumerate(got.strata):
                    want = loop_colluder_system(obs, g, col, z)
                    assert got.a[s].tobytes() == want.a[0].tobytes()
                    assert got.b[s].tobytes() == want.b[0].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(strata=st.integers(1, 6), m=st.integers(1, 4), extra_rows=st.integers(0, 2),
           seed=st.integers(0, 2**32 - 1))
    def test_batched_linear_algebra_matches_one_call_each(self, strata, m, extra_rows, seed):
        """One SVD of the stack and one two-column least-squares solve per stratum
        equal one call per matrix and per arm, bit for bit."""
        rng = np.random.default_rng(seed)
        a = rng.random((strata, m + extra_rows, m))
        b = np.einsum("sij,srj->sri", a, rng.random((strata, 2, m)))  # consistent
        col = find_colluders(ccm_graph(2, 2))[0]
        sys = ColluderSystem(col, ({},) * strata, a, b)
        _, sv = rank_test(sys)
        values = solve_colluder(sys).values
        for s in range(strata):
            assert sv[s].tobytes() == np.linalg.svd(a[s], compute_uv=False).tobytes()
            for r in (0, 1):
                one = np.linalg.lstsq(a[s], b[s, r], rcond=None)[0]
                assert values[s, r].tobytes() == one.tobytes()

    def test_stack_solves_as_each_stratum_alone(self):
        law = exact_random_law(example_graph("d", 3), np.random.default_rng(5))
        for each in (law, float_copy(law)):
            obs, g = observed_law(each), each.graph
            for col in find_colluders(g):
                sys = build_colluder_system(obs, col)
                rank, sv = rank_test(sys)
                values = solve_colluder(sys).values
                assert values.shape == (len(sys.strata), 2, 3)
                for s, z in enumerate(sys.strata):
                    one = ColluderSystem(col, (z,), sys.a[s:s + 1], sys.b[s:s + 1])
                    one_rank, one_sv = rank_test(one)
                    assert one_rank[0] == rank[s]
                    assert one_sv[0].tobytes() == sv[s].tobytes()
                    assert solve_colluder(one).values[0].tobytes() == values[s].tobytes()


def count_table(g, counts) -> ObservedLawTable:
    """The exact observed table of integer observed-cell ``counts`` over their total."""
    counts = np.asarray(counts).astype(np.int64)
    nums = counts.astype(object).reshape([a.size for a in observable_axes(g)])
    return ObservedLawTable(g, Rationals(nums, int(counts.sum())))


class TestIdentifiedCpts:
    """The whole full law of a CCM-family graph, read off its observed law."""

    @settings(max_examples=60, deadline=None)
    @given(mq=st.sampled_from([(m, q) for q in range(1, 5) for m in range(1, q + 1)]),
           seed=st.integers(0, 2**32 - 1))
    def test_exact_law_read_back_exactly(self, mq, seed):
        g = ccm_graph(*mq)
        law = exact_random_law(g, np.random.default_rng(seed))
        obs = observed_law(law)
        _, sv = rank_test(build_colluder_system(obs, find_colluders(g)[0]))
        assume(sv[0, -1] > 1e-6 * sv[0, 0])
        got = identified_cpts(obs)
        assert list(got) == list(law.cpts)
        for name, cpt in law.cpts.items():
            assert got[name].shape == cpt.shape
            assert all(type(x) is Fraction for x in got[name].flat)
            assert np.array_equal(got[name], cpt), name

    def test_parents_follow_declaration_order(self):
        # R_X declared before X: R_Y's CPT is indexed (R_X, X, R_Y).
        g = MissingDataGraph(
            [Vertex("R_X", R, 2), Vertex("Y", X1, 3), Vertex("R_Y", R, 2), Vertex("X", X1, 2)],
            [("X", "Y"), ("X", "R_Y"), ("R_X", "R_Y")], pairs=[("X", "R_X"), ("Y", "R_Y")])
        assert g.parents("R_Y") == ("R_X", "X")
        law = exact_random_law(g, np.random.default_rng(3))
        got = identified_cpts(observed_law(law))
        for name, cpt in law.cpts.items():
            assert np.array_equal(got[name], cpt), name

    def test_float_law_read_back_to_rounding(self):
        for m, q in [(2, 2), (3, 3), (2, 4), (4, 4)]:
            law = random_law(ccm_graph(m, q), seed=m * 10 + q)
            got = identified_cpts(observed_law(law))
            for name, cpt in law.cpts.items():
                assert got[name].dtype == float
                np.testing.assert_allclose(got[name], cpt, rtol=0, atol=1e-12)

    def test_independent_variables_are_rank_deficient(self):
        law = exact_random_law(ccm_graph(2, 2, dependency=False), np.random.default_rng(0))
        with pytest.raises(RankDeficiencyError):
            identified_cpts(observed_law(law))

    def test_exact_rank_deficiency_names_its_colluder(self):
        law = exact_random_law(ccm_graph(2, 2, dependency=False), np.random.default_rng(0))
        with pytest.raises(RankDeficiencyError) as err:
            identified_cpts(observed_law(law))
        assert err.value.signature() == ("{X, R_X} of R_Y", (), 1, 2)

    def test_float_table_keeps_the_numerical_rank_rule(self):
        # The float table's exact value has full rank; read exactly, it would
        # give p(R_Y = 0 | X = 0, R_X = 0) = -18.3.
        law = random_law(ccm_graph(2, 2, dependency=False), seed=1)
        with pytest.raises(RankDeficiencyError) as err:
            identified_cpts(observed_law(law))
        assert err.value.signature() == ("{X, R_X} of R_Y", (), 1, 2)
        assert len(err.value.singular_values) == 2

    def test_empty_event_is_refused_exact_and_float(self):
        g = ccm_graph(2, 2)
        counts = np.array(simstudy.sample_dataset(random_law(g, seed=2), 1000, 2).counts)
        counts = counts.reshape([a.size for a in observable_axes(g)])
        counts[0, :, 1, 1] = 0  # X = 0 never seen with R_X = R_Y = 1
        message = re.escape("positivity violated: event {X=0, R_X=1, R_Y=1} has zero mass "
                            "at stratum {}")
        for obs in (count_table(g, counts), ObservedLawTable(g, counts / counts.sum())):
            with pytest.raises(PositivityError, match=message):
                identified_cpts(obs)
        model = LikelihoodModel(g)
        for cells in (counts, counts.astype(np.int64)):
            assert plug_in(model, cells.reshape(1, -1)) == [None]

    @settings(max_examples=100, deadline=None)
    @given(mq=st.sampled_from([(m, q) for q in range(1, 5) for m in range(1, q + 1)]),
           seed=st.integers(0, 2**32 - 1), n=st.integers(20, 5000))
    def test_sampled_counts_read_exactly(self, mq, seed, n):
        # A sampled table's colluder system is inconsistent in general: a
        # square one is still solved exactly, so the law read off reproduces
        # the table, and an overdetermined one takes its exact least-squares
        # solution s, with J^T (J s - b) = 0.
        g, (m, q) = ccm_graph(*mq), mq
        law = exact_random_law(g, np.random.default_rng(seed))
        obs = count_table(g, simstudy.sample_dataset(law, n, seed).counts)
        try:
            cpts = identified_cpts(obs)
        except (PositivityError, RankDeficiencyError):
            reject()
        if m == q:
            assume(all(0 <= v <= 1 for c in cpts.values() for v in c.flat))
            assert np.array_equal(observed_law(CategoricalLaw(g, cpts)).values, obs.values)
            return
        p = obs.event_prob
        j_mat = np.array([[p({"X": j, "Y": k, "R_X": 1, "R_Y": 1}) for j in range(m)]
                          for k in range(q)], dtype=object)
        b = np.array([p({"Y": k, "R_X": 0, "R_Y": 1}) for k in range(q)], dtype=object)
        s = np.array([cpts["R_Y"][j, 0, 1] * p({"R_X": 0}) * p({"X": j, "R_X": 1})
                      / (p({"R_X": 1}) * p({"X": j, "R_X": 1, "R_Y": 1})) for j in range(m)],
                     dtype=object)
        assert not np.any(j_mat.T @ (j_mat @ s - b))

    @settings(max_examples=150, deadline=None)
    @given(mq=st.sampled_from([(m, q) for q in range(1, 5) for m in range(1, q + 1)]),
           dependency=st.booleans(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3000),
           emptied=st.sampled_from(["none", "X=0 at R=1", "R_X=0", "a cell"]))
    def test_float_read_agrees_with_the_exact_read(self, mq, dependency, seed, n, emptied):
        # Sampled tables, one of them emptied and, for m > 1, one with a singular J
        # (the counts at X = 1 copied from X = 0).  The float read reads the tables
        # the exact read reads; every entry but p(R_Y | X, R_X = 0) is the exact
        # entry rounded, and those are within 1e-10 of their row's largest entry: an
        # entry near 0 whose complement is near 1 loses digits to cancellation in any
        # float read.  The plug-in is None exactly where the exact read fails or
        # leaves (0, 1).
        g, (m, q) = ccm_graph(*mq, dependency=dependency), mq
        rng = np.random.default_rng(seed)
        shape = [a.size for a in observable_axes(g)]
        counts = np.stack([simstudy.sample_dataset(exact_random_law(g, rng), n, seed + k).counts
                           for k in range(4)])
        tables = counts.reshape(-1, *shape)
        if m > 1:
            tables[0, 1, :q, 1, 1] = tables[0, 0, :q, 1, 1]
        table = tables[int(rng.integers(len(tables)))]
        if emptied == "X=0 at R=1":
            table[0, :, 1, 1] = 0
        elif emptied == "R_X=0":
            table[:, :, 0] = 0
        elif emptied == "a cell":
            table.reshape(-1)[rng.choice(np.flatnonzero(table))] = 0
        assume(counts.any(axis=1).all())  # a sample has records
        read, cpts = count_cpts(g, counts)
        starts = plug_in(LikelihoodModel(g), counts)
        axis = g.parents("R_Y").index("R_X")
        for i, cell in enumerate(counts):
            try:
                want = identified_cpts(count_table(g, cell))
            except (PositivityError, RankDeficiencyError):
                assert i not in read and starts[i] is None
                continue
            want = {k: v.astype(float) for k, v in want.items()}
            got = {k: v[list(read).index(i)] for k, v in cpts.items()}
            assert (starts[i] is not None) == all(np.all((v > 0) & (v < 1)) for v in want.values())
            for name in ("X", "Y", "R_X"):
                assert got[name].tobytes() == want[name].tobytes()
            assert np.take(got["R_Y"], 1, axis).tobytes() == np.take(want["R_Y"], 1, axis).tobytes()
            arm, exact = np.take(got["R_Y"], 0, axis), np.take(want["R_Y"], 0, axis)
            assert np.all(np.abs(arm - exact) <= 1e-10 * np.abs(exact).max(axis=-1, keepdims=True))

    @pytest.mark.parametrize("graph, indicator", [(cross_censoring_graph(), "R_X"),
                                                  (example_graph("d", 3), "R_Z")])
    def test_graphs_outside_the_family_refused(self, graph, indicator):
        law = exact_random_law(graph, np.random.default_rng(1))
        with pytest.raises(GraphQueryError, match=f"CPT of {indicator} given"):
            identified_cpts(observed_law(law))

    @staticmethod
    def _two_variable_graph(directed, bidirected=()):
        return MissingDataGraph(
            [Vertex("X", X1, 2), Vertex("Y", X1, 2), Vertex("R_X", R, 2), Vertex("R_Y", R, 2)],
            directed, bidirected, pairs=[("X", "R_X"), ("Y", "R_Y")])

    @pytest.mark.parametrize("edge", [("X", "Y"), ("R_X", "R_Y"), ("R_X", "Y")])
    def test_bidirected_edges_refused(self, edge):
        # CCM(2, 2) with one bidirected edge added, read at a CCM(2, 2) law's table.
        g = self._two_variable_graph([("X", "Y"), ("X", "R_Y"), ("R_X", "R_Y")], [edge])
        obs = observed_law(exact_random_law(ccm_graph(2, 2), np.random.default_rng(1)))
        with pytest.raises(GraphQueryError, match=f"bidirected edges {edge[0]}<->{edge[1]}$"):
            identified_cpts(ObservedLawTable(g, obs.values))

    def test_graph_without_colluder_refused(self):
        g = self._two_variable_graph([("X", "Y"), ("X", "R_Y")])
        law = exact_random_law(g, np.random.default_rng(1))
        with pytest.raises(GraphQueryError, match="the graph has no colluder"):
            identified_cpts(observed_law(law))


class TestSoundness:
    """Population-level identification on every applicable example graph."""

    def _confounded_setup(self, key, seed):
        # Laws faithful to the bidirected edges: explicit latent parents are
        # sampled, then summed out of both the observed table and the oracle.
        if key == "a":
            extra_directed = [("U1", "X"), ("U1", "Y"), ("U2", "R_X"), ("U2", "R_Y")]
        elif key == "b":
            extra_directed = [("U1", "R_X"), ("U1", "R_Y"), ("U2", "X"), ("U2", "R_Y")]
        else:
            raise ValueError(key)
        aug = MissingDataGraph(
            [Vertex("U1", O, 2), Vertex("U2", O, 2), Vertex("X", X1, 2),
             Vertex("Y", X1, 2), Vertex("R_X", R, 2), Vertex("R_Y", R, 2)],
            [("X", "Y"), ("X", "R_Y"), ("R_X", "R_Y")] + extra_directed,
            pairs=[("X", "R_X"), ("Y", "R_Y")])
        law = random_law(aug, SimConstraints(exogenous_response_prob=0.75), seed=seed)
        obs_aug = observed_law(law)
        marginal = obs_aug.marginal(["X", "Y", "R_X", "R_Y"])
        obs = ObservedLawTable(ccm_graph(2, 2), marginal.values)

        joint = law.joint_table()
        vals = joint.values.astype(float)
        names = list(joint.names)

        def oracle(assignment, r):
            ix = [slice(None)] * len(names)
            ix[names.index("X")] = assignment["X"]
            ix[names.index("Y")] = assignment["Y"]
            ix[names.index("R_Y")] = 1
            ix[names.index("R_X")] = r
            num = vals[tuple(ix)].sum()
            ix[names.index("R_X")] = 1 - r
            return num / (num + vals[tuple(ix)].sum())

        return obs, ccm_graph(2, 2), oracle

    @pytest.mark.parametrize("key", ["a", "b"])
    def test_confounded_graphs(self, key):
        for seed in range(3):
            obs, g, oracle = self._confounded_setup(key, seed)
            col = find_colluders(g)[0]
            mech = colluder_mechanism(obs, col)
            for x in range(2):
                for y in range(2):
                    want = oracle({"X": x, "Y": y}, 0)
                    assert mech.values[x, y, 0] == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("key", ["d", "e", "f"])
    def test_multi_colluder_graphs(self, key):
        for seed in range(3):
            g = example_graph(key)
            law = random_law(g, seed=seed)
            obs = observed_law(law)
            for col in find_colluders(g):
                mech = colluder_mechanism(obs, col)
                oracle = mechanism_oracle(law, col.response_of_true)
                shape = [2, 2, 2]
                for idx in np.ndindex(*shape):
                    assignment = dict(zip(("X", "Y", "Z"), idx))
                    want = oracle(assignment, 0)
                    assert mech.values[idx + (0,)] == pytest.approx(want, abs=1e-8)


class TestClosedForm:
    def test_recovers_response_probabilities(self, setup_a):
        (a, b, c, d, e, f, g, h), law, obs, col = setup_a
        qty = quantities_from_observed(obs, col)
        p0, p1 = binary_closed_form(qty)
        assert p0 == pytest.approx(1 - d, abs=1e-12)
        assert p1 == pytest.approx(1 - f, abs=1e-12)

    def test_symmetric_law(self):
        law = appendix_a_law(0.3, 0.4, 0.6, 0.25, 0.5, 0.25, 0.45, 0.2)
        obs = observed_law(law)
        qty = quantities_from_observed(obs, find_colluders(law.graph)[0])
        p0, p1 = binary_closed_form(qty)
        assert p0 == pytest.approx(p1, abs=1e-12)
        assert p0 == pytest.approx(0.75, abs=1e-12)

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            a, b, c, d, e, f, g, h = appendix_a_params(rng)
            law = appendix_a_law(a, b, c, d, e, f, g, h)
            obs = observed_law(law)
            qty = quantities_from_observed(obs, find_colluders(law.graph)[0])
            got = binary_closed_form(qty)
            want = binary_matrix_oracle(qty)
            assert np.allclose(got, want, atol=1e-12)

    def test_equal_conditionals_rejected(self):
        with pytest.raises(LawError, match="dependency"):
            binary_closed_form(BinaryColluderQuantities(0.3, 0.4, 0.5, 0.5, 0.1, 0.1))

    def test_out_of_range_quantities_rejected(self):
        with pytest.raises(LawError, match="strictly inside"):
            BinaryColluderQuantities(0.0, 0.4, 0.5, 0.6, 0.1, 0.1)


class TestOrFactorization:
    def test_identity_on_colluder_graph(self):
        g = ccm_graph(2, 2)
        for seed in range(10):
            law = random_law(g, seed=seed)
            for ordering in (["R_X", "R_Y"], ["R_Y", "R_X"]):
                assert or_factorization_check(law, ordering) <= 1e-10

    def test_single_indicator_trivial(self):
        g = MissingDataGraph(
            [Vertex("X", X1, 2), Vertex("R_X", R, 2)], pairs=[("X", "R_X")])
        law = random_law(g, seed=1)
        assert or_factorization_check(law, ["R_X"]) == 0.0

    def test_three_indicators_both_orderings(self):
        g = example_graph("d")
        for seed in range(5):
            law = random_law(g, seed=seed)
            assert or_factorization_check(law, ["R_X", "R_Y", "R_Z"]) <= 1e-10
            assert or_factorization_check(law, ["R_Z", "R_Y", "R_X"]) <= 1e-10

    def test_positivity_enforced(self):
        g = MissingDataGraph(
            [Vertex("X", X1, 2), Vertex("R_X", R, 2)],
            [("X", "R_X")], pairs=[("X", "R_X")])
        law = CategoricalLaw(g, {"X": np.array([0.5, 0.5]),
                                 "R_X": np.array([[1.0, 0.0], [0.5, 0.5]])})
        with pytest.raises(PositivityError):
            or_factorization_check(law, ["R_X"])

    def test_bad_ordering_rejected(self, setup_a):
        _, law, _, _ = setup_a
        with pytest.raises(LawError, match="permutation"):
            or_factorization_check(law, ["R_X"])


class TestVerdicts:
    def test_example_graph_decisions(self):
        for key in "abdef":
            v = decide_full_law(example_graph(key))
            assert v.identifiable, key
            assert v.rank_condition_pending, key
        v = decide_full_law(example_graph("c"))
        assert not v.identifiable
        assert [r.kind for r in v.reasons] == ["m-separation"]

    def test_ternary_binary_is_structurally_deficient(self):
        v = decide_full_law(ccm_graph(3, 2))
        assert not v.identifiable
        assert [r.kind for r in v.reasons] == ["structural-rank"]

    def test_self_censoring_detected(self):
        g = MissingDataGraph(
            [Vertex("X", X1, 2), Vertex("Y", X1, 2), Vertex("R_X", R, 2),
             Vertex("R_Y", R, 2)],
            [("X", "Y"), ("X", "R_Y"), ("R_X", "R_Y"), ("Y", "R_Y")],
            pairs=[("X", "R_X"), ("Y", "R_Y")])
        v = decide_full_law(g)
        assert not v.identifiable
        assert any(r.kind == "self-censoring" for r in v.reasons)

    def test_no_colluders_no_pending_rank(self):
        g = MissingDataGraph(
            [Vertex("X", X1, 2), Vertex("R_X", R, 2)], pairs=[("X", "R_X")])
        v = decide_full_law(g)
        assert v.identifiable and not v.rank_condition_pending

    def test_continuous_vertex_outside_colluder_is_fine(self):
        g = MissingDataGraph(
            [Vertex("W", O, None), Vertex("X", X1, 2), Vertex("Y", X1, 2),
             Vertex("R_X", R, 2), Vertex("R_Y", R, 2)],
            [("W", "X"), ("X", "Y"), ("X", "R_Y"), ("R_X", "R_Y")],
            pairs=[("X", "R_X"), ("Y", "R_Y")])
        v = decide_full_law(g)
        assert v.identifiable and v.rank_condition_pending

    def test_continuous_colluder_variable_errors(self):
        g = MissingDataGraph(
            [Vertex("X", X1, None), Vertex("Y", X1, 2), Vertex("R_X", R, 2),
             Vertex("R_Y", R, 2)],
            [("X", "Y"), ("X", "R_Y"), ("R_X", "R_Y")],
            pairs=[("X", "R_X"), ("Y", "R_Y")])
        with pytest.raises(GraphQueryError, match="category counts"):
            decide_full_law(g)

    def test_cross_censoring_fails_m_separation(self):
        v = decide_full_law(cross_censoring_graph(2, 2))
        assert not v.identifiable
        assert any(r.kind == "m-separation" for r in v.reasons)

    def test_json_shape(self):
        v = decide_full_law(example_graph("c"))
        doc = v.to_json()
        assert set(doc) == {"decision", "reasons", "rank_condition_pending"}
        assert doc["reasons"][0].keys() == {"kind", "colluder", "detail"}


class TestObservationalInvariance:
    def test_cross_censoring_pair_fails_identically(self):
        pair = appendix_c_pair()
        g = pair.law1.graph
        col = find_colluders(g)[0]
        errors = []
        for law in (pair.law1, pair.law2):
            with pytest.raises(ConditionalIndependenceError) as exc:
                colluder_mechanism(observed_law(law), col)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]

    def test_ternary_pair_rank_failures_identical(self):
        pair = appendix_b_pair(Fraction(3, 10), Fraction(2, 5), Fraction(1, 5),
                               Fraction(3, 10), Fraction(2, 5), Fraction(1, 2),
                               Fraction(3, 5), Fraction(7, 10), Fraction(4, 10))
        g = pair.law1.graph
        col = find_colluders(g)[0]
        sigs = []
        for law in (pair.law1, pair.law2):
            with pytest.raises(RankDeficiencyError) as exc:
                colluder_mechanism(observed_law(law), col)
            sigs.append(exc.value.signature())
        assert sigs[0] == sigs[1]


class TestBothStrategiesAgree:
    def test_two_identification_routes_rebuild_the_same_full_law(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, b, c, d, e, f, g, h = appendix_a_params(rng, min_ch_gap=0.05)
            law = appendix_a_law(a, b, c, d, e, f, g, h)
            graph = law.graph
            obs = observed_law(law)
            col = find_colluders(graph)[0]

            # pieces identified directly from the observed table
            a_hat = float(obs.event_prob({"R_X": 0}))
            b_hat = float(obs.event_prob({"X": 0, "R_X": 1})) / float(obs.event_prob({"R_X": 1}))
            cx = [float(obs.event_prob({"X": x, "R_X": 1, "R_Y": 1})) for x in (0, 1)]
            c_hat = float(obs.event_prob({"X": 0, "Y": 0, "R_X": 1, "R_Y": 1})) / cx[0]
            h_hat = float(obs.event_prob({"X": 1, "Y": 0, "R_X": 1, "R_Y": 1})) / cx[1]
            e_hat = float(obs.event_prob({"X": 0, "R_X": 1, "R_Y": 0})) / ((1 - a_hat) * b_hat)
            g_hat = float(obs.event_prob({"X": 1, "R_X": 1, "R_Y": 0})) / ((1 - a_hat) * (1 - b_hat))

            # route 1: closed form for the unobserved response arm
            qty = quantities_from_observed(obs, col)
            ry0_route1 = binary_closed_form(qty)

            # route 2: the solved mechanism, moved to the unobserved arm via
            # the odds ratio against the fully observed arm
            mech = colluder_mechanism(obs, col)
            ry0_route2 = []
            for x in (0, 1):
                mu0 = mech.values[x, 0, 0]
                kappa = 1 - (g_hat if x else e_hat)
                ry0_route2.append(mu0 / (1 - mu0) * (1 - a_hat) / a_hat * kappa)

            assert np.allclose(ry0_route1, ry0_route2, atol=1e-8)

            def rebuild(ry0):
                return CategoricalLaw(graph, {
                    "X": np.array([b_hat, 1 - b_hat]),
                    "Y": np.array([[c_hat, 1 - c_hat], [h_hat, 1 - h_hat]]),
                    "R_X": np.array([a_hat, 1 - a_hat]),
                    "R_Y": np.array([
                        [[1 - ry0[0], ry0[0]], [e_hat, 1 - e_hat]],
                        [[1 - ry0[1], ry0[1]], [g_hat, 1 - g_hat]]]),
                })

            truth = law.joint_table().values.astype(float)
            for ry0 in (ry0_route1, ry0_route2):
                got = rebuild(list(ry0)).joint_table().values.astype(float)
                assert np.allclose(got, truth, atol=1e-8)
