import json
from fractions import Fraction

import numpy as np
import pytest

from colluder_lab import (CategoricalLaw, LawError, SimConstraints,
                          SimReport, SimScenario, VertexRole, ccm_graph,
                          random_law, run_scenario, sample_dataset, simstudy)
from colluder_lab.oracles import _cross_censoring_law, _APPENDIX_C_PARAMS

O = VertexRole.FULLY_OBSERVED


class TestSampleDataset:
    def test_point_mass_law_repeats_one_record(self):
        g = ccm_graph(2, 2)
        law = CategoricalLaw(g, {
            "X": np.array([1.0, 0.0]),
            "Y": np.array([[1.0, 0.0], [1.0, 0.0]]),
            "R_X": np.array([0.0, 1.0]),
            "R_Y": np.array([[[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]]),
        })
        data = sample_dataset(law, 50, seed=0)
        assert data.n_records == 50
        assert np.array_equal(data.rows, np.tile([0, 0, 1, 1], (50, 1)))

    def test_cross_censoring_law_frequencies(self):
        law = _cross_censoring_law(*_APPENDIX_C_PARAMS[0])
        data = sample_dataset(law, 1_000_000, seed=1)
        both_missing = ((data.rows[:, 0] == 2) & (data.rows[:, 1] == 2)).mean()
        assert both_missing == pytest.approx(float(Fraction(69, 200)), abs=0.002)

    def test_full_response_law_has_no_missing_values(self):
        g = ccm_graph(2, 2)
        law = CategoricalLaw(g, {
            "X": np.array([0.3, 0.7]),
            "Y": np.array([[0.2, 0.8], [0.6, 0.4]]),
            "R_X": np.array([0.0, 1.0]),
            "R_Y": np.array([[[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]]),
        })
        data = sample_dataset(law, 500, seed=2)
        assert (data.rows[:, 0] != 2).all() and (data.rows[:, 1] != 2).all()

    def test_empirical_frequencies_within_four_standard_errors(self):
        g = ccm_graph(2, 2)
        law = random_law(g, seed=3)
        n = 1_000_000
        data = sample_dataset(law, n, seed=4)
        from colluder_lab import observed_law
        obs = observed_law(law)
        patterns, weights = data.patterns()
        emp = {tuple(row): w / n for row, w in zip(patterns.tolist(), weights)}
        for idx in np.ndindex(*obs.values.shape):
            p = float(obs.values[idx])
            se = np.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(emp.get(idx, 0.0) - p) <= 4 * se + 1e-9


class TestScenario:
    def test_round_trip_json(self):
        sc = SimScenario(m=2, q=2, sample_sizes=(100, 200), replications=3, seed=5,
                         constraints=SimConstraints(dependency_gap=0.2))
        assert SimScenario.from_json(sc.to_json()) == sc

    def test_unknown_keys_rejected(self):
        with pytest.raises(LawError, match="unknown scenario"):
            SimScenario.from_json({"m": 2, "q": 2, "bogus": 1})

    def test_wide_design_rejected(self):
        with pytest.raises(LawError, match="m <= q"):
            SimScenario(m=3, q=2)

    def test_zero_replications_rejected(self):
        with pytest.raises(LawError, match="replications"):
            SimScenario(replications=0)


class TestRunScenario:
    def test_single_replication_deterministic(self):
        sc = SimScenario(m=2, q=2, sample_sizes=(500,), replications=1, seed=6)
        r1 = run_scenario(sc)
        r2 = run_scenario(sc)
        assert json.dumps(r1.to_json(), sort_keys=True) == \
            json.dumps(r2.to_json(), sort_keys=True)

    def test_report_round_trip(self):
        sc = SimScenario(m=2, q=2, sample_sizes=(500,), replications=2, seed=7)
        rep = run_scenario(sc)
        doc = json.loads(json.dumps(rep.to_json()))
        rep2 = SimReport.from_json(doc)
        assert rep2.to_json() == rep.to_json()

    def test_groups_present_and_ordered(self):
        sc = SimScenario(m=2, q=2, sample_sizes=(400,), replications=2, seed=8)
        rep = run_scenario(sc)
        groups = {s.group for s in rep.summaries}
        assert groups == {"colluder", "other"}
        assert rep.summary("colluder", 400).label == "p(R_Y=1 | X, R_X)"
        assert rep.summary("other", 400).label == "p(R_X=1), p(X), p(Y | X)"
        table = rep.format_table()
        assert "RMSE" in table and "p(R_Y=1 | X, R_X)" in table

    def test_threads_give_identical_report(self):
        sc = SimScenario(m=2, q=2, sample_sizes=(300,), replications=4, seed=9)
        seq = run_scenario(sc, threads=1)
        par = run_scenario(sc, threads=2)
        assert json.dumps(seq.to_json(), sort_keys=True) == \
            json.dumps(par.to_json(), sort_keys=True)

    @pytest.mark.skipif(not simstudy._openblas_thread_controls(),
                        reason="no OpenBLAS thread control symbol is loaded")
    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        monkeypatch.setattr(simstudy, "_run_cell", _cell_reporting_blas_threads)
        sc = SimScenario(m=2, q=2, sample_sizes=(300,), replications=4, seed=9)
        rep = run_scenario(sc, threads=2)
        assert {v["bias"] for v in rep.per_parameter[300].values()} == {1.0}

    def test_quaternary_rmse_shrinks_with_sample_size(self):
        sc = SimScenario(m=4, q=4, sample_sizes=(1000, 100000), replications=3,
                         seed=10, constraints=SimConstraints(dependency_gap=0.3))
        rep = run_scenario(sc)
        assert rep.summary("colluder", 100000).rmse_mean < \
            rep.summary("colluder", 1000).rmse_mean

    def test_colluder_group_harder_than_other(self):
        sc = SimScenario(m=2, q=2, sample_sizes=(1000,), replications=5, seed=11)
        rep = run_scenario(sc)
        assert rep.summary("colluder", 1000).rmse_mean >= \
            rep.summary("other", 1000).rmse_mean


def _cell_reporting_blas_threads(scenario, n_idx, rep):
    """Stands in for a simulation cell: every error entry is the worker's
    largest OpenBLAS thread count."""
    threads = max(get() for _, get in simstudy._openblas_thread_controls())
    n_params = len(simstudy._parameter_layout(scenario.graph()))
    return np.full(n_params, float(threads))
