import contextlib
import json
import multiprocessing
import os
from fractions import Fraction

import numpy as np
import pytest

from colluder_lab import (CategoricalLaw, ColluderLabError, LawError, SimConstraints,
                          SimScenario, VertexRole, ccm_graph,
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
        assert (data.rows.tolist(), data.weights.tolist()) == ([[0, 0, 1, 1]], [50])

    def test_cross_censoring_law_frequencies(self):
        law = _cross_censoring_law(*_APPENDIX_C_PARAMS[0])
        data = sample_dataset(law, 1_000_000, seed=1)
        both_missing = data.weights[(data.rows[:, 0] == 2) & (data.rows[:, 1] == 2)].sum() / 1e6
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
        shape = obs.values.shape
        emp = np.bincount(np.ravel_multi_index(data.rows.T, shape), weights=data.weights,
                          minlength=obs.values.size).reshape(shape) / n
        for idx in np.ndindex(*shape):
            p = float(obs.values[idx])
            se = np.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(emp[idx] - p) <= 4 * se + 1e-9


class TestScenario:
    def test_round_trip_json(self):
        sc = SimScenario(m=2, q=2, sample_sizes=(100, 200), replications=3, seed=5,
                         constraints=SimConstraints(dependency_gap=0.2))
        assert SimScenario.from_json(sc.to_json()) == sc

    def test_max_tries_round_trips(self):
        for constraints, want in ((SimConstraints(max_tries=5), 5), (SimConstraints(), 10_000)):
            sc = SimScenario(m=2, q=2, sample_sizes=(100,), replications=2, seed=5,
                             constraints=constraints)
            doc = json.loads(json.dumps(sc.to_json()))
            assert doc["constraints"]["max_tries"] == want
            assert SimScenario.from_json(doc) == sc

    def test_unknown_keys_rejected(self):
        with pytest.raises(LawError, match="unknown scenario"):
            SimScenario.from_json({"m": 2, "q": 2, "bogus": 1})

    def test_wide_design_rejected(self):
        with pytest.raises(LawError, match="m <= q"):
            SimScenario(m=3, q=2)

    def test_zero_replications_rejected(self):
        with pytest.raises(LawError, match="replications"):
            SimScenario(replications=0)

    @pytest.mark.parametrize("bad, match", [
        ({"restarts": 0}, "restarts must be at least 1"),
        ({"restarts": -3}, "restarts must be at least 1"),
        ({"sample_sizes": []}, "sample_sizes must not be empty"),
        ({"max_failure_rate": -1.0}, r"max_failure_rate must lie in \[0, 1\]"),
        ({"max_failure_rate": 1.5}, r"max_failure_rate must lie in \[0, 1\]"),
        ({"max_failure_rate": "x"}, r"max_failure_rate must lie in \[0, 1\], got 'x'"),
        ({"max_failure_rate": float("nan")}, r"max_failure_rate must lie in \[0, 1\]"),
        ({"max_failure_rate": None}, r"max_failure_rate must lie in \[0, 1\]"),
    ])
    def test_bad_settings_rejected(self, bad, match):
        with pytest.raises(LawError, match=match):
            SimScenario(**bad)
        with pytest.raises(LawError, match=match):
            SimScenario.from_json({"m": 2, "q": 2, **bad})

    @pytest.mark.parametrize("bad, match", [
        ({"sample_sizes": [300.9]}, "sample size must be an integer, got 300.9"),
        ({"replications": 2.5}, "replications must be an integer"),
        ({"restarts": 1.5}, "restarts must be an integer"),
        ({"m": 2.0}, "m must be an integer"),
        ({"seed": None}, "seed must be an integer"),
        ({"seed": "7"}, "seed must be an integer"),
        ({"seed": -1}, "seed must be non-negative"),
    ])
    def test_non_integer_and_negative_seed_fields_rejected(self, bad, match):
        with pytest.raises(LawError, match=match):
            SimScenario.from_json({"m": 2, "q": 2, **bad})
        with pytest.raises(LawError, match=match):
            SimScenario(**bad)

    @pytest.mark.parametrize("text", ["5", "[]", '"ccm22"'])
    def test_scenario_document_must_be_an_object(self, text):
        with pytest.raises(LawError, match="scenario must be a JSON object"):
            SimScenario.from_json(text)

    def test_scalar_sample_sizes_rejected(self):
        with pytest.raises(LawError, match="sample_sizes must be a list"):
            SimScenario.from_json({"m": 2, "q": 2, "sample_sizes": 300})

    @pytest.mark.parametrize("bad, match", [
        ({"max_tries": 2.5}, "max_tries must be an integer"),
        ({"max_tries": True}, "max_tries must be an integer"),
        ({"min_prob": "0.1"}, "min_prob must be a finite real number"),
        ({"min_prob": float("nan")}, "min_prob must be a finite real number"),
        ({"response_interval": [0.7]}, "response_interval must be two numbers"),
        (5, "constraints must be a JSON object"),
        ({"max_tries": 0}, "max_tries must be at least 1"),
    ])
    def test_bad_constraints_rejected(self, bad, match):
        with pytest.raises(LawError, match=match):
            SimScenario.from_json({"m": 2, "q": 2, "constraints": bad})

    def test_failure_rate_bounds_accepted(self):
        for rate in (0.0, 1.0):
            assert SimScenario(max_failure_rate=rate).max_failure_rate == rate


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
        assert doc == rep.to_json()

    def test_report_round_trip_keeps_max_tries(self):
        sc = SimScenario(m=2, q=2, sample_sizes=(300,), replications=1, seed=7,
                         constraints=SimConstraints(max_tries=2_000))
        doc = json.loads(json.dumps(run_scenario(sc).to_json()))
        assert SimScenario.from_json(doc["scenario"]) == sc

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

    def test_worker_counts_give_identical_reports(self):
        # Seven cells split unevenly over two and three workers.
        sc = SimScenario(m=2, q=2, sample_sizes=(300,), replications=7, seed=12,
                         max_failure_rate=1.0)
        reports = {json.dumps(run_scenario(sc, threads=t).to_json(), sort_keys=True)
                   for t in (1, 2, 3)}
        assert len(reports) == 1

    def test_batch_cap_gives_identical_report(self, monkeypatch):
        sc = SimScenario(m=2, q=2, sample_sizes=(300, 500), replications=3, seed=13,
                         max_failure_rate=1.0)
        whole = json.dumps(run_scenario(sc).to_json(), sort_keys=True)
        monkeypatch.setattr(simstudy, "_BATCH_CELLS", 4)
        assert json.dumps(run_scenario(sc).to_json(), sort_keys=True) == whole

    @pytest.mark.skipif(not simstudy._openblas_thread_controls(),
                        reason="no OpenBLAS thread control symbol is loaded")
    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        monkeypatch.setattr(simstudy, "_run_cells", _cells_reporting_blas_threads)
        sc = SimScenario(m=2, q=2, sample_sizes=(300,), replications=4, seed=9)
        rep = run_scenario(sc, threads=2)
        assert {v["bias"] for v in rep.per_parameter[300].values()} == {1.0}

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, threads):
        sc = SimScenario(m=2, q=2, sample_sizes=(300,), replications=1, seed=9)
        with pytest.raises(ColluderLabError, match="threads must be at least 1"):
            run_scenario(sc, threads=threads)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_caller_fits_the_first_share(self, monkeypatch, threads):
        # One cell per sample size, so each share's bias is its process id.  Every
        # share waits until all are in flight, so no worker can take two of them.
        barrier = multiprocessing.get_context("fork").Barrier(threads)
        monkeypatch.setattr(simstudy, "_run_cells", _cells_reporting(os.getpid, barrier))
        sizes = tuple(range(300, 300 + threads))
        sc = SimScenario(m=2, q=2, sample_sizes=sizes, replications=1, seed=9)
        rep = run_scenario(sc, threads=threads)
        pids = [{v["bias"] for v in rep.per_parameter[n].values()} for n in sizes]
        assert all(len(p) == 1 for p in pids)
        pids = [p.pop() for p in pids]
        assert pids[0] == os.getpid()
        assert len(set(pids)) == threads

    @pytest.mark.skipif(not simstudy._openblas_thread_controls()
                        or not os.path.isdir("/proc/self/task"),
                        reason="needs OpenBLAS thread control and /proc/self/task")
    def test_forked_worker_starts_no_blas_threads(self, monkeypatch):
        # A set_num_threads call after a fork rebuilds OpenBLAS's spinning pool.
        monkeypatch.setattr(simstudy, "_run_cells",
                            _cells_reporting(lambda: len(os.listdir("/proc/self/task"))))
        sc = SimScenario(m=2, q=2, sample_sizes=(300, 301), replications=1, seed=9)
        rep = run_scenario(sc, threads=2)
        assert {v["bias"] for v in rep.per_parameter[301].values()} == {1.0}

    def test_caller_share_error_propagates(self, monkeypatch):
        monkeypatch.setattr(simstudy, "_run_cells", _cells_failing_in(os.getpid()))
        sc = SimScenario(m=2, q=2, sample_sizes=(300,), replications=4, seed=9)
        with pytest.raises(RuntimeError, match="share failed"):
            run_scenario(sc, threads=2)

    @pytest.mark.skipif(not simstudy._openblas_thread_controls(),
                        reason="no OpenBLAS thread control symbol is loaded")
    @pytest.mark.parametrize("fail", [False, True])
    def test_caller_blas_threads_restored(self, monkeypatch, fail):
        if fail:
            monkeypatch.setattr(simstudy, "_run_cells", _cells_failing_in(os.getpid()))
        controls = simstudy._openblas_thread_controls()
        original = [get() for _, get in controls]
        for set_threads, _ in controls:
            set_threads(2)
        try:
            before = [get() for _, get in controls]
            sc = SimScenario(m=2, q=2, sample_sizes=(300,), replications=4, seed=9)
            with pytest.raises(RuntimeError) if fail else contextlib.nullcontext():
                run_scenario(sc, threads=2)
            assert [get() for _, get in controls] == before
        finally:
            for (set_threads, _), count in zip(controls, original):
                set_threads(count)

    def test_non_converged_replications_counted_and_excluded(self, monkeypatch):
        sc = SimScenario(m=2, q=2, sample_sizes=(300, 600), replications=4, seed=2,
                         max_failure_rate=0.25)
        cells = [(n, r) for n in range(2) for r in range(4)]
        errors = dict(zip(cells, simstudy._run_cells(sc, cells)))
        run_cells = simstudy._run_cells

        def one_failure(scenario, cells):
            return [None if c == (0, 1) else e for c, e in zip(cells, run_cells(scenario, cells))]

        monkeypatch.setattr(simstudy, "_run_cells", one_failure)
        report = run_scenario(sc)
        assert report.failures == {300: 1, 600: 0}
        assert "n=300: 1, n=600: 0" in report.format_table()
        kept = np.array([errors[(0, r)] for r in (0, 2, 3)])
        assert [v["bias"] for v in report.per_parameter[300].values()] == \
            [float(b) for b in kept.mean(axis=0)]

    def test_failures_above_the_rate_abort(self, monkeypatch):
        sc = SimScenario(m=2, q=2, sample_sizes=(300, 600), replications=4, seed=2,
                         max_failure_rate=0.25)
        run_cells = simstudy._run_cells

        def two_failures(scenario, cells):
            return [None if c in ((1, 0), (1, 3)) else e
                    for c, e in zip(cells, run_cells(scenario, cells))]

        monkeypatch.setattr(simstudy, "_run_cells", two_failures)
        with pytest.raises(ColluderLabError,
                           match="2/4 replications did not converge at n=600"):
            run_scenario(sc)

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


def _cells_reporting_blas_threads(scenario, cells):
    """Stands in for a worker's batch of simulation cells: every error entry
    is the worker's largest OpenBLAS thread count."""
    threads = max(get() for _, get in simstudy._openblas_thread_controls())
    n_params = len(simstudy._parameter_layout(scenario.graph()))
    return [np.full(n_params, float(threads)) for _ in cells]


def _cells_reporting(measure, barrier=None):
    """A stand-in for a share of simulation cells: every error entry is
    ``measure()`` taken in the process that fits the share, after waiting at
    ``barrier`` when one is given."""
    def run_cells(scenario, cells):
        if barrier is not None:
            barrier.wait(timeout=60)
        n_params = len(simstudy._parameter_layout(scenario.graph()))
        return [np.full(n_params, float(measure())) for _ in cells]
    return run_cells


def _cells_failing_in(pid):
    """A stand-in for a share of simulation cells that raises in process ``pid``
    and reports the process id elsewhere."""
    report = _cells_reporting(os.getpid)

    def run_cells(scenario, cells):
        if os.getpid() == pid:
            raise RuntimeError("share failed")
        return report(scenario, cells)
    return run_cells
