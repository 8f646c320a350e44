import ast
import contextlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colluder_lab import (CategoricalLaw, ColluderLabError, LawError, LikelihoodModel,
                          ObservedLawTable, SimConstraints, SimScenario, VertexRole,
                          ccm_graph, identified_cpts, observable_axes, random_law,
                          run_scenario, sample_dataset, simstudy)
from colluder_lab import estimate
from colluder_lab.estimate import maximize, plug_in, starting_points
from colluder_lab.oracles import _cross_censoring_law, _APPENDIX_C_PARAMS
from conftest import summary

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
        sc = SimScenario(m=2, q=2, sample_sizes=(500, 100000), replications=2, seed=7)
        rep = run_scenario(sc)
        doc = json.loads(json.dumps(rep.to_json()))
        assert doc == rep.to_json()
        assert doc["certified"] == {"500": rep.certified[500], "100000": 2}
        assert f"n=500: {rep.certified[500]}, n=100000: 2" in rep.format_table()

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
        assert summary(rep, "colluder", 400).label == "p(R_Y=1 | X, R_X)"
        assert summary(rep, "other", 400).label == "p(R_X=1), p(X), p(Y | X)"
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

    def test_mixed_cells_give_identical_reports(self, monkeypatch, tmp_path):
        # Five cells at n = 300 are left to climb, split unevenly over two and three
        # processes; every process that climbs a share writes its id.
        sc = SimScenario(m=2, q=2, sample_sizes=(300, 100_000), replications=8, seed=12,
                         max_failure_rate=1.0)
        climb_cells, pids = simstudy._climb_cells, tmp_path / "pids"

        def recording(scenario, model, climbs):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return climb_cells(scenario, model, climbs)

        monkeypatch.setattr(simstudy, "_climb_cells", recording)
        reports = set()
        for threads in (1, 2, 3):
            pids.write_text("")
            report = run_scenario(sc, threads=threads)
            assert report.certified == {300: 3, 100_000: 8}
            climbed = set(pids.read_text().split())
            assert str(os.getpid()) in climbed and len(climbed) == threads
            reports.add(json.dumps(report.to_json(), sort_keys=True))
        assert len(reports) == 1

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_settled_study_forks_nothing(self, monkeypatch):
        # The certificate settles every cell of sim-ccm22-pool's operation, so a
        # threads=2 study has no climb to share: it starts no child and sets no
        # OpenBLAS thread count, which would rebuild the caller's BLAS pool.
        sc = SimScenario.from_json({**_design("ccm22.json").to_json(),
                                    "sample_sizes": [100_000], "replications": 16})
        serial = run_scenario(sc)
        assert serial.certified == {100_000: 16}

        def no_child(*args, **kwargs):
            raise AssertionError("a study with no climb left started a child")

        calls = []
        controls = tuple((lambda n, set_threads=set_threads: calls.append(n) or set_threads(n),
                          get) for set_threads, get in simstudy._openblas_thread_controls())
        monkeypatch.setattr(multiprocessing.get_context("fork"), "Process", no_child)
        monkeypatch.setattr(simstudy, "_openblas_thread_controls", lambda: controls)
        before = ([get() for _, get in controls], len(os.listdir("/proc/self/task")))
        report = run_scenario(sc, threads=2)
        assert ([get() for _, get in controls], len(os.listdir("/proc/self/task"))) == before
        assert calls == []
        assert json.dumps(report.to_json(), sort_keys=True) == \
            json.dumps(serial.to_json(), sort_keys=True)

    def test_batch_cap_gives_identical_report(self, monkeypatch):
        sc = SimScenario(m=2, q=2, sample_sizes=(300, 500), replications=3, seed=13,
                         max_failure_rate=1.0)
        whole = json.dumps(run_scenario(sc).to_json(), sort_keys=True)
        monkeypatch.setattr(simstudy, "_BATCH_CELLS", 4)
        assert json.dumps(run_scenario(sc).to_json(), sort_keys=True) == whole

    @pytest.mark.parametrize("sample_sizes, certified", [((100_000,), {100_000: 8}),
                                                         ((300, 100_000), {300: 3, 100_000: 8})])
    def test_one_likelihood_model_per_study(self, monkeypatch, sample_sizes, certified):
        # The model that labels the report's parameters also fits every cell, in the
        # caller and in a forked share; the second study leaves five climbs to share.
        sc = SimScenario(m=2, q=2, sample_sizes=sample_sizes, replications=8, seed=12,
                         max_failure_rate=1.0)
        builds, init = [], LikelihoodModel.__init__

        def counting(self, graph):
            builds.append(graph)
            init(self, graph)

        monkeypatch.setattr(LikelihoodModel, "__init__", counting)
        assert run_scenario(sc, threads=2).certified == certified
        assert len(builds) == 1

    @pytest.mark.skipif(not simstudy._openblas_thread_controls(),
                        reason="no OpenBLAS thread control symbol is loaded")
    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        monkeypatch.setattr(simstudy, "_climb_cells", _cells_reporting_blas_threads)
        sc = SimScenario(m=2, q=3, sample_sizes=(300,), replications=4, seed=9)
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
        monkeypatch.setattr(simstudy, "_climb_cells", _cells_reporting(os.getpid, barrier))
        sizes = tuple(range(300, 300 + threads))
        sc = SimScenario(m=2, q=3, sample_sizes=sizes, replications=1, seed=9)
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
        monkeypatch.setattr(simstudy, "_climb_cells",
                            _cells_reporting(lambda: len(os.listdir("/proc/self/task"))))
        sc = SimScenario(m=2, q=3, sample_sizes=(300, 301), replications=1, seed=9)
        rep = run_scenario(sc, threads=2)
        assert {v["bias"] for v in rep.per_parameter[301].values()} == {1.0}

    def test_caller_share_error_propagates(self, monkeypatch):
        monkeypatch.setattr(simstudy, "_climb_cells", _cells_failing_in(os.getpid()))
        sc = SimScenario(m=2, q=3, sample_sizes=(300,), replications=4, seed=9)
        with pytest.raises(RuntimeError, match="share failed"):
            run_scenario(sc, threads=2)

    @pytest.mark.parametrize("threads, first_forked", [(2, (0, 2)), (3, (0, 1))])
    def test_worker_share_error_reaches_caller(self, monkeypatch, threads, first_forked):
        # Every forked share raises; the caller reads share 2 first.
        monkeypatch.setattr(simstudy, "_climb_cells", _cells_failing_outside(os.getpid()))
        sc = SimScenario(m=2, q=3, sample_sizes=(300,), replications=4, seed=9)
        with pytest.raises(LookupError, match=re.escape(f"share from {first_forked} failed")):
            run_scenario(sc, threads=threads)

    @pytest.mark.parametrize("fail_in, error", [(None, None), ("caller", RuntimeError),
                                                ("worker", LookupError)])
    def test_no_child_outlives_the_study(self, monkeypatch, fail_in, error):
        if fail_in is not None:
            failing = _cells_failing_in if fail_in == "caller" else _cells_failing_outside
            monkeypatch.setattr(simstudy, "_climb_cells", failing(os.getpid()))
        sc = SimScenario(m=2, q=3, sample_sizes=(300,), replications=4, seed=9)
        with pytest.raises(error) if error else contextlib.nullcontext():
            run_scenario(sc, threads=3)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("share, status, stderr", [
        # A worker that dies without sending its results.
        ("os._exit(3) if os.getpid() != caller else climb_cells(scenario, model, climbs)", "1",
         "error: share 2 of the study: its worker process exited with code 3 "
         "before sending results\n"),
        # A caller share that raises while its worker is still fitting.
        ("time.sleep(120) if os.getpid() != caller else 1 / 0", "ZeroDivisionError", ""),
    ])
    def test_failed_study_stops_its_workers(self, tmp_path, share, status, stderr):
        # In a child interpreter with a deadline, so that a study waiting on its
        # workers fails the test instead of hanging the suite.
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(SimScenario(m=2, q=3, sample_sizes=(300,),
                                                   replications=4, seed=9).to_json()))
        src = str(Path(simstudy.__file__).resolve().parents[1])
        code = textwrap.dedent(f"""\
            import multiprocessing, os, sys, time
            sys.path.insert(0, {src!r})
            from colluder_lab import cli, simstudy
            caller, climb_cells = os.getpid(), simstudy._climb_cells
            simstudy._climb_cells = lambda scenario, model, climbs: {share}
            try:
                status = cli.main(["simulate", {str(scenario)!r}, "--threads", "2",
                                   "--out", {str(tmp_path / "report")!r}])
            except ZeroDivisionError as exc:
                status = type(exc).__name__
            print(status, multiprocessing.active_children())
            """)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=60)
        assert (out.stdout, out.stderr) == (f"{status} []\n", stderr)

    @pytest.mark.skipif(not simstudy._openblas_thread_controls(),
                        reason="no OpenBLAS thread control symbol is loaded")
    @pytest.mark.parametrize("fail", [False, True])
    def test_caller_blas_threads_restored(self, monkeypatch, fail):
        if fail:
            monkeypatch.setattr(simstudy, "_climb_cells", _cells_failing_in(os.getpid()))
        controls = simstudy._openblas_thread_controls()
        original = [get() for _, get in controls]
        for set_threads, _ in controls:
            set_threads(2)
        try:
            before = [get() for _, get in controls]
            sc = SimScenario(m=2, q=3, sample_sizes=(300,), replications=4, seed=9)
            with pytest.raises(RuntimeError) if fail else contextlib.nullcontext():
                run_scenario(sc, threads=2)
            assert [get() for _, get in controls] == before
        finally:
            for (set_threads, _), count in zip(controls, original):
                set_threads(count)

    def test_non_converged_replications_counted_and_excluded(self, monkeypatch):
        sc = SimScenario(m=2, q=3, sample_sizes=(300, 600), replications=4, seed=2,
                         max_failure_rate=0.25)
        cells = [(n, r) for n in range(2) for r in range(4)]
        model = LikelihoodModel(sc.graph())
        _, climbs = simstudy._settle_cells(sc, model, cells)
        errors = {c: e for (c, *_), (e, _)
                  in zip(climbs, simstudy._climb_cells(sc, model, climbs))}
        climb_cells = simstudy._climb_cells

        def one_failure(scenario, model, climbs):
            return [(None, False) if c == (0, 1) else r
                    for (c, *_), r in zip(climbs, climb_cells(scenario, model, climbs))]

        monkeypatch.setattr(simstudy, "_climb_cells", one_failure)
        report = run_scenario(sc)
        assert report.failures == {300: 1, 600: 0}
        assert "n=300: 1, n=600: 0" in report.format_table()
        kept = np.array([errors[(0, r)] for r in (0, 2, 3)])
        assert [v["bias"] for v in report.per_parameter[300].values()] == \
            [float(b) for b in kept.mean(axis=0)]

    def test_sample_size_without_a_converged_replication(self, monkeypatch):
        sc = SimScenario(m=2, q=3, sample_sizes=(300, 600), replications=3, seed=2,
                         max_failure_rate=1.0)
        climb_cells = simstudy._climb_cells

        def failing_at_300(scenario, model, climbs):
            return [(None, False) if c[0] == 0 else r
                    for (c, *_), r in zip(climbs, climb_cells(scenario, model, climbs))]

        monkeypatch.setattr(simstudy, "_climb_cells", failing_at_300)
        report = run_scenario(sc)
        assert report.failures == {300: 3, 600: 0}
        assert report.per_parameter[300] is None and report.per_parameter[600]
        assert {s.n for s in report.summaries} == {600}
        assert report.to_json()["per_parameter"]["300"] is None
        assert report.format_table().endswith(
            "\nno replication converged, so no bias or RMSE: n=300")

    def test_failures_above_the_rate_abort(self, monkeypatch):
        sc = SimScenario(m=2, q=3, sample_sizes=(300, 600), replications=4, seed=2,
                         max_failure_rate=0.25)
        climb_cells = simstudy._climb_cells

        def two_failures(scenario, model, climbs):
            return [(None, False) if c in ((1, 0), (1, 3)) else r
                    for (c, *_), r in zip(climbs, climb_cells(scenario, model, climbs))]

        monkeypatch.setattr(simstudy, "_climb_cells", two_failures)
        with pytest.raises(ColluderLabError,
                           match="2/4 replications did not converge at n=600"):
            run_scenario(sc)

    def test_quaternary_rmse_shrinks_with_sample_size(self):
        sc = SimScenario(m=4, q=4, sample_sizes=(1000, 100000), replications=3,
                         seed=10, constraints=SimConstraints(dependency_gap=0.3))
        rep = run_scenario(sc)
        assert summary(rep, "colluder", 100000).rmse_mean < \
            summary(rep, "colluder", 1000).rmse_mean

    def test_colluder_group_harder_than_other(self):
        sc = SimScenario(m=2, q=2, sample_sizes=(1000,), replications=5, seed=11)
        rep = run_scenario(sc)
        assert summary(rep, "colluder", 1000).rmse_mean >= \
            summary(rep, "other", 1000).rmse_mean


def _design(name):
    """The bundled simulation design in ``data/<name>``."""
    return SimScenario.from_json(resources.files("colluder_lab").joinpath("data", name).read_text())


def _design_cells(name, replications):
    """The model of a bundled design and the observed-cell counts and fit seeds of
    its first ``replications`` cells at every sample size."""
    sc = _design(name)
    draws = [simstudy._run_cell(sc, n_idx, rep, sc.graph())
             for n_idx in range(len(sc.sample_sizes))
             for rep in range(replications)]
    return (LikelihoodModel(sc.graph()), np.stack([c for _, c, _ in draws]),
            [seed for *_, seed in draws], sc.restarts)


def _outside(model, counts):
    """Whether the identified law of each cell's frequencies has an entry outside (0, 1)."""
    shape = [a.size for a in observable_axes(model.graph)]
    return [any(np.any((c <= 0.0) | (c >= 1.0)) for c in identified_cpts(
        ObservedLawTable(model.graph, (cell / cell.sum()).reshape(shape))).values())
        for cell in counts]


def _spy_on_maximize(monkeypatch):
    """Record the starts of every ``maximize`` call that ``fit_counts`` makes."""
    batches = []

    def spy(model, weights, starts, max_steps):
        batches.append([np.array(s) for s in starts])
        return maximize(model, weights, starts, max_steps)

    monkeypatch.setattr(estimate, "maximize", spy)
    return batches


def _fit_cells(model, counts, seeds, restarts, plug_ins=None):
    """Each cell's fit as a simulation study makes it, from its plug-in start unless
    ``plug_ins`` are given: its point, whether it converged and whether the
    certificate settled it."""
    if plug_ins is None:
        plug_ins = plug_in(model, counts)
    theta, *_, converged, _, certified = estimate.fit_counts(model, counts, plug_ins, seeds,
                                                             restarts, 10_000)
    return theta, converged, certified


class TestCertificate:
    def test_saturated_interior_cells_are_certified(self):
        model, counts, seeds, restarts = _design_cells("ccm22.json", 4)
        inside = [not o for o in _outside(model, counts)]
        _, converged, certified = _fit_cells(model, counts, seeds, restarts)
        assert converged.all() and certified.tolist() == inside
        assert any(inside) and not all(inside)

    def test_no_certificate_without_saturation(self, monkeypatch):
        sc = SimScenario(m=2, q=3, sample_sizes=(100000,), replications=6, seed=3)
        model = LikelihoodModel(sc.graph())
        assert model.n_params < len(model._reachable) - 1
        draws = [simstudy._run_cell(sc, 0, rep, sc.graph()) for rep in range(6)]
        counts = np.stack([c for _, c, _ in draws])
        seeds = [s for *_, s in draws]
        assert not any(_outside(model, counts))
        batches = _spy_on_maximize(monkeypatch)
        _, converged, certified = _fit_cells(model, counts, seeds, sc.restarts)
        assert converged.all() and not certified.any()
        # No plug-in climbs alone: every cell climbs it and its random starts in one batch.
        assert len(batches) == 1
        for cell, seed, starts in zip(counts, seeds, batches[0]):
            assert np.array_equal(starts, np.vstack([plug_in(model, cell[None])[0],
                                                     starting_points(model, sc.restarts, seed)]))

    def test_no_certificate_where_the_masses_miss_the_frequencies(self):
        # Every cell first climbs the uniform law alone.  Where the identified law is
        # inside, that climb ends at it; where it is outside, it converges to a
        # boundary optimum whose observed-cell masses are not the frequencies.
        model, counts, seeds, restarts = _design_cells("ccm44.json", 6)
        outside = _outside(model, counts)
        assert any(outside) and not all(outside)
        uniform = [np.zeros(model.n_params)] * len(counts)
        _, converged, certified = _fit_cells(model, counts, seeds, restarts, uniform)
        assert converged.all() and certified.tolist() == [not o for o in outside]

    def test_uncertified_cells_climb_their_random_starts(self, monkeypatch):
        model, counts, seeds, restarts = _design_cells("ccm44.json", 6)
        batches = _spy_on_maximize(monkeypatch)
        _, _, certified = _fit_cells(model, counts, seeds, restarts)
        assert certified.any() and not certified.all()
        rest = np.flatnonzero(~certified)
        assert len(batches[-1]) == len(rest)
        for i, starts in zip(rest, batches[-1]):
            assert np.array_equal(starts, starting_points(model, restarts, seeds[i]))

    def test_each_cell_ends_as_fitted_alone(self):
        # Certified cells keep their certificate climb, the others their final
        # batch's, each under its own index.
        model, counts, seeds, restarts = _design_cells("ccm44.json", 6)
        plug_ins = plug_in(model, counts)
        fitted = estimate.fit_counts(model, counts, plug_ins, seeds, restarts, 10_000)
        certified = fitted[-1]
        assert certified.any() and not certified.all()
        for i in range(len(counts)):
            alone = estimate.fit_counts(model, counts[i:i + 1], plug_ins[i:i + 1],
                                        seeds[i:i + 1], restarts, 10_000)
            for field, one in zip(fitted, alone):
                assert np.asarray(field[i]).tobytes() == np.asarray(one[0]).tobytes()
            starts = 1 if certified[i] else restarts + (plug_ins[i] is not None)
            assert len(fitted[5][i]) == starts

    def test_no_certificate_with_an_empty_reachable_cell(self):
        model, counts, seeds, restarts = _design_cells("ccm22.json", 1)
        cell = counts[-1]
        assert _fit_cells(model, cell[None], seeds[-1:], restarts)[2].all()
        emptied = np.repeat(cell[None], len(model._reachable), axis=0)
        emptied[np.arange(len(model._reachable)), model._reachable] = 0.0
        _, _, certified = _fit_cells(model, emptied, seeds[-1:] * len(emptied),
                                              restarts)
        assert not certified.any()

    def test_no_certificate_with_a_plug_in_outside(self):
        model, counts, seeds, restarts = _design_cells("ccm44.json", 6)
        outside = np.flatnonzero(_outside(model, counts))
        assert len(outside)
        _, _, certified = _fit_cells(model, counts[outside],
                                              [seeds[i] for i in outside], restarts)
        assert not certified.any()

    @pytest.mark.parametrize("design", ["ccm22.json", "ccm44.json"])
    def test_fit_agrees_with_the_random_starts_alone(self, design):
        model, counts, seeds, restarts = _design_cells(design, 30)
        theta, converged, certified = _fit_cells(model, counts, seeds, restarts)
        starts = np.stack([starting_points(model, restarts, s) for s in seeds])
        base, base_ll, _, _, base_converged, _ = maximize(model, counts, starts, 10_000)
        ll = model.log_likelihood(theta, counts)
        assert np.all(ll >= base_ll - 1e-9 * np.abs(base_ll))
        both = converged & base_converged
        assert both.any() and certified.any()
        est, base_est = (model._cpt_probs(t)[:, model._free] for t in (theta, base))
        np.testing.assert_allclose(est[both], base_est[both], rtol=0, atol=1e-8)


class TestBatchedCells:
    @settings(max_examples=40, deadline=None)
    @given(mq=st.sampled_from([(m, q) for q in range(1, 5) for m in range(1, q + 1)]),
           gap=st.floats(-0.1, 0.3), min_prob=st.floats(-0.1, 0.15),
           sizes=st.lists(st.integers(1, 5000), min_size=1, max_size=3, unique=True),
           replications=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    # No law meets these constraints: the batch raises what random_law raises.
    @example(mq=(4, 4), gap=0.28125, min_prob=0.1484375, sizes=[1], replications=1, seed=0)
    def test_batch_draws_each_cells_law_and_sample(self, mq, gap, min_prob, sizes,
                                                   replications, seed):
        # Each cell of a batch draws the law random_law draws for its law seed, the
        # counts sample_dataset draws for its data seed, and its fit seed, bit for bit;
        # a batch with a cell whose law cannot be drawn raises that cell's error.
        sc = SimScenario(*mq, sample_sizes=tuple(sizes), replications=replications, seed=seed,
                         constraints=SimConstraints(dependency_gap=gap, min_prob=min_prob))
        g = sc.graph()
        cells = [(n_idx, rep) for n_idx in range(len(sizes)) for rep in range(replications)]
        draws, errors = [], []
        for n_idx, rep in cells:
            law_seed, data_seed, fit_seed = np.random.SeedSequence((seed, n_idx, rep)).spawn(3)
            try:
                draws.append((random_law(g, sc.constraints, law_seed), data_seed, fit_seed))
            except LawError as e:
                errors.append(str(e))
        if errors:
            with pytest.raises(LawError) as err:
                simstudy._draw_cells(sc, g, cells)
            assert str(err.value) in errors
            return
        cpts, counts, fit_seeds = simstudy._draw_cells(sc, g, cells)
        for k, ((n_idx, _), (law, data_seed, fit_seed)) in enumerate(zip(cells, draws)):
            assert all(cpts[v.name][k].tobytes() == law.cpts[v.name].tobytes()
                       for v in g.vertices)
            sample = sample_dataset(law, sizes[n_idx], data_seed)
            assert counts[k].tobytes() == sample.counts.tobytes()
            assert fit_seeds[k] == int(fit_seed.generate_state(1)[0])

    def test_exact_law_keeps_its_exact_joint(self):
        # The joint of an exact law's CPTs rounded to float differs in the last bits
        # from its exact joint rounded; sampling draws from the latter.
        def rows(*pairs):
            return np.array([Fraction(a, b) for a, b in pairs], dtype=object)

        law = CategoricalLaw(ccm_graph(2, 2), {
            "X": rows((1, 3), (2, 3)), "R_X": rows((1, 10), (9, 10)),
            "Y": rows((1, 7), (6, 7), (3, 5), (2, 5)).reshape(2, 2),
            "R_Y": rows((1, 3), (2, 3), (1, 11), (10, 11),
                        (2, 9), (7, 9), (1, 6), (5, 6)).reshape(2, 2, 2)})
        joint = law.joint_table().values.astype(float)
        rounded = CategoricalLaw(law.graph, {k: v.astype(float) for k, v in law.cpts.items()})
        assert np.any(joint != rounded.joint_table().values)
        want = simstudy._cell_counts(law.graph, joint[None], [10_000], [5])[0]
        assert sample_dataset(law, 10_000, seed=5).counts.tobytes() == want.tobytes()


def test_simstudy_leaves_fitting_to_estimate():
    """simstudy draws, bins and aggregates: it reads no private attribute of a
    likelihood model and imports none of the fitting and identification routines
    that ``estimate.fit_counts`` and ``estimate.plug_in`` wrap."""
    tree = ast.parse(Path(simstudy.__file__).read_text())
    private = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name) and node.value.id == "model"
               and node.attr.startswith("_")]
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert private == []
    assert not imported & {"maximize", "starting_points", "identified_cpts", "Rationals",
                           "ObservedLawTable"}


def _cells_reporting_blas_threads(scenario, model, cells):
    """Stands in for a worker's share of a study's climbs: every error entry
    is the worker's largest OpenBLAS thread count."""
    threads = max(get() for _, get in simstudy._openblas_thread_controls())
    n_params = len(simstudy._parameter_layout(model))
    return [(np.full(n_params, float(threads)), False) for _ in cells]


def _cells_reporting(measure, barrier=None):
    """A stand-in for a share of a study's climbs: every error entry is
    ``measure()`` taken in the process that fits the share, after waiting at
    ``barrier`` when one is given."""
    def run_cells(scenario, model, cells):
        if barrier is not None:
            barrier.wait(timeout=60)
        n_params = len(simstudy._parameter_layout(model))
        return [(np.full(n_params, float(measure())), False) for _ in cells]
    return run_cells


def _cells_failing_in(pid):
    """A stand-in for a share of a study's climbs that raises in process ``pid``
    and reports the process id elsewhere."""
    report = _cells_reporting(os.getpid)

    def run_cells(scenario, model, cells):
        if os.getpid() == pid:
            raise RuntimeError("share failed")
        return report(scenario, model, cells)
    return run_cells


def _cells_failing_outside(pid):
    """A stand-in for a share of a study's climbs that raises outside process ``pid``,
    naming the share's first cell, and reports the process id in ``pid``."""
    report = _cells_reporting(os.getpid)

    def run_cells(scenario, model, cells):
        if os.getpid() != pid:
            raise LookupError(f"share from {cells[0][0]} failed")
        return report(scenario, model, cells)
    return run_cells
