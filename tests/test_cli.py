import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import colluder_lab
from colluder_lab import (Dataset, LawError, SimScenario, ccm_graph, cross_censoring_graph,
                          decide_full_law, example_graph, observed_law, random_law)
from colluder_lab.cli import main
from colluder_lab.simstudy import sample_dataset
from conftest import BAD_GRAPH_DOCS


def write_graph(tmp_path, graph, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps(graph.to_json()))
    return str(path)


class TestCheckId:
    def test_identifiable_graph_exits_zero(self, tmp_path, capsys):
        path = write_graph(tmp_path, example_graph("d"))
        assert main(["check-id", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["decision"] == "Identifiable"
        assert doc["rank_condition_pending"] is True

    def test_confounded_graph_exits_two(self, tmp_path, capsys):
        path = write_graph(tmp_path, example_graph("c"))
        assert main(["check-id", path]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["decision"] == "NotIdentifiable"
        assert doc["reasons"][0]["kind"] == "m-separation"

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["check-id", str(path)]) == 1

    def test_missing_file_exits_one(self):
        assert main(["check-id", "/nonexistent/g.json"]) == 1

    @pytest.mark.parametrize("argv", [
        ["check-id", "{graph}"],
        ["solve-colluder", "--graph", "{graph}", "--law", "{law}"],
        ["fit", "--graph", "{graph}", "--data", "{data}"],
    ], ids=["check-id", "solve-colluder", "fit"])
    def test_missing_graph_file_is_an_input_error(self, tmp_path, capsys, argv):
        law = tmp_path / "law.json"
        law.write_text(json.dumps(random_law(ccm_graph(2, 2), seed=3).to_json()))
        data = tmp_path / "d.csv"
        data.write_text("X,Y,R_X,R_Y\n0,0,1,1\n")
        paths = {"graph": tmp_path / "absent.json", "law": law, "data": data}
        assert main([a.format(**paths) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "absent.json" in err

    @pytest.mark.parametrize("doc, match", BAD_GRAPH_DOCS)
    def test_malformed_or_invalid_graph_exits_one(self, tmp_path, capsys, doc, match):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["check-id", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and match in err

    def test_verdict_round_trips_through_parser(self, tmp_path, capsys):
        path = write_graph(tmp_path, example_graph("c"))
        main(["check-id", path])
        doc = json.loads(capsys.readouterr().out)
        assert decide_full_law(example_graph("c")).to_json() == doc


class TestSolveColluder:
    def test_mechanism_output_matches_library(self, tmp_path, capsys):
        g = ccm_graph(2, 2)
        law = random_law(g, seed=3)
        gpath = write_graph(tmp_path, g)
        lpath = tmp_path / "law.json"
        lpath.write_text(json.dumps(law.to_json()))
        assert main(["solve-colluder", "--graph", gpath, "--law", str(lpath)]) == 0
        doc = json.loads(capsys.readouterr().out)
        entry = doc["colluders"][0]
        assert entry["colluder"] == "{X, R_X} of R_Y"
        from colluder_lab import colluder_mechanism, find_colluders
        mech = colluder_mechanism(observed_law(law), find_colluders(g)[0])
        assert np.allclose(np.array(entry["values"]), mech.values)

    def test_nonidentifiable_law_exits_two(self, tmp_path, capsys):
        g = ccm_graph(3, 2)
        law = random_law(g, seed=4)
        gpath = write_graph(tmp_path, g)
        lpath = tmp_path / "law.json"
        lpath.write_text(json.dumps(law.to_json()))
        assert main(["solve-colluder", "--graph", gpath, "--law", str(lpath)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["colluders"][0]["error"] == "RankDeficiencyError"

    def test_unseparated_colluder_names_the_variables(self, tmp_path, capsys):
        g = cross_censoring_graph(2, 2)
        lpath = tmp_path / "law.json"
        lpath.write_text(json.dumps(random_law(g, seed=5).to_json()))
        assert main(["solve-colluder", "--graph", write_graph(tmp_path, g),
                     "--law", str(lpath)]) == 2
        entries = json.loads(capsys.readouterr().out)["colluders"]
        assert {e["error"] for e in entries} == {"ConditionalIndependenceError"}
        assert all(e["detail"].startswith("conditional independence violated: R_")
                   and "is not m-separated from" in e["detail"] for e in entries)

    def test_output_file_holds_the_printed_json(self, tmp_path, capsys):
        g = example_graph("d")
        gpath = write_graph(tmp_path, g)
        lpath = tmp_path / "law.json"
        lpath.write_text(json.dumps(random_law(g, seed=5).to_json()))
        out = tmp_path / "mech.json"
        assert main(["solve-colluder", "--graph", gpath, "--law", str(lpath),
                     "--output", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out
        assert len(json.loads(out.read_text())["colluders"]) == 2

    def test_missing_law_file_exits_one(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, ccm_graph(2, 2))
        assert main(["solve-colluder", "--graph", gpath,
                     "--law", str(tmp_path / "absent.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["cpts"]["Y"]["table"].__setitem__(1, ["nan", "nan"]),
        lambda doc: doc.pop("cpts"),
        lambda doc: doc["cpts"]["Y"].pop("table"),
        lambda doc: doc["cpts"].update(Y=5),
    ], ids=["nan-entries", "no-cpts", "no-table", "number-entry"])
    def test_malformed_law_file_exits_one(self, tmp_path, capsys, edit):
        g = ccm_graph(2, 2)
        doc = random_law(g, seed=3).to_json()
        edit(doc)
        lpath = tmp_path / "law.json"
        lpath.write_text(json.dumps(doc))
        assert main(["solve-colluder", "--graph", write_graph(tmp_path, g),
                     "--law", str(lpath)]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestFit:
    def test_complete_data_fit(self, tmp_path, capsys):
        g = ccm_graph(2, 2)
        law = random_law(g, seed=5)
        data = sample_dataset(law, 800, seed=6)
        keep = (data.rows[:, 2] == 1) & (data.rows[:, 3] == 1)
        complete = Dataset(g, data.rows[keep], data.weights[keep])
        csv_path = tmp_path / "d.csv"
        complete.to_csv(csv_path)
        out_path = tmp_path / "fit.json"
        gpath = write_graph(tmp_path, g)
        assert main(["fit", "--graph", gpath, "--data", str(csv_path),
                     "--seed", "1", "--output", str(out_path)]) == 0
        table = capsys.readouterr().out
        assert "Parameter" in table and "p(Y=1 | X=0)" in table
        doc = json.loads(out_path.read_text())
        want = complete.weights[complete.rows[:, 0] == 1].sum() / complete.weights.sum()
        est = [p for p in doc["parameters"] if p["vertex"] == "X"][0]["estimate"]
        assert est == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("restarts", ["0", "-1"])
    def test_bad_restarts_exit_one(self, tmp_path, capsys, restarts):
        gpath = write_graph(tmp_path, ccm_graph(2, 2))
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("X,Y,R_X,R_Y\n0,0,1,1\n1,NA,1,0\n")
        assert main(["fit", "--graph", gpath, "--data", str(csv_path),
                     "--restarts", restarts]) == 1
        assert f"restarts must be at least 1, got {restarts}" in capsys.readouterr().err

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, ccm_graph(2, 2))
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("X,Y,R_X,R_Y\n0,0,1,1\n1,NA,1,0\n")
        assert main(["fit", "--graph", gpath, "--data", str(csv_path), "--seed", "-1"]) == 1
        assert "seed must be non-negative, got -1" in capsys.readouterr().err

    def test_missing_data_file_exits_one(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, ccm_graph(2, 2))
        assert main(["fit", "--graph", gpath, "--data", str(tmp_path / "absent.csv"),
                     "--seed", "1"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_inconsistent_record_exits_one(self, tmp_path, capsys):
        g = ccm_graph(2, 2)
        gpath = write_graph(tmp_path, g)
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("X,Y,R_X,R_Y\n0,0,1,1\n1,0,0,1\n")
        assert main(["fit", "--graph", gpath, "--data", str(csv_path)]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_survey_lookalike_workflow(self, tmp_path, capsys):
        # three-level questionnaire pair, one-based coding, realistic n and
        # missingness; the report carries the fifteen-parameter layout
        import numpy as np
        from colluder_lab import CategoricalLaw
        g = ccm_graph(3, 3)
        law = CategoricalLaw(g, {
            "X": np.array([0.157, 0.446, 0.397]),
            "Y": np.array([[0.366, 0.536, 0.098],
                           [0.451, 0.515, 0.034],
                           [0.497, 0.425, 0.078]]),
            "R_X": np.array([0.147, 0.853]),
            "R_Y": np.array([[[0.25, 0.75], [0.099, 0.901]],
                             [[0.231, 0.769], [0.033, 0.967]],
                             [[0.315, 0.685], [0.004, 0.996]]]),
        })
        data = sample_dataset(law, 11708, seed=99)
        csv_path = tmp_path / "survey.csv"
        data.to_csv(csv_path, one_based=True)
        gpath = write_graph(tmp_path, g)
        out_path = tmp_path / "fit.json"
        assert main(["fit", "--graph", gpath, "--data", str(csv_path),
                     "--one-based", "--seed", "5", "--output", str(out_path)]) == 0
        table = capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert len(doc["parameters"]) == 15
        # one-based display: reference level is 1, reported rows are =2 / =3
        assert "p(X=2)" in table and "p(X=3)" in table
        assert "p(Y=2 | X=1)" in table
        assert "p(R_Y=1 | X=1, R_X=0)" in table
        assert doc["converged"] is True

    def test_one_based_coding(self, tmp_path, capsys):
        g = ccm_graph(2, 2)
        gpath = write_graph(tmp_path, g)
        csv_path = tmp_path / "d.csv"
        rows = ["X,Y,R_X,R_Y"] + ["1,1,1,1"] * 30 + ["2,2,1,1"] * 50 + ["NA,1,0,1"] * 20
        csv_path.write_text("\n".join(rows) + "\n")
        assert main(["fit", "--graph", gpath, "--data", str(csv_path),
                     "--one-based", "--seed", "2"]) == 0
        table = capsys.readouterr().out
        assert "p(X=2)" in table and "p(X=1)" not in table.split("\n")[0]


class TestSimulate:
    def test_bundled_scenario_resolves(self, tmp_path, monkeypatch, capsys):
        # tiny local scenario: two replications, one small sample size
        scenario = {"m": 2, "q": 2, "sample_sizes": [300], "replications": 2,
                    "seed": 7, "restarts": 2}
        spath = tmp_path / "tiny.json"
        spath.write_text(json.dumps(scenario))
        out = tmp_path / "report"
        assert main(["simulate", str(spath), "--out", str(out)]) == 0
        text1 = (tmp_path / "report.txt").read_text()
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["scenario"]["replications"] == 2
        assert main(["simulate", str(spath), "--out", str(out)]) == 0
        assert (tmp_path / "report.txt").read_text() == text1

    def test_non_integer_thread_variable_is_an_input_error(self, tmp_path, monkeypatch,
                                                           capsys):
        spath = tmp_path / "tiny.json"
        spath.write_text(json.dumps({"m": 2, "q": 2, "sample_sizes": [200],
                                     "replications": 1, "seed": 3}))
        monkeypatch.setenv("COLLUDER_LAB_THREADS", "abc")
        assert main(["simulate", str(spath)]) == 1
        assert "COLLUDER_LAB_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "tiny-report.json").exists()

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_thread_flag_below_one_is_an_input_error(self, tmp_path, capsys, value):
        spath = tmp_path / "tiny.json"
        spath.write_text(json.dumps({"m": 2, "q": 2, "sample_sizes": [200],
                                     "replications": 1, "seed": 3}))
        assert main(["simulate", str(spath), "--threads", value]) == 1
        assert f"threads must be at least 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "tiny-report.json").exists()

    def test_zero_thread_variable_is_an_input_error(self, tmp_path, monkeypatch, capsys):
        spath = tmp_path / "tiny.json"
        spath.write_text(json.dumps({"m": 2, "q": 2, "sample_sizes": [200],
                                     "replications": 1, "seed": 3}))
        monkeypatch.setenv("COLLUDER_LAB_THREADS", "0")
        assert main(["simulate", str(spath)]) == 1
        assert "threads must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "tiny-report.json").exists()

    def test_seed_override_keeps_max_tries(self, tmp_path, capsys):
        spath = tmp_path / "tiny.json"
        spath.write_text(json.dumps({"m": 2, "q": 2, "sample_sizes": [200],
                                     "replications": 1, "seed": 3,
                                     "constraints": {"max_tries": 2000}}))
        assert main(["simulate", str(spath), "--seed", "4", "--out",
                     str(tmp_path / "report")]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["scenario"]["seed"] == 4
        assert doc["scenario"]["constraints"]["max_tries"] == 2000

    @pytest.mark.parametrize("bad, match", [
        ({"max_tries": 2.5}, "max_tries must be an integer"),
        ({"max_tries": True}, "max_tries must be an integer"),
        ({"min_prob": "0.1"}, "min_prob must be a finite real number"),
        ({"min_prob": float("nan")}, "min_prob must be a finite real number"),
        ({"response_interval": [0.7]}, "response_interval must be two numbers"),
        (5, "constraints must be a JSON object"),
        ({"max_tries": 0}, "max_tries must be at least 1"),
    ])
    def test_bad_constraints_exit_one(self, tmp_path, capsys, bad, match):
        spath = tmp_path / "bad.json"
        spath.write_text(json.dumps({"m": 2, "q": 2, "sample_sizes": [200],
                                     "replications": 1, "seed": 3, "constraints": bad}))
        assert main(["simulate", str(spath)]) == 1
        assert match in capsys.readouterr().err
        assert not (tmp_path / "bad-report.json").exists()

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        assert main(["simulate", "ccm22.json", "--seed", "-1",
                     "--out", str(tmp_path / "report")]) == 1
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("bad, match", [({"sample_sizes": [300.9]}, "sample size"),
                                            ({"replications": 2.5}, "replications")])
    def test_non_integer_scenario_field_exits_one(self, tmp_path, capsys, bad, match):
        spath = tmp_path / "bad.json"
        spath.write_text(json.dumps({"m": 2, "q": 2, "sample_sizes": [200],
                                     "replications": 1, "seed": 3, **bad}))
        assert main(["simulate", str(spath)]) == 1
        assert f"{match} must be" in capsys.readouterr().err
        assert not (tmp_path / "bad-report.json").exists()

    def test_default_output_does_not_clobber_scenario(self, tmp_path, capsys):
        spath = tmp_path / "tiny.json"
        spath.write_text(json.dumps({"m": 2, "q": 2, "sample_sizes": [200],
                                     "replications": 1, "seed": 3}))
        before = spath.read_text()
        assert main(["simulate", str(spath)]) == 0
        assert spath.read_text() == before
        assert (tmp_path / "tiny-report.json").exists()
        assert (tmp_path / "tiny-report.txt").exists()

    def test_zero_replications_exits_one(self, tmp_path, capsys):
        spath = tmp_path / "zero.json"
        spath.write_text(json.dumps({"m": 2, "q": 2, "sample_sizes": [100],
                                     "replications": 0, "seed": 1}))
        assert main(["simulate", str(spath)]) == 1
        assert "replications" in capsys.readouterr().err

    def test_negative_failure_rate_exits_one(self, tmp_path, capsys):
        spath = tmp_path / "rate.json"
        spath.write_text(json.dumps({"m": 2, "q": 2, "sample_sizes": [100],
                                     "replications": 2, "max_failure_rate": -1.0}))
        assert main(["simulate", str(spath)]) == 1
        assert "max_failure_rate must lie in [0, 1]" in capsys.readouterr().err

    def test_repeated_sample_size_exits_one(self, tmp_path, capsys):
        # Each sample size keys its summaries, so a repeat would drop replications.
        with pytest.raises(LawError, match=r"^sample_sizes must be distinct, got \[500, 500\]$"):
            SimScenario(m=2, q=2, sample_sizes=(500, 500), replications=3, seed=1)
        spath = tmp_path / "repeat.json"
        spath.write_text(json.dumps({"m": 2, "q": 2, "sample_sizes": [100, 200, 100],
                                     "replications": 2}))
        assert main(["simulate", str(spath)]) == 1
        assert capsys.readouterr().err == ("error: sample_sizes must be distinct, "
                                           "got [100, 200, 100]\n")
        assert not (tmp_path / "repeat-report.json").exists()

    @pytest.mark.parametrize("doc, match", [
        (5, "scenario must be a JSON object, got 5"),
        ({"m": 2, "q": 2, "max_failure_rate": "x"}, "max_failure_rate must lie in [0, 1], got 'x'"),
    ])
    def test_malformed_scenario_exits_one(self, tmp_path, capsys, doc, match):
        spath = tmp_path / "bad.json"
        spath.write_text(json.dumps(doc))
        assert main(["simulate", str(spath)]) == 1
        assert match in capsys.readouterr().err
        assert not (tmp_path / "bad-report.json").exists()

    def test_unknown_scenario_file_exits_one(self, capsys):
        assert main(["simulate", "missing-scenario.json"]) == 1

    def test_bundled_scenario_names_resolve(self):
        from colluder_lab.cli import _find_scenario
        from colluder_lab.simstudy import SimScenario
        for name, m in (("ccm22.json", 2), ("ccm44.json", 4)):
            sc = SimScenario.from_json(_find_scenario(name))
            assert sc.m == m and sc.replications == 200


class TestOracle:
    def test_appendix_c_verification(self, capsys):
        assert main(["oracle", "appendix-c", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "69/200" in out
        assert "257/1425" in out and "1611/10450" in out
        assert "verification passed" in out

    def test_appendix_b_verification(self, capsys):
        assert main(["oracle", "appendix-b", "--verify"]) == 0
        assert "AgreeObservedDisagreeFull" in capsys.readouterr().out

    def test_appendix_a_verification(self, capsys):
        assert main(["oracle", "appendix-a", "--verify"]) == 0
        assert "closed form" in capsys.readouterr().out


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_parser_built_once_and_reused(self, tmp_path, capsys, monkeypatch):
        from colluder_lab import cli
        real, built = cli.build_parser, []

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            path = write_graph(tmp_path, example_graph("c"))
            out = tmp_path / "verdict.json"
            assert main(["frobnicate"]) == 1
            assert main(["check-id", path, "--output", str(out)]) == 2
            out.unlink()
            # a later call starts from the defaults, not from the last call's options
            assert main(["check-id", path]) == 2
            assert not out.exists()
            assert main(["oracle", "appendix-a"]) == 0
            assert len(built) == 1
        finally:
            cli._parser.cache_clear()


def test_cli_imports_no_scipy():
    src = str(Path(colluder_lab.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import colluder_lab.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
