"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module is also part of the default ``pytest`` run.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from colluder_lab import (CategoricalLaw, Dataset, FitConfig, LikelihoodModel,
                          RankDeficiencyError, SimScenario,
                          appendix_a_law, appendix_b_pair, binary_closed_form,
                          build_colluder_system, ccm_graph, colluder_mechanism,
                          example_graph, find_colluders, fit, observed_law,
                          or_factorization_check, quantities_from_observed,
                          random_law, rank_test, run_scenario, sample_dataset,
                          solve_colluder)
from colluder_lab.cli import main
from conftest import failure_signature, mechanism_oracle, summary

B_ARGS = dict(a=Fraction(3, 10), e=Fraction(2, 5),
              g=Fraction(1, 5), h=Fraction(3, 10), i=Fraction(2, 5),
              j=Fraction(1, 2), k=Fraction(3, 5), l=Fraction(7, 10),
              n=Fraction(4, 10))

REFERENCE_RMSE_CCM22 = {("other", 1000): 0.0184, ("other", 10000): 0.0058,
                ("other", 100000): 0.0018, ("colluder", 1000): 0.0702,
                ("colluder", 10000): 0.0255, ("colluder", 100000): 0.0076}
REFERENCE_RMSE_CCM44 = {("colluder", 1000): 0.1137, ("colluder", 10000): 0.0548}


def _report(n, detail):
    print(f"[criterion {n}] PASS - {detail}")


def test_criterion_1_appendix_c_exactness(capsys):
    start = time.perf_counter()
    code = main(["oracle", "appendix-c", "--verify"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    for frac in ("69/200", "1/10", "1/200", "1/20"):
        assert frac in out
    assert "257/1425" in out and "1611/10450" in out
    assert elapsed < 1.0
    with capsys.disabled():
        _report(1, f"nine exact observed cells and the full-law witness "
                   f"inequality verified in {elapsed:.2f}s")


def test_criterion_2_closed_form_vs_linear_system(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    graph = ccm_graph(2, 2)
    checked = 0
    while checked < 100:
        a, b, c, d, e, f, g, h = rng.uniform(0.05, 0.95, size=8)
        if abs(c - h) < 1e-3:
            continue
        law = appendix_a_law(a, b, c, d, e, f, g, h)
        flaw = CategoricalLaw(graph, {k: np.asarray(v, float)
                                      for k, v in law.cpts.items()})
        obs = observed_law(flaw)
        col = find_colluders(graph)[0]

        p0, p1 = binary_closed_form(quantities_from_observed(obs, col))
        assert abs(p0 - (1 - d)) <= 1e-10
        assert abs(p1 - (1 - f)) <= 1e-10

        mech = colluder_mechanism(obs, col)
        oracle = mechanism_oracle(flaw, "R_X")
        for x in range(2):
            for y in range(2):
                want = oracle({"X": x, "Y": y}, 0)
                assert abs(mech.values[x, y, 0] - want) <= 1e-8
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    with capsys.disabled():
        _report(2, f"100 parameterizations: closed form within 1e-10 and "
                   f"mechanism within 1e-8 of the full-law oracle in {elapsed:.1f}s")


def test_criterion_3_rank_soundness_and_completeness(capsys):
    rng = np.random.default_rng(303)

    wide = ccm_graph(3, 2)
    col_wide = find_colluders(wide)[0]
    for i in range(100):
        law = random_law(wide, seed=int(rng.integers(1 << 31)))
        obs = observed_law(law)
        sys = build_colluder_system(obs, col_wide)
        rank, _ = rank_test(sys)
        assert rank[0] < sys.a.shape[2]
        with pytest.raises(RankDeficiencyError):
            solve_colluder(sys)

    full_rank_counts = {}
    for m in (2, 3, 4):
        graph = ccm_graph(m, m)
        col = find_colluders(graph)[0]
        full = 0
        for i in range(100):
            law = random_law(graph, seed=int(rng.integers(1 << 31)))
            obs = observed_law(law)
            sys = build_colluder_system(obs, col)
            rank, _ = rank_test(sys)
            if rank[0] < m:
                continue
            assert solve_colluder(sys).residual <= 1e-10
            full += 1
        full_rank_counts[m] = full
        assert full >= 99, f"CCM({m},{m}) full rank in only {full}/100 draws"
    with capsys.disabled():
        _report(3, f"CCM(3,2) rank-deficient in 100/100 draws; square models "
                   f"full rank in {full_rank_counts} per 100, residuals <= 1e-10")


def test_criterion_4_or_parameterization_identity(capsys):
    worst = 0.0
    for key, orderings in (
            ("fig1b", (["R_X", "R_Y"], ["R_Y", "R_X"])),
            ("fig2d", (["R_X", "R_Y", "R_Z"], ["R_Z", "R_Y", "R_X"]))):
        graph = ccm_graph(2, 2) if key == "fig1b" else example_graph("d")
        for seed in range(100):
            law = random_law(graph, seed=seed)
            assert all(cpt.min() >= 1e-6 for cpt in law.cpts.values())
            for ordering in orderings:
                worst = max(worst, or_factorization_check(law, ordering))
    assert worst <= 1e-10
    with capsys.disabled():
        _report(4, f"identity holds for 100 positive laws per fixture under "
                   f"both orderings; max violation {worst:.2e}")


def test_criterion_5_example_graph_verdicts(tmp_path, capsys):
    results = {}
    for levels in (2, 3):
        for key in "abcdef":
            path = tmp_path / f"{key}{levels}.json"
            path.write_text(json.dumps(example_graph(key, levels).to_json()))
            code = main(["check-id", str(path)])
            out = json.loads(capsys.readouterr().out)
            results[(key, levels)] = (code, out)
    for levels in (2, 3):
        for key in "abdef":
            code, out = results[(key, levels)]
            assert code == 0, (key, levels)
            assert out["decision"] == "Identifiable"
            assert out["rank_condition_pending"] is True
        code, out = results[("c", levels)]
        assert code == 2
        assert out["reasons"][0]["kind"] == "m-separation"
    with capsys.disabled():
        _report(5, "verdicts match for (a),(b),(d),(e),(f) identifiable and "
                   "(c) m-separation failure, binary and ternary")


def test_criterion_6_gradient_matches_finite_differences(capsys):
    rng = np.random.default_rng(606)
    worst = 0.0
    for m, q in ((2, 2), (3, 3)):
        graph = ccm_graph(m, q)
        model = LikelihoodModel(graph)
        for _ in range(25):
            law = random_law(graph, seed=int(rng.integers(1 << 31)))
            data = sample_dataset(law, int(rng.integers(50, 500)),
                                  seed=int(rng.integers(1 << 31)))
            counts = model.bind(data).counts
            theta = rng.normal(scale=1.0, size=model.n_params)
            gan = model.gradient(theta, counts)
            gfd = np.zeros_like(gan)
            h = 1e-5
            for i in range(len(theta)):
                up, dn = theta.copy(), theta.copy()
                up[i] += h
                dn[i] -= h
                gfd[i] = (model.log_likelihood(up, counts)
                          - model.log_likelihood(dn, counts)) / (2 * h)
            rel = np.abs(gan - gfd).max() / max(1.0, float(np.abs(gan).max()))
            worst = max(worst, rel)
    assert worst <= 1e-6
    with capsys.disabled():
        _report(6, f"50 random (theta, dataset) pairs: max relative "
                   f"gradient discrepancy {worst:.2e}")


def test_criterion_7_simulation_study_reproduction(capsys):
    start = time.perf_counter()
    from importlib import resources
    data_dir = resources.files("colluder_lab").joinpath("data")

    sc22 = SimScenario.from_json(str(data_dir.joinpath("ccm22.json")))
    rep22 = run_scenario(sc22)
    for (group, n), want in REFERENCE_RMSE_CCM22.items():
        got = summary(rep22, group, n).rmse_mean
        assert 0.5 * want <= got <= 2.0 * want, (group, n, got, want)
    for s in rep22.summaries:
        if s.n == 100000:
            assert max(abs(s.bias_min), abs(s.bias_max)) <= 0.01
        assert summary(rep22, "colluder", s.n).rmse_mean >= \
            summary(rep22, "other", s.n).rmse_mean
    mean_abs_bias = {n: np.mean([abs(v["bias"]) for v in rep22.per_parameter[n].values()])
                     for n in (1000, 100000)}
    assert mean_abs_bias[1000] >= 3 * mean_abs_bias[100000]

    sc44 = SimScenario.from_json(str(data_dir.joinpath("ccm44.json")))
    rep44 = run_scenario(sc44)
    for (group, n), want in REFERENCE_RMSE_CCM44.items():
        got = summary(rep44, group, n).rmse_mean
        assert 0.5 * want <= got <= 2.0 * want, (group, n, got, want)
    assert summary(rep44, "colluder", 10000).rmse_mean < \
        summary(rep44, "colluder", 1000).rmse_mean

    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    ratios = {f"{g}@{n}": round(summary(rep22, g, n).rmse_mean / w, 2)
              for (g, n), w in REFERENCE_RMSE_CCM22.items()}
    with capsys.disabled():
        _report(7, f"200-replication study within [0.5x, 2x] of the reference "
                   f"values (ccm22 ratios {ratios}) in {elapsed:.0f}s")


def test_criterion_8_nonidentifiable_flat_ridge(capsys):
    pair = appendix_b_pair(**B_ARGS)
    graph = pair.law1.graph
    data = sample_dataset(pair.law1, 10000, seed=808)
    model = LikelihoodModel(graph)
    counts = model.bind(data).counts
    ll1 = model.log_likelihood(model.cpts_to_theta(pair.law1.cpts), counts)
    ll2 = model.log_likelihood(model.cpts_to_theta(pair.law2.cpts), counts)
    assert abs(ll1 - ll2) <= 1e-9

    col = find_colluders(graph)[0]
    signatures = []
    for law in (pair.law1, pair.law2):
        with pytest.raises(RankDeficiencyError) as exc:
            colluder_mechanism(observed_law(law), col)
        signatures.append(failure_signature(exc.value))
    assert signatures[0] == signatures[1]
    with capsys.disabled():
        _report(8, f"equal log-likelihoods on n=10000 (|diff|={abs(ll1 - ll2):.2e}) "
                   f"and identical rank-deficiency failures")


def test_criterion_9_population_recovery_end_to_end(capsys):
    rng = np.random.default_rng(909)
    worst = 0.0
    fitted = 0
    for m in (2, 3):
        graph = ccm_graph(m, m)
        col = find_colluders(graph)[0]
        done = 0
        while done < 10:
            law = random_law(graph, seed=int(rng.integers(1 << 31)))
            obs = observed_law(law)
            rank, sv = rank_test(build_colluder_system(obs, col))
            if rank[0] < m or sv[0, -1] < 1e-2 * sv[0, 0]:
                continue  # criterion quantifies over identifiable laws
            data = Dataset.from_cell_weights(obs.graph, obs.values)
            res = fit(data, graph, FitConfig(restarts=5, seed=int(rng.integers(1 << 31))))
            for name in law.cpts:
                err = np.abs(np.asarray(res.cpts[name], float)
                             - np.asarray(law.cpts[name], float)).max()
                worst = max(worst, float(err))
                assert err <= 1e-5, (m, name, err)
            done += 1
            fitted += 1
    assert fitted == 20
    with capsys.disabled():
        _report(9, f"20 population fits recover every conditional probability; "
                   f"worst absolute error {worst:.2e}")
