"""The four benchmark workloads: inputs made from the seed, the timed call, its checks.

Each workload is a closed loop driven by one caller: ``run(i)`` makes the
i-th call into colluder-lab and returns its raw output, and ``check(i,
out)`` (not timed) returns ``(items, failed, messages)``: the cells or
calls the call attempted and how many of them failed.  ``finish()`` runs
the checks that need every call of the run and returns the further items
that fail them, with messages.  ``workloads.json`` beside this file
records each workload's inputs, the reason it was chosen and the layer
metrics it should move.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from colluder_lab import (CategoricalLaw, LikelihoodModel, SimScenario, ccm_graph, cli,
                          example_graph, find_colluders, observed_law, random_law,
                          simstudy)
from colluder_lab.mdgraph import VertexRole

DATA_DIR = Path(simstudy.__file__).parent / "data"

# Criterion-7 reference RMSE means, as in tests/test_acceptance.py.
REFERENCE_RMSE = {
    "ccm22.json": {("other", 1000): 0.0184, ("other", 10000): 0.0058,
                   ("other", 100000): 0.0018, ("colluder", 1000): 0.0702,
                   ("colluder", 10000): 0.0255, ("colluder", 100000): 0.0076},
    "ccm44.json": {("colluder", 1000): 0.1137, ("colluder", 10000): 0.0548},
}
BIAS_LIMIT_N = 100000
BIAS_LIMIT = 0.01


def derive_seed(*parts: int) -> int:
    """A 32-bit seed drawn from the workload seed and a path of tags."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def quiet_main(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with its standard output and error captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# -- simulation study -----------------------------------------------------------------


class SimWorkload:
    """``run_scenario`` on a bundled criterion-7 design, one scenario seed per call.

    Bias and RMSE are pooled over every call of the run before the
    criterion-7 band is checked: one call of 16 replications is too few for
    the band, the whole run is not.
    """

    def __init__(self, seed: int, workdir: Path, *, scenario: str, sample_sizes,
                 replications: int, threads: int):
        self.seed = seed
        self.workdir = workdir
        self.scenario_file = scenario
        self.sample_sizes = tuple(sample_sizes)
        self.replications = replications
        self.workers = threads
        self.pooled: dict[tuple[int, str], list[float]] = {}
        self.ok_items = 0
        self.digests: list[str] = []

    def scenario(self, seed: int, replications: int) -> SimScenario:
        base = SimScenario.from_json(DATA_DIR / self.scenario_file)
        return SimScenario.from_json({**base.to_json(), "seed": seed,
                                      "sample_sizes": list(self.sample_sizes),
                                      "replications": replications})

    def setup(self) -> None:
        # The warm-up keeps the design's own seed: its cost, which set-up
        # time includes, then does not vary with the workload seed.
        base = SimScenario.from_json(DATA_DIR / self.scenario_file)
        simstudy.run_scenario(self.scenario(base.seed, 1), threads=self.workers)

    def run(self, i: int):
        scenario = self.scenario(derive_seed(self.seed, 1, i), self.replications)
        try:
            return simstudy.run_scenario(scenario, threads=self.workers)
        except Exception as e:  # a raising study fails all of its cells
            return e

    def check(self, i: int, report) -> tuple[int, int, list[str]]:
        items = len(self.sample_sizes) * self.replications
        if isinstance(report, Exception):
            return items, items, [f"run_scenario raised {type(report).__name__}: {report}"]
        doc = json.dumps(report.to_json(), sort_keys=True)
        self.digests.append(hashlib.sha256(doc.encode()).hexdigest()[:16])
        for n, params in report.per_parameter.items():
            ok = self.replications - report.failures[n]
            for label, v in params.items():
                acc = self.pooled.setdefault((n, label), [0.0, 0.0, 0.0])
                acc[0] += ok
                acc[1] += ok * v["bias"]
                acc[2] += ok * v["rmse"] ** 2
        failed = sum(report.failures.values())
        self.ok_items += items - failed
        return items, failed, [f"{failed} cells did not converge"] if failed else []

    def band_errors(self) -> list[str]:
        """Criterion-7 checks on the pooled bias and RMSE of the run."""
        errors = []
        rmse: dict[tuple[str, int], list[float]] = {}
        for (n, label), (w, b, s2) in self.pooled.items():
            group = "colluder" if label.startswith("p(R_") and "|" in label else "other"
            rmse.setdefault((group, n), []).append(math.sqrt(s2 / w))
            if n == BIAS_LIMIT_N and abs(b / w) > BIAS_LIMIT:
                errors.append(f"|bias| {abs(b / w):.4f} > {BIAS_LIMIT} for {label} at n={n}")
        for key, want in REFERENCE_RMSE[self.scenario_file].items():
            if key not in rmse:
                continue
            got = float(np.mean(rmse[key]))
            if not 0.5 * want <= got <= 2.0 * want:
                errors.append(f"RMSE {got:.4f} outside [0.5x, 2x] of {want} for {key}")
        return errors

    def finish(self) -> tuple[int, list[str]]:
        errors = self.band_errors()
        return (self.ok_items if errors else 0), errors

    def record(self) -> dict:
        return {"report_digests": self.digests}


# -- fit on CSV records -----------------------------------------------------------------


def fit_law(graph, rng) -> CategoricalLaw:
    """A CCM(3,3) law whose colluder parameters are well determined at 50,000 records.

    p(Y | X) is diagonally dominant and half the X values are missing, so the
    colluder equations are well conditioned and every maximum likelihood
    estimate lands within a few hundredths of the truth; laws drawn by
    ``random_law`` put some colluder estimates 0.1-0.25 away at this size.
    """
    x = rng.dirichlet(np.full(3, 20.0))
    y = 0.8 * np.eye(3) + 0.2 * rng.dirichlet(np.ones(3), size=3)
    p = rng.uniform(0.7, 0.9, size=(3, 2))
    return CategoricalLaw(graph, {"X": x, "Y": y, "R_X": np.array([0.5, 0.5]),
                                 "R_Y": np.stack([1.0 - p, p], axis=-1)})


def law_records(law: CategoricalLaw, records: int, rng) -> tuple[str, float]:
    """CSV text of i.i.d. records drawn from the law's observed table, in the
    package's format (header row, ``NA`` for a missing value), and the
    log-likelihood of those records under the law."""
    obs = observed_law(law)
    probs = np.asarray(obs.values, dtype=float).reshape(-1)
    counts = rng.multinomial(records, probs / probs.sum())
    lines = [",".join("NA" if a.kind == "proxy" and v == a.size - 1 else str(v)
                      for a, v in zip(obs.axes, idx)) + "\n"
             for idx in np.ndindex(*obs.values.shape)]
    cells = rng.permutation(np.repeat(np.arange(probs.size), counts))
    text = ",".join(obs.names) + "\n" + "".join(lines[c] for c in cells)
    seen = counts > 0
    return text, float(np.dot(counts[seen], np.log(probs[seen])))


class CliWorkload:
    """A workload of single ``cli.main`` calls; subclasses list each call's errors."""

    workers = 1

    def errors(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def check(self, i: int, out) -> tuple[int, int, list[str]]:
        errors = self.errors(i, out)
        return 1, int(bool(errors)), errors

    def finish(self) -> tuple[int, list[str]]:
        return 0, []

    def record(self) -> dict:
        return {}


class FitCsvWorkload(CliWorkload):
    """``colluder-lab fit`` with CLI defaults, one CCM(3,3) CSV from its own law per call.

    Fit time depends on the law (L-BFGS-B takes 330-920 iterations), so a
    run rotates through ``laws`` CSVs rather than a few, which keeps the
    spread between seeds small.
    """

    ESTIMATE_TOL = 0.1
    GRAD_TOL = 1e-8

    def __init__(self, seed: int, workdir: Path, *, laws: int = 40, records: int = 50_000):
        self.seed = seed
        self.workdir = workdir
        self.laws = laws
        self.records = records
        self.graph = ccm_graph(3, 3)
        self.inputs: list[dict] = []

    def setup(self) -> None:
        graph_path = self.workdir / "ccm33.json"
        graph_path.write_text(json.dumps(self.graph.to_json()))
        coords = LikelihoodModel(self.graph).parameter_coords()
        # Input -1 is the warm-up, from a fixed seed: fit time varies with the
        # law, and set-up time should not vary with the workload seed.
        for k in range(-1, self.laws):
            rng = np.random.default_rng(derive_seed(self.seed, 2, k) if k >= 0 else 0)
            law = fit_law(self.graph, rng)
            text, ll_true = law_records(law, self.records, rng)
            csv_path = self.workdir / f"records{k}.csv"
            csv_path.write_text(text)
            truth = {(name, given, level): float(law.cpts[name][tuple(v for _, v in given) + (level,)])
                     for name, given, level, _, _ in coords}
            self.inputs.append({
                "argv": ["fit", "--graph", str(graph_path), "--data", str(csv_path),
                         "--seed", str(derive_seed(self.seed, 3, k) if k >= 0 else 0),
                         "--output", str(self.workdir / "fit.json")],
                "truth": truth, "ll_true": ll_true})
        warmup = self.inputs.pop(0)
        quiet_main(warmup["argv"])

    def run(self, i: int):
        return quiet_main(self.inputs[i % self.laws]["argv"])[0]

    def errors(self, i: int, code: int) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        spec = self.inputs[i % self.laws]
        doc = json.loads((self.workdir / "fit.json").read_text())
        errors = []
        if not doc["converged"]:
            errors.append("not converged")
        if not doc["grad_norm"] <= self.GRAD_TOL:
            errors.append(f"grad_norm {doc['grad_norm']:.3e} > {self.GRAD_TOL}")
        ll_true = spec["ll_true"]
        if doc["log_likelihood"] < ll_true - 1e-9 * abs(ll_true):
            errors.append(f"log-likelihood {doc['log_likelihood']} below the truth's {ll_true}")
        for p in doc["parameters"]:
            key = (p["vertex"], tuple(tuple(g) for g in p["given"]), p["level"])
            if abs(p["estimate"] - spec["truth"][key]) > self.ESTIMATE_TOL:
                errors.append(f"estimate {p['estimate']:.4f} of {key} is more than "
                              f"{self.ESTIMATE_TOL} from {spec['truth'][key]:.4f}")
        return errors



# -- exact colluder solving and oracles ------------------------------------------------------


def exact_law(law: CategoricalLaw, denominator: int = 1000) -> CategoricalLaw:
    """Round every CPT row to multiples of 1/denominator, as exact rationals."""
    cpts = {}
    for name, arr in law.cpts.items():
        flat = np.asarray(arr, dtype=float).reshape(-1, arr.shape[-1])
        rows = []
        for row in flat:
            ticks = [round(float(v) * denominator) for v in row[:-1]]
            ticks.append(denominator - sum(ticks))
            rows.append([Fraction(t, denominator) for t in ticks])
        out = np.empty(flat.shape, dtype=object)
        out[...] = rows
        cpts[name] = out.reshape(arr.shape)
    return CategoricalLaw(law.graph, cpts)


def mechanism_oracle(law: CategoricalLaw, response: str) -> np.ndarray:
    """p(response | variables, other indicators = 1), straight from the CPT product.

    Axes: the variables in declaration order, then ``response``; computed in
    exact arithmetic independently of the package's table code.
    """
    graph = law.graph
    verts = graph.non_proxy_vertices()
    variables = [v for v in verts if v.role is not VertexRole.RESPONSE_INDICATOR]
    others = [v.name for v in verts
              if v.role is VertexRole.RESPONSE_INDICATOR and v.name != response]
    parents = {v.name: CategoricalLaw.parent_order(graph, v.name) for v in verts}

    def joint(assign):
        p = Fraction(1)
        for v in verts:
            p *= law.cpts[v.name][tuple(assign[q] for q in parents[v.name]) + (assign[v.name],)]
        return p

    out = np.zeros([v.levels for v in variables] + [2])
    for combo in itertools.product(*[range(v.levels) for v in variables]):
        assign = {v.name: c for v, c in zip(variables, combo)}
        assign.update({n: 1 for n in others})
        mass = [joint({**assign, response: r}) for r in (0, 1)]
        for r in (0, 1):
            out[combo + (r,)] = float(mass[r] / (mass[0] + mass[1]))
    return out


class ExactSolveWorkload(CliWorkload):
    """``solve-colluder`` on exact rational laws, rotated with the three oracles."""

    MECH_TOL = 1e-9
    GRAPHS = [("ccm22", lambda: ccm_graph(2, 2)), ("ccm44", lambda: ccm_graph(4, 4)),
              ("ccm32", lambda: ccm_graph(3, 2)), ("d3", lambda: example_graph("d", 3)),
              ("e3", lambda: example_graph("e", 3)), ("f3", lambda: example_graph("f", 3))]
    RANK_DEFICIENT = {"ccm32"}
    ORACLES = ["appendix-a", "appendix-b", "appendix-c"]

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.calls: list[dict] = []

    def setup(self) -> None:
        for k, (key, make) in enumerate(self.GRAPHS):
            graph = make()
            law = exact_law(random_law(graph, seed=derive_seed(self.seed, 4, k)))
            graph_path = self.workdir / f"{key}-graph.json"
            law_path = self.workdir / f"{key}-law.json"
            graph_path.write_text(json.dumps(graph.to_json()))
            law_path.write_text(json.dumps(law.to_json()))
            expected = {} if key in self.RANK_DEFICIENT else {
                c.response_of_true: mechanism_oracle(law, c.response_of_true)
                for c in find_colluders(graph)}
            self.calls.append({"argv": ["solve-colluder", "--graph", str(graph_path),
                                        "--law", str(law_path)],
                               "exit": 2 if key in self.RANK_DEFICIENT else 0,
                               "expected": expected})
        for name in self.ORACLES:
            self.calls.append({"argv": ["oracle", name, "--verify"], "exit": 0})
        self.run(0)

    def run(self, i: int):
        return quiet_main(self.calls[i % len(self.calls)]["argv"])

    def errors(self, i: int, out) -> list[str]:
        code, stdout = out
        spec = self.calls[i % len(self.calls)]
        if code != spec["exit"]:
            return [f"{' '.join(spec['argv'][:2])}: exit code {code}, expected {spec['exit']}"]
        if "expected" not in spec:
            return []
        entries = json.loads(stdout)["colluders"]
        if spec["exit"] == 2:
            return [] if all(e.get("error") == "RankDeficiencyError" for e in entries) else \
                ["rank-deficient law did not report RankDeficiencyError"]
        errors = []
        for e in entries:
            want = spec["expected"].get(e["axes"][-1]) if "values" in e else None
            if want is None:
                errors.append(f"colluder {e['colluder']}: no mechanism ({e.get('error')})")
                continue
            got = np.asarray(e["values"], dtype=float)
            dev = float(np.max(np.abs(got - want))) if got.shape == want.shape else math.inf
            if dev > self.MECH_TOL:
                errors.append(f"colluder {e['colluder']}: mechanism off by {dev:.3e}")
        return errors



WORKLOADS = {
    "sim-ccm22-pool": lambda seed, workdir, **kw: SimWorkload(
        seed, workdir, **{"scenario": "ccm22.json", "sample_sizes": (100_000,),
                          "replications": 16, "threads": 2, **kw}),
    "sim-ccm44": lambda seed, workdir, **kw: SimWorkload(
        seed, workdir, **{"scenario": "ccm44.json", "sample_sizes": (1000, 10_000),
                          "replications": 2, "threads": 1, **kw}),
    "fit-csv": FitCsvWorkload,
    "exact-solve": ExactSolveWorkload,
}
