"""Command-line surface: identifiability checks, colluder solving, simulation, fitting.

Exit codes are a stable contract across subcommands: 0 for success (or an
identifiable verdict), 2 for a domain-negative result (not identifiable,
failed verification), 1 for usage or input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ColluderLabError
from .estimate import Dataset, FitConfig, fit
from .identify import colluder_mechanism, decide_full_law
from .lawtable import CategoricalLaw, joint_probability, observed_law
from .mdgraph import MissingDataGraph, find_colluders
from .oracles import (APPENDIX_C_OBSERVED, appendix_a_law, appendix_b_pair,
                      appendix_c_pair)
from .simstudy import SimScenario, run_scenario

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NEGATIVE = 2


def _threads(args) -> int:
    if args.threads is not None:
        return args.threads
    env = os.environ.get("COLLUDER_LAB_THREADS")
    try:
        return int(env) if env else 1
    except ValueError:
        raise ColluderLabError(f"COLLUDER_LAB_THREADS must be an integer, got {env!r}") from None


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    seed = int(np.random.SeedSequence().entropy % (2 ** 32))
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _cmd_check_id(args) -> int:
    graph = MissingDataGraph.from_json(Path(args.graph))
    verdict = decide_full_law(graph)
    text = json.dumps(verdict.to_json(), indent=2)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n")
    return EXIT_OK if verdict.identifiable else EXIT_NEGATIVE


def _cmd_solve_colluder(args) -> int:
    graph = MissingDataGraph.from_json(Path(args.graph))
    law = CategoricalLaw.from_json(Path(args.law), graph=graph)
    obs = observed_law(law)
    colluders = find_colluders(graph)
    entries = []
    failed = 0
    for col in colluders:
        try:
            mech = colluder_mechanism(obs, col)
            entries.append({"colluder": str(col),
                            "axes": list(mech.names),
                            "values": mech.values.tolist()})
        except ColluderLabError as e:
            failed += 1
            entries.append({"colluder": str(col), "error": type(e).__name__,
                            "detail": str(e)})
    out = json.dumps({"colluders": entries}, indent=2)
    print(out)
    if args.output:
        Path(args.output).write_text(out + "\n")
    if colluders and failed == len(colluders):
        return EXIT_NEGATIVE
    return EXIT_OK


def _find_scenario(path: str) -> Path:
    p = Path(path)
    if p.exists():
        return p
    bundled = resources.files("colluder_lab").joinpath("data", path)
    if bundled.is_file():
        return Path(str(bundled))
    raise ColluderLabError(f"scenario file not found: {path}")


def _cmd_simulate(args) -> int:
    scenario = SimScenario.from_json(_find_scenario(args.scenario))
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    report = run_scenario(scenario, threads=_threads(args))
    if args.out:
        prefix = Path(args.out)
    else:
        stem = Path(args.scenario).with_suffix("")
        prefix = stem.with_name(stem.name + "-report")
    table = report.format_table()
    prefix.with_suffix(".json").write_text(
        json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    prefix.with_suffix(".txt").write_text(table + "\n")
    print(table)
    return EXIT_OK


def _cmd_fit(args) -> int:
    graph = MissingDataGraph.from_json(Path(args.graph))
    data = Dataset.from_csv(args.data, graph, na_token=args.na_token,
                            one_based=args.one_based)
    config = FitConfig(restarts=args.restarts, seed=_resolve_seed(args.seed),
                       allow_nonidentifiable=args.allow_nonidentifiable)
    result = fit(data, graph, config)
    print(result.format_table(one_based=args.one_based))
    if args.output:
        Path(args.output).write_text(json.dumps(result.to_json(), indent=2) + "\n")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.construction == "appendix-c":
        try:
            pair = appendix_c_pair()
        except ColluderLabError as e:
            print(f"verification FAILED: {e}")
            return EXIT_NEGATIVE
        print("observed-data law shared by both cross-censoring models:")
        for (x, y), prob in APPENDIX_C_OBSERVED.items():
            fx = "NA" if x == 2 else str(x)
            fy = "NA" if y == 2 else str(y)
            print(f"  X={fx:<2} Y={fy:<2}  {str(prob):>8}  (ok)")
        cell = pair.witness_cells[0]
        print(f"full-law witness at {cell}: {joint_probability(pair.law1, cell)} vs "
              f"{joint_probability(pair.law2, cell)}")
        print(f"witness cells differing: {len(pair.witness_cells)}")
        print("verification passed: observed laws identical, full laws differ")
        return EXIT_OK

    if args.construction == "appendix-b":
        try:
            pair = appendix_b_pair(Fraction(3, 10), Fraction(2, 5), Fraction(1, 5),
                                   Fraction(3, 10), Fraction(2, 5), Fraction(1, 2),
                                   Fraction(3, 5), Fraction(7, 10), Fraction(4, 10))
        except ColluderLabError as e:
            print(f"verification FAILED: {e}")
            return EXIT_NEGATIVE
        print(f"claim: AgreeObservedDisagreeFull; witness cells differing: "
              f"{len(pair.witness_cells)}")
        print("verification passed: ternary construction agrees on the observed law only")
        return EXIT_OK

    # appendix-a: closed-form identifiability of one binary parameterization
    from .identify import binary_closed_form, quantities_from_observed
    params = dict(a=Fraction(3, 10), b=Fraction(2, 5), c=Fraction(3, 5),
                  d=Fraction(1, 4), e=Fraction(1, 2), f=Fraction(7, 20),
                  g=Fraction(9, 20), h=Fraction(1, 5))
    law = appendix_a_law(**params)
    obs = observed_law(law)
    q = quantities_from_observed(obs, find_colluders(law.graph)[0])
    p0, p1 = binary_closed_form(q)
    want0, want1 = 1 - params["d"], 1 - params["f"]
    print(f"closed form: p(R_Y=1|X=0,R_X=0) = {p0:.12f} (truth {float(want0):.12f})")
    print(f"closed form: p(R_Y=1|X=1,R_X=0) = {p1:.12f} (truth {float(want1):.12f})")
    ok = abs(p0 - want0) < 1e-10 and abs(p1 - want1) < 1e-10
    print("verification passed" if ok else "verification FAILED")
    return EXIT_OK if ok else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="colluder-lab",
        description="Identifiability and estimation for categorical colluder models")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-id", help="decide structural full-law identifiability")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--output", help="also write the JSON verdict to this path")
    p.set_defaults(func=_cmd_check_id)

    p = sub.add_parser("solve-colluder",
                       help="solve the colluder equations of a law and print the mechanism")
    p.add_argument("--graph", required=True)
    p.add_argument("--law", required=True, help="full-law JSON file")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_solve_colluder)

    p = sub.add_parser("simulate", help="run a replicated simulation scenario")
    p.add_argument("scenario", help="scenario JSON file (or bundled name like ccm22.json)")
    p.add_argument("--out", help="output prefix for .json and .txt reports")
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int,
                   help="processes that fit the replications, the caller included "
                        "(default: $COLLUDER_LAB_THREADS, else 1)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="maximum likelihood fit from a CSV of records")
    p.add_argument("--graph", required=True)
    p.add_argument("--data", required=True, help="CSV with one column per vertex")
    p.add_argument("--na-token", default="NA")
    p.add_argument("--one-based", action="store_true",
                   help="categorical level codes start at 1 in the CSV and the report")
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--seed", type=int)
    p.add_argument("--allow-nonidentifiable", action="store_true")
    p.add_argument("--output", help="write the fit result JSON to this path")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("oracle", help="verify the exact counterexample constructions")
    p.add_argument("construction", choices=["appendix-a", "appendix-b", "appendix-c"])
    p.add_argument("--verify", action="store_true",
                   help="exit non-zero unless every exact relation holds (default behavior)")
    p.set_defaults(func=_cmd_oracle)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ColluderLabError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
