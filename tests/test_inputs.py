"""Contract tests of the input rules every reader and setting shares.

Each JSON reader reports broken JSON, a value that is not an object and an
unknown key with its own error class; an integer setting, a record code and a
CPT entry refuse a bool; a record is consistent exactly when the coarsening
map produces it.
"""

import json
import os
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colluder_lab import (Axis, CategoricalLaw, ColluderLabError, DataError, Dataset,
                          FitConfig, FitError, GraphFormatError, GraphQueryError, LawError,
                          LikelihoodModel, MissingDataGraph, ObservedLawTable,
                          PositivityError, ProbabilityTable, SimConstraints, SimScenario,
                          Vertex, VertexRole, ccm_graph, colluder_mechanism,
                          enumerate_strata, example_graph, find_colluders, joint_probability,
                          observable_axes, observed_law, quantities_from_observed, random_law,
                          sample_dataset)
from colluder_lab.errors import check_integer
from colluder_lab.lawtable import Rationals
from conftest import colluder_doc, small_graphs


def law_doc() -> dict:
    return random_law(ccm_graph(2, 2), seed=9).to_json()


READERS = {
    "graph": (MissingDataGraph.from_json, GraphFormatError, colluder_doc),
    "law": (CategoricalLaw.from_json, LawError, law_doc),
    "scenario": (SimScenario.from_json, LawError, lambda: {"m": 2, "q": 2}),
}


class TestJsonReaders:
    @pytest.mark.parametrize("reader", READERS)
    def test_broken_json_raises_the_readers_class(self, reader):
        read, error, _ = READERS[reader]
        with pytest.raises(error, match="invalid JSON"):
            read("{not json")

    @pytest.mark.parametrize("reader", READERS)
    def test_broken_json_file_raises_the_readers_class(self, reader, tmp_path):
        read, error, _ = READERS[reader]
        path = tmp_path / "doc.json"
        path.write_text("{not json")
        with pytest.raises(error, match="invalid JSON"):
            read(path)

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("doc", ["[]", "5", '"text"', [1], 5])
    def test_non_object_raises_the_readers_class(self, reader, doc):
        read, error, _ = READERS[reader]
        with pytest.raises(error, match=f"{reader} must be a JSON object"):
            read(doc)

    @pytest.mark.parametrize("reader", READERS)
    def test_unknown_key_raises_the_readers_class(self, reader):
        read, error, valid = READERS[reader]
        with pytest.raises(error, match=rf"unknown {reader} keys: \['bogus'\]"):
            read({**valid(), "bogus": 1})
        with pytest.raises(error, match=rf"unknown {reader} keys: \['bogus'\]"):
            read(json.dumps({**valid(), "bogus": 1}))

    @pytest.mark.parametrize("reader", READERS)
    def test_utf8_file_with_byte_order_mark_is_read(self, reader, tmp_path):
        read, _, valid = READERS[reader]
        path = tmp_path / "doc.json"
        path.write_bytes(json.dumps(valid()).encode("utf-8-sig"))
        assert read(path).to_json() == read(valid()).to_json()

    def test_constraints_reader(self):
        with pytest.raises(LawError, match="constraints must be a JSON object, got 5"):
            SimConstraints.from_json(5)
        with pytest.raises(LawError, match=r"unknown constraints keys: \['bogus'\]"):
            SimConstraints.from_json({"bogus": 1})
        with pytest.raises(LawError, match="invalid JSON"):
            SimScenario.from_json('{"m": 2, "q": 2, "constraints": {"min_prob": }}')

    @pytest.mark.parametrize("read, error, doc, match", [
        (MissingDataGraph.from_json, GraphFormatError, colluder_doc(vertices=["{}"]),
         "vertex must be a JSON object, got '{}'"),
        (MissingDataGraph.from_json, GraphFormatError, colluder_doc(edges=["X"]),
         "edge must be a JSON object, got 'X'"),
        (MissingDataGraph.from_json, GraphFormatError,
         colluder_doc(pairs=[{"true": "X", "indicator": "R_X", "proxy": "X_obs"}]),
         r"unknown pair keys: \['proxy'\]"),
        (SimScenario.from_json, LawError, {"m": 2, "q": 2, "constraints": "{}"},
         "constraints must be a JSON object, got '{}'"),
        (CategoricalLaw.from_json, LawError, {**law_doc(), "graph": json.dumps(colluder_doc())},
         "needs a 'graph' object"),
    ], ids=["vertex", "edge", "pair", "constraints", "law-graph"])
    def test_nested_items_are_checked_without_being_decoded(self, read, error, doc, match):
        with pytest.raises(error, match=match):
            read(doc)

    def test_cpt_entries_are_checked_without_being_decoded(self):
        doc = law_doc()
        doc["cpts"]["Y"] = json.dumps(doc["cpts"]["Y"])
        with pytest.raises(LawError, match="CPT 'Y' must be a JSON object"):
            CategoricalLaw.from_json(doc)
        doc = law_doc()
        doc["cpts"]["Y"]["order"] = 1
        with pytest.raises(LawError, match=r"unknown CPT 'Y' keys: \['order'\]"):
            CategoricalLaw.from_json(doc)


class TestIntegerSettings:
    def test_messages(self):
        for value, low, message in [(1.5, 0, "n must be an integer, got 1.5"),
                                    (True, 0, "n must be an integer, got True"),
                                    (-1, 0, "n must be non-negative, got -1"),
                                    (1, 2, "n must be at least 2, got 1")]:
            with pytest.raises(ColluderLabError, match=f"^{message}$"):
                check_integer("n", value, low, ColluderLabError)
        check_integer("n", np.int64(2), 2, ColluderLabError)

    @pytest.mark.parametrize("name", ["restarts", "seed", "max_iterations"])
    @pytest.mark.parametrize("value", [True, False])
    def test_fit_config_refuses_bools(self, name, value):
        with pytest.raises(FitError, match=f"{name} must be an integer, got {value}"):
            FitConfig(**{name: value})

    @pytest.mark.parametrize("name", ["m", "q", "replications", "seed", "restarts"])
    def test_scenario_refuses_bools(self, name):
        with pytest.raises(LawError, match=f"{name} must be an integer, got True"):
            SimScenario(**{name: True})
        with pytest.raises(LawError, match=f"{name} must be an integer, got True"):
            SimScenario.from_json(json.dumps({name: True}))

    def test_scenario_refuses_bool_sample_sizes(self):
        with pytest.raises(LawError, match="sample size must be an integer, got True"):
            SimScenario.from_json('{"m": 2, "q": 2, "sample_sizes": [true]}')
        with pytest.raises(LawError, match="sample size must be at least 1, got 0"):
            SimScenario(sample_sizes=(100, 0))

    def test_scenario_refuses_bool_failure_rate(self):
        with pytest.raises(LawError, match=r"max_failure_rate must lie in \[0, 1\], got True"):
            SimScenario(max_failure_rate=True)

    def test_constraints_refuse_bools(self):
        with pytest.raises(LawError, match="max_tries must be an integer, got True"):
            SimConstraints(max_tries=True)
        for name in ("exogenous_response_prob", "response_min_gap", "dependency_gap",
                     "min_prob"):
            with pytest.raises(LawError, match=f"{name} must be a finite real number"):
                SimConstraints(**{name: True})
        with pytest.raises(LawError, match="response_interval must be two numbers"):
            SimConstraints(response_interval=(False, 0.9))


class TestBooleansAndFractions:
    """A code is an integer and a probability is a number: a boolean is neither, and
    a fractional code is no code."""

    @pytest.mark.parametrize("records, row, value", [
        ([[0.7, 1, 1, 1], [1.9, 0, 1, 1]], 0, "0.7"),
        (np.array([[0, 1, 1, 1], [1, 0, np.nan, 1]]), 1, "nan"),
        (np.ones((2, 4), dtype=bool), 0, "True"),
        ([[0, 1, 1, 1], [True, 0, 1, 1]], 1, "True"),
    ], ids=["fraction", "nan", "bool-array", "bool-in-list"])
    def test_dataset_refuses_non_integer_codes(self, records, row, value):
        with pytest.raises(DataError, match=f"value {value} in column '.*' is not an "
                                            f"integer code") as err:
            Dataset(ccm_graph(2, 2), records)
        assert err.value.row == row

    def test_dataset_reads_whole_float_codes(self):
        data = Dataset(ccm_graph(2, 2), np.array([[0.0, 1.0, 1.0, 1.0]]))
        assert data.rows.dtype == np.int64 and data.rows.tolist() == [[0, 1, 1, 1]]

    @pytest.mark.parametrize("cpt", [np.array([True, False]),
                                     np.array([True, 0], dtype=object)],
                             ids=["bool-array", "bool-in-exact-array"])
    def test_law_refuses_boolean_cpt(self, cpt):
        g = MissingDataGraph([Vertex("A", VertexRole.FULLY_OBSERVED, 2)])
        with pytest.raises(LawError, match="CPT for 'A' holds a boolean entry"):
            CategoricalLaw(g, {"A": cpt})

    @pytest.mark.parametrize("table", [[True, False], [True, "0/1"]], ids=["float", "exact"])
    def test_law_file_refuses_booleans(self, table):
        doc = law_doc()
        doc["cpts"]["X"]["table"] = table
        with pytest.raises(LawError, match="CPT for 'X' holds a boolean entry"):
            CategoricalLaw.from_json(json.dumps(doc))


CCM = ccm_graph(2, 2)
CCM_LAW = random_law(CCM, seed=9)
TABLE = ProbabilityTable([Axis("X", 2)], np.array([0.25, 0.75]))


def ccm_with(*vertices: Vertex) -> MissingDataGraph:
    """CCM(2, 2) beside further unconnected vertices."""
    return MissingDataGraph([*CCM.vertices, *vertices], CCM.directed_edges,
                            pairs=[(p.true, p.indicator) for p in CCM.pairs])


def continuous_vertex() -> MissingDataGraph:
    return MissingDataGraph([Vertex("X", VertexRole.FULLY_OBSERVED)])


def read_empty_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    return Dataset.from_csv(path, CCM)


def read_latin1_csv(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("X,Y,R_X,R_Y\n0,0,1,1\n0,é,1,1\n1,0,1,1\n".encode("latin-1"))
    return Dataset.from_csv(path, CCM)


def read_latin1_json(read):
    """A call that writes a Latin-1 JSON file (a string holding "é") into its temporary
    directory and hands ``read`` the file's name relative to that directory."""
    def call(tmp_path):
        (tmp_path / "latin1.json").write_bytes('{"name": "Xé"}'.encode("latin-1"))
        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            return read(Path("latin1.json"))
        finally:
            os.chdir(cwd)
    return call


def negative_colluder_mass():
    """:func:`colluder_mechanism` on a consistent exact table of CCM(2, 2) that no law
    has: p(Y | X, R = 1) is (0.9, 0.1) at X = 0 and (0.1, 0.9) at X = 1, and every
    record with R_X = 0 and R_Y = 1 has Y = 1, so arm 0 solves to s_00 = -5/48
    against s_10 = 1/12."""
    counts = {(0, 0, 1, 1): 9, (0, 1, 1, 1): 1, (1, 0, 1, 1): 1, (1, 1, 1, 1): 9,
              (2, 1, 0, 1): 100, (0, 2, 1, 0): 40, (1, 2, 1, 0): 40}
    nums = np.zeros([a.size for a in observable_axes(CCM)], dtype=object)
    for cell, n in counts.items():
        nums[cell] = n
    obs = ObservedLawTable(CCM, Rationals(nums, 200))
    assert obs.consistent()
    return colluder_mechanism(obs, find_colluders(CCM)[0])


#: Each input refusal no other test reaches: a call taking a temporary directory,
#: the error class it raises and its whole message.
REFUSALS = {
    "graph-level-count": (lambda _: MissingDataGraph([Vertex("X", VertexRole.TRUE_VARIABLE, 0)]),
                          GraphFormatError, "vertex 'X' has non-positive level count"),
    "graph-level-fraction": (lambda _: MissingDataGraph(
        [Vertex("X", VertexRole.TRUE_VARIABLE, 2.5)]), GraphFormatError,
        "vertex 'X' level count must be an integer, got 2.5"),
    "graph-level-bool": (lambda _: MissingDataGraph([Vertex("X", VertexRole.FULLY_OBSERVED, True)]),
                         GraphFormatError, "vertex 'X' level count must be an integer, got True"),
    "graph-level-string": (lambda _: MissingDataGraph(
        [Vertex("X", VertexRole.FULLY_OBSERVED, "3")]), GraphFormatError,
        "vertex 'X' level count must be an integer, got '3'"),
    "example-graph-key": (lambda _: example_graph("z"), GraphQueryError,
                          "unknown example graph 'z' (expected 'a'..'f')"),
    "graph-pair-vertex": (lambda _: MissingDataGraph(
        [Vertex("X", VertexRole.TRUE_VARIABLE, 2)], pairs=[("X", "R_X")]),
        GraphFormatError, "pair references unknown vertex 'R_X'"),
    "graph-not-utf8": (read_latin1_json(MissingDataGraph.from_json), GraphFormatError,
                       "latin1.json is not UTF-8 text (byte 11)"),
    "graph-no-vertices": (lambda _: MissingDataGraph.from_json({"edges": []}),
                          GraphFormatError, "missing 'vertices'"),
    "graph-indicator-levels": (lambda _: MissingDataGraph.from_json(
        {"vertices": [{"name": "R", "role": "R", "levels": 3}]}),
        GraphFormatError, "response indicator 'R' must be binary"),
    "graph-edge-type": (lambda _: MissingDataGraph.from_json(
        colluder_doc(edges=[{"from": "X", "to": "Y", "type": "undirected"}])),
        GraphFormatError, "unknown edge type 'undirected'"),
    "axes-continuous": (lambda _: observable_axes(continuous_vertex()), LawError,
                        "vertex 'X' is continuous; observed tables are categorical only"),
    "table-shape": (lambda _: ProbabilityTable([Axis("X", 2)], np.zeros(3)), LawError,
                    "table shape (3,) does not match axes"),
    "table-axis": (lambda _: TABLE.axis("Z"), GraphQueryError, "table has no axis 'Z'"),
    "table-level": (lambda _: TABLE.event_prob({"X": 2}), LawError,
                    "level 2 out of range for axis 'X'"),
    "table-denominator": (lambda _: ObservedLawTable(CCM, Rationals(
        np.zeros([a.size for a in observable_axes(CCM)], dtype=object), 0)), LawError,
        "table denominator 0 is not positive"),
    "law-not-utf8": (read_latin1_json(CategoricalLaw.from_json), LawError,
                     "latin1.json is not UTF-8 text (byte 11)"),
    "scenario-not-utf8": (read_latin1_json(SimScenario.from_json), LawError,
                          "latin1.json is not UTF-8 text (byte 11)"),
    "law-denominator": (lambda _: CategoricalLaw(
        MissingDataGraph([Vertex("A", VertexRole.FULLY_OBSERVED, 2)]),
        {"A": Rationals(np.array([1, -1], dtype=object), -1)}), LawError,
        "CPT denominator -1 for 'A' is not positive"),
    "law-continuous": (lambda _: CategoricalLaw(continuous_vertex(), {}), LawError,
                       "vertex 'X' is continuous; categorical laws only"),
    "law-unknown-cpt": (lambda _: CategoricalLaw(CCM, {**CCM_LAW.cpts, "Z": [1.0]}),
                        LawError, "CPTs given for unknown vertices: ['Z']"),
    "joint-assignment": (lambda _: joint_probability(CCM_LAW, {"X": 0}), LawError,
                         "assignment is missing vertex 'Y'"),
    "records-width": (lambda _: Dataset(CCM, [[0, 0, 1]]), DataError,
                      "records have 3 columns, expected 4"),
    "records-columns": (lambda _: Dataset(CCM, [[0, 0, 1, 1]], columns=["X", "Y", "R_X", "Q"]),
                        DataError, "columns ['X', 'Y', 'R_X', 'Q'] do not match graph "
                                   "vertices ['X', 'Y', 'R_X', 'R_Y']"),
    "records-weights": (lambda _: Dataset(CCM, [[0, 0, 1, 1]], weights=[1.0, 2.0]),
                        DataError, "weights must have one entry per record"),
    "csv-empty": (read_empty_csv, DataError, "empty CSV file"),
    "csv-not-utf8": (read_latin1_csv, DataError, "not UTF-8 text (line 3)"),
    "model-continuous": (lambda _: LikelihoodModel(continuous_vertex()), FitError,
                         "vertex 'X' is continuous; the categorical likelihood requires "
                         "declared levels"),
    "theta-shape": (lambda _: LikelihoodModel(CCM).probabilities(np.zeros(3)), FitError,
                    "theta has shape (3,), expected (8,) or (B, 8)"),
    "strata-continuous": (lambda _: list(enumerate_strata(
        ccm_with(Vertex("Z", VertexRole.FULLY_OBSERVED)), find_colluders(CCM)[0])),
        GraphQueryError, "stratum variable 'Z' is continuous; cannot enumerate strata"),
    "closed-form-levels": (lambda _: quantities_from_observed(
        observed_law(random_law(ccm_graph(3, 2), seed=9)), find_colluders(CCM)[0]),
        LawError, "closed-form quantities require binary colluder variables"),
    "closed-form-strata": (lambda _: quantities_from_observed(
        observed_law(random_law(example_graph("d"), seed=9)), find_colluders(CCM)[0]),
        LawError, "closed form applies to the two-variable model; extra variables ('Z',)"),
    "colluder-mass": (lambda _: negative_colluder_mass(), PositivityError,
                      "positivity violated: X=0 has no mass at stratum {}"),
    "sample-size": (lambda _: sample_dataset(CCM_LAW, 0), LawError,
                    "sample size must be positive"),
    "sample-size-drawable": (lambda _: sample_dataset(CCM_LAW, 2**63), LawError,
                             "sample size 9223372036854775808 exceeds 9223372036854775807, "
                             "the most records numpy's multinomial draws"),
    "scenario-sample-size-drawable": (lambda _: SimScenario(sample_sizes=(10, 2**64)), LawError,
                                      "sample size 18446744073709551616 exceeds "
                                      "9223372036854775807, the most records numpy's "
                                      "multinomial draws"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_input_refusal(case, tmp_path):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(tmp_path)


def per_pair_consistent(graph, record) -> bool:
    """The observation rule written pair by pair: a proxy is NA exactly when its
    indicator is 0."""
    axes = {a.name: (i, a.size) for i, a in enumerate(observable_axes(graph))}
    for p in graph.pairs:
        (x, size), (r, _) = axes[p.true], axes[p.indicator]
        if (record[x] in (size - 1, Dataset.NA)) != (record[r] == 0):
            return False
    return True


@st.composite
def graph_and_records(draw):
    graph = draw(small_graphs())
    axes = observable_axes(graph)
    record = st.tuples(*[st.integers(-1 if a.kind == "proxy" else 0, a.size - 1)
                         for a in axes])
    return graph, draw(st.lists(record, min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(graph_and_records())
def test_dataset_accepts_exactly_the_records_the_per_pair_rule_accepts(drawn):
    graph, records = drawn
    bad = [i for i, rec in enumerate(records) if not per_pair_consistent(graph, rec)]
    if not bad:
        data = Dataset(graph, records)
        # Records with the same content merge, NA spelled -1 or as the NA level.
        axes = observable_axes(graph)
        merged = Counter(tuple(a.size - 1 if a.kind == "proxy" and v == Dataset.NA else v
                               for a, v in zip(axes, rec)) for rec in records)
        assert data.rows.tolist() == [list(rec) for rec in sorted(merged)]
        assert data.weights.tolist() == [merged[rec] for rec in sorted(merged)]
        return
    with pytest.raises(DataError, match="NA exactly when") as err:
        Dataset(graph, records)
    assert err.value.row == bad[0]
