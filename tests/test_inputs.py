"""Contract tests of the input rules every reader and setting shares.

Each JSON reader reports broken JSON, a value that is not an object and an
unknown key with its own error class; an integer setting, a record code and a
CPT entry refuse a bool; a record is consistent exactly when the coarsening
map produces it.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colluder_lab import (CategoricalLaw, ColluderLabError, DataError, Dataset, FitConfig,
                          FitError, GraphFormatError, LawError, MissingDataGraph,
                          SimConstraints, SimScenario, Vertex, VertexRole, ccm_graph,
                          observable_axes, random_law)
from colluder_lab.errors import check_integer
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
        assert data.rows.shape == (len(records), len(records[0]))
        return
    with pytest.raises(DataError, match="NA exactly when") as err:
        Dataset(graph, records)
    assert err.value.row == bad[0]
