import csv
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colluder_lab import (CategoricalLaw, DataError, Dataset, FitConfig,
                          FitError, LikelihoodModel, MissingDataGraph, Vertex,
                          VertexRole, appendix_b_pair, ccm_graph, example_graph, fit,
                          observable_axes, observed_law, random_law)
from colluder_lab.estimate import _newton, maximize, starting_points
from colluder_lab.lawtable import coarsening_map
from colluder_lab.simstudy import sample_dataset
from conftest import completion_set, exact_random_law, per_parameter_report, small_graphs

O = VertexRole.FULLY_OBSERVED
X1 = VertexRole.TRUE_VARIABLE
R = VertexRole.RESPONSE_INDICATOR

NA = Dataset.NA


def fd_gradient(model, theta, counts, h=1e-5):
    out = np.zeros_like(theta)
    for i in range(len(theta)):
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (model.log_likelihood(up, counts) - model.log_likelihood(dn, counts)) / (2 * h)
    return out


class TestCompletionSet:
    def test_fully_observed_record_is_singleton(self, fig1b):
        out = completion_set({"X": 1, "Y": 0, "R_X": 1, "R_Y": 1}, fig1b)
        assert out == [{"X": 1, "Y": 0, "R_X": 1, "R_Y": 1}]

    def test_double_missing_record(self, fig1b):
        out = completion_set({"X": NA, "Y": NA, "R_X": 0, "R_Y": 0}, fig1b)
        assert len(out) == 4
        assert all(rec["R_X"] == 0 and rec["R_Y"] == 0 for rec in out)
        assert {(rec["X"], rec["Y"]) for rec in out} == {(x, y) for x in (0, 1) for y in (0, 1)}

    def test_partially_missing_ternary(self):
        g = ccm_graph(3, 3)
        out = completion_set({"X": NA, "Y": 2, "R_X": 0, "R_Y": 1}, g)
        assert len(out) == 3
        assert {rec["X"] for rec in out} == {0, 1, 2}
        assert all(rec["Y"] == 2 for rec in out)


def line_by_line_rows(path, graph, na_token="NA", one_based=False):
    """Records of a CSV, each line parsed on its own, in observable-axis order."""
    axes = observable_axes(graph)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        rows = []
        for rec in reader:
            cells = dict(zip(header, (c.strip() for c in rec)))
            if not any(cells.values()):
                continue
            rows.append([a.size - 1 if cells[a.name] == na_token
                         else int(cells[a.name]) - (one_based and a.kind != "indicator")
                         for a in axes])
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(axes))


def counted(rows):
    """Each distinct record, in ascending order, and its count."""
    distinct, counts = np.unique(rows, axis=0, return_counts=True)
    return distinct.tolist(), counts.tolist()


def records_of(data):
    """Each cell's record of a count dataset, repeated its count times."""
    return np.repeat(data.rows, data.weights.astype(int), axis=0)


def assert_same_data(a, b):
    for field in ("patterns", "weights", "rows"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


@settings(max_examples=30, deadline=None)
@given(graph=small_graphs(), seed=st.integers(0, 2**32 - 1), one_based=st.booleans(),
       na_token=st.sampled_from(["NA", "?", "missing"]))
def test_csv_round_trip_property(tmp_path_factory, graph, seed, one_based, na_token):
    exact = exact_random_law(graph, np.random.default_rng(seed))
    law = CategoricalLaw(graph, {k: v.astype(float) for k, v in exact.cpts.items()})
    data = sample_dataset(law, 300, seed=seed)
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    data.to_csv(path, na_token=na_token, one_based=one_based)
    back = Dataset.from_csv(path, graph, na_token=na_token, one_based=one_based)
    assert_same_data(back, data)
    assert counted(line_by_line_rows(path, graph, na_token, one_based)) == \
        (back.rows.tolist(), back.weights.tolist())


@settings(max_examples=40, deadline=None)
@given(graph=small_graphs(), seed=st.integers(0, 2**32 - 1))
def test_a_dataset_is_its_observed_cell_counts(graph, seed):
    # Shuffling the records, splitting a record's weight across duplicates, or
    # building from the cell counts gives the same dataset, the same counts,
    # and the same fit.
    rng = np.random.default_rng(seed)
    law = CategoricalLaw(graph, {k: v.astype(float)
                                 for k, v in exact_random_law(graph, rng).cpts.items()})
    records = records_of(sample_dataset(law, int(rng.integers(1, 300)), seed=seed))
    shuffled = Dataset(graph, records[rng.permutation(len(records))])
    split = rng.random(len(records)) < 0.3  # these records become two of weight 1/4 and 3/4
    weights = np.where(split, 0.25, 1.0)
    duplicated = Dataset(graph, np.concatenate([records, records[split]]),
                         np.concatenate([weights, np.full(split.sum(), 0.75)]))
    shape = [a.size for a in observable_axes(graph)]
    from_cells = Dataset.from_cell_weights(graph, np.bincount(
        np.ravel_multi_index(records.T, shape), minlength=int(np.prod(shape))))
    for data in (duplicated, from_cells):
        assert_same_data(data, shuffled)
        assert np.array_equal(data.counts, shuffled.counts)
    assert counted(records) == (shuffled.rows.tolist(), shuffled.weights.tolist())
    assert not shuffled.counts.flags.writeable
    # The likelihood of the counts is the weighted sum over the positive cells.
    model = LikelihoodModel(graph)
    theta = rng.normal(size=model.n_params)
    want = math.fsum(shuffled.weights * np.log(model.pattern_probs(theta, shuffled.counts)))
    assert model.log_likelihood(theta, shuffled.counts) == pytest.approx(want, rel=1e-12)
    config = FitConfig(restarts=2, seed=seed, max_iterations=40, allow_nonidentifiable=True)
    a, b = fit(Dataset(graph, records), graph, config), fit(from_cells, graph, config)
    assert np.array_equal(a.theta, b.theta)
    assert (a.log_likelihood, a.grad_norm, a.iterations) == \
        (b.log_likelihood, b.grad_norm, b.iterations)


class TestDataset:
    def test_consistency_enforced(self, fig1b):
        with pytest.raises(DataError, match="NA exactly when"):
            Dataset(fig1b, [[0, 1, 0, 1]])  # X observed while R_X = 0

    def test_na_alias_accepted(self, fig1b):
        d = Dataset(fig1b, [[NA, 1, 0, 1]])
        assert d.rows[0, 0] == 2  # stored as the NA level

    def test_column_reordering(self, fig1b):
        d = Dataset(fig1b, [[1, 0, 1, 0]], columns=["R_X", "Y", "R_Y", "X"])
        assert d.columns == ("X", "Y", "R_X", "R_Y")
        assert d.rows[0].tolist() == [0, 0, 1, 1]

    def test_out_of_range_value(self, fig1b):
        with pytest.raises(DataError, match="out of range"):
            Dataset(fig1b, [[0, 5, 1, 1]])

    def test_patterns_aggregate_weights(self, fig1b):
        d = Dataset(fig1b, [[NA, 1, 0, 1], [0, 1, 1, 1], [0, 1, 1, 1], [1, 0, 1, 1]],
                    weights=[1.0, 1.0, 1.0, 0.0])
        bound = LikelihoodModel(fig1b).bind(d)
        # X has 2 levels plus NA; zero-weight records bind to no cell
        cells = np.ravel_multi_index([[0, 2], [1, 1], [1, 0], [1, 1]], (3, 3, 2, 2))
        assert bound.patterns.tolist() == cells.tolist()
        assert bound.weights.tolist() == [2.0, 1.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_non_finite_or_negative_weight_rejected(self, fig1b, bad):
        with pytest.raises(DataError, match="finite and non-negative"):
            Dataset(fig1b, [[0, 1, 1, 1], [1, 1, 1, 1]], weights=[1.0, bad])
        cells = np.array(observed_law(random_law(fig1b, seed=1)).values, float).reshape(-1)
        cells[np.flatnonzero(cells)[0]] = bad
        with pytest.raises(DataError, match="finite and non-negative"):
            Dataset.from_cell_weights(fig1b, cells)

    def test_cell_weight_the_observation_never_produces_names_the_cell(self, fig1b):
        cells = np.zeros([a.size for a in observable_axes(fig1b)])
        cells[0, 0, 1, 1] = 3.0
        cells[1, 2, 1, 1] = 1.0  # Y is NA while R_Y = 1
        with pytest.raises(DataError, match=r"NA exactly when its response indicator is 0 "
                                            r"\(observed cell X=1, Y=NA, R_X=1, R_Y=1\)$"):
            Dataset.from_cell_weights(fig1b, cells)

    def test_wrong_number_of_cell_weights_rejected(self, fig1b):
        with pytest.raises(DataError, match="5 observed-cell weights given, expected 36"):
            Dataset.from_cell_weights(fig1b, np.ones(5))

    def test_csv_round_trip(self, fig1b, tmp_path):
        d = sample_dataset(random_law(fig1b, seed=1), 500, seed=2)
        path = tmp_path / "d.csv"
        d.to_csv(path)
        assert_same_data(Dataset.from_csv(path, fig1b), d)

    @pytest.mark.parametrize("weight", [1.000005, 0.999995, 2.5])
    def test_csv_needs_whole_number_weights(self, fig1b, tmp_path, weight):
        d = sample_dataset(random_law(fig1b, seed=1), 20, seed=2)
        weights = d.weights.copy()
        weights[0] = weight
        with pytest.raises(DataError, match="whole-number weights"):
            Dataset(fig1b, d.rows, weights).to_csv(tmp_path / "d.csv")
        assert not (tmp_path / "d.csv").exists()

    def test_csv_writes_each_record_weight_times(self, fig1b, tmp_path):
        d = Dataset(fig1b, [[NA, 1, 0, 1], [1, 0, 1, 1], [NA, 1, 0, 1]], weights=[1.0, 3.0, 1.0])
        d.to_csv(tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_text().splitlines() == \
            ["X,Y,R_X,R_Y"] + ["1,0,1,1"] * 3 + ["NA,1,0,1"] * 2

    def test_csv_one_based_round_trip(self, fig1b, tmp_path):
        d = sample_dataset(random_law(fig1b, seed=1), 200, seed=2)
        path = tmp_path / "d.csv"
        d.to_csv(path, one_based=True, na_token="?")
        assert_same_data(Dataset.from_csv(path, fig1b, one_based=True, na_token="?"), d)

    def test_csv_inconsistent_record_line_number(self, fig1b, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("X,Y,R_X,R_Y\n0,0,1,1\n0,NA,0,0\n")
        with pytest.raises(DataError, match="line 3"):
            Dataset.from_csv(path, fig1b)

    def test_csv_wrong_columns(self, fig1b, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,B\n0,0\n")
        with pytest.raises(DataError, match="do not match"):
            Dataset.from_csv(path, fig1b)

    def test_csv_na_in_indicator_column(self, fig1b, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("X,Y,R_X,R_Y\nNA,0,NA,1\n")
        with pytest.raises(DataError, match="NA not allowed"):
            Dataset.from_csv(path, fig1b)

    @pytest.mark.parametrize("line, one_based", [("2,1", False), ("-1,1", False), ("0,1", True),
                                                 ("3,2", True)])
    @pytest.mark.parametrize("r_x", [0, 1])
    def test_csv_code_outside_the_levels_is_out_of_range(self, tmp_path, line, one_based, r_x):
        # Only the NA token spells NA, not the NA level's code or the in-memory alias -1.
        path = tmp_path / "bad.csv"
        path.write_text(f"X,Y,R_X,R_Y\n{line},{r_x},1\n")
        code = line.split(",")[0]
        with pytest.raises(DataError, match=rf"^value {code} out of range for column 'X' "
                                            rf"\(line 2\)$"):
            Dataset.from_csv(path, ccm_graph(2, 2), one_based=one_based)

    @pytest.mark.parametrize("record, message", [
        ("1,5,1,1", "out of range"), ("0,NA,1,1", "NA exactly when"),
        ("0,x,1,1", "non-integer"), ("0,1,1", "wrong number of fields")])
    def test_csv_error_names_the_file_line_after_blank_lines(self, fig1b, tmp_path,
                                                             record, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"X,Y,R_X,R_Y\n0,0,1,1\n\n  \n{record}\n0,0,1,1\n")
        with pytest.raises(DataError, match=rf"{message}.*\(line 5\)$") as err:
            Dataset.from_csv(path, fig1b)
        assert err.value.line == 5

    def test_in_memory_error_names_the_record(self, fig1b):
        with pytest.raises(DataError, match=r"out of range.*\(record 1\)$") as err:
            Dataset(fig1b, [[0, 0, 1, 1], [0, 5, 1, 1]])
        assert (err.value.row, err.value.line) == (1, None)

    @pytest.mark.parametrize("bad", ["0,NA,0,0", "0,x,1,1", "0,5,1,1"])
    def test_csv_repeated_bad_line_reported_at_first_occurrence(self, fig1b, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"X,Y,R_X,R_Y\n0,0,1,1\n{bad}\n1,1,1,1\n{bad}\n0,0,1,1\n")
        with pytest.raises(DataError, match=r"\(line 3\)$") as err:
            Dataset.from_csv(path, fig1b)
        assert err.value.line == 3

    @pytest.mark.parametrize("opened", ['0,"0,1,1', '0,0,1,"1'])
    def test_csv_quoted_field_spanning_lines_names_its_first_line(self, fig1b, tmp_path,
                                                                  opened):
        path = tmp_path / "bad.csv"
        path.write_text(f'X,Y,R_X,R_Y\n0,0,1,1\n{opened}\n1"\n1,1,1,1\n')
        with pytest.raises(DataError, match=r"^quoted field runs past the end of the line "
                                            r"\(line 3\)$") as err:
            Dataset.from_csv(path, fig1b)
        assert err.value.line == 3

    def test_csv_lines_differing_in_spacing_or_quoting_read_alike(self, fig1b, tmp_path):
        path = tmp_path / "d.csv"
        text = ('X,Y,R_X,R_Y\n1,0,1,1\n 1, 0 ,1,1\n"1",0,"1",1\n'
                'NA,1,0,1\n NA ,"1",0,1\n1,0,1,1\n')
        # The last line repeats the first record, with and without its newline.
        for text in (text, text.removesuffix("\n")):
            path.write_text(text)
            data = Dataset.from_csv(path, fig1b)
            assert (data.rows.tolist(), data.weights.tolist()) == \
                ([[1, 0, 1, 1], [2, 1, 0, 1]], [4, 2])

    def test_csv_crlf_line_endings(self, fig1b, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"X,Y,R_X,R_Y\r\n1,0,1,1\r\nNA,1,0,1\n1,0,1,1\r\n\r\n0,NA,1,0\r\n")
        data = Dataset.from_csv(path, fig1b)
        assert (data.rows.tolist(), data.weights.tolist()) == \
            ([[0, 2, 1, 0], [1, 0, 1, 1], [2, 1, 0, 1]], [1, 2, 1])

    def test_csv_utf8_byte_order_mark(self, fig1b, tmp_path):
        # spreadsheets export "CSV UTF-8" with a byte-order mark before the header
        path = tmp_path / "d.csv"
        path.write_bytes("X,Y,R_X,R_Y\n1,0,1,1\nNA,1,0,1\n".encode("utf-8-sig"))
        data = Dataset.from_csv(path, fig1b)
        assert (data.rows.tolist(), data.weights.tolist()) == ([[1, 0, 1, 1], [2, 1, 0, 1]],
                                                               [1, 1])

    def test_csv_header_only_is_an_empty_dataset(self, fig1b, tmp_path):
        path = tmp_path / "d.csv"
        for text in ("X,Y,R_X,R_Y", "X,Y,R_X,R_Y\n", "X,Y,R_X,R_Y\n\n \n"):
            path.write_text(text)
            data = Dataset.from_csv(path, fig1b)
            assert data.rows.shape == (0, 4)
            with pytest.raises(FitError, match="empty dataset"):
                fit(data, fig1b)

    def test_zero_total_weight_rejected(self, fig1b):
        data = Dataset(fig1b, [[0, 1, 1, 1], [NA, 0, 0, 1]], weights=[0.0, 0.0])
        with pytest.raises(FitError, match="empty dataset"):
            fit(data, fig1b)

    def test_csv_reading_memory_grows_with_distinct_lines(self, tmp_path):
        graph = ccm_graph(3, 3)
        data = sample_dataset(random_law(graph, seed=42), 200_000, seed=43)
        path = tmp_path / "d.csv"
        data.to_csv(path)
        tracemalloc.start()
        try:
            back = Dataset.from_csv(path, graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_data(back, data)
        assert peak <= 2**20, f"from_csv peaked at {peak / 2**20:.2f} MB"

    def test_csv_rows_match_a_per_line_parse(self, tmp_path):
        graph = ccm_graph(3, 3)
        data = sample_dataset(random_law(graph, seed=42), 5000, seed=43)
        path = tmp_path / "d.csv"
        data.to_csv(path, one_based=True)
        # Shuffle and respell the records, add blank lines and reorder the columns.
        rng = np.random.default_rng(45)
        header, *lines = path.read_text().splitlines()
        lines = [lines[i] for i in np.random.default_rng(44).permutation(len(lines))]
        order = [2, 0, 3, 1]
        out = [",".join(header.split(",")[i] for i in order)]
        for line in lines:
            cells = [line.split(",")[i] for i in order]
            if rng.random() < 0.2:
                cells = [f' {c} ' if rng.random() < 0.5 else f'"{c}"' for c in cells]
            out.append(",".join(cells))
            if rng.random() < 0.01:
                out.append(" " * int(rng.integers(3)))
        path.write_text("\n".join(out) + "\n")
        back = Dataset.from_csv(path, graph, one_based=True)
        assert counted(line_by_line_rows(path, graph, one_based=True)) == \
            (back.rows.tolist(), back.weights.tolist())
        assert_same_data(back, data)


class TestBind:
    def test_dataset_from_another_graph_rejected(self):
        data = sample_dataset(random_law(ccm_graph(2, 2), seed=35), 500, seed=36)
        with pytest.raises(FitError, match="do not match the model graph"):
            fit(data, ccm_graph(3, 3))

    @pytest.mark.parametrize("graph", [ccm_graph(3, 3), example_graph("d", 2)])
    def test_completions_equal_completion_set(self, graph):
        # The full cells the coarsening map sends to each observed cell are
        # that record's completion set; records with an NA that disagrees
        # with their indicator have none.
        model = LikelihoodModel(graph)
        axes = observable_axes(graph)
        cells = coarsening_map(graph).reshape(-1)
        for obs, row in enumerate(np.ndindex(*[a.size for a in axes])):
            record = dict(zip([a.name for a in axes], row))
            consistent = all(
                (record[p.true] == graph.vertex(p.true).levels) == (record[p.indicator] == 0)
                for p in graph.pairs)
            want = [np.ravel_multi_index([full[n] for n in model.names], model.shape)
                    for full in completion_set(record, graph)] if consistent else []
            assert np.flatnonzero(cells == obs).tolist() == sorted(want)


class TestLogLikelihood:
    def test_complete_data_equals_sum_of_joint_logs(self, fig1b):
        law = random_law(fig1b, seed=3)
        data = Dataset(fig1b, [[0, 1, 1, 1], [1, 0, 1, 1], [0, 0, 1, 1]])
        model = LikelihoodModel(fig1b)
        theta = model.cpts_to_theta(law.cpts)
        from colluder_lab import joint_probability
        want = sum(w * math.log(joint_probability(law, dict(zip(data.columns, row))))
                   for row, w in zip(data.rows.tolist(), data.weights))
        assert model.log_likelihood(theta, model.bind(data).counts) == \
            pytest.approx(want, abs=1e-12)

    def test_single_double_missing_record_marginal(self, fig1b):
        law = CategoricalLaw(fig1b, {
            "X": np.array([0.5, 0.5]),
            "Y": np.array([[0.5, 0.5], [0.5, 0.5]]),
            "R_X": np.array([0.5, 0.5]),
            "R_Y": np.full((2, 2, 2), 0.5),
        })
        model = LikelihoodModel(fig1b)
        theta = model.cpts_to_theta(law.cpts)
        data = Dataset(fig1b, [[NA, NA, 0, 0]])
        # marginal over the four hidden cells: p(R_X=0, R_Y=0) = 0.25
        assert model.log_likelihood(theta, model.bind(data).counts) == \
            pytest.approx(math.log(0.25), abs=1e-12)

    def test_permutation_and_duplication_invariance(self, fig1b):
        law = random_law(fig1b, seed=4)
        data = sample_dataset(law, 300, seed=5)
        model = LikelihoodModel(fig1b)
        theta = model.cpts_to_theta(law.cpts)
        # The first ten records become twenty of weight 1/2, and the records are shuffled.
        records = records_of(data)
        records = np.concatenate([records, records[:10]])
        weights = np.concatenate([np.full(10, 0.5), np.ones(len(records) - 20), np.full(10, 0.5)])
        perm = np.random.default_rng(6).permutation(len(records))
        shuffled = model.bind(Dataset(fig1b, records[perm], weights[perm]))
        assert model.log_likelihood(theta, shuffled.counts) == \
            model.log_likelihood(theta, model.bind(data).counts)

    def test_population_log_likelihood_maximized_at_truth(self, fig1b):
        law = random_law(fig1b, seed=7)
        data = Dataset.from_cell_weights(law.graph, observed_law(law).values)
        model = LikelihoodModel(fig1b)
        theta = model.cpts_to_theta(law.cpts)
        counts = model.bind(data).counts
        base = model.log_likelihood(theta, counts)
        rng = np.random.default_rng(8)
        for _ in range(25):
            delta = rng.normal(scale=0.05, size=theta.shape)
            assert model.log_likelihood(theta + delta, counts) < base + 1e-12

    def test_zero_probability_record_flagged(self, fig1b):
        data = Dataset(fig1b, [[1, 0, 1, 1]])
        model = LikelihoodModel(fig1b)
        counts = model.bind(data).counts
        # A logit beyond exp's underflow gives p(X=1) exactly 0.
        theta = np.zeros(model.n_params)
        theta[next(c[3] for c in model.parameter_coords() if c[0] == "X")] = -800.0
        assert model.pattern_probs(theta, counts)[0] == 0.0
        assert model.log_likelihood(theta, counts) == -np.inf
        for derivative in (model.gradient, model.hessian):
            with pytest.raises(FitError, match="probability zero"):
                derivative(theta, counts)
        assert model.log_likelihood(np.full(model.n_params, -30.0), counts) < -80


@settings(max_examples=40, deadline=None)
@given(graph=small_graphs(), seed=st.integers(0, 2**32 - 1))
def test_pattern_probs_reproduce_the_observed_law(graph, seed):
    exact = exact_random_law(graph, np.random.default_rng(seed))
    law = CategoricalLaw(graph, {k: v.astype(float) for k, v in exact.cpts.items()})
    obs = observed_law(law)
    model = LikelihoodModel(graph)
    data = model.bind(Dataset.from_cell_weights(obs.graph, obs.values))
    probs = model.pattern_probs(model.cpts_to_theta(law.cpts), data.counts)
    assert np.allclose(probs, obs.values.reshape(-1)[data.patterns], rtol=0, atol=1e-12)
    assert abs(probs.sum() - 1.0) <= 1e-12


class TestGradient:
    @pytest.mark.parametrize("mq", [(2, 2), (3, 3), (4, 4)])
    def test_matches_finite_differences(self, mq):
        g = ccm_graph(*mq)
        model = LikelihoodModel(g)
        rng = np.random.default_rng(10)
        for _ in range(10):
            law = random_law(g, seed=int(rng.integers(1 << 30)))
            data = sample_dataset(law, 200, seed=int(rng.integers(1 << 30)))
            counts = model.bind(data).counts
            theta = rng.normal(scale=1.0, size=model.n_params)
            gan = model.gradient(theta, counts)
            gfd = fd_gradient(model, theta, counts)
            scale = max(1.0, float(np.abs(gan).max()))
            assert np.abs(gan - gfd).max() / scale <= 1e-6

    def test_stationary_at_population_optimum(self, fig1b):
        law = random_law(fig1b, seed=11)
        data = Dataset.from_cell_weights(law.graph, observed_law(law).values)
        model = LikelihoodModel(fig1b)
        theta = model.cpts_to_theta(law.cpts)
        assert np.linalg.norm(model.gradient(theta, model.bind(data).counts)) <= 1e-8

    def test_complete_data_multinomial_score(self):
        # single binary vertex: score is n1 - n * p1
        g = MissingDataGraph([Vertex("A", O, 2)])
        model = LikelihoodModel(g)
        data = Dataset(g, [[1]] * 7 + [[0]] * 3)
        theta = np.array([0.4])
        p1 = math.exp(0.4) / (1 + math.exp(0.4))
        got = model.gradient(theta, model.bind(data).counts)
        assert got[0] == pytest.approx(7 - 10 * p1, abs=1e-12)


class TestHessian:
    @pytest.mark.parametrize("graph", [ccm_graph(2, 2), ccm_graph(3, 3), ccm_graph(4, 4),
                                       example_graph("d")], ids=["ccm22", "ccm33", "ccm44", "d"])
    def test_matches_finite_differences_of_the_gradient(self, graph):
        model = LikelihoodModel(graph)
        rng = np.random.default_rng(14)
        for _ in range(5):
            law = random_law(graph, seed=int(rng.integers(1 << 30)))
            counts = model.bind(sample_dataset(law, 300, seed=int(rng.integers(1 << 30)))).counts
            theta = rng.normal(scale=1.0, size=model.n_params)
            fd = np.zeros((model.n_params, model.n_params))
            for i in range(model.n_params):
                up, dn = theta.copy(), theta.copy()
                up[i] += 1e-5
                dn[i] -= 1e-5
                fd[i] = (model.gradient(up, counts) - model.gradient(dn, counts)) / 2e-5
            fd = (fd + fd.T) / 2.0
            exact = model.hessian(theta, counts)
            assert np.abs(exact - fd).max() / max(1.0, float(np.abs(exact).max())) <= 1e-6


def weighted_sample(graph, seed, n=60):
    """Records of a random positive law, about a third of them with weight 0."""
    rng = np.random.default_rng(seed)
    exact = exact_random_law(graph, rng)
    law = CategoricalLaw(graph, {k: v.astype(float) for k, v in exact.cpts.items()})
    records = records_of(sample_dataset(law, n, seed=seed))
    weights = rng.choice([0.0, 0.5, 1.0, 3.0], size=n, p=[0.35, 0.15, 0.3, 0.2])
    weights[0] = 1.0
    return Dataset(graph, records, weights), rng


@settings(max_examples=30, deadline=None)
@given(graph=small_graphs(), seed=st.integers(0, 2**32 - 1))
def test_derivatives_match_finite_differences_with_zero_weights(graph, seed):
    data, rng = weighted_sample(graph, seed)
    model = LikelihoodModel(graph)
    counts = model.bind(data).counts
    theta = rng.normal(scale=1.0, size=model.n_params)
    g = model.gradient(theta, counts)
    assert np.abs(g - fd_gradient(model, theta, counts)).max() \
        <= 1e-6 * max(1.0, float(np.abs(g).max()))
    fd = np.array([(model.gradient(theta + e, counts) - model.gradient(theta - e, counts)) / 2e-5
                   for e in np.eye(model.n_params) * 1e-5])
    exact = model.hessian(theta, counts)
    assert np.abs(exact - (fd + fd.T) / 2.0).max() <= 1e-6 * max(1.0, float(np.abs(exact).max()))


@settings(max_examples=30, deadline=None)
@given(graph=small_graphs(), seed=st.integers(0, 2**32 - 1))
def test_fit_reports_parameters_like_a_per_parameter_loop(graph, seed):
    data, _ = weighted_sample(graph, seed, n=200)
    res = fit(data, graph, FitConfig(restarts=1, seed=seed, max_iterations=40,
                                     allow_nonidentifiable=True))
    model = LikelihoodModel(graph)
    counts = model.bind(data).counts
    ref = per_parameter_report(model, res.theta, counts)
    # A variance is dp' cov dp, summed here in another order than fit's.  Its
    # rounding is at most about n_params * eps * ||dp||^2 / lam_min, and the
    # variance is at least ||dp||^2 / lam_max, over the kept information
    # eigenvalues lam; a standard error has half that relative error.
    info = np.linalg.eigvalsh(-model.hessian(res.theta, counts))
    kept = info[info > 1e-8 * max(info.max(initial=0.0), 0.0)]
    rtol = model.n_params * np.finfo(float).eps * kept.max(initial=1.0) / kept.min(initial=1.0)
    assert len(res.parameters) == len(ref)
    for p, (name, given_, level, est, se, ci, boundary, reliable) in zip(res.parameters, ref):
        assert (p.vertex, p.given, p.level, p.estimate) == (name, given_, level, est)
        assert (p.boundary, p.reliable) == (boundary, reliable)
        assert (p.se is None, p.ci is None) == (se is None, ci is None)
        if se is not None:
            assert abs(p.se - se) <= rtol * se
            # est -/+ z * se, clipped to [0, 1], with z < 2 and one rounding.
            assert np.allclose(p.ci, ci, rtol=0, atol=2 * rtol * se + np.finfo(float).eps)
    for name, cpt in model.theta_to_cpts(res.theta).items():
        assert np.array_equal(res.cpts[name], cpt)


def per_block_cpts(graph, theta):
    """CPTs one vertex at a time: a softmax over each row's [0, free logits]."""
    cpts, off = {}, 0
    for v in graph.vertices:
        shape = tuple(graph.vertex(p).levels
                      for p in graph.parents(v.name)) + (v.levels,)
        n_rows, L = int(np.prod(shape[:-1])), shape[-1]
        block = theta[off:off + n_rows * (L - 1)].reshape(n_rows, L - 1)
        off += n_rows * (L - 1)
        logits = np.concatenate([np.zeros((n_rows, 1)), block], axis=1)
        logits -= logits.max(axis=1, keepdims=True)
        ex = np.exp(logits)
        cpts[v.name] = (ex / ex.sum(axis=1, keepdims=True)).reshape(shape)
    assert off == len(theta)
    return cpts


# Graphs whose level counts differ widely, up to 12 levels on a vertex.
_WIDE_GRAPHS = [ccm_graph(9, 3), ccm_graph(3, 12), ccm_graph(8, 7)]


@settings(max_examples=40, deadline=None)
@given(graph=st.one_of(small_graphs(), st.sampled_from(_WIDE_GRAPHS)),
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.1, 3.0, 30.0]))
def test_theta_to_cpts_equals_per_block_softmax(graph, seed, scale):
    model = LikelihoodModel(graph)
    theta = np.random.default_rng(seed).normal(scale=scale, size=model.n_params)
    got, want = model.theta_to_cpts(theta), per_block_cpts(graph, theta)
    assert list(got) == list(want)
    for name in want:
        assert got[name].shape == want[name].shape
        assert np.array_equal(got[name], want[name])


class TestTransform:
    def test_round_trip_identity(self, fig1b):
        model = LikelihoodModel(fig1b)
        rng = np.random.default_rng(14)
        theta = rng.normal(scale=2.0, size=model.n_params)
        back = model.cpts_to_theta(model.theta_to_cpts(theta))
        assert np.abs(back - theta).max() <= 1e-12

    def test_rows_live_on_open_simplex(self, fig1b):
        model = LikelihoodModel(fig1b)
        cpts = model.theta_to_cpts(np.full(model.n_params, 30.0))
        for arr in cpts.values():
            rows = arr.reshape(-1, arr.shape[-1])
            assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)
            assert rows.min() > 0.0

    def test_boundary_cpts_rejected(self, fig1b):
        model = LikelihoodModel(fig1b)
        law = CategoricalLaw(fig1b, {
            "X": np.array([1.0, 0.0]),
            "Y": np.array([[0.5, 0.5], [0.5, 0.5]]),
            "R_X": np.array([0.5, 0.5]),
            "R_Y": np.full((2, 2, 2), 0.5),
        })
        with pytest.raises(FitError, match="zero entry"):
            model.cpts_to_theta(law.cpts)


class TestFit:
    def test_confounded_graph_refused(self):
        g = example_graph("a")
        data = sample_dataset(random_law(ccm_graph(2, 2), seed=4), 500, seed=5)
        for run in (lambda: fit(Dataset(g, data.rows), g,
                                FitConfig(seed=1, allow_nonidentifiable=True)),
                    lambda: LikelihoodModel(g)):
            with pytest.raises(FitError, match="bidirected edges X<->Y, R_X<->R_Y"):
                run()

    def test_complete_data_recovers_frequencies(self, fig1b):
        law = random_law(fig1b, seed=16)
        data = sample_dataset(law, 4000, seed=17)
        keep = (data.rows[:, 2] == 1) & (data.rows[:, 3] == 1)
        complete = Dataset(fig1b, data.rows[keep], data.weights[keep])
        res = fit(complete, fig1b, FitConfig(restarts=2, seed=18))
        # closed-form MLE: weighted empirical frequencies per CPT row
        x, y, w = complete.rows[:, 0], complete.rows[:, 1], complete.weights
        assert float(np.asarray(res.cpts["X"], float)[0]) == pytest.approx(
            w[x == 0].sum() / w.sum(), abs=1e-6)
        assert float(np.asarray(res.cpts["Y"], float)[0, 0]) == pytest.approx(
            w[(x == 0) & (y == 0)].sum() / w[x == 0].sum(), abs=1e-6)

    def test_population_recovery(self, fig1b):
        law = random_law(fig1b, seed=19)
        data = Dataset.from_cell_weights(law.graph, observed_law(law).values)
        res = fit(data, fig1b, FitConfig(restarts=3, seed=20))
        for name in law.cpts:
            assert np.abs(np.asarray(res.cpts[name], float)
                          - np.asarray(law.cpts[name], float)).max() <= 1e-6
        assert res.converged

    def test_empty_dataset_rejected(self, fig1b):
        for rows in (np.empty((0, 4), dtype=np.int64), []):
            data = Dataset(fig1b, rows)
            assert data.rows.shape == (0, 4)
            with pytest.raises(FitError, match="empty dataset"):
                fit(data, fig1b)

    def test_zero_total_weight_rejected(self, fig1b):
        data = Dataset(fig1b, [[0, 1, 1, 1], [NA, 0, 0, 1]], weights=[0.0, 0.0])
        with pytest.raises(FitError, match="empty dataset"):
            fit(data, fig1b)

    def test_nonidentifiable_graph_needs_flag(self):
        g = ccm_graph(3, 2)
        law = random_law(g, seed=21)
        data = sample_dataset(law, 200, seed=22)
        with pytest.raises(FitError, match="non-identifiable"):
            fit(data, g)
        res = fit(data, g, FitConfig(restarts=1, seed=23, allow_nonidentifiable=True))
        assert res.log_likelihood < 0

    @pytest.mark.parametrize("m", [2, 3])
    def test_independent_variables_need_flag(self, m):
        g = ccm_graph(m, m, dependency=False)
        data = sample_dataset(random_law(g, seed=m), 200, seed=22)
        with pytest.raises(FitError, match="non-identifiable"):
            fit(data, g)
        assert fit(data, g, FitConfig(restarts=1, seed=23, allow_nonidentifiable=True)).cpts

    def test_wald_se_matches_binomial_formula(self):
        g = MissingDataGraph([Vertex("A", O, 2)])
        data = Dataset(g, [[1]] * 70 + [[0]] * 30)
        res = fit(data, g, FitConfig(restarts=1, seed=24))
        (param,) = res.parameters
        assert param.estimate == pytest.approx(0.7, abs=1e-8)
        assert param.se == pytest.approx(math.sqrt(0.7 * 0.3 / 100), rel=1e-4)
        lo, hi = param.ci
        z = 1.959963984540054
        assert lo == pytest.approx(0.7 - z * param.se, abs=1e-9)
        assert hi == pytest.approx(0.7 + z * param.se, abs=1e-9)

    def test_boundary_estimate_flagged(self):
        g = MissingDataGraph([Vertex("A", O, 2)])
        data = Dataset(g, [[1]] * 50)
        res = fit(data, g, FitConfig(restarts=1, seed=25))
        (param,) = res.parameters
        assert param.boundary and not param.reliable
        assert param.ci is None

    def test_label_symmetry_under_level_relabeling(self, fig1b):
        law = random_law(fig1b, seed=26)
        data = sample_dataset(law, 500, seed=27)
        res = fit(data, fig1b, FitConfig(restarts=3, seed=28))
        swapped_rows = data.rows.copy()
        observed = swapped_rows[:, 1] != 2
        swapped_rows[observed, 1] = 1 - swapped_rows[observed, 1]
        res_swapped = fit(Dataset(fig1b, swapped_rows, data.weights), fig1b,
                          FitConfig(restarts=3, seed=28))
        assert res.log_likelihood == pytest.approx(res_swapped.log_likelihood, abs=1e-9)
        pyx = np.asarray(res.cpts["Y"], float)
        pyx_swapped = np.asarray(res_swapped.cpts["Y"], float)
        assert np.allclose(pyx[:, ::-1], pyx_swapped, atol=5e-6)

    def test_flat_ridge_on_nonidentifiable_pair(self):
        pair = appendix_b_pair(Fraction(3, 10), Fraction(2, 5), Fraction(1, 5),
                               Fraction(3, 10), Fraction(2, 5), Fraction(1, 2),
                               Fraction(3, 5), Fraction(7, 10), Fraction(4, 10))
        g = pair.law1.graph
        data = sample_dataset(pair.law1, 2000, seed=29)
        model = LikelihoodModel(g)
        counts = model.bind(data).counts
        ll1 = model.log_likelihood(model.cpts_to_theta(pair.law1.cpts), counts)
        ll2 = model.log_likelihood(model.cpts_to_theta(pair.law2.cpts), counts)
        assert abs(ll1 - ll2) <= 1e-9

    def test_survey_style_fit_covers_truth(self):
        # three-level questionnaire pair with mild missingness on both items
        g = ccm_graph(3, 3)
        law = CategoricalLaw(g, {
            "X": np.array([0.157, 0.446, 0.397]),
            "Y": np.array([[0.366, 0.536, 0.098],
                           [0.451, 0.515, 0.034],
                           [0.497, 0.425, 0.078]]),
            "R_X": np.array([0.147, 0.853]),
            "R_Y": np.array([[[1 - 0.75, 0.75], [1 - 0.901, 0.901]],
                             [[1 - 0.769, 0.769], [1 - 0.967, 0.967]],
                             [[1 - 0.685, 0.685], [1 - 0.996, 0.996]]]),
        })
        data = sample_dataset(law, 11708, seed=30)
        # marginal missingness mirrors the survey workload: ~15% and ~8%
        share = [data.weights[data.rows[:, i] == 3].sum() / 11708 for i in (0, 1)]
        assert np.isclose(share[0], 0.147, atol=0.02)
        assert share[1] < 0.12
        res = fit(data, g, FitConfig(restarts=3, seed=31))
        assert res.converged
        assert len(res.parameters) == 15
        model = LikelihoodModel(g)
        truth = {p: None for p in ()}
        for param in res.parameters:
            row = np.asarray(law.cpts[param.vertex], float)
            idx = tuple(v for _, v in param.given) + (param.level,)
            true_val = float(row[idx])
            if param.reliable:
                assert abs(param.estimate - true_val) <= 3.5 * param.se + 1e-9

    def test_converged_judges_the_best_restart_alone(self, fig1b):
        # The restarts together take more than max_iterations, none alone does.
        law = random_law(fig1b, seed=1)
        data = sample_dataset(law, 1000, seed=101)
        res = fit(data, fig1b, FitConfig(restarts=5, max_iterations=20, seed=1))
        assert res.iterations > 20 and res.grad_norm <= 1e-8
        assert res.converged
        capped = fit(data, fig1b, FitConfig(restarts=5, max_iterations=3, seed=1))
        assert not capped.converged

    @pytest.mark.parametrize("bad", [{"restarts": 0}, {"restarts": -2},
                                     {"max_iterations": -1}])
    def test_bad_settings_rejected(self, bad):
        with pytest.raises(FitError, match="restarts must be at least 1|max_iterations"):
            FitConfig(**bad)

    @pytest.mark.parametrize("bad, match", [
        ({"restarts": 2.5}, "restarts must be an integer"),
        ({"max_iterations": 10.0}, "max_iterations must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": -1}, "seed must be non-negative"),
    ])
    def test_non_integer_and_negative_seed_settings_rejected(self, bad, match):
        with pytest.raises(FitError, match=match):
            FitConfig(**bad)

    def test_zero_steps_caps_every_start(self, fig1b):
        data = sample_dataset(random_law(fig1b, seed=1), 300, seed=2)
        res = fit(data, fig1b, FitConfig(restarts=2, max_iterations=0, seed=3))
        assert res.iterations == 0 and not res.converged

    def test_monotone_improvement_across_restarts(self, fig1b):
        # the reported optimum dominates every restart's own outcome
        law = random_law(fig1b, seed=32)
        data = sample_dataset(law, 400, seed=33)
        best = None
        for restarts in (1, 2, 4):
            res = fit(data, fig1b, FitConfig(restarts=restarts, seed=34))
            if best is not None:
                assert res.log_likelihood >= best - 1e-9
            best = max(best or -np.inf, res.log_likelihood)


@settings(max_examples=25, deadline=None)
@given(graph=small_graphs(), seed=st.integers(0, 2**32 - 1), n_data=st.integers(2, 4))
def test_batched_fit_equals_each_datasets_own_fit(graph, seed, n_data):
    # Every (dataset, start) row of one Newton batch ends bit for bit where it
    # ends alone, with the same steps and stop; the best start of each dataset
    # is what fit() reports for that dataset.
    rng = np.random.default_rng(seed)
    model = LikelihoodModel(graph)
    data = [sample_dataset(CategoricalLaw(graph, {k: v.astype(float) for k, v in
                                                  exact_random_law(graph, rng).cpts.items()}),
                           int(rng.integers(20, 400)), seed=int(rng.integers(1 << 30)))
            for _ in range(n_data)]
    weights = np.stack([model.bind(d).counts for d in data])
    fit_seeds = [int(s) for s in rng.integers(1 << 30, size=n_data)]
    starts = np.stack([starting_points(model, 2, s) for s in fit_seeds])
    rows, row_weights = starts.reshape(2 * n_data, -1), np.repeat(weights, 2, axis=0)
    batch = _newton(model, rows, row_weights, 40)
    batch_ll = model.log_likelihood(batch[0], row_weights)
    for i in range(len(rows)):
        alone = _newton(model, rows[i:i + 1], row_weights[i:i + 1], 40)
        for got, want in zip(batch, alone):
            assert np.array_equal(got[i:i + 1], want)
        assert batch_ll[i] == model.log_likelihood(alone[0][0], row_weights[i])

    theta, ll, best, grad_norm, converged, steps = maximize(model, weights, starts, 40)
    for i, (d, s) in enumerate(zip(data, fit_seeds)):
        res = fit(d, graph, FitConfig(restarts=2, seed=s, max_iterations=40,
                                      allow_nonidentifiable=True))
        assert np.array_equal(res.theta, theta[i])
        assert (res.log_likelihood, res.grad_norm, res.converged, res.best_restart,
                res.iterations) == (ll[i], grad_norm[i], converged[i], best[i], steps[i].sum())
