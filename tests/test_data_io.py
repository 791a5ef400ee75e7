"""CSV loading, standardization, and the split protocol."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nbknn.data_io
from nbknn import (
    CsvFormatError,
    LabeledDataset,
    SplitSpec,
    load_csv,
    balanced_split,
    split_indices,
    standardize,
)
from nbknn.data_io import CsvDataset, load_queries


@pytest.fixture()
def csv_file(tmp_path):
    def write(text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    return write


class TestLoadCsv:
    def test_basic_load_and_encoding(self, csv_file):
        path = csv_file("x,y,cls\n0,1,a\n2,3,a\n4,5,b\n")
        loaded = load_csv(path, "cls")
        assert loaded.data.n == 3
        assert loaded.data.dim == 2
        assert loaded.class_names == ("a", "b")
        assert loaded.data.labels.tolist() == [1, 1, 2]
        assert loaded.feature_names == ("x", "y")

    def test_encoding_by_descending_count(self, csv_file):
        path = csv_file("x,cls\n0,b\n1,a\n2,a\n3,b\n4,a\n")
        loaded = load_csv(path, "cls")
        assert loaded.class_names == ("a", "b")
        assert loaded.data.labels.tolist() == [2, 1, 1, 2, 1]

    def test_count_tie_by_first_appearance(self, csv_file):
        path = csv_file("x,cls\n0,z\n1,a\n2,z\n3,a\n")
        loaded = load_csv(path, "cls")
        assert loaded.class_names == ("z", "a")

    def test_label_column_in_middle(self, csv_file):
        path = csv_file("x,cls,y\n0,a,1\n2,b,3\n4,a,5\n")
        loaded = load_csv(path, "cls")
        assert loaded.feature_names == ("x", "y")
        np.testing.assert_array_equal(loaded.data.points, [[0, 1], [2, 3], [4, 5]])

    def test_missing_label_column_names_available(self, csv_file):
        path = csv_file("x,y,cls\n0,1,a\n")
        with pytest.raises(CsvFormatError, match="available columns: x, y, cls"):
            load_csv(path, "label")

    def test_nan_cell_cites_row(self, csv_file):
        path = csv_file("x,cls\n0,a\nnan,b\n1,a\n")
        with pytest.raises(CsvFormatError, match="row 3"):
            load_csv(path, "cls")

    def test_multiple_bad_rows_all_cited(self, csv_file):
        path = csv_file("x,cls\n0,a\nnan,b\n1,a\ninf,b\n")
        with pytest.raises(CsvFormatError, match=r"row 3.*row 5"):
            load_csv(path, "cls")

    def test_non_numeric_cell_cites_row_and_column(self, csv_file):
        path = csv_file("x,y,cls\n0,1,a\n2,oops,b\n")
        with pytest.raises(CsvFormatError, match=r"row 3, column 'y'"):
            load_csv(path, "cls")

    def test_duplicate_header_name_rejected(self, csv_file):
        path = csv_file("x,y,x,cls\n0,1,2,a\n3,4,5,b\n")
        with pytest.raises(CsvFormatError, match="duplicate column name 'x'"):
            load_csv(path, "cls")

    def test_empty_file(self, csv_file):
        path = csv_file("")
        with pytest.raises(CsvFormatError, match="empty"):
            load_csv(path, "cls")

    def test_header_only(self, csv_file):
        path = csv_file("x,cls\n")
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_csv(path, "cls")

    def test_byte_order_mark_ignored(self, csv_file):
        # Spreadsheets export UTF-8 with a BOM (U+FEFF) before the first header name.
        train_text, query_text = "label,x,y\na,0,1\nb,2,3\na,4,5\n", "y,x\n1,0\n6,7\n"
        loaded = []
        for i, bom in enumerate(("", "\ufeff")):
            train = load_csv(csv_file(bom + train_text, f"train{i}.csv"), "label")
            queries = load_queries(csv_file(bom + query_text, f"queries{i}.csv"), train)
            loaded.append((train, queries))
        (plain, plain_q), (marked, marked_q) = loaded
        assert marked.feature_names == plain.feature_names == ("x", "y")
        assert marked.class_names == plain.class_names
        assert marked.data.points.tobytes() == plain.data.points.tobytes()
        assert marked.data.labels.tobytes() == plain.data.labels.tobytes()
        assert marked_q.tobytes() == plain_q.tobytes()

    def test_empty_label_cites_row(self, csv_file):
        # A blank label cell would otherwise become a class named "".
        path = csv_file("x,cls\n0,a\n1,\n2,  \n3,b\n")
        with pytest.raises(CsvFormatError) as err:
            load_csv(path, "cls")
        assert str(err.value) == (
            f"{path}: row 3, column 'cls': empty label; row 4, column 'cls': empty label"
        )

    def test_empty_labels_share_the_bad_cell_message(self, csv_file):
        rows = "".join(f"{i},\n" for i in range(6))
        path = csv_file("x,cls\noops,a\n" + rows)
        with pytest.raises(CsvFormatError) as err:
            load_csv(path, "cls")
        assert str(err.value) == f"{path}: row 2, column 'x': non-numeric value 'oops'; " + "; ".join(
            f"row {r}, column 'cls': empty label" for r in range(3, 7)
        ) + " (and 2 more)"

    def test_query_label_cells_may_be_blank(self, csv_file):
        train = load_csv(csv_file("x,cls\n0,a\n1,b\n", "train.csv"), "cls")
        queries = load_queries(csv_file("cls,x\n,5\n  ,6\n", "queries.csv"), train)
        assert queries.tolist() == [[5.0], [6.0]]

    def test_ragged_row(self, csv_file):
        path = csv_file("x,y,cls\n0,1,a\n2,b\n")
        with pytest.raises(CsvFormatError, match="row 3 has 2 fields"):
            load_csv(path, "cls")


# Files the numpy parser reads and files it must hand to the csv module:
# quotes, a byte-order mark, CR line ends, blank and space-only lines,
# ragged rows, tokens that float() takes and numpy does not (or neither
# does), spaces around cells, blank labels, the label in any column, and
# query files with their columns reordered, with or without the label.
NUMBER_TOKENS = ["0", "-1.5", " 2.25 ", "\t3", "1e5", "+.5", "5.", "-0", "nan", "-inf", "Infinity",
                 "1e400", "1_0", "\u0663", "\uff17", "\u00a01", "", " ", "abc", "0x10", "1e", ".",
                 "1D3", "1j", "1#x", "1\x00"]
LABEL_TOKENS = ["a", "b", " a", "b ", "", "  ", "\u00e9", "c d", "#", "a\x00"]
TRAIN = CsvDataset(LabeledDataset([[0.0, 1.0, 2.0]], [1]), "cls", ("x", "y", "z"), ("a",))


@st.composite
def csv_files(draw):
    """(kind, text): a training file of 1-3 features, or a query file for
    ``TRAIN``.  Each kind of trouble is in about a quarter of the files,
    so about a fifth of them hold none."""
    kind = draw(st.sampled_from(["train", "query"]))
    if kind == "train":
        names = ["x", "y", "z"][: draw(st.integers(1, 3))] + ["cls"]
    else:
        names = ["x", "y", "z"] + (["cls"] if draw(st.booleans()) else [])
    names = draw(st.permutations(names))
    sometimes = st.integers(0, 3).map(lambda i: i == 0)
    quotes, tokens, odd_labels, ragged, blank, spaces = (draw(sometimes) for _ in range(6))
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    number = st.one_of(finite, st.floats().map(repr), st.sampled_from(NUMBER_TOKENS)) if tokens else finite
    label = st.sampled_from(LABEL_TOKENS if odd_labels else ["a", "b"])
    cell = lambda text: f'"{text}"' if quotes and draw(st.booleans()) else text
    lines = [",".join(cell(f" {n} " if spaces else n) for n in names)]
    for _ in range(draw(st.integers(0, 6))):
        cells = [draw(label if n == "cls" else number) for n in names]
        if ragged:
            cells = draw(st.sampled_from([cells, cells[:-1], cells + ["9"]]))
        lines.append(",".join(map(cell, cells)))
        if blank:
            lines += draw(st.sampled_from([[], [""], ["  "]]))
    newline = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "", "\ufeff"]))
    return kind, bom + newline.join(lines) + draw(st.sampled_from([newline, ""]))


def _load(kind, path):
    """What the loader gives for ``path``, or the error it raises."""
    try:
        if kind == "train":
            got = load_csv(path, "cls")
            return got.data.points.tobytes(), got.data.labels.tolist(), got.class_names, got.feature_names
        queries = load_queries(path, TRAIN)
        return queries.shape, queries.tobytes()
    except Exception as err:  # noqa: BLE001 - the error is the outcome compared
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(csv_files())
@example(("train", '"x",cls\n1,a\n'))
@example(("train", "\ufeffx,cls\r\n1,a\r\n"))
@example(("train", "x,cls\n1,a\r2,b\n"))
@example(("train", "x,cls\n1,a\n\n  \n2,b\n"))
@example(("train", "x,y,cls\n1,2,a\n3,b\n"))
@example(("query", "x,y,z\n1,2,3,4\n"))
@example(("train", "x,cls\nnan,a\ninf,b\n"))
@example(("train", "x,cls\n1_0,a\n\u0663,b\n\uff17,a\n"))
@example(("train", "x,cls\n 1.5 ,a\n"))
@example(("train", "x,cls\n1,  \n"))
@example(("train", "cls,x\n a ,1\nb,2\n"))
@example(("query", "cls,z,x,y\n,1,2,3\n"))
@example(("query", "z,y,x\n1,2,3\n"))
@example(("train", "x,cls\n\n\n"))
@example(("train", "x,cls\n1,a,\n"))
@example(("train", "x,cls\n1,#a\n"))
@example(("train", "x,cls\n1,a\x00\n"))
@example(("train", "x,cls\n1\t,a\n"))
@example(("query", "x,cls,y,z\n1,not a number,2,3\n"))
def test_numpy_path_equals_csv_module(tmp_path_factory, case):
    # The same outcome with the numpy parser enabled and with every file
    # read by the csv module: values bit for bit, labels, or the error.
    kind, text = case
    path = tmp_path_factory.mktemp("csv") / f"{kind}.csv"
    path.write_bytes(text.encode("utf-8"))
    got = _load(kind, path)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(nbknn.data_io, "_read_plain", lambda *args: None)
        assert got == _load(kind, path)


@pytest.mark.parametrize("text, expected", [
    ("x\n1\n   \n2\n", "row 3, column 'x': non-numeric value ''"),
    ("x\n1\n\n2\n", [[1.0], [2.0]]),
])
def test_one_feature_query_file(csv_file, text, expected):
    # Lines of one field and no comma: both readers refuse a line of
    # spaces and skip a blank line.
    train = CsvDataset(LabeledDataset([[0.0]], [1]), "cls", ("x",), ("a",))
    path = csv_file(text)
    for read_plain in (nbknn.data_io._read_plain, lambda *args: None):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(nbknn.data_io, "_read_plain", read_plain)
            try:
                got = load_queries(path, train).tolist()
            except CsvFormatError as err:
                got = str(err).removeprefix(f"{path}: ")
        assert got == expected


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["x,cls\n", "x,cls", "x,cls\n\n\n"])
def test_no_data_rows_raise_without_a_warning(csv_file, text):
    path = csv_file(text)
    with pytest.raises(CsvFormatError) as err:
        load_csv(path, "cls")
    assert str(err.value) == f"{path}: no data rows"


@pytest.mark.parametrize("flaw", [None, "ragged", "blank label", "quote", "nan"])
def test_numpy_path_reads_blocks_of_whole_lines(csv_file, rng, flaw):
    # 20,000 lines of about 45 bytes, more than one block of the quote
    # scan.  A clean file does not reach the csv module; a flaw near its
    # end sends it there, which names the bad cell or reads the quoted one.
    points = rng.normal(size=(20000, 2))
    lines = ["x,cls,y"] + [f"{x!r},{'ab'[i % 3 == 0]},{y!r}" for i, (x, y) in enumerate(points.tolist())]
    lines.insert(9000, "")
    if flaw:
        lines[-3] = {"ragged": "1,a", "blank label": "1, ,2", "quote": '1,"a",2', "nan": "nan,a,1"}[flaw]
    path = csv_file("\n".join(lines) + "\n")
    with pytest.MonkeyPatch.context() as m:
        if flaw is None:
            m.setattr(nbknn.data_io.csv, "reader", None)
        got = _load("train", path)
        m.undo()
        m.setattr(nbknn.data_io, "_read_plain", lambda *args: None)
        assert got == _load("train", path)
    assert (type(got[0]) is bytes) == (flaw in (None, "quote"))  # a quoted cell is no error


@pytest.mark.parametrize("label_at", ["last", "middle"])
def test_clean_file_takes_the_numpy_path(csv_file, monkeypatch, rng, label_at):
    # A file shaped like the benchmark inputs (repr floats, the label last
    # or in the middle, a label-less query file) must not reach the csv
    # module: a quiet fall-back would keep every value and lose the speed.
    points = rng.normal(size=(50, 4))
    labels = np.where(rng.random(50) < 0.2, "pos", "neg")
    at = 4 if label_at == "last" else 2
    header = ["x0", "x1", "x2", "x3"]
    rows = [[repr(float(v)) for v in row] for row in points]
    for row, label in zip(rows, labels):
        row.insert(at, str(label))
    train_path = csv_file(",".join(header[:at] + ["label"] + header[at:]) + "\n"
                          + "".join(",".join(row) + "\n" for row in rows), "train.csv")
    query_path = csv_file(",".join(header) + "\n"
                          + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in points[:7]),
                          "queries.csv")

    def refuse(*args, **kwargs):
        raise AssertionError("a clean file reached the csv module")

    monkeypatch.setattr(nbknn.data_io.csv, "reader", refuse)
    train = load_csv(train_path, "label")
    queries = load_queries(query_path, train)
    assert train.data.points.tobytes() == points.tobytes()
    assert [train.class_name(c) for c in train.data.labels.tolist()] == labels.tolist()
    assert queries.tobytes() == points[:7].tobytes()


class TestStandardize:
    def test_two_point_column(self):
        train = LabeledDataset([[0.0], [2.0]], [1, 2])
        train_std, _, params = standardize(train)
        np.testing.assert_allclose(
            train_std.points.ravel(), [-1 / np.sqrt(2), 1 / np.sqrt(2)], rtol=1e-15
        )
        assert params.mean.tolist() == [1.0]

    def test_test_value_at_train_mean_maps_to_zero(self):
        train = LabeledDataset([[0.0], [2.0]], [1, 2])
        test = LabeledDataset([[1.0]], [1], n_classes=2)
        _, (test_std,), _ = standardize(train, [test])
        assert test_std.points[0, 0] == 0.0

    def test_constant_feature_dropped_and_recorded(self):
        train = LabeledDataset([[0.0, 5.0], [2.0, 5.0]], [1, 2])
        train_std, _, params = standardize(train)
        assert train_std.dim == 1
        assert params.dropped == (1,)
        assert params.kept == (0,)

    def test_all_constant_rejected(self):
        train = LabeledDataset([[5.0], [5.0]], [1, 2])
        with pytest.raises(ValueError, match="constant"):
            standardize(train)

    def test_parameters_come_from_train_only(self):
        train = LabeledDataset([[0.0], [2.0]], [1, 2])
        test = LabeledDataset([[100.0], [-100.0]], [1, 2])
        _, (test_std,), params = standardize(train, [test])
        np.testing.assert_allclose(
            test_std.points.ravel(), [(100 - 1) / np.sqrt(2), (-100 - 1) / np.sqrt(2)]
        )


def imbalanced_dataset(counts):
    labels = np.concatenate(
        [np.full(c, i + 1, dtype=np.int64) for i, c in enumerate(counts)]
    )
    points = np.arange(float(labels.size))[:, None]
    return LabeledDataset(points, labels)


class TestBalancedSplit:
    def test_binary_arithmetic(self):
        data = imbalanced_dataset([1000, 80])
        train, test = balanced_split(data, SplitSpec(0.25, seed=0, trials=1), 0)
        assert test.class_counts.tolist() == [20, 20]
        assert train.class_counts.tolist() == [980, 60]

    def test_three_class_arithmetic(self):
        data = imbalanced_dataset([100, 60, 40])
        train, test = balanced_split(data, SplitSpec(0.25, seed=0, trials=1), 0)
        assert test.class_counts.tolist() == [10, 10, 10]
        assert train.class_counts.tolist() == [90, 50, 30]

    def test_round_trip_partition(self):
        data = imbalanced_dataset([30, 9])
        train_idx, test_idx = split_indices(data, SplitSpec(0.25, seed=3), 0)
        combined = np.sort(np.concatenate([train_idx, test_idx]))
        np.testing.assert_array_equal(combined, np.arange(39))
        assert np.intersect1d(train_idx, test_idx).size == 0

    def test_trial_repeat_identical_and_trials_differ(self):
        data = imbalanced_dataset([50, 16])
        spec = SplitSpec(0.25, seed=9)
        a0 = split_indices(data, spec, 0)
        b0 = split_indices(data, spec, 0)
        a1 = split_indices(data, spec, 1)
        np.testing.assert_array_equal(a0[1], b0[1])
        assert not np.array_equal(a0[1], a1[1])

    def test_seed_changes_partition(self):
        data = imbalanced_dataset([50, 16])
        t0 = split_indices(data, SplitSpec(0.25, seed=1), 0)[1]
        t1 = split_indices(data, SplitSpec(0.25, seed=2), 0)[1]
        assert not np.array_equal(t0, t1)

    def test_pinned_regression(self):
        # Frozen once from this implementation; guards the PRNG stream,
        # the permutation transform, and the per-class draw order.
        data = imbalanced_dataset([12, 8])
        _, test_idx = split_indices(data, SplitSpec(0.25, seed=42), 0)
        assert test_idx.tolist() == [6, 10, 15, 18]

    def test_rounding_half_to_even(self):
        # 0.25 * 10 = 2.5 rounds to 2 under banker's rounding.
        data = imbalanced_dataset([40, 10])
        _, test = balanced_split(data, SplitSpec(0.25, seed=0), 0)
        assert test.class_counts.tolist() == [2, 2]

    def test_smallest_class_too_small(self):
        data = imbalanced_dataset([40, 3])
        with pytest.raises(ValueError, match="at least 4"):
            balanced_split(data, SplitSpec(0.25, seed=0), 0)

    def test_zero_allocation_rejected(self):
        data = imbalanced_dataset([40, 4])
        with pytest.raises(ValueError, match="rounds to zero"):
            balanced_split(data, SplitSpec(0.1, seed=0), 0)

    def test_allocation_taking_whole_class_rejected(self):
        # round(0.9 * 4) = 4 would leave class 2 with no training rows.
        data = imbalanced_dataset([8, 4])
        with pytest.raises(ValueError, match=r"fraction 0\.9 of 4\).*no training rows"):
            split_indices(data, SplitSpec(0.9, seed=0), 0)
        # round(0.7 * 4) = 3 still leaves one training row.
        train_idx, test_idx = split_indices(data, SplitSpec(0.7, seed=0), 0)
        assert data.labels[train_idx].tolist().count(2) == 1
        assert test_idx.size == 6

    def test_negative_trial_rejected(self):
        data = imbalanced_dataset([40, 8])
        with pytest.raises(ValueError, match="nonnegative"):
            balanced_split(data, SplitSpec(0.25, seed=0), -1)


class TestSplitSpec:
    def test_rejects_bad_fraction(self):
        for f in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="fraction"):
                SplitSpec(minority_test_fraction=f)

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError, match="trials"):
            SplitSpec(trials=0)
