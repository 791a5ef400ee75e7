"""Command-line surface: schemas, determinism, exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nbknn.benchmark
import nbknn.cli
import nbknn.multiclass
import nbknn.neighbors
import nbknn.simulation
from nbknn import Stream
from nbknn.cli import main

DATA_DIR = Path(__file__).parent / "data"


def write_binary_fixture(path: Path) -> None:
    """Deterministic 2-class CSV: 60 majority rows, 20 minority rows."""
    stream = Stream(1234, 0)
    lines = ["f1,f2,outcome"]
    maj = stream.normal(120).reshape(60, 2)
    mino = stream.normal(40).reshape(20, 2) + 1.5
    for row in maj:
        lines.append(f"{float(row[0])!r},{float(row[1])!r},healthy")
    for row in mino:
        lines.append(f"{float(row[0])!r},{float(row[1])!r},ill")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_three_class_fixture(path: Path) -> None:
    """Deterministic 3-class CSV with counts 30/24/12."""
    stream = Stream(777, 0)
    centers = [(0.0, 0.0), (3.0, 0.0), (0.0, 3.0)]
    counts = [30, 24, 12]
    names = ["ash", "birch", "cedar"]
    lines = ["u,v,species"]
    for center, count, name in zip(centers, counts, names):
        block = stream.normal(2 * count).reshape(count, 2)
        for row in block:
            lines.append(f"{float(row[0] + center[0])!r},{float(row[1] + center[1])!r},{name}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_query_files(directory: Path, columns: tuple[str, ...], label: str, seed: int,
                      shift: float) -> tuple[Path, Path]:
    """The same 30 deterministic query points twice: once with the label
    column first, once without it and with the features in reverse order."""
    stream = Stream(seed, 0)
    points = stream.normal(2 * 30).reshape(30, 2) * 1.5 + shift
    labeled = [",".join((label,) + columns)]
    bare = [",".join(columns[::-1])]
    for row in points:
        cells = [repr(float(v)) for v in row]
        labeled.append(",".join(["unknown"] + cells))
        bare.append(",".join(cells[::-1]))
    paths = directory / "labeled_queries.csv", directory / "bare_queries.csv"
    for path, lines in zip(paths, (labeled, bare)):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths


@pytest.fixture()
def binary_csv(tmp_path):
    path = tmp_path / "binary.csv"
    write_binary_fixture(path)
    return path


@pytest.fixture()
def three_class_csv(tmp_path):
    path = tmp_path / "three.csv"
    write_three_class_fixture(path)
    return path


class TestSimulate:
    def test_json_schema_and_two_methods(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "simulate", "--design", "location", "--alpha", "0.3",
                "--trials", "2", "--seed", "7", "--methods", "proposed,knn",
                "--train-size", "80", "--test-size", "60", "--output", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert doc["command"] == "simulate"
        assert doc["design"] == "location"
        assert [m["name"] for m in doc["methods"]] == ["proposed", "knn"]
        for entry in doc["methods"]:
            for metric in ("precision", "recall", "f1"):
                assert set(entry[metric]) == {"mean", "se"}
        # Companion table lands on stderr.
        assert "proposed" in capsys.readouterr().err

    def test_unknown_method_exit_2_and_lists_valid(self, capsys):
        code = main(
            ["simulate", "--design", "location", "--alpha", "0.3",
             "--trials", "1", "--methods", "foo"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "foo" in err
        assert "proposed" in err and "knn" in err

    def test_repeated_method_exit_2(self, capsys):
        code = main(
            ["simulate", "--design", "location", "--alpha", "0.3",
             "--trials", "1", "--methods", "knn,proposed,knn"]
        )
        assert code == 2
        assert "'knn' is listed more than once" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "simulate", "--design", "scale", "--alpha", "0.4",
            "--minority-role", "narrow", "--trials", "2", "--seed", "3",
            "--methods", "proposed,bayes", "--train-size", "60", "--test-size", "50",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("alpha, train, test, message", [
        ("0.05", "10", "10",
         "the training sample at alpha 0.05 (size 10): class counts [10, 0] include an empty "
         "class; raise --train-size"),
        ("0.5", "40", "1",
         "the test sample (size 1): class counts [1, 0] include an empty class; raise --test-size"),
    ])
    def test_empty_class_names_sample_and_flag(self, tmp_path, capsys, alpha, train, test, message):
        code = main(["simulate", "--design", "location", "--alpha", alpha, "--trials", "1",
                     "--train-size", train, "--test-size", test,
                     "--output", str(tmp_path / "r.json")])
        assert code == 3
        assert capsys.readouterr().err == f"nbknn: error: {message}\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("methods", [None, "proposed,bayes"])
    def test_class_too_small_for_cv_folds(self, tmp_path, capsys, monkeypatch, methods):
        # At alpha 0.05 a training sample of 60 gives the minority 3 rows,
        # fewer than the 5 folds of the k-NN baselines' CV: the run stops
        # before its first trial, with no output.  Without knn and wnn the
        # evidence method and the oracle run.
        out = tmp_path / "r.json"
        argv = ["simulate", "--design", "location", "--alpha", "0.05", "--train-size", "60",
                "--test-size", "40", "--trials", "2", "--output", str(out)]
        if methods is None:
            monkeypatch.delattr(nbknn.simulation, "run_trials")  # no trial may start
            assert main(argv) == 3
            assert capsys.readouterr().err == (
                "nbknn: error: the training sample at alpha 0.05 (size 60) gives its minority, class 2, "
                "3 rows, fewer than the cv_folds=5 that knn and wnn need; raise --train-size\n")
            assert not out.exists()
        else:
            assert main(argv + ["--methods", methods]) == 0
            assert [m["name"] for m in json.loads(out.read_text())["methods"]] == methods.split(",")

    def test_zero_trials_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--design", "location", "--alpha", "0.3", "--trials", "0"])
        assert exc.value.code == 2

    def test_bad_alpha_data_error(self):
        assert (
            main(["simulate", "--design", "location", "--alpha", "0.9", "--trials", "1"])
            == 3
        )


class TestBenchmark:
    def test_binary_default_methods(self, binary_csv, tmp_path):
        out = tmp_path / "bench.json"
        code = main(
            ["benchmark", "--input", str(binary_csv), "--label-column", "outcome",
             "--trials", "3", "--seed", "1", "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert [m["name"] for m in doc["methods"]] == ["proposed", "knn", "wnn"]
        assert doc["class_names"] == ["healthy", "ill"]
        assert doc["class_counts"] == [60, 20]
        assert set(doc["efficiency"]) == {"precision", "recall", "f1"}
        assert max(doc["efficiency"]["f1"].values()) == 1.0

    def test_three_class_default_methods(self, three_class_csv, tmp_path):
        out = tmp_path / "bench3.json"
        code = main(
            ["benchmark", "--input", str(three_class_csv), "--label-column", "species",
             "--trials", "2", "--seed", "1", "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert [m["name"] for m in doc["methods"]] == ["ovo_plus", "ovr_plus", "knn", "wnn"]

    def test_jobs_byte_identical(self, binary_csv, tmp_path):
        args = ["benchmark", "--input", str(binary_csv), "--label-column", "outcome",
                "--trials", "4", "--seed", "2"]
        a, b = tmp_path / "j1.json", tmp_path / "j8.json"
        assert main(args + ["--jobs", "1", "--output", str(a)]) == 0
        assert main(args + ["--jobs", "8", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file_exit_3(self, tmp_path, capsys):
        code = main(
            ["benchmark", "--input", str(tmp_path / "nope.csv"), "--label-column", "y",
             "--trials", "1"]
        )
        assert code == 3

    def test_failed_run_leaves_no_output(self, tmp_path):
        out = tmp_path / "never.json"
        code = main(
            ["benchmark", "--input", str(tmp_path / "nope.csv"), "--label-column", "y",
             "--trials", "1", "--output", str(out)]
        )
        assert code == 3
        assert not out.exists()
        assert not list(tmp_path.glob(".nbknn-*"))

    def test_proposed_rejected_for_multiclass(self, three_class_csv):
        code = main(
            ["benchmark", "--input", str(three_class_csv), "--label-column", "species",
             "--trials", "1", "--methods", "proposed"]
        )
        assert code == 3

    def test_repeated_method_exit_2(self, three_class_csv, capsys):
        code = main(
            ["benchmark", "--input", str(three_class_csv), "--label-column", "species",
             "--trials", "1", "--methods", "ovr_plus,wnn,ovr_plus"]
        )
        assert code == 2
        assert "'ovr_plus' is listed more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("methods", [None, "ovo_plus,ovr_plus"])
    def test_class_too_small_for_cv_folds(self, tmp_path, capsys, monkeypatch, methods):
        # Classes of 50, 40 and 6 rows: each split holds out round(0.25 * 6)
        # = 2 rows of every class, so class "c" keeps 4 training rows.  The
        # baselines' 5-fold CV needs 5, so the run stops before its first
        # trial with no output; the evidence methods need only the split's
        # minimum of 4.
        stream = Stream(96, 0)
        x = stream.normal(192).reshape(96, 2)
        names = ["a"] * 50 + ["b"] * 40 + ["c"] * 6
        path = tmp_path / "small_class.csv"
        path.write_text("f1,f2,y\n" + "".join(f"{float(u)!r},{float(v)!r},{c}\n" for (u, v), c in zip(x, names)))
        out = tmp_path / "report.json"
        argv = ["benchmark", "--input", str(path), "--label-column", "y", "--trials", "2",
                "--output", str(out)]
        if methods is None:
            monkeypatch.delattr(nbknn.benchmark, "run_trials")  # no trial may start
            assert main(argv) == 3
            assert ("class 'c' keeps 4 training rows in each trial, fewer than the cv_folds=5 that knn and wnn"
                    " need") in capsys.readouterr().err
            assert not out.exists()
        else:
            assert main(argv + ["--methods", methods]) == 0
            assert [m["name"] for m in json.loads(out.read_text())["methods"]] == methods.split(",")

    def test_class_size_check_takes_no_split(self, three_class_csv, capsys, monkeypatch):
        # round(0.7 * 12) = 8 of the 12 cedar rows are held out, leaving 4:
        # the check reads the class counts, and no split runs before it.
        monkeypatch.delattr(nbknn.benchmark, "run_trials")
        monkeypatch.delattr(nbknn.benchmark, "balanced_split")
        assert main(["benchmark", "--input", str(three_class_csv), "--label-column", "species",
                     "--fraction", "0.7", "--trials", "1"]) == 3
        assert "class 'cedar' keeps 4 training rows in each trial" in capsys.readouterr().err

    def test_golden_report(self, binary_csv, tmp_path):
        # Frozen end-to-end run: any change to the PRNG, split protocol,
        # classifiers, metrics, or JSON layout shows up here.
        out = tmp_path / "golden_candidate.json"
        code = main(
            ["benchmark", "--input", str(binary_csv), "--label-column", "outcome",
             "--trials", "5", "--seed", "2024", "--k-max", "15", "--output", str(out)]
        )
        assert code == 0
        golden = (DATA_DIR / "golden_benchmark.json").read_bytes()
        assert out.read_bytes() == golden


class TestFitPredict:
    def test_in_sample_predictions_restore_names(self, binary_csv, tmp_path):
        out = tmp_path / "preds.csv"
        code = main(
            ["fit-predict", "--train", str(binary_csv), "--queries", str(binary_csv),
             "--label-column", "outcome", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "predicted_outcome"
        assert len(lines) == 81
        assert set(lines[1:]) <= {"healthy", "ill"}

    def test_emit_evidence_binary_columns(self, binary_csv, tmp_path):
        out = tmp_path / "preds.csv"
        code = main(
            ["fit-predict", "--train", str(binary_csv), "--queries", str(binary_csv),
             "--label-column", "outcome", "--emit-evidence", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "predicted_outcome,E1,E2"
        first = lines[1].split(",")
        assert len(first) == 3
        assert 0.0 < float(first[1]) <= 1.0

    def test_emit_evidence_multiclass_columns(self, three_class_csv, tmp_path):
        out = tmp_path / "preds.csv"
        code = main(
            ["fit-predict", "--train", str(three_class_csv), "--queries", str(three_class_csv),
             "--label-column", "species", "--emit-evidence", "--output", str(out)]
        )
        assert code == 0
        header = out.read_text().split("\n", 1)[0]
        assert header == "predicted_species,evidence_ash,evidence_birch,evidence_cedar"

    def test_query_without_label_column(self, binary_csv, tmp_path):
        queries = tmp_path / "q.csv"
        queries.write_text("f1,f2\n0.0,0.0\n1.5,1.5\n", encoding="utf-8")
        out = tmp_path / "preds.csv"
        code = main(
            ["fit-predict", "--train", str(binary_csv), "--queries", str(queries),
             "--label-column", "outcome", "--output", str(out)]
        )
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 3

    def test_extra_query_column_rejected(self, binary_csv, tmp_path, capsys):
        queries = tmp_path / "q.csv"
        queries.write_text("f1,f2,f3\n0.0,0.0,0.0\n", encoding="utf-8")
        code = main(
            ["fit-predict", "--train", str(binary_csv), "--queries", str(queries),
             "--label-column", "outcome"]
        )
        assert code == 3
        assert "f3" in capsys.readouterr().err

    def test_missing_query_column_rejected(self, binary_csv, tmp_path, capsys):
        queries = tmp_path / "q.csv"
        queries.write_text("f1\n0.0\n", encoding="utf-8")
        code = main(
            ["fit-predict", "--train", str(binary_csv), "--queries", str(queries),
             "--label-column", "outcome"]
        )
        assert code == 3
        assert "f2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, cited",
        [
            ("f1,f2\n0.0,0.0\n0.0\n", "row 3 has 1 fields"),
            ("f1,f2\n0.0,1.0,2.0\n", "row 2 has 3 fields"),
            ("f1,f1,f2\n0.0,0.0,0.0\n", "duplicate column name 'f1'"),
            ("f1,f2\n0.0,0.0\n1.0,nan\n", "row 3, column 'f2'"),
            ("outcome,f1,f2\n,0.0,x\n", "row 2, column 'f2'"),
        ],
        ids=["short_row", "long_row", "duplicate_header", "nan_cell", "labeled_bad_cell"],
    )
    def test_malformed_query_file_cites_row(self, binary_csv, tmp_path, capsys, text, cited):
        queries = tmp_path / "q.csv"
        queries.write_text(text, encoding="utf-8")
        code = main(
            ["fit-predict", "--train", str(binary_csv), "--queries", str(queries),
             "--label-column", "outcome"]
        )
        assert code == 3
        assert cited in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["train", "queries"])
    def test_non_utf8_file_is_named(self, binary_csv, tmp_path, capsys, bad):
        # fit-predict reads two files; the message must say which is not text.
        path = tmp_path / "latin1.csv"
        path.write_bytes(binary_csv.read_bytes().replace(b"healthy", b"h\xffalthy", 1))
        files = {"train": binary_csv, "queries": binary_csv, bad: path}
        code = main(["fit-predict", "--train", str(files["train"]), "--queries", str(files["queries"]),
                     "--label-column", "outcome"])
        assert code == 3
        assert capsys.readouterr().err == f"nbknn: error: {path}: not valid UTF-8 text\n"


GOLDEN_FIT_PREDICT = {
    "proposed": (write_binary_fixture, ("f1", "f2"), "outcome", 4321, 0.75),
    "ovr_plus": (write_three_class_fixture, ("u", "v"), "species", 8661, 1.0),
    "ovo_plus": (write_three_class_fixture, ("u", "v"), "species", 8661, 1.0),
}


@pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "bare"])
@pytest.mark.parametrize("method", sorted(GOLDEN_FIT_PREDICT))
def test_fit_predict_golden_evidence(tmp_path, method, labeled):
    # Frozen predictions and evidence: E1/E2 for the binary method, the
    # first one-vs-rest round's evidence per class for the reductions.
    write_train, columns, label, seed, shift = GOLDEN_FIT_PREDICT[method]
    train = tmp_path / "train.csv"
    write_train(train)
    queries = write_query_files(tmp_path, columns, label, seed, shift)[0 if labeled else 1]
    out = tmp_path / "preds.csv"
    code = main(
        ["fit-predict", "--train", str(train), "--queries", str(queries),
         "--label-column", label, "--method", method, "--emit-evidence", "--output", str(out)]
    )
    assert code == 0
    assert out.read_bytes() == (DATA_DIR / f"golden_fit_predict_{method}.csv").read_bytes()


@pytest.mark.parametrize("method, emit, pair_evals", [
    ("proposed", True, 0),
    ("ovr_plus", False, 7),
    ("ovr_plus", True, 7),
    ("ovo_plus", False, 3),
    ("ovo_plus", True, 6),
])
def test_fit_predict_sorts_once(tmp_path, monkeypatch, method, emit, pair_evals):
    # Each (query, training row) distance is computed once per call, and
    # no (training, training) distance at all; --emit-evidence reuses the
    # OvR+ first round instead of evaluating its pairs again.  OvR+ plays
    # 3 pairings in its first round and 2 in each of two two-class replays.
    write_train, columns, label, seed, shift = GOLDEN_FIT_PREDICT[method]
    train = tmp_path / "train.csv"
    write_train(train)
    queries = write_query_files(tmp_path, columns, label, seed, shift)[0]
    counts = {"_pair_evidence": 0, "distance_rows": 0}

    def counted(module, name, work):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += work(*args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(nbknn.multiclass, "_pair_evidence", lambda *args: 1)
    counted(nbknn.neighbors, "distance_rows", lambda points, rows: len(points) * len(rows))
    argv = ["fit-predict", "--train", str(train), "--queries", str(queries),
            "--label-column", label, "--method", method, "--output", str(tmp_path / "p.csv")]
    assert main(argv + (["--emit-evidence"] if emit else [])) == 0
    n_train = len(train.read_text().splitlines()) - 1
    assert counts == {"_pair_evidence": pair_evals, "distance_rows": 30 * n_train}


@pytest.mark.parametrize("method, n_classes", [("proposed", 2), ("ovr_plus", 3), ("ovo_plus", 3)])
def test_fit_predict_bound_changes_no_byte(tmp_path, monkeypatch, method, n_classes):
    # 12 features reach the Gram-matrix bound, which computes no
    # distance_rows block; with the bound set out of reach every query
    # distance comes from distance_rows.  Both write the same bytes, the
    # evidence columns of every evidence method included.  No golden case
    # has 8 or more features.
    rng = np.random.default_rng(33)
    labels = rng.permutation(np.repeat(np.arange(n_classes), {2: [500, 100], 3: [360, 180, 60]}[n_classes]))
    points = rng.normal(size=(600, 12)) + 0.5 * labels[:, None]
    header = ",".join(f"x{j}" for j in range(12))
    (tmp_path / "train.csv").write_text(header + ",y\n" + "".join(
        ",".join(map(repr, row)) + f",c{c}\n" for row, c in zip(points.tolist(), labels)))
    (tmp_path / "queries.csv").write_text(header + "\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in (rng.normal(size=(200, 12)) + 0.5).tolist()))
    calls = []
    original = nbknn.neighbors.distance_rows
    monkeypatch.setattr(nbknn.neighbors, "distance_rows", lambda *args: calls.append(1) or original(*args))
    outputs = []
    for bound_dim in (8, 13):
        monkeypatch.setattr(nbknn.neighbors, "_BOUND_DIM", bound_dim)
        out = tmp_path / f"preds_{bound_dim}.csv"
        assert main(["fit-predict", "--train", str(tmp_path / "train.csv"), "--queries",
                     str(tmp_path / "queries.csv"), "--label-column", "y", "--method", method,
                     "--emit-evidence", "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
        calls.append(bound_dim)
    assert calls == [8, 1, 13]
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 201


@pytest.mark.parametrize("scale, code", [(1e160, 3), (1e150, 0)])
def test_fit_predict_fails_on_coordinates_whose_distances_overflow(tmp_path, capsys, scale, code):
    # fit-predict does not standardize.  At 1e160 the squared distances
    # overflow to inf, and the queries would rank in index order: exit 3
    # before any ranking, naming the limit, with no output file.  At 1e150
    # 2 features x (max |x| + max |q|)^2 stay finite and the call runs.
    write_binary_fixture(tmp_path / "train.csv")
    lines = (tmp_path / "train.csv").read_text().splitlines()
    scaled = [",".join(repr(float(v) * scale) for v in line.split(",")[:-1]) + "," + line.split(",")[-1]
              for line in lines[1:]]
    (tmp_path / "train.csv").write_text("\n".join([lines[0]] + scaled) + "\n")
    out = tmp_path / "preds.csv"
    assert main(["fit-predict", "--train", str(tmp_path / "train.csv"), "--queries", str(tmp_path / "train.csv"),
                 "--label-column", "outcome", "--output", str(out)]) == code
    assert out.exists() == (code == 0)
    if code:
        err = capsys.readouterr().err
        assert "coordinates too large" in err and "1.8e+308, the largest float64" in err


def fit_predict_golden_case(tmp_path: Path, method: str) -> tuple[list[str], int]:
    """fit-predict arguments (no --emit-evidence) for a golden case, and its training rows."""
    write_train, columns, label, seed, shift = GOLDEN_FIT_PREDICT[method]
    train = tmp_path / "train.csv"
    write_train(train)
    queries = write_query_files(tmp_path, columns, label, seed, shift)[0]
    argv = ["fit-predict", "--train", str(train), "--queries", str(queries),
            "--label-column", label, "--method", method, "--output", str(tmp_path / "preds.csv")]
    return argv, len(train.read_text().splitlines()) - 1


@pytest.mark.parametrize("emit", [True, False], ids=["evidence", "labels"])
@pytest.mark.parametrize("block", [1, 3, 31])
@pytest.mark.parametrize("method", sorted(GOLDEN_FIT_PREDICT))
def test_fit_predict_blocks_change_no_byte(tmp_path, monkeypatch, method, block, emit):
    # The 30 queries are ranked and written a block of chunk_rows(n) at a
    # time: one row, three rows or all of them in one block give the golden
    # bytes, and without --emit-evidence its first column.
    argv, n_train = fit_predict_golden_case(tmp_path, method)
    monkeypatch.setattr(nbknn.neighbors, "_CHUNK_ELEMS", block * n_train)
    assert nbknn.neighbors.chunk_rows(n_train) == block
    assert main(argv + (["--emit-evidence"] if emit else [])) == 0
    golden = (DATA_DIR / f"golden_fit_predict_{method}.csv").read_text()
    if not emit:
        golden = "".join(line.split(",")[0] + "\n" for line in golden.splitlines())
    assert (tmp_path / "preds.csv").read_bytes() == golden.encode()


@pytest.mark.parametrize("error, code", [(ValueError, 3), (RuntimeError, None)])
def test_fit_predict_failure_in_second_block_leaves_no_output(tmp_path, monkeypatch, error, code):
    # The first block is already written to the temp file when the second fails.
    argv, n_train = fit_predict_golden_case(tmp_path, "proposed")
    monkeypatch.setattr(nbknn.neighbors, "_CHUNK_ELEMS", 3 * n_train)
    original, blocks = nbknn.cli.decide, []

    def failing(name, ranking, k_max, emit):
        blocks.append(len(ranking))
        if len(blocks) == 2:
            raise error("second block")
        return original(name, ranking, k_max, emit)

    monkeypatch.setattr(nbknn.cli, "decide", failing)
    if code is None:
        with pytest.raises(error, match="second block"):
            main(argv + ["--emit-evidence"])
    else:
        assert main(argv + ["--emit-evidence"]) == code
    assert blocks == [3, 3]
    assert not (tmp_path / "preds.csv").exists()
    assert not list(tmp_path.glob(".nbknn-*"))


@pytest.mark.parametrize("method, n_classes", [("proposed", 2), ("ovr_plus", 3), ("ovo_plus", 3)])
def test_fit_predict_quotes_names_with_commas_and_quotes(tmp_path, method, n_classes):
    # A class or label-column name holding a comma or a quote is one quoted
    # cell, so every row reads back with as many fields as the header.
    names = ["big, red", 'say "hi"', "plain"][:n_classes]
    label = 'kind, "as given"'
    rng = np.random.default_rng(5)
    train, queries = tmp_path / "train.csv", tmp_path / "queries.csv"
    with train.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", label])
        for i in range(60):
            writer.writerow([*(rng.normal(size=2) + i % n_classes), names[i % n_classes]])
    with queries.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["x", "y"], *rng.normal(size=(9, 2)).tolist()])
    out = tmp_path / "preds.csv"
    assert main(["fit-predict", "--train", str(train), "--queries", str(queries), "--label-column",
                 label, "--method", method, "--emit-evidence", "--output", str(out)]) == 0
    header, *rows = csv.reader(out.read_text(encoding="utf-8").splitlines())
    columns = ["E1", "E2"] if method == "proposed" else [f"evidence_{name}" for name in names]
    assert header[0] == f"predicted_{label}"
    assert sorted(header[1:]) == sorted(columns)
    assert len(rows) == 9
    for row in rows:
        assert len(row) == len(header) and row[0] in names
        assert all(0.0 <= float(v) <= 1.0 for v in row[1:])


def test_fit_predict_blank_label_exit_3(binary_csv, tmp_path, capsys):
    # A blank label cell would otherwise train a class named "".
    lines = binary_csv.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + ","
    train = tmp_path / "blank.csv"
    train.write_text("\n".join(lines) + "\n")
    out = tmp_path / "preds.csv"
    code = main(["fit-predict", "--train", str(train), "--queries", str(binary_csv),
                 "--label-column", "outcome", "--method", "ovr_plus", "--emit-evidence",
                 "--output", str(out)])
    assert code == 3
    assert "row 6, column 'outcome': empty label" in capsys.readouterr().err
    assert not out.exists()


ONE_CLASS_RUNS = {
    "benchmark-knn": ["benchmark", "--methods", "knn"],
    "benchmark-default": ["benchmark"],
    "fit-predict-auto": ["fit-predict", "--method", "auto"],
    "fit-predict-ovo_plus": ["fit-predict", "--method", "ovo_plus"],
    "fit-predict-ovr_plus": ["fit-predict", "--method", "ovr_plus"],
}


@pytest.mark.parametrize("command", ONE_CLASS_RUNS.values(), ids=ONE_CLASS_RUNS.keys())
def test_one_class_training_data_exit_3_before_any_output(tmp_path, capsys, command):
    # Every method tells classes apart: data of one class fail before any
    # trial runs or any line is written, a report or a CSV header.
    path = tmp_path / "one.csv"
    path.write_text("x,y\n" + "".join(f"{i},a\n" for i in range(12)))
    if command[0] == "benchmark":
        argv = command + ["--input", str(path), "--label-column", "y", "--trials", "1"]
    else:
        argv = command + ["--train", str(path), "--queries", str(path), "--label-column", "y"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == "nbknn: error: the data hold 1 class; every method needs at least 2\n"
    assert captured.out == ""


PEAK_RSS_CHILD = """
import resource, sys
from nbknn.cli import main
code = main(sys.argv[1:])
scale = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in KiB on Linux
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale)
"""


def test_fit_predict_memory_grows_with_prefixes_not_matrices(tmp_path):
    # 1800 more queries against 10,000 training rows: a queries x n float
    # distance matrix plus its int64 argsort would add 1800 * 10000 * 16
    # bytes, about 290 MB.  Each query's ranking keeps only its prefix.
    rng = np.random.default_rng(2024)
    minority = rng.random(10_000) < 0.1
    points = rng.normal(size=(10_000, 3)) + minority[:, None]
    rows = [",".join(map(repr, p)) + (",pos" if m else ",neg")
            for p, m in zip(points.tolist(), minority)]
    (tmp_path / "train.csv").write_text("\n".join(["x,y,z,label"] + rows) + "\n")
    queries = rng.normal(size=(2000, 3)) + 0.5
    env = dict(os.environ, PYTHONPATH=str(Path(nbknn.neighbors.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    peaks = {}
    for m in (200, 2000):
        query_file = tmp_path / f"queries_{m}.csv"
        query_file.write_text("\n".join(["x,y,z"] + [",".join(map(repr, q)) for q in queries[:m].tolist()]))
        argv = ["fit-predict", "--train", str(tmp_path / "train.csv"), "--queries",
                str(query_file), "--label-column", "label", "--emit-evidence",
                "--output", str(tmp_path / f"out_{m}.csv")]
        child = subprocess.run([sys.executable, "-c", PEAK_RSS_CHILD] + argv, env=env,
                               capture_output=True, text=True, check=True)
        code, peaks[m] = map(int, child.stdout.split())
        assert code == 0, child.stderr
    assert len((tmp_path / "out_2000.csv").read_text().splitlines()) == 2001
    print(peaks)
    assert peaks[2000] - peaks[200] < 290e6 / 4


def test_fit_predict_peak_memory_does_not_grow_with_queries(tmp_path):
    # Queries are ranked, decided and written a block at a time, so ten
    # times the queries add only their 8-byte cells (18,000 x 3, 0.4 MB):
    # no prefix, evidence or output line outlives its block.
    rng = np.random.default_rng(2025)
    minority = rng.random(2000) < 0.1
    points = rng.normal(size=(2000, 3)) + minority[:, None]
    rows = [",".join(map(repr, p)) + (",pos" if m else ",neg")
            for p, m in zip(points.tolist(), minority)]
    (tmp_path / "train.csv").write_text("\n".join(["x,y,z,label"] + rows) + "\n")
    queries = rng.normal(size=(20_000, 3)) + 0.5
    env = dict(os.environ, PYTHONPATH=str(Path(nbknn.neighbors.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    peaks = {}
    for m in (2000, 20_000):
        query_file = tmp_path / f"queries_{m}.csv"
        query_file.write_text("\n".join(["x,y,z"] + [",".join(map(repr, q)) for q in queries[:m].tolist()]))
        argv = ["fit-predict", "--train", str(tmp_path / "train.csv"), "--queries",
                str(query_file), "--label-column", "label", "--emit-evidence",
                "--output", str(tmp_path / f"out_{m}.csv")]
        child = subprocess.run([sys.executable, "-c", PEAK_RSS_CHILD] + argv, env=env,
                               capture_output=True, text=True, check=True)
        code, peaks[m] = map(int, child.stdout.split())
        assert code == 0, child.stderr
    assert len((tmp_path / "out_20000.csv").read_text().splitlines()) == 20_001
    print(peaks)
    assert peaks[20_000] - peaks[2000] < 8e6


class TestSplit:
    def test_manifest_structure(self, binary_csv, tmp_path):
        out = tmp_path / "splits.json"
        code = main(
            ["split", "--input", str(binary_csv), "--label-column", "outcome",
             "--trials", "3", "--seed", "11", "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "split"
        assert len(doc["splits"]) == 3
        for entry in doc["splits"]:
            merged = sorted(entry["train"] + entry["test"])
            assert merged == list(range(80))
            assert len(entry["test"]) == 10  # 5 per class

    @pytest.mark.parametrize("command", ["split", "benchmark"])
    def test_allocation_taking_whole_class_exit_3(self, command, tmp_path, capsys):
        # Classes of 8 and 4 rows: round(0.9 * 4) = 4 test rows would leave
        # class "b" with no training rows.
        path = tmp_path / "small.csv"
        path.write_text("x,y\n" + "".join(f"{i},{'a' if i < 8 else 'b'}\n" for i in range(12)))
        out = tmp_path / "never.json"
        code = main(
            [command, "--input", str(path), "--label-column", "y", "--trials", "1",
             "--fraction", "0.9", "--output", str(out)]
        )
        assert code == 3
        assert "fraction 0.9 of 4" in capsys.readouterr().err
        assert not out.exists()

    def test_stdout_when_no_output(self, binary_csv, capsys):
        code = main(
            ["split", "--input", str(binary_csv), "--label-column", "outcome",
             "--trials", "1", "--seed", "0"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
