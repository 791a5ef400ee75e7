"""Command-line interface: simulate | benchmark | fit-predict | split.

simulate, benchmark and split write JSON (schema version 1), fit-predict
a CSV, to --output or stdout; simulate and benchmark print a percent
table to stderr.  An --output file is written atomically, so a failed
run leaves nothing; to stdout, fit-predict prints each block of queries
as it is decided, so a failure after the first block leaves those lines.
Exit codes: 0 success, 2 usage error, 3 data error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from contextlib import contextmanager

from . import __version__
from .benchmark import run_csv_benchmark
from .data_io import SplitSpec, load_csv, load_queries, split_indices
from .methods import (
    BAYES, OVO_PLUS, OVR_PLUS, PROPOSED, MethodNameError, decide, default_methods, trial_ranking,
    validate_methods,
)
from .metrics import TrialReport, efficiency_scores
from .neighbors import chunk_rows
from .simulation import MINORITY_ROLES, run_location_experiment, run_scale_experiment

SCHEMA_VERSION = 1
EXIT_USAGE = 2
EXIT_DATA = 3


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {text}")
    return value


def _method_list(text: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in text.split(",") if m.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbknn",
        description="Evidence-based nearest neighbor classification for imbalanced data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser("simulate", help="run a Gaussian simulation design")
    sim.add_argument("--design", choices=("location", "scale"), required=True)
    sim.add_argument("--alpha", type=float, required=True,
                     help="minority training fraction, in (0, 0.5]")
    sim.add_argument("--minority-role", choices=MINORITY_ROLES, default="wide",
                     help="scale design only: which spread is the minority")
    sim.add_argument("--trials", type=_positive_int, default=100)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--k-max", type=_positive_int, default=45)
    sim.add_argument("--methods", type=_method_list,
                     default=(PROPOSED, "knn", "wnn", BAYES),
                     help="comma-separated subset of: proposed,knn,wnn,bayes")
    sim.add_argument("--train-size", type=_positive_int, default=1000)
    sim.add_argument("--test-size", type=_positive_int, default=1000)
    sim.add_argument("--jobs", type=_positive_int, default=1)
    sim.add_argument("--output", default=None)

    bench = sub.add_parser("benchmark", help="run the split protocol on a CSV dataset")
    bench.add_argument("--input", required=True)
    bench.add_argument("--label-column", required=True)
    bench.add_argument("--trials", type=_positive_int, default=100)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--k-max", type=_positive_int, default=45)
    bench.add_argument("--fraction", type=_fraction, default=0.25,
                       help="test fraction of the smallest class")
    bench.add_argument("--methods", type=_method_list, default=None,
                       help="defaults to proposed,knn,wnn (binary) or ovo_plus,ovr_plus,knn,wnn")
    bench.add_argument("--jobs", type=_positive_int, default=1)
    bench.add_argument("--output", default=None)

    fp = sub.add_parser("fit-predict", help="fit on one CSV, predict another")
    fp.add_argument("--train", required=True)
    fp.add_argument("--queries", required=True)
    fp.add_argument("--label-column", required=True)
    fp.add_argument("--k-max", type=_positive_int, default=45)
    fp.add_argument("--method", choices=("auto", PROPOSED, OVO_PLUS, OVR_PLUS), default="auto")
    fp.add_argument("--emit-evidence", action="store_true",
                    help="add evidence columns: for proposed, E1,E2, the strongest "
                         "majority and minority evidence; for ovo_plus and ovr_plus, "
                         "one evidence_<class> column per class, the candidate-side "
                         "evidence of that class against all other classes in the "
                         "first one-vs-rest round")
    fp.add_argument("--output", default=None)

    sp = sub.add_parser("split", help="export split manifests as JSON")
    sp.add_argument("--input", required=True)
    sp.add_argument("--label-column", required=True)
    sp.add_argument("--trials", type=_positive_int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--fraction", type=_fraction, default=0.25)
    sp.add_argument("--output", default=None)

    return parser


@contextmanager
def _output(path: str | None):
    """The open output: stdout, which takes what is written as it comes, if
    ``path`` is None; else a temp file in the target directory, renamed onto
    ``path`` only if the block succeeds."""
    if path is None:
        yield sys.stdout
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".nbknn-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_report(path: str | None, document: dict) -> None:
    with _output(path) as out:
        out.write(json.dumps(document, indent=2, sort_keys=True) + "\n")


def _method_entry(report: TrialReport) -> dict:
    return {
        "name": report.method,
        "precision": {"mean": report.precision.mean, "se": report.precision.se},
        "recall": {"mean": report.recall.mean, "se": report.recall.se},
        "f1": {"mean": report.f1.mean, "se": report.f1.se},
    }


def _print_table(reports: list[TrialReport]) -> None:
    """Percent table, mean to 2 decimals and SE to 3, like the JSON but human."""
    rows = [("method", "precision", "recall", "f1")]
    for r in reports:
        cells = (f"{100 * s.mean:.2f} ({100 * s.se:.3f})" for s in (r.precision, r.recall, r.f1))
        rows.append((r.method, *cells))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip(), file=sys.stderr)


def _cmd_simulate(args) -> int:
    kwargs = dict(
        alpha=args.alpha,
        trials=args.trials,
        seed=args.seed,
        methods=args.methods,
        k_max=args.k_max,
        train_size=args.train_size,
        test_size=args.test_size,
        jobs=args.jobs,
    )
    if args.design == "location":
        reports = run_location_experiment(**kwargs)
    else:
        reports = run_scale_experiment(minority_role=args.minority_role, **kwargs)
    document = {
        "schema": SCHEMA_VERSION,
        "command": "simulate",
        "design": args.design,
        "alpha": args.alpha,
        "minority_role": args.minority_role if args.design == "scale" else None,
        "trials": args.trials,
        "seed": args.seed,
        "k_max": args.k_max,
        "train_size": args.train_size,
        "test_size": args.test_size,
        "methods": [_method_entry(r) for r in reports],
    }
    _write_report(args.output, document)
    _print_table(reports)
    return 0


def _cmd_benchmark(args) -> int:
    csv_data = load_csv(args.input, args.label_column)
    methods = args.methods or default_methods(csv_data.data.n_classes)
    spec = SplitSpec(minority_test_fraction=args.fraction, seed=args.seed, trials=args.trials)
    reports = run_csv_benchmark(csv_data, spec, methods, k_max=args.k_max, jobs=args.jobs)
    efficiency = {
        metric: efficiency_scores(
            {r.method: getattr(r, metric).mean for r in reports}
        )
        for metric in ("precision", "recall", "f1")
    }
    document = {
        "schema": SCHEMA_VERSION,
        "command": "benchmark",
        "input": os.path.basename(args.input),
        "label_column": args.label_column,
        "n_rows": csv_data.data.n,
        "n_features": csv_data.data.dim,
        "n_classes": csv_data.data.n_classes,
        "class_names": list(csv_data.class_names),
        "class_counts": csv_data.data.class_counts.tolist(),
        "trials": args.trials,
        "seed": args.seed,
        "k_max": args.k_max,
        "fraction": args.fraction,
        "methods": [_method_entry(r) for r in reports],
        "efficiency": efficiency,
    }
    _write_report(args.output, document)
    _print_table(reports)
    return 0


def _cmd_fit_predict(args) -> int:
    """Predict the queries a block of ``chunk_rows(n)`` rows at a time, each
    block ranked, decided and written on its own: memory does not grow with
    the queries past the matrix read from their file.  A query's bits do
    not depend on its batch, so the blocks change no output byte."""
    train_csv = load_csv(args.train, args.label_column)
    queries = load_queries(args.queries, train_csv)
    data, k_max, emit = train_csv.data, args.k_max, args.emit_evidence
    method = args.method
    if method == "auto":
        method = PROPOSED if data.n_classes == 2 else OVR_PLUS
    validate_methods((method,), n_classes=data.n_classes)

    columns = ["E1", "E2"] if method == PROPOSED else [f"evidence_{name}" for name in train_csv.class_names]
    header = [f"predicted_{args.label_column}"] + (columns if emit else [])
    step = chunk_rows(data.n)
    with _output(args.output) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for lo in range(0, len(queries), step):
            ranking = trial_ranking(data, queries[lo : lo + step], (method,), k_max)
            preds, values = decide(method, ranking, k_max, emit)
            rows = values.tolist() if emit else [[]] * len(preds)
            writer.writerows([train_csv.class_name(label)] + [repr(v) for v in row]
                             for label, row in zip(preds.tolist(), rows))
    return 0


def _cmd_split(args) -> int:
    csv_data = load_csv(args.input, args.label_column)
    spec = SplitSpec(minority_test_fraction=args.fraction, seed=args.seed, trials=args.trials)
    splits = []
    for trial in range(args.trials):
        train_idx, test_idx = split_indices(csv_data.data, spec, trial)
        splits.append(
            {"trial": trial, "train": train_idx.tolist(), "test": test_idx.tolist()}
        )
    document = {
        "schema": SCHEMA_VERSION,
        "command": "split",
        "input": os.path.basename(args.input),
        "label_column": args.label_column,
        "seed": args.seed,
        "trials": args.trials,
        "fraction": args.fraction,
        "splits": splits,
    }
    _write_report(args.output, document)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "benchmark": _cmd_benchmark,
    "fit-predict": _cmd_fit_predict,
    "split": _cmd_split,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except MethodNameError as exc:
        print(f"nbknn: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"nbknn: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
