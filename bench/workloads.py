"""The three workloads: CLI arguments, inputs, and work per call.

Each timed operation is one call of ``nbknn.cli.main`` with a fixed
size, so every call does the same work and the report of a call can be
pinned by digest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from inputs import LABEL, MULTICLASS_COUNTS, multiclass_csv, wide_csvs

K_MAX = 45  # the CLI default, which the workloads keep
SIM_TRIALS = 4
SIM_SIZE = 1000
CSV_TRIALS = 4
CSV_FRACTION = 0.25
WIDE_TRAIN = 10_000
WIDE_QUERIES = 2_000
SIM_METHODS = ("proposed", "knn", "wnn", "bayes")
CSV_METHODS = ("ovo_plus", "ovr_plus", "knn", "wnn")


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int  # --jobs of the timed calls
    trials_per_call: int  # a fit-predict call counts as one trial
    queries_per_call: int  # test or query rows classified per call
    ops_per_call: int  # operations for failed/attempted: trials, or queries


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim_location", 1, SIM_TRIALS, SIM_TRIALS * SIM_SIZE, SIM_TRIALS),
        Workload(
            "csv_multiclass", 2, CSV_TRIALS,
            CSV_TRIALS * len(MULTICLASS_COUNTS) * round(CSV_FRACTION * min(MULTICLASS_COUNTS)),
            CSV_TRIALS,
        ),
        Workload("fit_predict_wide", 1, 1, WIDE_QUERIES, WIDE_QUERIES),
    )
}


def prepare(name: str, workdir: str, seed: int) -> dict:
    """Write the workload's inputs, full size and warm-up size."""
    files = {}
    if name == "csv_multiclass":
        files["csv"] = os.path.join(workdir, "multiclass.csv")
        files["warm_csv"] = os.path.join(workdir, "warm.csv")
        multiclass_csv(files["csv"], seed)
        multiclass_csv(files["warm_csv"], seed, scale=10)
    elif name == "fit_predict_wide":
        for key in ("train", "queries", "warm_train", "warm_queries"):
            files[key] = os.path.join(workdir, f"{key}.csv")
        wide_csvs(files["train"], files["queries"], seed, WIDE_TRAIN, WIDE_QUERIES)
        wide_csvs(files["warm_train"], files["warm_queries"], seed, 500, 20)
    return files


def command(name: str, files: dict, seed: int, out: str, jobs: int, warm: bool = False) -> list[str]:
    """Arguments of one ``nbknn.cli.main`` call."""
    if name == "sim_location":
        size = "100" if warm else str(SIM_SIZE)
        return ["simulate", "--design", "location", "--alpha", "0.05",
                "--methods", ",".join(SIM_METHODS), "--train-size", size, "--test-size", size,
                "--trials", "1" if warm else str(SIM_TRIALS), "--seed", str(seed),
                "--jobs", str(jobs), "--output", out]
    if name == "csv_multiclass":
        return ["benchmark", "--input", files["warm_csv" if warm else "csv"],
                "--label-column", LABEL, "--fraction", str(CSV_FRACTION),
                "--trials", "2" if warm else str(CSV_TRIALS), "--seed", str(seed),
                "--jobs", str(jobs), "--output", out]
    if name == "fit_predict_wide":
        prefix = "warm_" if warm else ""
        return ["fit-predict", "--train", files[prefix + "train"],
                "--queries", files[prefix + "queries"], "--label-column", LABEL,
                "--method", "proposed", "--emit-evidence", "--output", out]
    raise ValueError(f"unknown workload {name!r}")
