"""Correctness checks behind ``failed`` / ``attempted``.

* Pinned digests: the report of a call at a pinned seed must match the
  bytes recorded before any performance work ("speed never buys a
  changed number").
* Trial checks (simulate, benchmark): a capture call records what each
  method predicted and what each trial scored.  Every prediction is
  compared with an oracle, and every number of the report is recomputed
  from the captured predictions.
* Query checks (fit-predict): each row's label must follow from its own
  E1/E2, and a seeded sample of queries is compared with the evidence
  oracle, value by value.
"""

from __future__ import annotations

import json
import os

import numpy as np

import oracle
from inputs import LABEL, MULTICLASS_COUNTS, WIDE_CLASSES, wide_arrays
from spans import call_arg, patch
from workloads import CSV_METHODS, K_MAX, SIM_METHODS, WIDE_QUERIES, WIDE_TRAIN

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")
ORACLE_SAMPLE = 200  # fit-predict queries compared with the evidence oracle


def pinned(workload: str, seed: int) -> str | None:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


class Capture:
    """Records each method's predictions and each trial's scored labels.

    For k-NN and wnn it also records the k that the program's
    cross-validation chose, the value ``select_k_cv`` returned, and the
    fold id of each training row it dealt (``_stratified_folds``), which
    come from the program's random stream and so cannot be re-derived.
    """

    def __init__(self) -> None:
        self.predicted: list[tuple] = []
        self.scored: list[tuple] = []
        self._depth = 0
        self._k = None
        self._folds = None

    def install(self) -> list:
        return patch([("methods", "predict_with_method"), ("metrics", "confusion"),
                      ("baselines", "select_k_cv"), ("baselines", "_stratified_folds")],
                     self._wrapper)

    def _wrapper(self, mod_name: str, func_name: str, original):
        if func_name == "select_k_cv":
            def select(*args, **kwargs):
                self._k = original(*args, **kwargs)
                return self._k
            return select

        if func_name == "_stratified_folds":
            def folds(*args, **kwargs):
                self._folds = np.array(original(*args, **kwargs))
                return self._folds
            return folds

        if func_name == "predict_with_method":
            def predict(*args, **kwargs):
                self._depth += 1
                self._k = self._folds = None
                try:
                    preds = original(*args, **kwargs)
                finally:
                    self._depth -= 1
                self.predicted.append((
                    call_arg(args, kwargs, 0, "name"),
                    call_arg(args, kwargs, 1, "train"),
                    np.array(call_arg(args, kwargs, 2, "queries"), dtype=np.float64),
                    np.array(preds),
                    self._k,
                    self._folds,
                ))
                return preds
            return predict

        def confusion(*args, **kwargs):
            # Calls inside a method (k-NN cross-validation) are not trial scores.
            if self._depth == 0:
                self.scored.append((
                    np.array(call_arg(args, kwargs, 0, "actual")),
                    np.array(call_arg(args, kwargs, 1, "predicted")),
                    int(call_arg(args, kwargs, 2, "n_classes")),
                ))
            return original(*args, **kwargs)
        return confusion


def _mismatches(name: str, train, queries, preds, n_classes: int, k) -> int:
    """Unambiguous queries whose prediction differs from the oracle's."""
    points, labels = np.asarray(train.points), np.asarray(train.labels)
    if name in ("knn", "wnn"):
        votes = oracle.knn_votes(points, labels, n_classes, queries, weighted=name == "wnn")
        if k is None:
            # select_k_cv was not called: accept the best grid k.
            return min(int(np.sum((ref != preds) & ~amb)) for ref, amb in votes.values())
        if int(k) not in votes:
            return len(preds)
        ref, amb = votes[int(k)]
    elif name == "proposed":
        ref, amb = oracle.binary(points, labels, K_MAX, queries)
    elif name == "ovo_plus":
        ref, amb = oracle.ovo_plus(points, labels, K_MAX, queries)
    elif name == "ovr_plus":
        ref, amb = oracle.ovr_plus(points, labels, K_MAX, queries)
    elif name == "bayes":
        ref, amb = oracle.location_bayes(queries)
    else:
        raise ValueError(f"no oracle for method {name!r}")
    return int(np.sum((ref != preds) & ~amb))


def _cv_ok(name: str, train, n_classes: int, k, folds, trial: int, messages: list) -> bool:
    """Whether k-NN/wnn chose k by cross-validation on stratified folds."""
    if k is None or folds is None:
        # A program that no longer calls these functions is checked by its vote alone.
        messages.append(f"trial {trial}: the k or folds of {name} were not recorded; "
                        "any grid k accepted")
        return True
    labels = np.asarray(train.labels)
    if not oracle.folds_are_stratified(labels, folds):
        messages.append(f"trial {trial}: {name} cross-validation folds are not stratified")
        return False
    if not oracle.cv_choice_ok(np.asarray(train.points), labels, n_classes, folds,
                               name == "wnn", int(k)):
        messages.append(f"trial {trial}: {name} chose k={k}, not the cross-validated best")
        return False
    return True


def _report_matches(report: dict, scores: dict, workload) -> bool:
    """Every mean and SE in the report, recomputed from the predictions."""
    if report.get("trials") != workload.trials_per_call:
        return False
    if [e.get("name") for e in report.get("methods", [])] != list(scores):
        return False
    for entry in report["methods"]:
        for j, metric in enumerate(("precision", "recall", "f1")):
            mean, se = oracle.mean_se([s[j] for s in scores[entry["name"]]])
            if not (oracle.close(entry[metric]["mean"], mean) and oracle.close(entry[metric]["se"], se)):
                return False
    if workload.name == "csv_multiclass":
        if report.get("class_counts") != list(MULTICLASS_COUNTS):
            return False
        for metric, table in report.get("efficiency", {}).items():
            means = {e["name"]: e[metric]["mean"] for e in report["methods"]}
            best = max(means.values())
            if any(not oracle.close(table[m], v / best) for m, v in means.items()):
                return False
    return True


def trial_failures(capture: Capture, report_bytes: bytes, workload, messages: list) -> set | None:
    """Indices of trials that failed a check; None if the report itself is wrong."""
    methods = SIM_METHODS if workload.name == "sim_location" else CSV_METHODS
    expected = len(methods) * workload.trials_per_call
    if len(capture.predicted) != expected or len(capture.scored) != expected:
        messages.append(
            f"capture saw {len(capture.predicted)} predictions and {len(capture.scored)} "
            f"scorings, expected {expected} of each"
        )
        return None
    failed = set()
    scores = {m: [] for m in methods}
    for i, ((name, train, queries, preds, k, folds), (actual, scored, n_classes)) in enumerate(
        zip(capture.predicted, capture.scored)
    ):
        trial = i // len(methods)
        if name != methods[i % len(methods)] or not np.array_equal(preds, scored):
            messages.append(f"trial {trial}: scored labels are not the predictions of {name}")
            return None
        if name in ("knn", "wnn") and not _cv_ok(name, train, n_classes, k, folds, trial, messages):
            failed.add(trial)
        bad = _mismatches(name, train, queries, preds, n_classes, k)
        if bad:
            failed.add(trial)
            messages.append(f"trial {trial}: {bad} {name} predictions disagree with the oracle")
        scores[name].append(oracle.macro_prf(actual, preds, n_classes))
    try:
        ok = _report_matches(json.loads(report_bytes), scores, workload)
    except (ValueError, KeyError, TypeError):
        ok = False
    if not ok:
        messages.append("report numbers do not follow from the predictions")
        return None
    return failed


def query_failures(output: bytes, seed: int, messages: list) -> int:
    """Failed query rows in one fit-predict predictions file."""
    lines = output.decode("utf-8", errors="replace").splitlines()
    if not lines or lines[0] != f"predicted_{LABEL},E1,E2" or len(lines) != WIDE_QUERIES + 1:
        messages.append("predictions file has the wrong header or row count")
        return WIDE_QUERIES
    e1 = np.full(WIDE_QUERIES, np.nan)
    e2 = np.full(WIDE_QUERIES, np.nan)
    says_minority = np.zeros(WIDE_QUERIES, dtype=bool)
    bad = np.zeros(WIDE_QUERIES, dtype=bool)
    for i, line in enumerate(lines[1:]):
        try:
            label, a, b = line.split(",")
            e1[i], e2[i] = float(a), float(b)
        except ValueError:
            bad[i] = True
            continue
        bad[i] = label not in WIDE_CLASSES
        says_minority[i] = label == WIDE_CLASSES[1]
    in_range = (e1 >= 0.5) & (e1 <= 1.0) & (e2 >= 0.5) & (e2 <= 1.0)
    bad |= ~in_range | (says_minority != (e2 > e1))

    train, is_min, queries = wide_arrays(seed, WIDE_TRAIN, WIDE_QUERIES)
    sample = np.random.default_rng([seed & 0xFFFFFFFF, 3]).choice(
        WIDE_QUERIES, ORACLE_SAMPLE, replace=False
    )
    o1, o2 = oracle.evidence(train, is_min, K_MAX, queries[sample])
    off = (np.abs(e1[sample] - o1) > oracle.EVIDENCE_TOL) | (np.abs(e2[sample] - o2) > oracle.EVIDENCE_TOL)
    decided = np.abs(o1 - o2) > oracle.TOL
    bad[sample] |= off | (decided & (says_minority[sample] != (o2 > o1)))
    if bad.any():
        messages.append(f"{int(bad.sum())} query rows failed (first: row {int(np.argmax(bad))})")
    return int(bad.sum())
