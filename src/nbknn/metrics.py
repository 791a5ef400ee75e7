"""Allocation matrix and macro precision/recall/F1 reporting.

Conventions: rows of the allocation matrix are actual classes, columns
are predicted.  Per-class scores use the margin formulas
P(i) = n_ii / n_0i, R(i) = n_ii / n_i0, F1(i) = 2 n_ii / (n_i0 + n_0i);
macro scores are their unweighted means.  Degenerate margins (a class
never predicted, never actual, or both) score 0 for the affected
metric.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(f"counts must be a square matrix, got {counts.shape}")
        if counts.min() < 0:
            raise ValueError("counts must be nonnegative")
        counts = counts.copy()
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def row_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_totals(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class PrfReport:
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_f1: float


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    se: float


@dataclass(frozen=True)
class TrialReport:
    """Aggregated macro metrics for one method over repeated trials."""

    method: str
    per_trial: tuple[PrfReport, ...]
    precision: MetricSummary
    recall: MetricSummary
    f1: MetricSummary

    @property
    def trials(self) -> int:
        return len(self.per_trial)


def confusion(actual, predicted, n_classes: int) -> ConfusionMatrix:
    """Count matrix with counts[i, j] = #(actual == i+1 and predicted == j+1)."""
    a = np.asarray(actual, dtype=np.int64)
    p = np.asarray(predicted, dtype=np.int64)
    if a.shape != p.shape or a.ndim != 1:
        raise ValueError(f"label vectors must be 1-D and equal-length, got {a.shape} vs {p.shape}")
    if a.size == 0:
        raise ValueError("label vectors must be nonempty")
    for name, v in (("actual", a), ("predicted", p)):
        if v.min() < 1 or v.max() > n_classes:
            raise ValueError(f"{name} labels must lie in 1..{n_classes}")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (a - 1, p - 1), 1)
    return ConfusionMatrix(counts=counts)


def prf(cm: ConfusionMatrix) -> PrfReport:
    """Per-class and macro precision/recall/F1 from an allocation matrix."""
    if cm.total == 0:
        raise ValueError("allocation matrix is empty")
    diag = np.diag(cm.counts).astype(np.float64)
    row = cm.row_totals.astype(np.float64)
    col = cm.col_totals.astype(np.float64)
    precision = np.divide(diag, col, out=np.zeros_like(diag), where=col > 0)
    recall = np.divide(diag, row, out=np.zeros_like(diag), where=row > 0)
    f1 = _f1(diag, row, col)
    return PrfReport(
        precision=precision,
        recall=recall,
        f1=f1,
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
    )


def _f1(diag: np.ndarray, row: np.ndarray, col: np.ndarray) -> np.ndarray:
    """F1(i) = 2 n_ii / (n_i0 + n_0i) from float margins, 0 on an empty margin."""
    denom = row + col
    return np.divide(2.0 * diag, denom, out=np.zeros_like(diag), where=denom > 0)


def macro_f1_many(actual, predicted: np.ndarray, n_classes: int) -> np.ndarray:
    """``prf(confusion(actual, row, n_classes)).macro_f1`` for each row of
    ``predicted``, bit for bit, from one count over (row, actual,
    predicted); labels lie in 1..n_classes."""
    a = np.asarray(actual, dtype=np.int64) - 1
    p = np.asarray(predicted, dtype=np.int64) - 1
    g = p.shape[0]
    cells = (np.arange(g)[:, None] * n_classes + a) * n_classes + p
    counts = np.bincount(cells.ravel(), minlength=g * n_classes**2).reshape(g, n_classes, n_classes)
    diag = np.diagonal(counts, axis1=1, axis2=2).astype(np.float64)
    f1 = _f1(diag, counts.sum(axis=2).astype(np.float64), counts.sum(axis=1).astype(np.float64))
    return f1.mean(axis=1)


def efficiency_scores(values: Mapping[str, float]) -> dict[str, float]:
    """Each method's score divided by the best score; the best maps to 1."""
    if not values:
        raise ValueError("need at least one method")
    for name, v in values.items():
        if not (isinstance(v, (int, float)) and math.isfinite(v)) or v <= 0:
            raise ValueError(f"efficiency requires positive finite values, got {name}={v!r}")
    best = max(values.values())
    return {name: v / best for name, v in values.items()}


def aggregate_trials(reports: Sequence[PrfReport], method: str) -> TrialReport:
    """Mean and standard error of the macro metrics over trials.

    SE is the sample standard deviation (denominator trials - 1) over
    the square root of the trial count; 0 for a single trial.
    """
    if len(reports) == 0:
        raise ValueError("need at least one trial report")

    def summarize(values: np.ndarray) -> MetricSummary:
        mean = float(values.mean())
        if values.size == 1:
            return MetricSummary(mean=mean, se=0.0)
        sd = float(values.std(ddof=1))
        return MetricSummary(mean=mean, se=sd / math.sqrt(values.size))

    return TrialReport(
        method=method,
        per_trial=tuple(reports),
        precision=summarize(np.array([r.macro_precision for r in reports])),
        recall=summarize(np.array([r.macro_recall for r in reports])),
        f1=summarize(np.array([r.macro_f1 for r in reports])),
    )
