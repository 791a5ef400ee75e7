"""Binary evidence classifier.

For a query x the neighbors are walked in distance order and, for each
k = 1..k_max, the number of neighbors needed to collect k minority
points is converted to a mid-p value e_k under the null that labels
arrive with the training minority proportion p0.  Starting both running
extremes at 0.5, E1 = max(0.5, max_k e_k) is the strongest evidence for
the majority class and E2 = 1 - min(0.5, min_k e_k) for the minority
class; the query goes to the minority class exactly when E2 > E1, so
exact ties fall to the majority.

OvO+ and OvR+ pairings call the same decision, :func:`_pair_evidence`.
It codes each class as outside the pair, pair majority or pair minority;
:meth:`Ranking.places` counts the pair's n_obs along the shared ranking's
neighbor labels, with no sort, and :func:`_sweep` turns them into E1 and E2.
Its sweep length is min(k_max, minority count): beyond it the statistic
is undefined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .negbin import adjusted_pvalue_many
from .neighbors import Ranking


@dataclass(frozen=True)
class BinaryEvidenceClassifier:
    """Immutable fitted state; all query methods are pure reads."""

    train: LabeledDataset
    majority_label: int
    minority_label: int
    k_max_eff: int


def _is_minority(n_a: int, n_b: int, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Whether the classes ``a`` (``n_a`` rows) are the minority against the
    classes ``b``: fewer rows, or as many rows and a larger smallest id."""
    return n_a < n_b or (n_a == n_b and min(a) > min(b))


def _check_train(train: LabeledDataset, k_max: int) -> None:
    if train.class_counts.min() < 1:
        empty = int(np.argmin(train.class_counts)) + 1
        raise ValueError(f"class {empty} has no training points; every class must be nonempty")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")


def fit_binary(train: LabeledDataset, k_max: int = 45) -> BinaryEvidenceClassifier:
    """Assign majority/minority roles by :func:`_is_minority` and cap k_max
    at the minority count; the pair kernel derives p0 from the labels."""
    if train.n_classes != 2:
        raise ValueError(f"binary classifier needs exactly 2 classes, got {train.n_classes}")
    _check_train(train, k_max)
    counts = train.class_counts
    minority = 1 if _is_minority(int(counts[0]), int(counts[1]), (1,), (2,)) else 2
    return BinaryEvidenceClassifier(
        train=train,
        majority_label=3 - minority,
        minority_label=minority,
        k_max_eff=min(int(k_max), int(counts[minority - 1])),
    )


def _sweep(n_obs: np.ndarray, p0: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E1, E2 and the e-matrix of the evidence sweep over ``n_obs``, one row
    per query and one column per k in 1..k_max_eff: entry k is the number
    of pair neighbors it takes to reach the query's k-th minority row."""
    ks = np.arange(1, n_obs.shape[1] + 1, dtype=np.int64)
    e = adjusted_pvalue_many(ks[None, :], n_obs, p0)
    return np.maximum(0.5, e.max(axis=1)), 1.0 - np.minimum(0.5, e.min(axis=1)), e


def _pair_evidence(
    ranking: Ranking, a: tuple[int, ...], b: tuple[int, ...], k_max: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per query of ``ranking`` (of all training rows), whether the classes
    ``a`` beat the disjoint classes ``b``, and each side's evidence (E1 for
    the majority, E2 for the minority); ties E1 == E2 go to the majority.

    Each class is coded 0 outside the pair, 1 in its majority and 2 in
    its minority, and :meth:`Ranking.places` counts the pair's n_obs.
    """
    counts = np.bincount(ranking.labels)
    n_a, n_b = int(counts[list(a)].sum()), int(counts[list(b)].sum())
    a_minor = _is_minority(n_a, n_b, a, b)
    n_min = n_a if a_minor else n_b
    code = np.zeros(counts.size, dtype=np.uint8)
    code[list(a + b)] = 1
    code[list(a if a_minor else b)] = 2
    e1, e2, _ = _sweep(ranking.places(code, min(int(k_max), n_min)), n_min / (n_a + n_b))
    majority_wins = e1 >= e2
    if a_minor:
        return ~majority_wins, e2, e1
    return majority_wins, e1, e2


def evidence(clf: BinaryEvidenceClassifier, ranking: Ranking) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predicted labels, E1 and E2 of the queries of ``ranking``, a ranking
    of ``clf.train``, one row each; ties go to the majority class."""
    wins, e1, e2 = _pair_evidence(ranking, (clf.majority_label,), (clf.minority_label,), clf.k_max_eff)
    return np.where(wins, clf.majority_label, clf.minority_label).astype(np.int64), e1, e2


def binary_evidence_batch(clf: BinaryEvidenceClassifier, queries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predicted labels, E1 and E2 for many queries, from one ranking."""
    return evidence(clf, Ranking(clf.train, queries, clf.k_max_eff))


def classify_binary_batch(clf: BinaryEvidenceClassifier, queries) -> np.ndarray:
    """Predicted labels for many queries; ties go to the majority class."""
    return binary_evidence_batch(clf, queries)[0]
