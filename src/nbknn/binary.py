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
It reads one given ordering per query, codes each entry as outside the
pair, pair majority or pair minority, and places a minority row in the
pair's own order by counting the pair rows up to it; it never sorts.
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


def _evidence_arrays(
    marks: np.ndarray, bounds: np.ndarray, p0: float, k_max_eff: int,
    in_pair: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized evidence sweep over ``marks``, which flags the minority
    rows of the queries' neighbor prefixes laid end to end: query i's
    prefix is ``marks[bounds[i]:bounds[i + 1]]``.

    The pair is every entry, or the entries ``in_pair`` marks.  A minority
    row's place n_obs in the pair's own order is the count of pair entries
    up to and including it; by the restriction lemma this is its place in
    a fresh sort of the pair's rows.

    Returns (e1, e2, e_matrix, n_obs_matrix) with one row per query and
    one column per k in 1..k_max_eff.  Raises if a row marks fewer than
    ``k_max_eff`` minority rows: its prefix is too short to sweep.
    """
    if in_pair is not None:  # read the pair's entries only, in order
        pair = np.flatnonzero(in_pair)
        marks, bounds = marks.take(pair), np.searchsorted(pair, bounds)
    at = np.flatnonzero(marks)
    first = np.searchsorted(at, bounds)
    if np.any(np.diff(first) < k_max_eff):
        raise ValueError(f"a neighbor prefix holds fewer than the {k_max_eff} minority rows swept")
    n_obs = at[first[:-1, None] + np.arange(k_max_eff)] - bounds[:-1, None] + 1
    ks = np.arange(1, k_max_eff + 1, dtype=np.int64)
    e = adjusted_pvalue_many(ks[None, :], n_obs, p0)
    e1 = np.maximum(0.5, e.max(axis=1))
    e2 = 1.0 - np.minimum(0.5, e.min(axis=1))
    return e1, e2, e, n_obs


def _pair_evidence(
    labels: np.ndarray, prefix: tuple[np.ndarray, np.ndarray], a: tuple[int, ...],
    b: tuple[int, ...], k_max: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per query of ``prefix`` (of all training rows), whether the classes
    ``a`` beat the disjoint classes ``b``, and each side's evidence (E1 for
    the majority, E2 for the minority); ties E1 == E2 go to the majority.

    One gather reads a code per prefix entry: 0 outside the pair, 1 in
    its majority, 2 in its minority.  A pair of every row is swept with
    no pair selection.
    """
    counts = np.bincount(labels)
    n_a, n_b = int(counts[list(a)].sum()), int(counts[list(b)].sum())
    a_minor = _is_minority(n_a, n_b, a, b)
    n_min = n_a if a_minor else n_b
    code = np.zeros(counts.size, dtype=np.uint8)
    code[list(a + b)] = 1
    code[list(a if a_minor else b)] = 2
    codes = code[labels].take(prefix[0])
    in_pair = None if n_a + n_b == labels.size else codes != 0
    bounds = np.concatenate(([0], np.cumsum(prefix[1])))
    k_eff = min(int(k_max), n_min)
    e1, e2, _, _ = _evidence_arrays(codes == 2, bounds, n_min / (n_a + n_b), k_eff, in_pair)
    majority_wins = e1 >= e2
    if a_minor:
        return ~majority_wins, e2, e1
    return majority_wins, e1, e2


def binary_evidence_batch(
    clf: BinaryEvidenceClassifier, queries, *, ranking: Ranking | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predicted labels, E1 and E2 for many queries, one row each.

    One neighbor ordering, ``ranking.test`` when given, serves both the
    labels and the evidence.
    """
    prefix = Ranking.of(clf.train, queries, ranking, k_max=clf.k_max_eff).test
    wins, e1, e2 = _pair_evidence(clf.train.labels, prefix, (clf.majority_label,),
                                  (clf.minority_label,), clf.k_max_eff)
    labels = np.where(wins, clf.majority_label, clf.minority_label).astype(np.int64)
    return labels, e1, e2


def classify_binary_batch(
    clf: BinaryEvidenceClassifier, queries, *, ranking: Ranking | None = None
) -> np.ndarray:
    """Predicted labels for many queries; ties go to the majority class."""
    return binary_evidence_batch(clf, queries, ranking=ranking)[0]
