"""Plain and class-weighted k-NN comparators with cross-validated k.

The weighted variant gives each neighbor of class i vote mass 1/n_i,
where n_i is the class's training count; with balanced classes it
reduces to plain voting.  Cross-validation selects k on mean macro F1
over stratified folds, ties to the smaller k.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import LabeledDataset
from .metrics import macro_f1_many
from .neighbors import Ranking
from .rng import Stream

WEIGHTINGS = ("uniform", "inverse-class-size")
_VOTE_CELLS = 1 << 16  # (row, neighbor, class) vote weights summed at once


@dataclass(frozen=True)
class KnnConfig:
    k: int = 5
    weighting: str = "uniform"
    cv_folds: int = 5
    k_grid: tuple[int, ...] = tuple(range(1, 32, 2))

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"weighting must be one of {WEIGHTINGS}, got {self.weighting!r}")
        if self.cv_folds < 2:
            raise ValueError(f"cv_folds must be >= 2, got {self.cv_folds}")
        if len(self.k_grid) == 0 or min(self.k_grid) < 1:
            raise ValueError("k_grid must be a nonempty list of positive integers")


def _vote_weights(class_counts: np.ndarray, weighting: str) -> np.ndarray:
    if weighting == "uniform":
        return np.ones(class_counts.size, dtype=np.float64)
    weights = np.zeros(class_counts.size, dtype=np.float64)
    np.divide(1.0, class_counts, out=weights, where=class_counts > 0)
    return weights


def _votes_for_grid(
    ordered_labels: np.ndarray,
    ks: tuple[int, ...],
    n_classes: int,
    class_weight: np.ndarray,
) -> np.ndarray:
    """Predictions for every k in ``ks`` from one set of orderings, row j for ``ks[j]``.

    A running sum along a block of rows' neighbors gives each class's vote
    mass at every depth, with the adds of a column-by-column sum in its
    order, plus exact zeros.  Argmax tie-break is the smallest class id.
    """
    labels = ordered_labels[:, : max(ks)]
    preds = np.empty((len(ks), len(labels)), dtype=np.int64)
    step = max(1, _VOTE_CELLS // (labels.shape[1] * n_classes))
    for lo in range(0, len(labels), step):
        weight = (labels[lo : lo + step, :, None] == np.arange(1, n_classes + 1)) * class_weight
        preds[:, lo : lo + step] = np.argmax(np.cumsum(weight, axis=1)[:, np.subtract(ks, 1)], axis=2).T + 1
    return preds


def vote(ranking: Ranking, cfg: KnnConfig) -> np.ndarray:
    """k-NN vote at ``cfg.k`` of the queries of ``ranking``, a ranking of
    its training set deep enough for the vote."""
    train = ranking.train
    if cfg.k > train.n:
        raise ValueError(f"k={cfg.k} exceeds the training size {train.n}")
    weights = _vote_weights(train.class_counts, cfg.weighting)
    return _votes_for_grid(ranking.head(cfg.k), (cfg.k,), train.n_classes, weights)[0]


def knn_classify_batch(train: LabeledDataset, queries, cfg: KnnConfig) -> np.ndarray:
    """k-NN vote for many queries at once."""
    return vote(Ranking(train, queries, vote_k=cfg.k), cfg)


def _stratified_folds(train: LabeledDataset, folds: int, stream: Stream) -> np.ndarray:
    """Fold id per row: each class is shuffled then dealt round-robin."""
    assignment = np.empty(train.n, dtype=np.int64)
    for cls in range(1, train.n_classes + 1):
        idx = np.flatnonzero(train.labels == cls)
        if idx.size < folds:
            raise ValueError(
                f"class {cls} has {idx.size} members, fewer than cv_folds={folds}"
            )
        perm = stream.permutation(idx.size)
        assignment[idx[perm]] = np.arange(idx.size) % folds
    return assignment


def select_k_cv(
    train: LabeledDataset, cfg: KnnConfig, seed: int, *, ranking: Ranking | None = None
) -> int:
    """Grid k with the best mean macro F1 over stratified folds.

    Deterministic given ``seed``; score ties resolve to the smaller k.
    A fold reads labels only: each validation row's order of the fold's
    training rows, to the largest grid k, from :meth:`Ranking.fold`.  A
    ``ranking`` of ``train`` shares its training heads with every call
    that reads it; without one, a ranking of ``train`` is made here.
    """
    assignment = _stratified_folds(train, cfg.cv_folds, Stream(seed, 0))
    min_fit = train.n - int(np.bincount(assignment).max())
    ks = tuple(k for k in cfg.k_grid if k <= min_fit)
    if not ks:
        raise ValueError(f"no k_grid value fits the fold training size {min_fit}")
    if ranking is None:
        ranking = Ranking(train, train.points)
    elif ranking.train is not train:
        raise ValueError("the ranking was built for another training set")
    scores = {k: [] for k in ks}
    for f in range(cfg.cv_folds):
        fit = assignment != f
        val_idx = np.flatnonzero(~fit)
        ordered_labels = train.labels[ranking.fold(val_idx, fit, max(ks))]
        counts = np.bincount(train.labels[fit], minlength=train.n_classes + 1)[1:]
        weights = _vote_weights(counts, cfg.weighting)
        preds = _votes_for_grid(ordered_labels, ks, train.n_classes, weights)
        f1 = macro_f1_many(train.labels[val_idx], preds, train.n_classes)
        for k, score in zip(ks, f1.tolist()):
            scores[k].append(score)
    means = {k: float(np.mean(scores[k])) for k in ks}
    best = max(sorted(means), key=lambda k: (means[k], -k))
    return int(best)


def cv_vote(ranking: Ranking, cfg: KnnConfig, seed: int) -> np.ndarray:
    """Select k by :func:`select_k_cv` on the ranking's training set, then
    vote the queries of ``ranking`` at that k."""
    k = select_k_cv(ranking.train, cfg, seed, ranking=ranking)
    return vote(ranking, replace(cfg, k=k))


def knn_with_cv(train: LabeledDataset, queries, cfg: KnnConfig, seed: int) -> np.ndarray:
    """Select k by cross-validation, then classify ``queries``: one ranking,
    deep enough for any grid k, serves both."""
    return cv_vote(Ranking(train, queries, vote_k=max(cfg.k_grid)), cfg, seed)
