"""One-vs-one (OvO+) and one-vs-rest (OvR+) reductions to the binary
evidence classifier.

Both play rounds of binary pairings among the active classes; one
driver, :func:`_reduce`, settles each round for all of its queries and
replays winner sets, which strictly shrink, so every query terminates.
A pairing is :func:`binary._pair_evidence` of two groups of classes,
which owns their roles and ties; it reads :meth:`Ranking.places` of the
shared ranking, and a replay its :meth:`Ranking.take`, with no sort and
no classifier fit.  A two-class OvR+ round plays one pairing and reads
the other column as its mirror.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .binary import _check_train, _is_minority, _pair_evidence
from .dataset import LabeledDataset
from .neighbors import Ranking


def _reduce(play, active: tuple[int, ...], ranking: Ranking) -> tuple[np.ndarray, np.ndarray]:
    """Labels of the queries of ``ranking`` among ``active``, and this round's scores.

    ``play(active, ranking)`` gives (classes, wins, score), one column per class.
    A single winner wins; a winner set of 2 or more that is smaller than
    ``classes`` replays among itself (counts, p0 and k caps recomputed); any
    other query goes to the class of its first maximum score.
    """
    classes, wins, score = play(active, ranking)
    single = wins.sum(axis=1) == 1
    labels = classes[np.where(single, wins.argmax(axis=1), score.argmax(axis=1))]
    sets, inverse = np.unique(wins, axis=0, return_inverse=True)
    for s, members in enumerate(sets):
        if 2 <= np.count_nonzero(members) < classes.size:
            replay = inverse == s
            labels[replay] = _reduce(play, tuple(classes[members]), ranking.take(replay))[0]
    return labels, score


def _ovo_round(k_max: int, active: tuple[int, ...], ranking: Ranking) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each larger active class plays the smallest, the minority of every
    pairing, which wins none and is the fallback of an empty winner set."""
    counts = ranking.train.class_counts
    smallest = active[0]
    for cls in active[1:]:
        if _is_minority(int(counts[cls - 1]), int(counts[smallest - 1]), (cls,), (smallest,)):
            smallest = cls
    classes = np.array(active, dtype=np.int64)
    wins = np.zeros((len(ranking), classes.size), dtype=bool)
    for j, cls in enumerate(active):
        if cls != smallest:
            wins[:, j] = _pair_evidence(ranking, (cls,), (smallest,), k_max)[0]
    return classes, wins, np.broadcast_to(classes == smallest, wins.shape)


def _ovr_round(k_max: int, active: tuple[int, ...], ranking: Ranking) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each active class against the pooled rest of the active set, roles
    and ties as :func:`binary._pair_evidence` decides.  The score is the
    class's side of the evidence, so the fallback is the maximum evidence,
    ties to the smaller id.  Over two classes one pairing is played: the
    other column is its mirror, wins negated and sides swapped."""
    wins = np.zeros((len(ranking), len(active)), dtype=bool)
    evidence = np.zeros(wins.shape, dtype=np.float64)
    for j, cls in enumerate(active[:1] if len(active) == 2 else active):
        rest = tuple(c for c in active if c != cls)
        wins[:, j], evidence[:, j], mirror = _pair_evidence(ranking, (cls,), rest, k_max)
    if len(active) == 2:
        wins[:, 1], evidence[:, 1] = ~wins[:, 0], mirror
    return np.array(active, dtype=np.int64), wins, evidence


def _classes(ranking: Ranking, k_max: int) -> tuple[int, ...]:
    """Every class of the ranking's training set, which must hold 2 or more
    nonempty classes, after checking ``k_max``."""
    if ranking.train.n_classes < 2:
        raise ValueError("multiclass reduction needs at least 2 classes")
    _check_train(ranking.train, k_max)
    return tuple(range(1, ranking.train.n_classes + 1))


def reduction(round_fn, ranking: Ranking, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Labels of the queries of ``ranking`` and the first-round scores of the
    reduction that plays ``round_fn`` (:func:`_ovo_round` or :func:`_ovr_round`)."""
    return _reduce(partial(round_fn, k_max), _classes(ranking, k_max), ranking)


def ovr_evidence(ranking: Ranking, k_max: int) -> np.ndarray:
    """First one-vs-rest round evidence of the queries of ``ranking``, one row
    per query: column j is class j+1's side of its pairing against all
    other classes, as the first round of :func:`reduction` records it."""
    return _ovr_round(k_max, _classes(ranking, k_max), ranking)[2]


def classify_ovo_plus_batch(train: LabeledDataset, queries, k_max: int = 45) -> np.ndarray:
    """Ordered one-vs-one predictions for many queries."""
    return reduction(_ovo_round, Ranking(train, queries, k_max), k_max)[0]


def classify_ovr_plus_batch(train: LabeledDataset, queries, k_max: int = 45) -> np.ndarray:
    """One-vs-rest predictions for many queries."""
    return reduction(_ovr_round, Ranking(train, queries, k_max), k_max)[0]


def ovr_evidence_batch(train: LabeledDataset, queries, k_max: int = 45) -> np.ndarray:
    """First one-vs-rest round evidence for many queries, as :func:`ovr_evidence`."""
    return ovr_evidence(Ranking(train, queries, k_max), k_max)
