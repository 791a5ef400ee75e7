"""One-vs-one and one-vs-rest reductions with evidence tie resolution.

Both reductions play rounds of the binary evidence classifier and
recurse on the set of winners, which strictly shrinks, so they
terminate for every input.

OvO+: active classes are ordered by nonincreasing training count (ties
by ascending id) and each larger class plays the smallest one, which is
the designated minority of every pair.  An empty winner set elects the
smallest class; a singleton wins outright; otherwise the winners replay
among themselves with counts, p0, and k caps recomputed from the
restricted training data.

OvR+: every active class plays the pooled remainder of the active set;
the smaller-by-count side of each pairing is the minority (ties: the
group whose smallest class id is larger, which generalizes the binary
tie rule).  A singleton winner set wins; an empty winner set, or one
that fails to shrink, falls back to the maximum recorded evidence;
otherwise the winners replay.  No pair sorts: each reads the shared
test ordering restricted to its training rows (``restrict``).
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .binary import _evidence_arrays, fit_binary
from .dataset import LabeledDataset
from .neighbors import Ranking, restrict


def resolve_by_max_evidence(per_class_evidence: Mapping[int, float]) -> int:
    """Class with the largest recorded evidence; ties to the smaller id."""
    if not per_class_evidence:
        raise ValueError("per-class evidence map is empty")
    best_cls = None
    best_val = None
    for cls in sorted(per_class_evidence):
        val = float(per_class_evidence[cls])
        if best_cls is None or val > best_val:
            best_cls, best_val = cls, val
    return int(best_cls)


def _test_orders(train: LabeledDataset, queries, ranking: Ranking | None) -> np.ndarray:
    """Check ``train`` and return its ordering for each query row."""
    if train.n_classes < 2:
        raise ValueError("multiclass reduction needs at least 2 classes")
    if train.class_counts.min() < 1:
        empty = int(np.argmin(train.class_counts)) + 1
        raise ValueError(f"class {empty} has no training points")
    return Ranking.of(train.points, queries, ranking).test


def _pair_evidence(
    train: LabeledDataset, orders: np.ndarray, label1: tuple[int, ...],
    label2: tuple[int, ...], k_max: int,
) -> tuple[np.ndarray, np.ndarray]:
    """E1, E2 of the classifier fitted on the listed classes' rows, relabeled
    to {1, 2} by group, from ``orders`` of all of ``train``'s rows."""
    in1 = np.isin(train.labels, label1)
    in_pair = in1 | np.isin(train.labels, label2)
    pair = LabeledDataset(train.points[in_pair], np.where(in1[in_pair], 1, 2), 2)
    e1, e2, _, _ = _evidence_arrays(fit_binary(pair, k_max), restrict(orders, in_pair))
    return e1, e2


def _candidate_is_minority(counts: np.ndarray, cls: int, rest: tuple[int, ...]) -> bool:
    """Minority side of a one-vs-rest pairing: fewer training rows; on a
    tie, the group whose smallest class id is larger (which reduces to
    the binary larger-label rule when the rest is a single class)."""
    n_cls = int(counts[cls - 1])
    n_rest = int(sum(counts[c - 1] for c in rest))
    if n_cls != n_rest:
        return n_cls < n_rest
    return cls > min(rest)


def _ovo_round(
    train: LabeledDataset, active: tuple[int, ...], orders: np.ndarray,
    idx: np.ndarray, out: np.ndarray, k_max: int,
) -> None:
    counts = train.class_counts
    order = sorted(active, key=lambda c: (-int(counts[c - 1]), c))
    minority_cls = order[-1]
    others = order[:-1]

    wins = np.zeros((idx.size, len(others)), dtype=bool)
    round_orders = orders[idx]
    for j, cls in enumerate(others):
        e1, e2 = _pair_evidence(train, round_orders, (cls,), (minority_cls,), k_max)
        wins[:, j] = e1 >= e2  # class 1 side = cls

    # Settle empty and singleton winner sets directly; recurse the rest.
    to_recurse: dict[tuple[int, ...], list[int]] = {}
    for pos in range(idx.size):
        s = tuple(cls for j, cls in enumerate(others) if wins[pos, j])
        if len(s) == 0:
            out[idx[pos]] = minority_cls
        elif len(s) == 1:
            out[idx[pos]] = s[0]
        else:
            to_recurse.setdefault(s, []).append(pos)
    for s, positions in sorted(to_recurse.items()):
        _ovo_round(train, s, orders, idx[np.asarray(positions)], out, k_max)


def classify_ovo_plus_batch(
    train: LabeledDataset, queries, k_max: int = 45, *, ranking: Ranking | None = None
) -> np.ndarray:
    """Ordered one-vs-one predictions for many queries (from ``ranking`` if given)."""
    orders = _test_orders(train, queries, ranking)
    out = np.zeros(orders.shape[0], dtype=np.int64)
    _ovo_round(train, tuple(range(1, train.n_classes + 1)), orders, np.arange(out.size), out, k_max)
    return out


def _ovr_pairs(
    train: LabeledDataset, active: tuple[int, ...], orders: np.ndarray, k_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each active class against the pooled rest of the active set.

    Returns (wins, evidence), one row per query and one column per
    active class: whether the class's side won its pairing, and the
    evidence on that side (E2 when it is the minority, else E1).
    """
    counts = train.class_counts
    wins = np.zeros((orders.shape[0], len(active)), dtype=bool)
    evidence = np.zeros((orders.shape[0], len(active)), dtype=np.float64)
    for j, cls in enumerate(active):
        rest = tuple(c for c in active if c != cls)
        cand_is_minority = _candidate_is_minority(counts, cls, rest)
        groups = (rest, (cls,)) if cand_is_minority else ((cls,), rest)
        e1, e2 = _pair_evidence(train, orders, *groups, k_max)
        if cand_is_minority:
            wins[:, j] = e2 > e1
            evidence[:, j] = e2
        else:
            wins[:, j] = e1 >= e2
            evidence[:, j] = e1
    return wins, evidence


def _ovr_round(
    train: LabeledDataset, active: tuple[int, ...], orders: np.ndarray,
    idx: np.ndarray, out: np.ndarray, k_max: int,
) -> np.ndarray:
    """Settle queries ``idx`` into ``out``; returns this round's evidence."""
    wins, evidence = _ovr_pairs(train, active, orders[idx], k_max)

    to_recurse: dict[tuple[int, ...], list[int]] = {}
    for pos in range(idx.size):
        s = tuple(cls for j, cls in enumerate(active) if wins[pos, j])
        if len(s) == 1:
            out[idx[pos]] = s[0]
        elif len(s) == 0 or len(s) == len(active):
            out[idx[pos]] = resolve_by_max_evidence(
                {cls: evidence[pos, j] for j, cls in enumerate(active)}
            )
        else:
            to_recurse.setdefault(s, []).append(pos)
    for s, positions in sorted(to_recurse.items()):
        _ovr_round(train, s, orders, idx[np.asarray(positions)], out, k_max)
    return evidence


def ovr_plus_evidence_batch(
    train: LabeledDataset, queries, k_max: int = 45, *, ranking: Ranking | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """One-vs-rest predictions and first-round evidence from one pass."""
    orders = _test_orders(train, queries, ranking)
    out = np.zeros(orders.shape[0], dtype=np.int64)
    active = tuple(range(1, train.n_classes + 1))
    return out, _ovr_round(train, active, orders, np.arange(out.size), out, k_max)


def classify_ovr_plus_batch(
    train: LabeledDataset, queries, k_max: int = 45, *, ranking: Ranking | None = None
) -> np.ndarray:
    """One-vs-rest predictions for many queries (from ``ranking`` if given)."""
    return ovr_plus_evidence_batch(train, queries, k_max, ranking=ranking)[0]


def ovr_evidence_batch(
    train: LabeledDataset, queries, k_max: int = 45, *, ranking: Ranking | None = None
) -> np.ndarray:
    """First one-vs-rest round evidence: one row per query, one column per class.

    Column j holds the evidence on class j+1's side of its pairing
    against all other classes, as the first round of
    :func:`classify_ovr_plus_batch` records it.
    """
    orders = _test_orders(train, queries, ranking)
    return _ovr_pairs(train, tuple(range(1, train.n_classes + 1)), orders, k_max)[1]
