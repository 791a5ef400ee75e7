"""Shared fixtures and oracle helpers."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import betainc

from nbknn import LabeledDataset
from nbknn.binary import _is_minority, _sweep
from nbknn.negbin import _log_pmf_grid, _log_pmf_many, _tail_terms, adjusted_pvalue_many
from nbknn.neighbors import _argsort_rows, distance_rows


def nb_pmf_exact(k: int, p0: float, n: int) -> Fraction:
    """Exact rational pmf C(n-1, k-1) p^k q^(n-k) at the float value of p0."""
    from math import comb

    p = Fraction(p0)
    q = 1 - p
    return comb(n - 1, k - 1) * p**k * q ** (n - k)


def nb_lower_tail_exact(k: int, p0: float, n: int) -> Fraction:
    """Exact rational P(N < n) by direct summation."""
    total = Fraction(0)
    for m in range(k, n):
        total += nb_pmf_exact(k, p0, m)
    return total


def nb_midp_exact(k: int, p0: float, n: int) -> Fraction:
    """Exact rational mid-p value."""
    return nb_lower_tail_exact(k, p0, n) + Fraction(1, 2) * nb_pmf_exact(k, p0, n)


def lower_tail_padded_reference(k: np.ndarray, n: np.ndarray, p0: float) -> np.ndarray:
    """P(N < n) by the per-cell kernel the short-span table replaced.

    Each short cell (n - k <= 64) sums its own 64 log-pmf terms, padded
    with -inf past n - k, in one ``logaddexp.reduce``; long cells take
    the incomplete beta.  The table must reproduce these bits exactly.
    """
    log_p0, log_q0 = math.log(p0), math.log1p(-p0)
    span = n - k
    out = np.zeros(k.shape, dtype=np.float64)
    small = span <= 64
    if np.any(small):
        ks = k[small].astype(np.float64)
        offsets = np.arange(64, dtype=np.float64)
        terms = _log_pmf_grid(ks[:, None], ks[:, None] + offsets[None, :], log_p0, log_q0)
        terms = np.where(offsets[None, :] < span[small][:, None], terms, -np.inf)
        out[small] = np.exp(np.logaddexp.reduce(terms, axis=1))
    big = ~small
    if np.any(big):
        out[big] = betainc(k[big].astype(np.float64), span[big].astype(np.float64), p0)
    return np.minimum(out, 1.0)


def _lower_tail_many(k: np.ndarray, n: np.ndarray, p0: float) -> np.ndarray:
    """P(N < n) elementwise for int64 arrays of identical shape."""
    return _tail_terms(k, n, p0)[0]


def midp_padded_reference(k: np.ndarray, n: np.ndarray, p0: float) -> np.ndarray:
    """``adjusted_pvalue_many`` on int64 arrays, over the per-cell tail."""
    e = lower_tail_padded_reference(k, n, p0) + 0.5 * np.exp(_log_pmf_many(k, n, p0))
    return np.clip(e, 1e-300, 1.0)


def distance_rows_reference(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Distances by the kernel the per-dimension loop replaced: one numpy
    sum over C-contiguous differences, which adds each cell's squared
    terms in numpy's pairwise order.  The loop must reproduce these bits."""
    diff = np.ascontiguousarray(queries)[:, None, :] - np.ascontiguousarray(points)[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def argsort_reference(dist: np.ndarray) -> np.ndarray:
    """Each row's (distance, index) order by a stable sort, the kernel the
    tie-checked argsort replaced."""
    return np.argsort(dist, axis=1, kind="stable")


def order_rows(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Full per-query neighbor orderings; stable argsort breaks ties by index."""
    return np.argsort(distance_rows(points, queries), axis=1, kind="stable")


def threshold_reference(labels: np.ndarray, k_max: int, vote_k: int, dist: np.ndarray) -> np.ndarray:
    """tau_i by the kernel ``Ranking._threshold`` replaced: a partition of
    every class and of the vote group over every row."""
    classes, counts = np.unique(labels, return_counts=True)
    depths = [(labels == c, min(k_max, n_c)) for c, n_c in zip(classes, counts)]
    depths.append((slice(None), min(vote_k, labels.size)))
    kths = [np.partition(dist[:, cols], k - 1, axis=1)[:, k - 1] for cols, k in depths if k]
    return np.max([np.full(len(dist), -np.inf)] + kths, axis=0)


def padded(prefix, n: int) -> np.ndarray:
    """A ranking's flat prefixes ``(flat, counts)`` as one row per query,
    padded with the sentinel ``n`` to the widest: the layout the
    references below read and return."""
    flat, counts = prefix
    out = np.full((counts.size, int(counts.max(initial=0))), n, dtype=flat.dtype)
    out[np.arange(out.shape[1]) < counts[:, None]] = flat
    return out


def head(orders: np.ndarray, n: int, depth: int) -> np.ndarray:
    """``Ranking.head`` on padded prefixes (sentinel ``n``), as the fold
    reference reads them; raises if any prefix is shorter."""
    out = np.full((orders.shape[0], depth), n, dtype=orders.dtype)
    out[:, : orders.shape[1]] = orders[:, :depth]
    if np.any(out == n):
        raise ValueError(f"a neighbor prefix is shorter than the {depth} rows read from it")
    return out


def prefix_rows_reference(dist: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``prefix_rows`` by the kernel the per-bucket widths replaced: every
    row of the block ordered to the block's widest prefix."""
    n = dist.shape[1]
    counts = np.count_nonzero(dist <= tau[:, None], axis=1)
    width = int(counts.max(initial=0))
    if 0 < 2 * width <= n:
        kept = np.sort(np.argpartition(dist, width - 1, axis=1)[:, :width], axis=1)
        by_dist = _argsort_rows(np.take_along_axis(dist, kept, axis=1))
        orders = np.take_along_axis(kept, by_dist, axis=1)
    else:
        orders = _argsort_rows(dist)[:, :width]
    orders = orders.astype(np.min_scalar_type(n))
    orders[np.arange(width) >= counts[:, None]] = n
    return orders, counts


def ranking_reference(train: LabeledDataset, queries, k_max: int = 0, vote_k: int = 0):
    """The index prefixes of a ``Ranking(train, queries, k_max, vote_k)``
    by the references above, padded with the sentinel ``train.n``, and
    their lengths."""
    q = np.asarray(queries, dtype=np.float64).reshape(-1, train.dim)
    dist = distance_rows_reference(train.points, q)
    return prefix_rows_reference(dist, threshold_reference(train.labels, k_max, vote_k, dist))


def flat_prefix_reference(train: LabeledDataset, queries, k_max: int = 0, vote_k: int = 0):
    """``Ranking.test`` by the references: the index prefixes of
    :func:`ranking_reference` laid end to end, and their lengths."""
    orders, counts = ranking_reference(train, queries, k_max, vote_k)
    return orders[np.arange(orders.shape[1]) < counts[:, None]], counts


def fold_reference(train_dist: np.ndarray, val: np.ndarray, fit: np.ndarray, depth: int) -> np.ndarray:
    """``Ranking.fold`` by the kernel the one-selection fold replaced: a
    partition for tau, then ``prefix_rows_reference`` of the fold block."""
    block = train_dist[val][:, fit]
    tau = np.partition(block, depth - 1, axis=1)[:, depth - 1]
    return head(prefix_rows_reference(block, tau)[0], block.shape[1], depth)


def votes_for_grid_reference(ordered_labels, ks, n_classes, class_weight):
    """``baselines._votes_for_grid`` by the loop the running sum replaced:
    vote mass added column by column, the argmax taken at each grid k."""
    m = ordered_labels.shape[0]
    rows = np.arange(m)
    mass = np.zeros((m, n_classes), dtype=np.float64)
    preds = {}
    done = 0
    for k in sorted(ks):
        for col in range(done, k):
            lab = ordered_labels[:, col] - 1
            mass[rows, lab] += class_weight[lab]
        done = k
        preds[k] = np.argmax(mass, axis=1).astype(np.int64) + 1
    return preds


def restrict(orders: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Prefixes ``orders`` (sentinel ``keep.size``) restricted to the rows
    where ``keep`` holds, renumbered within them and padded with the
    sentinel ``count(keep)``: each row is the head of the subset's own
    order (a fresh full sort of that subset, bit for bit)."""
    if keep.all():
        return orders
    n_keep = int(np.count_nonzero(keep))
    renumber = np.append(np.where(keep, np.cumsum(keep) - 1, n_keep), n_keep)[orders]
    inside = renumber < n_keep
    width = int(np.count_nonzero(inside, axis=1).max(initial=0))
    front = np.argsort(~inside, axis=1, kind="stable")[:, :width]
    return np.take_along_axis(renumber, front, axis=1)


def pair_evidence_reference(labels, orders, a, b, k_max):
    """``binary._pair_evidence`` by the kernel the counting one replaced:
    the pair's minority marks read through :func:`restrict`, a stable
    re-sort of every prefix, and placed by their column in it."""
    in_a, in_b = np.isin(labels, a), np.isin(labels, b)
    n_a, n_b = int(np.count_nonzero(in_a)), int(np.count_nonzero(in_b))
    a_minor = _is_minority(n_a, n_b, a, b)
    in_min, n_min = (in_a, n_a) if a_minor else (in_b, n_b)
    in_pair = in_a | in_b
    is_minority = np.append(in_min[in_pair], False)[restrict(orders, in_pair)]
    k_eff = min(int(k_max), n_min)
    rows, cols = np.nonzero(is_minority)
    found = np.bincount(rows, minlength=is_minority.shape[0])
    if np.any(found < k_eff):
        raise ValueError(f"a neighbor prefix holds fewer than the {k_eff} minority rows swept")
    n_obs = cols[(np.cumsum(found) - found)[:, None] + np.arange(k_eff)].astype(np.int64) + 1
    e = adjusted_pvalue_many(np.arange(1, k_eff + 1, dtype=np.int64)[None, :], n_obs,
                             n_min / (n_a + n_b))
    e1 = np.maximum(0.5, e.max(axis=1))
    e2 = 1.0 - np.minimum(0.5, e.min(axis=1))
    majority_wins = e1 >= e2
    if a_minor:
        return ~majority_wins, e2, e1
    return majority_wins, e1, e2


def minority_share(train: LabeledDataset, minority_label: int) -> float:
    """p0: the share of the training rows in the minority class."""
    return int(train.class_counts[minority_label - 1]) / train.n


def evidence_arrays(clf, queries, p0: float | None = None):
    """The evidence sweep of ``clf`` over a fresh ordering of ``queries``,
    under ``p0`` (by default the minority share of ``clf.train``): E1, E2,
    the e-matrix and n_obs, the 1-based column of each query's k-th
    minority row in its full order, k = 1..k_max_eff."""
    q = np.asarray(queries, dtype=np.float64)
    is_minority = clf.train.labels[order_rows(clf.train.points, q)] == clf.minority_label
    if p0 is None:
        p0 = minority_share(clf.train, clf.minority_label)
    rows, cols = np.nonzero(is_minority)
    first = np.searchsorted(rows, np.arange(len(is_minority)))
    n_obs = cols[first[:, None] + np.arange(clf.k_max_eff)] + 1
    return (*_sweep(n_obs, p0), n_obs)


def brute_force_evidence(train: LabeledDataset, query, k_max: int):
    """Independent evidence oracle: explicit sort plus exact rational mid-p.

    Mirrors the documented decision procedure with none of the library's
    numeric machinery; used to pin the classifier's evidence pairs.
    """
    counts = train.class_counts
    majority = 1 if counts[0] >= counts[1] else 2
    minority = 3 - majority
    n_min = int(counts[minority - 1])
    p0 = n_min / train.n
    k_eff = min(k_max, n_min)

    dist = np.sqrt(((train.points - np.asarray(query)) ** 2).sum(axis=1))
    order = sorted(range(train.n), key=lambda i: (dist[i], i))
    positions = [i + 1 for i, idx in enumerate(order) if train.labels[idx] == minority]

    e_min = e_max = Fraction(1, 2)
    for k in range(1, k_eff + 1):
        e_k = nb_midp_exact(k, p0, positions[k - 1])
        e_min = min(e_min, e_k)
        e_max = max(e_max, e_k)
    return float(e_max), float(1 - e_min)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


@pytest.fixture()
def two_class_fixture():
    """Ten hand-placed 2-D points, 7 majority / 3 minority."""
    points = np.array(
        [
            [0.0, 0.0],
            [1.0, 0.0],
            [0.0, 1.0],
            [2.0, 1.0],
            [3.0, 0.5],
            [4.0, 4.0],
            [5.0, 3.0],
            [0.5, 4.0],
            [4.5, 0.5],
            [2.5, 3.0],
        ]
    )
    labels = np.array([1, 1, 1, 1, 1, 1, 1, 2, 2, 2])
    return LabeledDataset(points, labels)


def make_dataset(rng, n=40, dim=2, n_classes=2, weights=None) -> LabeledDataset:
    """Random dataset with every class present."""
    while True:
        labels = rng.choice(
            np.arange(1, n_classes + 1), size=n, p=weights
        ).astype(np.int64)
        if len(np.unique(labels)) == n_classes:
            break
    points = rng.normal(size=(n, dim))
    return LabeledDataset(points, labels, n_classes)
