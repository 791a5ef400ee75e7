"""Independent reference computations for the correctness checks.

Nothing here imports nbknn.  Neighbors are ordered by an explicit
(distance, training index) sort with squared distances accumulated one
dimension at a time; mid-p values come from ``scipy.stats.nbinom``; the
OvO+/OvR+ reductions and the k-NN vote are re-derived from their
documented rules.  Each classifier oracle returns ``(pred, ambiguous)``:
a query is ambiguous when some decision it passed through was within
``TOL`` of a tie, where float rounding may legitimately go either way.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
from scipy.stats import nbinom

TOL = 1e-9
EVIDENCE_TOL = 1e-9  # |program E - oracle E| allowed for emitted evidence
REPORT_REL_TOL = 1e-9
KNN_GRID = tuple(range(1, 32, 2))
CV_FOLDS = 5


def neighbor_orders(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Training indices sorted by (distance, index), one row per query."""
    n, p = points.shape
    m = queries.shape[0]
    index = np.arange(n)
    out = np.empty((m, n), dtype=np.int64)
    step = max(1, 2_000_000 // n)
    for lo in range(0, m, step):
        q = queries[lo:lo + step]
        d2 = np.zeros((q.shape[0], n))
        for j in range(p):
            diff = q[:, j, None] - points[None, :, j]
            d2 += diff * diff
        dist = np.sqrt(d2)
        out[lo:lo + step] = np.lexsort((np.broadcast_to(index, dist.shape), dist), axis=-1)
    return out


def evidence(points, is_minority, k_max: int, queries):
    """(E1, E2) per query: strongest majority and minority mid-p evidence."""
    is_minority = np.asarray(is_minority, dtype=bool)
    n_min = int(is_minority.sum())
    p0 = n_min / is_minority.size
    k_eff = min(k_max, n_min)
    hits = is_minority[neighbor_orders(points, queries)]
    # 1-based position of the k-th minority neighbor, k = 1..k_eff.
    n_obs = np.argsort(~hits, axis=1, kind="stable")[:, :k_eff] + 1
    ks = np.arange(1, k_eff + 1)
    failures = n_obs - ks
    midp = nbinom.cdf(failures - 1, ks, p0) + 0.5 * nbinom.pmf(failures, ks, p0)
    e1 = np.maximum(0.5, midp.max(axis=1))
    e2 = 1.0 - np.minimum(0.5, midp.min(axis=1))
    return e1, e2


def binary(points, labels, k_max: int, queries):
    """Binary evidence classifier on labels {1, 2}; minority by count, tie -> 2."""
    n1, n2 = int(np.sum(labels == 1)), int(np.sum(labels == 2))
    minority = 2 if n2 <= n1 else 1
    e1, e2 = evidence(points, labels == minority, k_max, queries)
    pred = np.where(e2 > e1, minority, 3 - minority)
    return pred, np.abs(e1 - e2) <= TOL


def ovo_plus(points, labels, k_max: int, queries):
    """Ordered one-vs-one: every larger class plays the smallest, winners replay."""
    counts = {int(c): int(np.sum(labels == c)) for c in np.unique(labels)}
    pred = np.zeros(queries.shape[0], dtype=np.int64)
    amb = np.zeros(queries.shape[0], dtype=bool)

    def play(active, idx):
        if len(active) == 1:
            pred[idx] = active[0]
            return
        order = sorted(active, key=lambda c: (-counts[c], c))
        smallest, others = order[-1], order[:-1]
        wins = []
        for cls in others:
            rows = (labels == cls) | (labels == smallest)
            e1, e2 = evidence(points[rows], labels[rows] == smallest, k_max, queries[idx])
            wins.append(e1 >= e2)
            amb[idx] |= np.abs(e1 - e2) <= TOL
        groups: dict[tuple, list[int]] = {}
        for pos, q in enumerate(idx):
            winners = tuple(c for c, w in zip(others, wins) if w[pos])
            if not winners:
                pred[q] = smallest
            elif len(winners) == 1:
                pred[q] = winners[0]
            else:
                groups.setdefault(winners, []).append(q)
        for winners, members in groups.items():
            play(winners, np.asarray(members))

    play(tuple(sorted(counts)), np.arange(queries.shape[0]))
    return pred, amb


def ovr_plus(points, labels, k_max: int, queries):
    """One-vs-rest with a maximum-evidence fallback; winners replay."""
    counts = {int(c): int(np.sum(labels == c)) for c in np.unique(labels)}
    pred = np.zeros(queries.shape[0], dtype=np.int64)
    amb = np.zeros(queries.shape[0], dtype=bool)

    def play(active, idx):
        if len(active) == 1:
            pred[idx] = active[0]
            return
        rows = np.isin(labels, active)
        wins, support = [], []
        for cls in active:
            rest = [c for c in active if c != cls]
            n_cls, n_rest = counts[cls], sum(counts[c] for c in rest)
            cls_is_minority = n_cls < n_rest if n_cls != n_rest else cls > min(rest)
            in_cls = labels[rows] == cls
            e1, e2 = evidence(
                points[rows], in_cls if cls_is_minority else ~in_cls, k_max, queries[idx]
            )
            wins.append(e2 > e1 if cls_is_minority else e1 >= e2)
            support.append(e2 if cls_is_minority else e1)
            amb[idx] |= np.abs(e1 - e2) <= TOL
        groups: dict[tuple, list[int]] = {}
        for pos, q in enumerate(idx):
            winners = tuple(c for c, w in zip(active, wins) if w[pos])
            if len(winners) == 1:
                pred[q] = winners[0]
            elif len(winners) in (0, len(active)):
                values = [s[pos] for s in support]
                best = max(values)
                pred[q] = active[values.index(best)]
                ranked = sorted(values, reverse=True)
                amb[q] |= ranked[0] - ranked[1] <= TOL
            else:
                groups.setdefault(winners, []).append(q)
        for winners, members in groups.items():
            play(winners, np.asarray(members))

    play(tuple(sorted(counts)), np.arange(queries.shape[0]))
    return pred, amb


def knn_votes(points, labels, n_classes: int, queries, weighted: bool,
              ks=None, float_mass: bool = False):
    """{k: (pred, ambiguous)} for each k of ``ks`` (default: every grid k that fits).

    Weighted votes give a class-c neighbor mass 1/n_c; scores are compared
    exactly by cross-multiplying the integer counts.  Ties go to the
    smallest class id and are flagged ambiguous.  With ``float_mass`` the
    masses are instead summed in neighbor order in floating point, the
    order the program documents, so that ties break as they do there and
    none is flagged.
    """
    if ks is None:
        ks = [k for k in KNN_GRID if k <= points.shape[0]]
    near = labels[neighbor_orders(points, queries)[:, : max(ks)]]
    onehot = near[:, :, None] == np.arange(1, n_classes + 1)[None, None, :]
    sizes = [int(np.sum(labels == c)) for c in range(1, n_classes + 1)]
    if float_mass:
        mass = np.array([1.0 / n if weighted and n else 1.0 for n in sizes])
        running = np.cumsum(onehot * mass[None, None, :], axis=1)
        return {k: (np.argmax(running[:, k - 1, :], axis=1) + 1, np.zeros(len(near), dtype=bool))
                for k in ks}
    running = np.cumsum(onehot, axis=1, dtype=np.int64)
    if weighted:
        # count_c / n_c times the product of all sizes stays an exact integer.
        scale = np.array(
            [math.prod(sizes[:c] + sizes[c + 1:]) if sizes[c] else 0 for c in range(n_classes)],
            dtype=np.int64,
        )
    else:
        scale = np.ones(n_classes, dtype=np.int64)
    out = {}
    for k in ks:
        score = running[:, k - 1, :] * scale[None, :]
        best = score.max(axis=1)
        out[k] = (np.argmax(score, axis=1) + 1, np.sum(score == best[:, None], axis=1) > 1)
    return out


def folds_are_stratified(labels, folds) -> bool:
    """Each class dealt round-robin over CV_FOLDS folds: sizes differ by at most one."""
    if folds.shape != labels.shape or folds.min() < 0 or folds.max() >= CV_FOLDS:
        return False
    for c in np.unique(labels):
        n = int(np.sum(labels == c))
        sizes = np.bincount(folds[labels == c], minlength=CV_FOLDS)
        if not np.array_equal(sizes, [n // CV_FOLDS + (f < n % CV_FOLDS) for f in range(CV_FOLDS)]):
            return False
    return True


def cv_choice_ok(points, labels, n_classes: int, folds, weighted: bool, k: int) -> bool:
    """Whether ``k`` is the cross-validated choice on the given fold ids.

    The choice is the grid k with the best mean macro F1 over the folds,
    ties to the smaller k.  Every k within TOL of the best is accepted,
    unless a smaller k predicts the same on every fold and so scores the
    same.
    """
    fit_size = min(int(np.sum(folds != f)) for f in range(CV_FOLDS))
    ks = [j for j in KNN_GRID if j <= fit_size]
    if k not in ks:
        return False
    per_fold, f1 = [], {j: [] for j in ks}
    for f in range(CV_FOLDS):
        fit, val = folds != f, folds == f
        votes = knn_votes(points[fit], labels[fit], n_classes, points[val], weighted,
                          ks=ks, float_mass=True)
        per_fold.append(votes)
        for j in ks:
            f1[j].append(macro_prf(labels[val], votes[j][0], n_classes)[2])
    means = {j: math.fsum(v) / CV_FOLDS for j, v in f1.items()}
    if means[k] < max(means.values()) - TOL:
        return False
    return not any(all(np.array_equal(v[j][0], v[k][0]) for v in per_fold) for j in ks if j < k)


def location_bayes(queries):
    """Bayes rule for N(0, I) vs N((1, 1), I) at equal priors; ties to class 1."""
    s = queries[:, 0] + queries[:, 1]
    return np.where(s > 1.0, 2, 1), np.abs(s - 1.0) <= 1e-12


def macro_prf(actual, pred, n_classes: int) -> tuple[float, float, float]:
    """Macro precision, recall and F1; an empty class scores 0."""
    ps, rs, fs = [], [], []
    for c in range(1, n_classes + 1):
        tp = int(np.sum((actual == c) & (pred == c)))
        n_pred, n_act = int(np.sum(pred == c)), int(np.sum(actual == c))
        ps.append(tp / n_pred if n_pred else 0.0)
        rs.append(tp / n_act if n_act else 0.0)
        fs.append(2 * tp / (n_pred + n_act) if n_pred + n_act else 0.0)
    return tuple(math.fsum(v) / n_classes for v in (ps, rs, fs))


def mean_se(values) -> tuple[float, float]:
    """Mean and standard error (sample SD over sqrt(n); 0 for one value)."""
    mean = math.fsum(values) / len(values)
    if len(values) == 1:
        return mean, 0.0
    return mean, statistics.stdev(values) / math.sqrt(len(values))


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REPORT_REL_TOL, abs_tol=1e-12)
