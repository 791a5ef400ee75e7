"""Exact neighbor ordering, sorted once per trial and read as restricted views.

Each query's training rows are fully sorted by distance (the evidence
sweep consumes a prefix of unknown length, so fixed-k tree queries do
not apply), ties broken by ascending training index.  The tie-break
makes the ordering a total order, which keeps repeated runs
bit-identical, and makes it restrictable: a stable (distance, index)
order restricted to a subset of the rows is that subset's own order.
So a trial's :class:`Ranking` sorts at most twice, and every method,
reduction pair and cross-validation fold reads a :func:`restrict` view.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


def _as_queries(queries, dim: int) -> np.ndarray:
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim == 1:
        q = q[None, :]
    if q.ndim != 2 or q.shape[1] != dim:
        raise ValueError(f"query dimension {q.shape} does not match training dimension {dim}")
    if not np.all(np.isfinite(q)):
        raise ValueError("query values must be finite")
    return q


def distance_rows(points: np.ndarray, queries: np.ndarray, chunk_elems: int = 1 << 20) -> np.ndarray:
    """Euclidean distance matrix (queries x points), chunked for memory.

    Chunking never changes values: rows are independent and each row is
    computed with the same elementwise operations whatever the chunk.
    """
    m = queries.shape[0]
    n, p = points.shape
    out = np.empty((m, n), dtype=np.float64)
    step = max(1, chunk_elems // max(1, n * p))
    for lo in range(0, m, step):
        hi = min(m, lo + step)
        diff = queries[lo:hi, None, :] - points[None, :, :]
        out[lo:hi] = np.sqrt(np.sum(diff * diff, axis=2))
    return out


def order_rows(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Per-query neighbor orderings; stable argsort breaks ties by index."""
    return np.argsort(distance_rows(points, queries), axis=1, kind="stable")


def restrict(orders: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``orders`` restricted to the rows where ``keep`` holds, renumbered
    within them: bit for bit ``order_rows`` of that subset.  Each row
    holds every index once, so the result is rectangular."""
    kept = orders[keep[orders]].reshape(orders.shape[0], np.count_nonzero(keep))
    return (np.cumsum(keep) - 1)[kept]


class Ranking:
    """A trial's orderings of the training ``points``, each sorted on first
    use: ``test`` for each query row, ``train`` for each training row."""

    def __init__(self, points: np.ndarray, queries) -> None:
        self.points, self.queries = points, _as_queries(queries, points.shape[1])

    @cached_property
    def test(self) -> np.ndarray:
        return order_rows(self.points, self.queries)

    @cached_property
    def train(self) -> np.ndarray:
        return order_rows(self.points, self.points)

    @classmethod
    def of(cls, points: np.ndarray, queries=None, ranking: "Ranking | None" = None) -> "Ranking":
        """``ranking``, which must be built from ``points`` and, if ``queries``
        is given, from equal queries, or a new ranking of ``queries`` (by
        default the points themselves)."""
        if ranking is None:
            return cls(points, points if queries is None else queries)
        if ranking.points is not points:
            raise ValueError("the ranking was built for other training points")
        if queries is not None and queries is not ranking.queries:
            q = _as_queries(queries, points.shape[1])
            if q.shape != ranking.queries.shape or q.tobytes() != ranking.queries.tobytes():
                raise ValueError("the ranking was built for other queries")
        return ranking
