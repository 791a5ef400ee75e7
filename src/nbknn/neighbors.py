"""Exact neighbor ordering.

Ordering is a full sort per query (the evidence sweep consumes a
prefix of unknown length, so fixed-k tree queries do not apply) with
distance ties broken by ascending training index.  The tie-break makes
the ordering a total order, which is what keeps repeated runs
bit-identical.
"""

from __future__ import annotations

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


def distance_rows(points: np.ndarray, queries: np.ndarray, chunk_elems: int = 1 << 24) -> np.ndarray:
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
