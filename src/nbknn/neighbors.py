"""Exact neighbor orderings, computed once per trial, only as deep as read.

Each query's training rows are ordered by distance, ties broken by
ascending training index: a total order, so repeated runs are
bit-identical, and a restrictable one: the order restricted to a subset
of the rows is that subset's own order.  No reader walks a whole row
(the evidence sweep stops at its k-th minority neighbor, a vote at its
k-th neighbor), so a row is ordered only up to a threshold tau.  Its
prefix {d <= tau}, ties at tau included, is bit for bit the head of the
full order, and a subset's rows in it, in order, are the head of the
subset's order: a reader counts them along the prefix, with no copy.
A ranking holds its queries' prefixes of training indices end to end in
one flat array, and their lengths; a reader that needs more raises.

Ranking does only the work its readers use.  tau_i takes the groups in
turn, and a group's k-th point is looked for only in the rows with fewer
than k of its points at or below tau_i: counted in the group's own
columns, or, for a group of most columns, as c_i = #{d <= tau_i} less
the rest's count.  Only a row whose tau_i rose is counted again.  One
pass of packed (distance, index) keys ranks every row to its own c_i: a
few rows at a time are sorted to their widest c_i and each row's head is
written at its offset.  Exact ties are decided by the index bits, and a
row whose keys cannot decide it (two distances that share the keys' high
bits) takes its head from a stable sort of its entries at or below its
w-th distance, not of the whole row.  A cross-validation fold reads its
fit rows, as training indices, along each training row's head of its
order, from the same keys; a short head ranks afresh.

A distance adds its p squared differences in numpy's pairwise order,
the order of ``np.sum(diff * diff, axis=-1)`` on C-contiguous input
(Higham 1993, SIAM J. Sci. Comput. 14:783): a left fold below 8 terms,
eight strided accumulators up to 128 terms, two halves beyond.  The
kernel runs one dimension at a time over transposed copies, so a cell's
bits depend neither on the memory layout of the inputs nor on the other
rows of a batch.  It sets numpy's ufunc buffer below one row for its own
elementwise steps, which keeps numpy from copying the broadcast query
through the buffer, and restores the caller's size.

A query block of p >= ``_BOUND_DIM`` features computes exactly, and
ranks, only the cells its prefixes can reach.  One matrix product of the
rows [-2q, 1, |q|^2] and the training columns [x; |x|^2; 1] gives each
cell's b, an approximation of D = |q - x|^2, summed in whatever order
the BLAS takes.  With u = 2^-53, eta = 2^-1074 and S = |q|^2 + max |x|^2
(the computed norms), to first order:

* the product errs by at most (p + 2)u times the sum of its terms'
  magnitudes, at most 2S, and the norms by pu S in all: |b - D| <= E =
  (3p + 4)u S + (3p + 2)eta, in any summation order;
* the exact kernel's sum s lies within (p + 2)u D + p eta of D, and its
  distance d = sqrt(s) within a relative u of the root;
* V, the largest over the groups of the group's k-th smallest b: a
  group has k cells with D <= V + E, so its k-th distance, and tau, have
  tau^2 <= (V + E)(1 + (p + 4)u) + p eta;
* a cell with d <= tau has D <= tau^2 (1 + (p + 4)u) + 2p eta, so, as
  V <= 2S + E, b <= V + (10p + 24)u S + (8p + 4)eta.

Each row's reach is V + 2M, with the margin M = K(u S + eta) and
K = 32p + 128: more than six times that, which also covers the rounding
of M and of the reach.  Every cell with b at or below the reach, a
candidate, takes the exact kernel, in ``_pairwise_sum`` order over 1-D
takes of the operands, so it has the bits of :func:`distance_rows`; every
other cell has d > tau.  The candidates are the whole ranking:

* every cell of a group at or below its k-th distance t_g is at or below
  tau, so a candidate: the group's k-th candidate distance is t_g, and
  tau, the largest t_g, has the bits of the full row's;
* every cell at or below tau is a candidate, so the candidates at or
  below tau, in (distance, index) order, are the prefix, c_i of them.

V is found with the training columns grouped by class, so each group's
k-th bound is a partition of one contiguous slice, and the candidates
are ranked by one sort of packed keys per row slice, every candidate
sorted (:meth:`Ranking._rank_slice`).  A block whose 4S overflows could
overflow the product, and is ranked from :func:`distance_rows`' matrix.
Below 8 features the product and the masks cost more than the cells they
skip (BENCH_33.json).
"""

from __future__ import annotations

from copy import copy
from functools import cached_property, reduce
from operator import iadd

import numpy as np

from .dataset import LabeledDataset

_CHUNK_ELEMS = 1 << 20  # distance cells ranked at once
_BLOCK_CELLS = 1 << 15  # distance cells summed, or keyed and sorted, at once: the temporaries stay in cache
_HEAD_CELLS = 1 << 17  # training distances ranked at once; keyed in _BLOCK_CELLS copies, so freed pages are reused
_UFUNC_BUFFER = 16  # numpy's ufunc buffer in distance_rows, elements: below a row (BENCH_19.json)
_BOUND_DIM = 8  # features from which Ranking.test bounds a block's distances before computing them
_U, _ETA = 2.0**-53, 2.0**-1074  # float64's unit roundoff and smallest subnormal


def chunk_rows(n: int) -> int:
    """Queries ranked at once against ``n`` training rows."""
    return max(1, _CHUNK_ELEMS // n)


def _as_queries(queries, dim: int) -> np.ndarray:
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim == 1:
        q = q[None, :]
    if q.ndim != 2 or q.shape[1] != dim:
        raise ValueError(f"query dimension {q.shape} does not match training dimension {dim}")
    if not np.all(np.isfinite(q)):
        raise ValueError("query values must be finite")
    return q


def _fold(terms, acc=None):
    """Left fold of fresh arrays onto ``acc``, in place; numpy starts from
    0.0, and 0.0 + t is t for every t >= +0."""
    return reduce(iadd, terms, next(terms, 0.0) if acc is None else acc)


def _pairwise_sum(term, js: range):
    """numpy's ``pairwise_sum`` of the fresh arrays ``term(j)``, j in ``js``."""
    n = len(js)
    if n < 8:
        return _fold(map(term, js))
    if n <= 128:
        full = n - n % 8

        def r(k: int) -> np.ndarray:  # accumulator k sums terms k, k+8, ...
            return _fold(map(term, js[k:full:8]))

        # Arguments run left to right, so at most four partial sums are alive.
        acc = iadd(iadd(iadd(r(0), r(1)), iadd(r(2), r(3))), iadd(iadd(r(4), r(5)), iadd(r(6), r(7))))
        return _fold(map(term, js[full:]), acc)
    half = n // 2 - n // 2 % 8
    return iadd(_pairwise_sum(term, js[:half]), _pairwise_sum(term, js[half:]))


def distance_rows(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix (queries x points), summed in numpy's
    pairwise order one dimension at a time, over blocks of query rows of
    about ``_BLOCK_CELLS`` cells.  Neither the block nor the layout of the
    inputs changes a bit.

    The blocks run with numpy's ufunc buffer at ``_UFUNC_BUFFER`` elements,
    the caller's size restored on return or raise: with three rows of a
    ``(r, 1) - (n,)`` difference in the buffer, numpy copies the stride-0
    query operand through it, at 3-5 times the cost of a cell.  Only
    elementwise operations run in that scope, so no bit changes."""
    m, (n, p) = queries.shape[0], points.shape
    xT, qT = np.ascontiguousarray(points.T), np.ascontiguousarray(queries.T)
    out = np.empty((m, n), dtype=np.float64)
    step = max(1, _BLOCK_CELLS // max(1, n))
    bufsize = np.setbufsize(_UFUNC_BUFFER)
    try:
        for lo in range(0, m, step):
            rows = qT[:, lo : lo + step, None]

            def term(j: int) -> np.ndarray:
                d = rows[j] - xT[j]
                d *= d
                return d

            np.sqrt(_pairwise_sum(term, range(p)), out=out[lo : lo + step])
    finally:
        np.setbufsize(bufsize)
    return out


def _exact_head(row: np.ndarray, w: int) -> np.ndarray:
    """The first ``w`` entries of one row's (distance, index) order: the
    entries at or below its w-th smallest distance, ties included, in
    index order, stably sorted by distance.  ``np.partition`` copies, so
    the caller's row is not written."""
    near = np.flatnonzero(row <= np.partition(row, w - 1)[w - 1])
    return near[np.argsort(row[near], kind="stable")[:w]]


def _nearest(dist: np.ndarray, depth) -> np.ndarray:
    """The first d_i entries of each row's (distance, index) order, the
    rows' heads laid end to end; ``depth`` gives d_i, one for all rows or
    one per row.

    A key drops the distance's sign bit and s - 1 low bits, s =
    max(1, bit_length(n - 1)), to hold the column index in the s low bits:
    keys of equal distances stand in index order.  Rows are keyed in
    copies of at most ``_BLOCK_CELLS`` cells, and each copy is sorted to
    its widest depth w, partitioned first at w + 1 if that is at most half
    the row.  Keys that share their high bits but not their distance may
    stand out of order, so a row takes its head from :func:`_exact_head`
    if two such keys meet among its first w + 1, or if the key group at
    its w-th entry runs past them and holds another distance anywhere in
    the row.  A row that passes has exact first w entries, so exact first
    d_i: the copy's checks hold for each of its shorter rows.  Each copy is
    written out through a mask of each row's first d_i keys."""
    n = dist.shape[1]
    depth = np.full(len(dist), depth)
    bounds = np.concatenate(([0], np.cumsum(depth)))
    s = max(1, (n - 1).bit_length())
    drop, low, index = np.uint64(s - 1), np.uint64((1 << s) - 1), np.arange(n, dtype=np.uint64)
    out = np.empty(bounds[-1], dtype=np.min_scalar_type(n))
    step = max(1, _BLOCK_CELLS // n)
    for lo in range(0, len(dist), step):
        block, d = dist[lo : lo + step], depth[lo : lo + step]
        w = int(d.max())
        read = min(n, w + 1)
        keys = block.view(np.uint64) >> drop
        keys <<= np.uint64(s)
        keys |= index
        if 2 * read <= n:
            keys.partition(read - 1, axis=1)
            keys = keys[:, :read]
        keys.sort(axis=1)
        keys = keys[:, :read]
        row, j = np.divmod(np.flatnonzero(keys[:, 1:] ^ keys[:, :-1] <= low), read - 1)  # equal high bits
        if row.size:
            col = (keys[row, j] & low).astype(np.intp)
            bad = row[block[row, col] != block[row, (keys[row, j + 1] & low).astype(np.intp)]]
            if read > w:  # the group at the boundary may hold keys past the sorted ones
                at = j == w - 1
                split, edge = row[at], block[row[at], col[at], None]
                group = block[split].view(np.uint64) >> drop == edge.view(np.uint64) >> drop
                bad = np.append(bad, split[np.any(group & (block[split] != edge), axis=1)])
            for r in np.unique(bad):
                keys[r, :w] = _exact_head(block[r], w)  # indices: below 2^s, kept by the mask
        np.copyto(out[bounds[lo] : bounds[lo + len(d)]], keys[np.arange(read) < d[:, None]], casting="unsafe")
    out &= out.dtype.type(low)  # the index bits of the truncated keys
    return out


class Ranking:
    """A trial's neighbor orderings of the ``train`` rows, made on first use.

    ``test`` holds the query prefixes of training indices and their
    lengths, ranked a chunk of queries at a time, each row to its own
    length, so no queries x n matrix is held: by :func:`_nearest` over
    the chunk's distances, or from its candidate cells at p >=
    ``_BOUND_DIM`` features (module docstring);
    :meth:`head` and :meth:`places` read the labels of the indices.
    tau_i is the farthest, over classes c, of the min(k_max, n_c)-th
    nearest point of c, or the ``vote_k``-th nearest point if farther.  A
    group G of classes has min(k_max, n_G) points or more within tau_i, so
    the prefix covers every OvO+/OvR+ evidence sweep and the vote.
    :meth:`fold` reads the training rows' heads of their index order.

    Other modules read only ``train``, ``len``, :meth:`head`, :meth:`places`
    and :meth:`take`, never ``test``: the prefix layout is this module's own.
    """

    def __init__(self, train: LabeledDataset, queries, k_max: int = 0, vote_k: int = 0) -> None:
        self.train, self.points, self.labels = train, train.points, train.labels
        self.queries = _as_queries(queries, self.points.shape[1])
        self.k_max, self.vote_k = k_max, vote_k
        self._heads: dict[int, np.ndarray] = {}

    @cached_property
    def _groups(self) -> list[tuple[np.ndarray, np.ndarray, int]]:
        """(member columns, rest columns, depth) of each group of nonzero depth:
        the classes from smallest to largest, then the vote group of all rows."""
        counts = self.train.class_counts
        groups = [(self.labels == c + 1, min(self.k_max, int(counts[c])))
                  for c in np.argsort(counts, kind="stable")]
        groups.append((np.ones(self.labels.size, dtype=bool), min(self.vote_k, self.labels.size)))
        return [(np.flatnonzero(cols), np.flatnonzero(~cols), k) for cols, k in groups if k]

    def _threshold(self, dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """tau_i, the largest over the groups of the row's k-th nearest
        group point, and c_i = #{d <= tau_i}, in one loop over the groups.

        A group can raise tau_i only in the rows with fewer than k of its
        points at or below it: while every c_i is 0, every row, read in
        place; after that, the rows short in the group's own columns, or,
        for a group of more columns than the rest, in c_i less the rest's
        count.  Only those rows are copied, partitioned and recounted."""
        tau, counts = np.full(len(dist), -np.inf), np.zeros(len(dist), dtype=np.intp)
        for cols, rest, k in self._groups:
            if not counts.any():  # nothing counted yet
                rows = slice(None)
            elif len(cols) > len(rest):
                rows = np.flatnonzero(counts - np.count_nonzero(dist.take(rest, axis=1) <= tau[:, None], axis=1) < k)
            else:
                rows = np.flatnonzero(np.count_nonzero(dist.take(cols, axis=1) <= tau[:, None], axis=1) < k)
            short = dist[rows]
            if len(short):
                kth = short.take(cols, axis=1)
                kth.partition(k - 1, axis=1)
                tau[rows] = kth[:, k - 1]
                counts[rows] = np.count_nonzero(short <= tau[rows, None], axis=1)
        return tau, counts

    @cached_property
    def _slices(self) -> list[tuple[int, int, int, int]]:
        """(label, first column, end column, depth) of each group of
        :attr:`_groups`, in its order, over the class-ordered columns of
        ``gram_columns``; label 0 is the vote group, every column."""
        counts = self.train.class_counts
        ends = np.cumsum(counts)
        groups = [(int(c) + 1, int(ends[c] - counts[c]), int(ends[c]), min(self.k_max, int(counts[c])))
                  for c in np.argsort(counts, kind="stable")]
        groups.append((0, 0, self.labels.size, min(self.vote_k, self.labels.size)))
        return [group for group in groups if group[3]]

    def _bound_tau(self, bound: np.ndarray) -> np.ndarray:
        """V, the largest over the groups of the row's k-th smallest bound in
        the group's own slice of columns.  After the first group, a group is
        partitioned only in the rows with fewer than k of its cells at or
        below V, counted in its slice."""
        tau = np.full(len(bound), -np.inf)
        for i, (_, lo, hi, k) in enumerate(self._slices):
            own = bound[:, lo:hi]
            rows = np.flatnonzero(np.count_nonzero(own <= tau[:, None], axis=1) < k) if i else slice(None)
            tau[rows] = np.partition(own[rows], k - 1, axis=1)[:, k - 1]
        return tau

    def _bounded_prefix(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A query block's prefixes and their lengths from its candidate
        cells alone (module docstring): the bound gives each row's reach,
        and :meth:`_rank_slice` ranks the block in row slices of about
        ``8 * _BLOCK_CELLS`` bound cells.  A block whose 4S overflows is
        ranked from its full distance matrix."""
        cols = self.train.gram_columns[0]
        (n, p), norms = self.points.shape, np.einsum("ij,ij->i", queries, queries)
        scale = norms + cols[p].max()
        if not np.isfinite(4 * scale.max(initial=0.0)):
            return self._exact_prefix(queries)
        bound = np.column_stack([-2.0 * queries, np.ones(len(queries)), norms]) @ cols
        reach = self._bound_tau(bound) + 2 * (32 * p + 128) * (_U * scale + _ETA)
        step = max(1, 8 * _BLOCK_CELLS // n)
        return tuple(map(np.concatenate, zip(*(
            self._rank_slice(bound[lo : lo + step], queries[lo : lo + step], reach[lo : lo + step])
            for lo in range(0, max(1, len(bound)), step)))))

    def _rank_slice(self, rows: np.ndarray, queries: np.ndarray, reach: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The prefixes of a slice of queries and their lengths from the
        candidates, the cells whose bound in ``rows`` is within ``reach``.

        They take the exact kernel and one sort of keys row | the distance's
        high bits | training index: with t bits for the row and s for the
        index, 64 - t - s of the distance's 63 bits below the sign.  A row
        whose keys share their high bits across two distances is ordered
        exactly by :func:`_exact_head` of all its candidates, which stand in
        index order among equal distances.  ``rows`` is overwritten: it holds
        each candidate's distance at its training index, read back in key
        order.  Each candidate array is dropped as it is replaced: with 6.4%
        of the cells candidates (BENCH_33.json), about half as many elements
        as the mask."""
        cols, order = self.train.gram_columns
        (m, n), p = rows.shape, queries.shape[1]
        r, c = np.divmod(np.flatnonzero(rows <= reach[:, None]), n)

        def term(j: int) -> np.ndarray:
            d = queries[:, j].take(r)
            d -= cols[j].take(c)
            d *= d
            return d

        dist = np.sqrt(_pairwise_sum(term, range(p)))
        c = order.take(c)  # from here on, each candidate's training index
        s, t = max(1, (n - 1).bit_length()), max(1, (m - 1).bit_length())
        low = np.uint64((1 << s) - 1)
        keys = r.astype(np.uint64) << np.uint64(64 - t)
        keys |= dist.view(np.uint64) >> np.uint64(t + s - 1) << np.uint64(s)
        keys |= c.astype(np.uint64)
        keys.sort()
        scratch = rows.reshape(-1)
        scratch[r * n + c] = dist
        r, c = (keys >> np.uint64(64 - t)).astype(np.intp), (keys & low).astype(np.intp)
        dist = scratch.take(r * n + c)
        starts = np.searchsorted(r, np.arange(m + 1))
        for i in np.unique(r[1:][(keys[1:] ^ keys[:-1] <= low) & (dist[1:] != dist[:-1])]):
            seg = slice(starts[i], starts[i + 1])
            at = _exact_head(dist[seg], starts[i + 1] - starts[i])
            c[seg], dist[seg] = c[seg][at], dist[seg][at]
        labels, tau = self.labels.take(c), np.full(m, -np.inf)
        for label, _, _, k in self._slices:
            at = np.flatnonzero(labels == label) if label else np.arange(len(c))
            np.maximum(tau, dist[at[np.searchsorted(at, starts[:-1]) + k - 1]], out=tau)
        keep = dist <= tau.take(r)
        return c[keep].astype(np.min_scalar_type(n)), np.bincount(r[keep], minlength=m)

    def _exact_prefix(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A query block's prefixes and their lengths from its full distance matrix."""
        dist = distance_rows(self.points, queries)
        counts = self._threshold(dist)[1]
        return _nearest(dist, counts), counts

    @cached_property
    def test(self) -> tuple[np.ndarray, np.ndarray]:
        step = chunk_rows(self.points.shape[0])
        rank = self._bounded_prefix if self.points.shape[1] >= _BOUND_DIM else self._exact_prefix
        blocks = [rank(self.queries[lo : lo + step]) for lo in range(0, max(1, len(self.queries)), step)]
        return tuple(map(np.concatenate, zip(*blocks)))

    def __len__(self) -> int:
        return len(self.queries)

    def head(self, depth: int) -> np.ndarray:
        """Each query's first ``depth`` neighbor labels, one row each; raises
        if a prefix is shorter."""
        flat, counts = self.test
        if np.any(counts < depth):
            raise ValueError(f"a neighbor prefix is shorter than the {depth} rows read from it")
        return self.labels.take(flat[(np.cumsum(counts) - counts)[:, None] + np.arange(depth)])

    def places(self, code: np.ndarray, k: int) -> np.ndarray:
        """n_obs: the places of each query's first ``k`` minority rows in the
        pair's own order, the pair entries counted up to each along the prefix
        (the restriction lemma).  ``code[c]`` marks class c 0 outside the
        pair, 1 in its majority, 2 in its minority.  Raises if a prefix
        holds fewer than ``k`` minority rows."""
        flat, counts = self.test
        codes = code.take(self.labels).take(flat)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        if not code[1:].all():  # read the pair's entries only, in order
            pair = np.flatnonzero(codes != 0)  # nonzero is fastest on a bool mask
            codes, bounds = codes.take(pair), np.searchsorted(pair, bounds)
        at = np.flatnonzero(codes == 2)
        first = np.searchsorted(at, bounds)
        if np.any(np.diff(first) < k):
            raise ValueError(f"a neighbor prefix holds fewer than the {k} minority rows swept")
        return at[first[:-1, None] + np.arange(k)] - bounds[:-1, None] + 1

    def take(self, rows) -> "Ranking":
        """The ranking of the queries ``rows`` (a mask or indices), in that
        order, from these prefixes, stored where ``test`` caches its value:
        a kept entry moves back by the lengths of the prefixes dropped before it."""
        flat, counts = self.test
        kept = counts[rows]
        shift = np.cumsum(counts)[rows] - np.cumsum(kept)
        out = copy(self)
        out.queries = self.queries[rows]
        vars(out)["test"] = flat[np.repeat(shift, kept) + np.arange(kept.sum())], kept
        return out

    def _train_head(self, depth: int) -> np.ndarray:
        """Each training row's first min(n, 2 depth + 2) entries of its order
        over all training rows, once per depth, in blocks of rows: with a
        fifth of the rows held out, nearly every head holds ``depth`` fit rows."""
        if depth not in self._heads:
            n = len(self.points)
            step, width = max(1, _HEAD_CELLS // n), min(n, 2 * depth + 2)
            self._heads[depth] = np.concatenate([
                _nearest(distance_rows(self.points, self.points[lo : lo + step]), width)
                for lo in range(0, n, step)]).reshape(n, width)
        return self._heads[depth]

    def fold(self, val: np.ndarray, fit: np.ndarray, depth: int) -> np.ndarray:
        """Each ``val`` row's ``depth`` nearest ``fit`` rows (a mask), in
        order, as training indices.

        A row's ``fit`` entries in its training head are the head of the
        ``fit`` rows' own order; a row whose head holds too few ranks afresh.
        """
        near = self._train_head(depth)[val]
        inside = fit[near]
        seen = np.cumsum(inside, axis=1)
        short = seen[:, -1] < depth
        inside &= (seen <= depth) & ~short[:, None]
        out = np.empty((len(val), depth), dtype=near.dtype)
        out[~short] = near[inside].reshape(-1, depth)
        if short.any():
            fresh = _nearest(distance_rows(self.points[fit], self.points[val[short]]), depth)
            out[short] = np.flatnonzero(fit)[fresh].reshape(-1, depth)
        return out
