"""The shared neighbor ranking: prefixes and restricted views equal fresh sorts.

A stable (distance, index) order restricted to a subset of the training
rows is that subset's own order, and its prefix up to a threshold,
ties included, is the head of the full order.  Points on a small
integer grid make distance ties (also at the threshold) and duplicate
rows common, which is where a prefix or restriction that lost the index
tie-break would show.
"""

import contextlib
import dataclasses
import functools
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nbknn.benchmark
import nbknn.methods
import nbknn.neighbors
import nbknn.simulation
from nbknn import (
    KnnConfig,
    LabeledDataset,
    SplitSpec,
    balanced_split,
    binary_evidence_batch,
    classify_binary_batch,
    classify_ovo_plus_batch,
    classify_ovr_plus_batch,
    fit_binary,
    knn_classify_batch,
    knn_with_cv,
    location_specs,
    ovr_evidence_batch,
    select_k_cv,
)
from nbknn.baselines import _stratified_folds, _vote_weights, cv_vote, vote
from nbknn.binary import _pair_evidence, evidence
from nbknn.cli import main
from nbknn.methods import CSV_METHODS, OVO_PLUS, OVR_PLUS, PROPOSED, SIMULATION_METHODS, decide
from nbknn.multiclass import _ovo_round, _ovr_round, ovr_evidence, reduction
from nbknn.neighbors import Ranking, distance_rows
from nbknn.rng import Stream

from conftest import (
    distance_rows_reference,
    flat_prefix_reference,
    fold_reference,
    minority_share,
    order_rows,
    padded,
    pair_evidence_reference,
    prefix_rows_reference,
    ranking_reference,
    restrict,
    threshold_reference,
    votes_for_grid_reference,
)

SETTINGS = settings(max_examples=40, deadline=None)
# _BOUND_DIM that keeps every dimension off Ranking.test's Gram-matrix
# bound, and one that puts every dimension on it.
BOUND_DIMS = {"exact": 1 << 30, "bound": 1}


@contextlib.contextmanager
def distance_path(path):
    """Ranking.test's query distances from distance_rows alone, or through the bound."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(nbknn.neighbors, "_BOUND_DIM", BOUND_DIMS[path])
        yield


def through_both_distance_paths(test):
    """Run ``test`` on both distance paths in turn: each must pass."""

    @functools.wraps(test)
    def both(*args, **kwargs):
        for path in BOUND_DIMS:
            with distance_path(path):
                test(*args, **kwargs)

    return both


def grid(n_rows, dim):
    return st.lists(
        st.lists(st.integers(-2, 2), min_size=dim, max_size=dim), min_size=n_rows, max_size=n_rows
    ).map(lambda rows: np.array(rows, dtype=np.float64))


@st.composite
def grid_problem(draw, min_classes=2, max_classes=2, min_per_class=1):
    """Integer-grid training rows, every class nonempty, and queries."""
    dim = draw(st.integers(1, 3))
    n_classes = draw(st.integers(min_classes, max_classes))
    counts = draw(st.lists(st.integers(min_per_class, min_per_class + 8),
                           min_size=n_classes, max_size=n_classes))
    labels = np.repeat(np.arange(1, n_classes + 1), counts)
    labels = labels[draw(st.permutations(range(labels.size)))]
    points = draw(grid(labels.size, dim))
    queries = draw(grid(draw(st.integers(1, 12)), dim))
    return LabeledDataset(points, labels.astype(np.int64)), queries


@SETTINGS
@given(grid_problem(), st.data())
def test_restriction_equals_fresh_sort(problem, data):
    train, queries = problem
    drawn = np.array(data.draw(st.lists(st.booleans(), min_size=train.n, max_size=train.n)))
    if not drawn.any():
        drawn[0] = True
    orders = order_rows(train.points, queries)
    for keep in (drawn, np.ones(train.n, dtype=bool)):
        restricted = restrict(orders, keep)
        np.testing.assert_array_equal(restricted, order_rows(train.points[keep], queries))


@pytest.mark.parametrize("p", [1, 2, 6, 12])
def test_subset_distances_are_bit_identical(rng, p):
    # The restriction lemma needs the subset's distances to be the very
    # same floats: a row sum never depends on which other points share
    # the matrix, also past numpy's 8-element summation block.
    points = rng.normal(size=(500, p))
    queries = rng.normal(size=(30, p))
    keep = rng.random(500) < 0.4
    full = distance_rows(points, queries)
    assert distance_rows(points[keep], queries).tobytes() == full[:, keep].tobytes()


def test_ranking_of_other_points_rejected(rng):
    # Cross-validation reads the training heads of the ranking it is given:
    # one of an equal but other training set must not stand in for it.
    train = LabeledDataset(rng.normal(size=(20, 2)), np.repeat([1, 2], 10))
    ranking = Ranking(train, rng.normal(size=(3, 2)))
    cfg = KnnConfig(k_grid=(1, 3))
    assert ranking.train is train
    assert select_k_cv(train, cfg, 0, ranking=ranking) == select_k_cv(train, cfg, 0)
    with pytest.raises(ValueError, match="another training set"):
        select_k_cv(LabeledDataset(train.points, train.labels), cfg, 0, ranking=ranking)


# Each public entry point, which ranks its queries itself, and the function
# of a ranking that it calls; the ranking is deep enough for all of them.
QUERY_ENTRY_POINTS = {
    "binary_evidence_batch": (lambda t, q: binary_evidence_batch(fit_binary(t), q),
                              lambda r: evidence(fit_binary(r.train), r)),
    "classify_binary_batch": (lambda t, q: classify_binary_batch(fit_binary(t), q),
                              lambda r: evidence(fit_binary(r.train), r)[0]),
    "knn_classify_batch": (lambda t, q: knn_classify_batch(t, q, KnnConfig(k=3)),
                           lambda r: vote(r, KnnConfig(k=3))),
    "knn_with_cv": (lambda t, q: knn_with_cv(t, q, KnnConfig(k_grid=(1, 3)), 0),
                    lambda r: cv_vote(r, KnnConfig(k_grid=(1, 3)), 0)),
    "classify_ovo_plus_batch": (lambda t, q: classify_ovo_plus_batch(t, q),
                                lambda r: reduction(_ovo_round, r, 45)[0]),
    "classify_ovr_plus_batch": (lambda t, q: classify_ovr_plus_batch(t, q),
                                lambda r: reduction(_ovr_round, r, 45)[0]),
    "ovr_evidence_batch": (lambda t, q: ovr_evidence_batch(t, q), lambda r: ovr_evidence(r, 45)),
    # The one decision of trials and fit-predict, evidence columns on.
    "decide-proposed": (lambda t, q: (lambda p, e1, e2: (p, np.column_stack([e1, e2])))(
                            *binary_evidence_batch(fit_binary(t), q)),
                        lambda r: decide(PROPOSED, r, 45, True)),
    "decide-ovr_plus": (lambda t, q: (classify_ovr_plus_batch(t, q), ovr_evidence_batch(t, q)),
                        lambda r: decide(OVR_PLUS, r, 45, True)),
    "decide-ovo_plus": (lambda t, q: (classify_ovo_plus_batch(t, q), ovr_evidence_batch(t, q)),
                        lambda r: decide(OVO_PLUS, r, 45, True)),
}


def test_ovo_plus_decides_without_evidence_unless_asked(rng):
    # Without evidence columns OvO+ gives None for them, and the same labels.
    train = LabeledDataset(rng.normal(size=(30, 2)), np.repeat([1, 2, 3], 10))
    ranking = Ranking(train, rng.normal(size=(5, 2)), k_max=45)
    labels, columns = decide(OVO_PLUS, ranking, 45, False)
    assert columns is None
    assert labels.tobytes() == decide(OVO_PLUS, ranking, 45, True)[0].tobytes()
    assert labels.tobytes() == reduction(_ovo_round, ranking, 45)[0].tobytes()


def _as_bytes(out):
    return [(a.dtype, a.shape, a.tobytes()) for a in map(np.asarray, out if isinstance(out, tuple) else (out,))]


@pytest.mark.parametrize("rows", [5, 0], ids=["queries", "no-queries"])
@pytest.mark.parametrize("entry", QUERY_ENTRY_POINTS.values(), ids=QUERY_ENTRY_POINTS.keys())
def test_entry_point_equals_its_ranking_function(rng, entry, rows):
    # Read from a ranking deep enough for every entry point, the function
    # gives the bits of the entry point that ranks the queries by itself.
    public, of_ranking = entry
    train = LabeledDataset(rng.normal(size=(20, 2)), np.repeat([1, 2], 10))
    queries = rng.normal(size=(rows, 2))
    shared = Ranking(train, queries, k_max=45, vote_k=3)
    assert _as_bytes(of_ranking(shared)) == _as_bytes(public(train, queries))


@pytest.mark.parametrize("entry", QUERY_ENTRY_POINTS.values(), ids=QUERY_ENTRY_POINTS.keys())
def test_empty_query_batch_gives_empty_outputs(rng, entry):
    public, of_ranking = entry
    train = LabeledDataset(rng.normal(size=(20, 2)), np.repeat([1, 2], 10))
    queries = np.empty((0, 2))
    for out in (public(train, queries), of_ranking(Ranking(train, queries, k_max=45, vote_k=3))):
        for part in out if isinstance(out, tuple) else (out,):
            assert np.asarray(part).shape[0] == 0


def _select_k_fresh_sorts(train, cfg, seed):
    """Cross-validated k with a fresh sort per fold."""
    assignment = _stratified_folds(train, cfg.cv_folds, Stream(seed, 0))
    min_fit = min(int(np.sum(assignment != f)) for f in range(cfg.cv_folds))
    ks = tuple(k for k in cfg.k_grid if k <= min_fit)
    scores = {k: [] for k in ks}
    for f in range(cfg.cv_folds):
        fold = train.subset(np.flatnonzero(assignment != f))
        val = np.flatnonzero(assignment == f)
        orders = order_rows(fold.points, train.points[val])
        preds = votes_for_grid_reference(fold.labels[orders[:, : max(ks)]], ks, train.n_classes,
                                         _vote_weights(fold.class_counts, cfg.weighting))
        for k in ks:
            actual, pred = train.labels[val], preds[k]
            f1s = []
            for c in range(1, train.n_classes + 1):
                tp = np.sum((pred == c) & (actual == c))
                denom = np.sum(pred == c) + np.sum(actual == c)
                f1s.append(2 * tp / denom if denom else 0.0)
            scores[k].append(np.mean(f1s))
    means = {k: float(np.mean(scores[k])) for k in ks}
    return max(sorted(means), key=lambda k: (means[k], -k))


@SETTINGS
@given(grid_problem(max_classes=3, min_per_class=5), st.integers(0, 2**32 - 1),
       st.sampled_from(["uniform", "inverse-class-size"]))
def test_cv_and_votes_from_shared_ranking(problem, seed, weighting):
    train, queries = problem
    cfg = KnnConfig(weighting=weighting, k_grid=(1, 2, 3, 5, 8))
    ranking = Ranking(train, queries, vote_k=train.n)
    k = select_k_cv(train, cfg, seed, ranking=ranking)
    assert k == _select_k_fresh_sorts(train, cfg, seed)
    for vote_k in (1, k, train.n):
        vote_cfg = KnnConfig(k=vote_k, weighting=weighting)
        fresh = knn_classify_batch(train, queries, vote_cfg)
        shared = vote(ranking, vote_cfg)
        np.testing.assert_array_equal(shared, fresh)


def _pair_evidence_fresh(train, queries, label1, label2, k_max):
    """E1, E2 of the pair classifier, sorting the pair's own points."""
    in1 = np.isin(train.labels, label1)
    in_pair = in1 | np.isin(train.labels, label2)
    pair = LabeledDataset(train.points[in_pair], np.where(in1[in_pair], 1, 2), 2)
    _, e1, e2 = binary_evidence_batch(fit_binary(pair, k_max), queries)
    return e1, e2


def _ovo_fresh(train, active, query, k_max):
    counts = train.class_counts
    order = sorted(active, key=lambda c: (-int(counts[c - 1]), c))
    minority, others = order[-1], order[:-1]
    winners = tuple(
        cls for cls in others
        if np.all(np.greater_equal(*_pair_evidence_fresh(train, query, (cls,), (minority,), k_max)))
    )
    if not winners:
        return minority
    return winners[0] if len(winners) == 1 else _ovo_fresh(train, winners, query, k_max)


def _ovr_fresh(train, active, query, k_max):
    counts = train.class_counts
    wins, evidence = [], {}
    for cls in active:
        rest = tuple(c for c in active if c != cls)
        n_cls, n_rest = int(counts[cls - 1]), int(sum(counts[c - 1] for c in rest))
        minor = n_cls < n_rest if n_cls != n_rest else cls > min(rest)
        groups = (rest, (cls,)) if minor else ((cls,), rest)
        (e1,), (e2,) = _pair_evidence_fresh(train, query, *groups, k_max)
        wins.append(e2 > e1 if minor else e1 >= e2)
        evidence[cls] = e2 if minor else e1
    winners = tuple(cls for cls, won in zip(active, wins) if won)
    if len(winners) == 1:
        return winners[0], evidence
    if len(winners) in (0, len(active)):
        # Maximum evidence; ties to the smaller class id.
        return max(sorted(evidence), key=lambda cls: evidence[cls]), evidence
    return _ovr_fresh(train, winners, query, k_max)[0], evidence


# Class 1 has as many rows as classes 2 and 3 together: an OvR+ count
# tie, where roles follow the smallest-id rule rather than the counts.
TIED_COUNTS = (
    LabeledDataset(np.arange(16.0).reshape(8, 2) % 5, np.array([1, 2, 1, 3, 1, 2, 1, 3])),
    np.array([[0.0, 1.0], [4.0, 0.0], [2.0, 3.0], [1.0, 4.0]]),
)


@SETTINGS
@given(grid_problem(min_classes=3, max_classes=5), st.integers(1, 6))
@example(TIED_COUNTS, 2)
@example(TIED_COUNTS, 4)
def test_reductions_equal_per_pair_resort(problem, k_max):
    train, queries = problem
    ranking = Ranking(train, queries, k_max)
    ovo = reduction(_ovo_round, ranking, k_max)[0]
    ovr, first = reduction(_ovr_round, ranking, k_max)
    np.testing.assert_array_equal(first, ovr_evidence(ranking, k_max))
    active = tuple(range(1, train.n_classes + 1))
    for i in range(queries.shape[0]):
        q = queries[i : i + 1]
        assert ovo[i] == _ovo_fresh(train, active, q, k_max)
        label, first_round = _ovr_fresh(train, active, q, k_max)
        assert ovr[i] == label
        assert first[i].tolist() == [first_round[c] for c in active]


# Two classes of 3 rows each: a count tie, where roles follow the ids.
TIED_PAIR = (
    LabeledDataset(np.arange(12.0).reshape(6, 2) % 5, np.array([2, 1, 1, 2, 1, 2])),
    np.array([[0.0, 1.0], [4.0, 0.0], [2.0, 3.0]]),
)


@SETTINGS
@given(grid_problem(max_classes=5), st.lists(st.integers(0, 2), min_size=5, max_size=5),
       st.integers(1, 6))
@example(TIED_COUNTS, [0, 1, 1, 2, 2], 3)
@example(TIED_COUNTS, [1, 0, 0, 2, 2], 3)
@example(TIED_PAIR, [0, 1, 2, 2, 2], 2)
def test_pair_evidence_symmetric_in_its_groups(problem, groups, k_max):
    # Class c joins group a, group b or neither as groups[c - 1] is 0, 1 or 2.
    train, queries = problem
    a, b = (tuple(c for c in range(1, train.n_classes + 1) if groups[c - 1] == g) for g in (0, 1))
    assume(a and b)
    ranking = Ranking(train, queries, k_max)
    a_wins, a_evidence, b_evidence = _pair_evidence(ranking, a, b, k_max)
    b_wins, b_swapped, a_swapped = _pair_evidence(ranking, b, a, k_max)
    np.testing.assert_array_equal(a_wins, ~b_wins)
    assert a_evidence.tobytes() == a_swapped.tobytes()
    assert b_evidence.tobytes() == b_swapped.tobytes()


@settings(max_examples=100, deadline=None)
@given(grid_problem(max_classes=5), st.lists(st.integers(0, 2), min_size=5, max_size=5),
       st.integers(1, 6), st.integers(0, 6), st.sampled_from([None, None, 1, 0]))
@example(TIED_COUNTS, [0, 1, 1, 2, 2], 3, 3, None)
@example(TIED_COUNTS, [1, 2, 0, 2, 2], 4, 1, 1)
@example(TIED_PAIR, [0, 1, 2, 2, 2], 2, 2, 0)
@example(TIED_PAIR, [1, 0, 2, 2, 2], 3, 0, None)
@through_both_distance_paths
def test_pair_evidence_equals_restricted_reference(problem, groups, k_max, depth, batch):
    # Class c joins group a, group b or neither as groups[c - 1] is 0, 1 or
    # 2.  The prefixes are ranked to a depth that may be below the pair's
    # sweep: then both kernels raise the same error.
    train, queries = problem
    a, b = (tuple(c for c in range(1, train.n_classes + 1) if groups[c - 1] == g) for g in (0, 1))
    assume(a and b)
    ranking = Ranking(train, queries[:batch], depth)
    try:
        want = pair_evidence_reference(train.labels, ranking_reference(train, queries[:batch], depth)[0],
                                       a, b, k_max)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            _pair_evidence(ranking, a, b, k_max)
        return
    for got, ref in zip(_pair_evidence(ranking, a, b, k_max), want):
        _same_array(got, ref)


@SETTINGS
@given(grid_problem(), st.integers(1, 6))
@example(TIED_PAIR, 2)
def test_binary_evidence_equals_two_class_ovr_columns(problem, k_max):
    # Binary E1 and E2 are the OvR+ first-round evidence of the majority
    # and the minority class, bit for bit.
    train, queries = problem
    clf = fit_binary(train, k_max)
    _, e1, e2 = binary_evidence_batch(clf, queries)
    evidence = ovr_evidence_batch(train, queries, k_max)
    assert e1.tobytes() == evidence[:, clf.majority_label - 1].tobytes()
    assert e2.tobytes() == evidence[:, clf.minority_label - 1].tobytes()


def _count_distance_cells(monkeypatch):
    cells = []
    original = nbknn.neighbors.distance_rows

    def counted(points, queries, *args):
        cells.append(points.shape[0] * queries.shape[0])
        return original(points, queries, *args)

    monkeypatch.setattr(nbknn.neighbors, "distance_rows", counted)
    return cells


def _predict_alone(name, train, queries, ranking, k_max, cv_seed, bayes_oracle=None):
    """A method's predictions from its public entry point, which ranks the
    queries itself; ``ranking``, the trial's shared one, is not read."""
    if name == "proposed":
        return classify_binary_batch(fit_binary(train, k_max), queries)
    if name == "ovo_plus":
        return classify_ovo_plus_batch(train, queries, k_max)
    if name == "ovr_plus":
        return classify_ovr_plus_batch(train, queries, k_max)
    if name in ("knn", "wnn"):
        cfg = KnnConfig(weighting="uniform" if name == "knn" else "inverse-class-size")
        return knn_with_cv(train, queries, cfg, cv_seed)
    return bayes_oracle(queries)


def _trial_with_and_without_sharing(monkeypatch, trial, args):
    """A trial's reports (as bytes) with its shared ranking, and with
    every method ranking for itself; also the distance cells the first
    computed."""

    def as_bytes(reports):
        return {name: [np.asarray(v).tobytes() for v in dataclasses.astuple(r)]
                for name, r in reports.items()}

    cells = _count_distance_cells(monkeypatch)
    shared = as_bytes(trial(args))
    shared_cells = sum(cells)
    with monkeypatch.context() as m:
        m.setattr(nbknn.methods, "predict_with_method", _predict_alone)
        alone = as_bytes(trial(args))
    return shared, alone, shared_cells


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 5), st.sampled_from([0.2, 0.35, 0.5]))
def test_simulation_trial_same_with_shared_ranking(seed, trial, alpha):
    # Each (test, train) and (train, train) distance is computed once.
    with pytest.MonkeyPatch.context() as monkeypatch:
        args = (location_specs(), alpha, seed, trial, SIMULATION_METHODS, 8, 60, 30)
        shared, alone, cells = _trial_with_and_without_sharing(
            monkeypatch, nbknn.simulation._simulation_trial, args
        )
    assert shared == alone
    assert cells == 30 * 60 + 60 * 60


@settings(max_examples=10, deadline=None)
@given(grid_problem(min_classes=3, max_classes=4, min_per_class=12), st.integers(0, 2**32 - 1))
def test_benchmark_trial_same_with_shared_ranking(problem, seed):
    train, _ = problem
    data = LabeledDataset(train.points + np.arange(train.n)[:, None] % 3 * 0.25, train.labels)
    spec = SplitSpec(minority_test_fraction=0.25, seed=seed, trials=1)
    with pytest.MonkeyPatch.context() as monkeypatch:
        shared, alone, cells = _trial_with_and_without_sharing(
            monkeypatch, nbknn.benchmark._benchmark_trial,
            (data, spec, 0, CSV_METHODS[1:], 6),
        )
    assert shared == alone
    n, m = (part.n for part in balanced_split(data, spec, 0))
    assert cells == m * n + n * n


def ranked_prefix(dist, tau):
    """Each row's (distance, index) order up to ``tau``, by the kernel that
    ranks a ``Ranking``'s blocks, laid end to end, and the lengths
    c_i = #{d <= tau_i}."""
    counts = np.count_nonzero(dist <= tau[:, None], axis=1)
    return nbknn.neighbors._nearest(dist, counts), counts


def _prefix_lengths(orders, n):
    return np.count_nonzero(orders < n, axis=1)


def _assert_heads(prefix, full, n):
    """The first c_i entries of each row of ``prefix`` are those of the
    full order, and the rest are the sentinel ``n``."""
    counts = _prefix_lengths(prefix, n)
    for row, full_row, c in zip(prefix, full, counts):
        np.testing.assert_array_equal(row[:c], full_row[:c])
        assert np.all(row[c:] == n)
    return counts


def _assert_flat_heads(prefix, full):
    """The flat prefixes ``prefix`` are the heads of each row of ``full``,
    the full order; returns the lengths."""
    flat, counts = prefix
    np.testing.assert_array_equal(flat, full[np.arange(full.shape[1]) < counts[:, None]])
    return counts


@SETTINGS
@given(grid_problem(), st.data())
def test_prefix_rows_equal_head_of_full_order(problem, data):
    # tau is one of the row's own distances, so ties at tau are common.
    train, queries = problem
    dist = distance_rows(train.points, queries)
    picks = data.draw(st.lists(st.integers(0, train.n - 1), min_size=queries.shape[0],
                               max_size=queries.shape[0]))
    tau = np.sort(dist, axis=1)[np.arange(queries.shape[0]), picks]
    prefix = ranked_prefix(dist, tau)
    orders, counts = padded(prefix, train.n), prefix[1]
    np.testing.assert_array_equal(counts, np.count_nonzero(dist <= tau[:, None], axis=1))
    np.testing.assert_array_equal(
        _assert_heads(orders, order_rows(train.points, queries), train.n), counts)
    assert orders.shape[1] == counts.max()
    assert np.iinfo(orders.dtype).max >= train.n


def test_query_chunks_equal_head_of_full_order(rng):
    # 5000 training rows make chunks of 209 queries: 500 queries are
    # ranked in three blocks, laid end to end: by _nearest over each
    # block's distance matrix, or on the bound path from each block's
    # candidates, in row slices of 52 queries.  The grid makes ties.
    train = LabeledDataset(rng.integers(-6, 7, size=(5000, 2)).astype(float),
                           (rng.random(5000) < 0.1) + 1)
    queries = rng.integers(-6, 7, size=(500, 2)).astype(float)
    for path in BOUND_DIMS:
        _assert_query_chunks(train, queries, path)


def _assert_query_chunks(train, queries, path):
    """Each block's prefixes, spied from the kernel that ranks it on
    ``path``, are the heads of the full order, and so is the whole."""
    bound = path == "bound"
    owner, name = (Ranking, "_bounded_prefix") if bound else (nbknn.neighbors, "_nearest")
    blocks, original = [], getattr(owner, name)

    def ranked_block(*args):
        ranked = original(*args)
        blocks.append(ranked if bound else (ranked, args[1]))
        return ranked

    with pytest.MonkeyPatch.context() as m, distance_path(path):
        m.setattr(owner, name, ranked_block)
        slices, nearest = _spy_rows(m, "Ranking._rank_slice"), _spy_rows(m, "_nearest")
        prefix = Ranking(train, queries, k_max=20, vote_k=31).test
    assert [len(b[1]) for b in blocks] == [209, 209, 82]
    assert slices == ([52] * 4 + [1] + [52] * 4 + [1, 52, 30] if bound else [])
    assert not (bound and nearest)
    full = order_rows(train.points, queries)
    counts = np.concatenate([_assert_flat_heads(b, full[rows])
                             for b, rows in zip(blocks, np.split(np.arange(500), [209, 418]))])
    np.testing.assert_array_equal(_assert_flat_heads(prefix, full), counts)
    assert np.all(counts >= 31)
    ranked = evidence(fit_binary(train, 20), Ranking(train, queries, 20))
    with full_sort_reference():
        assert [a.tobytes() for a in ranked] == [
            a.tobytes() for a in binary_evidence_batch(fit_binary(train, 20), queries)]


def _depth_in_order(members, depth):
    """Position in each row of ``members`` (a row-wise mask in full
    order) of its ``depth``-th True entry."""
    return np.argmax(np.cumsum(members, axis=1) >= depth, axis=1)


@SETTINGS
@given(grid_problem(max_classes=4, min_per_class=5), st.integers(1, 6), st.integers(1, 8),
       st.integers(0, 2**32 - 1))
@through_both_distance_paths
def test_every_consumer_reads_inside_its_prefix(problem, k_max, vote_k, seed):
    train, queries = problem
    ranking = Ranking(train, queries, k_max, vote_k)
    full = order_rows(train.points, queries)
    for got, want in zip(ranking.test, flat_prefix_reference(train, queries, k_max, vote_k)):
        _same_array(got, want)
    counts = ranking.test[1]
    classes = range(1, train.n_classes + 1)
    # Every group of classes reaches its min(k_max, n_G)-th member: the
    # depth of binary evidence and of each OvO+/OvR+ side.
    for size in range(1, train.n_classes + 1):
        for group in itertools.combinations(classes, size):
            members = np.isin(train.labels, group)
            depth = min(k_max, int(np.count_nonzero(members)))
            assert np.all(_depth_in_order(members[full], depth) < counts)
    assert np.all(min(vote_k, train.n) <= counts)
    # Each CV fold's prefix reaches its own depth, with the fold's order.
    assignment = _stratified_folds(train, 5, Stream(seed, 0))
    for f in range(5):
        fit, val = assignment != f, np.flatnonzero(assignment == f)
        depth = min(8, int(np.count_nonzero(fit)))
        want = order_rows(train.points[fit], train.points[val])[:, :depth]
        np.testing.assert_array_equal(ranking.fold(val, fit, depth), np.flatnonzero(fit)[want])


@SETTINGS
@given(grid_problem(max_classes=3), st.integers(1, 6), st.data())
@through_both_distance_paths
def test_restriction_of_prefix_equals_head_of_subset_order(problem, k_max, data):
    train, queries = problem
    drawn = np.array(data.draw(st.lists(st.booleans(), min_size=train.n, max_size=train.n)))
    # The ranking holds the index prefixes restricted here.
    want = ranking_reference(train, queries, k_max)
    _same_prefix(Ranking(train, queries, k_max).test, want, train.n)
    prefix = want[0]
    for keep in (drawn, np.ones(train.n, dtype=bool)):
        restricted = restrict(prefix, keep)
        counts = _assert_heads(restricted, order_rows(train.points[keep], queries),
                               int(np.count_nonzero(keep)))
        # Every kept row of the prefix, and no other, is in the restriction.
        np.testing.assert_array_equal(
            counts, np.count_nonzero(np.append(keep, False)[prefix], axis=1))
    # Keeping every row is the prefix itself, not a copy.
    assert restrict(prefix, np.ones(train.n, dtype=bool)) is prefix


@SETTINGS
@given(grid_problem(), st.integers(1, 4))
@through_both_distance_paths
def test_reading_past_a_prefix_raises(problem, k_max):
    train, queries = problem
    ranking = Ranking(train, queries, k_max)
    prefix, counts = ranking_reference(train, queries, k_max)
    short = int(counts.min())
    with pytest.raises(ValueError, match="prefix"):
        ranking.head(short + 1)
    np.testing.assert_array_equal(ranking.head(short),
                                  train.labels[order_rows(train.points, queries)[:, :short]])
    if short < train.n:
        with pytest.raises(ValueError, match="prefix"):
            vote(ranking, KnnConfig(k=short + 1))
    clf = fit_binary(train, k_max)
    is_minority = np.append(train.labels == clf.minority_label, False)[prefix]
    found = int(np.count_nonzero(is_minority, axis=1).min())
    code = np.array([0, 1, 1], dtype=np.uint8)  # one code per class; slot 0 is no class
    code[clf.minority_label] = 2
    with pytest.raises(ValueError, match="prefix"):
        ranking.places(code, found + 1)


@SETTINGS
@given(grid_problem(max_classes=3), st.integers(0, 6), st.integers(0, 10), st.data())
@through_both_distance_paths
def test_take_equals_queries_ranked_alone(problem, k_max, vote_k, data):
    # k_max = vote_k = 0 gives zero-length prefixes; a mask or indices,
    # in any order and with repeats, may pick no row or every row.
    train, queries = problem
    m = len(queries)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    picks = np.array(data.draw(st.lists(st.integers(0, m - 1), max_size=2 * m)), dtype=np.int64)
    for depths in ((k_max, vote_k), (0, 0)):
        ranking = Ranking(train, queries, *depths)
        for rows in (mask, picks, np.zeros(m, dtype=bool), np.ones(m, dtype=bool), np.arange(m)):
            got = ranking.take(rows)
            assert len(got) == len(queries[rows])
            _same_array(got.queries, queries[rows])
            for got_part, want_part in zip(got.test, flat_prefix_reference(train, queries[rows], *depths)):
                _same_array(got_part, want_part)


@contextlib.contextmanager
def full_sort_reference():
    """Every ranking read from whole-row ``order_rows`` sorts instead of prefixes."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(Ranking, "test", property(lambda self: (
            order_rows(self.points, self.queries).reshape(-1),
            np.full(len(self.queries), len(self.points)))))
        m.setattr(Ranking, "fold", lambda self, val, fit, depth:
                  np.flatnonzero(fit)[order_rows(self.points[fit], self.points[val])[:, :depth]])
        yield


def _all_outputs(train, queries, k_max):
    """Every query entry point's output (as bytes) on ``train``."""
    out = {"knn": knn_classify_batch(train, queries, KnnConfig(k=min(3, train.n)))}
    if min(train.class_counts) >= 5:
        out["knn_cv"] = knn_with_cv(train, queries, KnnConfig(k_grid=(1, 3, 31)), 7)
    if train.n_classes == 2:
        out["binary"] = binary_evidence_batch(fit_binary(train, k_max), queries)
    out["ovo"] = classify_ovo_plus_batch(train, queries, k_max)
    out["ovr"] = decide(OVR_PLUS, Ranking(train, queries, k_max), k_max, True)
    return {name: [np.asarray(v).tobytes() + str(np.asarray(v).shape).encode()
                   for v in (value if isinstance(value, tuple) else (value,))]
            for name, value in out.items()}


DEGENERATE = {
    "identical-points": (LabeledDataset(np.ones((12, 2)), np.repeat([1, 2], [7, 5])), 4),
    "identical-points-3-classes": (
        LabeledDataset(np.zeros((15, 1)), np.repeat([1, 2, 3], [5, 6, 4])), 45),
    "k-max-above-minority": (
        LabeledDataset(np.arange(20.0).reshape(10, 2) % 3, np.repeat([1, 2], [7, 3])), 45),
    "k-max-above-smallest-class": (
        LabeledDataset(np.arange(24.0).reshape(12, 2) % 4, np.repeat([1, 2, 3], [5, 5, 2])), 45),
}


@pytest.mark.parametrize("rows", [0, 5], ids=["no-queries", "queries"])
@pytest.mark.parametrize("case", DEGENERATE.values(), ids=DEGENERATE.keys())
@through_both_distance_paths
def test_degenerate_depths_equal_full_sort(case, rows):
    train, k_max = case
    queries = np.arange(2.0 * rows).reshape(rows, 2)[:, : train.dim] % 3
    prefixed = _all_outputs(train, queries, k_max)
    with full_sort_reference():
        assert _all_outputs(train, queries, k_max) == prefixed


def test_vote_deeper_than_evidence_equals_full_sort(tmp_path):
    # At k_max 1 the evidence needs each class's nearest point only; the
    # k-NN votes read up to 31 neighbors.
    argv = ["simulate", "--design", "location", "--alpha", "0.3", "--trials", "2",
            "--k-max", "1", "--methods", "proposed,knn,wnn", "--train-size", "120",
            "--test-size", "40", "--seed", "5", "--output"]
    assert main(argv + [str(tmp_path / "prefix.json")]) == 0
    with full_sort_reference():
        assert main(argv + [str(tmp_path / "full.json")]) == 0
    prefix = json.loads((tmp_path / "prefix.json").read_text())
    assert (tmp_path / "prefix.json").read_bytes() == (tmp_path / "full.json").read_bytes()
    assert [m["name"] for m in prefix["methods"]] == ["proposed", "knn", "wnn"]


# The kernels below must reproduce the references in conftest.py bit for
# bit, dtype and shape included: the threshold that partitioned every
# group over every row, the prefix sorted to the block's widest row, and
# the fold that partitioned twice.

MOSTLY_ONE = (
    LabeledDataset(np.arange(8.0)[:, None], np.array([1, 1, 1, 2, 1, 3, 1, 1])),
    np.array([[0.5], [6.5], [3.0]]),
)


def _same_array(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def _in_training(fold, fit):
    """A reference fold's fit-local indices as training indices, in the
    dtype of the training heads."""
    return np.flatnonzero(fit)[fold].astype(np.min_scalar_type(fit.size))


def _same_prefix(got, want, n):
    """Flat prefixes ``got`` equal the padded ``want``, lengths included."""
    for got_part, want_part in zip((padded(got, n), got[1]), want):
        _same_array(got_part, want_part)


@SETTINGS
@given(grid_problem(min_classes=1, max_classes=4), st.integers(0, 8), st.integers(0, 40))
@example(TIED_COUNTS, 0, 0)
@example((LabeledDataset(np.array([[0.0], [1.0]]), np.array([2, 1])), np.array([[1.0]])), 1, 0)
@example(MOSTLY_ONE, 4, 7)
@example(MOSTLY_ONE, 0, 3)
def test_threshold_equals_reference(problem, k_max, vote_k):
    # k_max = vote_k = 0 leaves every row at -inf: zero-width prefixes.
    # The first group finds every row short; a later group is counted in
    # its own columns, or as c_i less the rest's count when it holds most
    # columns, and the final counts must equal a full compare at tau.  Two
    # classes, the first's point at tau: the other's count at tau is 0,
    # not 1.  In MOSTLY_ONE the class of most rows is counted through the
    # rest, with short rows in every group; at k_max 0 the vote group is
    # the first group.
    train, queries = problem
    dist = distance_rows(train.points, queries)
    tau, counts = Ranking(train, queries, k_max, vote_k)._threshold(dist)
    _same_array(tau, threshold_reference(train.labels, k_max, vote_k, dist))
    _same_array(counts, np.count_nonzero(dist <= tau[:, None], axis=1))


@SETTINGS
@given(grid_problem(), st.data())
def test_prefix_rows_equals_reference(problem, data):
    # tau is one of the row's own distances, so ties at tau are common,
    # or -inf, a zero-width row; rows of one key copy differ in width.
    train, queries = problem
    dist = distance_rows(train.points, queries)
    picks = np.array(data.draw(st.lists(st.integers(-1, train.n - 1), min_size=len(queries),
                                        max_size=len(queries))))
    tau = np.where(picks < 0, -np.inf, np.sort(dist, axis=1)[np.arange(len(queries)), picks])
    _same_prefix(ranked_prefix(dist, tau), prefix_rows_reference(dist, tau), train.n)


@pytest.mark.parametrize("widths", ["one-bucket", "many-buckets", "zero-width", "one-whole-row"])
def test_prefix_rows_equals_reference_on_wide_blocks(rng, widths):
    # 3000 columns: rows are keyed in copies of 10, each sorted to its
    # widest row, and copies wider than 1499 sort their whole row of keys.
    # The widths span one or many powers of two; in the last case one row
    # takes all 3000 columns among rows of at most 21, so its copy alone
    # sorts whole rows.
    dist = distance_rows(rng.normal(size=(3000, 3)), rng.normal(size=(300, 3)))
    dist[:, :40] = dist[:, 40:80]  # ties, also at tau
    picks = {"one-bucket": rng.integers(1025, 2048, size=300),
             "many-buckets": np.concatenate([rng.integers(1, 3000, size=150),
                                             rng.integers(1025, 2048, size=150)]),
             "zero-width": np.zeros(300, dtype=np.int64),
             "one-whole-row": rng.integers(1, 21, size=300)}[widths]
    tau = np.sort(dist, axis=1)[np.arange(300), picks - 1]
    if widths == "zero-width":
        tau[:] = -np.inf
    if widths == "one-whole-row":
        tau[155] = np.inf
    counts = prefix_rows_reference(dist, tau)[1]
    lo, hi = {"one-bucket": (1, 1), "many-buckets": (8, 13), "zero-width": (0, 0), "one-whole-row": (6, 7)}[widths]
    assert lo <= len(np.unique(np.ceil(np.log2(counts[counts > 0])))) <= hi
    _same_prefix(ranked_prefix(dist, tau), prefix_rows_reference(dist, tau), 3000)


# A ranking must hold the reference index prefixes, bit for bit and dtype
# included, whether a row is decided by its keys or by an exact head, and its
# head must read the training labels along them.

def _assert_ranking_equals_reference(train, queries, k_max, vote_k):
    ranking = Ranking(train, queries, k_max, vote_k)
    orders, counts = ranking_reference(train, queries, k_max, vote_k)
    _same_prefix(ranking.test, (orders, counts), train.n)
    depth = int(counts.min(initial=0))
    _same_array(ranking.head(depth), train.labels[orders[:, :depth]])
    return ranking


@SETTINGS
@given(grid_problem(max_classes=5), st.integers(0, 8), st.integers(0, 12),
       st.sampled_from(["grid", "nudge", "decimal"]))
@example(TIED_COUNTS, 3, 0, "grid")
@through_both_distance_paths
def test_labels_equal_labels_of_reference_prefix(problem, k_max, vote_k, points):
    # Grid points tie often, between labels and at tau.  Nudged points
    # scale by 1 + j ulp, so distances also lie a few ulps apart: the
    # distance bits that index keys of up to 45 rows drop.  Decimal points
    # are the grid divided by 10, so their differences are inexact and
    # many rows take their heads exactly.
    train, queries = problem
    if points == "nudge":
        scale = 1 + np.arange(train.n)[:, None] % 4 * np.finfo(float).eps
        train = LabeledDataset(train.points * scale, train.labels)
    if points == "decimal":
        train, queries = LabeledDataset(train.points / 10, train.labels), np.asarray(queries) / 10
    _assert_ranking_equals_reference(train, queries, k_max, vote_k)


@through_both_distance_paths
def test_labels_of_300_classes_equal_reference(rng):
    # 300 classes over 600 rows: 10 index bits, 9 distance bits dropped,
    # uint16 indices.  Grid rows tie; normal rows are decided by their keys.
    points = np.vstack([rng.integers(-3, 4, size=(300, 2)).astype(float), rng.normal(size=(300, 2))])
    train = LabeledDataset(points, np.concatenate([np.arange(1, 301), rng.integers(1, 301, size=300)]))
    queries = np.vstack([rng.integers(-3, 4, size=(20, 2)).astype(float), rng.normal(size=(20, 2))])
    ranking = _assert_ranking_equals_reference(train, queries, 1, 40)
    assert ranking.test[0].dtype == np.uint16


def test_ranking_of_more_than_2_16_rows_equals_reference(rng, monkeypatch):
    # 70,000 rows: uint32 indices, 17 index bits, 16 distance bits dropped.
    # Points on a grid of step 1/64 tie exactly and often, also at tau, and
    # distinct grid distances lie far apart: their keys decide a row.  500
    # points at x > 1/2 moved by 1 ulp lie a few ulps from their grid
    # neighbors, so the queries there take their heads exactly.  (On a
    # decimal grid the differences are inexact and every row would.)
    points = rng.integers(-64, 65, size=(70_000, 2)) / 64
    nudged = rng.choice(np.flatnonzero(points[:, 0] > 0.5), size=500, replace=False)
    points[nudged] = np.nextafter(points[nudged], np.inf)
    train = LabeledDataset(points, np.where(rng.random(70_000) < 0.1, 2, 1))
    queries = np.vstack([rng.integers(40, 65, size=(3, 2)), rng.integers(-64, -16, size=(4, 2))]) / 64
    sorts = _spy_rows(monkeypatch, "_exact_head")
    slices = _spy_rows(monkeypatch, "Ranking._rank_slice")
    want = flat_prefix_reference(train, queries, 45, 31)
    for path in BOUND_DIMS:
        sorts.clear()
        with distance_path(path):
            got = Ranking(train, queries, 45, 31).test
        for got_part, want_part in zip(got, want):
            _same_array(got_part, want_part)
        assert got[0].dtype == np.uint32
        # Both paths sort the same three rows exactly.  On the bound path
        # each slice of 3 queries (3 x 70,000 bound cells) is key-sorted,
        # and a row whose keys share high bits across two distances is
        # then re-sorted.
        assert sorts == [1, 1, 1]
    assert slices == [3, 3, 1]


def _spy_rows(monkeypatch, name):
    """The rows each call of ``nbknn.neighbors.<name>`` gets, 1 for a 1-D
    row; ``Ranking.<name>`` spies on a method, its first argument the rows."""
    owner = Ranking if name.startswith("Ranking.") else nbknn.neighbors
    name = name.removeprefix("Ranking.")
    rows, kernel = [], getattr(owner, name)

    def spy(*args):
        dist = args[owner is Ranking]
        rows.append(len(dist) if dist.ndim == 2 else 1)
        return kernel(*args)

    monkeypatch.setattr(owner, name, spy)
    return rows


@pytest.mark.parametrize("case", ["tie-inside-prefix", "ulp-apart-at-tau"])
def test_undecidable_rows_take_the_index_path(monkeypatch, case):
    # Tie: distance 1 holds rows 0 and 1, whose keys differ in their index
    # bits only and so decide the tie: exact ties never take the exact
    # head.  Ulp: with 6 rows keys drop two distance bits, so 2.0 (row 1,
    # at tau) and the next float (rows 2 and 3, outside the prefix) share a
    # key's high bits, and the first query takes its head exactly.  The
    # second query has no such pair, and its prefix is its whole row.  In
    # both cases the two rows share one key copy, ranked in one call.
    up = np.nextafter(2.0, 3.0)
    x, tau = {
        "tie-inside-prefix": ([1.0, -1.0, 3.0, 4.0], 3.0),
        "ulp-apart-at-tau": ([1.0, 2.0, up, -up, 5.0, 6.0], 2.0),
    }[case]
    points = np.array(x)[:, None]
    queries = np.array([[0.0], [2.5]])
    dist = distance_rows(points, queries)
    assert dist[0].tolist() == np.abs(x).tolist()
    tau = np.array([tau, dist[1].max()])
    rows, exact = _spy_rows(monkeypatch, "_nearest"), _spy_rows(monkeypatch, "_exact_head")
    got = ranked_prefix(dist, tau)
    assert rows == [2]
    assert exact == {"tie-inside-prefix": [], "ulp-apart-at-tau": [1]}[case]
    _same_prefix(got, prefix_rows_reference(distance_rows_reference(points, queries), tau), len(x))
    assert got[0][: got[1][0]].tolist() == {"tie-inside-prefix": [0, 1, 2], "ulp-apart-at-tau": [0, 1]}[case]


def test_a_key_copy_checks_its_widest_row_at_its_own_depth(monkeypatch):
    # 40 rows, so keys drop 5 distance bits: 2.0 and the next float share
    # their high bits.  The first query sees row 0 at 0, rows 1-4 at the
    # next float and row 5 at 2.0, its tau: its prefix is rows 0 and 5,
    # but in key order rows 1-4 come between them, and row 5 lies past
    # the three sorted keys.  Only the group check at this row's own depth
    # 2 shows it.  The second query's prefix is its nearest row alone, and
    # both rows share one key copy.
    up = np.nextafter(2.0, 3.0)
    x = np.concatenate([[0.0], [up] * 4, [2.0], 200.0 + 10.0 * np.arange(34)])
    points, queries = x[:, None], np.array([[0.0], [200.0]])
    dist = distance_rows(points, queries)
    assert dist[0, :6].tolist() == [0.0, up, up, up, up, 2.0]
    tau = np.array([2.0, 0.0])
    rows, exact = _spy_rows(monkeypatch, "_nearest"), _spy_rows(monkeypatch, "_exact_head")
    got = ranked_prefix(dist, tau)
    assert (rows, exact) == ([2], [1])
    _same_prefix(got, prefix_rows_reference(distance_rows_reference(points, queries), tau), len(x))
    assert got[0].tolist() == [0, 5, 6]


def test_decimal_grid_rows_equal_reference(rng, monkeypatch):
    # Points rounded to one decimal: their differences are inexact, so
    # distances a few ulps apart are common, and their keys share high
    # bits.  Every row holding such a pair among its first w + 1 keys
    # takes its head exactly, one row a call: here all 40 query rows and
    # 182 of the 280 training heads (74 + 77 + 31 per key copy), 222 in
    # all; the prefixes and fold rows must still equal the references.
    # Through the bound, the one slice of 40 rows is key-sorted, and every
    # row but row 17 is then re-sorted exactly: row 17's one such pair lies
    # past its tau (240 of 280 entries) and past its reach, for its 240
    # candidates are its prefix.
    means = 1.5 * np.eye(4, 6)
    labels = np.repeat([1, 2, 3, 4], [120, 80, 50, 30])
    train = LabeledDataset(np.round(means[labels - 1] + rng.normal(size=(280, 6)), 1), labels)
    queries = np.round(rng.normal(size=(40, 6)), 1)
    sorts = _spy_rows(monkeypatch, "_exact_head")
    slices = _spy_rows(monkeypatch, "Ranking._rank_slice")
    want = flat_prefix_reference(train, queries, 45, 31)
    fit = np.arange(280) % 5 != 0
    val = np.flatnonzero(~fit)
    full = distance_rows(train.points, train.points)
    for path, query_sorts in (("exact", 40), ("bound", 39)):
        sorts.clear()
        with distance_path(path):
            ranking = Ranking(train, queries, 45, 31)
            for got_part, want_part in zip(ranking.test, want):
                _same_array(got_part, want_part)
            assert sorts == [1] * query_sorts
            _same_array(ranking.fold(val, fit, 31), _in_training(fold_reference(full, val, fit, 31), fit))
        assert sorts == [1] * (query_sorts + 182)
    assert slices == [40]


@SETTINGS
@given(grid_problem(max_classes=3, min_per_class=5), st.sampled_from([2, 3, 5]), st.floats(0, 1),
       st.integers(0, 2**32 - 1), st.sampled_from(["grid", "duplicated", "spread"]))
def test_fold_equals_reference(problem, folds, depth_share, seed, points):
    # Grid points tie often, also at the last distance of a training
    # head; duplicated rows tie at distance 0; distinct offsets remove
    # every tie.  Depths run from 1 to the fold's training size; with two
    # or three folds some heads hold too few fit rows, which rank afresh.
    train, queries = problem
    if points == "duplicated":
        train = LabeledDataset(train.points[np.arange(train.n) // 2], train.labels)
    if points == "spread":
        train = LabeledDataset(train.points + np.arange(train.n)[:, None] * 1e-3, train.labels)
    ranking = Ranking(train, queries)
    full = distance_rows(train.points, train.points)
    assignment = _stratified_folds(train, folds, Stream(seed, 0))
    for f in range(folds):
        fit, val = assignment != f, np.flatnonzero(assignment == f)
        d = max(1, round(depth_share * np.count_nonzero(fit)))
        _same_array(ranking.fold(val, fit, d), _in_training(fold_reference(full, val, fit, d), fit))


@pytest.mark.parametrize("path", ["one-selection", "ties", "fallback"])
def test_fold_paths_equal_reference(rng, monkeypatch, path):
    # Distinct distances: one selection per block makes the training
    # heads, and every fold reads them, so the n^2 training distances are
    # the only ones computed.  Grid points tie at a head's last distance,
    # which the heads' (distance, index) keys resolve with no exact sort:
    # distinct grid distances never share a key's high bits.  With two
    # folds about half the rows find fewer than 31 fit rows in their head
    # of 64: the fallback ranks them afresh against the fit rows.
    points = rng.integers(-3, 4, size=(400, 2)).astype(float) if path == "ties" else rng.normal(size=(400, 2))
    folds = 2 if path == "fallback" else 5
    ranking = Ranking(LabeledDataset(points, np.repeat([1, 2], 200)), points)
    full = distance_rows(points, points)
    cells = []
    monkeypatch.setattr(nbknn.neighbors, "distance_rows",
                        lambda p, q: cells.append(len(p) * len(q)) or distance_rows(p, q))
    sorts = _spy_rows(monkeypatch, "_exact_head")
    for f in range(folds):
        fit = np.arange(400) % folds != f
        val = np.flatnonzero(~fit)
        _same_array(ranking.fold(val, fit, 31), _in_training(fold_reference(full, val, fit, 31), fit))
    assert (sum(cells) == 400 * 400) == (path != "fallback")
    assert not sorts


def test_fold_reads_a_head_whose_boundary_splits_a_key_group(monkeypatch):
    # 40 rows, so index keys drop 5 distance bits: 2.0 and the next float
    # share their high bits.  Row 0 sees itself, four copies of the next
    # float (rows 1-4), then 2.0 (row 5), which is nearer but comes after
    # them in key order.  Its head of 4 keeps rows 0-3, the key at 4 ties
    # the boundary, and row 5 lies past the sorted keys: only the group's
    # full-row check shows it, and only row 0 is ranked exactly.  Rows 1-5
    # see one another first; rows 6-39 lie 200 or more away, where both
    # floats give one distance.
    up = np.nextafter(2.0, 3.0)
    x = np.concatenate([[0.0], [up] * 4, [2.0], 200.0 + 10.0 * np.arange(34)])
    points = x[:, None]
    full = distance_rows(points, points)
    assert full[0, :6].tolist() == [0.0, up, up, up, up, 2.0]
    ranking = Ranking(LabeledDataset(points, np.arange(40) % 2 + 1), points)
    rows = _spy_rows(monkeypatch, "_exact_head")
    fit = np.ones(40, dtype=bool)
    fit[[0, 10, 20, 30]] = False
    val = np.flatnonzero(~fit)
    got = ranking.fold(val, fit, 1)
    _same_array(got, _in_training(fold_reference(full, val, fit, 1), fit))
    assert got[0, 0] == 5
    assert rows == [1]


@SETTINGS
@given(grid_problem(max_classes=3), st.integers(0, 6), st.integers(0, 10))
@through_both_distance_paths
def test_query_alone_equals_query_in_batch(problem, k_max, vote_k):
    # A row's prefix does not depend on the rows sharing its block or its
    # key copy, nor on their widths: alone it has the same entries.
    train, queries = problem
    batch = padded(Ranking(train, queries, k_max, vote_k).test, train.n)
    for i in range(len(queries)):
        alone = padded(Ranking(train, queries[i : i + 1], k_max, vote_k).test, train.n)
        assert alone.dtype == batch.dtype
        width = alone.shape[1]
        assert batch[i, :width].tobytes() == alone[0].tobytes()
        assert np.all(batch[i, width:] == train.n)


# The Gram-matrix bound must keep every bit on the inputs where its error
# terms are largest: p across numpy's pairwise-sum branches (below 8, up to
# 128, two halves past it), exact and inexact grids, duplicated rows,
# cancellation at an offset, and scales near overflow and underflow.
WIDE_KINDS = ["normal", "integer-grid", "decimal-grid", "duplicated", "offset-1e6", "scale-1e150",
              "scale-1e-150", "scale-1e160", "scale-1e-165", "constant-column"]


def _wide_problem(p, kind):
    """240 training rows of classes of 170, 60 and 10 rows (k_max 45 passes
    the smallest) and 30 queries, 10 of them training rows."""
    rng = np.random.default_rng([p, WIDE_KINDS.index(kind)])
    labels = np.repeat([1, 2, 3], [170, 60, 10])[rng.permutation(240)]
    x = rng.normal(size=(240, p)) + 0.5 * (labels == 2)[:, None]
    q = rng.normal(size=(30, p))
    if kind == "duplicated":
        x = x[np.arange(240) // 3]
    q[:10] = x[::24]
    if kind in ("integer-grid", "decimal-grid"):
        x, q = (np.round(a * 2, 1 if kind == "decimal-grid" else 0) for a in (x, q))
    if kind == "offset-1e6":
        x, q = x + 1e6, q + 1e6
    if kind.startswith("scale-"):
        x, q = x * float(kind[6:]), q * float(kind[6:])
    if kind == "constant-column":
        x[:, 0] = q[:, 0] = 3.0
    return LabeledDataset(x, labels), q


@pytest.mark.parametrize("path", BOUND_DIMS)
@pytest.mark.parametrize("kind", WIDE_KINDS)
@pytest.mark.parametrize("p", [8, 12, 13, 130])
def test_wide_rankings_equal_reference(monkeypatch, p, kind, path):
    # On the bound path distance_rows (spied: its 240 points) runs only
    # where 4S overflows (1e160), for the whole block; at 1e-165 every
    # square underflows and every cell is a candidate.  Both paths give
    # the reference prefixes.  At 1e160 the squares overflow on either
    # path, as in the reference: every distance is inf.
    train, queries = _wide_problem(p, kind)
    calls = _spy_rows(monkeypatch, "distance_rows")
    with distance_path(path), np.errstate(over="ignore" if kind == "scale-1e160" else "warn"):
        for k_max, vote_k in ((45, 0), (3, 31)):
            got = Ranking(train, queries, k_max, vote_k).test
            for got_part, want_part in zip(got, flat_prefix_reference(train, queries, k_max, vote_k)):
                _same_array(got_part, want_part)
    assert calls == ([] if path == "bound" and kind != "scale-1e160" else [240, 240])


@pytest.mark.parametrize("p", [8, 12, 13, 130])
def test_candidates_hold_every_cell_up_to_tau(rng, monkeypatch, p):
    # The bound path computes exact distances for its candidate cells
    # alone (one row slice here), and writes each over the slice's bound
    # cells at its training index: every cell at or below its row's tau
    # then holds distance_rows' bits, and not every cell does.  Ranked,
    # the candidates give the reference prefixes.
    labels = np.repeat([1, 2], [900, 100])
    train = LabeledDataset(rng.normal(size=(1000, p)) + 0.5 * (labels == 2)[:, None], labels)
    queries = rng.normal(size=(50, p))
    slices, original = [], Ranking._rank_slice
    monkeypatch.setattr(Ranking, "_rank_slice",
                        lambda self, rows, *args: slices.append(rows) or original(self, rows, *args))
    got = Ranking(train, queries, 45, 31).test
    (written,) = slices
    exact = distance_rows(train.points, queries)
    inside = exact <= threshold_reference(train.labels, 45, 31, exact)[:, None]
    assert written[inside].tobytes() == exact[inside].tobytes()
    assert np.count_nonzero(inside) <= np.count_nonzero(written == exact) < written.size
    for got_part, want_part in zip(got, flat_prefix_reference(train, queries, 45, 31)):
        _same_array(got_part, want_part)


def test_a_wide_bound_block_holds_little_beside_its_bound_matrix(rng):
    # One block of the fit_predict_wide shape, 104 queries x 10,000 rows x
    # 12 features: its 8.3 MB bound matrix is its one large array.  tau's
    # partitions and counts and each row slice's mask and candidates add
    # less than 30% of its bytes to the traced peak.  The training operand
    # is made once per training set, before the block.
    labels = np.where(rng.random(10_000) < 0.1, 2, 1)
    train = LabeledDataset(rng.normal(size=(10_000, 12)) + 0.5 * (labels == 2)[:, None], labels)
    ranking = Ranking(train, rng.normal(size=(104, 12)), 45)
    assert nbknn.neighbors.chunk_rows(train.n) == 104
    train.gram_columns
    tracemalloc.start()
    try:
        ranking.test
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * 104 * 10_000 * 8


@SETTINGS
@given(grid_problem(min_classes=1, max_classes=4), st.integers(0, 8), st.integers(0, 40))
@example(TIED_COUNTS, 0, 0)
@example(MOSTLY_ONE, 4, 7)
@example(MOSTLY_ONE, 0, 3)
def test_bound_tau_equals_reference(problem, k_max, vote_k):
    # The reach's tau takes each group's k-th value in the group's own
    # slice of gram_columns' class-ordered columns; given the exact
    # distances in that order, it is the reference tau.
    train, queries = problem
    dist = distance_rows(train.points, queries)
    tau = Ranking(train, queries, k_max, vote_k)._bound_tau(dist[:, train.gram_columns[1]])
    _same_array(tau, threshold_reference(train.labels, k_max, vote_k, dist))


@pytest.mark.parametrize("p", [2, 12])
@through_both_distance_paths
def test_a_block_of_no_queries_ranks_nothing(rng, p):
    # A ranking of no queries is one block of no rows, on either path.
    train = LabeledDataset(rng.normal(size=(100, p)), np.repeat([1, 2], [90, 10]))
    queries = np.empty((0, p))
    for depths in ((45, 31), (0, 0)):
        ranking = Ranking(train, queries, *depths)
        assert len(ranking) == 0
        for got_part, want_part in zip(ranking.test, flat_prefix_reference(train, queries, *depths)):
            _same_array(got_part, want_part)
