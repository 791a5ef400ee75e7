"""k-NN and weighted-NN voting plus cross-validated k selection."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbknn import KnnConfig, LabeledDataset, knn_classify_batch, select_k_cv
from nbknn.baselines import WEIGHTINGS, _vote_weights, _votes_for_grid

from conftest import make_dataset, votes_for_grid_reference


def line_dataset(labels):
    labels = np.asarray(labels, dtype=np.int64)
    return LabeledDataset(np.arange(float(labels.size))[:, None], labels)


class TestKnnConfig:
    def test_rejects_bad_weighting(self):
        with pytest.raises(ValueError, match="weighting"):
            KnnConfig(weighting="gaussian")

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k must be"):
            KnnConfig(k=0)

    def test_rejects_single_fold(self):
        with pytest.raises(ValueError, match="cv_folds"):
            KnnConfig(cv_folds=1)


class TestKnnClassify:
    def test_k1_nearest_label(self):
        ds = line_dataset([2, 1, 1])
        assert knn_classify_batch(ds, [[0.2]], KnnConfig(k=1)).tolist() == [2]

    def test_plurality_vote(self):
        ds = line_dataset([1, 1, 2])
        assert knn_classify_batch(ds, [[0.0]], KnnConfig(k=3)).tolist() == [1]

    def test_inverse_class_size_flips_vote(self):
        # Neighbor labels [1, 1, 2] but class sizes 100 vs 10 give the
        # minority neighbor ten times the mass: 0.1 > 0.02.
        points = np.r_[np.arange(3.0), np.linspace(50, 60, 98), np.linspace(100, 110, 9)]
        labels = np.r_[[1, 1, 2], np.ones(98, dtype=int), np.full(9, 2, dtype=int)]
        ds = LabeledDataset(points[:, None], labels.astype(np.int64))
        assert ds.class_counts.tolist() == [100, 10]
        cfg = KnnConfig(k=3, weighting="inverse-class-size")
        assert knn_classify_batch(ds, [[0.0]], cfg).tolist() == [2]
        assert knn_classify_batch(ds, [[0.0]], KnnConfig(k=3)).tolist() == [1]

    def test_k_equals_n_uniform_predicts_largest_class(self, rng):
        ds = make_dataset(rng, n=30, weights=[0.7, 0.3])
        queries = rng.normal(size=(8, 2))
        preds = knn_classify_batch(ds, queries, KnnConfig(k=30))
        assert np.all(preds == 1)

    def test_k_equals_n_weighted_ties_to_class_one(self, rng):
        # Every class contributes total mass 1, so the tie-break id wins.
        # Power-of-two class sizes keep the accumulated masses exactly 1.0.
        labels = np.r_[
            np.full(16, 3, dtype=np.int64),
            np.full(8, 1, dtype=np.int64),
            np.full(8, 2, dtype=np.int64),
        ]
        ds = LabeledDataset(rng.normal(size=(32, 2)), labels)
        preds = knn_classify_batch(ds, rng.normal(size=(8, 2)), KnnConfig(k=32, weighting="inverse-class-size"))
        assert np.all(preds == 1)

    def test_balanced_classes_weighting_irrelevant(self, rng):
        points = rng.normal(size=(40, 2))
        labels = np.r_[np.ones(20, dtype=np.int64), np.full(20, 2, dtype=np.int64)]
        ds = LabeledDataset(points, labels)
        queries = rng.normal(size=(25, 2))
        for k in (1, 5, 11):
            np.testing.assert_array_equal(
                knn_classify_batch(ds, queries, KnnConfig(k=k)),
                knn_classify_batch(ds, queries, KnnConfig(k=k, weighting="inverse-class-size")),
            )

    def test_vote_tie_breaks_to_smaller_class_id(self):
        ds = line_dataset([2, 1, 1, 2])
        assert knn_classify_batch(ds, [[-1.0]], KnnConfig(k=2)).tolist() == [1]

    def test_k_exceeding_n_rejected(self):
        ds = line_dataset([1, 2])
        with pytest.raises(ValueError, match="exceeds"):
            knn_classify_batch(ds, [[0.0]], KnnConfig(k=3))


class TestSelectKCv:
    def test_singleton_grid(self, rng):
        ds = make_dataset(rng, n=40, weights=[0.6, 0.4])
        cfg = KnnConfig(k_grid=(1,))
        assert select_k_cv(ds, cfg, seed=0) == 1

    def test_score_tie_prefers_smaller_k(self, rng):
        # Perfectly separated clusters: every k scores 1.0.
        points = np.r_[rng.normal(size=(20, 2)), rng.normal(size=(20, 2)) + 50.0]
        labels = np.r_[np.ones(20, dtype=np.int64), np.full(20, 2, dtype=np.int64)]
        ds = LabeledDataset(points, labels)
        cfg = KnnConfig(k_grid=(3, 5, 7))
        assert select_k_cv(ds, cfg, seed=1) == 3

    def test_deterministic_given_seed(self, rng):
        ds = make_dataset(rng, n=60, weights=[0.65, 0.35])
        cfg = KnnConfig()
        a = select_k_cv(ds, cfg, seed=7)
        b = select_k_cv(ds, cfg, seed=7)
        assert a == b

    def test_frozen_regression_value(self):
        # Two overlapping Gaussians, fixed stream; value computed once
        # from this implementation and pinned.
        from nbknn import Stream

        stream = Stream(99, 0)
        n1, n2 = 120, 40
        points = np.r_[
            stream.normal(2 * n1).reshape(n1, 2),
            stream.normal(2 * n2).reshape(n2, 2) + 1.0,
        ]
        labels = np.r_[np.ones(n1, dtype=np.int64), np.full(n2, 2, dtype=np.int64)]
        ds = LabeledDataset(points, labels)
        assert select_k_cv(ds, KnnConfig(), seed=5) == 5

    def test_class_smaller_than_folds_rejected(self, rng):
        points = rng.normal(size=(10, 2))
        labels = np.r_[np.ones(7, dtype=np.int64), np.full(3, 2, dtype=np.int64)]
        ds = LabeledDataset(points, labels)
        with pytest.raises(ValueError, match="fewer than cv_folds"):
            select_k_cv(ds, KnnConfig(cv_folds=5), seed=0)

    def test_memory_stays_below_the_train_matrix(self, rng):
        # The n x n float64 training distances would take n^2 * 8 bytes
        # (72 MB at n = 3000); cross-validation holds a block of them.
        n = 3000
        ds = make_dataset(rng, n=n)
        tracemalloc.start()
        try:
            select_k_cv(ds, KnnConfig(), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda c: st.tuples(
           st.just(c),
           st.lists(st.integers(1, 30), min_size=c, max_size=c),
           st.integers(0, 12),
           st.lists(st.integers(1, 12), min_size=1, max_size=6, unique=True))),
       st.sampled_from(WEIGHTINGS), st.integers(0, 2**32 - 1))
@example((2, [5, 5], 0, [3, 1]), "inverse-class-size", 0)
@example((3, [7, 7, 7], 9, [1, 4, 9]), "inverse-class-size", 1)
def test_votes_for_grid_equals_column_loop(shape, weighting, seed):
    # Grids in any order and with gaps, 0 rows, and equal class counts,
    # whose weights tie the vote masses.
    n_classes, counts, m, ks = shape
    labels = np.random.default_rng(seed).integers(1, n_classes + 1, size=(m, max(ks) + 2))
    weights = _vote_weights(np.array(counts), weighting)
    got = _votes_for_grid(labels, tuple(ks), n_classes, weights)
    want = votes_for_grid_reference(labels, ks, n_classes, weights)
    assert got.shape == (len(ks), m)
    for j, k in enumerate(ks):
        assert (got[j].dtype, got[j].shape) == (want[k].dtype, (m,))
        assert got[j].tobytes() == want[k].tobytes()
