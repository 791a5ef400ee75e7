"""Dataset container, distances and neighbor ordering, and minority counting."""

import numpy as np
import pytest

from nbknn import LabeledDataset, fit_binary
from nbknn.neighbors import _as_queries, distance_rows, order_rows

from conftest import evidence_arrays, make_dataset


class TestLabeledDataset:
    def test_basic_construction(self):
        ds = LabeledDataset([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]], [1, 2, 1])
        assert ds.n == 3
        assert ds.dim == 2
        assert ds.n_classes == 2
        assert ds.class_counts.tolist() == [2, 1]

    def test_arrays_are_read_only(self):
        ds = LabeledDataset([[0.0], [1.0]], [1, 2])
        with pytest.raises(ValueError):
            ds.points[0, 0] = 9.0
        with pytest.raises(ValueError):
            ds.labels[0] = 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one row"):
            LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            LabeledDataset([[np.nan], [1.0]], [1, 2])

    def test_rejects_zero_based_labels(self):
        with pytest.raises(ValueError, match="1-based"):
            LabeledDataset([[0.0], [1.0]], [0, 1])

    def test_rejects_float_labels(self):
        with pytest.raises(ValueError, match="integers"):
            LabeledDataset([[0.0], [1.0]], np.array([1.0, 2.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="one entry per row"):
            LabeledDataset([[0.0], [1.0]], [1, 2, 1])

    def test_explicit_n_classes_allows_empty_class(self):
        ds = LabeledDataset([[0.0], [1.0]], [1, 3], n_classes=3)
        assert ds.class_counts.tolist() == [1, 0, 1]

    def test_label_above_n_classes_rejected(self):
        with pytest.raises(ValueError, match="exceeds n_classes"):
            LabeledDataset([[0.0], [1.0]], [1, 3], n_classes=2)

    def test_subset_keeps_label_space(self):
        ds = LabeledDataset(np.arange(8.0).reshape(4, 2), [1, 2, 3, 1])
        sub = ds.subset([0, 3])
        assert sub.n_classes == 3
        assert sub.class_counts.tolist() == [2, 0, 0]


class TestNeighborOrder:
    def test_equidistant_tie_break_by_index(self):
        points, query = np.array([[0.0], [2.0], [5.0]]), np.array([[1.0]])
        assert order_rows(points, query).tolist() == [[0, 1, 2]]
        assert distance_rows(points, query).tolist() == [[1.0, 1.0, 4.0]]

    def test_self_distance_zero_first(self):
        points, query = np.array([[3.0, 1.0], [0.0, 0.0], [7.0, 7.0]]), np.array([[0.0, 0.0]])
        assert order_rows(points, query)[0, 0] == 1
        assert distance_rows(points, query)[0, 1] == 0.0

    def test_three_four_five(self):
        dist = distance_rows(np.array([[0.0, 0.0], [3.0, 4.0]]), np.array([[0.0, 0.0]]))
        assert dist.tolist() == [[0.0, 5.0]]

    def test_distances_nondecreasing_and_order_is_permutation(self, rng):
        ds = make_dataset(rng, n=60, dim=3)
        queries = rng.normal(size=(5, 3))
        orders = order_rows(ds.points, queries)
        dist = distance_rows(ds.points, queries)
        for row, order in zip(dist, orders):
            assert np.all(np.diff(row[order]) >= 0)
            assert sorted(order.tolist()) == list(range(60))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            _as_queries([1.0, 2.0, 3.0], 2)

    def test_row_shuffle_orders_same_points(self, rng):
        # With distinct distances the ordered point sequence is invariant
        # to how training rows are stored.
        ds = make_dataset(rng, n=50, dim=2)
        queries = rng.normal(size=(4, 2))
        perm = rng.permutation(50)
        shuffled = ds.points[perm]
        a = ds.points[order_rows(ds.points, queries)]
        b = shuffled[order_rows(shuffled, queries)]
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("p, n, m", [
        pytest.param(1, 300, 40, id="1"),
        pytest.param(2, 300, 40, id="2"),
        pytest.param(12, 300, 40, id="12"),
        pytest.param(6, 4000, 200, id="6-several-chunks"),
    ])
    def test_chunking_never_changes_distances(self, rng, p, n, m):
        # The evidence a batch reports for a query must not depend on the
        # other queries in it.  At p = 12 a row sum spans more than
        # numpy's 8-element summation block; 4000 x 6 spans several
        # chunks at the default chunk size.
        points = rng.normal(size=(n, p))
        queries = rng.normal(size=(m, p))
        default = distance_rows(points, queries)
        one_cell = distance_rows(points, queries, chunk_elems=1)
        alone = np.vstack([distance_rows(points, queries[i : i + 1]) for i in range(m)])
        assert one_cell.tobytes() == default.tobytes()
        assert alone.tobytes() == default.tobytes()


class TestCountToKthMinority:
    """Positions of the k-th minority neighbor: the n_obs matrix of the sweep."""

    @pytest.fixture()
    def fixture(self):
        # Ordering by distance from 0 gives labels [maj, min, maj, min];
        # with equal counts the larger label is the minority.
        ds = LabeledDataset(np.array([[0.0], [1.0], [2.0], [3.0]]), [1, 2, 1, 2])
        clf = fit_binary(ds, 2)
        assert clf.minority_label == 2
        return evidence_arrays(clf, np.array([[0.0]]))[3]

    def test_first_minority_slot_two(self, fixture):
        assert fixture[0, 0] == 2

    def test_second_minority_slot_four(self, fixture):
        assert fixture[0, 1] == 4

    def test_all_minority_prefix_gives_minimum(self):
        ds = LabeledDataset(np.arange(7.0)[:, None], [2, 2, 2, 1, 1, 1, 1])
        n_obs = evidence_arrays(fit_binary(ds, 3), np.array([[0.0]]))[3]
        assert n_obs.tolist() == [[1, 2, 3]]

    def test_sweep_capped_at_minority_count(self):
        # k_max beyond the minority count: the sweep stops at the last
        # minority point instead of asking for a k it cannot reach.
        ds = LabeledDataset(np.array([[0.0], [1.0], [2.0], [3.0]]), [1, 2, 1, 2])
        clf = fit_binary(ds, 3)
        assert clf.k_max_eff == 2
        _, _, e, n_obs = evidence_arrays(clf, np.array([[0.0], [3.0]]))
        assert n_obs.tolist() == [[2, 4], [1, 3]]
        assert e.shape == (2, 2)

    def test_strictly_increasing_in_k_and_at_least_k(self, rng):
        ds = make_dataset(rng, n=80, dim=2, weights=[0.7, 0.3])
        n_min = int(ds.class_counts.min())
        n_obs = evidence_arrays(fit_binary(ds, n_min), rng.normal(size=(6, 2)))[3]
        assert n_obs.shape == (6, n_min)
        assert np.all(np.diff(n_obs, axis=1) > 0)
        assert np.all(n_obs >= np.arange(1, n_min + 1))
