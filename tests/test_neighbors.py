"""Dataset container, distances and neighbor ordering, and minority counting."""

import numpy as np
import pytest

from nbknn import LabeledDataset, fit_binary
from nbknn.cli import main
from nbknn.neighbors import _BLOCK_CELLS, _as_queries, _exact_head, distance_rows

from conftest import (
    argsort_reference,
    distance_rows_reference,
    evidence_arrays,
    make_dataset,
    order_rows,
)


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
        pytest.param(1, 300, 250, id="1"),
        pytest.param(2, 300, 250, id="2"),
        pytest.param(12, 300, 250, id="12"),
        pytest.param(6, 4000, 200, id="6-several-chunks"),
    ])
    def test_chunking_never_changes_distances(self, rng, p, n, m):
        # The evidence a batch reports for a query must not depend on the
        # other queries in it.  Every shape spans several row blocks (25
        # at 4000 x 6), and at p = 12 a cell adds more than numpy's
        # 8-term unroll.
        points = rng.normal(size=(n, p))
        queries = rng.normal(size=(m, p))
        assert m * n > 2 * _BLOCK_CELLS
        batch = distance_rows(points, queries)
        alone = np.vstack([distance_rows(points, queries[i : i + 1]) for i in range(m)])
        assert alone.tobytes() == batch.tobytes()
        assert batch.tobytes() == distance_rows_reference(points, queries).tobytes()

    @pytest.mark.parametrize("p", [1, 2, 7, 8, 9, 12, 130])
    def test_layout_never_changes_distances(self, rng, p):
        # numpy sums F-ordered differences as a left fold and C-ordered
        # ones pairwise; standardized CSV features arrive F-ordered.  A
        # batch and its rows alone give the same bytes in every layout.
        points = rng.normal(size=(60, p))
        queries = rng.normal(size=(25, p))
        expected = distance_rows_reference(points, queries).tobytes()
        for x in (points, np.asfortranarray(points)):
            for q in (queries, np.asfortranarray(queries)):
                assert distance_rows(x, q).tobytes() == expected
                alone = np.vstack([distance_rows(x, q[i : i + 1]) for i in range(len(q))])
                assert alone.tobytes() == expected

    def test_distances_bit_for_bit_with_numpy_sum(self, rng):
        # Every p from 1 to 300 crosses each branch of the pairwise order
        # (fold, 8 lanes, halves at 128, nested halves).  Magnitudes near
        # 1e+-155 square to inf and to subnormals; zero and duplicate rows
        # give exact zeros.
        exponents = np.array([-162.0, -158.0, -155.0, 0.0, 3.0, 150.0, 155.0])
        seen_inf = seen_tiny = False
        with np.errstate(over="ignore"):
            for p in range(1, 301):
                points = rng.normal(size=(23, p)) * 10.0 ** rng.choice(exponents, size=(23, p))
                queries = rng.normal(size=(7, p)) * 10.0 ** rng.choice(exponents, size=(7, p))
                points[0] = 0.0
                points[1] = points[2]
                queries[0] = points[3]
                queries[1] = 0.0
                expected = distance_rows_reference(points, queries)
                assert distance_rows(points, queries).tobytes() == expected.tobytes(), p
                seen_inf |= bool(np.isinf(expected).any())
                seen_tiny |= bool(np.any((expected > 0) & (expected < 1e-154)))
                assert np.all(expected[:, 1] == expected[:, 2]) and expected[0, 3] == 0.0
        assert seen_inf and seen_tiny

    @pytest.mark.parametrize("bufsize", [16, 8192, 65536])
    @pytest.mark.parametrize("n", [64, 1000, 2730, 2731, 10000])
    def test_ufunc_buffer_never_changes_distances(self, rng, n, bufsize):
        # Three rows of n <= 2730 fit numpy's default buffer of 8192
        # elements; distance_rows runs with a smaller one of its own and
        # gives the caller's back.  Each shape spans more than two blocks.
        points = rng.normal(size=(n, 6))
        queries = rng.normal(size=(2 * _BLOCK_CELLS // n + 1, 6))
        expected = distance_rows_reference(points, queries).tobytes()
        caller = np.setbufsize(bufsize)
        try:
            assert distance_rows(points, queries).tobytes() == expected
            assert np.getbufsize() == bufsize
            with pytest.raises(IndexError):  # more point than query dimensions
                distance_rows(points, queries[:, :5])
            assert np.getbufsize() == bufsize
        finally:
            np.setbufsize(caller)

    def test_library_calls_keep_the_callers_ufunc_buffer(self, tmp_path):
        before = np.getbufsize()
        args = ["simulate", "--design", "location", "--alpha", "0.3", "--trials", "1", "--seed", "7",
                "--methods", "proposed,knn", "--train-size", "80", "--test-size", "60",
                "--output", str(tmp_path / "report.json")]
        assert main(args) == 0
        assert np.getbufsize() == before

    @pytest.mark.parametrize("case", ["every-row-tied", "no-row-tied", "mixed", "width-1"])
    def test_exact_head_equals_stable_argsort(self, rng, case):
        # Integer-valued distances make ties common, also at the head's
        # last distance; a tie-free row has one sorted order, and tied
        # entries must keep index order.  Every row at every depth.
        tied = rng.integers(0, 6, size=(30, 40)).astype(np.float64)
        distinct = rng.permuted(np.tile(np.arange(40.0), (30, 1)), axis=1)
        dist = {
            "every-row-tied": tied,
            "no-row-tied": distinct,
            "mixed": np.where(np.arange(30)[:, None] % 3 == 0, tied, distinct),
            "width-1": tied[:, :1],
        }[case]
        want = argsort_reference(dist)
        for r in range(len(dist)):
            for d in range(1, dist.shape[1] + 1):
                np.testing.assert_array_equal(_exact_head(dist[r], d), want[r, :d])


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
