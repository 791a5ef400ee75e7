"""Binary evidence classifier: fitting, evidence sweep, decisions."""

import math

import numpy as np
import pytest

from nbknn import (
    BinaryEvidenceClassifier,
    LabeledDataset,
    adjusted_pvalue_many,
    binary_evidence_batch,
    classify_binary_batch,
    fit_binary,
)

from conftest import brute_force_evidence, evidence_arrays, make_dataset, minority_share, order_rows


class TestFitBinary:
    def test_p0_and_cap(self):
        # All points coincide, so the k-th minority neighbor is row 900 + k
        # and the evidence is the mid-p value under p0 = 100 / 1000.
        labels = np.r_[np.ones(900, dtype=np.int64), np.full(100, 2, dtype=np.int64)]
        clf = fit_binary(LabeledDataset(np.zeros((1000, 1)), labels), 45)
        assert clf.k_max_eff == 45
        ks = np.arange(1, 46)
        e = adjusted_pvalue_many(ks, 900 + ks, 0.1)
        _, e1, e2 = binary_evidence_batch(clf, [[0.0]])
        assert e1[0] == max(0.5, e.max())
        assert e2[0] == 1.0 - min(0.5, e.min())

    def test_cap_at_minority_count(self):
        labels = np.r_[np.ones(980, dtype=np.int64), np.full(20, 2, dtype=np.int64)]
        clf = fit_binary(LabeledDataset(np.zeros((1000, 1)), labels), 45)
        assert clf.k_max_eff == 20

    def test_count_tie_minority_is_larger_label(self):
        labels = np.r_[np.ones(500, dtype=np.int64), np.full(500, 2, dtype=np.int64)]
        clf = fit_binary(LabeledDataset(np.zeros((1000, 1)), labels), 45)
        assert clf.minority_label == 2
        assert clf.majority_label == 1

    def test_minority_by_count_not_by_label(self):
        labels = np.r_[np.ones(3, dtype=np.int64), np.full(7, 2, dtype=np.int64)]
        clf = fit_binary(LabeledDataset(np.arange(10.0)[:, None], labels), 45)
        assert clf.majority_label == 2
        assert clf.minority_label == 1

    def test_rejects_wrong_class_count(self):
        with pytest.raises(ValueError, match="exactly 2"):
            fit_binary(LabeledDataset([[0.0], [1.0], [2.0]], [1, 2, 3]))

    def test_rejects_empty_class(self):
        ds = LabeledDataset([[0.0], [1.0]], [1, 1], n_classes=2)
        with pytest.raises(ValueError, match="nonempty"):
            fit_binary(ds)

    def test_rejects_bad_k_max(self):
        ds = LabeledDataset([[0.0], [1.0]], [1, 2])
        with pytest.raises(ValueError, match="k_max"):
            fit_binary(ds, 0)


class TestEvidencePair:
    def test_balanced_toy_values(self):
        ds = LabeledDataset([[-1.0], [1.0]], [1, 2])
        clf = fit_binary(ds, 45)
        assert clf.k_max_eff == 1
        _, e1, e2 = binary_evidence_batch(clf, [[0.0]])
        assert e1[0] == pytest.approx(0.625, abs=1e-15)
        assert e2[0] == pytest.approx(0.5, abs=1e-15)

    def test_per_k_matrices_contents(self):
        ds = LabeledDataset([[-1.0], [1.0]], [1, 2])
        clf = fit_binary(ds, 45)
        _, _, e, n_obs = evidence_arrays(clf, np.array([[0.0]]))
        assert n_obs.tolist() == [[2]]
        assert e.tolist() == [[0.625]]

    def test_floors_at_half(self, two_class_fixture):
        clf = fit_binary(two_class_fixture, 3)
        _, e1, e2 = binary_evidence_batch(clf, two_class_fixture.points)
        assert np.all(e1 >= 0.5)
        assert np.all(e2 >= 0.5)

    @pytest.mark.parametrize("k_max", [1, 2, 3])
    def test_matches_exact_rational_oracle(self, two_class_fixture, k_max):
        clf = fit_binary(two_class_fixture, k_max)
        queries = np.array([[0.2, 0.1], [4.4, 0.4], [1.0, 3.9], [2.4, 1.6], [9.0, 9.0]])
        _, got1, got2 = binary_evidence_batch(clf, queries)
        for q, g1, g2 in zip(queries, got1, got2):
            e1, e2 = brute_force_evidence(two_class_fixture, q, k_max)
            assert g1 == pytest.approx(e1, abs=1e-12)
            assert g2 == pytest.approx(e2, abs=1e-12)

    def test_all_minority_prefix_favors_minority(self, two_class_fixture):
        # Query buried among the three minority points.
        clf = fit_binary(two_class_fixture, 3)
        _, e1, e2 = binary_evidence_batch(clf, [[4.6, 0.6]])
        assert e2[0] > e1[0]

    def test_all_minority_prefix_hits_support_start(self):
        # With the first k neighbors all minority, each e_k is half the
        # pmf at the support start, f_k(k)/2 = p0**k / 2.
        points = np.array(
            [[10.0, 10.0], [10.1, 10.0], [10.0, 10.1]]
            + [[float(i), 0.0] for i in range(7)]
        )
        labels = np.r_[np.full(3, 2, dtype=np.int64), np.ones(7, dtype=np.int64)]
        ds = LabeledDataset(points, labels)
        clf = fit_binary(ds, 3)
        e1, e2, e, n_obs = evidence_arrays(clf, np.array([[10.05, 10.05]]))
        p0 = 0.3
        assert n_obs.tolist() == [[1, 2, 3]]
        for k, e_k in enumerate(e[0], start=1):
            assert e_k == pytest.approx(0.5 * p0**k, rel=1e-12)
        assert e2[0] > e1[0]

    def test_deterministic_bit_identical(self, rng):
        ds = make_dataset(rng, n=60, weights=[0.8, 0.2])
        clf = fit_binary(ds, 10)
        q = rng.normal(size=(3, 2))
        first = evidence_arrays(clf, q)
        second = evidence_arrays(clf, q)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    def test_batch_matches_scalar_bitwise(self, rng):
        # Row independence: a batch equals, bit for bit, the batch run on
        # each of its rows alone.
        ds = make_dataset(rng, n=80, weights=[0.75, 0.25])
        clf = fit_binary(ds, 8)
        queries = rng.normal(size=(25, 2))
        labels, e1, e2 = binary_evidence_batch(clf, queries)
        for i in range(25):
            one = binary_evidence_batch(clf, queries[i : i + 1])
            assert one[0][0] == labels[i]
            assert one[1].tobytes() == e1[i : i + 1].tobytes()
            assert one[2].tobytes() == e2[i : i + 1].tobytes()

    def test_batch_matches_scalar_across_tail_branches(self, rng):
        # Heavy imbalance pushes the counting statistic far past the
        # direct-summation window, so both tail strategies are in play;
        # every per-k value of a row is the same alone as in the batch.
        ds = make_dataset(rng, n=400, weights=[0.95, 0.05])
        clf = fit_binary(ds, 10)
        queries = rng.normal(size=(30, 2)) * 1.5
        batch = evidence_arrays(clf, queries)
        spans = batch[3] - np.arange(1, clf.k_max_eff + 1)
        assert spans.max() > 64 and spans.min() <= 64
        for i in range(queries.shape[0]):
            alone = evidence_arrays(clf, queries[i : i + 1])
            for a, b in zip(alone, batch):
                assert a.tobytes() == b[i : i + 1].tobytes()


class TestClassifyBinary:
    def test_majority_on_larger_e1(self):
        # A query deep in majority territory.
        ds = LabeledDataset(
            np.array([[0.0], [0.1], [0.2], [0.3], [9.0]]), [1, 1, 1, 1, 2]
        )
        clf = fit_binary(ds, 1)
        assert classify_binary_batch(clf, [[0.05]]).tolist() == [1]

    def test_minority_needs_strictly_larger_e2(self):
        ds = LabeledDataset([[-1.0], [1.0]], [1, 2])
        clf = fit_binary(ds, 1)
        # At the minority point e at n_obs=1 is 0.25, so e2 = 0.75 > e1 =
        # 0.5: minority wins.  At the majority point the pair is
        # (0.625, 0.5): majority.
        assert classify_binary_batch(clf, [[1.0], [-1.0]]).tolist() == [2, 1]

    def test_exact_tie_goes_to_majority(self):
        # Symmetric duplicated points make every e_k hit both extremes
        # identically, leaving E1 == E2 == 0.625 at the midpoint.
        ds = LabeledDataset([[-1.0], [1.0], [-1.0], [1.0]], [1, 2, 2, 1])
        clf = fit_binary(ds, 2)
        labels, e1, e2 = binary_evidence_batch(clf, [[0.0]])
        assert e1[0] == e2[0]
        assert labels.tolist() == [1]

    def test_scale_equivariance_power_of_two_exact(self, rng):
        ds = make_dataset(rng, n=50, weights=[0.7, 0.3])
        clf = fit_binary(ds, 5)
        queries = rng.normal(size=(20, 2))
        scaled = LabeledDataset(ds.points * 4.0, ds.labels, 2)
        clf_scaled = fit_binary(scaled, 5)
        np.testing.assert_array_equal(
            classify_binary_batch(clf, queries),
            classify_binary_batch(clf_scaled, queries * 4.0),
        )

    def test_scale_equivariance_generic_constant(self, rng):
        ds = make_dataset(rng, n=50, weights=[0.7, 0.3])
        clf = fit_binary(ds, 5)
        queries = rng.normal(size=(20, 2))
        scaled = LabeledDataset(ds.points * 3.7, ds.labels, 2)
        clf_scaled = fit_binary(scaled, 5)
        np.testing.assert_array_equal(
            classify_binary_batch(clf, queries),
            classify_binary_batch(clf_scaled, queries * 3.7),
        )

    def test_prefix_sufficiency(self, rng):
        # The evidence depends only on the ordering prefix up to the
        # k_max_eff-th minority neighbor, holding p0 and the cap fixed.
        ds = make_dataset(rng, n=70, weights=[0.7, 0.3])
        clf = fit_binary(ds, 4)
        query = rng.normal(size=(1, 2))
        full = evidence_arrays(clf, query)

        order = order_rows(ds.points, query)[0]
        hits = np.flatnonzero(ds.labels[order] == clf.minority_label)
        cutoff = hits[clf.k_max_eff - 1] + 1
        prefix_rows = order[:cutoff]
        truncated = BinaryEvidenceClassifier(
            train=LabeledDataset(ds.points[prefix_rows], ds.labels[prefix_rows], 2),
            majority_label=clf.majority_label,
            minority_label=clf.minority_label,
            k_max_eff=clf.k_max_eff,
        )
        pruned = evidence_arrays(truncated, query, minority_share(ds, clf.minority_label))
        for a, b in zip(pruned, full):
            assert a.tobytes() == b.tobytes()

    def test_null_symmetry_mean_evidence_near_half(self):
        # Both classes iid from the same distribution, equal sizes: the
        # mean of e_k over queries should sit near 1/2 for each k.
        from nbknn import Stream

        stream = Stream(2024, 0)
        points = stream.normal(2 * 600).reshape(600, 2)
        labels = np.r_[np.ones(300, dtype=np.int64), np.full(300, 2, dtype=np.int64)]
        ds = LabeledDataset(points, labels)
        clf = fit_binary(ds, 9)
        queries = stream.normal(2 * 400).reshape(400, 2)
        _, _, e, _ = evidence_arrays(clf, queries)
        for col in (0, 2, 8):
            values = e[:, col]
            se = values.std(ddof=1) / math.sqrt(values.size)
            assert abs(values.mean() - 0.5) < 3.0 * se
