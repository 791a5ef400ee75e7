"""One-vs-one and one-vs-rest reductions."""

import numpy as np
import pytest

from nbknn import (
    LabeledDataset,
    binary_evidence_batch,
    classify_binary_batch,
    classify_ovo_plus_batch,
    classify_ovr_plus_batch,
    fit_binary,
    ovr_evidence_batch,
)

import nbknn.multiclass
from nbknn.multiclass import _ovr_round, _reduce
from nbknn.neighbors import Ranking

from conftest import make_dataset


def three_cluster_fixture(rng, n_per=(30, 20, 10)):
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    blocks, labels = [], []
    for cls, (count, center) in enumerate(zip(n_per, centers), start=1):
        blocks.append(rng.normal(size=(count, 2)) * 0.8 + center)
        labels.append(np.full(count, cls, dtype=np.int64))
    return LabeledDataset(np.vstack(blocks), np.concatenate(labels))


class TestReductions:
    def test_two_class_degenerates_to_binary(self, rng):
        for trial in range(60):
            ds = make_dataset(rng, n=int(rng.integers(6, 30)), n_classes=2)
            query = rng.normal(size=(1, 2))
            expected = classify_binary_batch(fit_binary(ds, 45), query)
            np.testing.assert_array_equal(classify_ovo_plus_batch(ds, query, 45), expected)
            np.testing.assert_array_equal(classify_ovr_plus_batch(ds, query, 45), expected)

    def test_two_class_degenerates_when_label_two_is_larger(self, rng):
        # Role assignment must follow counts even when class 2 dominates.
        points = rng.normal(size=(30, 2))
        labels = np.r_[np.ones(8, dtype=np.int64), np.full(22, 2, dtype=np.int64)]
        ds = LabeledDataset(points, labels)
        queries = rng.normal(size=(20, 2))
        expected = classify_binary_batch(fit_binary(ds, 45), queries)
        np.testing.assert_array_equal(classify_ovo_plus_batch(ds, queries, 45), expected)
        np.testing.assert_array_equal(classify_ovr_plus_batch(ds, queries, 45), expected)

    def test_cluster_centers_recovered(self, rng):
        ds = three_cluster_fixture(rng)
        centers = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]
        assert classify_ovo_plus_batch(ds, centers, 15).tolist() == [1, 2, 3]
        assert classify_ovr_plus_batch(ds, centers, 15).tolist() == [1, 2, 3]

    def test_smallest_class_wins_by_empty_winner_set(self, rng):
        # Query at the smallest class's center: every larger class loses
        # its round, so the empty-set branch fires.
        ds = three_cluster_fixture(rng, n_per=(30, 20, 10))
        assert classify_ovo_plus_batch(ds, [[0.0, 10.0]], 10).tolist() == [3]

    def test_row_order_invariance(self, rng):
        ds = three_cluster_fixture(rng)
        queries = rng.normal(size=(12, 2)) * 4.0 + 3.0
        perm = rng.permutation(ds.n)
        shuffled = LabeledDataset(ds.points[perm], ds.labels[perm], ds.n_classes)
        np.testing.assert_array_equal(
            classify_ovo_plus_batch(ds, queries, 10),
            classify_ovo_plus_batch(shuffled, queries, 10),
        )
        np.testing.assert_array_equal(
            classify_ovr_plus_batch(ds, queries, 10),
            classify_ovr_plus_batch(shuffled, queries, 10),
        )

    def test_batch_matches_scalar(self, rng):
        # Row independence: a batch equals the batch run on each row alone,
        # although rows of one batch recurse through different rounds.
        ds = three_cluster_fixture(rng)
        queries = rng.normal(size=(10, 2)) * 5.0 + 2.0
        ovo = classify_ovo_plus_batch(ds, queries, 8)
        ovr = classify_ovr_plus_batch(ds, queries, 8)
        evidence = ovr_evidence_batch(ds, queries, 8)
        for i in range(10):
            row = queries[i : i + 1]
            assert classify_ovo_plus_batch(ds, row, 8)[0] == ovo[i]
            assert classify_ovr_plus_batch(ds, row, 8)[0] == ovr[i]
            assert ovr_evidence_batch(ds, row, 8).tobytes() == evidence[i : i + 1].tobytes()

    def test_empty_query_batch(self, rng):
        ds = three_cluster_fixture(rng)
        none = np.empty((0, 2))
        assert classify_ovo_plus_batch(ds, none, 8).shape == (0,)
        assert classify_ovr_plus_batch(ds, none, 8).shape == (0,)
        assert ovr_evidence_batch(ds, none, 8).shape == (0, 3)

    def test_rejects_empty_class(self):
        ds = LabeledDataset([[0.0], [1.0], [2.0]], [1, 1, 3], n_classes=3)
        with pytest.raises(ValueError, match="no training points"):
            classify_ovo_plus_batch(ds, [[0.0]])
        with pytest.raises(ValueError, match="no training points"):
            classify_ovr_plus_batch(ds, [[0.0]])
        with pytest.raises(ValueError, match="no training points"):
            ovr_evidence_batch(ds, [[0.0]])

    @pytest.mark.parametrize("entry", [classify_ovo_plus_batch, classify_ovr_plus_batch,
                                       ovr_evidence_batch])
    def test_rejects_k_max_below_one(self, rng, entry):
        ds = three_cluster_fixture(rng)
        with pytest.raises(ValueError, match="k_max must be >= 1"):
            entry(ds, [[0.0, 0.0]], 0)

    def test_rejects_single_class(self):
        ds = LabeledDataset([[0.0], [1.0]], [1, 1])
        with pytest.raises(ValueError, match="at least 2"):
            classify_ovr_plus_batch(ds, [[0.0]])


class TestRoundDriver:
    """The shared settle-and-replay driver on a stub round with 3 classes."""

    @staticmethod
    def _settle(wins, score):
        def play(active, prefix):
            return np.array([1, 2, 3]), np.array(wins, dtype=bool), np.array(score)

        prefix = np.zeros(len(wins), dtype=np.int64), np.ones(len(wins), dtype=np.int64)
        return _reduce(play, (1, 2, 3), prefix)[0].tolist()

    def test_fallback_takes_max_score(self):
        # No winner, or every class winning, falls back to the maximum score.
        assert self._settle([[0, 0, 0], [1, 1, 1]], [[0.9, 0.7, 0.1], [0.2, 0.95, 0.6]]) == [1, 2]

    def test_fallback_tie_goes_to_smaller_id(self):
        assert self._settle([[0, 0, 0], [1, 1, 1]], [[0.3, 0.8, 0.8], [0.8, 0.8, 0.1]]) == [2, 1]

    def test_single_winner_beats_score(self):
        assert self._settle([[0, 0, 1]], [[0.9, 0.9, 0.1]]) == [3]


class TestOvrFallback:
    def _no_winner_fixture(self, rng):
        # Search tiny fixtures for one where no class beats the pooled
        # rest, which forces the max-evidence fallback.
        for attempt in range(3000):
            points = rng.normal(size=(9, 1))
            labels = np.asarray(rng.permutation([1, 1, 1, 2, 2, 2, 3, 3, 3]), dtype=np.int64)
            ds = LabeledDataset(points, labels)
            query = rng.normal(size=(1, 1))
            counts = ds.class_counts
            wins = {}
            evid = {}
            for cls in (1, 2, 3):
                rest = tuple(c for c in (1, 2, 3) if c != cls)
                n_cls = int(counts[cls - 1])
                n_rest = ds.n - n_cls
                cand_minor = n_cls < n_rest if n_cls != n_rest else cls > min(rest)
                cand_label = 2 if cand_minor else 1
                pair_labels = np.where(ds.labels == cls, cand_label, 3 - cand_label)
                clf = fit_binary(LabeledDataset(ds.points, pair_labels, 2), 3)
                _, e1, e2 = binary_evidence_batch(clf, query)
                cand_side_wins = e2[0] > e1[0] if cand_minor else e1[0] >= e2[0]
                wins[cls] = cand_side_wins
                evid[cls] = e2[0] if cand_minor else e1[0]
            n_wins = sum(wins.values())
            if n_wins == 0 or n_wins == 3:
                return ds, query, evid
        raise AssertionError("no fallback fixture found")

    def test_fallback_returns_max_evidence_argmax(self, rng):
        ds, query, evid = self._no_winner_fixture(rng)
        # Maximum evidence; ties to the smaller class id.
        expected = max(sorted(evid), key=lambda cls: evid[cls])
        assert classify_ovr_plus_batch(ds, query, 3).tolist() == [expected]
        # The first-round evidence equals the hand-built pairings' values.
        assert ovr_evidence_batch(ds, query, 3).tolist() == [[evid[1], evid[2], evid[3]]]

    def test_round_evidence_reports_all_classes(self, rng):
        ds = three_cluster_fixture(rng)
        ev = ovr_evidence_batch(ds, [[0.0, 0.0]], 10)
        assert ev.shape == (1, 3)
        assert np.all((ev > 0.0) & (ev <= 1.0))
        # At class 1's center its candidate evidence dominates.
        assert int(np.argmax(ev[0])) == 0


class TestConsistencyTrend:
    def test_agreement_with_bayes_grows_with_n(self):
        # Empirical stand-in for the large-sample consistency results:
        # with k_max ~ n^0.7/10, agreement with the density oracle at
        # fixed probes is nondecreasing in n up to a 2-point slack.
        import math

        from nbknn import GaussianClassSpec, bayes_classify_batch, sample_mixture

        # Geometry with enough separation that the convergence signal
        # dominates probe noise at these sample sizes.
        specs = (
            GaussianClassSpec(mean=(0.0, 0.0), sigma2=1.0, prior=0.5),
            GaussianClassSpec(mean=(3.0, 0.0), sigma2=1.0, prior=0.3),
            GaussianClassSpec(mean=(0.0, 3.0), sigma2=2.0, prior=0.2),
        )
        probes = sample_mixture(specs, 100, (0.5, 0.3, 0.2), seed=7, stream=900)
        bayes = bayes_classify_batch(specs, probes.points)

        agreement = {"ovo": [], "ovr": []}
        for n in (300, 1000, 3000):
            train = sample_mixture(specs, n, (0.5, 0.3, 0.2), seed=7, stream=n)
            k_max = math.ceil(n**0.7 / 10.0)
            ovo = classify_ovo_plus_batch(train, probes.points, k_max)
            ovr = classify_ovr_plus_batch(train, probes.points, k_max)
            agreement["ovo"].append(int(np.sum(ovo == bayes)))
            agreement["ovr"].append(int(np.sum(ovr == bayes)))
        for name, values in agreement.items():
            assert values[1] >= values[0] - 2, (name, values)
            assert values[2] >= values[1] - 2, (name, values)


@pytest.mark.parametrize("n_classes, active", [
    (2, (1, 2)), (3, (1, 3)), (3, (1, 2, 3)), (4, (1, 2, 3, 4)), (5, (2, 3, 5)),
])
def test_ovr_round_pairings(rng, monkeypatch, n_classes, active):
    # A J-class OvR+ round plays J pairings; a two-class round plays one,
    # and its other column is the mirror of that pairing, bit for bit.
    ds = make_dataset(rng, n=60, n_classes=n_classes)
    ranking = Ranking(ds, rng.normal(size=(7, 2)), 6)
    played = []
    pair = nbknn.multiclass._pair_evidence
    monkeypatch.setattr(nbknn.multiclass, "_pair_evidence",
                        lambda *args: played.append(args[1]) or pair(*args))
    _, wins, evidence = _ovr_round(6, active, ranking)
    assert played == [(c,) for c in (active[:1] if len(active) == 2 else active)]
    for j, cls in enumerate(active):
        rest = tuple(c for c in active if c != cls)
        cls_wins, cls_side, _ = pair(ranking, (cls,), rest, 6)
        assert wins[:, j].tobytes() == cls_wins.tobytes()
        assert evidence[:, j].tobytes() == cls_side.tobytes()
