"""Allocation matrix, macro scores, efficiency, and trial aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbknn import (
    ConfusionMatrix,
    aggregate_trials,
    confusion,
    efficiency_scores,
    prf,
)
from nbknn.metrics import macro_f1_many


class TestConfusion:
    def test_perfect_prediction_diagonal(self):
        cm = confusion([1, 2, 1], [1, 2, 1], 2)
        assert cm.counts.tolist() == [[2, 0], [0, 1]]

    def test_antidiagonal(self):
        cm = confusion([1, 1], [2, 2], 2)
        assert cm.counts.tolist() == [[0, 2], [0, 0]]

    def test_hand_count(self):
        cm = confusion([1, 2, 2, 1], [1, 2, 1, 1], 2)
        assert cm.counts.tolist() == [[2, 0], [1, 1]]

    def test_margins(self):
        cm = confusion([1, 2, 2, 1], [1, 2, 1, 1], 2)
        assert cm.row_totals.tolist() == [2, 2]
        assert cm.col_totals.tolist() == [3, 1]
        assert cm.total == 4

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal-length"):
            confusion([1, 2], [1], 2)

    def test_out_of_range_label(self):
        with pytest.raises(ValueError, match="must lie in"):
            confusion([1, 3], [1, 2], 2)


class TestPrf:
    def test_identity_matrix_all_ones(self):
        report = prf(ConfusionMatrix(np.eye(3, dtype=np.int64) * 5))
        assert report.macro_precision == 1.0
        assert report.macro_recall == 1.0
        assert report.macro_f1 == 1.0

    def test_hand_arithmetic(self):
        report = prf(ConfusionMatrix(np.array([[2, 0], [1, 1]])))
        assert report.macro_precision == pytest.approx(5 / 6)
        assert report.macro_recall == pytest.approx(3 / 4)
        assert report.macro_f1 == pytest.approx((4 / 5 + 2 / 3) / 2)

    def test_degenerate_class_scores_zero(self):
        # Class 3 never appears and is never predicted.
        cm = confusion([1, 2, 1], [1, 2, 2], 3)
        report = prf(cm)
        assert report.precision[2] == 0.0
        assert report.recall[2] == 0.0
        assert report.f1[2] == 0.0

    def test_relabel_permutes_per_class_and_fixes_macro(self, rng):
        counts = rng.integers(0, 30, size=(4, 4))
        base = prf(ConfusionMatrix(counts))
        perm = rng.permutation(4)
        permuted = prf(ConfusionMatrix(counts[np.ix_(perm, perm)]))
        np.testing.assert_allclose(permuted.precision, base.precision[perm])
        np.testing.assert_allclose(permuted.recall, base.recall[perm])
        assert permuted.macro_f1 == pytest.approx(base.macro_f1)
        assert permuted.macro_precision == pytest.approx(base.macro_precision)

    def test_balanced_test_macro_recall_equals_accuracy(self):
        # Equal row totals: macro recall must equal plain accuracy.
        # Power-of-two margins keep the float arithmetic exact.
        counts = np.array([[6, 2], [3, 5]])
        report = prf(ConfusionMatrix(counts))
        assert report.macro_recall == (6 + 5) / 16

        # Generic integer fixture, identity checked in exact rationals.
        from fractions import Fraction

        counts = np.array([[37, 13], [21, 29]])
        recalls = [Fraction(int(counts[i, i]), int(counts[i].sum())) for i in range(2)]
        assert sum(recalls, Fraction(0)) / 2 == Fraction(37 + 29, 100)
        report = prf(ConfusionMatrix(counts))
        assert report.macro_recall == pytest.approx((37 + 29) / 100, abs=1e-15)


class TestEfficiency:
    def test_equal_values_both_one(self):
        assert efficiency_scores({"A": 0.8, "B": 0.8}) == {"A": 1.0, "B": 1.0}

    def test_halved(self):
        scores = efficiency_scores({"A": 0.9, "B": 0.45})
        assert scores == {"A": 1.0, "B": 0.5}

    def test_division_on_percent_shaped_inputs(self):
        scores = efficiency_scores({"A": 75.0, "B": 74.59, "C": 67.66})
        assert scores["A"] == 1.0
        assert scores["B"] == pytest.approx(0.99453, abs=5e-6)
        assert scores["C"] == pytest.approx(0.90213, abs=5e-6)

    def test_scale_invariant(self):
        base = efficiency_scores({"A": 0.3, "B": 0.7, "C": 0.55})
        scaled = efficiency_scores({"A": 3.0, "B": 7.0, "C": 5.5})
        for name in base:
            assert scaled[name] == pytest.approx(base[name], rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            efficiency_scores({"A": 0.0, "B": 0.5})

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            efficiency_scores({})


class TestAggregateTrials:
    def _report(self, value):
        cm = ConfusionMatrix(np.array([[1, 0], [0, 1]]))
        base = prf(cm)
        return type(base)(
            precision=base.precision,
            recall=base.recall,
            f1=base.f1,
            macro_precision=value,
            macro_recall=value,
            macro_f1=value,
        )

    def test_single_trial_zero_se(self):
        report = aggregate_trials([self._report(0.7)], "m")
        assert report.f1.mean == 0.7
        assert report.f1.se == 0.0
        assert report.trials == 1

    def test_identical_trials_zero_se(self):
        report = aggregate_trials([self._report(0.6)] * 2, "m")
        assert report.f1.se == 0.0

    def test_two_values_hand_se(self):
        report = aggregate_trials([self._report(0.7), self._report(0.8)], "m")
        assert report.f1.mean == pytest.approx(0.75)
        assert report.f1.se == pytest.approx(0.05)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            aggregate_trials([], "m")


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 40), st.integers(1, 6), st.data())
def test_macro_f1_many_equals_prf_per_row(n_classes, m, rows, data):
    # Small label sets leave classes never predicted or never actual.
    labels = st.lists(st.integers(1, n_classes), min_size=m, max_size=m)
    actual = np.array(data.draw(labels))
    predicted = np.array([data.draw(labels) for _ in range(rows)])
    got = macro_f1_many(actual, predicted, n_classes)
    assert got.dtype == np.float64 and got.shape == (rows,)
    for score, row in zip(got.tolist(), predicted):
        want = prf(confusion(actual, row, n_classes)).macro_f1
        assert np.float64(score).tobytes() == np.float64(want).tobytes()
