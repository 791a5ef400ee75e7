"""Tail, pmf, and mid-p value kernels against exact rational oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbknn import adjusted_pvalue_many
from nbknn.negbin import _log_pmf_many
from scipy.special import betainc

from conftest import (
    _lower_tail_many,
    lower_tail_padded_reference,
    midp_padded_reference,
    nb_lower_tail_exact,
    nb_midp_exact,
    nb_pmf_exact,
)


def grid(k: int, ns) -> tuple[np.ndarray, np.ndarray]:
    """int64 (k, n) arrays for one k and the listed n values."""
    n = np.asarray(ns, dtype=np.int64)
    return np.full(n.shape, k, dtype=np.int64), n


class TestParams:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k values"):
            adjusted_pvalue_many(0, 5, 0.5)
        with pytest.raises(ValueError, match="k values"):
            adjusted_pvalue_many(np.array([2, -3]), np.array([5, 5]), 0.5)

    def test_rejects_non_integer_k_and_n(self):
        for k, n in ((1.5, 5), (1, 5.5), (np.array([1.0, 2.5]), 6), (float("nan"), 5), (1, float("inf"))):
            with pytest.raises(ValueError, match="must be integers"):
                adjusted_pvalue_many(k, n, 0.5)

    def test_integral_floats_accepted(self):
        k, n = grid(2, [2, 3, 9, 80])
        expected = adjusted_pvalue_many(k, n, 0.3)
        as_float = adjusted_pvalue_many(k.astype(np.float64), n.astype(np.float64), 0.3)
        assert as_float.tobytes() == expected.tobytes()
        assert adjusted_pvalue_many(1.0, 5.0, 0.5) == adjusted_pvalue_many(1, 5, 0.5)

    def test_rejects_bad_p0(self):
        for p0 in (0.0, 1.0, -0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="p0"):
                adjusted_pvalue_many(1, 1, p0)

    def test_rejects_n_below_support(self):
        with pytest.raises(ValueError, match="below the support"):
            adjusted_pvalue_many(3, 2, 0.2)
        with pytest.raises(ValueError, match="below the support"):
            adjusted_pvalue_many(np.array([3, 3]), np.array([3, 2]), 0.2)


class TestLogPmf:
    def test_geometric_first_trial(self):
        assert _log_pmf_many(*grid(1, [1]), 0.5)[0] == pytest.approx(math.log(0.5), rel=1e-15)

    def test_two_immediate_successes(self):
        assert _log_pmf_many(*grid(2, [2]), 0.5)[0] == pytest.approx(math.log(0.25), rel=1e-15)

    def test_exact_rational_value(self):
        # C(4,1) * 0.3**2 * 0.7**3 evaluated in exact rational arithmetic
        expected = nb_pmf_exact(2, 0.3, 5)
        got = math.exp(_log_pmf_many(*grid(2, [5]), 0.3)[0])
        assert got == pytest.approx(float(expected), rel=1e-13)
        assert got == pytest.approx(0.123480, abs=1e-6)

    @pytest.mark.parametrize("p0", [0.05, 0.1, 0.3, 0.5])
    def test_matches_exact_rational_on_grid(self, p0):
        for k in (1, 2, 5, 11, 20):
            ns = [n for n in (k, k + 1, k + 7, k + 50, 200) if n >= k]
            got = np.exp(_log_pmf_many(*grid(k, ns), p0))
            for n, value in zip(ns, got):
                assert value == pytest.approx(float(nb_pmf_exact(k, p0, n)), rel=1e-12)

    def test_no_overflow_at_extreme_arguments(self):
        values = _log_pmf_many(*grid(10_000, [10_000_000, 2_000_000]), 0.005)
        assert np.all(np.isfinite(values))


class TestCdfBelow:
    def test_empty_sum_at_support_start(self):
        assert _lower_tail_many(*grid(3, [3]), 0.2)[0] == 0.0

    def test_direct_summation_half(self):
        assert _lower_tail_many(*grid(1, [3]), 0.5)[0] == pytest.approx(0.75, abs=1e-15)

    def test_direct_summation_quarters(self):
        assert _lower_tail_many(*grid(2, [4]), 0.5)[0] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("p0", [0.05, 0.3, 0.5])
    def test_matches_exact_rational_including_beta_branch(self, p0):
        # n - k spans both the summation branch (<= 64) and the beta branch.
        for k in (1, 3, 10):
            ns = [n for n in (k, k + 1, k + 64, k + 65, k + 200, 500) if n >= k]
            got = _lower_tail_many(*grid(k, ns), p0)
            for n, value in zip(ns, got):
                expected = float(nb_lower_tail_exact(k, p0, n))
                assert value == pytest.approx(expected, abs=1e-10)

    def test_value_stays_in_unit_interval(self):
        values = _lower_tail_many(*grid(2, range(2, 400)), 0.9)
        assert np.all((values >= 0.0) & (values <= 1.0))


class TestAdjustedPvalue:
    def test_support_start_half_pmf(self):
        assert adjusted_pvalue_many(1, 1, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_one_term_plus_half(self):
        assert adjusted_pvalue_many(1, 2, 0.5) == pytest.approx(0.625, abs=1e-15)

    def test_k2_support_start(self):
        assert adjusted_pvalue_many(2, 2, 0.5) == pytest.approx(0.125, abs=1e-15)

    def test_monotone_in_n_while_increments_representable(self):
        # Strictly increasing until the value saturates at 1 in doubles.
        for k, p0 in [(1, 0.5), (4, 0.1), (9, 0.05), (3, 0.3)]:
            values = adjusted_pvalue_many(*grid(k, range(k, k + 300)), p0)
            for n, prev, cur in zip(range(k + 1, k + 300), values[:-1], values[1:]):
                if prev < 1.0 - 1e-12:
                    assert cur > prev, (k, p0, n)
                else:
                    assert cur >= prev, (k, p0, n)

    def test_midp_symmetry_against_independent_upper_tail(self):
        # P(N < n) + f(n) + P(N > n) = 1; the upper tail comes from an
        # independent identity, not from the lower-tail code path.
        for k, p0 in [(1, 0.5), (2, 0.3), (7, 0.1), (15, 0.05), (20, 0.5)]:
            ks, ns = grid(k, (k, k + 1, k + 17, k + 66, k + 140))
            e = adjusted_pvalue_many(ks, ns, p0)
            upper = betainc(ns - k + 1.0, float(k), 1.0 - p0)
            half_pmf = 0.5 * np.exp(_log_pmf_many(ks, ns, p0))
            for total in e + upper + half_pmf:
                assert total == pytest.approx(1.0, abs=1e-13)

    def test_clamped_away_from_zero(self):
        # Deep-minority evidence underflows the pmf; the clamp keeps it positive.
        assert adjusted_pvalue_many(1000, 1000, 0.005) >= 1e-300

    def test_scalar_equals_array_kernel(self):
        # Row independence: each entry of a batch, on both tail branches,
        # equals the kernel evaluated on that (k, n) pair alone.
        ks = np.array([1, 2, 5, 20, 20, 64, 9_999])
        ns = np.array([1, 9, 80, 20, 500, 128, 10_063])
        for p0 in (0.3, 0.97):
            batch = adjusted_pvalue_many(ks, ns, p0)
            for i in range(ks.size):
                k, n = int(ks[i]), int(ns[i])
                alone = adjusted_pvalue_many(k, n, p0)
                assert alone == batch[i]
                # Smaller and larger k move this cell's row of the short-span
                # table; repeats of its own k fill that row from other spans.
                for others in ([1, 3], [k + 1, 10_000], [1, k + 7, 700], [k, k, 4]):
                    other_k = np.array(others, dtype=np.int64)
                    other_n = other_k + np.array([0, 64, 17])[: other_k.size]
                    for pos in (0, other_k.size):
                        got = adjusted_pvalue_many(
                            np.insert(other_k, pos, k), np.insert(other_n, pos, n), p0
                        )
                        assert got[pos] == alone, (p0, k, n, others, pos)

    def test_array_kernel_validates_inputs(self):
        with pytest.raises(ValueError, match="support"):
            adjusted_pvalue_many(np.array([2, 3]), np.array([5, 2]), 0.3)
        with pytest.raises(ValueError, match="k values"):
            adjusted_pvalue_many(np.array([0]), np.array([5]), 0.3)
        with pytest.raises(ValueError, match="p0"):
            adjusted_pvalue_many(np.array([1]), np.array([5]), 1.0)

    @pytest.mark.parametrize("p0", [0.05, 0.1, 0.3, 0.5])
    def test_matches_exact_rational_spot_grid(self, p0):
        for k in (1, 4, 12, 20):
            ns = [n for n in (k, k + 3, k + 64, k + 65, k + 130, 480) if n >= k]
            got = adjusted_pvalue_many(*grid(k, ns), p0)
            for n, value in zip(ns, got):
                assert value == pytest.approx(float(nb_midp_exact(k, p0, n)), abs=1e-10)


# Batches of (k, n) cells for the table-against-reference check: k drawn
# with repeats from a small pool that mixes small and sparse large values
# (up to 1e4); spans on both sides of the 64-term switch, edges included.
_SPANS = st.one_of(st.sampled_from([0, 1, 63, 64, 65]), st.integers(0, 130))
_P0 = st.one_of(
    st.floats(1e-12, 1e-3),
    st.floats(1e-3, 1.0 - 1e-3),
    st.floats(1.0 - 1e-3, 1.0 - 1e-12),
)


@st.composite
def _cells(draw):
    pool = draw(
        st.lists(st.one_of(st.integers(1, 50), st.integers(51, 10_000)), min_size=1, max_size=6)
    )
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), _SPANS), max_size=60))
    k = np.array([kk for kk, _ in picks], dtype=np.int64)
    return k, k + np.array([span for _, span in picks], dtype=np.int64)


def _edge_cells(ks):
    k = np.repeat(np.array(ks, dtype=np.int64), 5)
    return k, k + np.tile(np.array([0, 1, 63, 64, 65], dtype=np.int64), len(ks))


class TestShortSpanTable:
    """The per-k table gives the same bits as summing each cell alone."""

    @settings(max_examples=300, deadline=None)
    @given(cells=_cells(), p0=_P0)
    @example(cells=(np.zeros(0, np.int64), np.zeros(0, np.int64)), p0=0.5)
    @example(cells=_edge_cells([1, 2, 45, 10_000]), p0=1e-12)
    @example(cells=_edge_cells([1, 2, 45, 10_000]), p0=1.0 - 1e-12)
    @example(cells=_edge_cells([3, 3, 700]), p0=0.25)
    def test_bits_equal_padded_reduce(self, cells, p0):
        k, n = cells
        for got, ref in (
            (_lower_tail_many(k, n, p0), lower_tail_padded_reference(k, n, p0)),
            (adjusted_pvalue_many(k, n, p0), midp_padded_reference(k, n, p0)),
        ):
            assert got.shape == ref.shape == k.shape
            np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("k, n", [(3, 10**7), ([3, 2], [10**7, 60])], ids=["long", "mixed"])
    def test_no_table_sized_by_n(self, k, n):
        # The log-gamma vector spans 1..max(k)+64 of the short cells only,
        # so a cell ten million rows deep allocates next to nothing.
        tracemalloc.start()
        try:
            adjusted_pvalue_many(np.array(k), np.array(n), 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestNormalization:
    @pytest.mark.parametrize("p0", [0.1, 0.5])
    @pytest.mark.parametrize("k", [1, 6, 20])
    def test_pmf_sums_to_one(self, k, p0):
        q = 1.0 - p0
        n = k
        total = 0.0
        while True:
            pmf = math.exp(_log_pmf_many(*grid(k, [n]), p0)[0])
            total += pmf
            ratio = q * n / (n - k + 1)
            if ratio < 1.0:
                bound = pmf * ratio / (1.0 - ratio)
                if bound < 1e-13:
                    break
            n += 1
        assert 1.0 - total < 1e-12
