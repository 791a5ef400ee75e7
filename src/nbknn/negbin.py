"""Negative binomial tail evaluation for the evidence statistics.

The count statistic behind the classifiers is the number of neighbors
that must be examined before the k-th minority-class neighbor appears.
Under the null hypothesis that neighbor labels arrive independently
with a fixed minority proportion p0, that count N lives on
{k, k+1, ...} with

    f_k(n) = C(n-1, k-1) * p0**k * (1-p0)**(n-k).

This module evaluates log f_k, the lower tail P(N < n), and the mid-p
value P(N < n) + f_k(n)/2 in double precision, stably for k up to 1e4
and n up to 1e7.  Two tail strategies are used, switched on the number
of summands:

* n - k <= 64: direct summation of pmf terms in log space, from one
  table per distinct k of running log-sums (``logaddexp.accumulate``).
  A running sum visits the terms in the same order as a sum that stops
  at n - 1, so each cell gets the bits it would get alone.  The terms
  take their log-gamma values from one vector over 1..max(k)+64, and
  the same row gives the cell's own pmf term;
* n - k > 64: the lower tail equals the regularized incomplete beta
  I_{p0}(k, n-k), with no explicit summation, and the pmf term takes
  its own log-gamma values.

Everything here is a pure function of its arguments and works
elementwise on arrays, so a value never depends on the other entries of
the batch it is computed in.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc, gammaln

# Switch point between direct log-space summation and incomplete beta.
_DIRECT_TERMS = 64

# Lower clamp for probabilities that feed comparisons; keeps evidence
# values strictly positive instead of propagating underflow zeros.
_TINY = 1e-300


def _log_pmf_grid(k: np.ndarray, n: np.ndarray, log_p0: float, log_q0: float) -> np.ndarray:
    """log f_k(n) elementwise for float64 arrays with n >= k >= 1."""
    return (
        gammaln(n)
        - gammaln(k)
        - gammaln(n - k + 1.0)
        + k * log_p0
        + (n - k) * log_q0
    )


def _tail_terms(k: np.ndarray, n: np.ndarray, p0: float) -> tuple[np.ndarray, np.ndarray]:
    """P(N < n) and log f_k(n) elementwise for int64 arrays of identical shape.

    A short cell reads both from one table row per distinct k.  The row's
    p0-free head gammaln(k+s) - gammaln(k) - gammaln(s+1), s = 0..64, is
    looked up in one ``gammaln`` vector over 1..max(k)+64, sized by k and
    never by n; its running log-sums, a left fold, give the bits of the
    cell's own sum.  A long cell takes the incomplete beta and its own
    ``gammaln`` terms.
    """
    log_p0 = math.log(p0)
    log_q0 = math.log1p(-p0)
    span = n - k
    tail = np.zeros(k.shape, dtype=np.float64)
    log_pmf = np.empty(k.shape, dtype=np.float64)

    small = span <= _DIRECT_TERMS
    if np.any(small):
        # One row per distinct k: column s holds log f_k(k + s) in terms and
        # log P(N < k + s) in sums, whose column 0 is log 0.
        ksmall, ssmall = k[small], span[small]
        present = np.zeros(int(ksmall.max()) + 1, dtype=bool)
        present[ksmall] = True
        uk, row = np.flatnonzero(present), (np.cumsum(present) - 1)[ksmall]
        ks, s = uk[:, None], np.arange(_DIRECT_TERMS + 1)
        lgam = gammaln(np.arange(1.0, uk[-1] + _DIRECT_TERMS + 1))  # lgam[x - 1] = gammaln(x)
        head = lgam[ks + s - 1] - lgam[ks - 1] - lgam[s]
        terms = head + ks.astype(np.float64) * log_p0 + s.astype(np.float64) * log_q0
        sums = np.full(terms.shape, -np.inf)
        np.logaddexp.accumulate(terms[:, :-1], axis=1, out=sums[:, 1:])
        tail[small] = np.exp(sums[row, ssmall])
        log_pmf[small] = terms[row, ssmall]

    big = ~small
    if np.any(big):
        tail[big] = betainc(k[big].astype(np.float64), span[big].astype(np.float64), p0)
        log_pmf[big] = _log_pmf_many(k[big], n[big], p0)
    return np.minimum(tail, 1.0), log_pmf


def _log_pmf_many(k: np.ndarray, n: np.ndarray, p0: float) -> np.ndarray:
    """log f_k(n) elementwise for int64 arrays, each cell from its own ``gammaln`` terms."""
    return _log_pmf_grid(
        k.astype(np.float64), n.astype(np.float64), math.log(p0), math.log1p(-p0)
    )


def adjusted_pvalue_many(k, n_obs, p0: float) -> np.ndarray:
    """Mid-p value P(N < n_obs) + f_k(n_obs)/2, elementwise.

    ``k`` and ``n_obs`` are integers (integral floats too), broadcast
    together; the result is clamped to [1e-300, 1] so downstream
    comparisons never see zeros.
    """
    k, n = np.asarray(k), np.asarray(n_obs)
    for name, a in (("k", k), ("n_obs", n)):  # integer arrays are not copied
        if a.dtype.kind not in "iu" and not np.all(np.isfinite(a) & (a == np.round(a))):
            raise ValueError(f"{name} values must be integers")
    k, n = k.astype(np.int64, copy=False), n.astype(np.int64, copy=False)
    shape = np.broadcast_shapes(k.shape, n.shape)
    kb = np.broadcast_to(k, shape).reshape(-1)
    nb = np.broadcast_to(n, shape).reshape(-1)
    if kb.size and kb.min() < 1:
        raise ValueError("k values must be >= 1")
    if np.any(nb < kb):
        raise ValueError("n values below the support start n = k")
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"p0 must lie strictly inside (0, 1), got {p0!r}")
    tail, log_pmf = _tail_terms(kb, nb, p0)
    e = tail + 0.5 * np.exp(log_pmf)
    return np.clip(e, _TINY, 1.0).reshape(shape)
