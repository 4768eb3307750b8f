"""Returns computation and overlapping-batch rolling parameter estimation.

Price rows are weekly by contract, WEEKS_PER_YEAR to the year.  At each
decision index the previous `batch_len` return rows (26 weeks by default,
half a year) form the batch, whose sample mean and covariance are
annualised by WEEKS_PER_YEAR.  Estimation never looks at or past the
decision time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DataError, WarmupError
from .simulate import PriceSeries

Array = NDArray[np.float64]

WEEKS_PER_YEAR = 52
DEFAULT_BATCH_LEN = 26
# The ridge rho = RIDGE_EPS * tr(Sigma)/N proves the pivot floor of
# static_mvo.robust_cholesky for any finite PSD Sigma: each Cholesky pivot of
# Sigma + rho I is a Schur complement, so >= lambda_min >= rho, and the floor
# 1e-12 * max diag <= 1e-12 * (tr(Sigma) + rho) is below rho for N < ~10^6
# (1e-18 against rho = 1e-6 at a zero trace).  Rounding moves a pivot by about
# N * eps * tr(Sigma), some 5e-7 * rho at N = 50.
RIDGE_EPS = 1e-6


@dataclass(frozen=True)
class ParamEstimate:
    mu_hat: Array
    sigma_hat: Array
    batch_start: int
    batch_end: int


def to_returns(p: PriceSeries) -> Array:
    """Per-period simple returns P[k+1]/P[k] - 1, one row per period (T-1, N)."""
    prices = p.prices
    if prices.shape[0] < 2:
        raise DataError("need at least two price rows")
    bad = np.argwhere(~(np.isfinite(prices) & (prices > 0)))
    if bad.size:
        row, col = bad[0]
        raise DataError(f"price {prices[row, col]} at row {row} is not positive and finite")
    return prices[1:] / prices[:-1] - 1.0


def rolling_estimates(returns: Array, t_indices,
                      batch_len: int = DEFAULT_BATCH_LEN) -> tuple[Array, Array]:
    """Annualised sample means (k, N) and covariances (k, N, N) of the
    batches ending before each of the k decision indices in t_indices.

    The batch for index t is return rows [t - batch_len, t), so the
    batches of t and t + 1 share batch_len - 1 rows; all batches are read
    at once through a sliding window over the return rows.
    """
    t = np.atleast_1d(np.asarray(t_indices, dtype=np.intp))
    if t.min() < batch_len:
        raise WarmupError(
            f"need {batch_len} return observations before index {t.min()}"
        )
    if t.max() > returns.shape[0]:
        raise DataError(f"t_index {t.max()} beyond available returns")
    if batch_len < 2:
        raise DataError("batch too short for a covariance")
    windows = np.lib.stride_tricks.sliding_window_view(returns, batch_len, axis=0)
    centred = windows[t - batch_len]                      # (k, N, batch_len), a copy
    mean = centred.mean(axis=-1)
    centred -= mean[..., None]
    cov = centred @ np.swapaxes(centred, -1, -2)
    cov *= WEEKS_PER_YEAR / (batch_len - 1)
    return WEEKS_PER_YEAR * mean, cov


def regularize_covariance(sigma: Array) -> Array:
    """Ridge for rank-deficient batch covariances: add RIDGE_EPS * trace/N
    (or RIDGE_EPS at a zero trace) on the diagonal.  Needed whenever the
    asset count exceeds the batch length.  Works on one matrix or a stack
    of them (leading axes)."""
    sigma = np.asarray(sigma, dtype=np.float64)
    n = sigma.shape[-1]
    ridge = RIDGE_EPS * np.trace(sigma, axis1=-2, axis2=-1) / n
    ridge = np.where(ridge <= 0, RIDGE_EPS, ridge)
    out = sigma.copy()
    np.einsum("...ii->...i", out)[...] += ridge[..., None]
    return out
