"""Returns computation and overlapping-batch rolling parameter estimation.

Price rows are weekly by contract, WEEKS_PER_YEAR to the year.  At each
decision index the previous `batch_len` return rows (26 weeks by default,
half a year) form the batch, whose sample mean and covariance are
annualised by WEEKS_PER_YEAR.  Estimation never looks at or past the
decision time.  ridge_solver solves with the regularised covariance of
each batch without forming it when the assets outnumber the batch weeks.
The decision indices of one call are a run of consecutive weeks, so each
batch mean is summed lag by lag over contiguous slices of the return rows.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .errors import DataError, DomainError, WarmupError
from .simulate import PriceSeries

Array = NDArray[np.float64]

WEEKS_PER_YEAR = 52
DEFAULT_BATCH_LEN = 26
# The ridge rho = RIDGE_EPS * tr(Sigma)/N gives lambda_min(Sigma + rho I) >= rho
# for any finite PSD Sigma, so the backtest's solve is well posed and
# StaticProblem's pivot floor is met: each Cholesky pivot is a Schur
# complement, so >= lambda_min >= rho, and the floor 1e-12 * max diag <=
# 1e-12 * (tr(Sigma) + rho) is below rho for N < ~10^6 (1e-18 against
# rho = 1e-6 at a zero trace).  Rounding moves a pivot by about
# N * eps * tr(Sigma), some 5e-7 * rho at N = 50.
RIDGE_EPS = 1e-6


class ParamEstimate(NamedTuple):
    mu_hat: Array
    sigma_hat: Array
    batch_start: int
    batch_end: int


def to_returns(p: PriceSeries) -> Array:
    """Per-period simple returns P[k+1]/P[k] - 1, one row per period (T-1, N)."""
    prices = p.prices
    if prices.shape[0] < 2:
        raise DataError("need at least two price rows")
    ok = np.isfinite(prices) & (prices > 0)
    if not ok.all():
        row, col = np.argwhere(~ok)[0]
        raise DataError(f"price {prices[row, col]} at row {row} is not positive and finite")
    return prices[1:] / prices[:-1] - 1.0


def _centred_windows(returns: Array, t_indices, batch_len: int) -> tuple[Array, Array]:
    """Weekly means (k, N) and centred return windows (k, N, batch_len) of
    the batches ending before each of the k decision indices in t_indices,
    which must be consecutive and ascending.

    The batch for index t is return rows [t - batch_len, t), so the
    batches of t and t + 1 share batch_len - 1 rows.  On C-ordered returns
    of N > 1 assets the means add the contiguous slice of each lag's rows
    in lag order, then divide by batch_len: the order in which numpy
    reduces the lag axis of the gathered windows, laid out (k, batch_len,
    N), so the bits are those of their mean.
    """
    t = np.atleast_1d(np.asarray(t_indices, dtype=np.intp))
    if t.size == 0:
        raise DataError("no decision index given")
    if np.any(np.diff(t) != 1):
        raise DataError("decision indices must be consecutive")
    first, k = int(t[0]), t.size
    if first < batch_len:
        raise WarmupError(f"need {batch_len} return observations before index {first}")
    if t[-1] > returns.shape[0]:
        raise DataError(f"t_index {t[-1]} beyond available returns")
    if batch_len < 2:
        raise DataError("batch too short for a covariance")
    windows = np.lib.stride_tricks.sliding_window_view(returns, batch_len, axis=0)
    centred = windows[t - batch_len]                      # (k, N, batch_len), a copy
    if centred.strides[-1] == centred.itemsize:
        # one asset (or Fortran-ordered returns): the gathered lag axis is
        # contiguous, and numpy sums it pairwise
        mean = centred.mean(axis=-1)
    else:
        f = first - batch_len
        mean = returns[f:f + k].copy()
        for j in range(1, batch_len):
            mean += returns[f + j:f + j + k]
        mean /= batch_len
    centred -= mean[..., None]
    return mean, centred


def rolling_estimates(returns: Array, t_indices,
                      batch_len: int = DEFAULT_BATCH_LEN) -> tuple[Array, Array]:
    """Annualised sample means (k, N) and covariances (k, N, N) of the
    batches ending before each of the k decision indices in t_indices, a
    run of consecutive ascending indices (else a DataError)."""
    mean, centred = _centred_windows(returns, t_indices, batch_len)
    cov = centred @ np.swapaxes(centred, -1, -2)
    cov *= WEEKS_PER_YEAR / (batch_len - 1)
    return WEEKS_PER_YEAR * mean, cov


def _check_finite(mu: Array, matrix: Array) -> None:
    """DomainError naming the first batch whose means or regularised
    matrix hold a non-finite entry."""
    if np.isfinite(mu).all() and np.isfinite(matrix).all():
        return
    bad = np.flatnonzero(~(np.isfinite(mu).all(axis=1) & np.isfinite(matrix).all(axis=(1, 2))))
    raise DomainError("non-finite estimate", index=int(bad[0]))


def ridge_solver(returns: Array, t_indices,
                 batch_len: int = DEFAULT_BATCH_LEN) -> tuple[Array, Callable]:
    """Annualised sample means (k, N) of the batches ending before each of
    the k consecutive ascending decision indices in t_indices, and
    solve(b), which returns (Sigma_hat + rho I)^-1 b for b (k, N, m):
    Sigma_hat and rho as in rolling_estimates and regularize_covariance.
    A non-finite estimate is a DomainError whose `index` is its batch.

    With X a batch's centred (N, L) window and c = WEEKS_PER_YEAR/(L - 1),
    Sigma_hat + rho I = rho I + c X X^T.  When N < L the N x N matrices are
    built and solved.  Otherwise the Woodbury identity
        (rho I + c X X^T)^-1 b = (b - c X (rho I_L + c X^T X)^-1 X^T b) / rho
    solves an L x L system, and the N x N matrices are never formed.
    """
    if returns.shape[1] < batch_len:
        mu, sigma = rolling_estimates(returns, t_indices, batch_len)
        _add_ridge(sigma, sigma.shape[-1])
        _check_finite(mu, sigma)
        return mu, partial(np.linalg.solve, sigma)

    mean, x = _centred_windows(returns, t_indices, batch_len)
    c = WEEKS_PER_YEAR / (batch_len - 1)
    gram = np.swapaxes(x, -1, -2) @ x
    gram *= c
    ridge = _add_ridge(gram, x.shape[1])
    mu = WEEKS_PER_YEAR * mean
    _check_finite(mu, gram)

    def solve(b: Array) -> Array:
        y = np.linalg.solve(gram, np.swapaxes(x, -1, -2) @ b)
        return (b - c * (x @ y)) / ridge[:, None, None]
    return mu, solve


def regularize_covariance(sigma: Array) -> Array:
    """Ridge for rank-deficient batch covariances: add RIDGE_EPS * trace/N
    (or RIDGE_EPS at a zero trace) on the diagonal.  Needed whenever the
    asset count exceeds the batch length.  Works on one matrix or a stack
    of them (leading axes)."""
    out = np.array(sigma, dtype=np.float64)
    _add_ridge(out, out.shape[-1])
    return out


def _add_ridge(m: Array, n: int) -> Array:
    """Add the ridge rho = RIDGE_EPS * trace/n (RIDGE_EPS at a zero trace)
    to the diagonal of m in place, over leading axes; returns rho.  n is
    the order of the covariance whose trace m shares."""
    ridge = RIDGE_EPS * np.trace(m, axis1=-2, axis2=-1) / n
    ridge = np.where(ridge <= 0, RIDGE_EPS, ridge)
    np.einsum("...ii->...i", m)[...] += ridge[..., None]
    return ridge
