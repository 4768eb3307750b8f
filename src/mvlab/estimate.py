"""Returns computation and overlapping-batch rolling parameter estimation.

Weekly simple returns; at each decision index the previous `batch_len`
return rows (26 weeks by default, half a year) form the batch, whose sample
mean and covariance are annualised by the factor 52 * dt-inverse convention
(x52 for weekly data).  Estimation never looks at or past the decision time.
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
RIDGE_EPS = 1e-6


@dataclass(frozen=True)
class ReturnsPanel:
    returns: Array
    times: Array

    @property
    def n_assets(self) -> int:
        return self.returns.shape[1]


@dataclass(frozen=True)
class ParamEstimate:
    mu_hat: Array
    sigma_hat: Array
    batch_start: int
    batch_end: int


def to_returns(p: PriceSeries) -> ReturnsPanel:
    """Per-period simple returns, P[k+1]/P[k] - 1."""
    prices = p.prices
    if prices.shape[0] < 2:
        raise DataError("need at least two price rows")
    bad = np.argwhere(~(np.isfinite(prices) & (prices > 0)))
    if bad.size:
        row, col = bad[0]
        raise DataError(f"price {prices[row, col]} at row {row} is not positive and finite")
    rets = prices[1:] / prices[:-1] - 1.0
    return ReturnsPanel(returns=rets, times=p.times[1:])


def rolling_estimates(r: ReturnsPanel, t_indices,
                      batch_len: int = DEFAULT_BATCH_LEN,
                      periods_per_year: int = WEEKS_PER_YEAR) -> tuple[Array, Array]:
    """Annualised sample means (k, N) and covariances (k, N, N) of the
    batches ending before each of the k decision indices in t_indices.

    The batch for index t is return rows [t - batch_len, t); all batches
    are read at once through a sliding window over the return rows.
    """
    t = np.atleast_1d(np.asarray(t_indices, dtype=np.intp))
    if t.min() < batch_len:
        raise WarmupError(
            f"need {batch_len} return observations before index {t.min()}"
        )
    if t.max() > r.returns.shape[0]:
        raise DataError(f"t_index {t.max()} beyond available returns")
    if batch_len < 2:
        raise DataError("batch too short for a covariance")
    windows = np.lib.stride_tricks.sliding_window_view(r.returns, batch_len, axis=0)
    centred = windows[t - batch_len]                      # (k, N, batch_len), a copy
    mean = centred.mean(axis=-1)
    centred -= mean[..., None]
    cov = centred @ np.swapaxes(centred, -1, -2)
    cov *= periods_per_year / (batch_len - 1)
    return periods_per_year * mean, cov


def rolling_estimate(r: ReturnsPanel, t_index: int,
                     batch_len: int = DEFAULT_BATCH_LEN,
                     periods_per_year: int = WEEKS_PER_YEAR) -> ParamEstimate:
    """Annualised sample mean and covariance of the batch ending before t_index.

    Uses return rows [t_index - batch_len, t_index); consecutive calls at
    t and t+1 therefore share batch_len - 1 observations.
    """
    mu, sigma = rolling_estimates(r, t_index, batch_len, periods_per_year)
    return ParamEstimate(mu_hat=mu[0], sigma_hat=sigma[0],
                         batch_start=t_index - batch_len, batch_end=t_index)


def regularize_covariance(sigma: Array, eps: float = RIDGE_EPS) -> Array:
    """Ridge for rank-deficient batch covariances: add eps * trace/N on the
    diagonal.  Needed whenever the asset count exceeds the batch length.
    Works on one matrix or a stack of them (leading axes)."""
    sigma = np.asarray(sigma, dtype=np.float64)
    n = sigma.shape[-1]
    ridge = eps * np.trace(sigma, axis1=-2, axis2=-1) / n
    ridge = np.where(ridge <= 0, eps, ridge)
    out = sigma.copy()
    np.einsum("...ii->...i", out)[...] += ridge[..., None]
    return out
