"""Weekly rolling-estimation backtest with a bond-balanced ledger.

At each decision week the strategy sees mean/covariance estimates from the
previous 26-week batch and names a money vector theta; the ledger converts
it to shares at current prices (self-financing, the bond account absorbs
the balance), then accrues bond interest and stock P&L to the next week.
Initial wealth is zero and short selling is allowed.

No strategy's theta depends on wealth, so `run_backtest` works in stages
over blocks of BLOCK_WEEKS decision weeks: (i) the rolling estimates of the
whole block as (k, N) and (k, N, N) stacks, (ii) the ridge and one pivot
check of the stack, (iii) the block's theta rows; then, after the last
block, (iv) one pass of the ledger recurrence
    W_{k+1} = e^{r dt} (W_k - sum(theta_k)) + (theta_k / P_k) . P_{k+1}.
The stages use numpy's batched LAPACK only, and fixed blocks bound the
memory the stacks take.  `rebalance_step`, `accrue_step` and `Ledger` are
the same ledger one step at a time.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import dynamic_policy, estimate, static_mvo
from .errors import DataError, LedgerError, MvlabError, WarmupError
from .simulate import PriceSeries

Array = NDArray[np.float64]

STRATEGIES = ("static", "simple", "multi", "cev")
BLOCK_WEEKS = 64
LEDGER_TOL = 1e-9


@dataclass(frozen=True)
class BacktestConfig:
    # one of STRATEGIES, or a callable (est, prices_now, t_years, horizon) -> theta
    strategy: object = "simple"
    target: float = 0.15          # static strategy: required annual return
    alpha: float = 0.0            # cev strategy: elasticity exponent
    gamma: float = 1.0
    r: float = 0.025
    batch_len: int = estimate.DEFAULT_BATCH_LEN
    dt: float = 1.0 / 52.0
    notional: float = 1.0         # static strategy: money run through omega

    def __post_init__(self):
        if not callable(self.strategy) and self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.r < 0:
            raise ValueError("riskless rate must be nonnegative")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.batch_len < 2:
            raise ValueError("batch_len must be at least 2")


def _check_identity(bond, stock, wealth, tol: float = LEDGER_TOL):
    """Raise LedgerError where bond + stock != wealth beyond
    tol * max(1, |wealth|), or where either side is not finite (a NaN
    residual compares False); on arrays, `index` is the first such entry."""
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, rejected below
        residual = np.abs(bond + stock - wealth)
    bad = np.flatnonzero(~(residual <= tol * np.maximum(1.0, np.abs(wealth))))
    if bad.size:
        i = int(bad[0])
        raise LedgerError(
            f"ledger identity violated: |bond + stock - wealth| = "
            f"{np.ravel(residual)[i]:.3e} at wealth {np.ravel(wealth)[i]:.6g}",
            index=i if np.ndim(residual) else None,
        )


@dataclass
class Ledger:
    bond_cash: float
    shares: Array
    wealth: float

    def check(self, prices: Array, tol: float = LEDGER_TOL):
        _check_identity(self.bond_cash, float(self.shares @ prices), self.wealth, tol)


@dataclass(frozen=True)
class WealthPath:
    times: Array
    wealth: Array
    bond: Array
    stock_value: Array
    week_index: Array


def rebalance_step(ledger: Ledger, prices_now: Array, theta_money: Array) -> Ledger:
    """Move to the target money allocation; wealth is unchanged."""
    prices_now = np.asarray(prices_now, dtype=np.float64)
    if np.any(prices_now <= 0):
        raise DataError("prices must be positive at rebalancing")
    theta_money = np.asarray(theta_money, dtype=np.float64)
    shares = theta_money / prices_now
    bond_cash = ledger.wealth - float(np.sum(theta_money))
    return Ledger(bond_cash=bond_cash, shares=shares, wealth=ledger.wealth)


def accrue_step(ledger: Ledger, prices_next: Array, dt: float, r: float) -> Ledger:
    """One period of bond interest and stock P&L at fixed shares."""
    prices_next = np.asarray(prices_next, dtype=np.float64)
    bond_cash = ledger.bond_cash * np.exp(r * dt)
    wealth = bond_cash + float(ledger.shares @ prices_next)
    return Ledger(bond_cash=float(bond_cash), shares=ledger.shares, wealth=float(wealth))


def _block_theta(cfg: BacktestConfig, panel: estimate.ReturnsPanel, prices: Array,
                 rows: Array, horizon: float) -> Array:
    """Money vectors (k, N) of the strategy at decision rows `rows`."""
    mu, sigma = estimate.rolling_estimates(panel, rows, cfg.batch_len)
    prices_now = prices[rows]
    if callable(cfg.strategy):
        return np.array([
            np.asarray(cfg.strategy(
                estimate.ParamEstimate(mu_hat=mu[i], sigma_hat=sigma[i],
                                       batch_start=t - cfg.batch_len, batch_end=t),
                prices_now[i], t * cfg.dt, horizon), float)
            for i, t in enumerate(rows.tolist())
        ])
    sigma = estimate.regularize_covariance(sigma)
    static_mvo.robust_cholesky(sigma)   # the pivot floor; the factor is not used
    n = sigma.shape[-1]
    tau = horizon - rows * cfg.dt
    if cfg.strategy == "static":
        if n == 1:
            # A single asset cannot generally hit the target; invest fully.
            return np.full((rows.size, 1), cfg.notional)
        return cfg.notional * static_mvo.frontier_weights(sigma, mu, cfg.target)[0]
    if cfg.strategy in ("simple", "multi"):
        return dynamic_policy.gbm_demand(mu, sigma, cfg.r, cfg.gamma, tau)
    # cev: read the estimated covariance as the instantaneous covariance of
    # dS/S at current prices, so sigma_bar_i = sqrt(Sigma_ii) / S_i^(alpha/2).
    vols = np.sqrt(np.diagonal(sigma, axis1=-2, axis2=-1))
    corr = sigma / (vols[:, :, None] * vols[:, None, :])
    corr[:, np.arange(n), np.arange(n)] = 1.0
    corr = 0.5 * (corr + np.swapaxes(corr, -1, -2))
    sigma_bar = vols / prices_now ** (cfg.alpha / 2.0)
    alpha = np.full(n, cfg.alpha)
    myopic, hedging = dynamic_policy.cev_demand(mu, sigma_bar, corr, alpha, prices_now,
                                                cfg.r, cfg.gamma, tau)
    return myopic + hedging


def run_backtest(prices: PriceSeries, cfg: BacktestConfig) -> WealthPath:
    """Weekly backtest from initial wealth 0; returns the recorded wealth
    path, one row per decision week plus the final week."""
    n_rows = prices.prices.shape[0]
    if n_rows < cfg.batch_len + 3:
        raise WarmupError(
            f"need at least {cfg.batch_len + 3} price rows, got {n_rows}"
        )
    panel = estimate.to_returns(prices)
    horizon = (n_rows - 1) * cfg.dt
    rows = np.arange(cfg.batch_len + 1, n_rows - 1)
    theta = np.empty((rows.size, prices.n_assets))
    for start in range(0, rows.size, BLOCK_WEEKS):
        block = rows[start:start + BLOCK_WEEKS]
        with _naming_week(block):
            theta[start:start + block.size] = _block_theta(cfg, panel, prices.prices,
                                                           block, horizon)
    with _naming_week(rows):
        return _ledger(prices.prices, rows, theta, cfg)


@contextmanager
def _naming_week(rows: Array):
    """Re-raise an error about one entry of a stack of weeks (its `index`)
    with that entry's decision week in the message."""
    try:
        yield
    except MvlabError as exc:
        if exc.index is None:
            raise
        raise type(exc)(f"decision week {rows[exc.index]}: {exc}") from None


def _ledger(prices: Array, rows: Array, theta: Array, cfg: BacktestConfig) -> WealthPath:
    """The ledger recurrence over all decision weeks, with the
    self-financing identity checked at every rebalancing."""
    prices_now = prices[rows]
    shares = theta / prices_now
    spent = theta.sum(axis=1)
    # Row-wise shares . prices as BLAS dot products, as in Ledger.check.
    stock_now = (shares[:, None, :] @ prices_now[:, :, None])[:, 0, 0]
    stock = (shares[:, None, :] @ prices[rows + 1][:, :, None])[:, 0, 0]
    growth = float(np.exp(cfg.r * cfg.dt))
    w, wealth, bond = 0.0, [0.0], [0.0]
    for cost, held in zip(spent.tolist(), stock.tolist()):
        b = (w - cost) * growth
        w = b + held
        bond.append(b)
        wealth.append(w)
    wealth, bond = np.array(wealth), np.array(bond)
    # Wealth after accrual is bond + stock by construction; at rebalancing
    # the cash left, W_k - sum(theta_k), plus the shares' value must be W_k.
    _check_identity(wealth[:-1] - spent, stock_now, wealth[:-1])
    weeks = np.concatenate([rows[:1], rows + 1])
    return WealthPath(
        times=weeks * cfg.dt,
        wealth=wealth,
        bond=bond,
        stock_value=np.concatenate([[0.0], stock]),
        week_index=weeks,
    )
