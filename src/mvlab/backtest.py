"""Weekly rolling-estimation backtest with a bond-balanced ledger.

Price rows are weekly, DT = 1/WEEKS_PER_YEAR years apart.  At each decision
week the strategy sees mean/covariance estimates from the previous 26-week
batch and names a money vector theta; the ledger converts it to shares at
current prices (self-financing, the bond account absorbs the balance), then
accrues bond interest and stock P&L to the next week.  Initial wealth is
zero and short selling is allowed.

No strategy's theta depends on wealth, so `run_backtest` works in stages
over blocks of k decision weeks: (i) the block's (k, N) means and a solve
b -> (Sigma_hat + rho I)^-1 b (estimate.ridge_solver), whose finiteness
check and ridge keep every Sigma_hat definite, (ii) the block's
theta rows, each strategy's closed form called with that solve; then,
after the last block, (iii) one pass of the ledger recurrence
    W_{k+1} = e^{r DT} (W_k - sum(theta_k)) + (theta_k / P_k) . P_{k+1}.
With N assets and batch length L, the solve works on (k, N, N) stacks when
N < L; when N >= L it solves the (k, L, L) system of the Woodbury
identity and never forms a (k, N, N) stack.  Only a callable strategy,
which receives each week's ParamEstimate, gets the covariance stack.  The
stages use numpy's batched LAPACK.  A block takes as many weeks as fit
BLOCK_ENTRIES stack entries at N max(N, L) a week, which bounds every
stack it forms: a small panel runs in one block, a very wide one a week
at a time.  The blocks run in week order on the calling thread, so a
callable strategy is called in week order.

For N > 1 the static strategy's weights are affine in the target through
Sigma^-1 [1, mu] and the frontier constants a, b, c (static_mvo._frontier_solve),
so its block stages compute that table, kept for the last panel and batch_len
solved (_frontier_table), and the target step runs over all of it afterwards.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from . import dynamic_policy, estimate, static_mvo
from .errors import DataError, LedgerError, MvlabError, WarmupError
from .simulate import PriceSeries

Array = NDArray[np.float64]

STRATEGIES = ("static", "simple", "multi", "cev")
# float64 entries (4 MiB) a block's stacks may hold
BLOCK_ENTRIES = 2**19
LEDGER_TOL = 1e-9
DT = 1.0 / estimate.WEEKS_PER_YEAR


@dataclass(frozen=True)
class BacktestConfig:
    # one of STRATEGIES, or a callable (est, prices_now, t_years, horizon) -> theta
    strategy: object = "simple"
    target: float = 0.15          # static strategy: required annual return
    alpha: float = 0.0            # cev strategy: elasticity exponent
    gamma: float = 1.0
    r: float = 0.025
    batch_len: int = estimate.DEFAULT_BATCH_LEN
    notional: float = 1.0         # static strategy: money run through omega

    def __post_init__(self):
        if not callable(self.strategy) and self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        for name in ("target", "alpha", "gamma", "r", "notional"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.r < 0:
            raise ValueError("riskless rate must be nonnegative")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        object.__setattr__(self, "batch_len",
                           dynamic_policy._check_count("batch_len", self.batch_len, 2))


def _check_identity(bond: Array, stock: Array, wealth: Array, gross: Array):
    """Raise LedgerError at the first entry where bond + stock != wealth
    beyond LEDGER_TOL * max(1, gross), gross being the money the entry
    moves, or where either side is not finite (a NaN residual compares
    False); its `index` is that entry."""
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, rejected below
        residual = np.abs(bond + stock - wealth)
    bad = np.flatnonzero(~(residual <= LEDGER_TOL * np.maximum(1.0, gross)))
    if bad.size:
        i = int(bad[0])
        raise LedgerError(
            f"ledger identity violated: |bond + stock - wealth| = "
            f"{residual[i]:.3e} at wealth {wealth[i]:.6g}, gross {gross[i]:.6g}",
            index=i)


class WealthPath(NamedTuple):
    times: Array
    wealth: Array
    bond: Array
    stock_value: Array
    week_index: Array


def _block_theta(cfg: BacktestConfig, returns: Array, prices: Array,
                 rows: Array, horizon: float) -> Array:
    """Money vectors (k, N) of the strategy at decision rows `rows`; for
    the static strategy on N > 1 assets, the rows of its frontier table
    (see _frontier_table) instead."""
    prices_now = prices[rows]
    if callable(cfg.strategy):
        mu, sigma = estimate.rolling_estimates(returns, rows, cfg.batch_len)
        theta = np.empty(prices_now.shape)
        for i, t in enumerate(rows.tolist()):
            theta_i = cfg.strategy(
                estimate.ParamEstimate(mu_hat=mu[i], sigma_hat=sigma[i],
                                       batch_start=t - cfg.batch_len, batch_end=t),
                prices_now[i], t * DT, horizon)
            try:
                theta_i = np.asarray(theta_i, float)
            except (TypeError, ValueError) as exc:
                raise DataError(f"strategy returned theta that is not numeric: {exc}",
                                index=i) from None
            if theta_i.shape != theta.shape[1:]:
                raise DataError(f"strategy returned theta of shape {theta_i.shape}, "
                                f"expected {theta.shape[1:]}", index=i)
            theta[i] = theta_i
        return theta
    # The ridge makes a finite estimate definite (see estimate.RIDGE_EPS).
    mu, solve = estimate.ridge_solver(returns, rows, cfg.batch_len)
    tau = horizon - rows * DT
    if cfg.strategy == "static":
        if mu.shape[1] == 1:
            # A single asset cannot generally hit the target; invest fully.
            return np.full((rows.size, 1), cfg.notional)
        inv, a, b, c = static_mvo._frontier_solve(solve, mu)
        static_mvo._discriminant(a, b, c)  # name a degenerate week in its block
        table = np.empty(rows.size, _table_dtype(mu.shape[1]))
        table["inv"], table["a"], table["b"], table["c"] = inv, a, b, c
        return table
    if cfg.strategy in ("simple", "multi"):
        return dynamic_policy.gbm_demand(mu - cfg.r, solve, cfg.r, cfg.gamma, tau)
    # cev: read the estimated covariance as the instantaneous covariance of
    # dS/S at current prices, Sigma_ij = q_i q_j omega_ij with q = S^(alpha/2),
    # so omega^-1 b = q * Sigma^-1 (q * b).  cev_demand rejects a week whose
    # S^alpha leaves the float range before it solves.
    with np.errstate(over="ignore", under="ignore"):
        q = (prices_now ** (cfg.alpha / 2.0))[..., None]
    myopic, hedging = dynamic_policy.cev_demand(mu, lambda b: q * solve(q * b), cfg.alpha,
                                                prices_now, cfg.r, cfg.gamma, tau)
    return myopic + hedging


def run_backtest(prices: PriceSeries, cfg: BacktestConfig) -> WealthPath:
    """Weekly backtest from initial wealth 0; returns the recorded wealth
    path, one row per decision week plus the final week."""
    n_rows = prices.prices.shape[0]
    if n_rows < cfg.batch_len + 3:
        raise WarmupError(
            f"need at least {cfg.batch_len + 3} price rows, got {n_rows}"
        )
    rows = np.arange(cfg.batch_len + 1, n_rows - 1)
    if cfg.strategy == "static" and prices.n_assets > 1:
        table = _frontier_table(prices, cfg.batch_len)
        theta = cfg.notional * static_mvo._frontier_point(
            table["inv"], table["a"], table["b"], table["c"], cfg.target)[0]
    else:
        theta = np.empty((rows.size, prices.n_assets))
        _run_blocks(cfg, prices, rows, theta)
    with _naming_week(rows):
        return _ledger(prices.prices, rows, theta, cfg)


def _table_dtype(n_assets: int) -> np.dtype:
    """A decision week's row of the static frontier table: Sigma^-1 [1, mu]
    as (N, 2) and the frontier constants a, b, c."""
    return np.dtype([("inv", np.float64, (n_assets, 2)),
                     ("a", np.float64), ("b", np.float64), ("c", np.float64)])


@lru_cache(maxsize=1)
def _frontier_table(prices: PriceSeries, batch_len: int) -> Array:
    """The static strategy's read-only frontier table, one row per decision
    week.  The last panel and batch_len solved are kept (a panel cannot
    change, see PriceSeries), so several targets on one panel solve it
    once; a call that raises is not kept."""
    rows = np.arange(batch_len + 1, prices.prices.shape[0] - 1)
    table = np.empty(rows.size, _table_dtype(prices.n_assets))
    _run_blocks(BacktestConfig(strategy="static", batch_len=batch_len), prices, rows, table)
    table.flags.writeable = False
    return table


def _run_blocks(cfg: BacktestConfig, prices: PriceSeries, rows: Array, out: Array) -> None:
    """Fill out's rows, one per decision week in `rows`, with the block
    stage's rows, block by block in week order."""
    returns = estimate.to_returns(prices)
    horizon = (prices.prices.shape[0] - 1) * DT
    step = _block_weeks(rows.size, prices.n_assets, cfg.batch_len)
    for start in range(0, rows.size, step):
        block = rows[start:start + step]
        with _naming_week(block):
            out[start:start + block.size] = _block_theta(cfg, returns, prices.prices, block, horizon)


def _block_weeks(n_weeks: int, n_assets: int, batch_len: int) -> int:
    """Decision weeks per block.  A week's stacks hold n_assets x
    max(n_assets, batch_len) entries (its (N, N) covariance or (N, L)
    return window), so a block takes as many weeks as fit BLOCK_ENTRIES,
    at least one.  The n_weeks are then spread evenly over the fewest
    blocks that hold them, which keeps the count and shrinks the largest."""
    most = max(1, BLOCK_ENTRIES // (n_assets * max(n_assets, batch_len)))
    blocks = -(-n_weeks // most)
    return -(-n_weeks // blocks)


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
    # Row-wise shares . prices as BLAS dot products.
    stock_now = (shares[:, None, :] @ prices_now[:, :, None])[:, 0, 0]
    stock = (shares[:, None, :] @ prices[rows + 1][:, :, None])[:, 0, 0]
    growth = float(np.exp(cfg.r * DT))
    w, wealth = 0.0, [0.0]
    for cost, held in zip(spent.tolist(), stock.tolist()):
        w = (w - cost) * growth + held
        wealth.append(w)
    wealth = np.array(wealth)
    # The bond is the cash left at rebalancing, W_k - sum(theta_k), accrued a
    # week; that cash plus the shares' value must be W_k.
    cash = wealth[:-1] - spent
    _check_identity(cash, stock_now, wealth[:-1], np.abs(cash) + np.abs(theta).sum(axis=1))
    weeks = np.concatenate([rows[:1], rows + 1])
    return WealthPath(
        times=weeks * DT,
        wealth=wealth,
        bond=np.concatenate([[0.0], cash * growth]),
        stock_value=np.concatenate([[0.0], stock]),
        week_index=weeks,
    )
