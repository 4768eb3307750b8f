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
Sigma^-1 1, Sigma^-1 mu and the frontier constants a, b, c
(static_mvo._frontier_solve), so its block stages compute that table with
each week's checked a*c - b^2, kept for the last panel and batch_len solved
(_frontier_table), and the target step runs over all of it afterwards.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from . import dynamic_policy, estimate, static_mvo
from .errors import DataError, DomainError, LedgerError, MvlabError, WarmupError
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
    the static strategy on N > 1 assets, its frontier table over the block
    instead: Sigma^-1 1 and Sigma^-1 mu (k, N) and a, b, c (k,) from
    static_mvo._frontier_solve, and a*c - b^2 (k,) from
    static_mvo._discriminant, the arguments of static_mvo._frontier_point
    but the target."""
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
        # checked here, so that a degenerate week is named in its block
        return inv[..., 0], inv[..., 1], a, b, c, static_mvo._discriminant(a, b, c)
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
        theta = static_mvo._frontier_point(*_frontier_table(prices, cfg.batch_len),
                                           cfg.target)[0]
        theta *= cfg.notional
    else:
        theta = np.concatenate(_run_blocks(cfg, prices, rows))
    with _naming_week(rows):
        return _ledger(prices.prices, rows, theta, cfg)


@lru_cache(maxsize=1)
def _frontier_table(prices: PriceSeries, batch_len: int) -> tuple[Array, ...]:
    """The static strategy's frontier table (see _block_theta) with one row
    per decision week: Sigma^-1 1, Sigma^-1 mu, a, b, c and a*c - b^2, each
    part one contiguous read-only array concatenated over the blocks.  The
    last panel and batch_len solved are kept (a panel cannot change, see
    PriceSeries), so several targets on one panel solve and check it once;
    a call that raises is not kept."""
    rows = np.arange(batch_len + 1, prices.prices.shape[0] - 1)
    blocks = _run_blocks(BacktestConfig(strategy="static", batch_len=batch_len), prices, rows)
    table = tuple(np.concatenate(part) for part in zip(*blocks))
    for part in table:
        part.flags.writeable = False
    return table


def _run_blocks(cfg: BacktestConfig, prices: PriceSeries, rows: Array) -> list:
    """The block stage's results (_block_theta) for the decision weeks
    `rows`, one per block, run block by block in week order."""
    returns = estimate.to_returns(prices)
    horizon = (prices.prices.shape[0] - 1) * DT
    step = _block_weeks(rows.size, prices.n_assets, cfg.batch_len)
    blocks = []
    for start in range(0, rows.size, step):
        block = rows[start:start + step]
        with _naming_week(block):
            blocks.append(_block_theta(cfg, returns, prices.prices, block, horizon))
    return blocks


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
    """The ledger recurrence over the decision weeks `rows`, one consecutive
    ascending run, so that P_k and P_{k+1} are two row slices of `prices`,
    with the self-financing identity checked at every rebalancing.  A money
    vector whose sum is not finite (a non-finite entry, or entries whose sum
    overflows), and then one whose sum of |theta| overflows (its identity
    tolerance would be infinite), is a DomainError whose `index` is its
    position in `rows`, raised before the recurrence runs."""
    first, k = int(rows[0]), rows.size
    prices_now, prices_next = prices[first:first + k], prices[first + 1:first + k + 1]
    shares = np.abs(theta)  # |theta| until its sum is taken, then the shares
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is rejected below
        spent, size = theta.sum(axis=1), shares.sum(axis=1)
    for what, total in (("money vector is not finite: sum(theta)", spent),
                        ("gross money overflows: sum(|theta|)", size)):
        bad = np.flatnonzero(~np.isfinite(total))
        if bad.size:
            raise DomainError(f"{what} = {total[bad[0]]}", index=int(bad[0]))
    np.divide(theta, prices_now, out=shares)
    # Row-wise shares . prices as BLAS dot products.
    stock_now = (shares[:, None, :] @ prices_now[:, :, None])[:, 0, 0]
    stock = (shares[:, None, :] @ prices_next[:, :, None])[:, 0, 0]
    growth = float(np.exp(cfg.r * DT))
    w = 0.0
    wealth = np.array([0.0] + [w := (w - cost) * growth + held
                               for cost, held in zip(spent.tolist(), stock.tolist())])
    # The bond is the cash left at rebalancing, W_k - sum(theta_k), accrued a
    # week; that cash plus the shares' value must be W_k.
    cash = wealth[:-1] - spent
    gross = np.abs(cash) + size
    _check_identity(cash, stock_now, wealth[:-1], gross)
    weeks = np.arange(first, first + k + 1)
    return WealthPath(
        times=weeks * DT,
        wealth=wealth,
        bond=np.concatenate([[0.0], cash * growth]),
        stock_value=np.concatenate([[0.0], stock]),
        week_index=weeks,
    )
