from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from mvlab import backtest, estimate, simulate, static_mvo
from mvlab.dynamic_policy import CevParams, MarketParams, cev_policy, simple_policy
from mvlab.errors import DataError


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def two_streams(seed, paths):
    """(Generator, path count) of each half of a two-stream Monte Carlo,
    half 0 first: the children of SeedSequence(seed).spawn(2) over
    paths // 2 and paths - paths // 2 paths."""
    children = np.random.SeedSequence(seed).spawn(2)
    return [(np.random.default_rng(child), n)
            for child, n in zip(children, (paths // 2, paths - paths // 2))]


def antithetic_normals(rng, n):
    """One step's standard normals for a half of n paths: h = n - n // 2
    drawn for paths 0 .. h-1, then the negatives of the first n // 2 of
    them for paths h .. n-1, so path h + i pairs with path i and, for odd
    n, path h - 1 has no partner."""
    z = rng.standard_normal(n - n // 2)
    return np.concatenate([z, -z[:n // 2]])


def implicit_step(x, z, drift, sigma_bar, alpha, dt):
    """One drift-implicit step of x = S^(-alpha/2) for the CEV price
    dS/S = drift dt + sigma_bar S^(alpha/2) dw, alpha > 0, on the normals z:
    the positive root x' of k x'^2 - beta x' - alpha (alpha+2) sigma_bar^2
    dt / 8 = 0, k = 1 + alpha drift dt / 2, beta = x - alpha sigma_bar
    sqrt(dt) z / 2."""
    k = 1.0 + 0.5 * alpha * drift * dt
    beta = x - 0.5 * alpha * sigma_bar * np.sqrt(dt) * z
    c_dt = 0.25 * alpha * (alpha + 2.0) * sigma_bar * sigma_bar * dt
    root = np.sqrt(beta * beta + 2.0 * k * c_dt)
    return (beta + root) * (1.0 / (2.0 * k))


def euler_step(s, z, drift, sigma_bar, alpha, dt, floor):
    """One Euler-Maruyama step of the CEV price dS/S = drift dt + sigma_bar
    S^(alpha/2) dw on the normals z; a price at or below floor stays where
    it is, and a step that falls below floor stops at it."""
    step = s + s * (drift * dt + sigma_bar * s ** (alpha / 2.0) * np.sqrt(dt) * z)
    return np.where(s > floor, np.maximum(step, floor), s)


def inline_threads(monkeypatch):
    """Patches the worker thread of the Monte Carlo runner,
    simulate._run_halves, with a stand-in that runs its target at start, on
    the calling thread, as a one-core host in effect does: half 0 then runs
    to its end before half 1 starts, and each half's outcome slot rule is
    the same as on two threads.  Returns the names of the stand-ins
    started, in order."""
    started = []

    class InlineThread:
        def __init__(self, target, args=(), name=None):
            self.target, self.args, self.name = target, args, name

        def start(self):
            started.append(self.name)
            self.target(*self.args)

        def join(self):
            pass

    monkeypatch.setattr(simulate, "threading", SimpleNamespace(Thread=InlineThread))
    return started


def random_pd_matrix(rng, n, jitter=0.1):
    """Random symmetric positive definite matrix."""
    a = rng.normal(size=(n, n))
    return a @ a.T + jitter * np.eye(n)


# ------------------------------------------- single-asset closed forms
#
# The equilibrium policies of one asset written out as scalar formulas,
# apart from mvlab.dynamic_policy's matrix solves, so that the tests can
# check its single-asset reductions against them.

def gbm_scalar_policy(mu, sigma, r, T, gamma, t):
    """(myopic, hedging) money of one GBM asset: the discounted myopic
    demand (mu - r) / (gamma sigma^2) e^{-r (T - t)}, no hedging."""
    return (mu - r) / (gamma * sigma * sigma) * np.exp(-r * (T - t)), 0.0


def cev_scalar_policy(mu, sigma_bar, alpha, r, T, gamma, S, t):
    """(myopic, hedging) money of one CEV asset at price S: the myopic
    demand (mu - r) / (gamma sigma_bar^2 S^alpha) e^{-r tau} and the hedging
    demand -(kappa^2 / gamma) (e^{-alpha r tau} - 1) / r e^{-r tau}, with
    kappa = (mu - r) / (sigma_bar S^(alpha/2)) and the r -> 0 limit
    -alpha tau of the rate factor."""
    tau = T - t
    disc = np.exp(-r * tau)
    myopic = (mu - r) / (gamma * sigma_bar * sigma_bar * S**alpha) * disc
    kappa_sq = ((mu - r) / (sigma_bar * S ** (alpha / 2.0))) ** 2
    rate = -alpha * tau if r == 0 else np.expm1(-alpha * r * tau) / r
    return myopic, -kappa_sq / gamma * rate * disc


# ------------------------------------------------- terminal-wealth draws
#
# The two strategies' terminal wealths as formulas of one Brownian draw,
# apart from mvlab.wealth_analysis, which samples only their affine forms,
# so that the tests can check its moments and its comparison against them.

def price_density_sample(m, w_T):
    """State-price density xi_T = exp(-rT - kappa^2 T / 2 - kappa w_T)
    (xi_0 = 1) for a Brownian draw or an array of them."""
    kappa = m.sharpe
    return np.exp(-m.r * m.T - 0.5 * kappa**2 * m.T - kappa * w_T)


def precommitment_wealth(m, W0, xi_T):
    """Realised terminal wealth of the precommitment optimizer.

    W_hat = W0 e^{rT} + (1/gamma) e^{kappa^2 T} - (1/gamma) xi_T e^{rT}.
    """
    k2T = m.sharpe**2 * m.T
    erT = np.exp(m.r * m.T)
    return W0 * erT + np.exp(k2T) / m.gamma - xi_T * erT / m.gamma


def tc_terminal_wealth_sample(m, W0, w_T):
    """Realised terminal wealth of the time-consistent strategy.

    Affine in the Brownian draw: W* = W0 e^{rT} + kappa^2 T/gamma - kappa w_T/gamma,
    so its moments match tc_wealth_stats exactly.
    """
    kappa = m.sharpe
    return W0 * np.exp(m.r * m.T) + kappa**2 * m.T / m.gamma - kappa * w_T / m.gamma


# ------------------------------------------------------- ledger oracle
#
# The weekly backtest one step at a time, written apart from
# mvlab.backtest's batched stages and its ledger pass so that the tests
# can compare the two.

@dataclass
class Ledger:
    bond_cash: float
    shares: np.ndarray
    wealth: float

    def check(self, prices, tol=1e-9):
        """The self-financing identity bond + shares . prices = wealth, to
        tol x max(1, gross), gross being the money the step moves:
        |bond| + sum |shares x prices|, as in backtest._check_identity."""
        residual = abs(self.bond_cash + float(self.shares @ prices) - self.wealth)
        gross = abs(self.bond_cash) + float(np.abs(self.shares * prices).sum())
        assert residual <= tol * max(1.0, gross), (
            f"ledger identity violated: |bond + stock - wealth| = {residual:.3e}, "
            f"gross {gross:.6g}")


def rebalance_step(ledger, prices_now, theta_money):
    """Move to the target money allocation; wealth is unchanged."""
    prices_now = np.asarray(prices_now, dtype=np.float64)
    if np.any(prices_now <= 0):
        raise DataError("prices must be positive at rebalancing")
    theta_money = np.asarray(theta_money, dtype=np.float64)
    return Ledger(bond_cash=ledger.wealth - float(np.sum(theta_money)),
                  shares=theta_money / prices_now, wealth=ledger.wealth)


def accrue_step(ledger, prices_next, dt, r):
    """One period of bond interest and stock P&L at fixed shares."""
    bond_cash = ledger.bond_cash * np.exp(r * dt)
    wealth = bond_cash + float(ledger.shares @ np.asarray(prices_next, dtype=np.float64))
    return Ledger(bond_cash=float(bond_cash), shares=ledger.shares, wealth=float(wealth))


def oracle_theta(cfg, est, prices_now, t_years, horizon):
    """One decision week through the single-instance policy functions:
    (theta, the matrix the policy solves with, or None)."""
    if callable(cfg.strategy):
        return np.asarray(cfg.strategy(est, prices_now, t_years, horizon), float), None
    sigma = estimate.regularize_covariance(est.sigma_hat)
    n = sigma.shape[0]
    if cfg.strategy == "static":
        if n == 1:
            return cfg.notional * np.ones(1), None
        problem = static_mvo.StaticProblem(mu=est.mu_hat, sigma=sigma, target=cfg.target)
        return cfg.notional * static_mvo.solve_static_mvo(problem).omega, sigma
    if cfg.strategy in ("simple", "multi"):
        m = MarketParams(mu=est.mu_hat, sigma=np.linalg.cholesky(sigma),
                         r=cfg.r, T=horizon, gamma=cfg.gamma)
        return simple_policy(m, t_years).theta, sigma
    vols = np.sqrt(np.diag(sigma))
    corr = sigma / np.outer(vols, vols)
    np.fill_diagonal(corr, 1.0)
    corr = 0.5 * (corr + corr.T)
    c = CevParams(mu=est.mu_hat, sigma_bar=vols / prices_now ** (cfg.alpha / 2.0),
                  alpha=np.full(n, cfg.alpha), corr=corr, r=cfg.r, T=horizon,
                  gamma=cfg.gamma)
    omega = np.outer(c.sigma_bar, c.sigma_bar) * corr
    return cev_policy(c, prices_now, t_years).theta, omega


def oracle_backtest(prices, cfg):
    """The weekly loop one step at a time: the rolling estimate of each
    week on its own, the single-instance policies and
    rebalance_step/accrue_step, with the ledger identity checked after
    each.  Returns the wealth, bond and stock columns and the tolerance
    100 eps cond(Sigma_hat) x gross exposure, cond taken over the matrices
    the policies solve with."""
    returns = estimate.to_returns(prices)
    n_rows = prices.prices.shape[0]
    horizon = (n_rows - 1) * backtest.DT
    ledger = Ledger(bond_cash=0.0, shares=np.zeros(prices.n_assets), wealth=0.0)
    rows = [[0.0, 0.0, 0.0]]
    cond = gross = 1.0
    for t in range(cfg.batch_len + 1, n_rows - 1):
        mu, sigma = estimate.rolling_estimates(returns, [t], cfg.batch_len)
        est = estimate.ParamEstimate(mu_hat=mu[0], sigma_hat=sigma[0],
                                     batch_start=t - cfg.batch_len, batch_end=t)
        theta, solved = oracle_theta(cfg, est, prices.prices[t], t * backtest.DT, horizon)
        if solved is not None:
            cond = max(cond, np.linalg.cond(solved))
        gross = max(gross, np.sum(np.abs(theta)))
        ledger = rebalance_step(ledger, prices.prices[t], theta)
        ledger.check(prices.prices[t])
        ledger = accrue_step(ledger, prices.prices[t + 1], backtest.DT, cfg.r)
        ledger.check(prices.prices[t + 1])
        rows.append([ledger.wealth, ledger.bond_cash,
                     float(ledger.shares @ prices.prices[t + 1])])
        gross = max(gross, abs(ledger.bond_cash))
    return np.array(rows), 100 * np.finfo(float).eps * cond * gross
