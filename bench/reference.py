"""Independent references the benchmark checks mvlab's outputs against.

Nothing here imports mvlab.  The price simulators repeat the documented
stepping rules with plain numpy; the backtest is a batched re-derivation of
the weekly loop: every rolling window at once, one batched dense solve per
week instead of the Cholesky column loop, and the ledger as the closed
recurrence W' = e^{r dt} (W - sum(theta)) + sum(theta * P_next / P_now).
Agreement is therefore up to rounding amplified by cond(Sigma_hat), and
the tolerances below are scaled by that condition number and by the gross
exposure the strategy holds, never by |wealth|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = np.finfo(np.float64).eps
WEEKS_PER_YEAR = 52
RIDGE_EPS = 1e-6
ZERO_RATE_TOL = 1e-12
ABSORPTION_REL_FLOOR = 1e-8


def equicorrelation(n: int, rho: float) -> np.ndarray:
    corr = np.full((n, n), rho)
    np.fill_diagonal(corr, 1.0)
    return corr


# ------------------------------------------------------------ simulators

def gbm_panel(n, weeks, mean, var, rho, s0, seed, dt=1.0 / 52.0):
    """Exact lognormal stepping with an equicorrelated loading matrix."""
    loading = np.sqrt(var) * np.linalg.cholesky(equicorrelation(n, rho))
    z = np.random.default_rng(seed).standard_normal((weeks, n))
    log_incr = (mean - 0.5 * var) * dt + (z @ loading.T) * np.sqrt(dt)
    logs = np.vstack([np.zeros((1, n)), np.cumsum(log_incr, axis=0)])
    return s0 * np.exp(logs)


def cev_panel(n, weeks, mean, var, alpha, rho, s0, seed, dt=1.0 / 52.0):
    """Euler-Maruyama CEV stepping with the absorption floor 1e-8 * s0.

    sigma_bar is set so that the instantaneous variance rate at s0 is var.
    """
    sigma_bar = np.sqrt(var / s0**alpha)
    L = np.linalg.cholesky(equicorrelation(n, rho))
    rng = np.random.default_rng(seed)
    floor = ABSORPTION_REL_FLOOR * s0
    s = np.full(n, float(s0))
    out = np.empty((weeks + 1, n))
    out[0] = s
    for k in range(weeks):
        z = rng.standard_normal(n) @ L.T
        step = s + s * (mean * dt + sigma_bar * s ** (alpha / 2.0) * np.sqrt(dt) * z)
        s = np.where(s > floor, np.maximum(step, floor), s)
        out[k + 1] = s
    return out


# ------------------------------------------------------------- backtest

@dataclass(frozen=True)
class Estimates:
    """Per decision week: annualised mean, ridged covariance, cond number."""

    decision_rows: np.ndarray   # price-row index t of each decision
    mu: np.ndarray              # (K, N)
    sigma: np.ndarray           # (K, N, N)
    cond: np.ndarray            # (K,)


def rolling_estimates(prices: np.ndarray, batch_len: int = 26) -> Estimates:
    """All rolling windows at once; window for decision row t is return
    rows [t - batch_len, t), decisions at t = batch_len + 1 .. T - 2."""
    rets = prices[1:] / prices[:-1] - 1.0
    n_rows, n = prices.shape
    rows = np.arange(batch_len + 1, n_rows - 1)
    windows = np.lib.stride_tricks.sliding_window_view(rets, batch_len, axis=0)
    windows = np.moveaxis(windows, -1, 1)[rows - batch_len]      # (K, b, N)
    mu = WEEKS_PER_YEAR * windows.mean(axis=1)
    centred = windows - windows.mean(axis=1, keepdims=True)
    cov = WEEKS_PER_YEAR * np.einsum("kbi,kbj->kij", centred, centred) / (batch_len - 1)
    ridge = RIDGE_EPS * np.trace(cov, axis1=1, axis2=2) / n
    ridge = np.where(ridge > 0, ridge, RIDGE_EPS)
    sigma = cov + ridge[:, None, None] * np.eye(n)
    eig = np.linalg.eigvalsh(sigma)
    return Estimates(decision_rows=rows, mu=mu, sigma=sigma,
                     cond=eig[:, -1] / eig[:, 0])


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.solve(a, b[..., None])[..., 0]


def static_thetas(est: Estimates, target: float, notional: float = 1.0) -> np.ndarray:
    n = est.mu.shape[1]
    inv_ones = _solve(est.sigma, np.ones_like(est.mu))
    inv_mu = _solve(est.sigma, est.mu)
    a = inv_ones.sum(axis=1)
    b = inv_mu.sum(axis=1)
    c = np.einsum("ki,ki->k", est.mu, inv_mu)
    disc = a * c - b * b
    lam1 = (c - b * target) / disc
    lam2 = (a * target - b) / disc
    if n == 1:
        return notional * np.ones_like(est.mu)
    return notional * (lam1[:, None] * inv_ones + lam2[:, None] * inv_mu)


def _tau(est: Estimates, n_rows: int, dt: float) -> np.ndarray:
    return (n_rows - 1) * dt - est.decision_rows * dt


def multi_thetas(est: Estimates, n_rows: int, r: float = 0.025,
                 gamma: float = 1.0, dt: float = 1.0 / 52.0) -> np.ndarray:
    disc = np.exp(-r * _tau(est, n_rows, dt))
    return _solve(est.sigma, est.mu - r) / gamma * disc[:, None]


def cev_thetas(est: Estimates, prices: np.ndarray, alpha: float, r: float = 0.025,
               gamma: float = 1.0, dt: float = 1.0 / 52.0) -> np.ndarray:
    """Sigma_hat read as the covariance of dS/S at the current prices."""
    tau = _tau(est, prices.shape[0], dt)
    p_now = prices[est.decision_rows]
    vols = np.sqrt(np.einsum("kii->ki", est.sigma))
    corr = est.sigma / (vols[:, :, None] * vols[:, None, :])
    sigma_bar = vols / p_now ** (alpha / 2.0)
    omega = sigma_bar[:, :, None] * sigma_bar[:, None, :] * corr
    excess = est.mu - r
    s_pow = p_now**alpha
    disc = np.exp(-r * tau)[:, None]
    myopic = _solve(omega, excess / s_pow) / gamma * disc
    hedged = _solve(omega, excess**2 / s_pow) / gamma
    if abs(r) <= ZERO_RATE_TOL:
        rate = -alpha * tau
    else:
        rate = np.expm1(-alpha * r * tau) / r
    return myopic - hedged * rate[:, None] * disc


@dataclass(frozen=True)
class RefPath:
    wealth: np.ndarray    # (K + 1,), W_0 = 0
    bond: np.ndarray
    gross: np.ndarray     # sum |shares * price| held into each recorded week
    cond_max: float


def ledger(prices: np.ndarray, est: Estimates, thetas: np.ndarray,
           r: float = 0.025, dt: float = 1.0 / 52.0) -> RefPath:
    rows = est.decision_rows
    growth = prices[rows + 1] / prices[rows]
    held = thetas * growth
    k = rows.size
    wealth = np.zeros(k + 1)
    bond = np.zeros(k + 1)
    bond_growth = np.exp(r * dt)
    for i in range(k):
        bond[i + 1] = (wealth[i] - thetas[i].sum()) * bond_growth
        wealth[i + 1] = bond[i + 1] + held[i].sum()
    gross = np.concatenate([[0.0], np.abs(held).sum(axis=1)])
    return RefPath(wealth=wealth, bond=bond, gross=gross,
                   cond_max=float(est.cond.max()))


def strategy_ledger(prices: np.ndarray, est: Estimates, strategy: str,
                    target: float = 0.15, alpha: float = 0.0) -> RefPath:
    """Reference path of a named backtest strategy ("simple" is "multi")."""
    if strategy == "static":
        thetas = static_thetas(est, target)
    elif strategy == "cev":
        thetas = cev_thetas(est, prices, alpha)
    else:
        thetas = multi_thetas(est, prices.shape[0])
    return ledger(prices, est, thetas)


def annual_risk(wealth: np.ndarray) -> float:
    return float(np.sqrt(WEEKS_PER_YEAR) * np.std(np.diff(wealth), ddof=1))


def check_backtest(wealth, bond, stock, ref: RefPath) -> str | None:
    """None if a wealth path agrees with the reference, else the reason.

    Tolerances: the ledger identity to 1e-9 of gross exposure; the path,
    its terminal wealth and its annualised risk to 100 * eps * cond(Sigma_hat)
    of the peak gross exposure.  The loop and this reference agree to under
    0.1 * eps * cond * exposure on the benchmark's panels (2e-10 at cond 9e6
    on the 50-asset ones), so a re-ordering of the arithmetic passes and a
    changed formula does not.
    """
    wealth, bond, stock = (np.asarray(x, dtype=np.float64) for x in (wealth, bond, stock))
    if wealth.shape != ref.wealth.shape:
        return f"{wealth.size} recorded weeks, reference has {ref.wealth.size}"
    if not (np.all(np.isfinite(wealth)) and np.all(np.isfinite(bond))
            and np.all(np.isfinite(stock))):
        return "non-finite wealth path"
    gross = np.abs(bond) + ref.gross
    residual = np.abs(wealth - bond - stock)
    if np.any(residual > 1e-9 * np.maximum(1.0, gross)):
        return f"ledger identity off by {residual.max():.3e}"
    tol = 100.0 * EPS * ref.cond_max * max(1.0, float(gross.max()))
    dev = float(np.max(np.abs(wealth - ref.wealth)))
    if dev > tol:
        return f"wealth path off reference by {dev:.3e} (tol {tol:.3e})"
    if abs(wealth[-1] - ref.wealth[-1]) > tol:
        return "terminal wealth off reference"
    if abs(annual_risk(wealth) - annual_risk(ref.wealth)) > 2.0 * np.sqrt(WEEKS_PER_YEAR) * tol:
        return "annualised risk off reference"
    return None


# ------------------------------------------------------------- metrics

def perf_stats(wealth: np.ndarray, base: float) -> dict:
    """Terminal return, max drawdown and annualised increment risk of
    base + wealth, written out from the definitions."""
    equity = base + np.asarray(wealth, dtype=np.float64)
    peaks = np.maximum.accumulate(equity)
    return {
        "terminal_return": float(equity[-1] / equity[0] - 1.0),
        "max_drawdown": float(np.min(equity / peaks - 1.0)),
        "std_dev": float(np.sqrt(WEEKS_PER_YEAR) * np.std(np.diff(wealth), ddof=1) / base),
    }


def stats_close(got: dict, want: dict, rtol: float = 1e-9) -> bool:
    return all(abs(got[k] - want[k]) <= rtol * max(1e-12, abs(want[k])) + 1e-15
               for k in want)


# ------------------------------------------------------------- oracles

def precommit_gap(mu, sigma, r, T, gamma) -> float:
    """(1/gamma)(e^{kappa^2 T} - 1 - kappa^2 T)."""
    k2T = ((mu - r) / sigma) ** 2 * T
    return float((np.expm1(k2T) - k2T) / gamma)


def cev_gain_exact(mu, sigma_bar, alpha, r, T, gamma, S) -> float:
    """Time integral of E[S^-alpha] under dS/S = r dt + sigma_bar S^(alpha/2) dw."""
    h0 = S ** (-alpha)
    if abs(alpha * r) <= ZERO_RATE_TOL:
        integral = h0 * T + alpha * (alpha + 1.0) * sigma_bar**2 * T * T / 4.0
    else:
        h_inf = (alpha + 1.0) * sigma_bar**2 / (2.0 * r)
        integral = h_inf * T + (h0 - h_inf) * (-np.expm1(-alpha * r * T)) / (alpha * r)
    return (mu - r) ** 2 / (gamma * sigma_bar**2) * integral


def cev_hedging(mu, sigma_bar, alpha, r, T, gamma, S) -> float:
    """Hedging demand at t = 0, -S e^{-rT} dG/dS of the exact gain above."""
    coef = (mu - r) ** 2 / (gamma * sigma_bar**2)
    return float(coef * S ** (-alpha) * -np.expm1(-alpha * r * T) / r * np.exp(-r * T))
