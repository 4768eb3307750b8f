"""Seeded market simulators and measure-change machinery.

GBM panels use exact lognormal stepping (no discretisation bias); CEV panels
use Euler-Maruyama with an absorption floor.  Both can be generated under the
physical measure (drift mu) or the hedge-neutral measure (drift r).  The
module also provides Radon-Nikodym reweighting from the physical to the
hedge-neutral measure and the Monte Carlo anticipated-gain estimator.

Determinism: each operation draws from a single numpy Generator seeded by the
caller and consumes randomness in a fixed order, so identical (config, seed)
yields bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .dynamic_policy import CevParams, MarketParams
from .errors import DomainError, InstabilityError, ProtocolError

Array = NDArray[np.float64]

PHYSICAL = "physical"
HEDGE_NEUTRAL = "hedge_neutral"

ABSORPTION_REL_FLOOR = 1e-8
ABSORPTION_MAX_FRACTION = 0.5


@dataclass(frozen=True)
class SimConfig:
    n_assets: int
    n_steps: int
    dt: float
    s0: Array
    seed: int
    measure: str = PHYSICAL

    def __post_init__(self):
        s0 = np.atleast_1d(np.asarray(self.s0, dtype=np.float64))
        if s0.size == 1 and self.n_assets > 1:
            s0 = np.full(self.n_assets, s0[0])
        object.__setattr__(self, "s0", s0)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.n_steps < 1:
            raise ValueError("need at least one step")
        if s0.size != self.n_assets:
            raise ValueError(f"s0 must have length {self.n_assets}")
        if np.any(s0 <= 0):
            raise ValueError("initial prices must be positive")
        if self.measure not in (PHYSICAL, HEDGE_NEUTRAL):
            raise ValueError(f"unknown measure {self.measure!r}")


@dataclass(frozen=True)
class PriceSeries:
    """Weekly (or other uniform-step) price panel: times in years, one
    column per asset."""

    times: Array
    prices: Array

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        prices = np.asarray(self.prices, dtype=np.float64)
        if prices.ndim == 1:
            prices = prices[:, None]
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "prices", prices)
        if times.size != prices.shape[0]:
            raise ValueError("times and prices disagree on length")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def n_assets(self) -> int:
        return self.prices.shape[1]

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    def uniform_dt(self, tol: float = 1e-9) -> float:
        steps = np.diff(self.times)
        dt = steps[0]
        if np.max(np.abs(steps - dt)) > tol * dt:
            raise ProtocolError("time grid is not uniform")
        return float(dt)


def _corr_factor(corr: Array) -> Array:
    """Loading matrix L with L @ L.T = corr; tolerates PSD-singular inputs."""
    corr = np.asarray(corr, dtype=np.float64)
    try:
        return np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(corr)
        if np.min(vals) < -1e-8:
            raise DomainError(
                f"correlation matrix not PSD: min eigenvalue {np.min(vals):.3e}"
            ) from None
        return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


def correlated_normals(corr: Array, n_draws: int, seed: int) -> Array:
    """(n_draws, N) standard normals with the requested cross-correlation."""
    L = _corr_factor(corr)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_draws, L.shape[0]))
    return z @ L.T


def gbm_paths(m: MarketParams, cfg: SimConfig) -> PriceSeries:
    """One panel of GBM prices via exact lognormal stepping.

    Drift is mu under the physical measure and r under hedge_neutral; the
    loading matrix of the MarketParams drives the correlation.
    """
    if cfg.n_assets != m.n_assets:
        raise ValueError("config and market disagree on asset count")
    drift = m.mu if cfg.measure == PHYSICAL else np.full(m.n_assets, m.r)
    var = np.diag(m.cov)
    rng = np.random.default_rng(cfg.seed)
    z = rng.standard_normal((cfg.n_steps, m.n_assets))
    shocks = z @ m.sigma.T * np.sqrt(cfg.dt)
    log_incr = (drift - 0.5 * var) * cfg.dt + shocks
    log_prices = np.concatenate(
        [np.zeros((1, m.n_assets)), np.cumsum(log_incr, axis=0)], axis=0
    )
    prices = cfg.s0 * np.exp(log_prices)
    times = np.arange(cfg.n_steps + 1) * cfg.dt
    return PriceSeries(times=times, prices=prices)


def cev_paths(c: CevParams, cfg: SimConfig) -> PriceSeries:
    """One panel of CEV prices via Euler-Maruyama with an absorption floor.

    Paths that touch floor = 1e-8 * s0 are absorbed there; if more than half
    of the assets end up absorbed the run is rejected as unstable.
    """
    if cfg.n_assets != c.n_assets:
        raise ValueError("config and market disagree on asset count")
    drift = c.mu if cfg.measure == PHYSICAL else np.full(c.n_assets, c.r)
    L = _corr_factor(c.corr)
    rng = np.random.default_rng(cfg.seed)
    floor = ABSORPTION_REL_FLOOR * cfg.s0
    sqdt = np.sqrt(cfg.dt)
    prices = np.empty((cfg.n_steps + 1, c.n_assets))
    prices[0] = cfg.s0
    s = cfg.s0.copy()
    for k in range(cfg.n_steps):
        z = rng.standard_normal(c.n_assets) @ L.T
        alive = s > floor
        vol = c.sigma_bar * s ** (c.alpha / 2.0)
        s_new = s + s * (drift * cfg.dt + vol * sqdt * z)
        s = np.where(alive, np.maximum(s_new, floor), s)
        prices[k + 1] = s
    absorbed = np.mean(s <= floor)
    if absorbed > ABSORPTION_MAX_FRACTION:
        raise InstabilityError(
            f"{absorbed:.0%} of paths absorbed; use a smaller dt or milder alpha"
        )
    times = np.arange(cfg.n_steps + 1) * cfg.dt
    return PriceSeries(times=times, prices=prices)


def gbm_ensemble(mu: float, sigma: float, r: float, T: float, n_steps: int,
                 n_paths: int, seed: int, measure: str = PHYSICAL) -> tuple[Array, Array]:
    """(times, prices) for n_paths independent single-asset GBM paths.

    prices has shape (n_paths, n_steps + 1) with S_0 = 1; exact lognormal
    stepping as in gbm_paths.
    """
    dt = T / n_steps
    drift = mu if measure == PHYSICAL else r
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_paths, n_steps))
    log_incr = (drift - 0.5 * sigma * sigma) * dt + sigma * np.sqrt(dt) * z
    log_prices = np.concatenate(
        [np.zeros((n_paths, 1)), np.cumsum(log_incr, axis=1)], axis=1
    )
    times = np.arange(n_steps + 1) * dt
    return times, np.exp(log_prices)


def _rn_weights_from_logs(m: MarketParams, times: Array, log_prices: Array) -> Array:
    """Core RN computation from log-price rows sampled on a uniform grid."""
    steps = np.diff(times)
    dt = steps[0]
    if np.max(np.abs(steps - dt)) > 1e-9 * dt:
        raise ProtocolError("Radon-Nikodym weights require a uniform time grid")
    sigma = float(m.sigma[0, 0])
    kappa = m.sharpe
    T = times[-1] - times[0]
    incr = np.diff(log_prices, axis=-1)
    dw = (incr - (m.mu[0] - 0.5 * sigma * sigma) * dt) / sigma
    w_T = np.sum(dw, axis=-1)
    return np.exp(-0.5 * kappa * kappa * T - kappa * w_T)


def rn_weight(m: MarketParams, path: PriceSeries) -> float:
    """dP*/dP along one physical-measure single-asset GBM path.

    The Brownian terminal value is reconstructed from the log-price
    increments; weight = exp(-kappa^2 T / 2 - kappa w_T).
    """
    if m.n_assets != 1 or path.n_assets != 1:
        raise ValueError("rn_weight requires a single-asset market and path")
    logs = np.log(path.prices[:, 0])
    return float(_rn_weights_from_logs(m, path.times, logs))


def rn_weights(m: MarketParams, times: Array, prices: Array) -> Array:
    """Vectorised rn_weight over an ensemble, prices shape (n_paths, n_steps+1)."""
    return _rn_weights_from_logs(m, np.asarray(times, float),
                                 np.log(np.asarray(prices, float)))


@dataclass(frozen=True)
class McEstimate:
    value: float
    stderr: float


def mc_anticipated_gain(model: MarketParams | CevParams, S0: float, t: float,
                        paths: int, seed: int,
                        n_steps: int | None = None) -> McEstimate:
    """Monte Carlo anticipated gain under the hedge-neutral measure.

    Averages the trapezoid-rule time integral of the squared instantaneous
    Sharpe ratio over gamma.  For constant-parameter GBM the integrand is
    deterministic, so the estimator collapses to the closed form with zero
    standard error.
    """
    if paths < 100:
        raise ValueError("need at least 100 paths")
    if t < 0 or t > model.T:
        raise DomainError(f"time {t} outside horizon [0, {model.T}]")
    tau = model.T - t
    if isinstance(model, MarketParams):
        kappa = model.sharpe
        return McEstimate(value=kappa * kappa * tau / model.gamma, stderr=0.0)
    c = model
    if c.n_assets != 1:
        raise ValueError("MC anticipated gain requires a single-asset market")
    if S0 <= 0:
        raise DomainError(f"price must be positive, got {S0}")
    if tau == 0.0:
        return McEstimate(value=0.0, stderr=0.0)
    mu, sb, alpha = c.mu[0], c.sigma_bar[0], c.alpha[0]
    if mu == c.r:
        return McEstimate(value=0.0, stderr=0.0)
    if sb <= 0:
        raise DomainError("positive scale volatility required for a finite gain")
    if n_steps is None:
        n_steps = max(64, int(np.ceil(tau * 512)))
    dt = tau / n_steps
    rng = np.random.default_rng(seed)
    floor = ABSORPTION_REL_FLOOR * S0
    coef = (mu - c.r) ** 2 / (c.gamma * sb * sb)
    s = np.full(paths, float(S0))
    integrand = coef * s ** (-alpha)
    acc = np.zeros(paths)
    sqdt = np.sqrt(dt)
    for _ in range(n_steps):
        z = rng.standard_normal(paths)
        alive = s > floor
        s_new = s + s * (c.r * dt + sb * s ** (alpha / 2.0) * sqdt * z)
        s = np.where(alive, np.maximum(s_new, floor), s)
        new_integrand = coef * s ** (-alpha)
        acc += 0.5 * (integrand + new_integrand) * dt
        integrand = new_integrand
    if np.mean(s <= floor) > ABSORPTION_MAX_FRACTION:
        raise InstabilityError("too many absorbed paths; use a smaller dt")
    return McEstimate(value=float(np.mean(acc)),
                      stderr=float(np.std(acc, ddof=1) / np.sqrt(paths)))
