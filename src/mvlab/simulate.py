"""Seeded market simulators and measure-change machinery.

GBM panels use exact lognormal stepping (no discretisation bias); CEV panels
use Euler-Maruyama with an absorption floor.  Both can be generated under the
physical measure (drift mu) or the hedge-neutral measure (drift r).  The
module also provides Radon-Nikodym reweighting from the physical to the
hedge-neutral measure, the Monte Carlo anticipated-gain estimator and the
covariance sign diagnostic of the CEV hedging demand.  Every CEV simulation
here steps through the one Euler kernel, `_cev_euler`.

Determinism: each operation draws from a single numpy Generator seeded by the
caller and consumes randomness in a fixed order, so identical (config, seed)
yields bit-identical output.  A CEV run whose state has PREFETCH_MIN_ENTRIES
entries or more (a Monte Carlo of 2^16 paths or more; never a price panel)
makes its draws on one helper thread, a step ahead of the Euler arithmetic.
Generator.standard_normal and numpy's large ufuncs release the GIL, so with a
second core free a step costs about the longer of its draw and its
arithmetic instead of their sum.  The thread is the Generator's only user
during the run and makes the same draws in the same order, so the output is
the serial loop's to the bit.  A one-core host gains nothing; there, or with
the second core busy, the hand-offs cost a few percent at most.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .dynamic_policy import (
    CevParams,
    MarketParams,
    _check_horizon,
    _check_prices,
    anticipated_gain_gbm,
    cev_anticipated_gain_exact,
    cev_policy,
)
from .errors import DomainError, InstabilityError

Array = NDArray[np.float64]

PHYSICAL = "physical"
HEDGE_NEUTRAL = "hedge_neutral"

ABSORPTION_REL_FLOOR = 1e-8
ABSORPTION_MAX_FRACTION = 0.5
# Entries of a CEV state from which _cev_euler draws on a helper thread.  On a
# 2-core host, the median helper / serial time of 500-step criterion-07 runs
# (7-11 alternating pairs) with the second core free read 0.78-0.99 at 2^16
# paths, 0.63-0.79 at 3 * 2^15 and 0.66-0.79 at 2^17; with it busy, 1.02-1.04.
PREFETCH_MIN_ENTRIES = 2**16


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
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.n_steps < 1:
            raise ValueError("need at least one step")
        if s0.size != self.n_assets:
            raise ValueError(f"s0 must have length {self.n_assets}")
        if not np.all(np.isfinite(s0) & (s0 > 0)):
            raise ValueError("initial prices must be positive and finite")
        if self.measure not in (PHYSICAL, HEDGE_NEUTRAL):
            raise ValueError(f"unknown measure {self.measure!r}")


@dataclass(frozen=True)
class PriceSeries:
    """Price panel, one row per step and one column per asset."""

    prices: Array

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=np.float64)
        if prices.ndim == 1:
            prices = prices[:, None]
        object.__setattr__(self, "prices", prices)

    @property
    def n_assets(self) -> int:
        return self.prices.shape[1]


def _corr_factor(corr: Array) -> Array:
    """Loading matrix L with L @ L.T = corr; tolerates PSD-singular inputs
    (CevParams has rejected indefinite ones)."""
    try:
        return np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(corr)
        return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


def _lognormal_steps(drift, var, shocks: Array, dt: float, axis: int) -> Array:
    """Exact GBM stepping from S_0 = 1: the exponential of the cumulated
    log-increments (drift - var/2) dt + shocks along the time `axis`, with
    the starting 1 prepended."""
    log_prices = np.cumsum((drift - 0.5 * var) * dt + shocks, axis=axis)
    return np.exp(np.insert(log_prices, 0, 0.0, axis=axis))


def gbm_paths(m: MarketParams, cfg: SimConfig) -> PriceSeries:
    """One panel of GBM prices via exact lognormal stepping.

    Drift is mu under the physical measure and r under hedge_neutral; the
    loading matrix of the MarketParams drives the correlation.
    """
    if cfg.n_assets != m.n_assets:
        raise ValueError("config and market disagree on asset count")
    drift = m.mu if cfg.measure == PHYSICAL else np.full(m.n_assets, m.r)
    rng = np.random.default_rng(cfg.seed)
    z = rng.standard_normal((cfg.n_steps, m.n_assets))
    shocks = z @ m.sigma.T * np.sqrt(cfg.dt)
    prices = cfg.s0 * _lognormal_steps(drift, np.diag(m.cov), shocks, cfg.dt, axis=0)
    return PriceSeries(prices=prices)


def _drawn_here(draw, shape, n_steps: int):
    """Yields one (shape) buffer n_steps times, draw(out) having just
    filled it with the next step's normals."""
    z = np.empty(shape)
    for _ in range(n_steps):
        draw(z)
        yield z


def _drawn_ahead(draw, shape, n_steps: int):
    """_drawn_here with draw(out) run a step ahead by a one-worker pool.

    The worker fills two preallocated buffers in turn: the next step's
    while the caller computes with the current one.  It makes exactly
    n_steps draws, in order, and is joined however the generator ends; an
    exception raised by draw is re-raised here.  The import is local so
    that only a process that makes a run this large loads the module.
    """
    from concurrent.futures import ThreadPoolExecutor
    bufs = (np.empty(shape), np.empty(shape))
    with ThreadPoolExecutor(1, thread_name_prefix="mvlab-normals") as pool:
        pending = pool.submit(draw, bufs[0])
        for k in range(n_steps):
            pending.result()
            if k + 1 < n_steps:
                pending = pool.submit(draw, bufs[(k + 1) % 2])
            yield bufs[k % 2]


def _cev_euler(s0, shape, drift, sigma_bar, alpha, dt: float, n_steps: int, draw):
    """Euler-Maruyama steps of dS/S = drift dt + sigma_bar S^(alpha/2) dw
    for a state of `shape` that starts at s0 (a scalar, or one price per
    asset), draw(out) filling `out` with each step's standard normals.

    A state of at least PREFETCH_MIN_ENTRIES entries has its draws made on
    a helper thread a step ahead (_drawn_ahead); a smaller one draws in
    the loop.  Both make the same draws in the same order.

    An entry that touches floor = ABSORPTION_REL_FLOOR * s0 is absorbed and
    stays there, so its return over any later step is exactly 0.  Yields
    the state s, a new array, after each step.  After the last step, raises
    InstabilityError if an entry is not finite (callers step under one
    np.errstate, so a diverging run warns nothing), if more than half are
    absorbed, or if any with alpha > 0 is: that process never reaches 0.
    """
    floor = ABSORPTION_REL_FLOOR * s0
    sqdt = np.sqrt(dt)
    s = np.full(shape, s0, dtype=np.float64)
    drawn = _drawn_ahead if s.size >= PREFETCH_MIN_ENTRIES else _drawn_here
    normals = drawn(draw, shape, n_steps)
    try:
        for z in normals:
            alive = s > floor
            s_new = s + s * (drift * dt + sigma_bar * s ** (alpha / 2.0) * sqdt * z)
            s = np.where(alive, np.maximum(s_new, floor), s)
            yield s
    finally:
        normals.close()
    if not np.all(np.isfinite(s)):
        raise InstabilityError("Euler steps diverged; use a smaller dt or milder alpha")
    absorbed = s <= floor
    if np.any(absorbed & (alpha > 0)) or np.mean(absorbed) > ABSORPTION_MAX_FRACTION:
        raise InstabilityError(f"{np.sum(absorbed)} of {absorbed.size} paths absorbed; "
                               "use a smaller dt or milder alpha")


def cev_paths(c: CevParams, cfg: SimConfig) -> PriceSeries:
    """One panel of CEV prices via Euler-Maruyama with an absorption floor.

    Paths that touch floor = 1e-8 * s0 are absorbed there (see _cev_euler).
    """
    if cfg.n_assets != c.n_assets:
        raise ValueError("config and market disagree on asset count")
    drift = c.mu if cfg.measure == PHYSICAL else np.full(c.n_assets, c.r)
    L = _corr_factor(c.corr)
    rng = np.random.default_rng(cfg.seed)
    prices = np.empty((cfg.n_steps + 1, c.n_assets))
    prices[0] = cfg.s0
    steps = _cev_euler(cfg.s0, c.n_assets, drift, c.sigma_bar, c.alpha, cfg.dt, cfg.n_steps,
                       lambda out: np.matmul(rng.standard_normal(c.n_assets), L.T, out=out))
    with np.errstate(over="ignore", invalid="ignore"), closing(steps):
        for k, s in enumerate(steps, start=1):
            prices[k] = s
    return PriceSeries(prices=prices)


def _check_counts(**counts: int) -> None:
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")


def gbm_ensemble(mu: float, sigma: float, r: float, T: float, n_steps: int,
                 n_paths: int, seed: int, measure: str = PHYSICAL) -> tuple[Array, Array]:
    """(times, prices) for n_paths independent single-asset GBM paths.

    prices has shape (n_paths, n_steps + 1) with S_0 = 1; exact lognormal
    stepping as in gbm_paths.
    """
    _check_counts(n_steps=n_steps, n_paths=n_paths)
    dt = T / n_steps
    drift = mu if measure == PHYSICAL else r
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_paths, n_steps))
    prices = _lognormal_steps(drift, sigma * sigma, sigma * np.sqrt(dt) * z, dt, axis=1)
    return np.arange(n_steps + 1) * dt, prices


def rn_weights(m: MarketParams, times: Array, prices: Array) -> Array:
    """dP*/dP along each physical-measure single-asset GBM path of an
    ensemble, prices shape (n_paths, n_steps+1) at any increasing `times`:
    exp(-kappa^2 T / 2 - kappa w_T), where the log-price increments
    telescope to w_T = (log(S_T / S_0) - (mu - sigma^2/2) T) / sigma.
    """
    prices = np.asarray(prices, float)
    sigma = float(m.sigma[0, 0])
    kappa = m.sharpe
    T = float(times[-1] - times[0])
    w_T = (np.log(prices[..., -1] / prices[..., 0]) - (m.mu[0] - 0.5 * sigma * sigma) * T) / sigma
    return np.exp(-0.5 * kappa * kappa * T - kappa * w_T)


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean with its standard error, the Euler steps taken and
    the fraction of paths that ended at the absorption floor (0 for the
    closed forms, which take no step)."""

    value: float
    stderr: float
    n_steps: int = 0
    absorbed: float = 0.0


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
    if n_steps is not None:
        _check_counts(n_steps=n_steps)
    tau = _check_horizon(t, model.T)
    if isinstance(model, MarketParams):
        return McEstimate(value=anticipated_gain_gbm(model, t), stderr=0.0)
    c = model
    if c.n_assets != 1:
        raise ValueError("MC anticipated gain requires a single-asset market")
    _check_prices(S0)
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
    coef = (mu - c.r) ** 2 / (c.gamma * sb * sb)
    integrand = coef * np.full(paths, float(S0)) ** (-alpha)
    acc = np.zeros(paths)
    steps = _cev_euler(float(S0), paths, c.r, sb, alpha, dt, n_steps,
                       lambda out: rng.standard_normal(out=out))
    with np.errstate(over="ignore", invalid="ignore"), closing(steps):
        for s in steps:
            new_integrand = coef * s ** (-alpha)
            acc += 0.5 * (integrand + new_integrand) * dt
            integrand = new_integrand
    return McEstimate(value=float(np.mean(acc)),
                      stderr=float(np.std(acc, ddof=1) / np.sqrt(paths)), n_steps=n_steps,
                      absorbed=float(np.mean(s <= ABSORPTION_REL_FLOOR * float(S0))))


@dataclass(frozen=True)
class CovarianceSignReport:
    correlation: float
    covariance_sign: int
    hedging_sign: int
    consistent: bool


def hedging_covariance_check(c: CevParams, S: float, t: float, paths: int,
                             seed: int, n_steps: int = 64) -> CovarianceSignReport:
    """Sign diagnostic: cov(dS/S, df) against the hedging demand.

    Simulates physical-measure CEV paths, evaluates the exact anticipated
    gain f along them, and pools one-step covariances.  A negative
    covariance should pair with a positive hedging demand and vice versa.
    """
    _check_counts(paths=paths, n_steps=n_steps)
    _check_prices(S)
    f_prev = np.full(paths, cev_anticipated_gain_exact(c, S, t))
    dt = (c.T - t) / n_steps
    rng = np.random.default_rng(seed)
    s_prev = np.full(paths, float(S))
    rets = []
    dfs = []
    steps = _cev_euler(float(S), paths, c.mu[0], c.sigma_bar[0], c.alpha[0], dt,
                       n_steps, lambda out: rng.standard_normal(out=out))
    with np.errstate(over="ignore", invalid="ignore"), closing(steps):
        for k, s in enumerate(steps, start=1):
            # t + n_steps * dt may overshoot T by an ulp; a diverged path
            # reads the start price here and fails the run after the last step
            f = cev_anticipated_gain_exact(c, np.where(np.isfinite(s), s, S),
                                           min(t + k * dt, c.T))
            rets.append(s / s_prev - 1.0)
            dfs.append(f - f_prev)
            s_prev, f_prev = s, f
    rets = np.concatenate(rets)
    dfs = np.concatenate(dfs)
    if np.std(dfs) < 1e-15 or np.std(rets) < 1e-15:
        corr = 0.0
    else:
        corr = float(np.corrcoef(rets, dfs)[0, 1])
    hedging = float(cev_policy(c, S, t).hedging[0])
    cov_sign = int(np.sign(corr)) if abs(corr) > 0.05 else 0
    hedge_sign = int(np.sign(hedging)) if abs(hedging) > 1e-14 else 0
    consistent = (cov_sign == 0 and hedge_sign == 0) or (cov_sign == -hedge_sign)
    return CovarianceSignReport(correlation=corr, covariance_sign=cov_sign,
                                hedging_sign=hedge_sign, consistent=consistent)
