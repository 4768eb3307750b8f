"""Seeded market simulators and measure-change machinery.

GBM panels use exact lognormal stepping (no discretisation bias); CEV panels
use Euler-Maruyama with an absorption floor.  Both can be generated under the
physical measure (drift mu) or the hedge-neutral measure (drift r).  The
module also provides Radon-Nikodym reweighting from the physical to the
hedge-neutral measure, the Monte Carlo anticipated-gain estimator and the
covariance sign diagnostic of the CEV hedging demand.  A CEV panel draws
all its normals at once and steps each row from the one before it by the
Euler step `_euler_step`; an asset that touches its floor stays there.  The
Monte Carlo runner `_run_halves` steps its paths in one loop, through the
same step for alpha <= 0 and through the drift-implicit step
`_implicit_step` of x = S^(-alpha/2) for alpha > 0.

Determinism: identical (config, seed) yields bit-identical output.  A panel
or an ensemble draws from one numpy Generator seeded by the caller; the two
Monte Carlo runs draw from two streams spawned from the seed, whatever the
host's cores, and step at once on two threads; each half has one outcome
slot, its result or its error, and stops once the other's holds an error.
"""

from __future__ import annotations

import contextvars
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .dynamic_policy import (
    CevParams,
    MarketParams,
    _check_count,
    _check_entries,
    _check_horizon,
    _price_power,
    cev_anticipated_gain_exact,
    cev_policy,
)
from .errors import DataError, DomainError, InstabilityError

Array = NDArray[np.float64]

PHYSICAL = "physical"
HEDGE_NEUTRAL = "hedge_neutral"

ABSORPTION_REL_FLOOR = 1e-8
ABSORPTION_MAX_FRACTION = 0.5


def _check_measure(measure: str) -> str:
    """measure if it names one of the two measures, else a ValueError."""
    if measure not in (PHYSICAL, HEDGE_NEUTRAL):
        raise ValueError(f"unknown measure {measure!r}")
    return measure


@dataclass(frozen=True)
class SimConfig:
    n_assets: int
    n_steps: int
    dt: float
    s0: Array
    seed: int
    measure: str = PHYSICAL

    def __post_init__(self):
        # an empty market is for MarketParams and CevParams to reject
        object.__setattr__(self, "n_assets", _check_count("n_assets", self.n_assets, 0))
        object.__setattr__(self, "n_steps", _check_count("n_steps", self.n_steps, 1))
        _check_entries("price panel", (self.n_steps + 1) * self.n_assets)
        s0 = np.atleast_1d(np.asarray(self.s0, dtype=np.float64))
        if s0.size == 1 and self.n_assets > 1:
            s0 = np.full(self.n_assets, s0[0])
        object.__setattr__(self, "s0", s0)
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if s0.size != self.n_assets:
            raise ValueError(f"s0 must have length {self.n_assets}")
        if not np.all(np.isfinite(s0) & (s0 > 0)):
            raise ValueError("initial prices must be positive and finite")
        _check_measure(self.measure)


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Price panel, one row per step and one column per asset: a read-only
    float64 copy of the prices given, compared and hashed by identity.  The
    copy lives in an immutable bytes buffer, so numpy refuses to make it
    writeable again."""

    prices: Array

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=np.float64)
        if prices.ndim == 1:
            prices = prices[:, None]
        if prices.ndim != 2:
            raise DataError(f"price panel must be 2-D (steps x assets), got shape {prices.shape}")
        if prices.shape[1] == 0:
            raise DataError("price panel has no asset columns")
        frozen = np.frombuffer(prices.tobytes(), np.float64).reshape(prices.shape)
        object.__setattr__(self, "prices", frozen)

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


def _euler_step(s, z, out, drift_dt, sigma_bar, half_alpha, sqdt, floor):
    """One Euler-Maruyama step of dS/S = drift dt + sigma_bar S^(alpha/2) dw
    from the state s on the standard normals z, written to `out` (not s):
    max(s + s * (drift_dt + sigma_bar s^half_alpha sqdt z), floor), with the
    operations taken in that order, so its bits are that expression's."""
    np.power(s, half_alpha, out=out)
    out *= sigma_bar
    out *= sqdt
    out *= z
    out += drift_dt
    out *= s
    out += s
    np.maximum(out, floor, out=out)


def _implicit_step(x, z, drift, sigma_bar, alpha, dt):
    """One drift-implicit step (Alfonsi 2005), in place, of x = S^(-alpha/2),
    alpha > 0, for the price of _euler_step, on the standard normals z,
    which it overwrites.

    By Ito y = x^2 = S^-alpha is a CIR process, and dx = (alpha (alpha+2)
    sigma_bar^2 / (8x) - alpha drift x / 2) dt - alpha sigma_bar dw / 2.
    With both drift terms taken at the step's end, x' is the positive root
        x' = (sqrt(beta^2 + 2k alpha (alpha+2) sigma_bar^2 dt / 4) + beta) * (1 / (2k)),
    k = 1 + alpha drift dt / 2 > 0, beta = x - alpha sigma_bar sqrt(dt) z / 2,
    taken in that order of operations; no path needs a floor.
    """
    k = 1.0 + 0.5 * alpha * drift * dt
    z *= 0.5 * alpha * sigma_bar * np.sqrt(dt)
    np.subtract(x, z, out=z)  # beta
    np.multiply(z, z, out=x)
    x += 2.0 * k * (0.25 * alpha * (alpha + 2.0) * sigma_bar * sigma_bar * dt)
    np.sqrt(x, out=x)
    x += z
    x *= 1.0 / (2.0 * k)


def _check_finite(s) -> float:
    """0.0, the absorbed fraction of a run with no floor, unless an entry
    of the final state s is not finite: then an InstabilityError (callers
    step under np.errstate, so a diverging run warns nothing)."""
    if not np.all(np.isfinite(s)):
        raise InstabilityError("CEV steps diverged; use a smaller dt or milder alpha")
    return 0.0


def _check_stable(s, s0, alpha) -> float:
    """_check_finite, then an InstabilityError if more than half the
    entries of the final Euler state s are absorbed at the Euler floor
    ABSORPTION_REL_FLOOR * s0 for the start s0, or if any with alpha > 0
    is (that process never reaches 0); else the fraction absorbed."""
    _check_finite(s)
    absorbed = s <= ABSORPTION_REL_FLOOR * s0
    if np.any(absorbed & (alpha > 0)) or np.mean(absorbed) > ABSORPTION_MAX_FRACTION:
        raise InstabilityError(f"{np.sum(absorbed)} of {absorbed.size} paths absorbed; "
                               "use a smaller dt or milder alpha")
    return float(np.mean(absorbed))


def _run_halves(seed: int, paths: int, consume, s0: float, drift, sigma_bar, alpha,
                dt: float, n_steps: int) -> list:
    """Steps `paths` CEV paths from the price s0 in two halves at once and
    returns [absorbed fraction, *consume's arrays], each array merged half
    0 first, once the merged final state has passed its check.

    The caller has checked s0 and s0^-alpha (_price_power).  For alpha > 0
    the state is x = S^(-alpha/2), stepped by _implicit_step and checked by
    _check_finite (no path is absorbed); a DomainError before any step if
    k <= 0.  Otherwise it is the price, stepped by _euler_step and checked
    by _check_stable, which gives the fraction absorbed at its floor: a
    path that touches the floor ABSORPTION_REL_FLOOR * s0 stays there, so
    its return over any later step is exactly 0.

    Half k, of n = (paths // 2, paths - paths // 2)[k] paths, draws from a
    Generator on child k of SeedSequence(seed).spawn(2), h = n - n // 2
    normals a step for its paths 0 .. h-1; path h + i steps on the negated
    normals of path i < n // 2 (antithetic pairs), and for odd n path h - 1
    has no partner.  consume(steps, n, start) reads its state, stepped in
    place from the value `start`, after each step and returns a tuple of
    arrays.  Half 0 steps on one worker thread named mvlab-half, in a copy
    of this thread's context (so under its np.errstate), and half 1 on this
    thread, at once, as standard_normal and large ufuncs release the GIL; a
    one-core host computes the same bits from the same two streams.  Each
    half writes its outcome to its own slot, its result or the error it
    raised (KeyboardInterrupt included), and stops before its next step
    once the other's slot holds an error.  The worker is always joined;
    then this thread's error is raised, else the worker's, else the two
    results are merged.
    """
    if alpha > 0:
        if 1.0 + 0.5 * alpha * drift * dt <= 0:
            raise DomainError(f"alpha * drift * dt = {alpha * drift * dt:g} is at or below -2; "
                              "the implicit CEV step needs a smaller dt")
        start, check = float(np.power(s0, -alpha / 2.0)), _check_finite

        def step(x, z):
            _implicit_step(x, z, drift, sigma_bar, alpha, dt)
    else:
        start, check = s0, lambda s: _check_stable(s, s0, alpha)
        floor = ABSORPTION_REL_FLOOR * s0
        half_alpha, sqdt, drift_dt = alpha / 2.0, np.sqrt(dt), drift * dt

        def step(s, z, out, alive):
            _euler_step(s, z, out, drift_dt, sigma_bar, half_alpha, sqdt, floor)
            np.copyto(s, out, where=np.greater(s, floor, out=alive))
    children = np.random.SeedSequence(seed).spawn(2)
    sizes = (paths // 2, paths - paths // 2)
    results = [None, None]  # each half's outcome: (state, *consume's arrays) or its error

    def half(k):
        try:
            rng, n = np.random.default_rng(children[k]), sizes[k]
            h = n - n // 2
            state, z = np.full(n, start), np.empty(n)
            # the Euler step's result and absorption mask; the implicit step needs neither
            work = () if alpha > 0 else (np.empty(n), np.empty(n, dtype=bool))

            def steps():
                for _ in range(n_steps):
                    if isinstance(results[1 - k], BaseException):
                        return
                    rng.standard_normal(out=z[:h])
                    np.negative(z[:n - h], out=z[h:])
                    step(state, z, *work)
                    yield state

            with np.errstate(over="ignore", invalid="ignore"):
                results[k] = (state, *consume(steps(), n, start))
        except BaseException as exc:  # raised on the calling thread below
            results[k] = exc

    worker = threading.Thread(target=contextvars.copy_context().run, args=(half, 0),
                              name="mvlab-half")
    worker.start()
    try:
        half(1)
    finally:
        worker.join()
    for outcome in (results[1], results[0]):
        if isinstance(outcome, BaseException):
            raise outcome
    state, *arrays = [np.concatenate(parts) for parts in zip(*results)]
    return [check(state), *arrays]


def cev_paths(c: CevParams, cfg: SimConfig) -> PriceSeries:
    """One panel of CEV prices via Euler-Maruyama with an absorption floor.

    Draws all the panel's normals at once from one Generator seeded with
    cfg.seed, the same numbers in the same order as one row a step, and
    correlates each row by its own vector-matrix product.  Each row steps
    from the one before it by _euler_step.  An asset that touches its floor,
    1e-8 of its s0, stays there: every later price of it is set to the
    floor once the panel is stepped, as _run_halves' mask would hold it.
    """
    if cfg.n_assets != c.n_assets:
        raise ValueError("config and market disagree on asset count")
    drift = c.mu if cfg.measure == PHYSICAL else np.full(c.n_assets, c.r)
    L = _corr_factor(c.corr)
    rng = np.random.default_rng(cfg.seed)
    # a stack of (1, N) @ (N, N) products has the per-row product's bits,
    # where one (n_steps, N) @ (N, N) product can differ in the last bit
    shocks = np.matmul(rng.standard_normal((cfg.n_steps, 1, c.n_assets)), L.T)[:, 0]
    prices = np.empty((cfg.n_steps + 1, c.n_assets))
    prices[0] = cfg.s0
    floor = ABSORPTION_REL_FLOOR * cfg.s0
    half_alpha, sqdt, drift_dt = c.alpha / 2.0, np.sqrt(cfg.dt), drift * cfg.dt
    with np.errstate(over="ignore", invalid="ignore"):
        for s, z, out in zip(prices, shocks, prices[1:]):
            _euler_step(s, z, out, drift_dt, c.sigma_bar, half_alpha, sqdt, floor)
    np.copyto(prices, floor, where=np.logical_or.accumulate(prices <= floor, axis=0))
    _check_stable(prices[-1], cfg.s0, c.alpha)
    return PriceSeries(prices=prices)


def gbm_ensemble(mu: float, sigma: float, r: float, T: float, n_steps: int,
                 n_paths: int, seed: int, measure: str = PHYSICAL) -> tuple[Array, Array]:
    """(times, prices) for n_paths independent single-asset GBM paths.

    prices has shape (n_paths, n_steps + 1) with S_0 = 1; exact lognormal
    stepping as in gbm_paths.
    """
    n_steps = _check_count("n_steps", n_steps, 1)
    n_paths = _check_count("n_paths", n_paths, 1)
    _check_entries("ensemble", n_paths * (n_steps + 1))
    dt = T / n_steps
    drift = mu if _check_measure(measure) == PHYSICAL else r
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


class McEstimate(NamedTuple):
    """A Monte Carlo mean with its standard error, the steps taken and the
    fraction of paths that ended at the Euler absorption floor: 0 for a
    zero gain, which takes no step, and for alpha > 0, whose implicit step
    has no floor."""

    value: float
    stderr: float
    n_steps: int = 0
    absorbed: float = 0.0


def mc_anticipated_gain(c: CevParams, S0: float, t: float, paths: int, seed: int,
                        n_steps: int | None = None) -> McEstimate:
    """Monte Carlo anticipated gain of a single CEV asset under the
    hedge-neutral measure.

    Averages the trapezoid-rule time integral of the squared instantaneous
    Sharpe ratio over gamma.  The run checks S0^-alpha (_price_power) at
    entry and steps on two streams (_run_halves): Euler steps of the price
    for alpha <= 0, and for alpha > 0 implicit steps (_implicit_step) of
    x = S^(-alpha/2), which gives the integrand coef * S^-alpha as
    coef * x^2.  The rule sums S^-alpha over the step ends, then halves the
    two end terms.

    value is the mean over all paths.  The two paths of an antithetic pair
    are not independent, so stderr is taken over the P pair means: with an
    even number of paths in each half it is sqrt(var(pair means) / P).  An
    odd half's unpaired middle path counts in value, and in stderr with
    the sample variance of its half's paths v: stderr = sqrt(4 P
    var(pair means) + sum of v over the unpaired paths) / paths.
    """
    paths = _check_count("paths", paths, 100)
    _check_entries("paths", paths)
    if n_steps is not None:
        n_steps = _check_count("n_steps", n_steps, 1)
    tau = _check_horizon(t, c.T)
    if c.n_assets != 1:
        raise ValueError("MC anticipated gain requires a single-asset market")
    mu, sb, alpha = c.mu[0], c.sigma_bar[0], c.alpha[0]
    _price_power(S0, alpha, -1.0)
    if tau == 0.0 or mu == c.r:
        return McEstimate(value=0.0, stderr=0.0)
    if sb <= 0:
        raise DomainError("positive scale volatility required for a finite gain")
    if n_steps is None:
        n_steps = max(64, int(np.ceil(tau * 512)))
    dt = tau / n_steps
    coef = (mu - c.r) ** 2 / (c.gamma * sb * sb)

    def gain(steps, n, start):
        def power(s, out=None):  # S^-alpha, x^2 of the implicit state x
            return np.multiply(s, s, out=out) if alpha > 0 else np.power(s, -alpha, out=out)
        y, acc = np.empty(n), np.zeros(n)
        for s in steps:
            acc += power(s, y)
        acc += 0.5 * (power(start) - y)
        acc *= coef * dt
        # the pairs (i, n - m + i), their means written over acc[:m], and
        # for odd n the unpaired path m with its half's variance of a path
        m = n // 2
        unpaired_var = np.var(acc, ddof=1, keepdims=True) if n % 2 else np.empty(0)
        pair_means = acc[:m]
        pair_means += acc[n - m:]
        pair_means *= 0.5
        return pair_means, acc[m:n - m], unpaired_var

    absorbed, pair_means, unpaired, unpaired_var = _run_halves(
        seed, paths, gain, float(S0), c.r, sb, alpha, dt, n_steps)
    value = (2 * np.sum(pair_means) + np.sum(unpaired)) / paths
    var = 4 * pair_means.size * np.var(pair_means, ddof=1) + np.sum(unpaired_var)
    return McEstimate(value=float(value), stderr=float(np.sqrt(var) / paths), n_steps=n_steps,
                      absorbed=absorbed)


class CovarianceSignReport(NamedTuple):
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
    The covariance sign is 0 unless |corr| > 0.05, a fixed threshold and
    not a significance level: over the paths * n_steps pooled pairs the
    correlation's noise is of order 1/sqrt(paths * n_steps), about 0.002 at
    4,000 paths x 64 steps, and only in order of magnitude, since the
    antithetic pairs are not independent.
    The paths step on two streams (_run_halves): Euler steps of the price
    for alpha <= 0, and for alpha > 0 implicit steps (_implicit_step) of
    x = S^(-alpha/2), read back as the price S = x^(-2/alpha).  The pooled
    pairs are half 0's, step by step, then half 1's.
    """
    paths = _check_count("paths", paths, 1)
    n_steps = _check_count("n_steps", n_steps, 1)
    _check_entries("pair store", 2 * paths * n_steps)  # np.corrcoef stacks the pairs
    f0 = cev_anticipated_gain_exact(c, S, t)  # checks one asset, S, S^-alpha and t
    dt = (c.T - t) / n_steps
    alpha = c.alpha[0]

    def changes(steps, n, _):
        # row k - 1 holds step k's returns and gain changes of the n paths
        rets, dfs = np.empty((n_steps, n)), np.empty((n_steps, n))
        s_prev, f_prev = np.full(n, float(S)), np.full(n, f0)
        for k, s in enumerate(steps, start=1):
            if alpha > 0:
                s = s ** (-2.0 / alpha)  # the price of the implicit state x
            # t + n_steps * dt may overshoot T by an ulp; a diverged path
            # reads the start price here and fails the run after the last step
            f = cev_anticipated_gain_exact(c, np.where(np.isfinite(s), s, S),
                                           min(t + k * dt, c.T))
            rets[k - 1] = s / s_prev - 1.0
            dfs[k - 1] = f - f_prev
            np.copyto(s_prev, s)
            f_prev = f
        return rets.ravel(), dfs.ravel()

    _, rets, dfs = _run_halves(seed, paths, changes, float(S), c.mu[0], c.sigma_bar[0], alpha,
                               dt, n_steps)
    # a spread within rounding of the data's size is none (1/gamma scales dfs)
    if any(np.std(x) <= 1e-12 * np.max(np.abs(x)) for x in (rets, dfs)):
        corr = 0.0
    else:
        corr = float(np.corrcoef(rets, dfs)[0, 1])
    cov_sign = int(np.sign(corr)) if abs(corr) > 0.05 else 0
    hedge_sign = int(np.sign(cev_policy(c, S, t).hedging[0]))  # exactly 0 at alpha = 0
    consistent = cov_sign == -hedge_sign
    return CovarianceSignReport(correlation=corr, covariance_sign=cov_sign,
                                hedging_sign=hedge_sign, consistent=consistent)
