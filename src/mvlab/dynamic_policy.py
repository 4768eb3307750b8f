"""Time-consistent dynamic mean-variance policies.

Closed forms for constant-parameter geometric Brownian motion (single and
multi-asset) and for constant-elasticity-of-variance economies, each split
into a myopic and a hedging component, plus:

* the deterministic anticipated-gain formula for GBM and its exact CEV
  counterpart (solved from the moment ODE of S^-alpha under the
  drift-r measure),
* a Monte Carlo anticipated-gain estimator for CEV,
* a covariance sign diagnostic linking hedging demand to the co-movement of
  stock returns and anticipated gains,
* a recombining binomial lattice that computes the discrete-time equilibrium
  policy by backward induction and serves as an independent oracle for the
  continuous-time closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DefinitenessError, DomainError, HorizonError, ResourceError

Array = NDArray[np.float64]

_ZERO_RATE_TOL = 1e-12
_MAX_LATTICE_STEPS = 1 << 15


def _as_vector(x) -> Array:
    return np.atleast_1d(np.asarray(x, dtype=np.float64))


@dataclass(frozen=True)
class MarketParams:
    """Constant-parameter GBM market.

    mu: drift vector (per year); sigma: N x N volatility loading matrix
    (per sqrt-year), instantaneous covariance sigma @ sigma.T; r: riskless
    rate; T: horizon in years; gamma: risk aversion.
    """

    mu: Array
    sigma: Array
    r: float
    T: float
    gamma: float

    def __post_init__(self):
        mu = _as_vector(self.mu)
        sigma = np.asarray(self.sigma, dtype=np.float64)
        if sigma.ndim == 0:
            sigma = sigma.reshape(1, 1)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.T <= 0:
            raise ValueError("horizon must be positive")
        if self.r < 0:
            raise ValueError("riskless rate must be nonnegative")
        n = mu.size
        if sigma.shape != (n, n):
            raise ValueError(f"sigma must be {n}x{n}, got {sigma.shape}")
        # PSD is enough to simulate (sigma = 0 is a legal degenerate market);
        # policy evaluation demands strict definiteness and checks it itself.
        cov = sigma @ sigma.T
        if np.min(np.linalg.eigvalsh(cov)) < -1e-12:
            raise DefinitenessError("sigma @ sigma.T is not positive semidefinite")

    @classmethod
    def single(cls, mu: float, sigma: float, r: float, T: float, gamma: float) -> "MarketParams":
        """One risky asset with scalar volatility."""
        return cls(mu=np.array([mu]), sigma=np.array([[sigma]]), r=r, T=T, gamma=gamma)

    @property
    def n_assets(self) -> int:
        return self.mu.size

    @property
    def cov(self) -> Array:
        return self.sigma @ self.sigma.T

    @property
    def sharpe(self) -> float:
        """Market price of risk (mu - r) / sigma; single-asset markets only."""
        if self.n_assets != 1:
            raise ValueError("scalar Sharpe ratio requires a single asset")
        return float((self.mu[0] - self.r) / self.sigma[0, 0])


@dataclass(frozen=True)
class CevParams:
    """CEV market: dS/S = mu dt + sigma_bar * S^(alpha/2) dw per asset."""

    mu: Array
    sigma_bar: Array
    alpha: Array
    corr: Array
    r: float
    T: float
    gamma: float

    def __post_init__(self):
        mu = _as_vector(self.mu)
        sigma_bar = _as_vector(self.sigma_bar)
        alpha = _as_vector(self.alpha)
        n = mu.size
        if alpha.size == 1 and n > 1:
            alpha = np.full(n, alpha[0])
        corr = np.asarray(self.corr, dtype=np.float64)
        if corr.ndim == 0:
            corr = corr.reshape(1, 1)
        for name, v in (("sigma_bar", sigma_bar), ("alpha", alpha)):
            if v.size != n:
                raise ValueError(f"{name} must have length {n}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma_bar", sigma_bar)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "corr", corr)
        # sigma_bar = 0 is allowed for simulation (deterministic growth);
        # policy formulas divide by it and guard separately.
        if np.any(sigma_bar < 0):
            raise ValueError("sigma_bar must be nonnegative componentwise")
        if corr.shape != (n, n):
            raise ValueError(f"corr must be {n}x{n}")
        if np.max(np.abs(corr - corr.T)) > 1e-12 or np.max(np.abs(np.diag(corr) - 1.0)) > 1e-12:
            raise ValueError("corr must be symmetric with unit diagonal")
        if np.min(np.linalg.eigvalsh(corr)) < -1e-10:
            raise ValueError("corr must be positive semidefinite")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.T <= 0:
            raise ValueError("horizon must be positive")
        if self.r < 0:
            raise ValueError("riskless rate must be nonnegative")

    @classmethod
    def single(cls, mu: float, sigma_bar: float, alpha: float, r: float, T: float,
               gamma: float) -> "CevParams":
        return cls(mu=np.array([mu]), sigma_bar=np.array([sigma_bar]),
                   alpha=np.array([alpha]), corr=np.eye(1), r=r, T=T, gamma=gamma)

    @property
    def n_assets(self) -> int:
        return self.mu.size


@dataclass(frozen=True)
class Policy:
    """Money amounts per asset, theta = myopic + hedging exactly."""

    myopic: Array
    hedging: Array

    def __post_init__(self):
        object.__setattr__(self, "myopic", _as_vector(self.myopic))
        object.__setattr__(self, "hedging", _as_vector(self.hedging))
        if self.myopic.shape != self.hedging.shape:
            raise ValueError("myopic and hedging must have the same shape")

    @property
    def theta(self) -> Array:
        return self.myopic + self.hedging


def _check_horizon(t: float, T: float) -> float:
    if t < 0 or t > T:
        raise HorizonError(f"time {t} outside horizon [0, {T}]")
    return T - t


def simple_policy(m: MarketParams, t: float) -> Policy:
    """Equilibrium policy for a single GBM asset.

    With constant parameters the anticipated gain is deterministic, so the
    hedging demand vanishes and only the discounted myopic demand remains.
    """
    if m.n_assets != 1:
        raise ValueError("simple_policy requires a single-asset market")
    tau = _check_horizon(t, m.T)
    var = float(m.cov[0, 0])
    if var <= 0:
        raise DefinitenessError("zero-volatility market has no mean-variance policy")
    myopic = (m.mu[0] - m.r) / (m.gamma * var) * np.exp(-m.r * tau)
    return Policy(myopic=np.array([myopic]), hedging=np.zeros(1))


def gbm_demand(mu: Array, cov: Array, r: float, gamma: float, tau) -> Array:
    """Money per asset of the GBM equilibrium policy,
    exp(-r tau) cov^-1 (mu - r) / gamma.

    Works over leading axes: mu (..., N), cov (..., N, N), tau (...), so a
    backtest evaluates a block of decision weeks in one call.
    """
    excess = np.asarray(mu, dtype=np.float64) - r
    try:
        x = np.linalg.solve(cov, excess[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError("singular instantaneous covariance") from exc
    return x / gamma * np.asarray(np.exp(-r * tau))[..., None]


def multi_policy(m: MarketParams, t: float) -> Policy:
    """Equilibrium policy for several GBM assets; hedging demand is zero."""
    myopic = gbm_demand(m.mu, m.cov, m.r, m.gamma, _check_horizon(t, m.T))
    return Policy(myopic=myopic, hedging=np.zeros_like(myopic))


def _rate_factor(alpha: Array, r: float, tau: float) -> Array:
    """(exp(-alpha*r*tau) - 1) / r, with the removable r -> 0 limit -alpha*tau."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if abs(r) <= _ZERO_RATE_TOL:
        return -alpha * tau
    return np.expm1(-alpha * r * tau) / r


def cev_policy(c: CevParams, S: float, t: float) -> Policy:
    """Single-asset CEV equilibrium policy with explicit hedging demand."""
    if c.n_assets != 1:
        raise ValueError("cev_policy requires a single-asset market")
    if S <= 0:
        raise DomainError(f"price must be positive, got {S}")
    tau = _check_horizon(t, c.T)
    mu, sb, alpha = c.mu[0], c.sigma_bar[0], c.alpha[0]
    if sb <= 0:
        raise DefinitenessError("zero scale volatility has no mean-variance policy")
    disc = np.exp(-c.r * tau)
    myopic = (mu - c.r) / (c.gamma * sb * sb * S**alpha) * disc
    sharpe_sq = ((mu - c.r) / (sb * S ** (alpha / 2.0))) ** 2
    hedging = -sharpe_sq / c.gamma * float(_rate_factor(np.array([alpha]), c.r, tau)[0]) * disc
    return Policy(myopic=np.array([myopic]), hedging=np.array([hedging]))


def cev_demand(mu: Array, sigma_bar: Array, corr: Array, alpha: Array, S: Array,
               r: float, gamma: float, tau) -> tuple[Array, Array]:
    """Myopic and hedging money per asset of the multi-asset CEV policy:
    the single-asset formula applied through the inverse scale covariance
    sigma_bar_i sigma_bar_j corr_ij, componentwise in the price powers.

    Works over leading axes: mu, sigma_bar, alpha and S (..., N), corr
    (..., N, N), tau (...).
    """
    disc = np.asarray(np.exp(-r * tau))[..., None]
    omega = sigma_bar[..., :, None] * sigma_bar[..., None, :] * corr
    excess = mu - r
    s_pow = S**alpha
    try:
        myopic = np.linalg.solve(omega, (excess / s_pow)[..., None])[..., 0] / gamma * disc
        hedged = np.linalg.solve(omega, (excess**2 / s_pow)[..., None])[..., 0] / gamma
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError("singular scale covariance") from exc
    hedging = -hedged * _rate_factor(alpha, r, np.asarray(tau)[..., None]) * disc
    return myopic, hedging


def cev_policy_multi(c: CevParams, S: Array, t: float) -> Policy:
    """Multi-asset CEV policy of one market at prices S (see cev_demand)."""
    S = _as_vector(S)
    if S.size != c.n_assets:
        raise ValueError(f"expected {c.n_assets} prices, got {S.size}")
    if np.any(S <= 0):
        raise DomainError("prices must be positive componentwise")
    tau = _check_horizon(t, c.T)
    myopic, hedging = cev_demand(c.mu, c.sigma_bar, c.corr, c.alpha, S, c.r, c.gamma, tau)
    return Policy(myopic=myopic, hedging=hedging)


def anticipated_gain_gbm(m: MarketParams, t: float) -> float:
    """Expected cumulative excess gain of the optimal policy under GBM.

    Constant parameters make the integrand deterministic: kappa^2 (T-t) / gamma.
    """
    if m.n_assets != 1:
        raise ValueError("anticipated_gain_gbm requires a single-asset market")
    tau = _check_horizon(t, m.T)
    return m.sharpe**2 * tau / m.gamma


def cev_anticipated_gain_exact(c: CevParams, S: float, t: float) -> float:
    """Exact anticipated gain for a single CEV asset.

    Under the drift-r measure, h(s) = E[S_s^-alpha] obeys
        dh/ds = -alpha r h + alpha (alpha+1) sigma_bar^2 / 2,
    which integrates in closed form; the gain is
    (mu-r)^2 / (gamma sigma_bar^2) times the time integral of h.
    """
    if c.n_assets != 1:
        raise ValueError("requires a single-asset market")
    if S <= 0:
        raise DomainError(f"price must be positive, got {S}")
    tau = _check_horizon(t, c.T)
    mu, sb, alpha = c.mu[0], c.sigma_bar[0], c.alpha[0]
    h0 = S ** (-alpha)
    ar = alpha * c.r
    if abs(ar) <= _ZERO_RATE_TOL:
        # h grows linearly: h(s) = h0 + (s-t) alpha (alpha+1) sb^2 / 2
        integral = h0 * tau + alpha * (alpha + 1.0) * sb * sb * tau * tau / 4.0
    else:
        h_inf = (alpha + 1.0) * sb * sb / (2.0 * c.r)
        integral = h_inf * tau + (h0 - h_inf) * (-np.expm1(-ar * tau)) / ar
    return (mu - c.r) ** 2 / (c.gamma * sb * sb) * integral


@dataclass(frozen=True)
class GainEstimate:
    value: float
    stderr: float


def anticipated_gain_cev(c: CevParams, S: float, t: float, paths: int,
                         seed: int, n_steps: int | None = None) -> GainEstimate:
    """Monte Carlo anticipated gain for a single CEV asset.

    Simulates dS/S = r dt + sigma_bar S^(alpha/2) dw under the hedge-neutral
    measure and averages the trapezoid-rule integral of the squared
    instantaneous Sharpe ratio over gamma.
    """
    from . import simulate

    if paths < 100:
        raise ValueError("need at least 100 paths")
    est = simulate.mc_anticipated_gain(c, S, t, paths, seed, n_steps=n_steps)
    return GainEstimate(value=est.value, stderr=est.stderr)


@dataclass(frozen=True)
class CovarianceSignReport:
    correlation: float
    covariance_sign: int
    hedging_sign: int
    consistent: bool


def hedging_covariance_check(c: CevParams, S: float, t: float, paths: int,
                             seed: int, n_steps: int = 64) -> CovarianceSignReport:
    """Sign diagnostic: cov(dS/S, df) against the hedging demand.

    Simulates physical-measure CEV paths, evaluates the anticipated gain
    along them, and pools one-step covariances.  A negative covariance should
    pair with a positive hedging demand and vice versa.
    """
    from . import simulate

    if c.n_assets != 1:
        raise ValueError("requires a single-asset market")
    tau = _check_horizon(t, c.T)
    dt = tau / n_steps
    rng = np.random.default_rng(seed)
    s = np.full(paths, float(S))
    mu, sb, alpha = c.mu[0], c.sigma_bar[0], c.alpha[0]
    floor = 1e-8 * S
    rets = []
    dfs = []
    f_prev = np.full(paths, cev_anticipated_gain_exact(c, S, t))
    for k in range(n_steps):
        z = rng.standard_normal(paths)
        alive = s > floor
        ds = s * (mu * dt + sb * s ** (alpha / 2.0) * np.sqrt(dt) * z)
        s_new = np.where(alive, np.maximum(s + ds, floor), s)
        tk = t + (k + 1) * dt
        f_new = _gain_exact_vec(c, s_new, tk)
        rets.append(np.where(alive, s_new / s - 1.0, 0.0))
        dfs.append(f_new - f_prev)
        s, f_prev = s_new, f_new
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


def _gain_exact_vec(c: CevParams, S: Array, t: float) -> Array:
    """Vectorised cev_anticipated_gain_exact over a price array."""
    tau = c.T - t
    mu, sb, alpha = c.mu[0], c.sigma_bar[0], c.alpha[0]
    h0 = S ** (-alpha)
    ar = alpha * c.r
    if abs(ar) <= _ZERO_RATE_TOL:
        integral = h0 * tau + alpha * (alpha + 1.0) * sb * sb * tau * tau / 4.0
    else:
        h_inf = (alpha + 1.0) * sb * sb / (2.0 * c.r)
        integral = h_inf * tau + (h0 - h_inf) * (-np.expm1(-ar * tau)) / ar
    return (mu - c.r) ** 2 / (c.gamma * sb * sb) * integral


@dataclass(frozen=True)
class LatticePolicy:
    """Equilibrium policy on a recombining binomial lattice.

    thetas[k][j] is the money invested at time k*dt in the node reached by
    j up-moves; root is thetas[0][0].
    """

    dt: float
    thetas: list

    @property
    def root(self) -> float:
        return float(self.thetas[0][0])


def lattice_equilibrium_oracle(m: MarketParams, steps: int) -> LatticePolicy:
    """Discrete-time equilibrium policy by backward induction.

    Binomial stock with u = exp(sigma sqrt(dt)), d = 1/u and drift-matched
    up-probability.  At each node the one-step objective
        E[J_next] - (gamma/2) Var[E_next(W_T)]
    is a quadratic in theta given the already-fixed future policies, solved
    in closed form.  The root policy converges to the continuous closed form
    at rate O(dt).
    """
    if m.n_assets != 1:
        raise ValueError("lattice oracle requires a single-asset market")
    if steps < 2:
        raise ValueError("need at least 2 steps")
    if steps > _MAX_LATTICE_STEPS:
        raise ResourceError(f"steps {steps} exceeds limit {_MAX_LATTICE_STEPS}")
    dt = m.T / steps
    sigma = float(m.sigma[0, 0])
    u = np.exp(sigma * np.sqrt(dt))
    d = 1.0 / u
    growth = np.exp(m.mu[0] * dt)
    bond = np.exp(m.r * dt)
    if not (d < growth < u):
        raise ValueError("time step too coarse: drift leaves the lattice band")
    p = (growth - d) / (u - d)
    excess = growth - bond  # one-step expected excess gross return
    pq = p * (1.0 - p)
    spread = u - d
    thetas: list = [None] * steps
    g_next = np.zeros(steps + 1)  # anticipated gain at the terminal level
    for k in range(steps - 1, -1, -1):
        D = np.exp(m.r * (m.T - (k + 1) * dt))  # growth factor to T from t_{k+1}
        g_up = g_next[1:]
        g_dn = g_next[:-1]
        theta = excess / (m.gamma * pq * spread * spread * D) - (g_up - g_dn) / (spread * D)
        g_here = theta * excess * D + p * g_up + (1.0 - p) * g_dn
        thetas[k] = theta
        g_next = g_here
    return LatticePolicy(dt=dt, thetas=thetas)
