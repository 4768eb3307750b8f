"""Time-consistent dynamic mean-variance policies.

Closed forms for constant-parameter geometric Brownian motion and for
constant-elasticity-of-variance economies of one or several assets, each
split into a myopic and a hedging component, plus:

* the deterministic anticipated-gain formula for GBM and its exact CEV
  counterpart (solved from the moment ODE of S^-alpha under the
  drift-r measure),
* a recombining binomial lattice that computes the discrete-time equilibrium
  policy by backward induction and serves as an independent oracle for the
  continuous-time closed form.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import partial
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .errors import DefinitenessError, DomainError, HorizonError, ResourceError

Array = NDArray[np.float64]
Solve = Callable[[Array], Array]  # b (..., N, m) -> A^-1 b for the matrix A in question

_ZERO_RATE_TOL = 1e-12
_TINY = np.finfo(np.float64).tiny  # the smallest normal float
_MAX_LATTICE_STEPS = 1 << 12  # the thetas take S(S+1)/2 floats: 67 MB
_MAX_ENTRIES = 1 << 27  # floats in one array a caller sizes: 1 GiB


def _as_vector(x, name: str) -> Array:
    """x as a float vector; a 0-d value reads as one entry."""
    v = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {v.shape}")
    return v


def _as_square(x, n: int, name: str) -> Array:
    """x as an n x n float matrix; a 0-d value reads as 1 x 1."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.shape != (n, n):
        raise ValueError(f"{name} must be {n}x{n}, got {m.shape}")
    return m


def _check_count(name: str, value, minimum: int) -> int:
    """A count argument as a Python int: an integer (numpy integers too) of
    at least `minimum`, else a ValueError naming it."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def _check_entries(what: str, entries: int) -> None:
    """A ResourceError if `what`, an array of `entries` floats, is above
    _MAX_ENTRIES; called before it, or any random draw, is made."""
    if entries > _MAX_ENTRIES:
        raise ResourceError(f"{what} of {entries} entries exceeds limit {_MAX_ENTRIES}")


def _check_fields(p) -> None:
    """The input rule of StaticProblem, MarketParams and CevParams: at
    least one asset and every field finite."""
    if p.n_assets == 0:
        raise ValueError("market has no assets")
    for f in fields(p):
        if not np.isfinite(getattr(p, f.name)).all():
            raise ValueError(f"{f.name} must be finite")


def _check_market(p) -> None:
    """_check_fields, then gamma > 0, T > 0 and r >= 0."""
    _check_fields(p)
    if p.gamma <= 0:
        raise ValueError("gamma must be positive")
    if p.T <= 0:
        raise ValueError("horizon must be positive")
    if p.r < 0:
        raise ValueError("riskless rate must be nonnegative")


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
        object.__setattr__(self, "mu", _as_vector(self.mu, "mu"))
        # sigma @ sigma.T is PSD by construction; policies check definiteness.
        object.__setattr__(self, "sigma", _as_square(self.sigma, self.n_assets, "sigma"))
        _check_market(self)

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
        if self.sigma[0, 0] == 0:
            raise DefinitenessError("zero-volatility market has no market price of risk")
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
        mu = _as_vector(self.mu, "mu")
        sigma_bar = _as_vector(self.sigma_bar, "sigma_bar")
        alpha = _as_vector(self.alpha, "alpha")
        n = mu.size
        if alpha.size == 1 and n > 1:
            alpha = np.full(n, alpha[0])
        corr = _as_square(self.corr, n, "corr")
        for name, v in (("sigma_bar", sigma_bar), ("alpha", alpha)):
            if v.size != n:
                raise ValueError(f"{name} must have length {n}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma_bar", sigma_bar)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "corr", corr)
        _check_market(self)
        # sigma_bar = 0 is allowed for simulation (deterministic growth);
        # policy formulas divide by it and guard separately.
        if np.any(sigma_bar < 0):
            raise ValueError("sigma_bar must be nonnegative componentwise")
        if np.max(np.abs(corr - corr.T)) > 1e-12 or np.max(np.abs(np.diag(corr) - 1.0)) > 1e-12:
            raise ValueError("corr must be symmetric with unit diagonal")
        if np.min(np.linalg.eigvalsh(corr)) < -1e-10:
            raise ValueError("corr must be positive semidefinite")

    @classmethod
    def single(cls, mu: float, sigma_bar: float, alpha: float, r: float, T: float,
               gamma: float) -> "CevParams":
        return cls(mu=np.array([mu]), sigma_bar=np.array([sigma_bar]),
                   alpha=np.array([alpha]), corr=np.eye(1), r=r, T=T, gamma=gamma)

    @property
    def n_assets(self) -> int:
        return self.mu.size


class Policy(NamedTuple):
    """Money amounts per asset, theta = myopic + hedging exactly."""

    myopic: Array
    hedging: Array

    @property
    def theta(self) -> Array:
        return self.myopic + self.hedging


def _check_horizon(t: float, T: float) -> float:
    if not 0 <= t <= T:
        raise HorizonError(f"time {t} outside horizon [0, {T}]")
    return T - t


def _solve(solve: Solve, b: Array) -> Array:
    """solve(b), the one policy solve of both demand kernels; a singular
    matrix is a DefinitenessError."""
    try:
        return solve(b)
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError("singular covariance") from exc


def gbm_demand(excess: Array, solve: Solve, r: float, gamma: float, tau) -> Array:
    """Money per asset of the GBM equilibrium policy,
    exp(-r tau) cov^-1 excess / gamma with excess = mu - r, where
    solve(b) returns cov^-1 b for b (..., N, m).

    Works over leading axes: excess (..., N), tau (...), so a backtest
    evaluates a block of decision weeks in one call.
    """
    x = _solve(solve, excess[..., None])[..., 0]
    return x / gamma * np.asarray(np.exp(-r * tau))[..., None]


def simple_policy(m: MarketParams, t: float) -> Policy:
    """Equilibrium policy of a GBM market of one or several assets: the
    discounted myopic demand (gbm_demand) alone, since with constant
    parameters the anticipated gain is deterministic and hedges nothing."""
    myopic = gbm_demand(m.mu - m.r, partial(np.linalg.solve, m.cov), m.r, m.gamma,
                        _check_horizon(t, m.T))
    return Policy(myopic=myopic, hedging=np.zeros_like(myopic))


def _price_power(S, alpha, scale: float = 1.0):
    """S^(scale alpha) for prices S (a scalar or a stack (..., N)) and alpha
    (a scalar or one per price); a DomainError for a bad price or a power
    outside the normal float range, whose `index` is its row in a stack."""
    if not np.all(np.isfinite(S) & (S > 0)):
        raise DomainError(f"prices must be positive and finite, got {S}")
    with np.errstate(over="ignore", under="ignore"):
        power = S ** (scale * alpha)
    bad = ~(np.isfinite(power) & (power >= _TINY))
    if bad.any():
        first = tuple(np.argwhere(bad)[0])
        name = {1.0: "alpha", -1.0: "-alpha"}.get(scale, f"({scale:g} alpha)")
        raise DomainError(f"price power S^{name} out of range at alpha = "
                          f"{np.broadcast_to(alpha, bad.shape)[first]:g}",
                          index=int(first[0]) if bad.ndim > 1 else None)
    return power


def cev_demand(mu: Array, solve: Solve, alpha: float | Array, S: Array, r: float,
               gamma: float, tau) -> tuple[Array, Array]:
    """Myopic and hedging money per asset of the CEV equilibrium policy,
    where solve(b) returns omega^-1 b for the scale covariance
    omega = sigma_bar sigma_bar^T * corr.  One solve takes the two columns
    (mu - r) / S^alpha and (mu - r)^2 / S^alpha, so omega is factored once:
    the myopic demand is exp(-r tau) times the first solved column over
    gamma, and the hedging demand is the second over gamma times
    exp(-r tau) (exp(-alpha r tau) - 1) / r (-alpha tau as r -> 0), which
    is zero at alpha = 0.  A bad price or price power S^alpha is a
    DomainError (_price_power) whose `index` is the first row holding one.

    Works over leading axes: mu and S (..., N), tau (...); alpha is a
    scalar or (..., N).
    """
    s_pow = _price_power(S, alpha)
    excess = mu - r
    x = _solve(solve, np.stack([excess, excess**2], axis=-1) / s_pow[..., None]) / gamma
    tau = np.asarray(tau)[..., None]
    discount = np.exp(-r * tau)
    rate = -alpha * tau if abs(r) <= _ZERO_RATE_TOL else np.expm1(-alpha * r * tau) / r
    return x[..., 0] * discount, -x[..., 1] * rate * discount


def cev_policy(c: CevParams, S: float | Array, t: float) -> Policy:
    """CEV equilibrium policy at the price S of each asset (a scalar for a
    single asset), with explicit hedging demand (cev_demand)."""
    S = _as_vector(S, "S")
    if S.size != c.n_assets:
        raise ValueError(f"expected {c.n_assets} prices, got {S.size}")
    omega = c.sigma_bar[:, None] * c.sigma_bar[None, :] * c.corr
    myopic, hedging = cev_demand(c.mu, partial(np.linalg.solve, omega), c.alpha, S, c.r,
                                 c.gamma, _check_horizon(t, c.T))
    return Policy(myopic=myopic, hedging=hedging)


def anticipated_gain_gbm(m: MarketParams, t: float) -> float:
    """Expected cumulative excess gain of the optimal policy under GBM.

    Constant parameters make the integrand deterministic: kappa^2 (T-t) / gamma.
    A market of several assets has no scalar kappa (MarketParams.sharpe).
    """
    tau = _check_horizon(t, m.T)
    return m.sharpe**2 * tau / m.gamma


def cev_anticipated_gain_exact(c: CevParams, S: float | Array, t: float) -> float | Array:
    """Exact anticipated gain for a single CEV asset at a price S or at
    each price of an array S.

    Under the drift-r measure, h(s) = E[S_s^-alpha] obeys
        dh/ds = -alpha r h + alpha (alpha+1) sigma_bar^2 / 2,
    which integrates in closed form; the gain is
    (mu-r)^2 / (gamma sigma_bar^2) times the time integral of h.  A bad
    price or price power S^-alpha is a DomainError (_price_power).
    """
    if c.n_assets != 1:
        raise ValueError("requires a single-asset market")
    mu, sb, alpha = c.mu[0], c.sigma_bar[0], c.alpha[0]
    h0 = _price_power(S, alpha, -1.0)
    tau = _check_horizon(t, c.T)
    ar = alpha * c.r
    if abs(ar) <= _ZERO_RATE_TOL:
        # h grows linearly: h(s) = h0 + (s-t) alpha (alpha+1) sb^2 / 2
        integral = h0 * tau + alpha * (alpha + 1.0) * sb * sb * tau * tau / 4.0
    else:
        h_inf = (alpha + 1.0) * sb * sb / (2.0 * c.r)
        integral = h_inf * tau + (h0 - h_inf) * (-np.expm1(-ar * tau)) / ar
    return (mu - c.r) ** 2 / (c.gamma * sb * sb) * integral


class LatticePolicy(NamedTuple):
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
    steps = _check_count("steps", steps, 2)
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
