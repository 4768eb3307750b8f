"""Closed-form static mean-variance optimisation with an independent KKT oracle.

The problem: minimise (1/2) w' Sigma w subject to 1'w = 1 and w'mu = target,
with short selling allowed.  The closed form is expressed through the
frontier constants

    a = 1' Sigma^-1 1,   b = 1' Sigma^-1 mu,   c = mu' Sigma^-1 mu,

and the KKT oracle solves the full (N+2)x(N+2) stationarity system with a
generic dense solver, independently of the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .dynamic_policy import _TINY, Solve, _as_square, _as_vector, _check_fields
from .errors import DefinitenessError, DomainError, SingularFrontierError

Array = NDArray[np.float64]

# Symmetry and pivots are judged against 1e-12 of max |Sigma_ij| (the largest
# diagonal entry of a PSD matrix), a*c - b^2 against 1e-12 of |a*c|.
_REL_TOL = 1e-12


def _frontier_solve(solve: Solve, mu: Array) -> tuple[Array, Array, Array, Array]:
    """Sigma^-1 [1, mu] as an (..., N, 2) array, over any leading axes, with
    solve(b) = Sigma^-1 b, and the frontier constants a, b, c it gives."""
    mu = np.asarray(mu, dtype=np.float64)
    inv = solve(np.stack([np.ones_like(mu), mu], axis=-1))
    return (inv, inv[..., 0].sum(axis=-1), inv[..., 1].sum(axis=-1),
            np.einsum("...i,...i->...", mu, inv[..., 1]))


def _discriminant(a, b, c):
    """a*c - b^2, or SingularFrontierError naming the first degenerate entry:
    one not above 1e-12 |a*c| (a NaN, where a*c overflows, too), or one
    whose |a*c| is below the normal float range, where a*c - b^2 has too
    few digits left to be judged.  A finite a*c - b^2 is named with the
    bound it failed.  Its position in the flattened stack is the error's
    `index` (None for a scalar)."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        ac = a * c
        disc = ac - b * b
        clear = disc > _REL_TOL * np.abs(ac)
    bad = np.flatnonzero(~clear | (np.abs(ac) < _TINY))
    if bad.size:
        i = bad[0]
        d, p = np.ravel(disc)[i], np.ravel(ac)[i]
        if np.ravel(clear)[i]:
            what = f"a*c = {p:.3e} is below the normal float range"
        elif np.isfinite(d):
            what = f"a*c - b^2 = {d:.3e} is not above {_REL_TOL:g} |a*c| = {_REL_TOL * abs(p):.3e}"
        else:
            what = f"a*c - b^2 = {d:.3e}"
        raise SingularFrontierError(f"degenerate frontier: {what}",
                                    index=int(i) if np.ndim(disc) else None)
    return disc


def _frontier_point(inv: Array, a, b, c, target: float) -> tuple[Array, Array, Array]:
    """(omega, lambda1, lambda2) at the target m from the outputs of
    _frontier_solve, over any leading axes:

        omega = ((c - b*m)/(ac - b^2)) Sigma^-1 1 + ((a*m - b)/(ac - b^2)) Sigma^-1 mu,

    the Lagrange multipliers being the two scalar prefactors.  The weights
    are affine in the target, so one solve serves every target.  A
    degenerate frontier raises SingularFrontierError with the first one's
    position in the flattened stack as its `index`."""
    disc = _discriminant(a, b, c)
    lam1 = (c - b * target) / disc
    lam2 = (a * target - b) / disc
    omega = lam1[..., None] * inv[..., 0] + lam2[..., None] * inv[..., 1]
    return omega, lam1, lam2


@dataclass(frozen=True)
class StaticProblem:
    """A single-period mean-variance instance.

    mu and target are annualised returns, sigma is the annualised covariance.
    """

    mu: Array
    sigma: Array
    target: float

    def __post_init__(self):
        object.__setattr__(self, "mu", _as_vector(self.mu, "mu"))
        object.__setattr__(self, "sigma", _as_square(self.sigma, self.n_assets, "sigma"))
        _check_fields(self)
        asym = np.max(np.abs(self.sigma - self.sigma.T))
        if asym > _REL_TOL * np.abs(self.sigma).max():
            raise ValueError(f"sigma not symmetric: max |S_ij - S_ji| = {asym:.3e}")
        # Positive definiteness is enforced eagerly so every instance is usable:
        # LAPACK's Cholesky must succeed and each pivot diag(L)^2 clear a floor.
        try:
            pivots = np.linalg.cholesky(self.sigma).diagonal() ** 2
        except np.linalg.LinAlgError:
            raise DefinitenessError("covariance not positive definite") from None
        floor = _REL_TOL * self.sigma.diagonal().max()
        bad = np.flatnonzero(pivots <= floor)
        if bad.size:
            raise DefinitenessError(f"covariance not positive definite: pivot {bad[0]} = "
                                    f"{pivots[bad[0]]:.3e} (floor {floor:.3e})")

    @property
    def n_assets(self) -> int:
        return self.mu.size


class FrontierConstants(NamedTuple):
    a: float
    b: float
    c: float

    @property
    def discriminant(self) -> float:
        """a*c - b^2; strictly positive away from degenerate frontiers."""
        return self.a * self.c - self.b * self.b


class Weights(NamedTuple):
    omega: Array
    lambda1: float
    lambda2: float


def frontier_constants(p: StaticProblem) -> FrontierConstants:
    """Quadratic forms of Sigma^-1 against the ones vector and mu."""
    _, a, b, c = _frontier_solve(partial(np.linalg.solve, p.sigma), p.mu)
    return FrontierConstants(a=float(a), b=float(b), c=float(c))


def solve_static_mvo(p: StaticProblem) -> Weights:
    """Closed-form minimum-variance weights of one instance (see
    _frontier_point)."""
    if p.n_assets == 1:
        # Degenerate single-asset frontier: omega = 1 is the only feasible point.
        if abs(p.mu[0] - p.target) > 1e-10 * max(1.0, abs(p.mu[0])):
            raise SingularFrontierError(
                f"single asset cannot reach target {p.target} (mu = {p.mu[0]})"
            )
        return Weights(omega=np.array([1.0]), lambda1=float(p.sigma[0, 0]), lambda2=0.0)
    inv, a, b, c = _frontier_solve(partial(np.linalg.solve, p.sigma), p.mu)
    omega, lam1, lam2 = _frontier_point(inv, a, b, c, p.target)
    return Weights(omega=omega, lambda1=float(lam1), lambda2=float(lam2))


def frontier_variance(fc: FrontierConstants, target: float) -> float:
    """Minimal portfolio variance achievable at the given target return;
    DomainError where it leaves the float range."""
    disc = _discriminant(fc.a, fc.b, fc.c)
    variance = (fc.a * target * target - 2.0 * fc.b * target + fc.c) / disc
    if not np.isfinite(variance):
        raise DomainError(f"frontier variance {variance} at target {target:g} is out of range")
    return variance


def kkt_oracle(p: StaticProblem) -> Weights:
    """Solve the full KKT stationarity system with a generic dense solver.

    Independent of the closed form: assembles
        [Sigma/s, -1, -mu; 1', 0, 0; mu', 0, 0] (w, l1/s, l2/s) = (0, 1, target)
    with s = max |Sigma_ij|, so that its condition number, which must not
    exceed 1e14, does not move with the units of Sigma, and hands it to LAPACK.
    """
    n = p.n_assets
    scale = p.sigma.diagonal().max()  # max |Sigma_ij| of a definite Sigma
    ones = np.ones(n)
    K = np.zeros((n + 2, n + 2))
    K[:n, :n] = p.sigma / scale
    K[:n, n] = -ones
    K[:n, n + 1] = -p.mu
    K[n, :n] = ones
    K[n + 1, :n] = p.mu
    rhs = np.zeros(n + 2)
    rhs[n] = 1.0
    rhs[n + 1] = p.target
    if np.linalg.cond(K) > 1e14:
        raise SingularFrontierError("KKT matrix is singular or near-singular")
    sol = np.linalg.solve(K, rhs)
    return Weights(omega=sol[:n], lambda1=float(sol[n] * scale),
                   lambda2=float(sol[n + 1] * scale))
