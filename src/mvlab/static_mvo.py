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

import numpy as np
from numpy.typing import NDArray

from .errors import DefinitenessError, SingularFrontierError

Array = NDArray[np.float64]

_SYM_TOL = 1e-12
_PIVOT_REL_TOL = 1e-12
_FRONTIER_TOL = 1e-12


def _as_vector(x) -> Array:
    v = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if v.ndim != 1:
        raise ValueError("expected a 1-d vector")
    return v


def robust_cholesky(sigma: Array) -> Array:
    """Lower Cholesky factor with an explicit pivot check.

    Takes one matrix or a stack of them (leading axes).  LAPACK dpotrf
    (through numpy) factorises the lower triangles; the pivots are
    diag(L)^2.  Rejects the input if any pivot falls below 1e-12 times the
    largest diagonal entry of its matrix, naming the first failing pivot of
    the first failing matrix; a stack's error carries that matrix's
    position in the flattened stack as its `index`.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    try:
        L = np.linalg.cholesky(sigma)
        pivots = np.diagonal(L, axis1=-2, axis2=-1) ** 2
        # `not >` rather than `<=`, so a NaN pivot is rejected too.
        ok = not np.any(~(pivots > _pivot_floor(sigma)[..., None]))
    except np.linalg.LinAlgError:
        ok = False
    if not ok:
        # Rare path: one matrix at a time, in stack order, to name the first.
        stack = sigma.reshape(-1, *sigma.shape[-2:])
        for i, matrix in enumerate(stack):
            _check_pivots(matrix, i if sigma.ndim > 2 else None)
    return L


def _pivot_floor(sigma: Array) -> Array:
    # fmax skips NaNs, so a NaN diagonal entry is named as its own pivot.
    diag = np.diagonal(sigma, axis1=-2, axis2=-1)
    return _PIVOT_REL_TOL * np.fmax.reduce(diag, axis=-1, initial=0.0)


def _check_pivots(sigma: Array, index: int | None) -> None:
    """Raise DefinitenessError if one matrix fails the pivot floor.  Where
    LAPACK stops or a pivot is low, an unblocked Cholesky of the lower
    triangle names the first pivot not above the floor, or the last pivot if
    all clear it (LAPACK rounded one within eps of zero the other way)."""
    floor = float(_pivot_floor(sigma))
    try:
        if np.all(np.diag(np.linalg.cholesky(sigma)) ** 2 > floor):
            return
    except np.linalg.LinAlgError:
        pass
    L = np.zeros_like(sigma)
    for j in range(sigma.shape[0]):
        pivot = sigma[j, j] - L[j, :j] @ L[j, :j]
        if not pivot > floor:
            break
        L[j, j] = np.sqrt(pivot)
        L[j + 1:, j] = (sigma[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    raise DefinitenessError(
        f"covariance not positive definite: pivot {j} = {pivot:.3e} "
        f"(floor {floor:.3e})",
        index=index,
    )


def _frontier_solve(sigma: Array, mu: Array) -> tuple[Array, Array, Array, Array]:
    """Sigma^-1 [1, mu] as an (..., N, 2) array, over any leading axes, and
    the frontier constants a, b, c it gives."""
    mu = np.asarray(mu, dtype=np.float64)
    inv = np.linalg.solve(sigma, np.stack([np.ones_like(mu), mu], axis=-1))
    return (inv, inv[..., 0].sum(axis=-1), inv[..., 1].sum(axis=-1),
            np.einsum("...i,...i->...", mu, inv[..., 1]))


def _frontier_tol(a, c):
    return _FRONTIER_TOL * np.maximum(1.0, np.abs(a * c))


def frontier_weights(sigma: Array, mu: Array, target: float) -> tuple[Array, Array, Array]:
    """Closed-form minimum-variance weights hitting the target return.

    omega = ((c - b*m)/(ac - b^2)) Sigma^-1 1 + ((a*m - b)/(ac - b^2)) Sigma^-1 mu
    with m the target; the Lagrange multipliers are the two scalar
    prefactors.  Works over leading axes of sigma (..., N, N) and mu
    (..., N); returns (omega, lambda1, lambda2).  A degenerate frontier
    raises SingularFrontierError with the first one's position in the
    flattened stack as its `index`.
    """
    inv, a, b, c = _frontier_solve(sigma, mu)
    disc = a * c - b * b
    bad = np.flatnonzero(disc <= _frontier_tol(a, c))
    if bad.size:
        raise SingularFrontierError(
            f"degenerate frontier: a*c - b^2 = {disc.flat[bad[0]]:.3e}",
            index=int(bad[0]) if disc.ndim else None,
        )
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
        mu = _as_vector(self.mu)
        sigma = np.asarray(self.sigma, dtype=np.float64)
        if sigma.ndim == 0:
            sigma = sigma.reshape(1, 1)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "target", float(self.target))
        n = mu.size
        if n < 1:
            raise ValueError("need at least one asset")
        if sigma.shape != (n, n):
            raise ValueError(f"sigma must be {n}x{n}, got {sigma.shape}")
        if not np.all(np.isfinite(mu)):
            raise ValueError("mu must be finite")
        asym = np.max(np.abs(sigma - sigma.T)) if n > 1 else 0.0
        if asym > _SYM_TOL:
            raise ValueError(f"sigma not symmetric: max |S_ij - S_ji| = {asym:.3e}")
        # Positive definiteness is enforced eagerly so every instance is usable.
        robust_cholesky(sigma)

    @property
    def n_assets(self) -> int:
        return self.mu.size


@dataclass(frozen=True)
class FrontierConstants:
    a: float
    b: float
    c: float

    @property
    def discriminant(self) -> float:
        """a*c - b^2; strictly positive away from degenerate frontiers."""
        return self.a * self.c - self.b * self.b


@dataclass(frozen=True)
class Weights:
    omega: Array
    lambda1: float
    lambda2: float

    def __post_init__(self):
        object.__setattr__(self, "omega", _as_vector(self.omega))


def frontier_constants(p: StaticProblem) -> FrontierConstants:
    """Quadratic forms of Sigma^-1 against the ones vector and mu."""
    _, a, b, c = _frontier_solve(p.sigma, p.mu)
    return FrontierConstants(a=float(a), b=float(b), c=float(c))


def solve_static_mvo(p: StaticProblem) -> Weights:
    """Closed-form minimum-variance weights of one instance (see
    frontier_weights)."""
    if p.n_assets == 1:
        # Degenerate single-asset frontier: omega = 1 is the only feasible point.
        if abs(p.mu[0] - p.target) > 1e-10 * max(1.0, abs(p.mu[0])):
            raise SingularFrontierError(
                f"single asset cannot reach target {p.target} (mu = {p.mu[0]})"
            )
        return Weights(omega=np.array([1.0]), lambda1=float(p.sigma[0, 0]), lambda2=0.0)
    omega, lam1, lam2 = frontier_weights(p.sigma, p.mu, p.target)
    return Weights(omega=omega, lambda1=float(lam1), lambda2=float(lam2))


def frontier_variance(fc: FrontierConstants, target: float) -> float:
    """Minimal portfolio variance achievable at the given target return."""
    disc = fc.discriminant
    if disc <= _frontier_tol(fc.a, fc.c):
        raise SingularFrontierError(f"degenerate frontier: a*c - b^2 = {disc:.3e}")
    return (fc.a * target * target - 2.0 * fc.b * target + fc.c) / disc


def kkt_oracle(p: StaticProblem) -> Weights:
    """Solve the full KKT stationarity system with a generic dense solver.

    Independent of the closed form: assembles
        [Sigma, -1, -mu; 1', 0, 0; mu', 0, 0] (w, l1, l2) = (0, 1, target)
    and hands it to LAPACK.
    """
    n = p.n_assets
    ones = np.ones(n)
    K = np.zeros((n + 2, n + 2))
    K[:n, :n] = p.sigma
    K[:n, n] = -ones
    K[:n, n + 1] = -p.mu
    K[n, :n] = ones
    K[n + 1, :n] = p.mu
    rhs = np.zeros(n + 2)
    rhs[n] = 1.0
    rhs[n + 1] = p.target
    if np.linalg.cond(K) > 1e14:
        raise SingularFrontierError("KKT matrix is singular or near-singular")
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularFrontierError("KKT matrix is singular") from exc
    return Weights(omega=sol[:n], lambda1=float(sol[n]), lambda2=float(sol[n + 1]))
