import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from mvlab.errors import DataError, DomainError, WarmupError
from mvlab.estimate import (
    RIDGE_EPS,
    WEEKS_PER_YEAR,
    regularize_covariance,
    ridge_solver,
    rolling_estimates,
    to_returns,
)
from mvlab.simulate import PriceSeries


def series(prices):
    return PriceSeries(prices=prices)


class TestToReturns:
    def test_simple_returns(self):
        returns = to_returns(series([1.0, 1.1, 0.99]))
        assert returns.shape == (2, 1)
        np.testing.assert_allclose(returns[:, 0], [0.1, 0.99 / 1.1 - 1.0], rtol=1e-12)

    def test_nonpositive_price(self):
        with pytest.raises(DataError, match="row 2"):
            to_returns(series([1.0, 1.1, -0.5, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_price(self, bad):
        with pytest.raises(DataError, match="row 2"):
            to_returns(series([[1.0, 1.0], [1.1, 1.0], [1.2, bad], [1.0, 1.0]]))

    def test_too_short(self):
        with pytest.raises(DataError):
            to_returns(series([1.0]))


class TestRollingEstimate:
    def test_annualisation(self, rng):
        # constant per-week return rho: mu_hat = 52 rho, sigma_hat = 0
        prices = np.cumprod(np.full(40, 1.003)) / 1.003
        mu, sigma = rolling_estimates(to_returns(series(prices)), 30)
        assert (mu.shape, sigma.shape) == ((1, 1), (1, 1, 1))
        assert mu[0, 0] == pytest.approx(52 * 0.003, rel=1e-10)
        assert sigma[0, 0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_matches_numpy_directly(self, rng):
        prices = np.exp(np.cumsum(rng.normal(0.0, 0.03, size=(60, 3)), axis=0))
        returns = to_returns(series(prices))
        mu, sigma = rolling_estimates(returns, 40)
        batch = returns[14:40]
        np.testing.assert_allclose(mu[0], 52 * batch.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(
            sigma[0], 52 * np.cov(batch, rowvar=False, ddof=1), rtol=1e-12)

    def test_no_lookahead(self, rng):
        # perturbing data at or after the decision index leaves the estimate unchanged
        prices = np.exp(np.cumsum(rng.normal(0.0, 0.03, size=50), axis=0))
        prices2 = prices.copy()
        prices2[35:] *= 5.0
        mu_a, sigma_a = rolling_estimates(to_returns(series(prices)), 34)
        mu_b, sigma_b = rolling_estimates(to_returns(series(prices2)), 34)
        np.testing.assert_array_equal(mu_a, mu_b)
        np.testing.assert_array_equal(sigma_a, sigma_b)

    def test_overlap_between_consecutive_calls(self, rng):
        prices = np.exp(np.cumsum(rng.normal(0.0, 0.03, size=60), axis=0))
        # the batches of indices 30 and 31 are return rows [4, 30) and [5, 31)
        returns = to_returns(series(prices))
        mu, sigma = rolling_estimates(returns, [30, 31])
        for k, start in enumerate([4, 5]):
            batch = returns[start:start + 26]
            np.testing.assert_allclose(mu[k], 52 * batch.mean(axis=0), rtol=1e-12)
            np.testing.assert_allclose(sigma[k], 52 * np.var(batch, ddof=1), rtol=1e-12)

    def test_warmup(self, rng):
        returns = to_returns(series(np.linspace(1.0, 2.0, 40)))
        with pytest.raises(WarmupError):
            rolling_estimates(returns, 25)

    def test_beyond_data(self):
        returns = to_returns(series(np.linspace(1.0, 2.0, 40)))
        with pytest.raises(DataError):
            rolling_estimates(returns, 45)

    @pytest.mark.parametrize("estimator", [rolling_estimates, ridge_solver])
    def test_no_index_is_data_error(self, estimator):
        returns = to_returns(series(np.linspace(1.0, 2.0, 40)))
        with pytest.raises(DataError, match="no decision index given"):
            estimator(returns, [])

    def test_one_week_batch(self):
        returns = to_returns(series(np.linspace(1.0, 2.0, 40)))
        with pytest.raises(DataError, match="batch too short for a covariance"):
            rolling_estimates(returns, 30, batch_len=1)

    def test_consistency_on_gbm(self, rng):
        # long sample: annualised estimates approach the generator parameters
        n = 20_000
        mu, sigma = 0.10, 0.25
        dt = 1 / 52
        z = rng.standard_normal(n)
        prices = np.exp(np.cumsum((mu - sigma**2 / 2) * dt
                                  + sigma * np.sqrt(dt) * z))
        returns = to_returns(series(np.concatenate([[1.0], prices])))
        mu_hat, sigma_hat = rolling_estimates(returns, n, batch_len=n)
        assert sigma_hat[0, 0, 0] == pytest.approx(sigma**2, rel=0.05)
        assert mu_hat[0, 0] == pytest.approx(mu + 0.0, abs=0.1)


class TestRegularize:
    def test_rank_deficient_becomes_pd(self, rng):
        x = rng.normal(size=(10, 30))  # 30 assets, 10 observations
        sigma = np.cov(x, rowvar=False, ddof=1)
        fixed = regularize_covariance(sigma)
        vals = np.linalg.eigvalsh(fixed)
        assert np.min(vals) > 0

    def test_ridge_size(self):
        sigma = np.diag([1.0, 3.0])
        fixed = regularize_covariance(sigma)
        assert fixed[0, 0] == pytest.approx(1.0 + RIDGE_EPS * 2.0, rel=1e-12)
        assert fixed[0, 1] == 0.0

    def test_zero_trace_fallback(self):
        fixed = regularize_covariance(np.zeros((2, 2)))
        np.testing.assert_allclose(fixed, RIDGE_EPS * np.eye(2))

    def test_ridge_clears_the_pivot_floor(self, rng):
        # 50 assets on a 26-week batch, so each Sigma_hat has rank 25 or
        # less; asset 7's return is constant outside the flat stretch, and
        # over return rows 60..85 every price is flat (a zero trace).  Each
        # Cholesky pivot of Sigma_hat + rho I is at least rho, up to
        # rounding of N * eps * trace, and above static_mvo's pivot floor.
        n, batch_len = 50, 26
        returns = rng.normal(0.002, 0.03, size=(130, n))
        returns[:, 7] = 0.0015
        returns[60:60 + batch_len] = 0.0
        t = np.arange(batch_len, returns.shape[0] + 1)
        _, sigma = rolling_estimates(returns, t, batch_len)
        trace = np.trace(sigma, axis1=1, axis2=2)
        assert trace[60] == 0.0
        rho = np.where(trace > 0, RIDGE_EPS * trace / n, RIDGE_EPS)
        fixed = regularize_covariance(sigma)
        pivots = np.diagonal(np.linalg.cholesky(fixed), axis1=1, axis2=2) ** 2
        rounding = n * np.finfo(float).eps * np.trace(fixed, axis1=1, axis2=2)
        assert np.all(pivots >= (rho - rounding)[:, None])
        floor = 1e-12 * np.diagonal(fixed, axis1=1, axis2=2).max(axis=1)
        assert np.all(pivots > floor[:, None])


class TestRidgeSolver:
    """ridge_solver's (Sigma_hat + rho I)^-1 b against the matrices of
    rolling_estimates and regularize_covariance; the batch is 26 weeks."""

    @staticmethod
    def batches(rng, n, weeks=60):
        returns = rng.normal(0.002, 0.03, size=(weeks, n))
        returns[20:46] = 0.0                     # the batch of t = 46 has a zero trace
        t = np.arange(26, weeks + 1)
        mu, sigma = rolling_estimates(returns, t)
        return returns, t, mu, regularize_covariance(sigma)

    @pytest.mark.parametrize("n", [25, 26, 27, 50], ids=lambda n: f"plain-{n}")
    def test_backward_error(self, rng, n):
        # |A x - b| / (|A| |x|) at the level of a backward-stable solve, on
        # either side of n = batch_len, where the Woodbury form takes over
        returns, t, mu, matrix = self.batches(rng, n)
        b = rng.normal(size=(t.size, n, 3))
        got_mu, solve = ridge_solver(returns, t)
        x = solve(b)
        np.testing.assert_allclose(got_mu, mu, rtol=1e-12)
        residual = np.linalg.norm(matrix @ x - b, 2, axis=(1, 2))
        error = residual / (np.linalg.norm(matrix, 2, axis=(1, 2))
                            * np.linalg.norm(x, 2, axis=(1, 2)))
        assert error.max() <= 1e-14

    def test_below_batch_len_solves_the_matrix_itself(self, rng):
        returns, t, _, matrix = self.batches(rng, 10)
        b = rng.normal(size=(t.size, 10, 2))
        _, solve = ridge_solver(returns, t)
        np.testing.assert_array_equal(solve(b), np.linalg.solve(matrix, b))

    @pytest.mark.parametrize("n", [3, 30])
    def test_non_finite_estimate_names_the_batch(self, rng, n):
        # return row 40 = 1e300 overflows the covariance of every batch that
        # holds it; the first ends at index 41, entry 15 of t = 26..60
        returns = rng.normal(0.002, 0.03, size=(60, n))
        returns[40, 1] = 1e300
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="^non-finite") as info:
            ridge_solver(returns, np.arange(26, 61))
        assert info.value.index == 15


def gathered(returns, t, batch_len=26):
    """Weekly means and centred windows by the gathered-window formula: the
    mean over the lag axis of each decision index's sliding window."""
    windows = sliding_window_view(returns, batch_len, axis=0)[np.asarray(t) - batch_len]
    mean = windows.mean(axis=-1)
    windows -= mean[..., None]
    return mean, windows


class TestLagSums:
    """The means summed lag by lag over contiguous return slices give the
    bits of the gathered-window formula, and everything built on them
    follows; the batch is 26 weeks, the panel 100 return rows."""

    @staticmethod
    def runs(k):
        # a run inside the panel, and one ending at the last return row
        return [np.arange(40, 40 + k), np.arange(101 - k, 101)]

    @pytest.mark.parametrize("k", [1, 37])
    @pytest.mark.parametrize("n", [1, 3, 26, 50])
    def test_rolling_estimates(self, rng, n, k):
        returns = rng.normal(0.002, 0.03, size=(100, n))
        for t in self.runs(k):
            mean, x = gathered(returns, t)
            cov = x @ np.swapaxes(x, -1, -2)
            cov *= WEEKS_PER_YEAR / 25
            mu, sigma = rolling_estimates(returns, t)
            np.testing.assert_array_equal(mu, WEEKS_PER_YEAR * mean)
            np.testing.assert_array_equal(sigma, cov)

    @pytest.mark.parametrize("k", [1, 37])
    @pytest.mark.parametrize("n", [1, 3, 26, 50])
    def test_ridge_solver(self, rng, n, k):
        returns = rng.normal(0.002, 0.03, size=(100, n))
        for t in self.runs(k):
            mean, x = gathered(returns, t)
            b = rng.normal(size=(k, n, 2))
            c = WEEKS_PER_YEAR / 25
            if n < 26:
                sigma = x @ np.swapaxes(x, -1, -2)
                sigma *= c
                want = np.linalg.solve(regularize_covariance(sigma), b)
            else:
                # Woodbury: (b - c X (rho I + c X^T X)^-1 X^T b) / rho
                gram = np.swapaxes(x, -1, -2) @ x
                gram *= c
                rho = RIDGE_EPS * np.trace(gram, axis1=-2, axis2=-1) / n
                rho = np.where(rho <= 0, RIDGE_EPS, rho)
                np.einsum("...ii->...i", gram)[...] += rho[..., None]
                y = np.linalg.solve(gram, np.swapaxes(x, -1, -2) @ b)
                want = (b - c * (x @ y)) / rho[:, None, None]
            mu, solve = ridge_solver(returns, t)
            np.testing.assert_array_equal(mu, WEEKS_PER_YEAR * mean)
            np.testing.assert_array_equal(solve(b), want)

    @pytest.mark.parametrize("n", [1, 3, 50])
    def test_fortran_ordered_returns(self, rng, n):
        # there the gathered lag axis is contiguous, and numpy sums it pairwise
        returns = np.asfortranarray(rng.normal(0.002, 0.03, size=(100, n)))
        t = np.arange(40, 77)
        mu, _ = rolling_estimates(returns, t)
        np.testing.assert_array_equal(mu, WEEKS_PER_YEAR * gathered(returns, t)[0])

    @pytest.mark.parametrize("t", [[30, 32], [31, 30], [30, 30]])
    @pytest.mark.parametrize("estimator", [rolling_estimates, ridge_solver])
    def test_indices_must_be_consecutive(self, estimator, t):
        returns = to_returns(series(np.linspace(1.0, 2.0, 40)))
        with pytest.raises(DataError, match="^decision indices must be consecutive$"):
            estimator(returns, t)
