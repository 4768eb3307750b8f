from functools import partial

import numpy as np
import pytest

from mvlab.errors import DefinitenessError, SingularFrontierError
from mvlab.static_mvo import (
    FrontierConstants,
    StaticProblem,
    _frontier_point,
    _frontier_solve,
    frontier_constants,
    frontier_variance,
    kkt_oracle,
    solve_static_mvo,
)

from conftest import random_pd_matrix


def random_problem(rng, n, target=None):
    sigma = random_pd_matrix(rng, n)
    mu = rng.normal(0.1, 0.1, size=n)
    if target is None:
        target = float(rng.normal(0.12, 0.05))
    return StaticProblem(mu=mu, sigma=sigma, target=target)


class TestInvariants:
    def test_rejects_asymmetric_sigma(self):
        sigma = np.array([[1.0, 0.3], [0.2, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            StaticProblem(mu=[0.1, 0.2], sigma=sigma, target=0.15)

    def test_rejects_indefinite_sigma(self):
        # LAPACK stops at pivot 1 = 1 - 2^2 = -3; no pivot is named
        sigma = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(DefinitenessError, match="^covariance not positive definite$"):
            StaticProblem(mu=[0.1, 0.2], sigma=sigma, target=0.15)

    def test_rejects_nonfinite_mu(self):
        with pytest.raises(ValueError):
            StaticProblem(mu=[np.nan, 0.2], sigma=np.eye(2), target=0.15)

    def test_nonfinite_sigma_refused_before_the_factorisation(self):
        with pytest.raises(ValueError, match="^sigma must be finite$"):
            StaticProblem(mu=[0.1, 0.2], sigma=[[1.0, 0.0], [0.0, np.nan]], target=0.15)

    @pytest.mark.parametrize("target", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_target(self, target):
        with pytest.raises(ValueError, match="^target must be finite$"):
            StaticProblem(mu=[0.1, 0.2], sigma=np.eye(2), target=target)

    def test_scalar_instance_reads_as_one_asset(self):
        p = StaticProblem(mu=0.1, sigma=0.04, target=0.1)
        np.testing.assert_array_equal(p.mu, [0.1])
        np.testing.assert_array_equal(p.sigma, [[0.04]])

    def test_rejects_two_dimensional_mu(self):
        with pytest.raises(ValueError, match="^mu must be a 1-d vector"):
            StaticProblem(mu=[[0.1, 0.2]], sigma=np.eye(2), target=0.15)

    def test_symmetry_tolerance_scales_with_sigma(self, rng):
        # D C D at vols 50-500 is symmetric only to rounding of its entries,
        # up to 2.5e5, which is far above an absolute 1e-12.
        for _ in range(20):
            a = random_pd_matrix(rng, 5)
            corr = a / np.sqrt(np.outer(np.diag(a), np.diag(a)))
            d = np.diag(rng.uniform(50.0, 500.0, size=5))
            sigma = d @ corr @ d
            StaticProblem(mu=rng.normal(0.1, 0.1, size=5), sigma=sigma, target=0.1)
        # ... while an asymmetry above 1e-12 of the scale is still rejected
        sigma = np.diag([4.0, 1.0])
        sigma[0, 1] = 1e-11
        with pytest.raises(ValueError, match="symmetric"):
            StaticProblem(mu=[0.1, 0.2], sigma=sigma, target=0.15)


def static_problem(sigma):
    return StaticProblem(mu=np.zeros(len(sigma)), sigma=sigma, target=0.0)


class TestDefiniteness:
    """StaticProblem accepts Sigma only when LAPACK factorises it and every
    pivot diag(L)^2 is above 1e-12 of the largest diagonal entry."""

    def test_accepts_ridged_batch_covariance(self, rng):
        # 50 assets, 26 observations: rank 25 plus the backtest's ridge.
        batch = rng.normal(size=(26, 50))
        sigma = 52 * np.cov(batch, rowvar=False)
        sigma += 1e-6 * np.trace(sigma) / 50 * np.eye(50)
        static_problem(sigma)

    def test_positive_pivot_below_floor_named(self):
        # LAPACK factorises this; the floor (1e-12 x max diagonal) rejects it.
        with pytest.raises(DefinitenessError,
                           match=r"pivot 1 = 1\.000e-13 \(floor 1\.000e-12\)"):
            static_problem(np.diag([1.0, 1e-13]))

    def test_floor_itself_is_refused(self):
        with pytest.raises(DefinitenessError, match=r"pivot 1 = 1\.000e-12 "):
            static_problem(np.diag([1.0, 1e-12]))
        static_problem(np.diag([1.0, np.nextafter(1e-12, 1.0)]))

    @pytest.mark.parametrize("last, said", [
        (0.5, "^covariance not positive definite$"),   # negative: LAPACK stops
        (1.0, "^covariance not positive definite$"),   # exactly zero: LAPACK stops
        (1.0 + 1e-13, r"pivot 2 = 9\.992e-14 "),   # positive below the floor 4e-12
    ])
    def test_three_by_three_refused_at_pivot_2(self, last, said):
        # Pivots 4 and 1, then last - 1 - 0.
        sigma = np.array([[4.0, 2.0, 2.0], [2.0, 2.0, 1.0], [2.0, 1.0, last]])
        with pytest.raises(DefinitenessError, match=said):
            static_problem(sigma)

    def test_lapack_stop_refused_after_a_low_pivot(self):
        # Pivot 1 is below the floor, then pivot 2 stops LAPACK.
        with pytest.raises(DefinitenessError, match="^covariance not positive definite$"):
            static_problem(np.diag([1.0, 1e-13, -1.0]))


class TestFrontierConstants:
    def test_identity_covariance(self):
        p = StaticProblem(mu=[0.1, 0.2], sigma=np.eye(2), target=0.15)
        fc = frontier_constants(p)
        assert fc.a == pytest.approx(2.0, abs=1e-14)
        assert fc.b == pytest.approx(0.3, abs=1e-14)
        assert fc.c == pytest.approx(0.05, abs=1e-14)
        assert fc.discriminant == pytest.approx(0.01, abs=1e-14)

    def test_single_asset_degenerate(self):
        p = StaticProblem(mu=[0.07], sigma=[[0.04]], target=0.07)
        fc = frontier_constants(p)
        assert fc.a == pytest.approx(25.0, rel=1e-12)
        assert fc.b == pytest.approx(0.07 / 0.04, rel=1e-12)
        assert fc.c == pytest.approx(0.07**2 / 0.04, rel=1e-12)
        assert fc.discriminant == pytest.approx(0.0, abs=1e-12)

    def test_matches_independent_inverse(self, rng):
        # independent dense route: explicit matrix inverse
        for _ in range(20):
            p = random_problem(rng, 4)
            fc = frontier_constants(p)
            inv = np.linalg.inv(p.sigma)
            ones = np.ones(4)
            assert fc.a == pytest.approx(ones @ inv @ ones, rel=1e-10)
            assert fc.b == pytest.approx(ones @ inv @ p.mu, rel=1e-10, abs=1e-12)
            assert fc.c == pytest.approx(p.mu @ inv @ p.mu, rel=1e-10)


class TestSolve:
    def test_symmetric_two_asset(self):
        p = StaticProblem(mu=[0.1, 0.2], sigma=np.eye(2), target=0.15)
        w = solve_static_mvo(p)
        np.testing.assert_allclose(w.omega, [0.5, 0.5], atol=1e-12)

    def test_single_asset_full_investment(self):
        p = StaticProblem(mu=[0.08], sigma=[[0.05]], target=0.08)
        w = solve_static_mvo(p)
        np.testing.assert_allclose(w.omega, [1.0])

    def test_single_asset_unreachable_target(self):
        p = StaticProblem(mu=[0.08], sigma=[[0.05]], target=0.15)
        with pytest.raises(SingularFrontierError):
            solve_static_mvo(p)

    def test_constraints_hold(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 11))
            p = random_problem(rng, n)
            w = solve_static_mvo(p)
            assert abs(np.sum(w.omega) - 1.0) <= 1e-10
            assert abs(w.omega @ p.mu - p.target) <= 1e-10

    def test_stationarity_residual(self, rng):
        for _ in range(50):
            p = random_problem(rng, 3)
            w = solve_static_mvo(p)
            resid = p.sigma @ w.omega - w.lambda1 * np.ones(3) - w.lambda2 * p.mu
            assert np.max(np.abs(resid)) <= 1e-10

    def test_matches_kkt_oracle_three_assets(self, rng):
        p = random_problem(rng, 3)
        w = solve_static_mvo(p)
        o = kkt_oracle(p)
        np.testing.assert_allclose(w.omega, o.omega, atol=1e-9)


class TestKktOracle:
    def test_symmetric_two_asset(self):
        p = StaticProblem(mu=[0.1, 0.2], sigma=np.eye(2), target=0.15)
        np.testing.assert_allclose(kkt_oracle(p).omega, [0.5, 0.5], atol=1e-12)

    def test_identical_assets_singular(self):
        p = StaticProblem(mu=[0.1, 0.1], sigma=np.eye(2), target=0.1)
        with pytest.raises(SingularFrontierError):
            kkt_oracle(p)

    def test_agrees_with_closed_form_five_assets(self, rng):
        for _ in range(20):
            p = random_problem(rng, 5)
            np.testing.assert_allclose(
                solve_static_mvo(p).omega, kkt_oracle(p).omega, atol=1e-9)


class TestFrontierVariance:
    def test_symmetric_two_asset(self):
        p = StaticProblem(mu=[0.1, 0.2], sigma=np.eye(2), target=0.15)
        fc = frontier_constants(p)
        assert frontier_variance(fc, 0.15) == pytest.approx(0.5, abs=1e-12)

    def test_minimum_variance_vertex(self, rng):
        for _ in range(10):
            p = random_problem(rng, 4)
            fc = frontier_constants(p)
            assert frontier_variance(fc, fc.b / fc.a) == pytest.approx(
                1.0 / fc.a, rel=1e-10)

    def test_consistent_with_weights(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 8))
            p = random_problem(rng, n)
            fc = frontier_constants(p)
            w = solve_static_mvo(p)
            assert frontier_variance(fc, p.target) == pytest.approx(
                float(w.omega @ p.sigma @ w.omega), abs=1e-10, rel=1e-10)

    def test_monotone_above_vertex(self, rng):
        for _ in range(50):
            p = random_problem(rng, 4)
            fc = frontier_constants(p)
            t1, t2 = sorted(fc.b / fc.a + rng.uniform(0.0, 0.5, size=2))
            assert frontier_variance(fc, t1) <= frontier_variance(fc, t2) + 1e-14

    def test_degenerate_raises(self):
        fc = FrontierConstants(a=2.0, b=1.0, c=0.5)  # a*c == b^2
        with pytest.raises(SingularFrontierError):
            frontier_variance(fc, 0.1)

    def test_degenerate_message_matches_frontier_weights(self):
        # identical assets: a*c - b^2 is rounding noise in both functions
        p = StaticProblem(mu=[0.1, 0.1], sigma=np.eye(2), target=0.1)
        with pytest.raises(SingularFrontierError) as weights:
            _frontier_point(*_frontier_solve(partial(np.linalg.solve, p.sigma), p.mu), p.target)
        with pytest.raises(SingularFrontierError) as variance:
            frontier_variance(frontier_constants(p), p.target)
        assert str(weights.value) == str(variance.value)
        assert str(weights.value).startswith("degenerate frontier: a*c - b^2 = ")
        assert weights.value.index is variance.value.index is None


class TestOptimality:
    def test_feasible_perturbations_never_beat_solution(self, rng):
        p = random_problem(rng, 5)
        w = solve_static_mvo(p)
        best = float(w.omega @ p.sigma @ w.omega)
        # basis of the feasible directions: orthogonal to 1 and mu
        A = np.vstack([np.ones(5), p.mu])
        _, _, vt = np.linalg.svd(A)
        null = vt[2:]
        for _ in range(50):
            d = null.T @ rng.normal(size=3)
            omega = w.omega + d
            assert abs(np.sum(omega) - 1) < 1e-9
            assert abs(omega @ p.mu - p.target) < 1e-9
            assert float(omega @ p.sigma @ omega) >= best - 1e-12


def twenty_asset_problem(scale, mu=None):
    """A well-posed 20-asset instance with Sigma in units scaled by `scale`."""
    rng = np.random.default_rng(1)
    A = rng.standard_normal((20, 20))
    sigma = A @ A.T / 20 + np.eye(20)
    if mu is None:
        mu = rng.normal(0.1, 0.05, size=20)
    return StaticProblem(mu=mu, sigma=sigma * scale, target=0.12)


class TestUnitsOfSigma:
    """Neither the closed form's degenerate-frontier test nor the KKT
    oracle's conditioning test may depend on the units of Sigma."""

    @pytest.mark.parametrize("scale", [1e-154, 1e-14, 1e-11, 1e-9, 1e6, 1e8, 1e10, 1e20, 1e153])
    def test_weights_do_not_move(self, scale):
        # a*c - b^2 was floored at 1e-12 (an absolute floor below |a*c| = 1),
        # so the closed form refused Sigma x 1e6 and above; the KKT oracle's
        # cond(K) refused Sigma x 1e-14 and x 1e8 and above.  The ends are
        # those of the accepted range, |a*c| = 1.7e308 and 1.7e-306
        want = solve_static_mvo(twenty_asset_problem(1.0)).omega
        p = twenty_asset_problem(scale)
        np.testing.assert_allclose(solve_static_mvo(p).omega, want, rtol=0, atol=1e-15)
        np.testing.assert_allclose(kkt_oracle(p).omega, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("scale", [1e-14, 1e10])
    def test_multipliers_scale_with_sigma(self, scale):
        p, unit = twenty_asset_problem(scale), kkt_oracle(twenty_asset_problem(1.0))
        o, w = kkt_oracle(p), solve_static_mvo(p)
        assert (o.lambda1, o.lambda2) == pytest.approx(
            (unit.lambda1 * scale, unit.lambda2 * scale), rel=1e-13)
        assert (o.lambda1, o.lambda2) == pytest.approx((w.lambda1, w.lambda2), rel=1e-13)

    @pytest.mark.parametrize("scale", [1e-14, 1.0, 1e10])
    @pytest.mark.parametrize("mu", [np.full(20, 0.1), np.zeros(20)], ids=["mu-constant", "mu-0"])
    def test_degenerate_frontier_still_raises(self, scale, mu):
        p = twenty_asset_problem(scale, mu)
        for solver in (solve_static_mvo, kkt_oracle):
            with pytest.raises(SingularFrontierError):
                solver(p)

    @pytest.mark.parametrize("scale", [1e-160, 1e-200])
    def test_overflowing_discriminant_raises(self, scale):
        # a*c overflows, so a*c - b^2 is NaN, which is no discriminant; the
        # overflow itself warns nowhere
        p = twenty_asset_problem(scale)
        with pytest.raises(SingularFrontierError, match="= nan$"):
            solve_static_mvo(p)

    def test_overflowing_discriminant_named_in_a_stack(self):
        sigma = np.stack([twenty_asset_problem(s).sigma for s in (1.0, 1e-160, 1e-200)])
        mu = np.broadcast_to(twenty_asset_problem(1.0).mu, (3, 20))
        with pytest.raises(SingularFrontierError) as info:
            _frontier_point(*_frontier_solve(partial(np.linalg.solve, sigma), mu), 0.12)
        assert info.value.index == 1

    @pytest.mark.parametrize("scale", [1e154, 1e160])
    def test_subnormal_discriminant_raises(self, scale):
        # |a*c| is 1.7e-308 at Sigma x 1e154, below the smallest normal
        # float 2.2e-308; at Sigma x 1e160 the closed form was 6.3e-5 off
        with pytest.raises(SingularFrontierError, match=r"^degenerate frontier: a\*c = "
                           r"\S+ is below the normal float range$"):
            solve_static_mvo(twenty_asset_problem(scale))

    def test_subnormal_discriminant_named_in_a_stack(self):
        sigma = np.stack([twenty_asset_problem(s).sigma for s in (1.0, 1e153, 1e154, 1e160)])
        mu = np.broadcast_to(twenty_asset_problem(1.0).mu, (4, 20))
        with pytest.raises(SingularFrontierError, match="below the normal") as info:
            _frontier_point(*_frontier_solve(partial(np.linalg.solve, sigma), mu), 0.12)
        assert info.value.index == 2
