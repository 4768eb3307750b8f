from functools import partial

import numpy as np
import pytest

from mvlab.dynamic_policy import (
    CevParams,
    MarketParams,
    anticipated_gain_gbm,
    cev_anticipated_gain_exact,
    cev_demand,
    cev_policy,
    lattice_equilibrium_oracle,
    simple_policy,
)
from mvlab.errors import (
    DefinitenessError,
    DomainError,
    HorizonError,
    InstabilityError,
    ResourceError,
)
from mvlab.simulate import hedging_covariance_check, mc_anticipated_gain

from conftest import (
    antithetic_normals,
    cev_scalar_policy,
    euler_step,
    gbm_scalar_policy,
    implicit_step,
    two_streams,
)

MKT = dict(mu=0.125, sigma=np.sqrt(0.2), r=0.025, T=10.0, gamma=1.0)


def single(**over):
    kw = {**MKT, **over}
    return MarketParams.single(kw["mu"], kw["sigma"], kw["r"], kw["T"], kw["gamma"])


class TestSimplePolicy:
    def test_at_horizon_end(self):
        pol = simple_policy(single(), t=10.0)
        assert pol.theta[0] == pytest.approx(0.5, rel=1e-12)
        assert pol.hedging[0] == 0.0

    def test_risk_aversion_scaling(self):
        base = simple_policy(single(gamma=1.0), t=0.0).theta[0]
        tiny = simple_policy(single(gamma=1e6), t=0.0).theta[0]
        assert abs(tiny) <= 1e-6 * base

    def test_discounted_value(self):
        pol = simple_policy(single(), t=0.0)
        assert pol.theta[0] == pytest.approx(0.5 * np.exp(-0.25), rel=1e-12)

    def test_matches_lattice_root(self):
        m = single(T=1.0)
        lat = lattice_equilibrium_oracle(m, steps=512)
        closed = simple_policy(m, t=0.0).theta[0]
        assert abs(lat.root - closed) < 5.0 * (1.0 / 512)

    def test_horizon_error(self):
        with pytest.raises(HorizonError):
            simple_policy(single(), t=10.5)

    def test_discount_consistency(self):
        m = single()
        end = simple_policy(m, t=m.T).theta[0]
        for t in (0.0, 2.5, 7.0):
            assert simple_policy(m, t).theta[0] == pytest.approx(
                end * np.exp(-m.r * (m.T - t)), rel=1e-14)

    def test_time_consistency_restriction(self):
        # policy on [t, T] equals the restriction of the policy on [0, T]
        full = single(T=10.0)
        late = single(T=6.0)  # horizon [0, 6] plays the role of [4, 10]
        assert simple_policy(late, 2.0).theta[0] == simple_policy(full, 6.0).theta[0]


class TestMultiPolicy:
    def test_identity_covariance(self):
        m = MarketParams(mu=[0.125, 0.125], sigma=np.eye(2), r=0.025, T=1.0, gamma=2.0)
        pol = simple_policy(m, t=1.0)
        np.testing.assert_allclose(pol.theta, [0.05, 0.05], rtol=1e-12)

    def test_single_asset_reduction(self):
        for gamma, t in ((1.0, 0.0), (1.0, 5.0), (7.0, 0.0), (7.0, 5.0)):
            m = single(gamma=gamma)
            myopic, hedging = gbm_scalar_policy(m.mu[0], m.sigma[0, 0], m.r, m.T, gamma, t)
            pol = simple_policy(m, t)
            assert pol.myopic[0] == pytest.approx(myopic, rel=1e-15)
            assert pol.hedging[0] == hedging

    def test_residual(self, rng):
        a = rng.normal(size=(5, 5))
        m = MarketParams(mu=rng.normal(0.1, 0.05, 5), sigma=a + 2 * np.eye(5),
                         r=0.02, T=3.0, gamma=1.5)
        t = 1.0
        pol = simple_policy(m, t)
        rhs = (m.mu - m.r) / m.gamma * np.exp(-m.r * (m.T - t))
        assert np.max(np.abs(m.cov @ pol.theta - rhs)) <= 1e-10

    def test_decomposition_exact(self, rng):
        m = MarketParams(mu=[0.1, 0.15], sigma=np.eye(2), r=0.02, T=2.0, gamma=1.0)
        pol = simple_policy(m, 0.5)
        np.testing.assert_array_equal(pol.theta, pol.myopic + pol.hedging)


CEV = dict(mu=0.125, sigma_bar=0.2, alpha=1.0, r=0.025, T=1.0, gamma=1.0)


def cev_single(**over):
    kw = {**CEV, **over}
    return CevParams.single(kw["mu"], kw["sigma_bar"], kw["alpha"], kw["r"],
                            kw["T"], kw["gamma"])


class TestCevParams:
    def test_indefinite_corr_rejected(self):
        corr = np.array([[1.0, 2.0], [2.0, 1.0]])   # eigenvalues 3 and -1
        with pytest.raises(ValueError, match="positive semidefinite"):
            CevParams(mu=[0.1, 0.1], sigma_bar=[0.2, 0.2], alpha=1.0, corr=corr,
                      r=0.025, T=1.0, gamma=1.0)


class TestCevPolicy:
    def test_gbm_reduction_alpha_zero(self):
        c = cev_single(alpha=0.0)
        m = single(sigma=0.2, T=1.0)
        for t in (0.0, 0.5):
            pol = cev_policy(c, S=1.7, t=t)
            ref = simple_policy(m, t)
            assert pol.hedging[0] == 0.0
            assert pol.theta[0] == pytest.approx(ref.theta[0], rel=1e-14)

    def test_terminal_time(self):
        c = cev_single()
        pol = cev_policy(c, S=2.0, t=1.0)
        assert pol.hedging[0] == 0.0
        assert pol.myopic[0] == pytest.approx(0.1 / (0.04 * 2.0), rel=1e-12)

    def test_negative_price_rejected(self):
        with pytest.raises(DomainError):
            cev_policy(cev_single(), S=-1.0, t=0.0)

    def test_hedging_equals_gain_sensitivity(self):
        # hedging = -S df/dS e^{-r tau} with f the exact anticipated gain
        c = cev_single()
        S, t, h = 1.0, 0.0, 1e-6
        dfdS = (cev_anticipated_gain_exact(c, S + h, t)
                - cev_anticipated_gain_exact(c, S - h, t)) / (2 * h)
        expected = -S * dfdS * np.exp(-c.r * (c.T - t))
        assert cev_policy(c, S, t).hedging[0] == pytest.approx(expected, rel=1e-8)

    def test_zero_rate_limit(self):
        c = cev_single(r=0.0)
        pol = cev_policy(c, S=1.0, t=0.0)
        # (e^{-a r tau} - 1)/r -> -a tau
        expected = -(0.125 / 0.2) ** 2 * (-1.0)
        assert pol.hedging[0] == pytest.approx(expected, rel=1e-12)

    def test_continuity_to_gbm(self):
        m = single(sigma=0.2, T=1.0)
        ref = simple_policy(m, 0.0).theta[0]
        prev_gap = None
        for eps in (1e-4, 1e-6):
            got = cev_policy(cev_single(alpha=eps), S=1.0, t=0.0).theta[0]
            gap = abs(got - ref)
            assert gap < 1.0 * eps  # bounded by C * eps with finite C
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap


class TestCevPolicyMulti:
    def test_alpha_zero_matches_multi(self):
        corr = np.array([[1.0, 0.3], [0.3, 1.0]])
        c = CevParams(mu=[0.1, 0.12], sigma_bar=[0.2, 0.25], alpha=[0.0, 0.0],
                      corr=corr, r=0.02, T=2.0, gamma=1.0)
        loading = np.linalg.cholesky(np.outer([0.2, 0.25], [0.2, 0.25]) * corr)
        m = MarketParams(mu=[0.1, 0.12], sigma=loading, r=0.02, T=2.0, gamma=1.0)
        pol = cev_policy(c, S=[1.0, 3.0], t=0.5)
        ref = simple_policy(m, 0.5)
        np.testing.assert_allclose(pol.theta, ref.theta, rtol=1e-12)

    def test_single_asset_reduction(self):
        for r in (0.0, 0.025):
            c = cev_single(r=r, gamma=3.0)
            pol = cev_policy(c, S=[1.4], t=0.25)
            myopic, hedging = cev_scalar_policy(0.125, 0.2, 1.0, r, 1.0, 3.0, S=1.4, t=0.25)
            assert pol.myopic[0] == pytest.approx(myopic, rel=1e-14)
            assert pol.hedging[0] == pytest.approx(hedging, rel=1e-14)

    def test_diagonal_separability(self):
        c = CevParams(mu=[0.1, 0.14], sigma_bar=[0.2, 0.3], alpha=[1.0, -0.5],
                      corr=np.eye(2), r=0.03, T=2.0, gamma=2.0)
        S = np.array([1.2, 0.8])
        pol = cev_policy(c, S, t=0.5)
        for i in range(2):
            myopic, hedging = cev_scalar_policy(c.mu[i], c.sigma_bar[i], c.alpha[i],
                                                c.r, c.T, c.gamma, S[i], 0.5)
            assert pol.myopic[i] == pytest.approx(myopic, abs=1e-12)
            assert pol.hedging[i] == pytest.approx(hedging, abs=1e-12)

    def test_nonpositive_price(self):
        for S in (0.0, [-1.0], [np.nan], [np.inf]):
            with pytest.raises(DomainError):
                cev_policy(cev_single(), S=S, t=0.0)

    def test_price_count_must_match(self):
        with pytest.raises(ValueError, match="expected 1 prices"):
            cev_policy(cev_single(), S=[1.0, 2.0], t=0.0)

    @pytest.mark.parametrize("alpha", [400.0, -400.0])
    def test_price_power_out_of_range_is_domain_error(self, alpha):
        # 100^400 overflows and 100^-400 underflows; neither may read as theta = 0
        c = CevParams.single(0.125, 0.2, alpha, 0.025, 1.0, 1.0)
        message = rf"^price power S\^alpha out of range at alpha = {alpha:g}$"
        with np.errstate(all="raise"), pytest.raises(DomainError, match=message) as info:
            cev_policy(c, 100.0, 0.0)
        assert info.value.index is None

    def test_price_power_error_names_the_first_bad_row(self):
        # rows of a batched call: row 1 holds 1e3^200 = inf, row 2 1e-3^200 = 0
        S = np.array([[1.0, 2.0], [1.0, 1e3], [1e-3, 1.0]])
        with pytest.raises(DomainError, match="alpha = 200$") as info:
            cev_demand(np.full(2, 0.1), partial(np.linalg.solve, np.eye(2)), 200.0, S,
                       0.025, 1.0, np.ones(3))
        assert info.value.index == 1


class TestAnticipatedGain:
    def test_gbm_zero_sharpe(self):
        assert anticipated_gain_gbm(single(mu=0.025), 0.0) == 0.0

    def test_gbm_direct(self):
        assert anticipated_gain_gbm(single(), 0.0) == pytest.approx(0.5, rel=1e-12)

    def test_cev_alpha_zero_deterministic(self):
        c = cev_single(alpha=0.0, T=2.0)
        est = mc_anticipated_gain(c, S0=1.0, t=0.0, paths=500, seed=1)
        assert est.value == pytest.approx((0.1 / 0.2) ** 2 * 2.0, rel=1e-9)
        assert est.stderr <= 1e-12

    def test_cev_zero_excess(self):
        c = cev_single(mu=0.025)
        est = mc_anticipated_gain(c, S0=1.0, t=0.0, paths=500, seed=1)
        assert est.value == 0.0

    def test_cev_matches_ode_oracle(self):
        # independent oracle: numerically integrate the moment ODE
        from scipy.integrate import quad, solve_ivp
        c = cev_single()
        S, t = 1.0, 0.0
        sol = solve_ivp(
            lambda s, h: -c.alpha[0] * c.r * h
            + c.alpha[0] * (c.alpha[0] + 1) * c.sigma_bar[0] ** 2 / 2.0,
            (t, c.T), [S ** (-c.alpha[0])], dense_output=True, rtol=1e-10, atol=1e-12)
        integral = quad(lambda s: sol.sol(s)[0], t, c.T, epsabs=1e-12)[0]
        oracle = (c.mu[0] - c.r) ** 2 / (c.gamma * c.sigma_bar[0] ** 2) * integral
        assert cev_anticipated_gain_exact(c, S, t) == pytest.approx(oracle, rel=1e-8)
        est = mc_anticipated_gain(c, S, t, paths=40_000, seed=9)
        assert abs(est.value - oracle) <= 3.0 * max(est.stderr, 1e-12) + 2e-4

    @pytest.mark.parametrize("r", [0.0, 0.025])
    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0, 2.5])
    def test_exact_gain_on_an_array(self, alpha, r):
        c = cev_single(alpha=alpha, r=r)
        S = np.exp(np.random.default_rng(0).normal(0.0, 0.5, 500))
        gains = cev_anticipated_gain_exact(c, S, 0.4)
        assert gains.shape == S.shape
        # One price at a time through the same numpy loops: exactly equal.
        one_by_one = [cev_anticipated_gain_exact(c, np.asarray(s), 0.4) for s in S]
        assert np.array_equal(gains, one_by_one)
        # A Python float takes the C library's pow, an array numpy's vectorised
        # pow; the two may differ in the last bit of S^-alpha, which the
        # h0 - h_inf cancellation amplifies by a few ulps at most.
        scalars = [cev_anticipated_gain_exact(c, float(s), 0.4) for s in S]
        np.testing.assert_allclose(gains, scalars, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("alpha, S", [(400.0, 1e-3), (400.0, 10.0), (-400.0, 10.0),
                                          (400.0, np.array([1.0, 10.0]))],
                             ids=["overflow", "underflow", "negative-alpha", "array"])
    def test_exact_gain_price_power_out_of_range_is_domain_error(self, alpha, S):
        with pytest.raises(DomainError,
                           match=rf"^price power S\^-alpha out of range at alpha = {alpha:g}$"):
            cev_anticipated_gain_exact(cev_single(alpha=alpha), S, 0.0)

    def test_exact_gain_rejects_a_nonpositive_price_in_an_array(self):
        with pytest.raises(DomainError):
            cev_anticipated_gain_exact(cev_single(), np.array([1.0, 0.0]), 0.0)

    @pytest.mark.parametrize("price", [np.nan, np.inf])
    def test_exact_gain_rejects_a_non_finite_price(self, price):
        with pytest.raises(DomainError, match="positive and finite"):
            cev_anticipated_gain_exact(cev_single(), price, 0.0)
        with pytest.raises(DomainError, match="positive and finite"):
            cev_anticipated_gain_exact(cev_single(), np.array([1.0, price]), 0.0)

    def test_requires_minimum_paths(self):
        with pytest.raises(ValueError):
            mc_anticipated_gain(cev_single(), 1.0, 0.0, paths=10, seed=0)


def hedging_loop(c, S, t, paths, seed, n_steps):
    """Reference correlation of hedging_covariance_check at alpha <= 0:
    physical-measure Euler steps absorbed at 1e-8 S of each half of
    two_streams(seed, paths) in turn, each step's antithetic normals drawn
    in turn, the exact gain at each step's end time, one-step returns and
    gain changes pooled over steps and paths, half 0's first."""
    alpha = c.alpha[0]
    dt = (c.T - t) / n_steps
    rets, dfs = [], []
    for rng, n in two_streams(seed, paths):
        s = np.full(n, S)
        f = cev_anticipated_gain_exact(c, S, t)
        for k in range(1, n_steps + 1):
            z = antithetic_normals(rng, n)
            alive = s > 1e-8 * S
            s_new = euler_step(s, z, c.mu[0], c.sigma_bar[0], alpha, dt, 1e-8 * S)
            f_new = cev_anticipated_gain_exact(c, s_new, t + k * dt)
            rets.append(np.where(alive, s_new / s - 1.0, 0.0))
            dfs.append(f_new - f)
            s, f = s_new, f_new
    return np.corrcoef(np.concatenate(rets), np.concatenate(dfs))[0, 1]


def hedging_implicit_loop(c, S, t, paths, seed, n_steps):
    """Reference correlation of hedging_covariance_check at alpha > 0:
    physical-measure implicit steps of x = S^(-alpha/2) (implicit_step) of
    each half of two_streams(seed, paths) in turn, each step's antithetic
    normals drawn in turn, the price x^(-2/alpha) and its exact gain at
    each step's end time, one-step returns and gain changes pooled over
    steps and paths, half 0's first."""
    mu, sb, alpha = c.mu[0], c.sigma_bar[0], c.alpha[0]
    dt = (c.T - t) / n_steps
    rets, dfs = [], []
    for rng, n in two_streams(seed, paths):
        x = np.full(n, float(np.power(S, -alpha / 2.0)))
        s = np.full(n, S)
        f = cev_anticipated_gain_exact(c, S, t)
        for k in range(1, n_steps + 1):
            x = implicit_step(x, antithetic_normals(rng, n), mu, sb, alpha, dt)
            s_new = x ** (-2.0 / alpha)
            f_new = cev_anticipated_gain_exact(c, s_new, min(t + k * dt, c.T))
            rets.append(s_new / s - 1.0)
            dfs.append(f_new - f)
            s, f = s_new, f_new
    return np.corrcoef(np.concatenate(rets), np.concatenate(dfs))[0, 1]


class TestHedgingCovariance:
    def test_alpha_zero_uncorrelated(self):
        rep = hedging_covariance_check(cev_single(alpha=0.0), S=1.0, t=0.0,
                                       paths=10_000, seed=4)
        assert abs(rep.correlation) <= 0.05
        assert rep.hedging_sign == 0
        assert rep.consistent

    def test_alpha_positive(self):
        rep = hedging_covariance_check(cev_single(alpha=1.0), S=1.0, t=0.0,
                                       paths=4000, seed=4)
        assert rep.covariance_sign == -1
        assert rep.hedging_sign == 1
        assert rep.consistent

    def test_alpha_negative(self):
        rep = hedging_covariance_check(cev_single(alpha=-1.0), S=1.0, t=0.0,
                                       paths=4000, seed=4)
        assert rep.covariance_sign == 1
        assert rep.hedging_sign == -1
        assert rep.consistent

    @pytest.mark.parametrize("alpha", [-1.0, 1.0])
    def test_correlation_matches_step_by_step_loop(self, alpha):
        # alpha <= 0 steps Euler, alpha > 0 the implicit x = S^(-alpha/2)
        c = cev_single(alpha=alpha, T=2.0)
        loop = hedging_implicit_loop if alpha > 0 else hedging_loop
        rep = hedging_covariance_check(c, 1.3, 0.2, 2000, seed=4, n_steps=16)
        assert rep.correlation == loop(c, 1.3, 0.2, 2000, 4, 16)

    def test_helper_thread_run_matches_step_by_step_loop(self):
        # 2^16 of the 2^17 paths step on the worker thread
        paths = 2**17
        c = cev_single(alpha=1.0, T=2.0)
        rep = hedging_covariance_check(c, 1.3, 0.2, paths, seed=4, n_steps=16)
        assert rep.correlation == hedging_implicit_loop(c, 1.3, 0.2, paths, 4, 16)

    @pytest.mark.parametrize("paths", [2001, 3])
    def test_odd_path_count_matches_step_by_step_loop(self, paths):
        # half 1 steps one path more than half 0
        c = cev_single(alpha=1.0, T=2.0)
        rep = hedging_covariance_check(c, 1.3, 0.2, paths, seed=4, n_steps=16)
        assert rep.correlation == hedging_implicit_loop(c, 1.3, 0.2, paths, 4, 16)

    def test_one_path(self):
        # half 0 is empty; the pairs are the one path's 64 steps
        c = cev_single(alpha=1.0, T=2.0)
        rep = hedging_covariance_check(c, 1.3, 0.2, 1, seed=4)
        assert rep.correlation == hedging_implicit_loop(c, 1.3, 0.2, 1, 4, 64)
        assert rep.consistent

    @pytest.mark.parametrize("sigma_bar", [1.0, 1.5])
    def test_absorbed_paths_match_step_by_step_loop(self, sigma_bar):
        # 19% and 45% of paths end at the floor; an absorbed path's return,
        # floor / floor - 1, is the loop's masked 0
        c = cev_single(alpha=-1.0, sigma_bar=sigma_bar, T=2.0)
        rep = hedging_covariance_check(c, 1.3, 0.2, 2000, seed=4, n_steps=16)
        assert rep.correlation == hedging_loop(c, 1.3, 0.2, 2000, 4, 16)

    def test_alpha_above_two_gives_a_consistent_report(self):
        # alpha = 2.5 overflowed the Euler step, and the correlation read
        # NaN; the implicit step stays finite (cev_paths still diverges on
        # such inputs: TestCevPaths.test_diverging_panel_is_unstable)
        rep = hedging_covariance_check(CevParams.single(0.125, 0.3, 2.5, 0.025, 10.0, 1.0),
                                       S=1.0, t=0.0, paths=4000, seed=4)
        assert np.isfinite(rep.correlation)
        assert rep.covariance_sign == -1 and rep.hedging_sign == 1 and rep.consistent

    @pytest.mark.parametrize("alpha", [1.0, 0.0])
    @pytest.mark.parametrize("gamma", [1e13, 1e15])
    def test_verdict_does_not_depend_on_gamma(self, alpha, gamma):
        # 1/gamma scales the gain changes and the hedging demand alike; with
        # absolute floors gamma = 1e13 read correlation 0 and an inconsistent
        # report, gamma = 1e15 both signs 0.  At alpha = 0 the gain's spread
        # is rounding (1.2e-15 of its size at gamma = 1e13), so no correlation
        c = cev_single(alpha=alpha)
        want = hedging_covariance_check(c, S=1.0, t=0.0, paths=2000, seed=3)
        got = hedging_covariance_check(cev_single(alpha=alpha, gamma=gamma), S=1.0, t=0.0,
                                       paths=2000, seed=3)
        assert got.correlation == pytest.approx(want.correlation, rel=1e-12)
        assert (got.covariance_sign, got.hedging_sign, got.consistent) == (
            want.covariance_sign, want.hedging_sign, want.consistent)
        assert want.consistent and (want.correlation == 0.0) == (alpha == 0.0)

    def test_mass_absorption_is_unstable(self):
        # the CEV step shared with cev_paths and mc_anticipated_gain rejects
        # a run that absorbs more than half of its paths
        with pytest.raises(InstabilityError):
            hedging_covariance_check(cev_single(sigma_bar=8.0, alpha=0.0), S=1.0, t=0.0,
                                     paths=1000, seed=1)


class TestLattice:
    def test_zero_excess_return_zero_policy(self):
        m = single(mu=0.025, T=1.0)
        lat = lattice_equilibrium_oracle(m, steps=32)
        for level in lat.thetas:
            np.testing.assert_array_equal(level, np.zeros_like(level))

    def test_gamma_scaling(self):
        m1 = single(T=1.0, gamma=1.0)
        m2 = single(T=1.0, gamma=2.0)
        r1 = lattice_equilibrium_oracle(m1, 64).root
        r2 = lattice_equilibrium_oracle(m2, 64).root
        assert r2 == pytest.approx(r1 / 2.0, rel=1e-12)

    def test_first_order_convergence(self):
        m = single(T=1.0)
        closed = simple_policy(m, 0.0).theta[0]
        errs = [abs(lattice_equilibrium_oracle(m, s).root - closed)
                for s in (64, 128, 256, 512)]
        for e1, e2 in zip(errs, errs[1:]):
            assert 0.35 <= e2 / e1 <= 0.65  # halves within +/- 30%

    def test_step_limit(self):
        with pytest.raises(ResourceError):
            lattice_equilibrium_oracle(single(), steps=1 << 16)
        with pytest.raises(ResourceError, match="exceeds limit 4096"):
            lattice_equilibrium_oracle(single(), steps=(1 << 12) + 1)

    def test_step_too_coarse_for_the_drift(self):
        # mu sqrt(dt) = 1.1 exceeds sigma = 0.1: growth exp(mu dt) is above u
        with pytest.raises(ValueError, match="time step too coarse"):
            lattice_equilibrium_oracle(single(mu=0.5, sigma=0.1, T=10.0), steps=2)

    def test_too_few_steps(self):
        with pytest.raises(ValueError):
            lattice_equilibrium_oracle(single(), steps=1)

    def test_non_integer_steps(self):
        with pytest.raises(ValueError, match=r"^steps must be an integer, got 2.5$"):
            lattice_equilibrium_oracle(single(), steps=2.5)

    def test_numpy_integer_steps(self):
        got = lattice_equilibrium_oracle(single(), steps=np.int64(32))
        assert got.root == lattice_equilibrium_oracle(single(), steps=32).root


class TestValidation:
    def test_two_dimensional_vector_rejected(self):
        # a (1, 2) or (2, 1) mu would broadcast into a (1, 2) or (2, 2) theta
        with pytest.raises(ValueError, match=r"^mu must be a 1-d vector, got shape \(1, 2\)$"):
            MarketParams(mu=[[0.1, 0.2]], sigma=np.eye(2), r=0.02, T=1.0, gamma=1.0)
        with pytest.raises(ValueError, match=r"^mu must be a 1-d vector, got shape \(2, 1\)$"):
            CevParams(mu=[[0.1], [0.2]], sigma_bar=[0.2, 0.2], alpha=1.0, corr=np.eye(2),
                      r=0.02, T=1.0, gamma=1.0)
        c = CevParams(mu=[0.1, 0.2], sigma_bar=[0.2, 0.2], alpha=1.0, corr=np.eye(2),
                      r=0.02, T=1.0, gamma=1.0)
        with pytest.raises(ValueError, match="^S must be a 1-d vector"):
            cev_policy(c, [[1.0, 1.2]], 0.0)

    @pytest.mark.parametrize("make, name", [
        (lambda m: MarketParams(mu=[0.1, 0.2], sigma=m, r=0.02, T=1.0, gamma=1.0), "sigma"),
        (lambda m: CevParams(mu=[0.1, 0.2], sigma_bar=[0.2, 0.2], alpha=1.0, corr=m,
                             r=0.02, T=1.0, gamma=1.0), "corr"),
    ], ids=["gbm", "cev"])
    def test_wrong_matrix_shape_named(self, make, name):
        with pytest.raises(ValueError, match=rf"^{name} must be 2x2, got \(3, 3\)$"):
            make(np.eye(3))

    @pytest.mark.parametrize("call", [
        lambda m, c: m.sharpe,
        lambda m, c: anticipated_gain_gbm(m, 0.0),
        lambda m, c: cev_anticipated_gain_exact(c, 1.0, 0.0),
        lambda m, c: lattice_equilibrium_oracle(m, 8),
        lambda m, c: mc_anticipated_gain(c, 1.0, 0.0, 1000, 0),
    ], ids=["sharpe", "anticipated_gain_gbm", "cev_anticipated_gain_exact",
            "lattice_equilibrium_oracle", "mc_anticipated_gain"])
    def test_single_asset_call_rejects_a_multi_asset_market(self, call):
        m = MarketParams(mu=[0.1, 0.2], sigma=np.eye(2), r=0.02, T=1.0, gamma=1.0)
        c = CevParams(mu=[0.1, 0.2], sigma_bar=[0.2, 0.2], alpha=1.0, corr=np.eye(2),
                      r=0.02, T=1.0, gamma=1.0)
        with pytest.raises(ValueError, match="single"):
            call(m, c)

    @pytest.mark.parametrize("sigma_bar, said", [
        ([0.2], "sigma_bar must have length 2"),
        ([0.2, -0.1], "sigma_bar must be nonnegative componentwise"),
    ])
    def test_bad_sigma_bar(self, sigma_bar, said):
        with pytest.raises(ValueError, match=said):
            CevParams(mu=[0.1, 0.2], sigma_bar=sigma_bar, alpha=1.0, corr=np.eye(2),
                      r=0.02, T=1.0, gamma=1.0)

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            MarketParams.single(0.1, 0.2, 0.02, 1.0, gamma=0.0)

    def test_bad_corr(self):
        with pytest.raises(ValueError):
            CevParams(mu=[0.1, 0.1], sigma_bar=[0.2, 0.2], alpha=[0.0, 0.0],
                      corr=np.array([[1.0, 0.5], [0.4, 1.0]]),
                      r=0.02, T=1.0, gamma=1.0)

    def test_zero_volatility_policy_rejected(self):
        m = MarketParams.single(0.1, 0.0, 0.02, 1.0, 1.0)
        with pytest.raises(DefinitenessError):
            simple_policy(m, 0.0)

    def test_singular_scale_covariance_rejected(self):
        # sigma_bar = [0.2, 0] makes omega singular; the one solve says so
        c = CevParams(mu=[0.1, 0.12], sigma_bar=[0.2, 0.0], alpha=1.0, corr=np.eye(2),
                      r=0.025, T=1.0, gamma=1.0)
        with pytest.raises(DefinitenessError, match="^singular covariance$"):
            cev_policy(c, [1.0, 1.0], 0.0)

    def test_zero_volatility_sharpe_rejected(self):
        m = MarketParams.single(0.1, 0.0, 0.02, 1.0, 1.0)
        with pytest.raises(DefinitenessError):
            m.sharpe

    def test_rank_deficient_loading_accepted(self):
        # sigma @ sigma.T is PSD by construction; at this scale its smallest
        # computed eigenvalues are rounding noise near -1e-10
        rng = np.random.default_rng(0)
        sigma = 100.0 * rng.normal(size=(10, 3)) @ rng.normal(size=(3, 10))
        m = MarketParams(mu=np.full(10, 0.1), sigma=sigma, r=0.02, T=1.0, gamma=1.0)
        assert np.min(np.linalg.eigvalsh(m.cov)) < -1e-12
        assert np.linalg.matrix_rank(m.sigma) == 3

    @pytest.mark.parametrize("field", ["mu", "sigma", "r", "T", "gamma"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gbm_market_rejected(self, field, bad):
        kw = dict(mu=[0.1, 0.1], sigma=np.eye(2), r=0.02, T=1.0, gamma=1.0)
        kw[field] = np.full(np.shape(kw[field]), bad)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            MarketParams(**kw)

    @pytest.mark.parametrize("field", ["mu", "sigma_bar", "alpha", "corr", "r", "T", "gamma"])
    def test_non_finite_cev_market_rejected(self, field):
        kw = dict(mu=[0.1, 0.1], sigma_bar=[0.2, 0.2], alpha=[1.0, 1.0], corr=np.eye(2),
                  r=0.02, T=1.0, gamma=1.0)
        kw[field] = np.full(np.shape(kw[field]), np.nan)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CevParams(**kw)

    def test_empty_market_rejected(self):
        with pytest.raises(ValueError, match="no assets"):
            MarketParams(mu=np.zeros(0), sigma=np.zeros((0, 0)), r=0.02, T=1.0, gamma=1.0)
        with pytest.raises(ValueError, match="no assets"):
            CevParams(mu=np.zeros(0), sigma_bar=np.zeros(0), alpha=np.zeros(0),
                      corr=np.zeros((0, 0)), r=0.02, T=1.0, gamma=1.0)

    @pytest.mark.parametrize("make", [
        lambda **kw: MarketParams.single(0.1, 0.2, **kw),
        lambda **kw: CevParams.single(0.1, 0.2, 1.0, **kw),
    ], ids=["gbm", "cev"])
    @pytest.mark.parametrize("over, said", [
        ({"gamma": 0.0}, "gamma must be positive"),
        ({"T": 0.0}, "horizon must be positive"),
        ({"r": -0.01}, "riskless rate must be nonnegative"),
    ])
    def test_shared_scalar_checks(self, make, over, said):
        with pytest.raises(ValueError, match=said):
            make(**{"r": 0.02, "T": 1.0, "gamma": 1.0, **over})

    def test_nan_time_is_horizon_error(self):
        with pytest.raises(HorizonError):
            simple_policy(single(), np.nan)
