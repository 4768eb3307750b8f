import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from mvlab import simulate
from mvlab.backtest import BacktestConfig
from mvlab.dynamic_policy import (
    CevParams,
    MarketParams,
    _check_entries,
    _MAX_ENTRIES,
    anticipated_gain_gbm,
    cev_anticipated_gain_exact,
    lattice_equilibrium_oracle,
)
from mvlab.errors import DataError, DomainError, HorizonError, InstabilityError, ResourceError
from mvlab.simulate import (
    HEDGE_NEUTRAL,
    PHYSICAL,
    PriceSeries,
    SimConfig,
    cev_paths,
    gbm_ensemble,
    gbm_paths,
    mc_anticipated_gain,
    rn_weights,
)
from mvlab.wealth_analysis import compare_strategies_mc

from conftest import antithetic_normals, euler_step, implicit_step, inline_threads, two_streams


def cfg(n_assets=1, n_steps=52, dt=1 / 52, s0=1.0, seed=0, measure=PHYSICAL):
    return SimConfig(n_assets=n_assets, n_steps=n_steps, dt=dt, s0=s0,
                     seed=seed, measure=measure)


class TestPriceSeries:
    def test_single_column_promotion(self):
        ps = PriceSeries(prices=[1.0, 1.1])
        assert ps.prices.shape == (2, 1)
        assert ps.n_assets == 1

    def test_no_asset_column_is_data_error(self):
        with pytest.raises(DataError, match="no asset columns"):
            PriceSeries(prices=np.ones((60, 0)))

    @pytest.mark.parametrize("shape", [(60, 3, 1), ()])
    def test_panel_not_2d_is_data_error(self, shape):
        with pytest.raises(DataError, match="must be 2-D"):
            PriceSeries(prices=np.ones(shape))


class TestGbmPaths:
    def test_deterministic_when_sigma_zero(self):
        m = MarketParams.single(0.1, 0.0, 0.02, 1.0, 1.0)
        ps = gbm_paths(m, cfg(n_steps=52))
        np.testing.assert_allclose(ps.prices[:, 0], np.exp(0.1 * np.arange(53) / 52),
                                   rtol=1e-12)

    def test_seed_reproducibility(self):
        m = MarketParams.single(0.125, np.sqrt(0.2), 0.025, 1.0, 1.0)
        a = gbm_paths(m, cfg(seed=42))
        b = gbm_paths(m, cfg(seed=42))
        np.testing.assert_array_equal(a.prices, b.prices)
        c = gbm_paths(m, cfg(seed=43))
        assert np.any(a.prices != c.prices)

    def test_lognormal_moments(self):
        # aggregate many one-year panels: E[S_T] = S0 e^{mu T}
        m = MarketParams.single(0.125, np.sqrt(0.2), 0.025, 1.0, 1.0)
        _, s = gbm_ensemble(0.125, np.sqrt(0.2), 0.025, 1.0, 52, 100_000, 5)
        assert np.mean(s[:, -1]) == pytest.approx(np.exp(0.125), rel=0.01)
        logs = np.log(s[:, -1])
        assert np.mean(logs) == pytest.approx(0.125 - 0.1, abs=0.01)
        assert np.var(logs) == pytest.approx(0.2, rel=0.03)

    def test_hedge_neutral_drift(self):
        _, s = gbm_ensemble(0.125, np.sqrt(0.2), 0.025, 1.0, 52, 100_000, 5,
                            measure=HEDGE_NEUTRAL)
        assert np.mean(s[:, -1]) == pytest.approx(np.exp(0.025), rel=0.01)

    def test_unknown_measure(self, monkeypatch):
        # a misspelt measure once ran silently with drift r
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ValueError, match="^unknown measure 'hedge-neutral'$"):
            gbm_ensemble(0.125, 0.2, 0.025, 1.0, 52, 10, 5, measure="hedge-neutral")

    def test_cross_correlation(self):
        L = np.linalg.cholesky(np.array([[0.04, 0.012], [0.012, 0.09]]))
        m = MarketParams(mu=[0.1, 0.1], sigma=L, r=0.02, T=4.0, gamma=1.0)
        ps = gbm_paths(m, cfg(n_assets=2, n_steps=20_000, dt=1e-3, seed=8))
        incr = np.diff(np.log(ps.prices), axis=0)
        cov = np.cov(incr.T) / 1e-3
        np.testing.assert_allclose(cov, m.cov, atol=0.005)

    def test_asset_count_mismatch(self):
        m = MarketParams.single(0.1, 0.2, 0.02, 1.0, 1.0)
        with pytest.raises(ValueError):
            gbm_paths(m, cfg(n_assets=2, s0=[1.0, 1.0]))
        with pytest.raises(ValueError, match="config and market disagree on asset count"):
            cev_paths(CevParams.single(0.1, 0.2, 1.0, 0.02, 1.0, 1.0), cfg(n_assets=2))


def cev1(mu=0.125, sigma_bar=0.2, alpha=1.0, r=0.025, T=1.0, gamma=1.0):
    return CevParams.single(mu, sigma_bar, alpha, r, T, gamma)


# runs a test as it is and again under the floating-point traps that the
# CLI runs every command under
both_errstates = pytest.mark.parametrize(
    "errstate", [{}, dict(over="raise", invalid="raise", divide="raise")],
    ids=["default", "cli-errstate"])


def euler_loop(c, config):
    """Step-by-step Euler-Maruyama reference for cev_paths: one draw of
    correlated normals per week, paths absorbed at 1e-8 * s0."""
    drift = c.mu if config.measure == PHYSICAL else np.full(c.n_assets, c.r)
    L = np.linalg.cholesky(c.corr)
    rng = np.random.default_rng(config.seed)
    floor = 1e-8 * config.s0
    s = config.s0
    rows = [s]
    for _ in range(config.n_steps):
        z = rng.standard_normal(c.n_assets) @ L.T
        s = euler_step(s, z, drift, c.sigma_bar, c.alpha, config.dt, floor)
        rows.append(s)
    return np.array(rows)


class TestCevPaths:
    @pytest.mark.parametrize("measure", [PHYSICAL, HEDGE_NEUTRAL])
    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
    def test_matches_step_by_step_euler(self, alpha, measure):
        corr = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])
        c = CevParams(mu=[0.1, 0.12, 0.08], sigma_bar=[0.3, 0.2, 0.4], alpha=alpha,
                      corr=corr, r=0.025, T=4.0, gamma=1.0)
        config = SimConfig(n_assets=3, n_steps=200, dt=1 / 52, s0=[1.0, 2.0, 0.5],
                           seed=11, measure=measure)
        assert np.array_equal(cev_paths(c, config).prices, euler_loop(c, config))

    @pytest.mark.parametrize("measure", [PHYSICAL, HEDGE_NEUTRAL])
    def test_absorbing_panel_matches_step_by_step_euler(self, measure):
        # the middle asset's weekly vol of 6/sqrt(52) = 0.83 drives it to the
        # floor; one absorbed asset of three stays under the 50% limit
        c = CevParams(mu=[0.1, 0.1, 0.1], sigma_bar=[0.2, 6.0, 0.2], alpha=0.0,
                      corr=np.eye(3), r=0.025, T=2.0, gamma=1.0)
        config = SimConfig(n_assets=3, n_steps=100, dt=1 / 52, s0=1.0, seed=3,
                           measure=measure)
        prices = cev_paths(c, config).prices
        assert np.array_equal(prices, euler_loop(c, config))
        assert prices[-1, 1] == 1e-8 and np.all(prices[-1, [0, 2]] > 0.5)

    @both_errstates
    @pytest.mark.parametrize("n_assets, n_steps", [(1, 200), (10, 200), (50, 523)])
    def test_workload_shapes_match_step_by_step_euler(self, n_assets, n_steps, errstate):
        # the benchmark's CEV panels: equicorrelated assets with variance
        # 0.02 at s0 = 100; the panel's stacked (1, N) @ (N, N) products
        # must have the bits of the reference's one product a week
        corr = np.full((n_assets, n_assets), 0.05)
        np.fill_diagonal(corr, 1.0)
        c = CevParams(mu=np.full(n_assets, 0.125), sigma_bar=np.full(n_assets, np.sqrt(2e-4)),
                      alpha=1.0, corr=corr, r=0.025, T=n_steps / 52, gamma=1.0)
        config = SimConfig(n_assets=n_assets, n_steps=n_steps, dt=1 / 52, s0=100.0, seed=5)
        with np.errstate(**errstate):
            prices = cev_paths(c, config).prices
        assert np.array_equal(prices, euler_loop(c, config))

    @both_errstates
    def test_absorbed_asset_at_negative_alpha_stays_at_its_floor(self, errstate):
        # the middle asset touches its floor at week 80 and is held there for
        # the 20 weeks after, where an unheld Euler step would move it
        c = CevParams(mu=[0.1, 0.1, 0.1], sigma_bar=[0.2, 2.0, 0.2], alpha=-1.0,
                      corr=np.eye(3), r=0.025, T=2.0, gamma=1.0)
        config = SimConfig(n_assets=3, n_steps=100, dt=1 / 52, s0=1.0, seed=0)
        with np.errstate(**errstate):
            prices = cev_paths(c, config).prices
        assert np.array_equal(prices, euler_loop(c, config))
        assert np.all(prices[80:, 1] == 1e-8) and prices[79, 1] > 1e-8
        assert np.all(prices[-1, [0, 2]] > 0.5)

    def test_absorbing_panel_with_unequal_starts(self):
        # each asset's floor is 1e-8 of its own start: the middle one, at
        # s0 = 2, ends at 2e-8, while the others' floors are 1e-8 and 5e-9
        c = CevParams(mu=[0.1, 0.1, 0.1], sigma_bar=[0.2, 6.0, 0.2], alpha=0.0,
                      corr=np.eye(3), r=0.025, T=2.0, gamma=1.0)
        config = SimConfig(n_assets=3, n_steps=100, dt=1 / 52, s0=[1.0, 2.0, 0.5], seed=3)
        prices = cev_paths(c, config).prices
        assert np.array_equal(prices, euler_loop(c, config))
        assert prices[-1, 1] == 2e-8 and np.all(prices[-1, [0, 2]] > 0.25)

    def test_singular_correlation_allowed(self):
        # rank one: two equal assets driven by one shock move together
        c = CevParams(mu=[0.1, 0.1], sigma_bar=[0.3, 0.3], alpha=1.0,
                      corr=np.ones((2, 2)), r=0.025, T=1.0, gamma=1.0)
        prices = cev_paths(c, cfg(n_assets=2, seed=2)).prices
        np.testing.assert_allclose(prices[:, 0], prices[:, 1], rtol=1e-12)

    def test_alpha_zero_matches_gbm_weakly(self):
        # Euler CEV with alpha=0 is Euler GBM; drift matches to O(dt)
        c = cev1(alpha=0.0)
        terminal = []
        for seed in range(200):
            ps = cev_paths(c, cfg(n_steps=104, dt=1 / 104, seed=seed))
            terminal.append(ps.prices[-1, 0])
        assert np.mean(terminal) == pytest.approx(np.exp(0.125), rel=0.05)

    def test_reproducible(self):
        c = cev1()
        a = cev_paths(c, cfg(seed=3))
        b = cev_paths(c, cfg(seed=3))
        np.testing.assert_array_equal(a.prices, b.prices)

    @both_errstates
    def test_absorption_floor(self, errstate):
        # violent negative elasticity: vol blows up as S falls
        c = cev1(mu=-2.0, sigma_bar=3.0, alpha=-1.5, T=1.0)
        with np.errstate(**errstate), pytest.raises(InstabilityError,
                                                   match="^1 of 1 paths absorbed"):
            cev_paths(c, SimConfig(n_assets=1, n_steps=260, dt=1 / 52,
                                   s0=0.01, seed=1))

    def test_absorbed_asset_at_positive_alpha_is_unstable(self):
        # the panel of test_absorbing_panel_matches_step_by_step_euler at
        # alpha = 1: the true process cannot reach the floor, so one absorbed
        # asset of three is a discretisation failure
        c = CevParams(mu=[0.1, 0.1, 0.1], sigma_bar=[0.2, 6.0, 0.2], alpha=1.0,
                      corr=np.eye(3), r=0.025, T=2.0, gamma=1.0)
        with pytest.raises(InstabilityError, match="1 of 3 paths absorbed"):
            cev_paths(c, SimConfig(n_assets=3, n_steps=100, dt=1 / 52, s0=1.0, seed=1))

    @both_errstates
    def test_diverging_panel_is_unstable(self, errstate):
        # alpha = 2.5 at dt = 10/64: this seed's Euler path overflows before
        # it steps below zero (the Monte Carlo runs step alpha > 0 implicitly)
        c = CevParams.single(0.125, 0.3, 2.5, 0.025, 10.0, 1.0)
        with np.errstate(**errstate), pytest.raises(InstabilityError, match="^CEV steps diverged"):
            cev_paths(c, SimConfig(n_assets=1, n_steps=64, dt=10 / 64, s0=1.0, seed=78))

    def test_hedge_neutral_drift(self):
        c = cev1()
        terminal = []
        for seed in range(300):
            ps = cev_paths(c, cfg(n_steps=52, seed=seed,
                                  measure=HEDGE_NEUTRAL))
            terminal.append(ps.prices[-1, 0])
        assert np.mean(terminal) == pytest.approx(np.exp(0.025), rel=0.05)


class TestRnWeights:
    def test_zero_sharpe_unit_weight(self):
        m = MarketParams.single(0.025, 0.2, 0.025, 1.0, 1.0)
        ps = gbm_paths(m, cfg(seed=4))
        assert rn_weights(m, np.arange(53) / 52, ps.prices[:, 0]) == pytest.approx(1.0, rel=1e-12)

    def test_expectation_one(self):
        m = MarketParams.single(0.125, np.sqrt(0.2), 0.025, 1.0, 1.0)
        times, s = gbm_ensemble(0.125, np.sqrt(0.2), 0.025, 1.0, 52,
                                200_000, 6)
        w = rn_weights(m, times, s)
        assert np.mean(w) == pytest.approx(1.0, abs=0.01)

    def test_reweighted_drift_is_hedge_neutral(self):
        # E[w * S_T] under P equals E*[S_T] = e^{rT}
        m = MarketParams.single(0.125, np.sqrt(0.2), 0.025, 1.0, 1.0)
        times, s = gbm_ensemble(0.125, np.sqrt(0.2), 0.025, 1.0, 52,
                                200_000, 6)
        w = rn_weights(m, times, s)
        assert np.mean(w * s[:, -1]) == pytest.approx(np.exp(0.025), rel=0.01)

    def test_exact_closed_form(self):
        # reconstructed w_T must invert the lognormal stepping exactly, on a
        # uniform grid and on a non-uniform one of the same horizon
        m = MarketParams.single(0.125, np.sqrt(0.2), 0.025, 1.0, 1.0)
        rng = np.random.default_rng(0)
        z = rng.standard_normal(52)
        sigma = np.sqrt(0.2)
        kappa = m.sharpe
        for times in (np.arange(53) / 52, (np.arange(53) / 52) ** 2):
            dt = np.diff(times)
            incr = (0.125 - 0.1) * dt + sigma * np.sqrt(dt) * z
            prices = np.exp(np.concatenate([[0.0], np.cumsum(incr)]))
            w_T = np.sum(np.sqrt(dt) * z)
            expected = np.exp(-0.5 * kappa**2 - kappa * w_T)
            assert rn_weights(m, times, prices) == pytest.approx(expected, rel=1e-10)


class TestMcAnticipatedGain:
    def test_cev_against_exact(self):
        c = cev1()
        exact = cev_anticipated_gain_exact(c, 1.0, 0.0)
        est = mc_anticipated_gain(c, 1.0, 0.0, 40_000, 12)
        assert abs(est.value - exact) <= 3 * est.stderr + 2e-4

    def test_terminal_time_zero(self):
        est = mc_anticipated_gain(cev1(), 1.0, 1.0, 1000, 0)
        assert est.value == 0.0 and est.stderr == 0.0

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            mc_anticipated_gain(cev1(), -1.0, 0.0, 1000, 0)
        with pytest.raises(ValueError):
            mc_anticipated_gain(cev1(), 1.0, 0.0, 50, 0)
        with pytest.raises(DomainError, match="positive scale volatility required"):
            mc_anticipated_gain(cev1(sigma_bar=0.0), 1.0, 0.0, 1000, 0)

    @pytest.mark.parametrize("check", ["mc_anticipated_gain", "hedging_covariance_check"])
    @pytest.mark.parametrize("S", [np.nan, np.inf, 0.0])
    def test_bad_start_price_rejected_before_any_step(self, check, S, monkeypatch):
        no_steps(monkeypatch)
        with pytest.raises(DomainError, match="prices must be positive and finite"):
            getattr(simulate, check)(cev1(), S, 0.0, 1000, 0)

    @pytest.mark.parametrize("check", ["mc_anticipated_gain", "hedging_covariance_check"])
    @pytest.mark.parametrize("alpha, S", [
        *[pytest.param(4.0, S, id=f"{S:g}") for S in (1e200, 1e-200, 1e100, 1e-100)],
        *[pytest.param(-4.0, S, id=f"alpha-minus-4-{S:g}") for S in (1e200, 1e-200)]])
    def test_start_power_out_of_range_rejected_before_any_step(self, check, alpha, S,
                                                                monkeypatch):
        # at alpha = 4 the implicit state S^-2 is 0 or infinite, or its
        # square S^-4, the gain's integrand, is; at alpha = -4 the Euler
        # integrand S^4 is
        no_steps(monkeypatch)
        with pytest.raises(DomainError,
                           match=f"^price power S\\^-alpha out of range at alpha = {alpha:g}$"):
            getattr(simulate, check)(cev1(alpha=alpha), S, 0.0, 1000, 0)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_start_power_out_of_range_at_negative_alpha_like_the_exact_gain(self, t):
        # 100^400 overflows: the Monte Carlo returned a NaN estimate here,
        # and at t = T a zero, where the exact gain raises
        c = cev1(alpha=-400.0)
        message = "^price power S\\^-alpha out of range at alpha = -400$"
        with pytest.raises(DomainError, match=message):
            cev_anticipated_gain_exact(c, 100.0, t)
        with pytest.raises(DomainError, match=message):
            mc_anticipated_gain(c, 100.0, t, 1000, 0)

    def test_multi_asset_market_rejected_before_the_runner(self, monkeypatch):
        def fail(*args):
            raise AssertionError("ran")

        monkeypatch.setattr(simulate, "_run_halves", fail)
        c = CevParams(mu=[0.1, 0.2], sigma_bar=[0.2, 0.2], alpha=1.0, corr=np.eye(2),
                      r=0.02, T=1.0, gamma=1.0)
        with pytest.raises(ValueError,
                           match="^requires a single-asset market$"):
            simulate.hedging_covariance_check(c, 1.0, 0.0, 1000, 0)

    @pytest.mark.parametrize("mu", [-4.0, -10.0])
    def test_implicit_step_without_positive_root_rejected(self, mu, monkeypatch):
        # alpha mu dt = -2 and -5 under the physical measure: k = 1 + alpha
        # mu dt / 2 <= 0 leaves the implicit step no positive root
        no_steps(monkeypatch)
        with pytest.raises(DomainError, match="is at or below -2"):
            simulate.hedging_covariance_check(cev1(mu=mu, T=1.0), 1.0, 0.0, 1000, 0, n_steps=2)

    def test_positive_alpha_needs_no_floor(self):
        # the implicit step keeps every path positive: Euler absorbed 82 of
        # these 20000 paths, and the estimate read 1.83e16
        c = CevParams.single(0.125, 0.3, 2.5, 0.025, 2.0, 1.5)
        est = mc_anticipated_gain(c, 1.0, 0.0, 20_000, 5, n_steps=100)
        exact = cev_anticipated_gain_exact(c, 1.0, 0.0)
        assert exact == pytest.approx(0.19524, abs=1e-5)
        assert abs(est.value - exact) <= 3 * est.stderr
        assert est.absorbed == 0.0

    @pytest.mark.parametrize("paths", [2000, 2001])
    def test_stderr_matches_the_spread_over_seeds(self, paths):
        # 39 times the sample variance of 40 seeds' values over their mean
        # stderr^2 is chi^2(39) if stderr is right; at 2001 paths half 1 has
        # an unpaired path.  A per-path stderr, which ignores the antithetic
        # pairing, reads about 0.18 here, far below the band.
        from scipy.stats import chi2
        ests = [mc_anticipated_gain(cev1(), 1.0, 0.0, paths, seed, n_steps=16)
                for seed in range(40)]
        values = np.array([e.value for e in ests])
        ratio = 39 * np.var(values, ddof=1) / np.mean([e.stderr ** 2 for e in ests])
        assert chi2.ppf(0.001, 39) <= ratio <= chi2.ppf(0.999, 39)

    @pytest.mark.parametrize("call", [
        lambda t: mc_anticipated_gain(cev1(), 1.0, t, 1000, 0),
        lambda t: anticipated_gain_gbm(MarketParams.single(0.1, 0.2, 0.025, 1.0, 1.0), t),
    ], ids=["cev", "gbm"])
    @pytest.mark.parametrize("t", [-0.5, 2.0])
    def test_time_outside_horizon_is_horizon_error(self, call, t):
        with pytest.raises(HorizonError, match=r"outside horizon \[0, 1.0\]"):
            call(t)


def pair_estimate(accs, paths):
    """(value, stderr) of the per-path gains `accs` of each half, half 0's
    first, with the antithetic pairs (i, h + i), i < n // 2, h = n - n // 2,
    of a half of n paths: the mean over all paths, and the standard error of
    their sum over the pairs, each an independent draw of twice its pair
    mean, and over the unpaired path h - 1 of an odd half, whose variance
    is the sample variance of its half's paths."""
    means, unpaired, unpaired_var = [], [], []
    for acc in accs:
        n = acc.size
        means.append(0.5 * (acc[:n // 2] + acc[n - n // 2:]))
        if n % 2:
            unpaired.append(acc[n // 2])
            unpaired_var.append(np.var(acc, ddof=1))
    means = np.concatenate(means)
    value = (2 * np.sum(means) + np.sum(unpaired)) / paths
    var = 4 * means.size * np.var(means, ddof=1) + np.sum(unpaired_var)
    return value, np.sqrt(var) / paths


def mc_gain_loop(c, S0, paths, seed, n_steps):
    """Reference (value, stderr, absorbed fraction) of mc_anticipated_gain
    from t = 0 at alpha <= 0: hedge-neutral Euler steps absorbed at 1e-8 S0
    of each half of two_streams(seed, paths) in turn, each step's
    antithetic normals drawn in turn, and the trapezoid rule over the steps
    of (mu - r)^2 / (gamma sigma_bar^2) S^-alpha, summed over the steps'
    ends and corrected at the two ends, half 0's paths first."""
    mu, sb, alpha = c.mu[0], c.sigma_bar[0], c.alpha[0]
    dt = c.T / n_steps
    coef = (mu - c.r) ** 2 / (c.gamma * sb * sb)
    floor = 1e-8 * S0
    accs, ends = [], []
    for rng, n in two_streams(seed, paths):
        s = np.full(n, S0)
        acc = np.zeros(n)
        for _ in range(n_steps):
            s = euler_step(s, antithetic_normals(rng, n), c.r, sb, alpha, dt, floor)
            acc = acc + s ** (-alpha)
        accs.append((acc + 0.5 * (np.power(S0, -alpha) - s ** (-alpha))) * (coef * dt))
        ends.append(s)
    absorbed = np.mean(np.concatenate(ends) <= floor)
    return (*pair_estimate(accs, paths), absorbed)


def mc_gain_implicit_loop(c, S0, paths, seed, n_steps):
    """Reference (value, stderr) of mc_anticipated_gain from t = 0 at
    alpha > 0: hedge-neutral implicit steps of x = S^(-alpha/2)
    (implicit_step) of each half of two_streams(seed, paths) in turn, each
    step's antithetic normals drawn in turn, and the trapezoid rule over
    the steps of (mu - r)^2 / (gamma sigma_bar^2) x^2, summed over the
    steps' ends and corrected at the two ends, half 0's paths first."""
    mu, sb, alpha = c.mu[0], c.sigma_bar[0], c.alpha[0]
    dt = c.T / n_steps
    coef = (mu - c.r) ** 2 / (c.gamma * sb * sb)
    x0 = float(np.power(S0, -alpha / 2.0))
    accs = []
    for rng, n in two_streams(seed, paths):
        x = np.full(n, x0)
        acc = np.zeros(n)
        for _ in range(n_steps):
            x = implicit_step(x, antithetic_normals(rng, n), c.r, sb, alpha, dt)
            acc = acc + x * x
        accs.append((acc + 0.5 * (x0 * x0 - x * x)) * (coef * dt))
    return pair_estimate(accs, paths)


STEPS = ("_euler_step", "_implicit_step")


def no_steps(monkeypatch):
    """Patches both CEV step functions to fail at their first step."""
    def fail(*args):
        raise AssertionError("stepped")

    for name in STEPS:
        monkeypatch.setattr(simulate, name, fail)


def stepping_threads(monkeypatch):
    """Patches both CEV step functions to record, at each step, the stepping
    thread's name and the number of live threads."""
    seen = []

    def recording(step):
        def recorded(*args):
            seen.append((threading.current_thread().name, threading.active_count()))
            return step(*args)
        return recorded

    for name in STEPS:
        monkeypatch.setattr(simulate, name, recording(getattr(simulate, name)))
    return seen


class TestTwoStreams:
    """The two-stream Monte Carlo: half 0 of the paths draws and steps on a
    worker thread while half 1 does on the calling thread."""

    def test_mc_gain_matches_step_by_step_loop(self):
        # an odd count gives half 1 the extra path; alpha <= 0 steps Euler
        for paths in (4000, 4001):
            est = mc_anticipated_gain(cev1(), 1.0, 0.0, paths, 7, n_steps=16)
            assert (est.value, est.stderr) == mc_gain_implicit_loop(cev1(), 1.0, paths, 7, 16)
            assert est.n_steps == 16 and est.absorbed == 0.0
            for alpha in (-1.0, -0.5):
                est = mc_anticipated_gain(cev1(alpha=alpha), 1.0, 0.0, paths, 7, n_steps=16)
                assert ((est.value, est.stderr, est.absorbed)
                        == mc_gain_loop(cev1(alpha=alpha), 1.0, paths, 7, 16))
                assert est.n_steps == 16 and est.absorbed == 0.0

    def test_absorbed_paths_match_step_by_step_loop(self):
        # alpha = -1 at sigma_bar = 1 absorbs over a quarter of the Euler
        # paths, fewer than the half at which a run fails
        c = cev1(sigma_bar=1.0, alpha=-1.0, T=2.0)
        est = mc_anticipated_gain(c, 1.3, 0.0, 2000, 4, n_steps=16)
        assert est.absorbed == 0.2515
        assert (est.value, est.stderr, est.absorbed) == mc_gain_loop(c, 1.3, 2000, 4, 16)

    def test_half_zero_inline_gives_the_same_bits(self, monkeypatch):
        c = cev1()
        runs = [lambda: mc_anticipated_gain(c, 1.0, 0.0, 4001, 7, n_steps=16),
                lambda: simulate.hedging_covariance_check(c, 1.3, 0.2, 4001, 4, n_steps=16)]
        threaded = [run() for run in runs]
        started = inline_threads(monkeypatch)
        seen = stepping_threads(monkeypatch)
        assert [run() for run in runs] == threaded
        assert started == ["mvlab-half"] * 2
        assert {name for name, _ in seen} == {threading.current_thread().name}

    def test_both_halves_step_under_the_callers_errstate(self):
        # the CLI runs every command under np.errstate(..., divide="raise")
        seen = []

        def consume(steps, n, start):
            for _ in steps:
                pass
            seen.append((threading.current_thread().name, np.geterr()["divide"]))
            return ()

        with np.errstate(divide="raise"):
            simulate._run_halves(0, 1000, consume, 1.0, 0.05, 0.2, 0.0, 0.01, 4)
        assert len({name for name, _ in seen}) == 2
        assert [divide for _, divide in seen] == ["raise", "raise"]

    def test_caller_half_error_wins(self):
        # the worker's half fails at its first step, the caller's at its
        # third, while the worker is inside its step; both fail, and the
        # error raised is the caller's
        baseline = threading.active_count()
        worker_inside, caller_failed = threading.Event(), threading.Event()

        def consume(steps, n, start):
            for k, _ in enumerate(steps, start=1):
                if threading.current_thread().name.startswith("mvlab-half"):
                    worker_inside.set()
                    assert caller_failed.wait(10)
                    raise RuntimeError("worker half")
                if k == 3:
                    assert worker_inside.wait(10)
                    caller_failed.set()
                    raise RuntimeError("caller half")
            return ()

        with pytest.raises(RuntimeError, match="^caller half$"):
            simulate._run_halves(0, 1000, consume, 1.0, 0.05, 0.2, 0.0, 0.01, 4)
        assert threading.active_count() == baseline

    def test_one_thread_per_run_stopped_after_the_last_step(self, monkeypatch):
        baseline = threading.active_count()
        seen = stepping_threads(monkeypatch)
        mc_anticipated_gain(cev1(), 1.0, 0.0, 4000, 0, n_steps=10)
        assert threading.active_count() == baseline
        names = [name for name, _ in seen]
        worker = {name for name in names if name.startswith("mvlab-half")}
        assert len(worker) == 1 and len(names) == 20
        assert names.count(threading.current_thread().name) == 10
        # every step up to the worker's last sees the worker alive; the
        # worker ends with its half, so only the caller's steps after that
        # may count one thread fewer
        last = max(i for i, (name, _) in enumerate(seen) if name in worker)
        assert {count for _, count in seen[:last + 1]} == {baseline + 1}
        assert {count for _, count in seen[last + 1:]} <= {baseline, baseline + 1}

    def test_price_panel_steps_on_the_calling_thread(self, monkeypatch):
        # a price panel steps its rows through the shared Euler step, each on
        # the calling thread, and starts no worker
        baseline = threading.active_count()
        seen = []
        step = simulate._euler_step

        def recorded(*args):
            seen.append((threading.current_thread().name, threading.active_count()))
            return step(*args)

        monkeypatch.setattr(simulate, "_euler_step", recorded)
        cev_paths(cev1(), cfg(n_steps=4))
        assert seen == [(threading.current_thread().name, baseline)] * 4

    def test_abandoned_run_stops_its_thread(self, monkeypatch):
        # an interrupt on the calling thread, once the worker has stepped,
        # stops the worker's half at its next step rather than after its last
        n_steps = 10_000
        baseline = threading.active_count()
        seen = stepping_threads(monkeypatch)
        implicit, caller_steps, worker_stepped = simulate._implicit_step, [], threading.Event()

        def interrupted(*args):
            implicit(*args)
            if threading.current_thread() is not threading.main_thread():
                worker_stepped.set()
            else:
                caller_steps.append(None)
                if len(caller_steps) == 3:
                    assert worker_stepped.wait(10)
                    raise KeyboardInterrupt

        monkeypatch.setattr(simulate, "_implicit_step", interrupted)
        with pytest.raises(KeyboardInterrupt):
            mc_anticipated_gain(cev1(), 1.0, 0.0, 2000, 0, n_steps=n_steps)
        assert threading.active_count() == baseline
        worker_steps = sum(name.startswith("mvlab-half") for name, _ in seen)
        assert 0 < worker_steps < n_steps

    def test_instability_stops_the_thread(self):
        # alpha = 0 at sigma_bar = 8 absorbs most Euler paths
        baseline = threading.active_count()
        with pytest.raises(InstabilityError, match="paths absorbed"):
            mc_anticipated_gain(cev1(sigma_bar=8.0, alpha=0.0), 1.0, 0.0, 2000, 5)
        assert threading.active_count() == baseline

    def test_error_in_the_callers_loop_stops_the_thread(self, monkeypatch):
        calls = []

        def failing_gain(c, S, t):
            calls.append(t)
            if len(calls) == 4:
                raise KeyError("caller failed")
            return np.zeros_like(S)

        baseline = threading.active_count()
        monkeypatch.setattr(simulate, "cev_anticipated_gain_exact", failing_gain)
        with pytest.raises(KeyError, match="caller failed") as caught:
            simulate.hedging_covariance_check(cev1(), 1.0, 0.0, 4000, 4, n_steps=16)
        # the traceback, still held, keeps the caller's frame and its locals
        assert caught.tb is not None
        assert threading.active_count() == baseline

    def test_error_in_draw_reaches_the_caller(self, monkeypatch):
        # whichever half fails, the other stops at its next step, well
        # before its 1000th
        n_steps = 1000
        baseline = threading.active_count()
        for failing_half in (0, 1):
            draws = []

            class Normals:
                def __init__(self, seed):
                    self.half = len(draws)
                    draws.append(0)

                def standard_normal(self, out):
                    draws[self.half] += 1
                    if self.half == failing_half and draws[self.half] == 3:
                        raise RuntimeError("draw failed")
                    out.fill(0.0)

            monkeypatch.setattr(np.random, "default_rng", Normals)
            with pytest.raises(RuntimeError, match="draw failed"):
                mc_anticipated_gain(cev1(), 1.0, 0.0, 2000, 0, n_steps=n_steps)
            assert threading.active_count() == baseline
            assert draws[failing_half] == 3 and draws[1 - failing_half] < n_steps

    def test_draws_stop_at_the_last_step(self, monkeypatch):
        # each half draws its h = n - n // 2 normals into the front of one
        # buffer of its own size n, once a step
        calls = []

        class Normals:
            def __init__(self, seed):
                pass

            def standard_normal(self, out):
                calls.append(out)
                out.fill(0.0)

        monkeypatch.setattr(np.random, "default_rng", Normals)
        mc_anticipated_gain(cev1(), 1.0, 0.0, 1001, 0, n_steps=5)
        assert len(calls) == 10
        for n in (500, 501):
            bufs = [out for out in calls if out.size == n - n // 2]
            assert len(bufs) == 5 and all(out.base is bufs[0].base for out in bufs)
            assert bufs[0].base.size == n

    def test_cli_import_leaves_concurrent_futures_out(self):
        # scipy is a test dependency only; the two-thread runner uses a
        # plain thread, so neither the import, a price panel nor a
        # two-stream Monte Carlo loads concurrent.futures
        code = ("import sys, mvlab.cli\n"
                "print([m in sys.modules for m in ('concurrent.futures', 'scipy')])\n"
                "c = mvlab.CevParams.single(0.125, 0.2, 1.0, 0.025, 1.0, 1.0)\n"
                "mvlab.simulate.cev_paths(c, mvlab.simulate.SimConfig(1, 52, 1 / 52, 1.0, 0))\n"
                "print('concurrent.futures' in sys.modules)\n"
                "mvlab.mc_anticipated_gain(c, 1.0, 0.0, 1000, 0, n_steps=2)\n"
                "print('concurrent.futures' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(simulate.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        assert out == "[False, False]\nFalse\nFalse\n"


def exact_cir_step(rng, y, drift, sigma_bar, alpha, dt):
    """Draws y = S^-alpha a time dt on from its exact law, independently of
    any stepping scheme: the CIR process dy = (a - b y) dt - sigma_y sqrt(y)
    dw, a = alpha (alpha+1) sigma_bar^2 / 2, b = alpha drift, sigma_y =
    alpha sigma_bar, moves to c X with X noncentral chi-square of
    d = 4a / sigma_y^2 = 2 (alpha+1) / alpha degrees of freedom and
    noncentrality y e^(-b dt) / c, c = sigma_y^2 (1 - e^(-b dt)) / (4b)
    (sigma_y^2 dt / 4 at b = 0); Glasserman 2004, section 3.4."""
    b = alpha * drift
    c = (alpha * sigma_bar) ** 2 * (-np.expm1(-b * dt) / b if b else dt) / 4.0
    return c * rng.noncentral_chisquare(2.0 * (alpha + 1.0) / alpha, y * np.exp(-b * dt) / c)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5, 4.0])
def test_implicit_step_has_the_reference_bits(alpha):
    # the in-place step against the reference's expression, over states x
    # from 1e-150 to 1e150 and normals z with |z| up to 38
    x, z = (a.ravel() for a in np.meshgrid(np.logspace(-150, 150, 301),
                                           np.linspace(-38.0, 38.0, 77)))
    for drift in (0.025, -0.3):
        stepped = x.copy()
        simulate._implicit_step(stepped, z.copy(), drift, 0.2, alpha, 1 / 64)
        np.testing.assert_array_equal(stepped, implicit_step(x, z, drift, 0.2, alpha, 1 / 64))


@pytest.mark.parametrize("r", [0.0, 0.025])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5, 4.0])
class TestImplicitStepAgainstExactLaw:
    """The drift-implicit kernel against the exact noncentral chi-square
    transitions of y = S^-alpha, at 20000 paths and within 3 standard
    errors."""

    paths = 20_000

    def test_terminal_law(self, alpha, r):
        # the mean, and the kernel's fractions below the exact quartiles
        n = self.paths
        rng = np.random.default_rng(3)
        x, z = np.full(n, 1.0), np.empty(n)
        for _ in range(64):
            simulate._implicit_step(x, rng.standard_normal(out=z), r, 0.2, alpha, 1 / 64)
        stepped = x * x
        exact = exact_cir_step(np.random.default_rng(4), np.ones(n), r, 0.2, alpha, 1.0)
        se = np.sqrt((np.var(stepped, ddof=1) + np.var(exact, ddof=1)) / n)
        assert abs(np.mean(stepped) - np.mean(exact)) <= 3 * se
        for p in (0.25, 0.5, 0.75):
            below = np.mean(stepped <= np.quantile(exact, p))
            assert abs(below - p) <= 3 * np.sqrt(2 * p * (1 - p) / n)

    def test_gain(self, alpha, r):
        # the trapezoid rule over 16 exact transitions, the Monte Carlo
        # gain and the closed form agree pairwise
        n, k = self.paths, 16
        c = CevParams.single(0.125, 0.2, alpha, r, 1.0, 1.0)
        rng = np.random.default_rng(6)
        y, acc = np.ones(n), np.full(n, 0.5)
        for j in range(1, k + 1):
            y = exact_cir_step(rng, y, r, 0.2, alpha, 1.0 / k)
            acc += y if j < k else 0.5 * y
        acc *= (0.125 - r) ** 2 / 0.04 / k
        chi, chi_se = np.mean(acc), np.std(acc, ddof=1) / np.sqrt(n)
        est = mc_anticipated_gain(c, 1.0, 0.0, n, 5, n_steps=64)
        exact = cev_anticipated_gain_exact(c, 1.0, 0.0)
        assert abs(est.value - chi) <= 3 * np.hypot(est.stderr, chi_se)
        assert abs(chi - exact) <= 3 * chi_se
        assert abs(est.value - exact) <= 3 * est.stderr


class TestEntryCap:
    """An array a caller sizes above _MAX_ENTRIES floats is a ResourceError
    raised before any random number is drawn."""

    def test_limit(self):
        _check_entries("x", _MAX_ENTRIES)
        with pytest.raises(ResourceError, match=f"^x of {_MAX_ENTRIES + 1} entries exceeds limit"):
            _check_entries("x", _MAX_ENTRIES + 1)

    @pytest.mark.parametrize("what, call", [
        ("price panel of 100000001000", lambda: SimConfig(1000, 10**8, 0.1, 1.0, 0)),
        ("ensemble of 200000000", lambda: gbm_ensemble(0.1, 0.2, 0.0, 1.0, 1, 10**8, 0)),
        ("paths of 134217729", lambda: mc_anticipated_gain(cev1(), 1.0, 0.0, _MAX_ENTRIES + 1, 0)),
        ("pair store of 268435584", lambda: simulate.hedging_covariance_check(
            cev1(), 1.0, 0.0, 2**21 + 1, 0, n_steps=64)),
        # np.corrcoef stacks the returns and gain changes into one array
        ("pair store of 136314880", lambda: simulate.hedging_covariance_check(
            cev1(), 1.0, 0.0, 2**20, 0, n_steps=65)),
        ("paths of 134217729", lambda: compare_strategies_mc(MarketParams.single(
            0.125, 0.2, 0.025, 1.0, 1.0), 0.0, _MAX_ENTRIES + 1, 0)),
    ], ids=["SimConfig", "gbm_ensemble", "mc_anticipated_gain", "hedging_covariance_check",
            "hedging_covariance_check-stacked", "compare_strategies_mc"])
    def test_rejected_before_any_draw(self, monkeypatch, what, call):
        monkeypatch.setattr(np.random, "default_rng", None)
        monkeypatch.setattr(simulate, "_run_halves", None)
        with pytest.raises(ResourceError, match=f"^{what} entries exceeds limit {_MAX_ENTRIES}$"):
            call()


class TestStabilityCheck:
    def test_absorption_counts_the_merged_state(self):
        # half 0 has 6 of its 10 paths absorbed, the run 6 of 20; paths
        # started at 1.0 are absorbed at ABSORPTION_REL_FLOOR
        floor = simulate.ABSORPTION_REL_FLOOR
        half0 = np.array([floor] * 6 + [1.0] * 4)
        half1 = np.ones(10)
        with pytest.raises(InstabilityError, match="6 of 10 paths absorbed"):
            simulate._check_stable(half0, 1.0, 0.0)
        assert simulate._check_stable(np.concatenate([half0, half1]), 1.0, 0.0) == 0.3
        with pytest.raises(InstabilityError, match="6 of 20 paths absorbed"):
            simulate._check_stable(np.concatenate([half0, half1]), 1.0, 0.5)

    def test_no_floor_absorbs_nothing(self):
        assert simulate._check_finite(np.full(4, 1e-300)) == 0.0
        with pytest.raises(InstabilityError, match="diverged"):
            simulate._check_finite(np.array([1.0, np.inf]))


class TestSimConfig:
    def test_scalar_s0_broadcast(self):
        c = cfg(n_assets=3, s0=2.0)
        np.testing.assert_array_equal(c.s0, [2.0, 2.0, 2.0])

    def test_bad_measure(self):
        with pytest.raises(ValueError):
            cfg(measure="risk-free")

    def test_nonpositive_s0(self):
        with pytest.raises(ValueError):
            cfg(s0=0.0)

    def test_s0_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="^s0 must have length 3$"):
            cfg(n_assets=3, s0=[1.0, 2.0])

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_non_finite_dt(self, dt):
        # nan and inf both pass dt <= 0; gbm_paths would write NaN prices
        with pytest.raises(ValueError, match=f"^dt must be positive and finite, got {dt}$"):
            cfg(dt=dt)

    @pytest.mark.parametrize("s0", [np.inf, np.nan])
    def test_non_finite_s0(self, s0):
        with pytest.raises(ValueError, match="initial prices must be positive and finite"):
            cfg(s0=s0)


# (argument, its minimum, a call with the count set to the value given)
COUNTS = {
    "SimConfig-n_assets": ("n_assets", 0, lambda v: SimConfig(v, 4, 0.1, 1.0, 0)),
    "SimConfig-n_steps": ("n_steps", 1, lambda v: SimConfig(1, v, 0.1, 1.0, 0)),
    "gbm_ensemble-n_steps": ("n_steps", 1, lambda v: gbm_ensemble(0.1, 0.2, 0.0, 1.0, v, 10, 0)),
    "gbm_ensemble-n_paths": ("n_paths", 1, lambda v: gbm_ensemble(0.1, 0.2, 0.0, 1.0, 4, v, 0)),
    "mc_anticipated_gain-paths": (
        "paths", 100, lambda v: mc_anticipated_gain(cev1(), 1.0, 0.0, v, 0, n_steps=4)),
    "mc_anticipated_gain-n_steps": (
        "n_steps", 1, lambda v: mc_anticipated_gain(cev1(), 1.0, 0.0, 100, 0, n_steps=v)),
    "hedging_covariance_check-paths": (
        "paths", 1, lambda v: simulate.hedging_covariance_check(cev1(), 1.0, 0.0, v, 0, 4)),
    "hedging_covariance_check-n_steps": (
        "n_steps", 1, lambda v: simulate.hedging_covariance_check(cev1(), 1.0, 0.0, 100, 0, v)),
    "compare_strategies_mc-paths": (
        "paths", 10_000, lambda v: compare_strategies_mc(MarketParams.single(
            0.125, 0.2, 0.025, 1.0, 1.0), 0.0, v, 0)),
    "BacktestConfig-batch_len": ("batch_len", 2, lambda v: BacktestConfig(batch_len=v)),
    "lattice_equilibrium_oracle-steps": ("steps", 2, lambda v: lattice_equilibrium_oracle(
        MarketParams.single(0.125, 0.2, 0.025, 1.0, 1.0), v)),
}


class TestCountArguments:
    """A step, path, asset or batch count that is not an integer, or is
    below its minimum, is a ValueError naming it, raised before any random
    number is drawn: one rule in every layer."""

    @pytest.mark.parametrize("key", COUNTS)
    @pytest.mark.parametrize("kind", ["fraction", "integral float", "text"])
    def test_non_integer(self, monkeypatch, key, kind):
        name, minimum, call = COUNTS[key]
        value = {"fraction": minimum + 1.5, "integral float": minimum + 1.0, "text": "3"}[kind]
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            call(value)

    @pytest.mark.parametrize("key", COUNTS)
    def test_below_minimum(self, monkeypatch, key):
        name, minimum, call = COUNTS[key]
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ValueError,
                           match=rf"^{name} must be at least {minimum}, got {minimum - 1}$"):
            call(minimum - 1)

    @pytest.mark.parametrize("key", COUNTS)
    @pytest.mark.parametrize("numpy_int", [np.int64, np.int32, np.uint16])
    def test_numpy_integer(self, key, numpy_int):
        # the same run as with the Python int; a uint16 path count once
        # took the standard error's square root in float32
        name, minimum, call = COUNTS[key]
        runs = [call(n) for n in (numpy_int(minimum + 1), minimum + 1)]
        if isinstance(runs[0], SimConfig):
            assert type(getattr(runs[0], name)) is int
        if hasattr(runs[0], "_asdict"):  # a result record, compared field by field
            runs = [run._asdict() for run in runs]
        np.testing.assert_equal(*runs)

    @pytest.mark.parametrize("n_steps", [0, -2])
    @pytest.mark.parametrize("call", [mc_anticipated_gain, simulate.hedging_covariance_check],
                             ids=["mc_anticipated_gain", "hedging_covariance_check"])
    def test_cev_monte_carlo_steps(self, monkeypatch, call, n_steps):
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ValueError, match=rf"^n_steps must be at least 1, got {n_steps}$"):
            call(cev1(), 1.0, 0.0, 1000, 0, n_steps=n_steps)

    def test_covariance_check_paths(self, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ValueError, match=r"^paths must be at least 1, got 0$"):
            simulate.hedging_covariance_check(cev1(), 1.0, 0.0, 0, 0)

    @pytest.mark.parametrize("n_steps, n_paths, name", [
        (0, 10, "n_steps"), (-2, 10, "n_steps"), (52, 0, "n_paths"),
    ])
    def test_gbm_ensemble(self, monkeypatch, n_steps, n_paths, name):
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ValueError, match=rf"^{name} must be at least 1"):
            gbm_ensemble(0.125, 0.2, 0.025, 1.0, n_steps, n_paths, 0)
