import numpy as np
import pytest

from mvlab.dynamic_policy import MarketParams
from mvlab.wealth_analysis import (
    analytic_gap,
    compare_strategies_mc,
    tc_wealth_stats,
)

from conftest import precommitment_wealth, price_density_sample, tc_terminal_wealth_sample


def market(mu=0.125, sigma=np.sqrt(0.2), r=0.025, T=10.0, gamma=1.0):
    return MarketParams.single(mu, sigma, r, T, gamma)


class TestTcWealthStats:
    def test_reference_market(self):
        st = tc_wealth_stats(market(), W0=1.0)
        k2T = (0.1 / np.sqrt(0.2)) ** 2 * 10.0
        assert st.mean == pytest.approx(np.exp(0.25) + k2T, rel=1e-12)
        assert st.variance == pytest.approx(k2T, rel=1e-12)
        assert st.value_function == pytest.approx(st.mean - 0.5 * st.variance,
                                                  rel=1e-12)

    def test_zero_sharpe_deterministic(self):
        st = tc_wealth_stats(market(mu=0.025), W0=2.0)
        assert st.variance == 0.0
        assert st.mean == pytest.approx(2.0 * np.exp(0.25), rel=1e-14)
        assert st.value_function == st.mean

    def test_gamma_scaling(self):
        lo = tc_wealth_stats(market(gamma=1.0), W0=0.0)
        hi = tc_wealth_stats(market(gamma=4.0), W0=0.0)
        assert hi.mean == pytest.approx(lo.mean / 4.0, rel=1e-12)
        assert hi.variance == pytest.approx(lo.variance / 16.0, rel=1e-12)

    def test_matches_sample_moments(self, rng):
        # moments of the affine sample form must equal the closed form exactly
        m = market(T=2.0)
        w = rng.standard_normal(200_000) * np.sqrt(m.T)
        samples = np.array([tc_terminal_wealth_sample(m, 1.0, x) for x in w[:100]])
        kappa = m.sharpe
        expected = (np.exp(m.r * m.T) + kappa**2 * m.T / m.gamma
                    - kappa * w[:100] / m.gamma)
        np.testing.assert_allclose(samples, expected, rtol=1e-14)
        st = tc_wealth_stats(m, 1.0)
        # vectorised MC sanity on the full sample
        full = (np.exp(m.r * m.T) + kappa**2 * m.T / m.gamma
                - kappa * w / m.gamma)
        assert np.mean(full) == pytest.approx(st.mean, abs=4 * np.sqrt(
            st.variance / w.size) + 1e-12)
        assert np.var(full) == pytest.approx(st.variance, rel=0.02)


class TestDensity:
    def test_unit_at_zero_rate_zero_draw(self):
        m = market(mu=0.0, r=0.0, T=1.0)
        assert price_density_sample(m, 0.0) == 1.0

    def test_martingale_property(self, rng):
        # E[xi_T] = e^{-rT}
        m = market(T=1.0)
        w = rng.standard_normal(400_000)
        xi = np.array([price_density_sample(m, x) for x in w[:50]])
        kappa = m.sharpe
        ref = np.exp(-m.r - 0.5 * kappa**2 - kappa * w[:50])
        np.testing.assert_allclose(xi, ref, rtol=1e-14)
        full = np.exp(-m.r - 0.5 * kappa**2 - kappa * w)
        assert np.mean(full) == pytest.approx(np.exp(-m.r), rel=5e-3)

    def test_decreasing_in_draw(self):
        m = market(T=1.0)
        assert price_density_sample(m, 1.0) < price_density_sample(m, 0.0)


class TestPrecommitment:
    def test_budget_feasibility(self, rng):
        # E[xi_T W_hat] = W0: the strategy is exactly affordable
        m = market(T=1.0)
        w = rng.standard_normal(1_000_000) * np.sqrt(m.T)
        kappa = m.sharpe
        xi = np.exp(-m.r * m.T - 0.5 * kappa**2 * m.T - kappa * w)
        erT = np.exp(m.r * m.T)
        wealth = 1.0 * erT + np.exp(kappa**2 * m.T) / m.gamma - xi * erT / m.gamma
        assert np.mean(xi * wealth) == pytest.approx(1.0, abs=0.01)

    def test_affine_in_density(self):
        m = market()
        xi1 = price_density_sample(m, 0.0)
        xi2 = price_density_sample(m, 1.0)
        w1 = precommitment_wealth(m, 1.0, xi1)
        w2 = precommitment_wealth(m, 1.0, xi2)
        slope = (w2 - w1) / (xi2 - xi1)
        assert slope == pytest.approx(-np.exp(m.r * m.T) / m.gamma, rel=1e-10)

    def test_zero_sharpe_equals_tc(self):
        m = market(mu=0.025)
        xi = price_density_sample(m, 0.7)
        assert precommitment_wealth(m, 1.0, xi) == pytest.approx(
            tc_terminal_wealth_sample(m, 1.0, 0.7), rel=1e-14)


class TestGap:
    def test_reference_value(self):
        m = market(T=10.0)
        k2T = 0.5
        assert analytic_gap(m) == pytest.approx(np.exp(k2T) - 1.0 - k2T, rel=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(50):
            m = market(mu=float(rng.normal(0.1, 0.1)), T=float(rng.uniform(0.1, 20)),
                       gamma=float(rng.uniform(0.2, 5)))
            assert analytic_gap(m) >= 0.0

    def test_zero_iff_zero_sharpe(self):
        assert analytic_gap(market(mu=0.025)) == 0.0
        assert analytic_gap(market()) > 0.0


class TestCompareMc:
    def test_gap_matches_analytic(self):
        m = market(T=1.0)
        cmpr = compare_strategies_mc(m, W0=1.0, paths=200_000, seed=7)
        assert abs(cmpr.gap - cmpr.gap_analytic) <= 4 * cmpr.gap_stderr
        assert cmpr.gap_analytic == pytest.approx(analytic_gap(m), rel=1e-14)
        assert cmpr.mean_pre > cmpr.mean_tc

    def test_deterministic_market(self):
        cmpr = compare_strategies_mc(market(mu=0.025), 1.0, 10_000, 3)
        assert cmpr.gap == 0.0
        assert cmpr.gap_stderr == 0.0

    def test_reproducible(self):
        m = market(T=2.0)
        a = compare_strategies_mc(m, 1.0, 20_000, 11)
        b = compare_strategies_mc(m, 1.0, 20_000, 11)
        assert a == b

    def test_fields_equal_the_means_of_the_wealth_samples(self):
        # the README's compare-precommit input at W0 = 1: the affine forms
        # agree with the per-sample formulas over the same draws
        m, paths = market(), 100_000
        cmpr = compare_strategies_mc(m, 1.0, paths, 0)
        w_T = np.random.default_rng(0).standard_normal(paths) * np.sqrt(m.T)
        pre = precommitment_wealth(m, 1.0, price_density_sample(m, w_T))
        tc = tc_terminal_wealth_sample(m, 1.0, w_T)
        want = [np.mean(pre), np.mean(tc), np.mean(pre - tc),
                np.std(pre - tc, ddof=1) / np.sqrt(paths)]
        got = [cmpr.mean_pre, cmpr.mean_tc, cmpr.gap, cmpr.gap_stderr]
        scale = max(np.max(np.abs(pre)), np.max(np.abs(tc)))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * scale)

    def test_gap_does_not_depend_on_w0(self):
        # no sample carries W0 e^{rT}: at W0 = 1e15 the gap used to read
        # 0.2521 against 0.1511, and 1.2127 at 1e16
        m = market()
        got = {(c.gap, c.gap_stderr) for c in (
            compare_strategies_mc(m, w0, 100_000, 5) for w0 in (0.0, 1.0, 1e15, 1e16))}
        assert len(got) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_stderr_matches_the_exact_standard_error(self, seed):
        # kappa^2 T = 0.5, where the sample spread of u - v holds: the exact
        # error is sqrt(e^{kappa^2 T} - 1 + 3 kappa^2 T)/(gamma sqrt(paths)),
        # and the spread's own sampling error about 0.7%
        m, paths = market(gamma=2.0), 100_000
        k2T = m.sharpe**2 * m.T
        exact = np.sqrt(np.expm1(k2T) + 3 * k2T) / (m.gamma * np.sqrt(paths))
        cmpr = compare_strategies_mc(m, 1.0, paths, seed)
        assert cmpr.gap_stderr == pytest.approx(exact, rel=0.05)

    @pytest.mark.parametrize("mu, gamma", [(3.0, 1.0), (3.5, 0.1), (3.78, 1.0), (3.78, 0.5)])
    def test_finite_below_the_exponent_bound(self, mu, gamma):
        # kappa^2 T = 442, 604 and 705: each gap sample is about
        # e^(kappa^2 T) / gamma, so its squared deviations (and at 705 the
        # sum of 10,000 samples) overflowed; at (3.78, 0.5) the exponent
        # kappa^2 T - log gamma of e^(kappa^2 T) / gamma is 705.69
        m = market(mu=mu, gamma=gamma)
        with np.errstate(all="raise", under="ignore"):
            cmpr = compare_strategies_mc(m, 0.0, 10_000, 0)
        values = [cmpr.mean_pre, cmpr.mean_tc, cmpr.gap, cmpr.gap_analytic, cmpr.gap_stderr]
        assert np.all(np.isfinite(values))
        assert cmpr.gap_stderr > 0.0

    def test_path_floor(self):
        with pytest.raises(ValueError):
            compare_strategies_mc(market(), 1.0, 100, 0)

    def test_no_pathwise_dominance(self, rng):
        # precommitment beats on average, never uniformly across draws
        m = market(T=1.0)
        w = rng.standard_normal(10_000)
        pre = np.array([precommitment_wealth(m, 1.0, price_density_sample(m, x))
                        for x in w[:200]])
        tc = np.array([tc_terminal_wealth_sample(m, 1.0, x) for x in w[:200]])
        assert np.any(pre < tc)
        assert np.any(pre > tc)
