import numpy as np
import pytest

from mvlab import backtest, estimate, static_mvo
from mvlab.backtest import (
    BacktestConfig,
    Ledger,
    accrue_step,
    rebalance_step,
    run_backtest,
)
from mvlab.dynamic_policy import CevParams, MarketParams, cev_policy_multi, multi_policy
from mvlab.errors import DataError, DefinitenessError, LedgerError, WarmupError
from mvlab.simulate import PriceSeries, SimConfig, gbm_paths

from conftest import loop_cholesky


def gbm_series(n_weeks=120, mu=0.125, sigma=np.sqrt(0.2), n_assets=1, seed=0):
    if n_assets == 1:
        m = MarketParams.single(mu, sigma, 0.025, n_weeks / 52, 1.0)
    else:
        m = MarketParams(mu=np.full(n_assets, mu),
                         sigma=sigma / np.sqrt(n_assets) * np.eye(n_assets)
                         + 0.0, r=0.025, T=n_weeks / 52, gamma=1.0)
    cfg = SimConfig(n_assets=n_assets, n_steps=n_weeks, dt=1 / 52,
                    s0=np.ones(n_assets), seed=seed)
    return gbm_paths(m, cfg)


class TestLedgerSteps:
    def test_rebalance_preserves_wealth(self):
        led = Ledger(bond_cash=0.3, shares=np.array([0.2]), wealth=0.7)
        new = rebalance_step(led, np.array([2.0]), np.array([0.5]))
        assert new.wealth == led.wealth
        assert new.shares[0] == pytest.approx(0.25)
        assert new.bond_cash == pytest.approx(0.7 - 0.5)
        new.check(np.array([2.0]))

    def test_rebalance_rejects_bad_prices(self):
        led = Ledger(bond_cash=0.0, shares=np.zeros(1), wealth=0.0)
        with pytest.raises(DataError):
            rebalance_step(led, np.array([0.0]), np.array([0.5]))

    def test_accrue_bond_and_stock(self):
        led = Ledger(bond_cash=1.0, shares=np.array([2.0]), wealth=1.0 + 2.0 * 1.5)
        dt, r = 1 / 52, 0.025
        new = accrue_step(led, np.array([1.6]), dt, r)
        assert new.bond_cash == pytest.approx(np.exp(r * dt))
        assert new.wealth == pytest.approx(np.exp(r * dt) + 3.2)
        new.check(np.array([1.6]))

    def test_check_catches_violation(self):
        led = Ledger(bond_cash=1.0, shares=np.array([1.0]), wealth=5.0)
        with pytest.raises(LedgerError, match="ledger identity violated"):
            led.check(np.array([1.0]))


def oracle_theta(cfg, est, prices_now, t_years, horizon):
    """One decision week through the single-instance policy functions:
    (theta, the matrix the policy solves with, or None)."""
    if callable(cfg.strategy):
        return np.asarray(cfg.strategy(est, prices_now, t_years, horizon), float), None
    sigma = estimate.regularize_covariance(est.sigma_hat)
    n = sigma.shape[0]
    if cfg.strategy == "static":
        if n == 1:
            return cfg.notional * np.ones(1), None
        problem = static_mvo.StaticProblem(mu=est.mu_hat, sigma=sigma, target=cfg.target)
        return cfg.notional * static_mvo.solve_static_mvo(problem).omega, sigma
    if cfg.strategy in ("simple", "multi"):
        m = MarketParams(mu=est.mu_hat, sigma=static_mvo.robust_cholesky(sigma),
                         r=cfg.r, T=horizon, gamma=cfg.gamma)
        return multi_policy(m, t_years).theta, sigma
    vols = np.sqrt(np.diag(sigma))
    corr = sigma / np.outer(vols, vols)
    np.fill_diagonal(corr, 1.0)
    corr = 0.5 * (corr + corr.T)
    c = CevParams(mu=est.mu_hat, sigma_bar=vols / prices_now ** (cfg.alpha / 2.0),
                  alpha=np.full(n, cfg.alpha), corr=corr, r=cfg.r, T=horizon,
                  gamma=cfg.gamma)
    omega = np.outer(c.sigma_bar, c.sigma_bar) * corr
    return cev_policy_multi(c, prices_now, t_years).theta, omega


def oracle_backtest(prices, cfg):
    """The weekly loop one step at a time: per-week rolling_estimate, the
    single-instance policies and rebalance_step/accrue_step, with the
    ledger identity checked after each.  Returns the wealth, bond and
    stock columns and the tolerance 100 eps cond(Sigma_hat) x gross
    exposure, cond taken over the matrices the policies solve with."""
    panel = estimate.to_returns(prices)
    n_rows = prices.prices.shape[0]
    horizon = (n_rows - 1) * cfg.dt
    ledger = Ledger(bond_cash=0.0, shares=np.zeros(prices.n_assets), wealth=0.0)
    rows = [[0.0, 0.0, 0.0]]
    cond = gross = 1.0
    for t in range(cfg.batch_len + 1, n_rows - 1):
        est = estimate.rolling_estimate(panel, t, cfg.batch_len)
        theta, solved = oracle_theta(cfg, est, prices.prices[t], t * cfg.dt, horizon)
        if solved is not None:
            cond = max(cond, np.linalg.cond(solved))
        gross = max(gross, np.sum(np.abs(theta)))
        ledger = rebalance_step(ledger, prices.prices[t], theta)
        ledger.check(prices.prices[t])
        ledger = accrue_step(ledger, prices.prices[t + 1], cfg.dt, cfg.r)
        ledger.check(prices.prices[t + 1])
        rows.append([ledger.wealth, ledger.bond_cash,
                     float(ledger.shares @ prices.prices[t + 1])])
        gross = max(gross, abs(ledger.bond_cash))
    return np.array(rows), 100 * np.finfo(float).eps * cond * gross


def assert_matches_oracle(path, prices, cfg):
    want, tol = oracle_backtest(prices, cfg)
    got = np.column_stack([path.wealth, path.bond, path.stock_value])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= tol


def scaled_edge(est, prices_now, t_years, horizon):
    """A callable strategy that reads every argument it is given."""
    return (est.mu_hat - 0.025) / np.diag(est.sigma_hat) * np.exp(t_years - horizon)


class TestBatchedKernel:
    """run_backtest's blocked stages against the step-by-step oracle, on
    decision-week counts either side of each block seam."""

    @pytest.mark.parametrize("weeks", [63, 64, 65, 129])
    @pytest.mark.parametrize("kwargs", [
        {"strategy": "static", "target": 0.15},
        {"strategy": "simple"},
        {"strategy": "multi"},
        {"strategy": "cev", "alpha": 1.0},
        {"strategy": scaled_edge},
    ], ids=["static", "simple", "multi", "cev", "callable"])
    def test_matches_step_by_step_oracle(self, weeks, kwargs):
        assert backtest.BLOCK_WEEKS == 64
        cfg = BacktestConfig(**kwargs)
        prices = gbm_series(n_weeks=weeks + cfg.batch_len + 1, n_assets=4, seed=weeks)
        path = run_backtest(prices, cfg)
        assert path.week_index.size == weeks + 1
        assert_matches_oracle(path, prices, cfg)

    def test_single_asset_static_invests_notional(self):
        prices = gbm_series(n_weeks=100, seed=1)
        cfg = BacktestConfig(strategy="static", notional=2.0)
        assert_matches_oracle(run_backtest(prices, cfg), prices, cfg)

    def test_pivot_failure_names_the_week(self, monkeypatch):
        # Without the ridge, an asset whose returns are constant over a
        # whole batch has a zero pivot.  Asset 1 grows at a fixed rate over
        # return rows 80..119, so the first batch inside that stretch ends
        # at decision week 106: decision 79, in the second block.
        prices = gbm_series(n_weeks=156, n_assets=2, seed=8)
        p = prices.prices.copy()
        p[81:121, 1] = p[80, 1] * 1.002 ** np.arange(1, 41)
        p[121:, 1] *= p[120, 1] / prices.prices[120, 1]
        prices = type(prices)(times=prices.times, prices=p)
        monkeypatch.setattr(estimate, "regularize_covariance", lambda s: s)
        with pytest.raises(DefinitenessError, match=r"^decision week 106: .*pivot 1 = "):
            run_backtest(prices, BacktestConfig(strategy="static"))

    def test_ledger_violation_names_the_week(self):
        # Money of 1e16 in and out of two assets: the value of the shares
        # bought, (theta / P) . P, rounds away from sum(theta) = 0 by far
        # more than 1e-9 of the (zero) wealth.
        prices = gbm_series(n_weeks=60, n_assets=2, seed=0)
        cfg = BacktestConfig(strategy=lambda est, p, t, T: np.array([1e16, -1e16]))
        with pytest.raises(LedgerError, match=r"^decision week 27: ledger identity"):
            run_backtest(prices, cfg)


class TestConfig:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            BacktestConfig(strategy="kelly")

    def test_callable_strategy_allowed(self):
        BacktestConfig(strategy=lambda est, p, t, T: np.zeros(1))

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            BacktestConfig(gamma=-1.0)


class TestRunBacktest:
    def test_zero_strategy_keeps_zero_wealth(self):
        prices = gbm_series()
        cfg = BacktestConfig(strategy=lambda est, p, t, T: np.zeros(1))
        path = run_backtest(prices, cfg)
        np.testing.assert_allclose(path.wealth, 0.0, atol=1e-15)
        np.testing.assert_allclose(path.bond, 0.0, atol=1e-15)

    def test_schedule(self):
        prices = gbm_series(n_weeks=60)
        path = run_backtest(prices, BacktestConfig(strategy="simple"))
        # first recorded index is the first decision week (27), then weekly
        assert path.week_index[0] == 27
        assert path.week_index[-1] == 60
        np.testing.assert_array_equal(np.diff(path.week_index), 1)
        np.testing.assert_allclose(path.times, path.week_index / 52.0)
        assert path.wealth[0] == 0.0

    def test_ledger_identity_recorded(self):
        prices = gbm_series(n_weeks=80, seed=3)
        path = run_backtest(prices, BacktestConfig(strategy="simple"))
        np.testing.assert_allclose(path.bond + path.stock_value, path.wealth,
                                   atol=1e-9)

    def test_warmup_guard(self):
        prices = gbm_series(n_weeks=27)
        with pytest.raises(WarmupError):
            run_backtest(prices, BacktestConfig(strategy="simple"))

    def test_deterministic(self):
        prices = gbm_series(seed=5)
        a = run_backtest(prices, BacktestConfig(strategy="multi"))
        b = run_backtest(prices, BacktestConfig(strategy="multi"))
        np.testing.assert_array_equal(a.wealth, b.wealth)

    def test_simple_equals_multi_single_asset(self):
        prices = gbm_series(seed=7)
        a = run_backtest(prices, BacktestConfig(strategy="simple"))
        b = run_backtest(prices, BacktestConfig(strategy="multi"))
        np.testing.assert_allclose(a.wealth, b.wealth, rtol=1e-12)

    def test_cev_alpha_zero_equals_multi(self):
        prices = gbm_series(n_weeks=90, n_assets=3, seed=11)
        a = run_backtest(prices, BacktestConfig(strategy="multi"))
        b = run_backtest(prices, BacktestConfig(strategy="cev", alpha=0.0))
        np.testing.assert_allclose(a.wealth, b.wealth, rtol=1e-9, atol=1e-12)

    def test_static_runs_multi_asset(self):
        prices = gbm_series(n_weeks=90, n_assets=3, seed=2)
        path = run_backtest(prices, BacktestConfig(strategy="static", target=0.15))
        assert np.all(np.isfinite(path.wealth))

    def test_static_wealth_matches_column_loop_cholesky(self, monkeypatch):
        # 50 assets > the 26-week batch: only the ridge keeps Sigma_hat
        # definite, so the pivot check works at cond(Sigma_hat) ~ 1e6.  The
        # batched kernel factorises with LAPACK; the oracle's per-week path
        # (each StaticProblem) with the textbook column loop.
        prices = gbm_series(n_weeks=70, n_assets=50, seed=4)
        cfg = BacktestConfig(strategy="static", target=0.15)
        path = run_backtest(prices, cfg)
        monkeypatch.setattr(static_mvo, "robust_cholesky", loop_cholesky)
        assert_matches_oracle(path, prices, cfg)

    def test_constant_bond_strategy_compounds(self):
        # park one unit of money in stock 0? no: all-bond via theta=0 handled
        # above; here hold exactly one unit of stock money each week and check
        # wealth increments equal stock return plus bond interest on balance
        prices = gbm_series(n_weeks=60, seed=9)
        cfg = BacktestConfig(strategy=lambda est, p, t, T: np.array([1.0]))
        path = run_backtest(prices, cfg)
        p = prices.prices[:, 0]
        w = 0.0
        dt, r = 1 / 52, 0.025
        for k, t in enumerate(range(27, 60)):
            bond = w - 1.0
            w = bond * np.exp(r * dt) + p[t + 1] / p[t]
            assert path.wealth[k + 1] == pytest.approx(w, abs=1e-12)

    def test_custom_strategy_receives_estimates(self):
        seen = []

        def strat(est, prices_now, t_years, horizon):
            seen.append((est.batch_end, t_years, horizon))
            return np.zeros(1)

        prices = gbm_series(n_weeks=40)
        run_backtest(prices, BacktestConfig(strategy=strat))
        assert seen[0][0] == 27
        assert seen[0][1] == pytest.approx(27 / 52)
        assert all(h == pytest.approx(40 / 52) for _, _, h in seen)
