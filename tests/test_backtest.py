import sys
import threading
from functools import partial

import numpy as np
import pytest

from mvlab import backtest, dynamic_policy, estimate, static_mvo
from mvlab.backtest import LEDGER_TOL, BacktestConfig, run_backtest
from mvlab.cli import main, read_price_csv
from mvlab.dynamic_policy import MarketParams
from mvlab.errors import DataError, DomainError, LedgerError, SingularFrontierError, WarmupError
from mvlab.simulate import PriceSeries, SimConfig, gbm_paths

from conftest import Ledger, accrue_step, oracle_backtest, rebalance_step


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
    """The step-by-step ledger oracle of conftest.py."""

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
        with pytest.raises(AssertionError, match="ledger identity violated"):
            led.check(np.array([1.0]))


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
    def test_matches_step_by_step_oracle(self, monkeypatch, weeks, kwargs):
        # a budget of 64 weeks of a 4-asset panel's (4, 26) windows, so
        # 63 and 64 weeks run in one block, 65 in two, 129 in three
        monkeypatch.setattr(backtest, "BLOCK_ENTRIES", 64 * 4 * 26)
        cfg = BacktestConfig(**kwargs)
        prices = gbm_series(n_weeks=weeks + cfg.batch_len + 1, n_assets=4, seed=weeks)
        path = run_backtest(prices, cfg)
        assert path.week_index.size == weeks + 1
        assert_matches_oracle(path, prices, cfg)

    def test_single_asset_static_invests_notional(self):
        prices = gbm_series(n_weeks=100, seed=1)
        cfg = BacktestConfig(strategy="static", notional=2.0)
        assert_matches_oracle(run_backtest(prices, cfg), prices, cfg)

    @pytest.mark.parametrize("strategy", ["static", "simple", "cev"])
    def test_non_finite_estimate_names_the_week(self, strategy):
        # A price of 1e-300 at row 70 makes return row 70 about 1e300, whose
        # square overflows the covariance of every batch that holds it; the
        # first such batch ends at decision week 71.
        prices = gbm_series(n_weeks=100, n_assets=3, seed=1)
        p = prices.prices.copy()
        p[70, 1] = 1e-300
        prices = type(prices)(prices=p)
        with np.errstate(all="ignore"), \
                pytest.raises(DomainError, match=r"^decision week 71: non-finite"):
            run_backtest(prices, BacktestConfig(strategy=strategy))

    @pytest.mark.parametrize("strategy", ["static", "simple", "cev"])
    def test_non_finite_estimate_at_or_above_batch_len_names_the_week(self, strategy):
        # as above, with 30 assets on the 26-week batch: the Woodbury solve
        prices = gbm_series(n_weeks=100, n_assets=30, seed=1)
        p = prices.prices.copy()
        p[70, 1] = 1e-300
        prices = type(prices)(prices=p)
        with np.errstate(all="ignore"), \
                pytest.raises(DomainError, match=r"^decision week 71: non-finite"):
            run_backtest(prices, BacktestConfig(strategy=strategy))

    @pytest.mark.parametrize("n_assets", [26, 40])
    @pytest.mark.parametrize("kwargs", [
        {"strategy": "static", "target": 0.15},
        {"strategy": "simple", "gamma": 1e4},
        {"strategy": "cev", "alpha": 1.0, "gamma": 1e4},
        {"strategy": "simple"},
        {"strategy": "cev", "alpha": 1.0},
    ], ids=["static", "simple", "cev", "simple-gamma-1", "cev-gamma-1"])
    def test_matches_oracle_at_or_above_batch_len(self, n_assets, kwargs):
        # Sigma_hat has rank below the 26-week batch: the kernel solves in
        # the batch dimension, the oracle with each N x N matrix.  The ridge
        # alone bounds the demand along Sigma_hat's null space, so at
        # gamma = 1 the money reaches 1e8 at zero wealth and the oracle
        # ledger's check must scale with the gross money, as the kernel's
        # does; gamma = 1e4 scales the money down, and the tolerance with it.
        cfg = BacktestConfig(**kwargs)
        prices = gbm_series(n_weeks=80, n_assets=n_assets, seed=n_assets)
        assert_matches_oracle(run_backtest(prices, cfg), prices, cfg)

    @pytest.mark.parametrize("kwargs", [
        {"strategy": "static", "target": 0.15},
        {"strategy": "simple"},
        {"strategy": "cev", "alpha": 1.0},
    ], ids=["static", "simple", "cev"])
    def test_theta_below_batch_len_solves_each_matrix(self, kwargs):
        # With fewer assets than batch weeks the kernel solves each
        # regularised N x N estimate as it stands; cev scales its right-hand
        # sides and solutions by q = S^(alpha/2); static's block stage gives
        # its frontier table, Sigma^-1 [1, mu] and a, b, c
        cfg = BacktestConfig(**kwargs)
        prices = gbm_series(n_weeks=120, n_assets=10, seed=6)
        returns = estimate.to_returns(prices)
        rows = np.arange(27, 27 + 64)
        horizon = 120 * backtest.DT
        mu, sigma = estimate.rolling_estimates(returns, rows)
        sigma = estimate.regularize_covariance(sigma)
        tau = horizon - rows * backtest.DT
        if cfg.strategy == "static":
            want = static_mvo._frontier_solve(partial(np.linalg.solve, sigma), mu)
        elif cfg.strategy == "simple":
            want = dynamic_policy.gbm_demand(mu - cfg.r, partial(np.linalg.solve, sigma),
                                             cfg.r, cfg.gamma, tau)
        else:
            S = prices.prices[rows]
            q = (S ** (cfg.alpha / 2.0))[..., None]
            myopic, hedging = dynamic_policy.cev_demand(
                mu, lambda b: q * np.linalg.solve(sigma, q * b), cfg.alpha, S, cfg.r,
                cfg.gamma, tau)
            want = myopic + hedging
        got = backtest._block_theta(cfg, returns, prices.prices, rows, horizon)
        if cfg.strategy == "static":
            for name, value in zip(("inv", "a", "b", "c"), want):
                np.testing.assert_array_equal(got[name], value)
        else:
            np.testing.assert_array_equal(got, want)

    def test_cev_theta_at_or_above_batch_len_scales_the_woodbury_solve(self):
        # the same q-scaling around the batch-dimension solve
        cfg = BacktestConfig(strategy="cev", alpha=1.0)
        prices = gbm_series(n_weeks=120, n_assets=30, seed=6)
        returns = estimate.to_returns(prices)
        rows = np.arange(27, 27 + 64)
        horizon = 120 * backtest.DT
        mu, solve = estimate.ridge_solver(returns, rows)
        S = prices.prices[rows]
        q = (S ** (cfg.alpha / 2.0))[..., None]
        myopic, hedging = dynamic_policy.cev_demand(
            mu, lambda b: q * solve(q * b), cfg.alpha, S, cfg.r, cfg.gamma,
            horizon - rows * backtest.DT)
        got = backtest._block_theta(cfg, returns, prices.prices, rows, horizon)
        np.testing.assert_array_equal(got, myopic + hedging)

    @pytest.mark.parametrize("alpha", [160.0, 400.0, -400.0])
    def test_cev_price_power_out_of_range_names_the_week(self, alpha):
        # At prices near 1e2, S^alpha over- or underflows, so the scale
        # covariance Sigma / S^alpha is 0 or inf at the first decision week.
        prices = gbm_series(n_weeks=80, n_assets=3, seed=0)
        prices = type(prices)(prices=100.0 * prices.prices)
        with np.errstate(all="raise"), \
                pytest.raises(DomainError, match=r"^decision week 27: price power"):
            run_backtest(prices, BacktestConfig(strategy="cev", alpha=alpha))

    @pytest.mark.parametrize("alpha", [100.0, -100.0, 1.0])
    def test_cev_large_finite_price_power_runs(self, alpha):
        prices = gbm_series(n_weeks=80, n_assets=3, seed=0)
        prices = type(prices)(prices=100.0 * prices.prices)
        path = run_backtest(prices, BacktestConfig(strategy="cev", alpha=alpha))
        assert np.all(np.isfinite(path.wealth))

    def test_identity_tolerance_scales_with_gross_money(self):
        # Entry 1 leaks a multiple of LEDGER_TOL x its gross money; entry 0
        # moves less than 1 of money, where the floor of 1 holds.
        gross = np.array([0.5, 7e7])
        bond, wealth = np.array([-3.0, -7e7]), np.zeros(2)

        def stock(leak):
            return -bond + np.array([0.9, leak]) * LEDGER_TOL * np.maximum(1.0, gross)

        backtest._check_identity(bond, stock(0.5), wealth, gross)
        with pytest.raises(LedgerError, match="ledger identity violated") as info:
            backtest._check_identity(bond, stock(2.0), wealth, gross)
        assert info.value.index == 1

    def test_readme_multi_panel_keeps_the_identity(self, tmp_path):
        # The README panel: 50 assets on a 26-week batch hold about 7e7 of
        # gross money at zero wealth, whose rounding noise the identity
        # must absorb every week.
        assert main(["simulate", "--assets", "50", "--seed", "0", "--out", str(tmp_path)]) == 0
        prices = read_price_csv(tmp_path / "prices.csv")
        path = run_backtest(prices, BacktestConfig(strategy="multi"))
        assert np.array_equal(path.week_index, np.arange(27, 524))

    @pytest.mark.parametrize("money", [np.nan, np.inf, -np.inf])
    def test_non_finite_money_is_ledger_error(self, money):
        # a NaN residual compares False against any tolerance
        prices = gbm_series(n_weeks=60, seed=0)
        cfg = BacktestConfig(strategy=lambda est, p, t, T: np.array([money]))
        with pytest.raises(LedgerError, match=r"^decision week 27: ledger identity"):
            run_backtest(prices, cfg)

    @pytest.mark.parametrize("theta, said", [
        (np.ones(4), r"of shape \(4,\), expected \(3,\)$"),
        (1.0, r"of shape \(\), expected \(3,\)$"),
        ("abc", "that is not numeric: could not convert string to float"),
        ([1.0, [2.0], 3.0], "that is not numeric: setting an array element with a sequence"),
    ], ids=["four-entries", "scalar", "string", "ragged"])
    def test_callable_theta_of_wrong_shape_is_data_error(self, theta, said):
        # a 4-entry, 0-d or non-numeric theta on a 3-asset panel names the
        # week and what is wrong with it
        prices = gbm_series(n_weeks=60, n_assets=3, seed=0)
        cfg = BacktestConfig(strategy=lambda est, p, t, T: theta)
        message = rf"^decision week 27: strategy returned theta {said}"
        with pytest.raises(DataError, match=message):
            run_backtest(prices, cfg)

    def test_error_without_index_passes_unchanged(self):
        # an error naming no stack entry reaches the caller as raised,
        # without a decision week in its message
        def no_forecast(est, p, t, T):
            raise DomainError("no forecast")

        cfg = BacktestConfig(strategy=no_forecast)
        with pytest.raises(DomainError) as info:
            run_backtest(gbm_series(n_weeks=60, seed=0), cfg)
        assert str(info.value) == "no forecast"
        assert info.value.index is None


class TestBlockWeeks:
    """Blocks sized by the stack entries a decision week takes."""

    def block_sizes(self, monkeypatch, n_assets, n_weeks):
        sizes = []

        def counting(cfg, returns, prices, rows, horizon):
            sizes.append(rows.size)
            return np.zeros((rows.size, n_assets))

        monkeypatch.setattr(backtest, "_block_theta", counting)
        run_backtest(gbm_series(n_weeks=n_weeks, n_assets=n_assets), BacktestConfig())
        return sizes

    def test_small_panel_runs_in_one_block(self, monkeypatch):
        # criterion 09's shape: 10 assets, 200 price rows, 172 decision weeks
        assert self.block_sizes(monkeypatch, 10, 199) == [172]

    def test_fifty_assets_split_evenly(self, monkeypatch):
        # the README panel's 496 decision weeks: 2**19 // (50 x 50) = 209
        # weeks fit a block, so they take three, spread evenly
        assert backtest._block_weeks(496, 50, 26) == 166
        assert self.block_sizes(monkeypatch, 50, 523) == [166, 166, 164]

    @pytest.mark.parametrize("n_assets", [1, 10, 26, 50, 144, 145, 724, 725, 2000])
    @pytest.mark.parametrize("n_weeks", [1, 172, 496, 5000])
    def test_blocks_fit_the_budget(self, n_assets, n_weeks):
        k = backtest._block_weeks(n_weeks, n_assets, 26)
        week = n_assets * max(n_assets, 26)
        assert 1 <= k <= n_weeks
        assert k * week <= backtest.BLOCK_ENTRIES or k == 1
        # no fewer blocks would fit the budget
        blocks = -(-n_weeks // k)
        assert blocks == 1 or -(-n_weeks // (blocks - 1)) * week > backtest.BLOCK_ENTRIES


def assert_same_bits(path, want):
    for field in ("wealth", "bond", "stock_value"):
        assert np.array_equal(getattr(path, field), getattr(want, field)), field


def recording_blocks(monkeypatch, record):
    """Patches _block_theta to call record(rows) on the thread computing
    each block before computing it."""
    block_theta = backtest._block_theta

    def recorded(cfg, returns, prices, rows, horizon):
        record(rows)
        return block_theta(cfg, returns, prices, rows, horizon)

    monkeypatch.setattr(backtest, "_block_theta", recorded)


class TestBlockStage:
    """A panel's blocks run in week order on the calling thread."""

    @pytest.mark.parametrize("strategy", backtest.STRATEGIES)
    def test_same_bits_in_three_blocks_and_in_one(self, monkeypatch, strategy):
        # each run computes its own blocks: the kept static frontier table
        # is dropped before it
        prices, cfg = gbm_series(n_weeks=523, n_assets=50), BacktestConfig(strategy=strategy)
        paths, counts = [], []
        for entries in (backtest.BLOCK_ENTRIES, 2**24):
            blocks = []
            with monkeypatch.context() as m:
                m.setattr(backtest, "BLOCK_ENTRIES", entries)
                backtest._frontier_table.cache_clear()
                recording_blocks(m, blocks.append)
                paths.append(run_backtest(prices, cfg))
            counts.append(len(blocks))
        assert counts == [3, 1]
        assert_same_bits(paths[1], paths[0])

    @pytest.mark.parametrize("n_assets, n_weeks, strategy", [
        (10, 199, "simple"),   # criterion 09's shape: one block
        (50, 523, "static"),   # three blocks
        (50, 523, "simple"),
        (50, 523, lambda est, p, t, T: np.zeros(p.size)),
    ])
    def test_every_block_runs_on_the_caller(self, monkeypatch, n_assets, n_weeks, strategy):
        baseline = threading.active_count()
        seen = []
        recording_blocks(monkeypatch, lambda rows: seen.append(
            (threading.current_thread(), threading.active_count())))
        run_backtest(gbm_series(n_weeks=n_weeks, n_assets=n_assets),
                     BacktestConfig(strategy=strategy))
        assert seen and set(seen) == {(threading.current_thread(), baseline)}

    @pytest.mark.parametrize("error", [DomainError("x", index=1), KeyboardInterrupt()],
                             ids=["DomainError", "KeyboardInterrupt"])
    def test_error_in_a_block_stops_the_run(self, monkeypatch, error):
        # the second of the panel's three blocks fails; the third never runs
        blocks = []

        def failing(cfg, returns, prices, rows, horizon):
            blocks.append(rows)
            if len(blocks) == 2:
                raise error
            return np.zeros((rows.size, 50))

        monkeypatch.setattr(backtest, "_block_theta", failing)
        with pytest.raises(type(error)) as info:
            run_backtest(gbm_series(n_weeks=523, n_assets=50), BacktestConfig())
        assert len(blocks) == 2
        if isinstance(error, DomainError):
            assert str(info.value) == f"decision week {blocks[1][1]}: x"

    @pytest.mark.parametrize("strategy", ["multi", "static"])
    def test_concurrent_runs_keep_their_bits(self, strategy):
        # three callers at once (three threads on two cores) under a short
        # switch interval, alternating between two panels: a run reads no
        # state another writes but static's kept frontier table
        panels = [gbm_series(n_weeks=523, n_assets=50, seed=seed) for seed in (0, 1)]
        cfg = BacktestConfig(strategy=strategy)
        want = [run_backtest(prices, cfg).wealth for prices in panels]
        got = [None] * 3

        def run(i):
            got[i] = run_backtest(panels[i % 2], cfg).wealth

        callers = [threading.Thread(target=run, args=(i,)) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert all(np.array_equal(wealth, want[i % 2]) for i, wealth in enumerate(got))

    def test_blocks_step_under_the_callers_errstate(self, monkeypatch):
        seen = []
        recording_blocks(monkeypatch, lambda rows: seen.append(
            (threading.current_thread().name, np.geterr())))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            outer = np.geterr()
            run_backtest(gbm_series(n_weeks=523, n_assets=50), BacktestConfig())
        assert {name for name, _ in seen} == {threading.current_thread().name}
        assert all(errs == outer for _, errs in seen)


class TestFrontierMemo:
    """A static backtest on the panel and batch_len that the last static
    call solved reuses its frontier table and runs no block stage; a panel
    cannot change once made."""

    def test_warm_call_gives_the_cold_bits(self, monkeypatch):
        prices = gbm_series(n_weeks=523, n_assets=50)
        configs = [BacktestConfig(strategy="static", target=t) for t in (0.10, 0.15, 0.20)]
        configs.append(BacktestConfig(strategy="static", target=0.15, notional=2.5))
        cold = []
        for cfg in configs:
            backtest._frontier_table.cache_clear()
            cold.append(run_backtest(prices, cfg))
        blocks = []
        recording_blocks(monkeypatch, blocks.append)
        for cfg, want in zip(configs, cold):
            assert_same_bits(run_backtest(prices, cfg), want)
        assert blocks == []

    def test_panel_is_read_only(self):
        series = gbm_series(n_weeks=60, n_assets=3)
        with pytest.raises(ValueError, match="read-only"):
            series.prices[30, 1] *= 1.001

    def test_panel_cannot_be_made_writeable(self):
        # the prices live in an immutable buffer, so neither the array nor
        # its base can be flagged writeable and then edited behind the
        # frontier table's back
        series = gbm_series(n_weeks=60, n_assets=3)
        for array in (series.prices, series.prices.base):
            with pytest.raises(ValueError, match="WRITEABLE"):
                array.flags.writeable = True
        assert not series.prices.flags.writeable

    def test_panel_keeps_its_own_copy(self):
        prices = gbm_series(n_weeks=60, n_assets=3).prices.copy()
        series = PriceSeries(prices=prices)
        want = prices.copy()
        prices[30, 1] *= 1.001
        assert np.array_equal(series.prices, want)

    def test_edited_copy_is_solved_again(self, monkeypatch):
        series, cfg = gbm_series(n_weeks=523, n_assets=50), BacktestConfig(strategy="static")
        run_backtest(series, cfg)
        prices = series.prices.copy()
        prices[300, 7] *= 1.001
        edited = PriceSeries(prices=prices)
        blocks = []
        recording_blocks(monkeypatch, blocks.append)
        got = run_backtest(edited, cfg)
        assert blocks
        assert_same_bits(got, run_backtest(PriceSeries(prices=prices), cfg))

    def test_other_batch_len_misses(self):
        prices = gbm_series(n_weeks=523, n_assets=50)
        run_backtest(prices, BacktestConfig(strategy="static"))
        cfg = BacktestConfig(strategy="static", batch_len=30)
        misses = backtest._frontier_table.cache_info().misses
        got = run_backtest(prices, cfg)
        assert backtest._frontier_table.cache_info().misses == misses + 1
        backtest._frontier_table.cache_clear()
        assert_same_bits(got, run_backtest(prices, cfg))

    def test_failing_panel_is_not_kept(self, monkeypatch):
        # constant prices: zero means, so b = c = 0 and a*c - b^2 = 0
        prices, cfg = PriceSeries(prices=np.ones((60, 3))), BacktestConfig(strategy="static")
        blocks = []
        recording_blocks(monkeypatch, blocks.append)
        for calls in (1, 2):
            with pytest.raises(SingularFrontierError, match=r"^decision week 27: degenerate"):
                run_backtest(prices, cfg)
            assert len(blocks) == calls


class TestConfig:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            BacktestConfig(strategy="kelly")

    def test_callable_strategy_allowed(self):
        BacktestConfig(strategy=lambda est, p, t, T: np.zeros(1))

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            BacktestConfig(gamma=-1.0)

    def test_negative_rate(self):
        with pytest.raises(ValueError, match="^riskless rate must be nonnegative$"):
            BacktestConfig(r=-0.01)

    @pytest.mark.parametrize("field", ["target", "alpha", "gamma", "r", "notional"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_field_rejected(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            BacktestConfig(strategy="cev", **{field: bad})

    @pytest.mark.parametrize("batch_len", [26.5, 26.0, "26"])
    def test_non_integer_batch_len_rejected(self, batch_len):
        with pytest.raises(ValueError, match="^batch_len must be an integer, got "):
            BacktestConfig(batch_len=batch_len)


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
        # q = S^0 = 1 scales nothing, below batch_len and at or above it.
        # cev solves its myopic column beside the hedging column, multi
        # alone, and LAPACK rounds the two apart in the last bits; the demand
        # itself is checked to the bit below.  At 30 assets the ridge-bound
        # money reaches 3e8 a week, so the gap (3e-16 of that money) is
        # measured against the path's largest wealth, not a week near zero.
        for n_assets in (3, 30):
            prices = gbm_series(n_weeks=90, n_assets=n_assets, seed=11)
            a = run_backtest(prices, BacktestConfig(strategy="multi"))
            b = run_backtest(prices, BacktestConfig(strategy="cev", alpha=0.0))
            np.testing.assert_allclose(b.wealth, a.wealth, rtol=1e-13,
                                       atol=1e-13 * np.abs(a.wealth).max())

    @pytest.mark.parametrize("n_assets", [3, 30])
    def test_cev_demand_at_alpha_zero_is_the_myopic_column(self, n_assets):
        # at alpha = 0 the hedge is exactly zero, and the myopic demand is
        # column 0 of the one two-column solve over gamma, discounted
        prices = gbm_series(n_weeks=90, n_assets=n_assets, seed=11)
        rows = np.arange(27, 89)
        r, gamma, tau = 0.025, 2.0, 89 * backtest.DT - rows * backtest.DT
        mu, solve = estimate.ridge_solver(estimate.to_returns(prices), rows)
        myopic, hedging = dynamic_policy.cev_demand(mu, solve, 0.0, prices.prices[rows], r,
                                                    gamma, tau)
        x = solve(np.stack([mu - r, (mu - r) ** 2], axis=-1))
        np.testing.assert_array_equal(hedging, 0.0)
        np.testing.assert_array_equal(myopic, x[..., 0] / gamma * np.exp(-r * tau)[:, None])

    def test_static_runs_multi_asset(self):
        prices = gbm_series(n_weeks=90, n_assets=3, seed=2)
        path = run_backtest(prices, BacktestConfig(strategy="static", target=0.15))
        assert np.all(np.isfinite(path.wealth))

    def test_static_wealth_matches_oracle_at_50_assets(self):
        # 50 assets > the 26-week batch: only the ridge keeps Sigma_hat
        # definite, at cond(Sigma_hat) ~ 1e6.  The batched kernel does not
        # factorise; the oracle's per-week path checks each Sigma_hat's
        # definiteness in its StaticProblem and solves it densely.
        prices = gbm_series(n_weeks=70, n_assets=50, seed=4)
        cfg = BacktestConfig(strategy="static", target=0.15)
        path = run_backtest(prices, cfg)
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
