"""Acceptance suite: twelve end-to-end checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the status lines.
"""

import time

import numpy as np
import pytest

import mvlab as M
from mvlab.backtest import BacktestConfig, run_backtest
from mvlab.cli import main as cli_main
from mvlab.dynamic_policy import (
    CevParams,
    MarketParams,
    cev_anticipated_gain_exact,
    cev_policy,
    lattice_equilibrium_oracle,
    simple_policy,
)
from mvlab.metrics import max_drawdown, perf_stats
from mvlab.simulate import (
    HEDGE_NEUTRAL,
    SimConfig,
    cev_paths,
    gbm_ensemble,
    gbm_paths,
    mc_anticipated_gain,
    rn_weights,
)
from mvlab.static_mvo import (
    StaticProblem,
    frontier_constants,
    frontier_variance,
    kkt_oracle,
    solve_static_mvo,
)
from mvlab.wealth_analysis import analytic_gap, compare_strategies_mc

from conftest import random_pd_matrix


def report(n, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {n:2d} [{status}] {label}: {detail}")
    assert ok, f"criterion {n} ({label}): {detail}"


def _random_instances(seed=2024, count=100):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 11))
        sigma = random_pd_matrix(rng, n)
        mu = rng.normal(0.1, 0.1, size=n)
        target = float(rng.normal(0.12, 0.05))
        out.append(StaticProblem(mu=mu, sigma=sigma, target=target))
    return out


def test_criterion_01_static_mvo_correctness():
    t0 = time.time()
    worst_kkt = worst_con = worst_var = 0.0
    for p in _random_instances():
        w = solve_static_mvo(p)
        o = kkt_oracle(p)
        fc = frontier_constants(p)
        worst_kkt = max(worst_kkt, float(np.max(np.abs(w.omega - o.omega))))
        worst_con = max(worst_con, abs(float(np.sum(w.omega)) - 1.0),
                        abs(float(w.omega @ p.mu) - p.target))
        worst_var = max(worst_var, abs(frontier_variance(fc, p.target)
                                       - float(w.omega @ p.sigma @ w.omega)))
    elapsed = time.time() - t0
    ok = worst_kkt <= 1e-9 and worst_con <= 1e-10 and worst_var <= 1e-10 \
        and elapsed < 1.0
    report(1, "static solver vs KKT oracle", ok,
           f"kkt={worst_kkt:.1e} con={worst_con:.1e} var={worst_var:.1e} "
           f"{elapsed:.2f}s")


def test_criterion_02_frontier_monotonicity():
    rng = np.random.default_rng(99)
    bad = 0
    for p in _random_instances():
        fc = frontier_constants(p)
        targets = np.sort(fc.b / fc.a + rng.uniform(0.0, 0.6, size=8))
        vals = [frontier_variance(fc, m) for m in targets]
        if np.any(np.diff(vals) < -1e-14):
            bad += 1
    report(2, "frontier variance nondecreasing above the vertex", bad == 0,
           f"{bad}/100 instances violated")


def _recipe_gbm_panel(seed, n=50, weeks=523, mean=0.125, var=0.2, rho=0.05,
                      s0=100.0):
    corr = np.full((n, n), rho)
    np.fill_diagonal(corr, 1.0)
    loading = np.sqrt(var) * np.linalg.cholesky(corr)
    m = MarketParams(mu=np.full(n, mean), sigma=loading, r=0.025,
                     T=weeks / 52, gamma=1.0)
    cfg = SimConfig(n_assets=n, n_steps=weeks, dt=1 / 52,
                    s0=np.full(n, s0), seed=seed)
    return gbm_paths(m, cfg)


def test_criterion_03_static_target_risk_ordering():
    # Simulated 50-asset weekly markets (mean 12.5%, variance rate 0.2,
    # pairwise correlation 0.05); static backtests at targets 10/15/20%.
    #
    # Every asset has the same mean simple return mu_bar = 52(e^{0.125/52}-1),
    # so the true frontier is one point.  Write the batch estimate as
    # mu_hat = mu_bar 1 + e: the target constraint mu_hat'w = m reads
    # e'w = m - mu_bar.  For Gaussian returns (weekly GBM returns nearly are)
    # e is symmetric and independent of Sigma_hat, so e -> -e maps the
    # weights at mu_bar + d onto those at mu_bar - d.  Targets 10% and 15%
    # sit about 2.5 points either side of mu_bar: a correct solver orders
    # their realised risk on about half the seeds (8/10 with probability
    # 56/1024), so "strictly ordered on >= 8/10 seeds" is not a property of
    # the method; the count (5/10 here) stays in the report line only.
    #
    # What does hold: the weights are affine in m and the ledger recurrence
    # is linear, so the annualised variance of weekly wealth increments is an
    # exact parabola in m, and three targets determine it.  Risk rises with
    # the target above its vertex when (a) its curvature is positive on every
    # seed; a backtest that ignores its target has zero curvature.  By the
    # symmetry the vertices are centred on mu_bar, so (b) their mean lies
    # within 3 standard errors (sample sd / sqrt(10)) of mu_bar.  Under the
    # law |t_9| > 3 has probability about 1.5%, while a target with its
    # sign flipped puts the vertices near -mu_bar, about 10 standard errors
    # away.
    t0 = time.time()
    targets = np.array([0.10, 0.15, 0.20])
    mu_bar = 52 * np.expm1(0.125 / 52)
    wins = 0
    curvatures, vertices = [], []
    for seed in range(10):
        series = _recipe_gbm_panel(seed)
        risk = []
        for target in targets:
            path = run_backtest(series, BacktestConfig(strategy="static",
                                                       target=target))
            risk.append(52 * np.var(np.diff(path.wealth), ddof=1))
        if risk[0] < risk[1] < risk[2]:
            wins += 1
        # Newton divided differences: exactly zero for target-blind risk.
        slopes = np.diff(risk) / np.diff(targets)
        curv = (slopes[1] - slopes[0]) / (targets[2] - targets[0])
        curvatures.append(curv)
        vertices.append(0.5 * (targets[0] + targets[1] - slopes[0] / curv))
    elapsed = time.time() - t0
    se = np.std(vertices, ddof=1) / np.sqrt(len(vertices))
    z = (np.mean(vertices) - mu_bar) / se
    ok = min(curvatures) > 0 and abs(z) <= 3.0 and elapsed < 30.0
    report(3, "static backtest risk increases with target above its vertex",
           ok, f"min curvature {min(curvatures):.3g}, mean vertex "
           f"{np.mean(vertices):.4f} (se {se:.4f}, mu_bar {mu_bar:.4f}, "
           f"z={z:+.2f}), {wins}/10 seeds strictly ordered, {elapsed:.1f}s")


def test_criterion_04_time_consistent_moments():
    t0 = time.time()
    cases = [
        MarketParams.single(0.125, np.sqrt(0.2), 0.025, 10.0, 1.0),
        MarketParams.single(0.08, 0.25, 0.02, 5.0, 2.0),
        MarketParams.single(0.15, 0.3, 0.03, 2.0, 0.5),
    ]
    n = 100_000
    ok = True
    details = []
    for i, m in enumerate(cases):
        st = M.tc_wealth_stats(m, W0=1.0)
        rng = np.random.default_rng(1000 + i)
        w = rng.standard_normal(n) * np.sqrt(m.T)
        sample = (np.exp(m.r * m.T) + m.sharpe**2 * m.T / m.gamma
                  - m.sharpe * w / m.gamma)
        se_mean = np.sqrt(st.variance / n)
        se_var = st.variance * np.sqrt(2.0 / (n - 1))
        ok &= abs(np.mean(sample) - st.mean) <= 3 * se_mean
        ok &= abs(np.var(sample, ddof=1) - st.variance) <= 3 * se_var
        details.append(f"set{i}: dmean={abs(np.mean(sample)-st.mean):.2e}")
    ref = M.tc_wealth_stats(cases[0], W0=1.0)
    ok &= abs(ref.mean - np.exp(0.25) - 0.5) < 1e-12
    ok &= abs(ref.variance - 0.5) < 1e-12
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    report(4, "time-consistent wealth moments vs MC", ok,
           "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_05_precommitment_dominance():
    m = MarketParams.single(0.125, np.sqrt(0.2), 0.025, 10.0, 1.0)
    cmp_ = compare_strategies_mc(m, W0=1.0, paths=100_000, seed=5)
    ok = abs(cmp_.gap - cmp_.gap_analytic) <= 3 * cmp_.gap_stderr
    ok &= cmp_.gap_analytic >= 0.0
    zero = analytic_gap(MarketParams.single(0.025, 0.2, 0.025, 10.0, 1.0))
    ok &= zero == 0.0
    # second-order agreement for small kappa^2 T
    for k2T in (0.001, 0.005, 0.01):
        sigma = 0.3
        mu = 0.02 + sigma * np.sqrt(k2T)  # T = 1
        g = analytic_gap(MarketParams.single(mu, sigma, 0.02, 1.0, 1.0))
        ok &= g <= k2T**2
    report(5, "precommitment mean dominance gap", ok,
           f"gap={cmp_.gap:.5f} analytic={cmp_.gap_analytic:.5f} "
           f"se={cmp_.gap_stderr:.5f}")


def test_criterion_06_measure_machinery():
    m = MarketParams.single(0.125, np.sqrt(0.2), 0.025, 1.0, 1.0)
    n = 100_000
    times, s = gbm_ensemble(0.125, np.sqrt(0.2), 0.025, 1.0, 52, n, 6)
    w = rn_weights(m, times, s)
    se_w = np.std(w, ddof=1) / np.sqrt(n)
    ok = abs(np.mean(w) - 1.0) <= 3 * se_w
    ws = w * s[:, -1]
    se_ws = np.std(ws, ddof=1) / np.sqrt(n)
    ok &= abs(np.mean(ws) - np.exp(0.025)) <= 3 * se_ws
    # discounted hedge-neutral prices are martingales
    _, s_star = gbm_ensemble(0.125, np.sqrt(0.2), 0.025, 1.0, 52, n, 7,
                             measure=HEDGE_NEUTRAL)
    for k in (26, 52):
        disc = np.exp(-0.025 * times[k]) * s_star[:, k]
        se = np.std(disc, ddof=1) / np.sqrt(n)
        ok &= abs(np.mean(disc) - 1.0) <= 3 * se
    report(6, "Radon-Nikodym weights and martingale checks", ok,
           f"E[w]={np.mean(w):.4f} E[wS]={np.mean(ws):.4f}")


BENCH = CevParams.single(mu=0.125, sigma_bar=0.2, alpha=1.0, r=0.025,
                         T=1.0, gamma=1.0)


def test_criterion_07_cev_policy_verification():
    # (a) alpha -> 0 reduction
    c0 = CevParams.single(0.125, 0.2, 1e-8, 0.025, 1.0, 1.0)
    m = MarketParams.single(0.125, 0.2, 0.025, 1.0, 1.0)
    pa = cev_policy(c0, S=1.0, t=0.0).theta[0]
    pb = simple_policy(m, 0.0).theta[0]
    ok_a = abs(pa - pb) / abs(pb) <= 1e-6
    # (b) hedging vs central finite difference of the MC anticipated gain
    h = 0.01
    up = mc_anticipated_gain(BENCH, 1.0 + h, 0.0, 150_000, 7, n_steps=500)
    dn = mc_anticipated_gain(BENCH, 1.0 - h, 0.0, 150_000, 7, n_steps=500)
    fd = -1.0 * (up.value - dn.value) / (2 * h) * np.exp(-0.025)
    hed = cev_policy(BENCH, 1.0, 0.0).hedging[0]
    rel_b = abs(fd - hed) / abs(hed)
    ok_b = rel_b <= 1e-3
    # (c) MC gain vs the moment-ODE closed form
    exact = cev_anticipated_gain_exact(BENCH, 1.0, 0.0)
    est = mc_anticipated_gain(BENCH, 1.0, 0.0, 150_000, 7, n_steps=500)
    ok_c = abs(est.value - exact) <= 3 * est.stderr + 1e-4
    assert all(e.n_steps == 500 and e.absorbed == 0.0 for e in (up, dn, est))
    report(7, "CEV policy: reduction, hedging sensitivity, MC oracle",
           ok_a and ok_b and ok_c,
           f"a={abs(pa-pb)/abs(pb):.1e} b={rel_b:.1e} "
           f"c={abs(est.value-exact):.1e} (se={est.stderr:.1e})")


def test_criterion_08_lattice_recursion_fidelity():
    m = MarketParams.single(0.125, np.sqrt(0.2), 0.025, 1.0, 1.0)
    closed = simple_policy(m, 0.0).theta[0]
    errs = [abs(lattice_equilibrium_oracle(m, s).root - closed)
            for s in (64, 128, 256, 512)]
    ratios = [e2 / e1 for e1, e2 in zip(errs, errs[1:])]
    ok = all(0.35 <= r <= 0.65 for r in ratios)
    flat = lattice_equilibrium_oracle(
        MarketParams.single(0.025, np.sqrt(0.2), 0.025, 1.0, 1.0), 64)
    ok &= all(np.all(level == 0.0) for level in flat.thetas)
    report(8, "lattice error halves with step doubling; flat at zero Sharpe",
           ok, "ratios=" + ",".join(f"{r:.3f}" for r in ratios))


def _cev_panel(seed, n=10, weeks=200, var=0.02, mean=0.125, s0=100.0,
               alpha=1.0):
    corr = np.full((n, n), 0.05)
    np.fill_diagonal(corr, 1.0)
    sb = np.sqrt(var / s0**alpha)
    c = CevParams(mu=np.full(n, mean), sigma_bar=np.full(n, sb),
                  alpha=np.full(n, alpha), corr=corr, r=0.025,
                  T=weeks / 52, gamma=1.0)
    cfg = SimConfig(n_assets=n, n_steps=weeks, dt=1 / 52,
                    s0=np.full(n, s0), seed=seed)
    return cev_paths(c, cfg)


def test_criterion_09_cev_strategy_advantage():
    t0 = time.time()
    cev_term, sim_term = [], []
    for seed in range(20):
        series = _cev_panel(seed)
        cev_term.append(run_backtest(
            series, BacktestConfig(strategy="cev", alpha=1.0)).wealth[-1])
        sim_term.append(run_backtest(
            series, BacktestConfig(strategy="simple")).wealth[-1])
    med_cev, med_sim = np.median(cev_term), np.median(sim_term)
    elapsed = time.time() - t0
    ok = med_cev > med_sim and elapsed < 120.0
    report(9, "matched CEV strategy beats the GBM strategy on CEV markets",
           ok, f"median cev={med_cev:.2f} vs simple={med_sim:.2f}, "
               f"{elapsed:.0f}s")


def test_criterion_10_ledger_integrity():
    # invariants are asserted to 1e-9 of gross money inside run_backtest;
    # run one GBM and one CEV backtest through them, then reproduce a
    # three-week single-asset ledger by hand.
    for series in (_recipe_gbm_panel(0, n=3, weeks=60), _cev_panel(1, n=3,
                                                                   weeks=60)):
        for strat in ("static", "simple", "cev"):
            run_backtest(series, BacktestConfig(strategy=strat))
    prices = _recipe_gbm_panel(2, n=1, weeks=30)
    cfg = BacktestConfig(strategy=lambda est, p, t, T: np.array([1.0]))
    path = run_backtest(prices, cfg)
    p = prices.prices[:, 0]
    w, r, dt = 0.0, cfg.r, M.backtest.DT
    exact = True
    for k, t in enumerate(range(27, 30)):
        w = (w - 1.0) * np.exp(r * dt) + p[t + 1] / p[t]
        exact &= abs(path.wealth[k + 1] - w) <= 1e-12
    report(10, "self-financing ledger identities and hand ledger", exact,
           f"hand ledger terminal {w:.6f}")


def test_criterion_11_metrics():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(500):
        n = int(rng.integers(2, 201))
        s = np.exp(rng.normal(0.0, 0.2, size=n).cumsum())
        fast = max_drawdown(s)
        brute = min(s[j] / s[i] - 1.0 for i in range(n)
                    for j in range(i, n))
        ok &= abs(fast - brute) <= 1e-14
    ok &= max_drawdown([1.0, 2.0, 1.2, 1.8]) == pytest.approx(-0.4)
    ok &= max_drawdown([1.0, 1.1, 1.2]) == 0.0
    # scale invariance of drawdown; base-shift covariance of perf stats
    s = np.exp(np.random.default_rng(2).normal(0, 0.3, 50).cumsum())
    ok &= abs(max_drawdown(s) - max_drawdown(7.0 * s)) <= 1e-12
    w = np.array([0.0, 0.2, -0.1, 0.3])
    a = perf_stats(w, base=1.0)
    b = perf_stats(2.0 * w, base=2.0)
    ok &= abs(a.std_dev - b.std_dev) <= 1e-12
    ok &= abs(a.terminal_return - b.terminal_return) <= 1e-12
    report(11, "drawdown brute-force equivalence and invariances", ok)


def test_criterion_12_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli_main(["simulate", "--assets", "5", "--weeks", "60",
                         "--seed", "17", "--out", str(out)]) == 0
        bt = tmp_path / f"bt-{tag}"
        assert cli_main(["backtest", "--input", str(out / "prices.csv"),
                         "--strategy", "multi", "--base", "10",
                         "--out", str(bt)]) == 0
        outs.append(((out / "prices.csv").read_bytes(),
                     (bt / "wealth.csv").read_bytes(),
                     (bt / "stats.json").read_bytes()))
    series_ok = outs[0] == outs[1]
    a = run_backtest(_recipe_gbm_panel(3, n=2, weeks=60),
                     BacktestConfig(strategy="multi"))
    b = run_backtest(_recipe_gbm_panel(3, n=2, weeks=60),
                     BacktestConfig(strategy="multi"))
    lib_ok = np.array_equal(a.wealth, b.wealth)
    report(12, "seeded commands re-run bit-identically",
           series_ok and lib_ok)
