"""A seeded fuzz of the library's entry points at small sizes.

Each test draws the scalar inputs of one entry point from finite floats
near the unit scale and the edges of the float range, and calls it.  Every
exception it raises must be an MvlabError or one of the library's
ValueErrors (its input checks).  The suite turns warnings into errors, so
the fuzz records each call's RuntimeWarnings in WARNINGS, by entry point,
instead of raising them; any other warning fails.  The examples are
derandomized, so every run draws the same inputs.
"""

import warnings
from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

import mvlab
from mvlab.errors import MvlabError
from mvlab.wealth_analysis import MIN_PATHS

EDGES = [1e-300, 5e-324, 400.0, 1e155, 1e308]
NUMBER = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -1e-300, -1e308, *EDGES]))
# the inputs a check requires to be positive (or, for RATE, nonnegative)
# and times within a horizon of 1, mostly drawn where the check passes
POSITIVE = st.one_of(st.floats(1e-3, 3.0), st.sampled_from(EDGES), NUMBER)
RATE = st.one_of(st.floats(0.0, 0.2), st.sampled_from(EDGES), NUMBER)
TIME = st.one_of(st.floats(0.0, 1.0), NUMBER)
FUZZ = settings(derandomize=True, database=None, max_examples=40, deadline=None)
PATHS, STEPS = 200, 4  # the Monte Carlo gain's size
ASSETS, WEEKS = 2, 40  # the price panels' size
WARNINGS = Counter()  # RuntimeWarnings recorded, by entry point


def call(name, fn):
    """fn(), letting an MvlabError or a ValueError pass and counting
    the RuntimeWarnings it emits under `name`."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fn()
        except (MvlabError, ValueError):
            pass
    assert [w.category for w in caught if not issubclass(w.category, RuntimeWarning)] == []
    WARNINGS[name] += len(caught)


def market(mu, sigma, r, T, gamma):
    return mvlab.MarketParams.single(mu, sigma, r, T, gamma)


def cev(mu, sigma_bar, alpha, r, T, gamma, n=1):
    return mvlab.CevParams(mu=np.full(n, mu), sigma_bar=np.full(n, sigma_bar),
                           alpha=np.full(n, alpha), corr=np.eye(n), r=r, T=T, gamma=gamma)


def panel(s0, vol):
    """A GBM panel of ASSETS assets over WEEKS weeks from the price s0, each
    asset of volatility |vol|."""
    m = mvlab.MarketParams(mu=np.full(ASSETS, 0.125), sigma=vol * np.eye(ASSETS),
                           r=0.025, T=WEEKS / 52, gamma=1.0)
    return mvlab.gbm_paths(m, mvlab.SimConfig(n_assets=ASSETS, n_steps=WEEKS, dt=1 / 52,
                                              s0=np.full(ASSETS, s0), seed=0))


@FUZZ
@given(NUMBER, POSITIVE, RATE, POSITIVE, POSITIVE, TIME)
def test_simple_policy(mu, sigma, r, T, gamma, t):
    call("simple_policy", lambda: mvlab.simple_policy(market(mu, sigma, r, T, gamma), t))


@FUZZ
@given(NUMBER, POSITIVE, NUMBER, POSITIVE, POSITIVE, TIME)
def test_cev_policy(mu, sigma_bar, alpha, gamma, S, t):
    call("cev_policy", lambda: mvlab.cev_policy(cev(mu, sigma_bar, alpha, 0.025, 1.0, gamma), S, t))


@FUZZ
@given(NUMBER, POSITIVE, RATE, POSITIVE, POSITIVE)
def test_lattice_equilibrium_oracle(mu, sigma, r, T, gamma):
    call("lattice_equilibrium_oracle",
         lambda: mvlab.lattice_equilibrium_oracle(market(mu, sigma, r, T, gamma), 8))


@FUZZ
@given(NUMBER, POSITIVE, NUMBER, RATE, POSITIVE, TIME)
def test_cev_anticipated_gain_exact(mu, sigma_bar, alpha, r, S, t):
    call("cev_anticipated_gain_exact",
         lambda: mvlab.cev_anticipated_gain_exact(cev(mu, sigma_bar, alpha, r, 1.0, 1.0), S, t))


@FUZZ
@given(NUMBER, POSITIVE, NUMBER, RATE, POSITIVE, TIME)
def test_mc_anticipated_gain(mu, sigma_bar, alpha, r, S0, t):
    call("mc_anticipated_gain",
         lambda: mvlab.mc_anticipated_gain(cev(mu, sigma_bar, alpha, r, 1.0, 1.0), S0, t,
                                           PATHS, 0, n_steps=STEPS))


@FUZZ
@given(NUMBER, POSITIVE, RATE, POSITIVE, POSITIVE, NUMBER)
def test_compare_strategies_mc(mu, sigma, r, T, gamma, W0):
    call("compare_strategies_mc",
         lambda: mvlab.compare_strategies_mc(market(mu, sigma, r, T, gamma), W0, MIN_PATHS, 0))


@FUZZ
@given(NUMBER, POSITIVE, RATE, POSITIVE, POSITIVE)
def test_analytic_gap(mu, sigma, r, T, gamma):
    call("analytic_gap", lambda: mvlab.analytic_gap(market(mu, sigma, r, T, gamma)))


@FUZZ
@given(NUMBER, NUMBER, POSITIVE, POSITIVE, st.floats(-1.0, 1.0), NUMBER)
def test_solve_static_mvo(mu0, mu1, var0, var1, corr, target):
    cov = corr * np.sqrt(abs(var0)) * np.sqrt(abs(var1))
    call("solve_static_mvo", lambda: mvlab.solve_static_mvo(mvlab.StaticProblem(
        mu=[mu0, mu1], sigma=[[var0, cov], [cov, var1]], target=target)))


@FUZZ
@given(NUMBER, POSITIVE, NUMBER, POSITIVE, POSITIVE)
def test_cev_paths(mu, sigma_bar, alpha, dt, s0):
    call("cev_paths", lambda: mvlab.cev_paths(
        cev(mu, sigma_bar, alpha, 0.025, 1.0, 1.0, n=ASSETS),
        mvlab.SimConfig(n_assets=ASSETS, n_steps=WEEKS, dt=dt, s0=s0, seed=0)))


@FUZZ
@given(POSITIVE, POSITIVE, NUMBER, RATE, POSITIVE)
def test_cev_backtest(s0, vol, alpha, r, gamma):
    call("run_backtest(cev)", lambda: mvlab.run_backtest(
        panel(s0, vol), mvlab.BacktestConfig(strategy="cev", alpha=alpha, r=r, gamma=gamma)))


@FUZZ
@given(POSITIVE, POSITIVE, NUMBER, NUMBER)
def test_static_backtest(s0, vol, target, notional):
    call("run_backtest(static)", lambda: mvlab.run_backtest(
        panel(s0, vol),
        mvlab.BacktestConfig(strategy="static", target=target, notional=notional)))


@FUZZ
@given(st.lists(NUMBER, max_size=5), POSITIVE)
def test_perf_stats(wealth, base):
    call("perf_stats", lambda: mvlab.perf_stats(wealth, base))
