"""The mvlab names that bench/workloads.py reaches.

The benchmark reaches mvlab only through module attributes
(`mv.backtest.run_backtest`), and it cannot change with the library: an op
whose name has gone shows there only as a failed op.  So a change that
drops or renames one of these names fails here first.
"""

import importlib

import pytest

MODULES = ["simulate", "estimate", "static_mvo", "dynamic_policy", "backtest", "metrics",
           "wealth_analysis", "cli"]

NAMES = [
    "static_mvo.StaticProblem",
    "static_mvo.solve_static_mvo",
    "static_mvo.frontier_constants",
    "static_mvo.frontier_variance",
    "static_mvo.kkt_oracle",
    "dynamic_policy.MarketParams",
    "dynamic_policy.MarketParams.single",
    "dynamic_policy.CevParams",
    "dynamic_policy.CevParams.single",
    "dynamic_policy.simple_policy",
    "dynamic_policy.cev_policy",
    "dynamic_policy.lattice_equilibrium_oracle",
    "simulate.SimConfig",
    "simulate.gbm_paths",
    "simulate.cev_paths",
    "simulate.mc_anticipated_gain",
    "backtest.run_backtest",
    "backtest.BacktestConfig",
    "metrics.perf_stats",
    "wealth_analysis.compare_strategies_mc",
    "wealth_analysis.analytic_gap",
    "cli.main",
]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports(module):
    importlib.import_module(f"mvlab.{module}")


@pytest.mark.parametrize("dotted", NAMES)
def test_name_resolves_to_a_callable(dotted):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"mvlab.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)
