"""Mean-variance portfolio laboratory.

Static Markowitz solutions with a KKT oracle, time-consistent dynamic
mean-variance policies under GBM and CEV economies, precommitment analytics,
seeded market simulators, a rolling-estimation weekly backtest engine, and
equity-curve performance metrics.
"""

from .backtest import BacktestConfig, WealthPath, run_backtest
from .dynamic_policy import (
    CevParams,
    MarketParams,
    Policy,
    anticipated_gain_gbm,
    cev_anticipated_gain_exact,
    cev_policy,
    lattice_equilibrium_oracle,
    simple_policy,
)
from .estimate import ParamEstimate, regularize_covariance, rolling_estimates, to_returns
from .metrics import PerfStats, max_drawdown, perf_stats
from .simulate import (
    PriceSeries,
    SimConfig,
    cev_paths,
    gbm_ensemble,
    gbm_paths,
    hedging_covariance_check,
    mc_anticipated_gain,
    rn_weights,
)
from .static_mvo import (
    FrontierConstants,
    StaticProblem,
    Weights,
    frontier_constants,
    frontier_variance,
    kkt_oracle,
    solve_static_mvo,
)
from .wealth_analysis import (
    WealthStats,
    analytic_gap,
    compare_strategies_mc,
    tc_wealth_stats,
)

__version__ = "0.1.0"
