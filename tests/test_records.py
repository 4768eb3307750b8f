"""The result records: immutable tuples whose repr, and the JSON the CLI
writes from them, follow their declared fields."""

import json

import pytest

from mvlab.backtest import WealthPath
from mvlab.cli import main
from mvlab.dynamic_policy import LatticePolicy, Policy
from mvlab.estimate import ParamEstimate
from mvlab.metrics import PerfStats
from mvlab.simulate import CovarianceSignReport, McEstimate
from mvlab.static_mvo import FrontierConstants, Weights
from mvlab.wealth_analysis import StrategyComparison, WealthStats

# each result record with its fields in declared order
RECORDS = [
    (McEstimate, ("value", "stderr", "n_steps", "absorbed")),
    (CovarianceSignReport, ("correlation", "covariance_sign", "hedging_sign", "consistent")),
    (Policy, ("myopic", "hedging")),
    (LatticePolicy, ("dt", "thetas")),
    (FrontierConstants, ("a", "b", "c")),
    (Weights, ("omega", "lambda1", "lambda2")),
    (WealthPath, ("times", "wealth", "bond", "stock_value", "week_index")),
    (ParamEstimate, ("mu_hat", "sigma_hat", "batch_start", "batch_end")),
    (PerfStats, ("terminal_return", "max_drawdown", "std_dev")),
    (WealthStats, ("mean", "variance", "value_function")),
    (StrategyComparison, ("mean_pre", "mean_tc", "gap", "gap_analytic", "gap_stderr")),
]


@pytest.fixture(scope="module")
def written_keys(tmp_path_factory):
    """The keys, in order, of each JSON file the CLI writes from a record:
    stats.json and report's for PerfStats, compare-precommit's for
    StrategyComparison."""
    out = tmp_path_factory.mktemp("cli")
    for argv in (["simulate", "--assets", "2", "--weeks", "80", "--seed", "5", "--out", "sim"],
                 ["backtest", "--input", str(out / "sim" / "prices.csv"), "--base", "10",
                  "--out", "bt"],
                 ["report", "--input", str(out / "bt" / "wealth.csv"), "--base", "10",
                  "--out", "report"],
                 ["compare-precommit", "--paths", "10000", "--out", "cmp"]):
        argv[-1] = str(out / argv[-1])
        assert main(argv) == 0

    def keys(*path):
        return list(json.loads(out.joinpath(*path).read_text()))
    return {PerfStats: [keys("bt", "stats.json"), keys("report", "report.json")],
            StrategyComparison: [keys("cmp", "compare_precommit.json")]}


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_result_record_contract(cls, fields, written_keys):
    record = cls(*range(len(fields)))
    assert cls._fields == fields
    assert repr(record) == f"{cls.__name__}({', '.join(f'{f}={i}' for i, f in enumerate(fields))})"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for keys in written_keys.get(cls, []):
        assert keys == list(record._asdict())
