import json
import os
import subprocess
import sys

import numpy as np
import pytest

import mvlab
from mvlab.cli import main, read_price_csv, read_wealth_csv, write_price_csv
from mvlab.errors import ProtocolError
from mvlab.simulate import PriceSeries


def run(args, capsys=None):
    code = main(args)
    if capsys is None:
        return code
    return code, capsys.readouterr()


class TestSimulate:
    def test_writes_prices_and_manifest(self, tmp_path):
        out = tmp_path / "sim"
        code = main(["simulate", "--assets", "3", "--weeks", "30",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        series, tickers = read_price_csv(out / "prices.csv")
        assert series.prices.shape == (31, 3)
        assert len(tickers) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["parameters"]["seed"] == 7
        assert manifest["outputs"] == ["prices.csv"]

    def test_bit_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["simulate", "--assets", "2", "--weeks", "40", "--seed", "3"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert (a / "prices.csv").read_bytes() == (b / "prices.csv").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--weeks", "30", "--seed", "1", "--out", str(a)])
        main(["simulate", "--weeks", "30", "--seed", "2", "--out", str(b)])
        assert (a / "prices.csv").read_bytes() != (b / "prices.csv").read_bytes()

    def test_zero_variance_deterministic(self, tmp_path):
        out = tmp_path / "det"
        main(["simulate", "--assets", "1", "--weeks", "52", "--variance", "0",
              "--mean", "0.1", "--s0", "1.0", "--out", str(out)])
        series, _ = read_price_csv(out / "prices.csv")
        np.testing.assert_allclose(series.prices[:, 0],
                                   np.exp(0.1 * np.arange(53) / 52), rtol=1e-12)

    def test_cev_model_runs(self, tmp_path):
        out = tmp_path / "cev"
        code = main(["simulate", "--model", "cev", "--alpha", "1.0",
                     "--assets", "2", "--weeks", "30", "--out", str(out)])
        assert code == 0
        series, _ = read_price_csv(out / "prices.csv")
        assert np.all(series.prices > 0)

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MVLAB_OUT", str(tmp_path / "envout"))
        assert main(["simulate", "--assets", "1", "--weeks", "30"]) == 0
        assert (tmp_path / "envout" / "prices.csv").exists()


class TestBacktestReport:
    @pytest.fixture
    def prices_csv(self, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--assets", "2", "--weeks", "80", "--seed", "5",
              "--out", str(out)])
        return out / "prices.csv"

    def test_backtest_outputs(self, tmp_path, prices_csv):
        out = tmp_path / "bt"
        code = main(["backtest", "--input", str(prices_csv),
                     "--strategy", "multi", "--base", "10", "--out", str(out)])
        assert code == 0
        wp = read_wealth_csv(out / "wealth.csv")
        assert wp.wealth[0] == 0.0
        assert wp.week_index[0] == 27
        stats = json.loads((out / "stats.json").read_text())
        assert set(stats) == {"terminal_return", "max_drawdown", "std_dev"}
        assert stats["max_drawdown"] <= 0.0

    def test_report_roundtrip(self, tmp_path, prices_csv, capsys):
        out = tmp_path / "bt"
        main(["backtest", "--input", str(prices_csv), "--base", "10",
              "--out", str(out)])
        stats = json.loads((out / "stats.json").read_text())
        capsys.readouterr()  # drop the path printed by the backtest command
        code = main(["report", "--input", str(out / "wealth.csv"),
                     "--base", "10"])
        assert code == 0
        reported = json.loads(capsys.readouterr().out)
        assert reported["terminal_return"] == pytest.approx(
            stats["terminal_return"], rel=1e-9)

    def test_missing_input_is_data_error(self, tmp_path):
        assert main(["backtest", "--input", str(tmp_path / "nope.csv")]) == 3

    def test_failed_input_leaves_no_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("MVLAB_OUT", raising=False)
        assert main(["backtest", "--input", str(tmp_path / "nonexistent.csv")]) == 3
        assert main(["simulate", "--assets", "2", "--corr", "2.0"]) == 4
        assert os.listdir(tmp_path) == []

    def test_readme_multi_at_50_exits_4_without_traceback(self, tmp_path):
        # The README recipe: 50 assets exceed the 26-week batch, so the
        # multi strategy inverts a ridged, ill-conditioned Sigma_hat and its
        # backtest fails; the failure is a numerical error, not a crash.
        env = {**os.environ,
               "PYTHONPATH": os.path.dirname(os.path.dirname(mvlab.__file__))}
        def mvlab_cli(*argv):
            return subprocess.run([sys.executable, "-m", "mvlab.cli", *argv], cwd=tmp_path,
                                  env=env, capture_output=True, text=True, timeout=120)
        assert mvlab_cli("simulate", "--model", "gbm", "--assets", "50", "--weeks", "523",
                         "--seed", "0", "--out", "panel").returncode == 0
        proc = mvlab_cli("backtest", "--input", "panel/prices.csv", "--strategy", "multi",
                         "--base", "10", "--out", "bt")
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not (tmp_path / "bt").exists()

    def test_short_input_is_data_error(self, tmp_path):
        out = tmp_path / "tiny"
        main(["simulate", "--assets", "1", "--weeks", "10", "--out", str(out)])
        assert main(["backtest", "--input", str(out / "prices.csv")]) == 3


class TestMvo:
    def test_inline_instance(self, capsys):
        code = main(["mvo", "--mu", "0.1,0.2", "--sigma", "1,0;0,1",
                     "--target", "0.15"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(result["omega"], [0.5, 0.5], atol=1e-12)
        assert result["variance"] == pytest.approx(0.5)
        assert result["kkt_residual"] < 1e-10

    def test_indefinite_sigma_is_numerical_error(self):
        assert main(["mvo", "--mu", "0.1,0.2", "--sigma", "1,2;2,1"]) == 4

    def test_missing_inputs_is_data_error(self):
        assert main(["mvo", "--target", "0.1"]) == 3

    def test_output_dir_mode(self, tmp_path):
        out = tmp_path / "mvo"
        code = main(["mvo", "--mu", "0.1,0.2", "--sigma", "1,0;0,1",
                     "--target", "0.15", "--out", str(out)])
        assert code == 0
        assert (out / "mvo.json").exists()
        assert (out / "manifest.json").exists()


class TestPolicy:
    def test_simple(self, capsys):
        code = main(["policy", "--type", "simple", "--mu", "0.125",
                     "--sigma", "0.4472135954999579", "--rate", "0.025",
                     "--horizon", "10", "--time", "10"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["theta"][0] == pytest.approx(0.5, rel=1e-6)
        assert result["hedging"] == [0.0]

    def test_cev(self, capsys):
        code = main(["policy", "--type", "cev", "--mu", "0.125",
                     "--sigma-bar", "0.2", "--alpha", "1.0", "--price", "1.0",
                     "--horizon", "1", "--time", "0"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["theta"][0] == pytest.approx(
            result["myopic"][0] + result["hedging"][0], rel=1e-12)
        assert result["hedging"][0] > 0

    def test_time_beyond_horizon_is_numerical_error(self):
        assert main(["policy", "--mu", "0.1", "--sigma", "0.2",
                     "--horizon", "1", "--time", "2"]) == 4


class TestComparePrecommit:
    def test_gap_fields(self, capsys):
        code = main(["compare-precommit", "--horizon", "1", "--paths", "20000",
                     "--seed", "4"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["gap"] > 0
        assert abs(result["gap"] - result["gap_analytic"]) \
            <= 4 * result["gap_stderr"]


class TestPlumbing:
    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--model", "heston"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "--assets", "abc"],
        ["simulate", "--weeks", "2.5"],
        ["backtest", "--input", "p.csv", "--target", "high"],
        ["compare-precommit", "--paths", "many"],
    ])
    def test_non_numeric_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid" in capsys.readouterr().err

    def test_config_value_goes_through_flag_type(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("assets=abc\n")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_no_command_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("key", ["batch_len", "batch-len"])
    def test_config_key_spellings_set_the_flag(self, tmp_path, key):
        main(["simulate", "--assets", "2", "--weeks", "80", "--seed", "5",
              "--out", str(tmp_path / "sim")])
        cfg = tmp_path / "bt.cfg"
        cfg.write_text(f"{key}=30\n")
        out = tmp_path / "bt"
        assert main(["backtest", "--input", str(tmp_path / "sim" / "prices.csv"),
                     "--base", "10", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["batch_len"] == 30

    def test_config_file_defaults_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("weeks=40\nseed=9\nassets=2\n")
        out = tmp_path / "o"
        code = main(["simulate", "--config", str(cfg), "--weeks", "30",
                     "--out", str(out)])
        assert code == 0
        series, _ = read_price_csv(out / "prices.csv")
        assert series.prices.shape == (31, 2)  # flag beat config for weeks
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["seed"] == 9

    def test_price_csv_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        prices = np.exp(rng.normal(0, 0.2, size=(20, 3)))
        series = PriceSeries(times=np.arange(20) / 52, prices=prices)
        path = tmp_path / "p.csv"
        write_price_csv(path, series, tickers=["X", "Y", "Z"])
        back, tickers = read_price_csv(path)
        assert tickers == ["X", "Y", "Z"]
        np.testing.assert_array_equal(back.prices, prices)

    def test_malformed_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,A\n2007-10-29,1.0,2.0\n")
        assert main(["backtest", "--input", str(bad)]) == 3

    @pytest.mark.parametrize("rows, what", [
        (["2007-10-29", "2007-11-05", "2007-11-13"], "8 days after 2007-11-05"),
        (["2007-10-29", "2007-10-29"], "0 days after"),
        (["2007-10-29", "2007-11-5"], "bad date '2007-11-5'"),
        (["week1", "week2"], "bad date 'week1'"),
    ])
    def test_dates_must_be_weekly_iso(self, tmp_path, capsys, rows, what):
        path = tmp_path / "p.csv"
        path.write_text("date,A\n" + "".join(f"{d},1.0\n" for d in rows))
        with pytest.raises(ProtocolError, match=what):
            read_price_csv(path)
        code, cap = run(["backtest", "--input", str(path)], capsys)
        assert code == 3
        assert cap.err.startswith("error: ") and cap.err.count("\n") == 1

    def test_nan_price_is_data_error(self, tmp_path, capsys):
        # the CSV reader parses 'nan'; the returns reject it naming the row
        path = tmp_path / "p.csv"
        prices = np.exp(np.random.default_rng(0).normal(0, 0.02, size=(60, 2)))
        write_price_csv(path, PriceSeries(times=np.arange(60) / 52, prices=prices))
        lines = path.read_text().splitlines()
        lines[31] = lines[31].split(",")[0] + ",nan,1.0"
        path.write_text("\n".join(lines) + "\n")
        code, cap = run(["backtest", "--input", str(path)], capsys)
        assert code == 3
        assert cap.err == "error: price nan at row 30 is not positive and finite\n"

    def test_missing_header_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\n")
        assert main(["backtest", "--input", str(bad)]) == 3


WEALTH_HEADER = "week_index,time_years,wealth,bond,stock_value\n"


@pytest.mark.parametrize("files, argv, code", [
    pytest.param({"c.cfg": "assets=3\nweeks\n"}, ["simulate", "--config", "c.cfg"], 2,
                 id="config-line-without-equals"),
    pytest.param({"c.cfg": "seeds=3\n"}, ["simulate", "--config", "c.cfg"], 2,
                 id="config-unknown-key"),
    pytest.param({"c.cfg": "model=heston\n"}, ["simulate", "--config", "c.cfg"], 2,
                 id="config-model-not-a-choice"),
    pytest.param({"c.cfg": "strategy=bogus\n"},
                 ["backtest", "--input", "p.csv", "--config", "c.cfg"], 2,
                 id="config-strategy-not-a-choice"),
    pytest.param({"w.csv": "date,A000\n2007-10-29,100\n"}, ["report", "--input", "w.csv"], 3,
                 id="report-on-price-csv"),
    pytest.param({"w.csv": ""}, ["report", "--input", "w.csv"], 3, id="report-empty-file"),
    pytest.param({"w.csv": WEALTH_HEADER}, ["report", "--input", "w.csv"], 3,
                 id="report-header-only"),
    pytest.param({"w.csv": WEALTH_HEADER + "27,0.5,abc,0,0\n"}, ["report", "--input", "w.csv"],
                 3, id="report-non-numeric-wealth"),
    pytest.param({"w.csv": WEALTH_HEADER + "27,0.5,0,0,0\n28,0.52,nan,0,0\n"},
                 ["report", "--input", "w.csv"], 4, id="report-nan-wealth"),
    pytest.param({}, ["simulate", "--variance", "-0.1", "--assets", "2", "--weeks", "30"], 3,
                 id="simulate-negative-variance"),
    pytest.param({}, ["policy", "--mu", "0.1"], 3, id="policy-without-sigma"),
    pytest.param({}, ["policy", "--type", "cev", "--mu", "0.1"], 3,
                 id="policy-cev-without-sigma-bar"),
])
def test_bad_input_exits_with_one_error_line(tmp_path, monkeypatch, capsys, files, argv, code):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    try:
        got = main(argv)  # an exception escaping here would be a traceback
    except SystemExit as exc:
        got = exc.code
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert got == code
    assert "Traceback" not in err
    assert [ln for ln in lines if "error: " in ln] == lines[-1:]
    assert len(lines) == 1 or code == 2  # argparse prints its usage first
    assert os.listdir(tmp_path) == sorted(files)
