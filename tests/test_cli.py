import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mvlab
from mvlab.backtest import STRATEGIES
from mvlab.cli import main, read_price_csv, read_wealth_csv, write_price_csv
from mvlab.errors import DataError, ProtocolError, WarmupError
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
        series = read_price_csv(out / "prices.csv")
        assert series.prices.shape == (31, 3)
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
        series = read_price_csv(out / "prices.csv")
        np.testing.assert_allclose(series.prices[:, 0],
                                   np.exp(0.1 * np.arange(53) / 52), rtol=1e-12)
        # CEV at zero variance is the Euler drift alone, whatever the seed
        for seed in ("1", "2"):
            main(["simulate", "--model", "cev", "--assets", "2", "--weeks", "52",
                  "--variance", "0", "--mean", "0.1", "--s0", "1.0", "--seed", seed,
                  "--out", str(out / seed)])
        cev = read_price_csv(out / "1" / "prices.csv").prices
        assert np.array_equal(cev, read_price_csv(out / "2" / "prices.csv").prices)
        np.testing.assert_allclose(cev[:, 1], (1 + 0.1 / 52) ** np.arange(53), rtol=1e-12)

    @pytest.mark.parametrize("corr", ["1", "-0.5"])
    def test_correlation_at_its_bounds_runs(self, tmp_path, corr):
        # the equicorrelation matrix of 3 assets is singular at 1 and -1/2,
        # where the GBM loading comes from its eigendecomposition
        for model in ("gbm", "cev"):
            out = tmp_path / model
            assert main(["simulate", "--model", model, "--corr", corr, "--assets", "3",
                         "--weeks", "30", "--out", str(out)]) == 0
            assert np.all(read_price_csv(out / "prices.csv").prices > 0)

    def test_cev_model_runs(self, tmp_path):
        out = tmp_path / "cev"
        code = main(["simulate", "--model", "cev", "--alpha", "1.0",
                     "--assets", "2", "--weeks", "30", "--out", str(out)])
        assert code == 0
        series = read_price_csv(out / "prices.csv")
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
        assert main(["simulate", "--assets", "2", "--corr", "2.0"]) == 3
        assert os.listdir(tmp_path) == []

    def test_readme_multi_at_50_exits_4_without_traceback(self, tmp_path):
        # The multi-at-50 recipe: 50 assets exceed the 26-week batch, so the
        # multi strategy inverts a ridged, ill-conditioned Sigma_hat, the
        # bond account swings past the base and perf_stats rejects the
        # equity curve; the failure is a numerical error, not a crash.
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
        assert lines == ["error: equity curve crosses zero; increase the base"]
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

    def test_degenerate_frontier_names_the_bound_it_failed(self, tmp_path, capsys):
        # two zero-variance assets estimate the same returns: a*c - b^2 is
        # rounding noise, a positive number below 1e-12 |a*c|
        out = tmp_path / "flat"
        main(["simulate", "--assets", "2", "--weeks", "40", "--variance", "0",
              "--out", str(out)])
        capsys.readouterr()
        assert main(["mvo", "--input", str(out / "prices.csv")]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "error: degenerate frontier: a*c - b^2 = 1.115e+43 is not above "
            "1e-12 |a*c| = 3.009e+46"]

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

    def test_cev_one_price_applies_to_every_asset(self, capsys):
        # the flag's default, 1.0, has one entry; --mu has two
        argv = ["policy", "--type", "cev", "--mu", "0.1,0.12", "--sigma-bar", "0.2,0.2"]
        assert main(argv) == 0
        theta = json.loads(capsys.readouterr().out)["theta"]
        c = mvlab.CevParams(mu=[0.1, 0.12], sigma_bar=[0.2, 0.2], alpha=np.full(2, 0.0),
                            corr=np.eye(2), r=0.025, T=10.0, gamma=1.0)
        assert theta == list(mvlab.cev_policy(c, [1.0, 1.0], 0.0).theta)
        thetas = []
        for price in ("1.2", "1.2,1.2"):
            assert main([*argv, "--alpha", "1", "--price", price]) == 0
            thetas.append(json.loads(capsys.readouterr().out)["theta"])
        assert thetas[0] == thetas[1]

    def test_simple_and_multi_print_the_same(self, capsys):
        argv = ["--mu", "0.1,0.14", "--sigma", "0.3,0;0.1,0.25", "--gamma", "3"]
        assert main(["policy", "--type", "simple", *argv]) == 0
        simple = capsys.readouterr().out
        assert main(["policy", "--type", "multi", *argv]) == 0
        assert capsys.readouterr().out == simple
        assert len(json.loads(simple)["theta"]) == 2

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

    @pytest.mark.parametrize("flags", [["--mu", "3"], ["--mu", "3.5", "--gamma", "0.1"],
                                       ["--mu", "3.78"]], ids=["mu-3", "mu-3.5-gamma", "mu-3.78"])
    def test_exponent_below_its_bound_gives_finite_statistics(self, flags, capsys):
        # kappa^2 T = 442, 604 and 705: the samples are finite, and so must
        # be their means and standard error, whose sums and squares overflowed
        code = main(["compare-precommit", *flags, "--paths", "10000"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert np.all(np.isfinite(list(json.loads(captured.out).values())))

    def test_tiny_gamma_gives_finite_statistics(self, capsys):
        # kappa^2 T - log gamma = 709.70, below its bound: the fields are
        # about 1e307, and the samples, which carry no 1/gamma, stay small
        code = main(["compare-precommit", "--gamma", "1e-308", "--paths", "10000"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        result = json.loads(captured.out)
        assert np.all(np.isfinite(list(result.values())))
        assert abs(result["gap"] - result["gap_analytic"]) <= 5 * result["gap_stderr"]


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
        series = read_price_csv(out / "prices.csv")
        assert series.prices.shape == (31, 2)  # flag beat config for weeks
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["seed"] == 9

    @pytest.mark.parametrize("prices, header", [
        pytest.param(np.exp(np.random.default_rng(0).normal(0, 0.2, size=(20, 3))),
                     "date,A000,A001,A002", id="three-assets"),
        pytest.param(np.exp(np.random.default_rng(1).normal(0, 0.2, size=(20, 1))),
                     "date,A000", id="one-asset"),
        # the smallest subnormal, tiny, the Euler floor, a sum that is not
        # 0.3, the largest float and 1 + 2^-52, which needs 17 digits
        pytest.param(np.array([[5e-324, 1e-300, 1e-6],
                               [0.1 + 0.2, 1.7976931348623157e308, np.nextafter(1.0, 2.0)]]),
                     "date,A000,A001,A002", id="extremes"),
    ])
    def test_price_csv_roundtrip_exact(self, tmp_path, prices, header):
        path = tmp_path / "p.csv"
        write_price_csv(path, PriceSeries(prices=prices))
        np.testing.assert_array_equal(read_price_csv(path).prices, prices)
        # the whole text: ISO dates 7 days apart from 2007-10-29, then each
        # price as %.17g
        days = np.datetime64("2007-10-29") + 7 * np.arange(len(prices))
        rows = [f"{day}," + ",".join("%.17g" % x for x in row)
                for day, row in zip(days, prices.tolist())]
        assert path.read_text() == "\n".join([header, *rows]) + "\n"

    def test_csvs_and_config_with_a_byte_order_mark_read_as_without(self, tmp_path):
        # spreadsheets save UTF-8 text with a leading byte-order mark
        sim, bt = tmp_path / "sim", tmp_path / "bt"
        assert main(["simulate", "--assets", "2", "--weeks", "80", "--seed", "5",
                     "--out", str(sim)]) == 0
        assert main(["backtest", "--input", str(sim / "prices.csv"), "--base", "10",
                     "--out", str(bt)]) == 0

        def with_bom(path):
            marked = path.with_name("bom-" + path.name)
            marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            return marked

        np.testing.assert_array_equal(read_price_csv(with_bom(sim / "prices.csv")).prices,
                                      read_price_csv(sim / "prices.csv").prices)
        np.testing.assert_array_equal(np.array(read_wealth_csv(with_bom(bt / "wealth.csv"))),
                                      np.array(read_wealth_csv(bt / "wealth.csv")))
        cfg = tmp_path / "c.cfg"
        cfg.write_text("assets=3\n")
        assert main(["simulate", "--config", str(with_bom(cfg)), "--weeks", "5",
                     "--out", str(tmp_path / "o")]) == 0
        assert read_price_csv(tmp_path / "o" / "prices.csv").prices.shape == (6, 3)

    @pytest.mark.parametrize("command", ["backtest", "report"])
    def test_csv_that_is_not_utf8_is_data_error_naming_it(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.csv"
        path.write_bytes("date,Pr\xe9x\n2007-10-29,1.0\n".encode("latin-1"))
        code, cap = run([command, "--input", str(path), "--out", str(tmp_path / "o")], capsys)
        assert code == 3
        assert cap.err == f"error: {path}: not UTF-8 text (invalid continuation byte)\n"
        assert not (tmp_path / "o").exists()

    def test_config_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("# caf\xe9\nassets=2\n".encode("latin-1"))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert (f"error: cannot read config {cfg}: 'utf-8' codec can't decode byte 0xe9"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_warmup_and_protocol_errors_exit_3_as_data_errors(self):
        assert issubclass(WarmupError, DataError) and issubclass(ProtocolError, DataError)

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
        write_price_csv(path, PriceSeries(prices=prices))
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


def panel_csv(weeks=60, n_assets=3, seed=0):
    """The text of a price CSV of a seeded random walk, one row a week."""
    days = np.datetime64("2007-10-29") + 7 * np.arange(weeks)
    steps = np.random.default_rng(seed).normal(0.002, 0.03, (weeks, n_assets))
    rows = [f"{day}," + ",".join(map(repr, p))
            for day, p in zip(days, np.exp(np.cumsum(steps, axis=0)).tolist())]
    header = "date," + ",".join(f"A{i}" for i in range(n_assets))
    return "\n".join([header, *rows]) + "\n"


@pytest.mark.parametrize("files, argv, code, said", [
    pytest.param({"c.cfg": "assets=3\nweeks\n"}, ["simulate", "--config", "c.cfg"], 2,
                 "c.cfg:2: expected key=value", id="config-line-without-equals"),
    pytest.param({"c.cfg": "seeds=3\n"}, ["simulate", "--config", "c.cfg"], 2,
                 "unrecognized arguments: --seeds=3", id="config-unknown-key"),
    pytest.param({"c.cfg": "see=4\n"}, ["simulate", "--config", "c.cfg"], 2,
                 "unrecognized arguments: --see=4", id="config-key-prefix-of-a-flag"),
    pytest.param({}, ["simulate", "--see", "4"], 2,
                 "unrecognized arguments: --see 4", id="flag-prefix"),
    pytest.param({"c.cfg": "model=heston\n"}, ["simulate", "--config", "c.cfg"], 2,
                 "invalid choice: 'heston'", id="config-model-not-a-choice"),
    pytest.param({"c.cfg": "strategy=bogus\n"},
                 ["backtest", "--input", "p.csv", "--config", "c.cfg"], 2,
                 "invalid choice: 'bogus'", id="config-strategy-not-a-choice"),
    pytest.param({"w.csv": "date,A000\n2007-10-29,100\n"}, ["report", "--input", "w.csv"], 3,
                 "w.csv: expected the header", id="report-on-price-csv"),
    pytest.param({"w.csv": ""}, ["report", "--input", "w.csv"], 3,
                 "w.csv: expected the header", id="report-empty-file"),
    pytest.param({"w.csv": WEALTH_HEADER}, ["report", "--input", "w.csv"], 3,
                 "w.csv: no rows", id="report-header-only"),
    pytest.param({"w.csv": WEALTH_HEADER + "27,0.5,abc,0,0\n"}, ["report", "--input", "w.csv"],
                 3, "w.csv:2: could not convert", id="report-non-numeric-wealth"),
    # line 2 is blank: the error names the file's line, not the data row
    pytest.param({"w.csv": WEALTH_HEADER + "\n27,0.5,abc,0,0\n"},
                 ["report", "--input", "w.csv"], 3, "w.csv:3: could not convert",
                 id="report-bad-field-after-blank-line"),
    pytest.param({"w.csv": WEALTH_HEADER + "27,0.5,0,0\n"}, ["report", "--input", "w.csv"],
                 3, "w.csv:2: expected 5 fields", id="report-short-row"),
    pytest.param({"p.csv": "date,A\n\n2007-10-29,1.0\n2007-11-05,x\n"},
                 ["backtest", "--input", "p.csv"], 3, "p.csv:4: could not convert",
                 id="backtest-bad-price-after-blank-line"),
    pytest.param({"w.csv": WEALTH_HEADER + "27,0.5,0,0,0\n28,0.52,nan,0,0\n"},
                 ["report", "--input", "w.csv"], 4, "wealth nan", id="report-nan-wealth"),
    pytest.param({}, ["simulate", "--variance", "-0.1", "--assets", "2", "--weeks", "30"], 3,
                 "variance -0.1 is negative", id="simulate-negative-variance"),
    pytest.param({}, ["policy", "--mu", "0.1"], 3, "needs --sigma", id="policy-without-sigma"),
    pytest.param({}, ["policy", "--type", "cev", "--mu", "0.1"], 3, "needs --sigma-bar",
                 id="policy-cev-without-sigma-bar"),
    pytest.param({}, ["mvo", "--mu", "0.1,0.2", "--target", "0.1"], 3,
                 "provide either --input or both --mu and --sigma", id="mvo-without-sigma"),
    # every vector and matrix flag, on the command line or as a config key,
    # parses to finite entries in rows of one length
    pytest.param({}, ["policy", "--mu", "nan", "--sigma", "0.4", "--out", "o"], 2,
                 "argument --mu: 'nan' has an entry that is not a finite number",
                 id="policy-nan-mu"),
    pytest.param({}, ["policy", "--mu", "0.1", "--sigma", "nan", "--out", "o"], 2,
                 "argument --sigma: 'nan' has an entry that is not a finite number",
                 id="policy-nan-sigma"),
    pytest.param({}, ["policy", "--type", "cev", "--mu", "0.1", "--sigma-bar", "0.2",
                      "--corr", "nan", "--out", "o"], 2,
                 "argument --corr: 'nan' has an entry that is not a finite number",
                 id="policy-cev-nan-corr"),
    pytest.param({"c.cfg": "sigma=1,0;0\n"}, ["mvo", "--mu", "0.1,0.2", "--config", "c.cfg"], 2,
                 "argument --sigma: invalid matrix value: '1,0;0'", id="config-ragged-sigma"),
    # every float flag, on the command line or as a config key, is a finite float
    pytest.param({}, ["policy", "--mu", "0.1", "--sigma", "0.4", "--time", "nan",
                      "--out", "o"], 2, "argument --time: 'nan' is not a finite number",
                 id="policy-nan-time"),
    pytest.param({}, ["simulate", "--mean", "nan", "--assets", "2", "--weeks", "5"], 2,
                 "argument --mean: 'nan' is not a finite number", id="simulate-nan-mean"),
    pytest.param({}, ["simulate", "--variance", "inf", "--assets", "2", "--weeks", "5"], 2,
                 "argument --variance: 'inf' is not a finite number",
                 id="simulate-gbm-inf-variance"),
    pytest.param({}, ["simulate", "--model", "cev", "--variance", "inf", "--assets", "2",
                      "--weeks", "5"], 2, "argument --variance: 'inf' is not a finite number",
                 id="simulate-cev-inf-variance"),
    pytest.param({}, ["simulate", "--model", "cev", "--variance", "nan", "--assets", "2",
                      "--weeks", "5"], 2, "argument --variance: 'nan' is not a finite number",
                 id="simulate-cev-nan-variance"),
    pytest.param({}, ["simulate", "--s0", "inf", "--assets", "2", "--weeks", "5"], 2,
                 "argument --s0: 'inf' is not a finite number", id="simulate-inf-s0"),
    pytest.param({}, ["mvo", "--mu", "0.1,0.2", "--sigma", "1,0;0,1", "--target", "nan"], 2,
                 "argument --target: 'nan' is not a finite number", id="mvo-nan-target"),
    pytest.param({}, ["compare-precommit", "--w0", "nan", "--paths", "1000"], 2,
                 "argument --w0: 'nan' is not a finite number", id="compare-precommit-nan-w0"),
    *[pytest.param({"p.csv": "date,A\n2007-10-29,1.0\n"},
                   ["backtest", "--input", "p.csv", f"--{flag}={value}"], 2,
                   f"argument --{flag}: '{value}' is not a finite number",
                   id=f"backtest-{value}-{flag}")
      for flag, value in [("rate", "nan"), ("gamma", "nan"), ("target", "nan"),
                          ("alpha", "nan"), ("notional", "inf"), ("base", "-inf")]],
    pytest.param({"p.csv": "date,A\n2007-10-29,1.0\n", "c.cfg": "target=nan\n"},
                 ["backtest", "--input", "p.csv", "--config", "c.cfg"], 2,
                 "argument --target: 'nan' is not a finite number", id="config-nan-target"),
    pytest.param({"c.cfg": "s0=inf\n"}, ["simulate", "--config", "c.cfg"], 2,
                 "argument --s0: 'inf' is not a finite number", id="config-inf-s0"),
    pytest.param({}, ["simulate", "--assets", "0", "--weeks", "5"], 2,
                 "argument --assets: '0' is below 1", id="simulate-no-assets"),
    pytest.param({}, ["simulate", "--assets", "-1", "--weeks", "5"], 2,
                 "argument --assets: '-1' is below 1", id="simulate-negative-assets"),
    pytest.param({}, ["simulate", "--assets", "2", "--weeks", "0"], 2,
                 "argument --weeks: '0' is below 1", id="simulate-no-weeks"),
    pytest.param({}, ["simulate", "--config", "missing.cfg"], 2,
                 "cannot read config missing.cfg", id="config-unreadable"),
    pytest.param({"p.csv": "date\n2007-10-29\n"}, ["backtest", "--input", "p.csv"], 3,
                 "p.csv: no asset columns", id="backtest-date-column-only"),
    pytest.param({}, ["compare-precommit", "--paths", "0"], 2,
                 "argument --paths: '0' is below 10000", id="compare-precommit-no-paths"),
    # a count below the library's own minimum is a usage error naming the flag
    pytest.param({}, ["compare-precommit", "--paths", "50"], 2,
                 "argument --paths: '50' is below 10000", id="compare-precommit-few-paths"),
    # a size above the entry cap is refused before anything is allocated
    pytest.param({}, ["simulate", "--weeks", "100000000", "--assets", "1000"], 4,
                 "price panel of 100000001000 entries exceeds limit 134217728",
                 id="simulate-panel-above-cap"),
    pytest.param({}, ["simulate", "--weeks", "1", "--assets", "1000000"], 4,
                 "correlation matrix of 1000000000000 entries exceeds limit 134217728",
                 id="simulate-correlation-above-cap"),
    pytest.param({}, ["compare-precommit", "--paths", "1000000000000", "--out", "o"], 4,
                 "paths of 1000000000000 entries exceeds limit 134217728",
                 id="compare-precommit-paths-above-cap"),
    *[pytest.param({}, ["simulate", "--model", model, "--corr", "2", "--assets", "3",
                        "--weeks", "5"], 3, "--corr 2.0 is outside [-0.5, 1] for 3 assets",
                   id=f"simulate-{model}-corr-above-1") for model in ("gbm", "cev")],
    pytest.param({}, ["simulate", "--corr", "-0.6", "--assets", "3", "--weeks", "5"], 3,
                 "--corr -0.6 is outside [-0.5, 1]", id="simulate-corr-below-bound"),
    pytest.param({}, ["compare-precommit", "--sigma", "0", "--paths", "10000", "--out", "o"],
                 4, "zero-volatility market", id="compare-precommit-zero-sigma"),
    # a finite flag whose arithmetic overflows or divides by zero
    pytest.param({"p.csv": panel_csv()}, ["backtest", "--input", "p.csv", "--notional", "1e308",
                                          "--strategy", "static", "--out", "o"],
                 4, "overflow encountered", id="backtest-overflowing-notional"),
    pytest.param({}, ["mvo", "--mu", "0.1,0.2", "--sigma", "1,0;0,1", "--target", "1e308"], 4,
                 "overflow encountered", id="mvo-overflowing-target"),
    # the target's square overflows in the frontier variance, a Python float
    *[pytest.param({}, ["mvo", "--mu", "0.1,0.2", "--sigma", "1,0;0,1", "--target", "1e155",
                        *out], 4, "error: frontier variance inf at target 1e+155 is out of range",
                   id=f"mvo-overflowing-variance{name}")
      for name, out in [("", []), ("-out", ["--out", "o"])]],
    # a covariance LAPACK cannot factorise, and one with a pivot below the
    # floor 1e-12 of its largest diagonal entry, which is named
    pytest.param({}, ["mvo", "--mu", "0.1,0.2", "--sigma", "1,2;2,1"], 4,
                 "error: covariance not positive definite", id="mvo-indefinite-sigma"),
    pytest.param({}, ["mvo", "--mu", "0.1,0.2", "--sigma", "1,0;0,1e-13"], 4,
                 "error: covariance not positive definite: pivot 1 = 1.000e-13 (floor 1.000e-12)",
                 id="mvo-pivot-below-floor"),
    # a*c beyond the float range: it overflows at Sigma x 1e-160, and at
    # Sigma x 1e160 it is subnormal, where a*c - b^2 cannot be judged
    pytest.param({}, ["mvo", "--mu", "0.1,0.2,0.15", "--sigma",
                      "1e-160,0,0;0,2e-160,0;0,0,3e-160", "--target", "0.15"], 4,
                 "error: degenerate frontier: a*c - b^2 = nan",
                 id="mvo-overflowing-discriminant"),
    pytest.param({}, ["mvo", "--mu", "0.1,0.2,0.15", "--sigma",
                      "1e160,0,0;0,2e160,0;0,0,3e160", "--target", "0.15"], 4,
                 "error: degenerate frontier: a*c = 6.868e-322 is below the normal float range",
                 id="mvo-subnormal-discriminant"),
    # S0^(alpha/2), which scales --variance to the CEV sigma_bar, must be a
    # normal float
    pytest.param({}, ["simulate", "--model", "cev", "--s0", "1e-300", "--alpha", "5",
                      "--assets", "2", "--weeks", "5"], 4,
                 "error: price power S0^(alpha/2) out of range at --s0 1e-300, --alpha 5",
                 id="simulate-cev-underflowing-s0"),
    *[pytest.param({}, ["simulate", "--model", "cev", "--alpha", alpha], 4,
                   f"error: price power S0^(alpha/2) out of range at --s0 100, --alpha {said}",
                   id=f"simulate-cev-overflowing-alpha-{alpha}")
      for alpha, said in [("400", "400"), ("1e155", "1e+155"), ("1e308", "1e+308")]],
    pytest.param({}, ["simulate", "--model", "cev", "--alpha", "-400", "--assets", "2",
                      "--weeks", "3"], 4,
                 "error: price power S0^(alpha/2) out of range at --s0 100, --alpha -400",
                 id="simulate-cev-underflowing-alpha"),
    # an exponent of the precommitment wealth beyond the float range of e^x
    # is refused before the draw, naming it
    *[pytest.param({}, ["compare-precommit", *flags, "--out", "o"], 4, said,
                   id=f"compare-precommit-overflowing-{name}")
      for name, flags, said in [
          ("mu", ["--mu", "1e155"], "kappa^2 T = ((mu - r)/sigma)^2 T = inf is beyond 709.78"),
          ("rate", ["--rate", "1e155"], "kappa^2 T = ((mu - r)/sigma)^2 T = inf is beyond"),
          ("sigma", ["--sigma", "1e-160"], "kappa^2 T = ((mu - r)/sigma)^2 T = inf is beyond"),
          ("mu-10", ["--mu", "10"], "kappa^2 T = ((mu - r)/sigma)^2 T = 4975.03 is beyond"),
          ("horizon", ["--horizon", "1e300"], "kappa^2 T = ((mu - r)/sigma)^2 T = 5e+298 is"),
          ("rate-100", ["--rate", "100", "--mu", "100.1"], "r T = 1000 is beyond 709.78"),
          ("gamma-over-mu", ["--mu", "3.79", "--gamma", "0.1", "--paths", "10000"],
           "kappa^2 T - log gamma = 711.064 is beyond 709.78"),
          ("gamma", ["--gamma", "1e-310", "--paths", "10000"],
           "kappa^2 T - log gamma = 714.301 is beyond 709.78"),
          ("w0", ["--w0", "1e308", "--rate", "0.1", "--paths", "10000"],
           "r T + log |W0| = 710.196 is beyond 709.78")]],
    # below every exponent bound, a result field overflows after the draw;
    # the error names the first one
    *[pytest.param({}, ["compare-precommit", *flags, "--paths", "10000", "--out", "o"], 4,
                   f"error: {said} = inf is beyond the float range",
                   id=f"compare-precommit-overflowing-sample-{name}")
      for name, flags, said in [
          ("w0-gamma", ["--w0", "1e308", "--gamma", "1e-308"], "mean_pre")]],
    # array flags whose shapes disagree with --mu are a data error naming both
    *[pytest.param({}, [*argv, "--out", "o"], 3, said, id=name) for name, argv, said in [
        ("policy-sigma-shape", ["policy", "--mu", "0.1,0.2", "--sigma", "0.3"],
         "--sigma has shape (1, 1); --mu of length 2 needs (2, 2)"),
        ("mvo-sigma-shape", ["mvo", "--mu", "0.1", "--sigma", "1,2"],
         "--sigma has shape (1, 2); --mu of length 1 needs (1, 1)"),
        ("policy-cev-sigma-bar-shape", ["policy", "--type", "cev", "--mu", "0.1,0.2",
                                        "--sigma-bar", "0.2"],
         "--sigma-bar has shape (1,); --mu of length 2 needs (2,)"),
        ("policy-cev-price-shape", ["policy", "--type", "cev", "--mu", "0.1", "--sigma-bar",
                                    "0.2", "--price", "1,2"],
         "--price has shape (2,); --mu of length 1 needs (1,)"),
        ("policy-cev-corr-shape", ["policy", "--type", "cev", "--mu", "0.1,0.2", "--sigma-bar",
                                   "0.2,0.2", "--corr", "1,0;0,1;0,0"],
         "--corr has shape (3, 2); --mu of length 2 needs (2, 2)")]],
])
def test_bad_input_exits_with_one_error_line(tmp_path, monkeypatch, capsys, files, argv, code,
                                             said):
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
    assert said in lines[-1]
    assert len(lines) == 1 or code == 2  # argparse prints its usage first
    assert os.listdir(tmp_path) == sorted(files)


# --------------------------------------------------- usage-error contract
#
# A flag that takes numbers exits 2, naming the flag on its `error:` line,
# when its value does not parse, holds a NaN or an infinity, has rows of
# different lengths, or is a count below the flag's minimum.

_BAD_NUMBER = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "", "0x10", "1..2"]),
    st.text("abcxyz_ ", min_size=1))
_FINITE = st.floats(-10.0, 10.0).map(repr)
_BAD_VECTOR = st.builds(lambda xs, bad, k: ",".join(xs[:k] + [bad] + xs[k:]),
                        st.lists(_FINITE, max_size=3), _BAD_NUMBER, st.integers(0, 3))
_ROW = st.lists(_FINITE, min_size=1, max_size=3).map(",".join)
_BAD_MATRIX = st.one_of(
    st.builds(lambda rows, bad, k: ";".join(rows[:k] + [bad] + rows[k:]),
              st.lists(_ROW, max_size=2), _BAD_VECTOR, st.integers(0, 2)),
    st.tuples(st.integers(1, 3), st.integers(1, 3)).filter(lambda nm: nm[0] != nm[1])
    .map(lambda nm: ";".join(",".join(["0.5"] * k) for k in nm)))
_BAD_VALUES = {"float": _BAD_NUMBER, "vector": _BAD_VECTOR, "matrix": _BAD_MATRIX,
               "loading": st.one_of(_BAD_VECTOR, _BAD_MATRIX)}

def _floats(*flags):
    return dict.fromkeys(flags, "float")


# each flag that takes numbers: its kind, or for a count its minimum
_NUMERIC_FLAGS = {
    "simulate": {"--assets": 1, "--weeks": 1, "--seed": 0,
                 **_floats("--mean", "--variance", "--corr", "--alpha", "--rate", "--s0")},
    "backtest": {"--batch-len": 2,
                 **_floats("--target", "--alpha", "--gamma", "--rate", "--notional", "--base")},
    "mvo": {"--mu": "vector", "--sigma": "matrix", "--target": "float"},
    "policy": {"--mu": "vector", "--sigma": "loading", "--sigma-bar": "vector",
               "--corr": "matrix", "--price": "vector",
               **_floats("--alpha", "--rate", "--horizon", "--time", "--gamma")},
    "compare-precommit": {"--paths": 10_000, "--seed": 0,
                          **_floats("--mu", "--sigma", "--rate", "--horizon", "--gamma", "--w0")},
    "report": {"--base": "float"},
}
# valid flags each argv starts from: the required ones, and small sizes, so
# that a tree which lets the bad value through runs briefly
_BASE = {"simulate": {"--assets": "1", "--weeks": "1"}, "backtest": {"--input": "p.csv"},
         "mvo": {"--mu": "0.1", "--sigma": "1"}, "policy": {"--mu": "0.1", "--sigma": "0.4"},
         "compare-precommit": {"--paths": "10000"}, "report": {"--input": "w.csv"}}


@pytest.mark.parametrize("command, flag, kind", [
    pytest.param(command, flag, kind, id=f"{command}{flag}")
    for command, flags in _NUMERIC_FLAGS.items() for flag, kind in flags.items()])
def test_bad_number_is_a_usage_error_naming_the_flag(tmp_path, monkeypatch, capsys, command,
                                                     flag, kind):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MVLAB_OUT", raising=False)
    bad = _BAD_VALUES[kind] if isinstance(kind, str) else st.one_of(
        st.integers(max_value=kind - 1).map(str), st.sampled_from(["2.5", "1e3", "", "nan"]))

    def exits_2_naming_the_flag(value):
        values = {**_BASE[command], flag: value}
        try:
            code = main([command] + [f"{f}={v}" for f, v in values.items()])
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2, value
        assert f"error: argument {flag}: " in err.splitlines()[-1]

    settings(derandomize=True, max_examples=5, deadline=None, database=None)(
        given(bad)(exits_2_naming_the_flag))()


# ---------------------------------------------------- fuzzed exit codes
#
# Any argv of any subcommand exits 0, 2, 3 or 4 and raises nothing else.
# Each argv sets some of its command's flags to finite numbers, tiny to
# overflowing, and perhaps one flag to text that is not a finite number.
# A count is either small enough to run at once or so far above the entry
# cap that numpy could not allocate it either, so no argv can exhaust
# memory, even one that reaches an allocation before the cap is checked.

_NUMBERS = st.one_of(st.floats(-3.0, 3.0).map(repr),
                     st.sampled_from(["400", "1e155", "1e308", "-400", "-1e155", "-1e308",
                                      "1e-300", "0"]))
_COUNTS = st.one_of(st.integers(1, 5).map(str),
                    st.sampled_from(["1000000000000", "1000000000000000000"]))
_ODD = st.sampled_from(["nan", "inf", "-inf", "abc", "", "2.5", "1e400", "-1", "0"])
_VECTORS = st.lists(_NUMBERS, min_size=1, max_size=3).map(",".join)
_MATRICES = st.lists(_VECTORS, min_size=1, max_size=3).map(";".join)
_FILES = st.sampled_from(["p.csv", "w.csv", "missing.csv"])
_OUT = st.just("o")

_FLAGS = {
    "simulate": {"--model": st.sampled_from(["gbm", "cev"]), "--assets": _COUNTS,
                 "--weeks": _COUNTS, "--mean": _NUMBERS, "--variance": _NUMBERS,
                 "--corr": _NUMBERS, "--alpha": _NUMBERS, "--rate": _NUMBERS,
                 "--s0": _NUMBERS, "--seed": _COUNTS, "--out": _OUT,
                 "--measure": st.sampled_from(["physical", "hedge_neutral"])},
    "backtest": {"--input": _FILES, "--strategy": st.sampled_from(STRATEGIES),
                 "--target": _NUMBERS, "--alpha": _NUMBERS, "--gamma": _NUMBERS,
                 "--rate": _NUMBERS, "--batch-len": _COUNTS, "--notional": _NUMBERS,
                 "--base": _NUMBERS, "--out": _OUT},
    "mvo": {"--mu": _VECTORS, "--sigma": _MATRICES, "--input": _FILES, "--target": _NUMBERS,
            "--out": _OUT},
    "policy": {"--type": st.sampled_from(["simple", "multi", "cev"]), "--mu": _VECTORS,
               "--sigma": _MATRICES, "--sigma-bar": _VECTORS, "--alpha": _NUMBERS,
               "--corr": _MATRICES, "--price": _VECTORS, "--rate": _NUMBERS,
               "--horizon": _NUMBERS, "--time": _NUMBERS, "--gamma": _NUMBERS, "--out": _OUT},
    "compare-precommit": {"--mu": _NUMBERS, "--sigma": _NUMBERS, "--rate": _NUMBERS,
                          "--horizon": _NUMBERS, "--gamma": _NUMBERS, "--w0": _NUMBERS,
                          "--paths": st.sampled_from(["10000", "1000000000000"]),
                          "--seed": _COUNTS, "--out": _OUT},
    "report": {"--input": _FILES, "--base": _NUMBERS, "--out": _OUT},
}
# flags every argv carries: the sizes, so that no run takes a default one
_ALWAYS = {"simulate": ("--model", "--assets", "--weeks"), "compare-precommit": ("--paths",)}
# argv that once escaped as an OverflowError with a traceback
_OVERFLOWS = [*(["simulate", "--model=cev", f"--alpha={alpha}"] for alpha in ("400", "1e155")),
              *(["compare-precommit", f"--{flag}=1e155"] for flag in ("mu", "rate"))]


def _argvs(command):
    """argv of `command`: a random subset of its flags, one of them perhaps
    set to odd text, each as --flag=value so that a value starting with
    '-' stays a value."""
    flags = _FLAGS[command]
    always = {flag: flags[flag] for flag in _ALWAYS.get(command, ())}
    others = {flag: value for flag, value in flags.items() if flag not in always}

    def argv(values, odd_flag, odd):
        if odd_flag is not None:
            values[odd_flag] = odd
        return [command] + [f"{flag}={value}" for flag, value in values.items()]

    # one argv in four has an odd flag
    odd_flag = st.sampled_from([None] * (3 * len(flags)) + sorted(flags))
    return st.builds(argv, st.fixed_dictionaries(always, optional=others), odd_flag, _ODD)


@pytest.mark.parametrize("command", list(_FLAGS))
def test_fuzzed_argv_exits_with_a_documented_code(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MVLAB_OUT", raising=False)
    (tmp_path / "p.csv").write_text(panel_csv(weeks=40))
    (tmp_path / "w.csv").write_text(WEALTH_HEADER + "27,0.5,0,0,0\n28,0.52,0.1,-0.9,1\n"
                                    "29,0.54,0.05,-0.9,0.95\n")

    def exits_with_a_documented_code(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        capsys.readouterr()
        assert code in (0, 2, 3, 4), argv

    test = given(_argvs(command))(exits_with_a_documented_code)
    for argv in _OVERFLOWS:
        if argv[0] == command:
            test = example(argv)(test)
    settings(derandomize=True, max_examples=40, deadline=None, database=None)(test)()
