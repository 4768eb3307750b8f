"""Command-line front end.

Subcommands: simulate | backtest | mvo | policy | compare-precommit | report.
Outputs are plot-ready CSV/JSON files plus a manifest that records the full
parameter set and seed, sufficient to re-run the command bit-identically.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical error.
A flat key=value config file supplies flags of the command (key=value is
--key=value); explicit flags win.
The MVLAB_OUT environment variable overrides the default output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import json
import os
import sys

import numpy as np

from . import __version__, backtest, dynamic_policy, estimate, metrics, simulate, static_mvo, wealth_analysis
from .errors import DataError, MvlabError, ProtocolError, WarmupError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_FLOAT_FMT = "%.17g"
_WEALTH_HEADER = "week_index,time_years,wealth,bond,stock_value"


# ---------------------------------------------------------------- CSV I/O

def write_price_csv(path, series: simulate.PriceSeries, tickers=None,
                    start_date: dt.date = dt.date(2007, 10, 29)):
    n = series.n_assets
    if tickers is None:
        tickers = [f"A{i:03d}" for i in range(n)]
    with open(path, "w") as fh:
        fh.write("date," + ",".join(tickers) + "\n")
        for k in range(series.prices.shape[0]):
            day = start_date + dt.timedelta(weeks=k)
            row = ",".join(_FLOAT_FMT % v for v in series.prices[k])
            fh.write(f"{day.isoformat()},{row}\n")


def read_price_csv(path) -> tuple[simulate.PriceSeries, list[str]]:
    """Read a 'date,<tickers>' price CSV whose ISO dates are 7 days apart."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].lower().startswith("date"):
        raise DataError(f"{path}: missing 'date,...' header")
    tickers = lines[0].split(",")[1:]
    if not tickers:
        raise DataError(f"{path}: no asset columns")
    rows = []
    prev = None
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != len(tickers) + 1:
            raise DataError(f"{path}:{lineno}: expected {len(tickers)+1} fields")
        try:
            day = dt.date.fromisoformat(parts[0])
        except ValueError:
            raise ProtocolError(f"{path}:{lineno}: bad date {parts[0]!r}") from None
        if prev is not None and (day - prev).days != 7:
            raise ProtocolError(f"{path}:{lineno}: {day} is {(day - prev).days} days "
                                f"after {prev}; rows must be weekly")
        prev = day
        try:
            rows.append([float(x) for x in parts[1:]])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    prices = np.array(rows)
    times = np.arange(prices.shape[0]) / 52.0
    return simulate.PriceSeries(times=times, prices=prices), tickers


def write_wealth_csv(path, wp: backtest.WealthPath):
    np.savetxt(path, np.column_stack([wp.week_index, wp.times, wp.wealth, wp.bond,
                                      wp.stock_value]),
               fmt=["%d"] + [_FLOAT_FMT] * 4, delimiter=",", comments="",
               header=_WEALTH_HEADER)


def read_wealth_csv(path) -> backtest.WealthPath:
    """Read the wealth CSV that write_wealth_csv writes."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != _WEALTH_HEADER:
        raise DataError(f"{path}: expected the header {_WEALTH_HEADER!r}")
    rows = [ln for ln in lines[1:] if ln.strip()]
    if not rows:
        raise DataError(f"{path}: no rows")
    try:
        week, times, wealth, bond, stock = np.loadtxt(rows, delimiter=",", ndmin=2,
                                                      unpack=True)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    return backtest.WealthPath(times=times, wealth=wealth, bond=bond,
                               stock_value=stock, week_index=week)


# ------------------------------------------------------------- plumbing

def _save(args, command: str, writers: dict):
    """Make the output directory, write each file through writers[name](path),
    then the manifest listing them, and print the last file's path.  Commands
    call it only once their results are computed, so a failing run leaves no
    directory behind."""
    out = args.out or os.environ.get("MVLAB_OUT") or f"mvlab-{command}"
    os.makedirs(out, exist_ok=True)
    for name, write in writers.items():
        write(os.path.join(out, name))
    params = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "config") and v is not None}
    _json_writer({"command": command, "version": __version__, "parameters": params,
                  "outputs": list(writers)})(os.path.join(out, "manifest.json"))
    print(os.path.join(out, name))


def _json_writer(payload: dict):
    def write(path):
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, default=str)
            fh.write("\n")
    return write


def _emit_json(args, command: str, payload: dict):
    if args.out:
        _save(args, command, {f"{command.replace('-', '_')}.json": _json_writer(payload)})
    else:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError as exc:
        raise DataError(f"bad vector {text!r}: {exc}") from None


def _parse_matrix(text: str) -> np.ndarray:
    try:
        return np.array([[float(x) for x in row.split(",")]
                         for row in text.split(";")])
    except ValueError as exc:
        raise DataError(f"bad matrix {text!r}: {exc}") from None


# ------------------------------------------------------------- commands

def cmd_simulate(args):
    n, variance, mean, s0 = args.assets, args.variance, args.mean, args.s0
    if variance < 0:
        raise DataError(f"variance {variance} is negative")
    T = args.weeks / 52.0
    corr = np.full((n, n), args.corr)
    np.fill_diagonal(corr, 1.0)
    cfg = simulate.SimConfig(n_assets=n, n_steps=args.weeks, dt=1.0 / 52.0,
                             s0=np.full(n, s0), seed=args.seed,
                             measure=args.measure)
    if args.model == "gbm":
        m = dynamic_policy.MarketParams(
            mu=np.full(n, mean), sigma=np.sqrt(variance) * np.linalg.cholesky(corr),
            r=args.rate, T=T, gamma=1.0,
        )
        series = simulate.gbm_paths(m, cfg)
    else:
        sigma_bar = np.sqrt(variance) / s0 ** (args.alpha / 2.0)
        c = dynamic_policy.CevParams(
            mu=np.full(n, mean), sigma_bar=np.full(n, max(sigma_bar, 1e-12)),
            alpha=np.full(n, args.alpha), corr=corr,
            r=args.rate, T=T, gamma=1.0,
        )
        series = simulate.cev_paths(c, cfg)
    _save(args, "simulate", {"prices.csv": lambda path: write_price_csv(path, series)})


def cmd_backtest(args):
    series, _ = read_price_csv(args.input)
    cfg = backtest.BacktestConfig(
        strategy=args.strategy,
        target=args.target,
        alpha=args.alpha,
        gamma=args.gamma,
        r=args.rate,
        batch_len=args.batch_len,
        notional=args.notional,
    )
    wp = backtest.run_backtest(series, cfg)
    stats = metrics.perf_stats(wp, base=args.base)
    _save(args, "backtest", {"wealth.csv": lambda path: write_wealth_csv(path, wp),
                             "stats.json": _json_writer(dataclasses.asdict(stats))})


def cmd_mvo(args):
    if args.input:
        series, _ = read_price_csv(args.input)
        panel = estimate.to_returns(series)
        est = estimate.rolling_estimate(panel, panel.returns.shape[0],
                                        batch_len=panel.returns.shape[0])
        mu, sigma = est.mu_hat, estimate.regularize_covariance(est.sigma_hat)
    else:
        if not args.mu or not args.sigma:
            raise DataError("provide either --input or both --mu and --sigma")
        mu = _parse_vector(args.mu)
        sigma = _parse_matrix(args.sigma)
    problem = static_mvo.StaticProblem(mu=mu, sigma=sigma, target=args.target)
    fc = static_mvo.frontier_constants(problem)
    w = static_mvo.solve_static_mvo(problem)
    residual = float(np.max(np.abs(
        sigma @ w.omega - w.lambda1 * np.ones(mu.size) - w.lambda2 * mu)))
    result = {
        "omega": list(w.omega),
        "lambda1": w.lambda1,
        "lambda2": w.lambda2,
        "frontier_constants": {"a": fc.a, "b": fc.b, "c": fc.c,
                               "discriminant": fc.discriminant},
        "variance": static_mvo.frontier_variance(fc, problem.target)
        if mu.size > 1 else float(sigma[0, 0]),
        "kkt_residual": residual,
    }
    _emit_json(args, "mvo", result)


def cmd_policy(args):
    t, T = args.time, args.horizon
    mu = _parse_vector(args.mu)
    flag = "sigma_bar" if args.type == "cev" else "sigma"
    if getattr(args, flag) is None:
        raise DataError(f"policy --type {args.type} needs --{flag.replace('_', '-')}")
    if args.type == "cev":
        n = mu.size
        sigma_bar = _parse_vector(args.sigma_bar)
        prices = _parse_vector(args.price)
        corr = _parse_matrix(args.corr) if args.corr else np.eye(n)
        c = dynamic_policy.CevParams(
            mu=mu, sigma_bar=sigma_bar, alpha=np.full(n, args.alpha),
            corr=corr, r=args.rate, T=T, gamma=args.gamma)
        pol = dynamic_policy.cev_policy_multi(c, prices, t)
    else:
        sigma = _parse_matrix(args.sigma) if ";" in args.sigma \
            else np.diag(_parse_vector(args.sigma))
        m = dynamic_policy.MarketParams(mu=mu, sigma=sigma, r=args.rate,
                                        T=T, gamma=args.gamma)
        pol = (dynamic_policy.simple_policy(m, t) if args.type == "simple"
               else dynamic_policy.multi_policy(m, t))
    _emit_json(args, "policy", {
        "theta": list(pol.theta),
        "myopic": list(pol.myopic),
        "hedging": list(pol.hedging),
    })


def cmd_compare_precommit(args):
    m = dynamic_policy.MarketParams.single(
        mu=args.mu, sigma=args.sigma, r=args.rate,
        T=args.horizon, gamma=args.gamma)
    cmp_ = wealth_analysis.compare_strategies_mc(
        m, W0=args.w0, paths=args.paths, seed=args.seed)
    _emit_json(args, "compare-precommit", dataclasses.asdict(cmp_))


def cmd_report(args):
    wp = read_wealth_csv(args.input)
    _emit_json(args, "report", dataclasses.asdict(metrics.perf_stats(wp, base=args.base)))


# ------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mvlab")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--config", default=None,
                       help="flat key=value file of flags (explicit flags win)")

    p = sub.add_parser("simulate", help="generate a simulated price panel")
    p.add_argument("--model", choices=["gbm", "cev"], default="gbm")
    p.add_argument("--assets", default=50, type=int)
    p.add_argument("--weeks", default=523, type=int)
    p.add_argument("--mean", default=0.125, type=float)
    p.add_argument("--variance", default=0.2, type=float)
    p.add_argument("--corr", default=0.05, type=float)
    p.add_argument("--alpha", default=0.0, type=float)
    p.add_argument("--rate", default=0.025, type=float)
    p.add_argument("--s0", default=100.0, type=float)
    p.add_argument("--seed", default=0, type=int)
    p.add_argument("--measure", choices=[simulate.PHYSICAL, simulate.HEDGE_NEUTRAL],
                   default=simulate.PHYSICAL)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("backtest", help="run a weekly rolling backtest")
    p.add_argument("--input", required=True)
    p.add_argument("--strategy", choices=list(backtest.STRATEGIES), default="simple")
    p.add_argument("--target", default=0.15, type=float)
    p.add_argument("--alpha", default=0.0, type=float)
    p.add_argument("--gamma", default=1.0, type=float)
    p.add_argument("--rate", default=0.025, type=float)
    p.add_argument("--batch-len", dest="batch_len", default=26, type=int)
    p.add_argument("--notional", default=1.0, type=float)
    p.add_argument("--base", default=1.0, type=float)
    common(p)
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("mvo", help="solve a static mean-variance instance")
    p.add_argument("--mu", default=None, help="comma-separated returns")
    p.add_argument("--sigma", default=None, help="semicolon-separated rows")
    p.add_argument("--input", default=None, help="price CSV to estimate from")
    p.add_argument("--target", default=0.15, type=float)
    common(p)
    p.set_defaults(func=cmd_mvo)

    p = sub.add_parser("policy", help="evaluate a dynamic policy")
    p.add_argument("--type", choices=["simple", "multi", "cev"], default="simple")
    p.add_argument("--mu", required=True)
    p.add_argument("--sigma", default=None, help="loading matrix (GBM)")
    p.add_argument("--sigma-bar", dest="sigma_bar", default=None)
    p.add_argument("--alpha", default=0.0, type=float)
    p.add_argument("--corr", default=None)
    p.add_argument("--price", default="1.0")
    p.add_argument("--rate", default=0.025, type=float)
    p.add_argument("--horizon", default=10.0, type=float)
    p.add_argument("--time", default=0.0, type=float)
    p.add_argument("--gamma", default=1.0, type=float)
    common(p)
    p.set_defaults(func=cmd_policy)

    p = sub.add_parser("compare-precommit",
                       help="Monte Carlo precommitment vs time-consistent")
    p.add_argument("--mu", default=0.125, type=float)
    p.add_argument("--sigma", default=float(np.sqrt(0.2)), type=float)
    p.add_argument("--rate", default=0.025, type=float)
    p.add_argument("--horizon", default=10.0, type=float)
    p.add_argument("--gamma", default=1.0, type=float)
    p.add_argument("--w0", default=0.0, type=float)
    p.add_argument("--paths", default=100_000, type=int)
    p.add_argument("--seed", default=0, type=int)
    common(p)
    p.set_defaults(func=cmd_compare_precommit)

    p = sub.add_parser("report", help="performance statistics of a wealth CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--base", default=1.0, type=float)
    common(p)
    p.set_defaults(func=cmd_report)

    return parser


def _config_flags(parser, path: str) -> list[str]:
    """Each `key=value` line of a config file as `--key=value` (`_` in a
    key read as `-`); blank lines and `#` comments are skipped."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        parser.error(f"cannot read config {path}: {exc}")
    flags = []
    for lineno, ln in enumerate(lines, start=1):
        ln = ln.strip()
        if ln and not ln.startswith("#"):
            key, eq, value = ln.partition("=")
            if not eq:
                parser.error(f"{path}:{lineno}: expected key=value, got {ln!r}")
            flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return flags


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # Config flags come first, so the explicit flags after them win.
        args = parser.parse_args(argv[:1] + _config_flags(parser, args.config) + argv[1:])
    try:
        args.func(args)
    except (DataError, WarmupError, ProtocolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (MvlabError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
