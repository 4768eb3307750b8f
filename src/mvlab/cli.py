"""Command-line front end.

Subcommands: simulate | backtest | mvo | policy | compare-precommit | report.
Outputs are plot-ready CSV/JSON files plus a manifest that records the full
parameter set and seed, sufficient to re-run the command bit-identically.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical error.
Each numeric flag's argparse type rejects, naming the flag (exit 2), a
value that does not parse, a NaN or infinite entry of a float, vector or
matrix, matrix rows of unequal length and a count below its minimum
(--batch-len 2, --seed 0); the manifest records the parsed numbers.
A flat key=value config file supplies flags of the command (key=value is
--key=value) through the same types; explicit flags win.
The MVLAB_OUT environment variable overrides the default output directory.
"""

from __future__ import annotations

import argparse
import datetime as dt
import functools
import json
import os
import sys

import numpy as np

from . import __version__, backtest, dynamic_policy, estimate, metrics, simulate, static_mvo, wealth_analysis
from .errors import DataError, DomainError, MvlabError, ProtocolError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_FLOAT_FMT = "%.17g"
_START_DATE = dt.date(2007, 10, 29)   # the date of a written price CSV's first row
_WEALTH_HEADER = "week_index,time_years,wealth,bond,stock_value"


# ---------------------------------------------------------------- CSV I/O

def write_price_csv(path, series: simulate.PriceSeries):
    """Write a 'date,A000,A001,...' price CSV, one row a week from _START_DATE."""
    days = [(_START_DATE + dt.timedelta(weeks=k)).isoformat() for k in range(len(series.prices))]
    np.savetxt(path, np.column_stack([np.array(days, dtype=object), series.prices.astype(object)]),
               fmt=["%s"] + [_FLOAT_FMT] * series.n_assets, delimiter=",", comments="",
               header="date," + ",".join(f"A{i:03d}" for i in range(series.n_assets)))


def _csv_lines(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header fields of a UTF-8 CSV file (a BOM is skipped) and its data
    lines as (1-based file line number, fields); blank lines are skipped, and
    each data line must have as many fields as the header."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = [(n, ln.strip().split(",")) for n, ln in enumerate(fh, start=1) if ln.strip()]
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    header = lines[0][1] if lines else []
    for lineno, fields in lines[1:]:
        if len(fields) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields")
    return header, lines[1:]


def _floats(path, lineno: int, fields: list[str]) -> list[float]:
    try:
        return [float(x) for x in fields]
    except ValueError as exc:
        raise DataError(f"{path}:{lineno}: {exc}") from None


def read_price_csv(path) -> simulate.PriceSeries:
    """Read a 'date,<asset>,...' price CSV whose ISO dates are 7 days apart."""
    header, lines = _csv_lines(path)
    if not header or not header[0].lower().startswith("date"):
        raise DataError(f"{path}: missing 'date,...' header")
    if len(header) < 2:
        raise DataError(f"{path}: no asset columns")
    rows = []
    prev = None
    for lineno, parts in lines:
        try:
            day = dt.date.fromisoformat(parts[0])
        except ValueError:
            raise ProtocolError(f"{path}:{lineno}: bad date {parts[0]!r}") from None
        if prev is not None and (day - prev).days != 7:
            raise ProtocolError(f"{path}:{lineno}: {day} is {(day - prev).days} days "
                                f"after {prev}; rows must be weekly")
        prev = day
        rows.append(_floats(path, lineno, parts[1:]))
    return simulate.PriceSeries(prices=np.array(rows))


def write_wealth_csv(path, wp: backtest.WealthPath):
    np.savetxt(path, np.column_stack([wp.week_index, wp.times, wp.wealth, wp.bond,
                                      wp.stock_value]),
               fmt=["%d"] + [_FLOAT_FMT] * 4, delimiter=",", comments="",
               header=_WEALTH_HEADER)


def read_wealth_csv(path) -> backtest.WealthPath:
    """Read the wealth CSV that write_wealth_csv writes."""
    header, lines = _csv_lines(path)
    if ",".join(header) != _WEALTH_HEADER:
        raise DataError(f"{path}: expected the header {_WEALTH_HEADER!r}")
    if not lines:
        raise DataError(f"{path}: no rows")
    week, times, wealth, bond, stock = np.array([_floats(path, n, f) for n, f in lines]).T
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
            json.dump(payload, fh, indent=2, default=np.ndarray.tolist)  # array flags
            fh.write("\n")
    return write


def _emit_json(args, command: str, payload: dict):
    if args.out:
        _save(args, command, {f"{command.replace('-', '_')}.json": _json_writer(payload)})
    else:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")


# ------------------------------------------------------------- commands

def cmd_simulate(args):
    n, variance, mean, s0 = args.assets, args.variance, args.mean, args.s0
    if variance < 0:
        raise DataError(f"variance {variance} is negative")
    if n > 1 and not -1.0 / (n - 1) <= args.corr <= 1.0:  # where corr below is PSD
        raise DataError(f"--corr {args.corr} is outside [{-1.0 / (n - 1):g}, 1] for {n} assets")
    T = args.weeks / estimate.WEEKS_PER_YEAR
    cfg = simulate.SimConfig(n_assets=n, n_steps=args.weeks, dt=backtest.DT, s0=s0,
                             seed=args.seed, measure=args.measure)
    dynamic_policy._check_entries("correlation matrix", n * n)
    corr = np.full((n, n), args.corr)
    np.fill_diagonal(corr, 1.0)
    if args.model == "gbm":
        m = dynamic_policy.MarketParams(
            mu=np.full(n, mean), sigma=np.sqrt(variance) * simulate._corr_factor(corr),
            r=args.rate, T=T, gamma=1.0,
        )
        series = simulate.gbm_paths(m, cfg)
    else:
        try:
            scale = dynamic_policy._price_power(np.float64(s0), args.alpha, 0.5)
        except DomainError as exc:
            raise DomainError(f"price power S0^(alpha/2) out of range at --s0 {s0:g}, "
                              f"--alpha {args.alpha:g}") from exc
        sigma_bar = np.sqrt(variance) / scale
        c = dynamic_policy.CevParams(
            mu=np.full(n, mean), sigma_bar=np.full(n, sigma_bar),
            alpha=np.full(n, args.alpha), corr=corr,
            r=args.rate, T=T, gamma=1.0,
        )
        series = simulate.cev_paths(c, cfg)
    _save(args, "simulate", {"prices.csv": lambda path: write_price_csv(path, series)})


def cmd_backtest(args):
    series = read_price_csv(args.input)
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
                             "stats.json": _json_writer(stats._asdict())})


def cmd_mvo(args):
    if args.input:
        series = read_price_csv(args.input)
        returns = estimate.to_returns(series)
        mu, sigma = estimate.rolling_estimates(returns, len(returns), len(returns))
        mu, sigma = mu[0], estimate.regularize_covariance(sigma[0])
    else:
        if args.mu is None or args.sigma is None:
            raise DataError("provide either --input or both --mu and --sigma")
        mu, sigma = args.mu, args.sigma
        if sigma.shape != (mu.size,) * 2:
            raise DataError(f"--sigma has shape {sigma.shape}; --mu of length {mu.size} "
                            f"needs {(mu.size,) * 2}")
    problem = static_mvo.StaticProblem(mu=mu, sigma=sigma, target=args.target)
    fc = static_mvo.frontier_constants(problem)
    w = static_mvo.solve_static_mvo(problem)
    residual = float(np.max(np.abs(sigma @ w.omega - w.lambda1 - w.lambda2 * mu)))
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
    t, T, mu = args.time, args.horizon, args.mu
    flag = "sigma_bar" if args.type == "cev" else "sigma"
    if getattr(args, flag) is None:
        raise DataError(f"policy --type {args.type} needs --{flag.replace('_', '-')}")
    n = mu.size
    # one --price applies to every asset, as --alpha does
    price = np.full(n, args.price[0]) if args.price.size == 1 else args.price
    # the array flags the type reads, each with n entries along each axis
    shapes = {"sigma_bar": 1, "corr": 2, "price": 1} if args.type == "cev" else {"sigma": 2}
    for name, ndim in shapes.items():
        value = price if name == "price" else getattr(args, name)
        if value is not None and value.shape != (n,) * ndim:
            raise DataError(f"--{name.replace('_', '-')} has shape {value.shape}; "
                            f"--mu of length {n} needs {(n,) * ndim}")
    if args.type == "cev":
        corr = np.eye(n) if args.corr is None else args.corr
        c = dynamic_policy.CevParams(
            mu=mu, sigma_bar=args.sigma_bar, alpha=np.full(n, args.alpha),
            corr=corr, r=args.rate, T=T, gamma=args.gamma)
        pol = dynamic_policy.cev_policy(c, price, t)
    else:
        m = dynamic_policy.MarketParams(mu=mu, sigma=args.sigma, r=args.rate,
                                        T=T, gamma=args.gamma)
        pol = dynamic_policy.simple_policy(m, t)
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
    _emit_json(args, "compare-precommit", cmp_._asdict())


def cmd_report(args):
    wp = read_wealth_csv(args.input)
    _emit_json(args, "report", metrics.perf_stats(wp, base=args.base)._asdict())


# ------------------------------------------------------------- parser

def _flag_type(parse, valid, rule: str):
    """An argparse type: parse(text) when that succeeds and valid() holds
    for the value, else a usage error that names the flag."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {parse.__name__} value: {text!r}") from None
        if not valid(value):
            raise argparse.ArgumentTypeError(f"{text!r} {rule}")
        return value
    return convert


def _at_least(minimum: int):
    """An argparse type for an integer flag of at least `minimum`."""
    return _flag_type(int, lambda value: value >= minimum, f"is below {minimum}")


def vector(text: str) -> np.ndarray:
    """','-separated numbers."""
    return np.array([float(x) for x in text.split(",")])


def matrix(text: str) -> np.ndarray:
    """';'-separated rows of ','-separated numbers, all rows of one length."""
    return np.array([vector(row) for row in text.split(";")])


def loading(text: str) -> np.ndarray:
    """A matrix, or without ';' the diagonal matrix of a vector."""
    return matrix(text) if ";" in text else np.diag(vector(text))


# every float flag is finite, every vector and matrix flag has finite
# entries, and every count flag is at least 1 or the library's own minimum
_finite_float = _flag_type(float, np.isfinite, "is not a finite number")
_finite_vector, _finite_matrix, _finite_loading = (
    _flag_type(parse, lambda a: np.isfinite(a).all(), "has an entry that is not a finite number")
    for parse in (vector, matrix, loading))
_count = _at_least(1)


def build_parser() -> argparse.ArgumentParser:
    # A prefix of a flag, or of a config key, is an error, not that flag.
    no_prefixes = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = no_prefixes(prog="mvlab")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=no_prefixes)

    # the float flags that several commands take, each with one default
    shared = {"rate": 0.025, "gamma": 1.0, "alpha": 0.0, "target": 0.15, "horizon": 10.0,
              "base": 1.0}

    def common(p, *names):
        for name in names:
            p.add_argument(f"--{name}", default=shared[name], type=_finite_float)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--config", default=None,
                       help="flat key=value file of flags (explicit flags win)")

    p = sub.add_parser("simulate", help="generate a simulated price panel")
    p.add_argument("--model", choices=["gbm", "cev"], default="gbm")
    p.add_argument("--assets", default=50, type=_count)
    p.add_argument("--weeks", default=523, type=_count)
    p.add_argument("--mean", default=0.125, type=_finite_float)
    p.add_argument("--variance", default=0.2, type=_finite_float)
    p.add_argument("--corr", default=0.05, type=_finite_float)
    p.add_argument("--s0", default=100.0, type=_finite_float)
    p.add_argument("--seed", default=0, type=_at_least(0))
    p.add_argument("--measure", choices=[simulate.PHYSICAL, simulate.HEDGE_NEUTRAL],
                   default=simulate.PHYSICAL)
    common(p, "alpha", "rate")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("backtest", help="run a weekly rolling backtest")
    p.add_argument("--input", required=True)
    p.add_argument("--strategy", choices=list(backtest.STRATEGIES), default="simple")
    p.add_argument("--batch-len", dest="batch_len", default=estimate.DEFAULT_BATCH_LEN,
                   type=_at_least(2))
    p.add_argument("--notional", default=1.0, type=_finite_float)
    common(p, "target", "alpha", "gamma", "rate", "base")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("mvo", help="solve a static mean-variance instance")
    p.add_argument("--mu", default=None, type=_finite_vector, help="comma-separated returns")
    p.add_argument("--sigma", default=None, type=_finite_matrix, help="semicolon-separated rows")
    p.add_argument("--input", default=None, help="price CSV to estimate from")
    common(p, "target")
    p.set_defaults(func=cmd_mvo)

    p = sub.add_parser("policy", help="evaluate a dynamic policy")
    p.add_argument("--type", choices=["simple", "multi", "cev"], default="simple")
    p.add_argument("--mu", required=True, type=_finite_vector)
    p.add_argument("--sigma", default=None, type=_finite_loading, help="loading matrix (GBM)")
    p.add_argument("--sigma-bar", dest="sigma_bar", default=None, type=_finite_vector)
    p.add_argument("--corr", default=None, type=_finite_matrix)
    p.add_argument("--price", default="1.0", type=_finite_vector)
    p.add_argument("--time", default=0.0, type=_finite_float)
    common(p, "alpha", "rate", "horizon", "gamma")
    p.set_defaults(func=cmd_policy)

    p = sub.add_parser("compare-precommit",
                       help="Monte Carlo precommitment vs time-consistent")
    p.add_argument("--mu", default=0.125, type=_finite_float)
    p.add_argument("--sigma", default=float(np.sqrt(0.2)), type=_finite_float)
    p.add_argument("--w0", default=0.0, type=_finite_float)
    p.add_argument("--paths", default=100_000, type=_at_least(wealth_analysis.MIN_PATHS))
    p.add_argument("--seed", default=0, type=_at_least(0))
    common(p, "rate", "horizon", "gamma")
    p.set_defaults(func=cmd_compare_precommit)

    p = sub.add_parser("report", help="performance statistics of a wealth CSV")
    p.add_argument("--input", required=True)
    common(p, "base")
    p.set_defaults(func=cmd_report)

    return parser


def _config_flags(parser, path: str) -> list[str]:
    """Each `key=value` line of a config file as `--key=value` (`_` in a
    key read as `-`); blank lines and `#` comments are skipped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
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
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            args.func(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (MvlabError, ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
