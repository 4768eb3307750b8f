"""Check that two source trees of mvlab write the same CLI outputs.

    python scripts/compare_outputs.py OLD_SRC NEW_SRC

Runs a fixed list of seeded `mvlab` commands once per tree, each tree in a
fresh temporary directory, through `python -m mvlab.cli` with PYTHONPATH set
to that tree's `src` directory and OPENBLAS_NUM_THREADS=1.  Then runs each
probe, a Python snippet that prints seeded library results no command
writes, with its stdout going to a file of that directory.  Compares the
exit code of every command and probe and every file written, manifests
included, byte for byte.  Prints one line per command, probe and file, and
exits 1 on any difference.  For a CSV or JSON file whose bytes differ but
whose text and numbers line up one to one, the line also gives the largest
absolute and relative difference of the numbers.  Standard library only.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

GBM = "gbm/prices.csv"
CEV = "cev/prices.csv"

COMMANDS = [
    ["simulate", "--assets", "50", "--weeks", "523", "--seed", "0", "--out", "gbm"],
    ["simulate", "--model", "cev", "--assets", "10", "--weeks", "200", "--variance", "0.02",
     "--alpha", "1", "--seed", "1", "--out", "cev"],
    ["simulate", "--assets", "5", "--weeks", "100", "--measure", "hedge_neutral",
     "--seed", "2", "--out", "hedge-neutral"],
    # 4 of the 10 assets end absorbed at the Euler floor 1e-8 * S0 = 1e-6
    ["simulate", "--model", "cev", "--alpha", "-1", "--variance", "0.5", "--assets", "10",
     "--weeks", "200", "--seed", "2", "--out", "cev-absorbed"],
    ["backtest", "--input", GBM, "--strategy", "static", "--base", "10", "--out", "static"],
    ["backtest", "--input", CEV, "--strategy", "cev", "--alpha", "1", "--base", "1000",
     "--out", "bt-cev"],
    ["backtest", "--input", CEV, "--strategy", "simple", "--base", "1000", "--out", "bt-simple"],
    ["backtest", "--input", CEV, "--strategy", "multi", "--base", "1000", "--out", "bt-multi"],
    ["backtest", "--input", GBM, "--strategy", "multi", "--base", "10", "--out", "readme-multi"],
    ["report", "--input", "static/wealth.csv", "--base", "10", "--out", "report"],
    ["mvo", "--mu", "0.1,0.2", "--sigma", "1,0;0,1", "--target", "0.15", "--out", "mvo-flags"],
    ["mvo", "--input", CEV, "--target", "0.15", "--out", "mvo-input"],
    # the definiteness rule: LAPACK stops (exit 4), a pivot at 1e-13 below
    # the floor 1e-12 of the largest diagonal entry (exit 4), one above it
    # (exit 0; at mu = (0.1, 0.2) its frontier would be degenerate)
    *[["mvo", "--mu", "0.1,0", "--sigma", sigma, "--target", "0.15", "--out", f"mvo-{name}"]
      for name, sigma in (("indefinite", "1,2;2,1"), ("below-floor", "1,0;0,1e-13"),
                          ("above-floor", "1,0;0,2e-12"))],
    # a*c beyond the float range, refused as degenerate (exit 4): it overflows
    # at Sigma x 1e-160, and at Sigma x 1e160 it is subnormal
    *[["mvo", "--mu", "0.1,0.2,0.15", "--sigma", sigma, "--target", "0.15",
       "--out", f"mvo-{name}-ac"]
      for name, sigma in (("overflowing", "1e-160,0,0;0,2e-160,0;0,0,3e-160"),
                          ("subnormal", "1e160,0,0;0,2e160,0;0,0,3e160"))],
    ["policy", "--type", "simple", "--mu", "0.125", "--sigma", "0.4472135954999579",
     "--horizon", "10", "--out", "policy-simple"],
    ["policy", "--type", "multi", "--mu", "0.1,0.14", "--sigma", "0.3,0;0.1,0.25",
     "--horizon", "2", "--time", "0.5", "--out", "policy-multi"],
    ["policy", "--type", "cev", "--mu", "0.125", "--sigma-bar", "0.2", "--alpha", "1",
     "--horizon", "1", "--out", "policy-cev"],
    ["policy", "--type", "cev", "--mu", "0.1,0.14", "--sigma-bar", "0.2,0.3", "--alpha", "1",
     "--corr", "1,0.3;0.3,1", "--price", "1.2,0.8", "--horizon", "2", "--time", "0.5",
     "--out", "policy-cev-multi"],
    ["compare-precommit", "--horizon", "10", "--paths", "20000", "--seed", "3",
     "--out", "compare"],
    # W0 e^{rT} = 1.28e15 swamped the gap when each sample carried it
    ["compare-precommit", "--w0", "1e15", "--paths", "20000", "--seed", "3",
     "--out", "compare-w0-1e15"],
    # S0^(alpha/2) is out of the normal float range: exit 4, and nothing written
    ["simulate", "--model", "cev", "--alpha", "400", "--out", "cev-alpha-400"],
    ["simulate", "--model", "cev", "--alpha", "-400", "--assets", "2", "--weeks", "3",
     "--out", "cev-alpha-minus-400"],
    # a vector flag that does not parse or is not finite, a batch of one
    # week and a negative seed are usage errors
    ["policy", "--mu", "0.1,abc", "--sigma", "0.4", "--out", "policy-bad-mu"],
    ["policy", "--mu", "nan", "--sigma", "0.4", "--out", "policy-nan-mu"],
    ["backtest", "--input", GBM, "--batch-len", "1", "--out", "bt-batch-one"],
    ["simulate", "--seed", "-1", "--out", "negative-seed"],
    # an array flag whose shape does not fit --mu is a data error naming both
    ["policy", "--mu", "0.1,0.2", "--sigma", "0.3", "--out", "policy-sigma-shape"],
    ["mvo", "--mu", "0.1", "--sigma", "1,2", "--out", "mvo-sigma-shape"],
    ["policy", "--type", "cev", "--mu", "0.1,0.2", "--sigma-bar", "0.2",
     "--out", "policy-sigma-bar-shape"],
    ["policy", "--type", "cev", "--mu", "0.1", "--sigma-bar", "0.2", "--price", "1,2",
     "--out", "policy-price-shape"],
    ["policy", "--type", "cev", "--mu", "0.1,0.2", "--sigma-bar", "0.2,0.2",
     "--corr", "1,0;0,1;0,0", "--out", "policy-corr-shape"],
    # an exponent kappa^2 T, r T, kappa^2 T - log gamma or r T + log |W0|
    # beyond the float range of e^x: exit 4, naming it
    *[["compare-precommit", *flags, "--paths", "10000", "--out", "compare-overflow"]
      for flags in (["--mu", "1e155"], ["--rate", "1e155"], ["--sigma", "1e-160"],
                    ["--mu", "10"], ["--horizon", "1e300"], ["--rate", "100", "--mu", "100.1"],
                    ["--mu", "3.79", "--gamma", "0.1"], ["--gamma", "1e-310"],
                    ["--w0", "1e308", "--rate", "0.1"])],
    # kappa^2 T = 442, 604 and 705, below that bound: finite samples, whose
    # e^{kappa^2 T}/gamma is added once, after their statistics
    *[["compare-precommit", "--mu", mu, *flags, "--paths", "10000", "--out", f"compare-mu-{mu}"]
      for mu, flags in (("3", []), ("3.5", ["--gamma", "0.1"]), ("3.78", []))],
    # kappa^2 T - log gamma = 705.69, 707.39 and 709.70, below that bound
    ["compare-precommit", "--mu", "3.78", "--gamma", "0.5", "--paths", "10000",
     "--out", "compare-gamma-0.5"],
    *[["compare-precommit", "--gamma", gamma, "--paths", "10000", "--out", f"compare-gamma-{gamma}"]
      for gamma in ("1e-307", "1e-308")],
    # below every exponent bound, the mean wealth W0 e^{rT} + ... overflows: exit 4
    ["compare-precommit", "--w0", "1e308", "--gamma", "1e-308", "--paths", "10000",
     "--out", "compare-sample-overflow"],
]

# The two CEV Monte Carlo runs at sizes no command reaches: criterion 07's
# three gains at 150k paths x 500 steps, each line the repr of an
# McEstimate's value and stderr (the fields every tree's has), and the
# covariance sign check at 2^17 paths x 16 steps, both at alpha = 1; the
# same check at alpha = -1, -0.5 and 0, which step Euler (at 0 the gain is
# flat in S, so its correlation reads 0.0); two gains at alpha = -1, which
# step Euler with its floor, the second on inputs where over a quarter of
# the paths end absorbed; and a gain at alpha = 2.5, which steps the
# implicit step (no floor) at an elasticity that is not an
# integer, and one at alpha = -4 from S0 = 1e200, whose S0^-alpha overflows,
# each printing the error a tree raises in place of the value.  Then
# StaticProblem's verdict, `ok` or the class of the error, on diag(1, x) for
# x from 1e-13 to 1e-11 and on either side of the floor 1e-12, and on a
# 3 x 3 family whose last pivot is x.  Then the class, `index` and message
# of the error ridge_solver raises on a 3- and a 30-asset panel holding a
# 1e300 return, which its finiteness check must locate.  Then each
# strategy's backtest wealth path, one CSV column each, on the seeded
# 50 x 523 GBM panel of the `simulate` defaults, built through the
# library: at 50 assets the CLI's simple, multi and cev backtests exit 4
# before writing wealth.csv, so no command compares their money vectors.
# Then the static wealth paths of a sweep in one process: the panels of
# seeds 0 and 1 at targets 10, 15 and 20% and at 15% with notional 2.5,
# then panel 0 at 15% after one of its prices changed in place.  Most of
# these calls reuse the frontier table of the call before them, so equal
# bits show that a reused table gives the bits of a fresh solve.  Then each
# strategy's wealth path on a 20 x 1200 panel of the same market, which
# runs in two blocks through the (k, N, N) solve that N < L takes.
GBM_PANEL = (
    "import sys\n"
    "import numpy as np\n"
    "import mvlab\n"
    "def gbm_panel(n, weeks, seed):\n"
    "    corr = np.full((n, n), 0.05)\n"
    "    np.fill_diagonal(corr, 1.0)\n"
    "    loading = np.sqrt(0.2) * np.linalg.cholesky(corr)\n"
    "    m = mvlab.MarketParams(mu=np.full(n, 0.125), sigma=loading, r=0.025,\n"
    "                           T=weeks / 52, gamma=1.0)\n"
    "    cfg = mvlab.SimConfig(n_assets=n, n_steps=weeks, dt=1 / 52,\n"
    "                          s0=np.full(n, 100.0), seed=seed)\n"
    "    return mvlab.gbm_paths(m, cfg)\n"
    "def readme_panel(seed):\n"
    "    return gbm_panel(50, 523, seed)\n"
    "def print_wealth(panel):\n"
    "    strategies = ('static', 'simple', 'multi', 'cev')\n"
    "    wealth = [mvlab.run_backtest(panel, mvlab.BacktestConfig(strategy=s, alpha=1.0)).wealth\n"
    "              for s in strategies]\n"
    "    np.savetxt(sys.stdout, np.column_stack(wealth), fmt='%.17g', delimiter=',',\n"
    "               header=','.join(strategies), comments='')\n")

PROBES = {
    "criterion07-mc.txt": (
        "import mvlab\n"
        "c = mvlab.CevParams.single(0.125, 0.2, 1.0, 0.025, 1.0, 1.0)\n"
        "for s0 in (1.01, 0.99, 1.0):\n"
        "    e = mvlab.mc_anticipated_gain(c, s0, 0.0, 150_000, 7, n_steps=500)\n"
        "    print(repr(e.value), repr(e.stderr))\n"),
    "covariance-sign.txt": (
        "import mvlab\n"
        "c = mvlab.CevParams.single(0.125, 0.2, 1.0, 0.025, 1.0, 1.0)\n"
        "r = mvlab.hedging_covariance_check(c, 1.0, 0.0, 2**17, 4, n_steps=16)\n"
        "print(repr(r.correlation), repr(r.covariance_sign), repr(r.hedging_sign))\n"),
    "covariance-sign-euler.txt": (
        "import mvlab\n"
        "for alpha in (-1.0, -0.5, 0.0):\n"
        "    c = mvlab.CevParams.single(0.125, 0.2, alpha, 0.025, 1.0, 1.0)\n"
        "    r = mvlab.hedging_covariance_check(c, 1.0, 0.0, 2**17, 4, n_steps=16)\n"
        "    print(repr(r.correlation), repr(r.covariance_sign), repr(r.hedging_sign))\n"),
    "gain-alpha-minus-one.txt": (
        "import mvlab\n"
        "c = mvlab.CevParams.single(0.125, 0.2, -1.0, 0.025, 1.0, 1.0)\n"
        "print(repr(mvlab.mc_anticipated_gain(c, 1.0, 0.0, 40_000, 12)))\n"),
    "gain-alpha-minus-one-absorbed.txt": (
        "import mvlab\n"
        "c = mvlab.CevParams.single(0.125, 1.0, -1.0, 0.025, 2.0, 1.0)\n"
        "print(repr(mvlab.mc_anticipated_gain(c, 1.3, 0.0, 2000, 4, n_steps=16)))\n"),
    "gain-alpha-2.5.txt": (
        "import mvlab, mvlab.errors\n"
        "c = mvlab.CevParams.single(0.125, 0.3, 2.5, 0.025, 2.0, 1.5)\n"
        "try:\n"
        "    e = mvlab.mc_anticipated_gain(c, 1.0, 0.0, 20_000, 5, n_steps=100)\n"
        "    print(repr(e.value), repr(e.stderr))\n"
        "except mvlab.errors.MvlabError as exc:\n"
        "    print(f'{type(exc).__name__}: {exc}')\n"),
    "gain-alpha-minus-four.txt": (
        "import mvlab, mvlab.errors\n"
        "c = mvlab.CevParams.single(0.125, 0.2, -4.0, 0.025, 1.0, 1.0)\n"
        "try:\n"
        "    e = mvlab.mc_anticipated_gain(c, 1e200, 0.0, 1000, 0)\n"
        "    print(repr(e.value), repr(e.stderr))\n"
        "except mvlab.errors.MvlabError as exc:\n"
        "    print(f'{type(exc).__name__}: {exc}')\n"),
    "definiteness.txt": (
        "import numpy as np\n"
        "from mvlab.static_mvo import StaticProblem\n"
        "grid = [np.diag([1.0, x]) for x in (*np.geomspace(1e-13, 1e-11, 9),\n"
        "                                    np.nextafter(1e-12, 0), np.nextafter(1e-12, 1))]\n"
        "grid += [np.array([[4.0, 2, 2], [2, 2, 1], [2, 1, 1 + x]])\n"
        "         for x in (-0.5, 0.0, 1e-13, 4e-12, 1e-11)]\n"
        "for sigma in grid:\n"
        "    try:\n"
        "        StaticProblem(mu=np.zeros(len(sigma)), sigma=sigma, target=0.0)\n"
        "        print('ok')\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__)\n"),
    "non-finite-estimate.txt": (
        "import numpy as np\n"
        "from mvlab import errors, estimate\n"
        "for n in (3, 30):\n"
        "    returns = np.random.default_rng(5).normal(0.002, 0.03, size=(60, n))\n"
        "    returns[40, 1] = 1e300\n"
        "    try:\n"
        "        with np.errstate(over='ignore'):\n"
        "            estimate.ridge_solver(returns, np.arange(26, 61))\n"
        "        print('no error')\n"
        "    except errors.MvlabError as exc:\n"
        "        print(type(exc).__name__, exc.index, exc)\n"),
    "backtest-wealth.csv": GBM_PANEL + "print_wealth(readme_panel(0))\n",
    "backtest-wealth-narrow.csv": GBM_PANEL + "print_wealth(gbm_panel(20, 1200, 0))\n",
    "static-sweep.csv": GBM_PANEL + (
        "panels = [readme_panel(seed) for seed in (0, 1)]\n"
        "header, wealth = [], []\n"
        "def run(i, target, notional=1.0):\n"
        "    cfg = mvlab.BacktestConfig(strategy='static', target=target, notional=notional)\n"
        "    wealth.append(mvlab.run_backtest(panels[i], cfg).wealth)\n"
        "    header.append(f'panel{i}@{target}x{notional}')\n"
        "for i in (0, 1):\n"
        "    for target, notional in ((0.10, 1.0), (0.15, 1.0), (0.20, 1.0), (0.15, 2.5)):\n"
        "        run(i, target, notional)\n"
        "edited = panels[0].prices.copy()\n"
        "edited[300, 7] *= 1.001\n"
        "panels[0] = mvlab.PriceSeries(prices=edited)\n"
        "run(0, 0.15)\n"
        "np.savetxt(sys.stdout, np.column_stack(wealth), fmt='%.17g', delimiter=',',\n"
        "           header=','.join(header), comments='')\n"),
}

RUNS = [" ".join(argv) for argv in COMMANDS] + [f"probe {name}" for name in PROBES]


def run_all(src: str, work: str) -> list[tuple[int, str]]:
    """(exit code, last stderr line) of each command, then of each probe,
    run in order in `work`."""
    env = {k: v for k, v in os.environ.items() if k != "MVLAB_OUT"}
    env.update(PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1")
    results = []

    def run(cmd, stdout):
        proc = subprocess.run(cmd, cwd=work, env=env, stdout=stdout, stderr=subprocess.PIPE,
                              text=True, timeout=600)
        results.append((proc.returncode, (proc.stderr.strip().splitlines() or [""])[-1]))

    for argv in COMMANDS:
        run([sys.executable, "-m", "mvlab.cli", *argv], subprocess.DEVNULL)
    for name, code in PROBES.items():
        with open(os.path.join(work, name), "w") as out:
            run([sys.executable, "-c", code], out)
    return results


def files_under(root: str) -> dict[str, bytes]:
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def _fields(name: str, data: bytes) -> list | None:
    """The values of a CSV or JSON file in order, each number as a float
    and everything else (headers, keys, strings) as it stands; None for
    any other file or one that does not parse."""
    try:
        text = data.decode()
        if name.endswith(".csv"):
            values = [field for row in csv.reader(io.StringIO(text)) for field in row]
        elif name.endswith(".json"):
            values = list(_flatten(json.loads(text)))
        else:
            return None
    except (UnicodeDecodeError, ValueError, csv.Error):
        return None
    out = []
    for v in values:
        try:
            out.append(float(v) if not isinstance(v, bool) else v)
        except (TypeError, ValueError):
            out.append(v)
    return out


def _flatten(obj):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield key
            yield from _flatten(obj[key])
    elif isinstance(obj, list):
        for item in obj:
            yield from _flatten(item)
    else:
        yield obj


def numeric_diff(name: str, old: bytes, new: bytes) -> str | None:
    """'max abs diff A, max rel diff R over K numbers' for two CSV or JSON
    files whose non-numeric values agree and whose numbers pair up; the
    relative difference of a pair is |a - b| / max(|a|, |b|).  None when
    the files do not line up that way."""
    a, b = _fields(name, old), _fields(name, new)
    if a is None or b is None or len(a) != len(b):
        return None
    abs_max = rel_max = 0.0
    count = 0
    for x, y in zip(a, b):
        if not (isinstance(x, float) and isinstance(y, float)):
            if x != y:
                return None
            continue
        count += 1
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        d = abs(x - y)
        if not math.isfinite(d):  # a NaN or an infinity against another value
            abs_max = rel_max = math.inf
            continue
        abs_max = max(abs_max, d)
        rel_max = max(rel_max, d / max(abs(x), abs(y)))
    return f"max abs diff {abs_max:.3e}, max rel diff {rel_max:.3e} over {count} numbers"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python scripts/compare_outputs.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = argv
    with tempfile.TemporaryDirectory() as old_work, tempfile.TemporaryDirectory() as new_work:
        old_codes, new_codes = run_all(old_src, old_work), run_all(new_src, new_work)
        old_files, new_files = files_under(old_work), files_under(new_work)
    differ = 0
    for label, (old_code, old_err), (new_code, new_err) in zip(RUNS, old_codes, new_codes):
        same = old_code == new_code
        differ += not same
        line = f"{'same' if same else 'DIFF'} exit {old_code} -> {new_code}: {label}"
        if old_err != new_err:
            line += f"\n    stderr {old_err!r} -> {new_err!r}"
        print(line)
    for name in sorted(old_files.keys() | new_files.keys()):
        old, new = old_files.get(name), new_files.get(name)
        if old == new:
            print(f"same {name} ({len(old)} bytes)")
        else:
            differ += 1
            what = "only in OLD" if new is None else "only in NEW" if old is None else "bytes differ"
            numbers = what == "bytes differ" and numeric_diff(name, old, new)
            print(f"DIFF {name}: {what}" + (f"; {numbers}" if numbers else ""))
    print(f"{differ} difference(s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
