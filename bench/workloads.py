"""The four benchmark workloads.

A workload turns the run seed into a fixed op set, its "pass".  The
benchmark repeats passes back to back (closed loop, one client).
`run_pass()` times the ops and returns a `finish` callable that checks
every output; the benchmark calls it after reading the pass's peak
memory, so checking is neither timed nor counted in `peak_rss_mb`.  An op
that raises, exits with the wrong code or fails its check counts as
failed and the run goes on.

mvlab is reached only through module attributes (`mv.backtest.run_backtest`,
never a name bound at import time), so the timing wrappers of tracing.py
see every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import reference as ref
from calibrate import Timer


@dataclass
class Op:
    kind: str
    seconds: float
    scale: float = 1.0       # calibration factor of the host's speed at the op
    weeks: int = 0           # decision steps completed by the op
    error: str | None = None
    wrong: bool = False      # completed, but its output failed the check

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class PassResult:
    wall_s: float
    ops: list
    path_steps: int = 0
    bytes_written: int = 0
    info: dict = field(default_factory=dict)


def run_op(timer: Timer, kind, fn, *args, **kwargs):
    """Time one op; returns (Op, result or None)."""
    seconds, scale, result, error = timer.time(fn, *args, **kwargs)
    return Op(kind, seconds, scale, error=error), result


def fail(op: Op, reason: str | None):
    if reason is not None and op.ok:
        op.error, op.wrong = reason, True


def import_mvlab():
    """The mvlab modules the benchmark drives, one per layer."""
    import mvlab.backtest
    import mvlab.cli
    import mvlab.dynamic_policy
    import mvlab.estimate
    import mvlab.metrics
    import mvlab.simulate
    import mvlab.static_mvo
    import mvlab.wealth_analysis
    return mvlab


def layers(mv):
    return [mv.simulate, mv.estimate, mv.static_mvo, mv.dynamic_policy,
            mv.backtest, mv.metrics, mv.wealth_analysis, mv.cli]


DT = 1.0 / 52.0
RATE = 0.025


# ------------------------------------------------------------- sweeps

def gbm_market(mv, n, weeks, var=0.2, rho=0.05, mean=0.125):
    loading = np.sqrt(var) * np.linalg.cholesky(ref.equicorrelation(n, rho))
    return mv.dynamic_policy.MarketParams(mu=np.full(n, mean), sigma=loading,
                                          r=RATE, T=weeks / 52, gamma=1.0)


def cev_market(mv, n, weeks, var=0.02, alpha=1.0, rho=0.05, mean=0.125, s0=100.0):
    return mv.dynamic_policy.CevParams(
        mu=np.full(n, mean), sigma_bar=np.full(n, np.sqrt(var / s0**alpha)),
        alpha=np.full(n, alpha), corr=ref.equicorrelation(n, rho),
        r=RATE, T=weeks / 52, gamma=1.0)


@dataclass(frozen=True)
class Panel:
    model: str           # "gbm" or "cev"
    seed: int
    n: int
    weeks: int


class Sweep:
    """Backtests on simulated panels: each pass simulates its panels with
    mvlab, runs every (panel, strategy) op and takes perf_stats of each
    wealth path.  Panel simulation is pass time but not op time."""

    def __init__(self, mv, panels, strategies, base, summary=None):
        self.mv, self.panels, self.base = mv, panels, base
        self.strategies = strategies      # {model: [(kind, BacktestConfig kwargs)]}
        self.timer = Timer("interp")
        self._summary = summary

    def simulate(self, p: Panel):
        sim = self.mv.simulate
        cfg = sim.SimConfig(n_assets=p.n, n_steps=p.weeks, dt=DT,
                            s0=np.full(p.n, 100.0), seed=p.seed)
        if p.model == "gbm":
            return sim.gbm_paths(gbm_market(self.mv, p.n, p.weeks), cfg)
        return sim.cev_paths(cev_market(self.mv, p.n, p.weeks), cfg)

    def backtest(self, series, kwargs):
        bt = self.mv.backtest
        path = bt.run_backtest(series, bt.BacktestConfig(**kwargs))
        return path, self.mv.metrics.perf_stats(path, base=self.base)

    def warm_up(self):
        p = self.panels[0]
        kind, kwargs = self.strategies[p.model][0]
        self.backtest(self.simulate(p), kwargs)

    def run_pass(self) -> PassResult:
        done = []
        start, cal_start = time.perf_counter(), self.timer.cal_s
        for p in self.panels:
            series = self.simulate(p)
            for kind, kwargs in self.strategies[p.model]:
                op, out = run_op(self.timer, kind, self.backtest, series, kwargs)
                done.append((p, series, kwargs, op, out))
        wall = self.timer.since(start, cal_start)
        return functools.partial(self.check, done, wall)

    def check(self, done, wall) -> PassResult:
        ops, risks, panel_refs = [], {}, {}
        for p, series, kwargs, op, out in done:
            ops.append(op)
            if p not in panel_refs:
                panel_refs[p] = self.check_panel(p, series.prices)
            prices, est, panel_error = panel_refs[p]
            if not op.ok:
                continue
            fail(op, panel_error)
            path, stats = out
            want = ref.strategy_ledger(prices, est, kwargs["strategy"],
                                       kwargs.get("target", 0.15), kwargs.get("alpha", 0.0))
            fail(op, ref.check_backtest(path.wealth, path.bond, path.stock_value, want))
            want = ref.perf_stats(path.wealth, self.base)
            got = {k: getattr(stats, k) for k in want}
            fail(op, None if ref.stats_close(got, want) else "perf_stats off reference")
            if op.ok:
                op.weeks = path.wealth.size - 1
                risks.setdefault(p, []).append(ref.annual_risk(path.wealth))
        steps = sum(p.n * p.weeks for p in panel_refs)
        return PassResult(wall, ops, path_steps=steps,
                          info={"risks": risks, "raw_wall_s": wall})

    @staticmethod
    def check_panel(p: Panel, prices):
        if p.model == "gbm":
            want = ref.gbm_panel(p.n, p.weeks, 0.125, 0.2, 0.05, 100.0, p.seed)
        else:
            want = ref.cev_panel(p.n, p.weeks, 0.125, 0.02, 1.0, 0.05, 100.0, p.seed)
        return prices, ref.rolling_estimates(prices), panel_error(prices, want)

    def summary(self, passes) -> dict:
        return self._summary(passes) if self._summary else {}


def static50_sweep(mv, seed, n=50, weeks=523, n_panels=10):
    """Criterion 03's shape; --seed 0 gives criterion 03's own panels 0..9."""
    panels = [Panel("gbm", n_panels * seed + i, n, weeks) for i in range(n_panels)]
    strategies = {"gbm": [(f"static@{t:.2f}", {"strategy": "static", "target": t})
                          for t in (0.10, 0.15, 0.20)]}
    return Sweep(mv, panels, strategies, base=10.0, summary=criterion03_info)


def dynamic10_sweep(mv, seed, n=10, weeks=200, n_panels=10):
    """Criterion 09's shape plus the multi strategy on GBM panels."""
    panels = [Panel(model, n_panels * seed + i, n, weeks)
              for i in range(n_panels) for model in ("cev", "gbm")]
    strategies = {
        "cev": [("cev", {"strategy": "cev", "alpha": 1.0}),
                ("simple", {"strategy": "simple"})],
        "gbm": [("multi", {"strategy": "multi"})],
    }
    return Sweep(mv, panels, strategies, base=1000.0)


def criterion03_info(passes) -> dict:
    """Panels whose risk strictly rises over targets 10/15/20% (criterion
    03 wants >= 8/10 at panel seeds 0..9), and the criterion's 30 s budget
    against the median uncalibrated pass time."""
    risks = passes[0].info["risks"]
    ordered = sum(1 for r in risks.values() if len(r) == 3 and r[0] < r[1] < r[2])
    wall = statistics.median(p.info["raw_wall_s"] for p in passes)
    return {"criterion03_ordered": f"{ordered}/{len(risks)}",
            "criterion03_panel_seeds": [p.seed for p in risks],
            "criterion03_budget_margin_s": 30.0 - wall}


# ------------------------------------------------------------- oracles

class Oracles:
    """Criteria 01, 05, 07 and 08 on their own inputs and thresholds.

    Their pass/fail thresholds hold for those inputs (criterion 01's
    tolerances are absolute and fail on other instance draws, criterion
    05's 3-sigma test fails on some 0.4% of seeds), so the run seed does
    not change them.
    """

    CEV = dict(mu=0.125, sigma_bar=0.2, alpha=1.0, r=RATE, T=1.0, gamma=1.0)
    KKT_GROUP = 5

    def __init__(self, mv, kkt_count=100, mc_paths=150_000, mc_steps=500,
                 lattice_steps=(64, 128, 256, 512), compare_paths=100_000):
        self.mv = mv
        self.timer, self.mc_timer = Timer("interp"), Timer("stream")
        self.mc_paths, self.mc_steps = mc_paths, mc_steps
        self.lattice_steps, self.compare_paths = lattice_steps, compare_paths
        rng = np.random.default_rng(2024)       # criterion 01's instances
        self.instances = []
        for _ in range(kkt_count):
            n = int(rng.integers(2, 11))
            a = rng.normal(size=(n, n))
            sigma = a @ a.T + 0.1 * np.eye(n)
            mu = rng.normal(0.1, 0.1, size=n)
            self.instances.append((mu, sigma, float(rng.normal(0.12, 0.05))))

    def kkt_op(self, group):
        """Criterion 01's work on a group of instances: closed form, KKT
        oracle, frontier constants and variance."""
        s = self.mv.static_mvo
        out = []
        for mu, sigma, target in group:
            p = s.StaticProblem(mu=mu, sigma=sigma, target=target)
            w, o, fc = s.solve_static_mvo(p), s.kkt_oracle(p), s.frontier_constants(p)
            out.append((w, o, s.frontier_variance(fc, target)))
        return out

    def gbm(self, mu, sigma, T):
        return self.mv.dynamic_policy.MarketParams.single(mu, sigma, RATE, T, 1.0)

    def warm_up(self):
        self.kkt_op(self.instances[:1])
        self.mv.dynamic_policy.lattice_equilibrium_oracle(self.gbm(0.125, 0.2**0.5, 1.0), 64)

    def run_pass(self) -> PassResult:
        mv = self.mv
        kkt, lattice, mc = [], [], []
        def timed(kind, fn, *args, **kwargs):
            timer = self.mc_timer if kind == "mc" else self.timer
            return run_op(timer, kind, fn, *args, **kwargs)

        def cal_s():
            return self.timer.cal_s + self.mc_timer.cal_s
        start, cal_start = time.perf_counter(), cal_s()
        for group in self.kkt_groups():
            kkt.append(timed("kkt", self.kkt_op, group))
        m1 = self.gbm(0.125, 0.2**0.5, 1.0)
        for steps in self.lattice_steps:
            lattice.append(timed("lattice", mv.dynamic_policy.lattice_equilibrium_oracle,
                                 m1, steps))
        flat = timed("lattice", mv.dynamic_policy.lattice_equilibrium_oracle,
                     self.gbm(RATE, 0.2**0.5, 1.0), self.lattice_steps[0])
        compare = timed("compare", mv.wealth_analysis.compare_strategies_mc,
                        self.gbm(0.125, 0.2**0.5, 10.0), 1.0, self.compare_paths, 5)
        cev = mv.dynamic_policy.CevParams.single(**self.CEV)
        for s0 in (1.01, 0.99, 1.0):
            mc.append(timed("mc", mv.simulate.mc_anticipated_gain, cev, s0, 0.0,
                            self.mc_paths, 7, n_steps=self.mc_steps))
        wall = time.perf_counter() - start - (cal_s() - cal_start)
        return functools.partial(self.check, wall, kkt, lattice, flat, compare, mc)

    def check(self, wall, kkt, lattice, flat, compare, mc) -> PassResult:
        self.check_kkt(kkt)
        self.check_lattice(lattice, flat)
        self.check_compare(*compare)
        self.check_mc(mc)
        ops = [op for op, _ in kkt + lattice + [flat, compare] + mc]
        steps = 3 * self.mc_paths * self.mc_steps + self.compare_paths
        return PassResult(wall, ops, path_steps=steps,
                          info={"criterion01_s": sum(op.seconds for op, _ in kkt)})

    def summary(self, passes) -> dict:
        """Criterion 01's 1 s budget against the uncalibrated time of its
        100 instances."""
        return {"criterion01_budget_margin_s":
                1.0 - statistics.median(p.info["criterion01_s"] for p in passes)}

    def kkt_groups(self):
        """The instances in groups of KKT_GROUP, one op each.  A single
        instance takes under a millisecond, and the tail of such ops is
        timer and scheduler noise (22% run-to-run spread)."""
        return [self.instances[i:i + self.KKT_GROUP]
                for i in range(0, len(self.instances), self.KKT_GROUP)]

    def check_kkt(self, kkt):
        for (op, out), group in zip(kkt, self.kkt_groups()):
            if not op.ok:
                continue
            for (w, o, var), (mu, sigma, target) in zip(out, group):
                worst_con = max(abs(w.omega.sum() - 1.0), abs(w.omega @ mu - target))
                fail(op, None if (np.max(np.abs(w.omega - o.omega)) <= 1e-9
                                  and worst_con <= 1e-10
                                  and abs(var - w.omega @ sigma @ w.omega) <= 1e-10)
                     else "criterion 01 thresholds")

    def check_lattice(self, lattice, flat):
        closed = 0.1 / 0.2 * np.exp(-RATE)       # (mu - r) / (gamma sigma^2) e^{-rT}
        for op, out in lattice + [flat]:
            if op.ok:
                op.weeks = len(out.thetas)
        if all(op.ok for op, _ in lattice):
            errs = [abs(out.root - closed) for _, out in lattice]
            for i, (e1, e2) in enumerate(zip(errs, errs[1:])):
                if not 0.35 <= e2 / e1 <= 0.65:
                    fail(lattice[i][0], "criterion 08: error ratio")
                    fail(lattice[i + 1][0], "criterion 08: error ratio")
        if flat[0].ok and not all(np.all(level == 0.0) for level in flat[1].thetas):
            fail(flat[0], "criterion 08: nonzero policy at zero Sharpe")

    def check_compare(self, op, out):
        if not op.ok:
            return
        analytic = ref.precommit_gap(0.125, 0.2**0.5, RATE, 10.0, 1.0)
        small = []
        for k2T in (0.001, 0.005, 0.01):
            m = self.mv.dynamic_policy.MarketParams.single(0.02 + 0.3 * np.sqrt(k2T), 0.3,
                                                           0.02, 1.0, 1.0)
            small.append(self.mv.wealth_analysis.analytic_gap(m) <= k2T**2)
        zero = self.mv.wealth_analysis.analytic_gap(self.gbm(RATE, 0.2, 10.0))
        ok = (abs(out.gap - analytic) <= 3 * out.gap_stderr
              and abs(out.gap_analytic - analytic) <= 1e-12 * analytic
              and zero == 0.0 and all(small))
        fail(op, None if ok else "criterion 05 thresholds")

    def check_mc(self, mc):
        c = self.CEV
        if not all(op.ok for op, _ in mc):
            return
        (up_op, up), (dn_op, dn), (mid_op, mid) = mc
        fd = -(up.value - dn.value) / (2 * 0.01) * np.exp(-c["r"] * c["T"])
        hedging = ref.cev_hedging(c["mu"], c["sigma_bar"], c["alpha"], c["r"], c["T"],
                                  c["gamma"], 1.0)
        if abs(fd - hedging) > 1e-3 * abs(hedging):
            fail(up_op, "criterion 07(b): hedging sensitivity")
            fail(dn_op, "criterion 07(b): hedging sensitivity")
        exact = ref.cev_gain_exact(c["mu"], c["sigma_bar"], c["alpha"], c["r"], c["T"],
                                   c["gamma"], 1.0)
        dp = self.mv.dynamic_policy
        small_alpha = dp.cev_policy(dp.CevParams.single(0.125, 0.2, 1e-8, RATE, 1.0, 1.0),
                                    S=1.0, t=0.0).theta[0]
        gbm = dp.simple_policy(self.gbm(0.125, 0.2, 1.0), 0.0).theta[0]
        if (abs(mid.value - exact) > 3 * mid.stderr + 1e-4
                or abs(small_alpha - gbm) > 1e-6 * abs(gbm)):
            fail(mid_op, "criterion 07(a)/(c)")


# ------------------------------------------------------------- CLI

class CliPipeline:
    """`python -m mvlab.cli` processes, one at a time, in a scratch
    directory with explicit --out and MVLAB_OUT unset.  With in_process the
    same argv lists go to `mvlab.cli.main` (the traced run).

    A pass is the README recipe verbatim (its panel is seed 0), then, per
    run-seed group, the recipe without multi plus a CEV chain and
    compare-precommit.  multi-at-50 dies on a ledger assertion on seed 0
    and on about half of other seeds, so it runs only where the README
    runs it: a seed-dependent failure count would make ok_frac unsteady.
    """

    README_SEED = 0

    def __init__(self, mv, seed, work_dir, n_groups=3, n=50, weeks=523,
                 cev_n=10, cev_weeks=200, compare_paths=100_000):
        self.mv, self.work_dir = mv, work_dir
        self.seeds = [1000 + n_groups * seed + g for g in range(n_groups)]
        self.n, self.weeks = n, weeks
        self.cev_n, self.cev_weeks = cev_n, cev_weeks
        self.compare_paths = compare_paths
        self.in_process = False
        self.timer = Timer("python")
        self.env = {k: v for k, v in os.environ.items() if k != "MVLAB_OUT"}
        self.n_pass = 0

    def simulate_gbm(self, s, out):
        return ["simulate", "--model", "gbm", "--assets", str(self.n),
                "--weeks", str(self.weeks), "--seed", str(s), "--out", out]

    def gbm_ops(self, s, multi):
        """simulate -> backtest static (and multi) -> report, as in the README."""
        d = f"g{s}"
        ops = [
            (s, "simulate", self.simulate_gbm(s, f"{d}/panel")),
            (s, "backtest-static", ["backtest", "--input", f"{d}/panel/prices.csv",
                                    "--strategy", "static", "--base", "10",
                                    "--out", f"{d}/static"]),
            (s, "report", ["report", "--input", f"{d}/static/wealth.csv", "--base", "10",
                           "--out", f"{d}/static-report"]),
        ]
        if multi:
            ops.append((s, "backtest-multi", ["backtest", "--input", f"{d}/panel/prices.csv",
                                              "--strategy", "multi", "--base", "10",
                                              "--out", f"{d}/multi"]))
        return ops

    def seed_ops(self, s):
        d = f"g{s}"
        cev = ["simulate", "--model", "cev", "--assets", str(self.cev_n),
               "--weeks", str(self.cev_weeks), "--variance", "0.02", "--alpha", "1",
               "--seed", str(s)]
        return self.gbm_ops(s, multi=False) + [
            (s, "simulate-rerun", self.simulate_gbm(s, f"{d}/panel-rerun")),
            (s, "simulate-cev", cev + ["--out", f"{d}/cev"]),
            (s, "backtest-cev", ["backtest", "--input", f"{d}/cev/prices.csv",
                                 "--strategy", "cev", "--alpha", "1", "--base", "1000",
                                 "--out", f"{d}/cev-bt"]),
            (s, "report", ["report", "--input", f"{d}/cev-bt/wealth.csv", "--base", "1000",
                           "--out", f"{d}/cev-report"]),
            (s, "compare-precommit", ["compare-precommit", "--seed", str(s),
                                      "--paths", str(self.compare_paths),
                                      "--out", f"{d}/compare"]),
        ]

    def pass_ops(self):
        ops = self.gbm_ops(self.README_SEED, multi=True)
        for s in self.seeds:
            ops += self.seed_ops(s)
        return ops

    def call(self, argv, cwd):
        """(exit code, last line of stderr) of one mvlab command."""
        if not self.in_process:
            proc = subprocess.run([sys.executable, "-m", "mvlab.cli", *argv], cwd=cwd,
                                  env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
            return proc.returncode, (proc.stderr.strip().splitlines() or [""])[-1]
        saved_cwd, saved_out = os.getcwd(), os.environ.pop("MVLAB_OUT", None)
        os.chdir(cwd)
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                return self.mv.cli.main(argv), err.getvalue().strip()
        finally:
            os.chdir(saved_cwd)
            if saved_out is not None:
                os.environ["MVLAB_OUT"] = saved_out

    def warm_up(self):
        cwd = tempfile.mkdtemp(dir=self.work_dir)
        self.call(next(argv for _, kind, argv in self.seed_ops(self.seeds[0])
                       if kind == "simulate-cev"), cwd)
        shutil.rmtree(cwd)

    def summary(self, passes) -> dict:
        return {}

    def run_pass(self) -> PassResult:
        self.n_pass += 1
        cwd = os.path.join(self.work_dir, f"pass{self.n_pass}")
        os.makedirs(cwd)
        done = []
        start, cal_start = time.perf_counter(), self.timer.cal_s
        for s, kind, argv in self.pass_ops():
            op, result = run_op(self.timer, kind, self.call, argv, cwd)
            if op.ok and result[0] != 0:
                op.error = f"exit code {result[0]}: {result[1]}"
            done.append((s, kind, argv, op))
        wall = self.timer.since(start, cal_start)
        return functools.partial(self.finish, cwd, done, wall)

    def finish(self, cwd, done, wall) -> PassResult:
        try:
            for s, kind, argv, op in done:
                if op.ok:
                    self.check(s, kind, argv, cwd, op)
            written = sum(os.path.getsize(os.path.join(d, f))
                          for d, _, files in os.walk(cwd) for f in files)
        finally:
            shutil.rmtree(cwd)
        sizes = {"simulate": self.n * self.weeks, "simulate-rerun": self.n * self.weeks,
                 "simulate-cev": self.cev_n * self.cev_weeks,
                 "compare-precommit": self.compare_paths}
        steps = sum(sizes.get(kind, 0) for _, kind, _, op in done if op.ok)
        return PassResult(wall, [d[-1] for d in done], path_steps=steps,
                          bytes_written=written)

    def check(self, s, kind, argv, cwd, op):
        out = os.path.join(cwd, argv[argv.index("--out") + 1])
        try:
            if kind == "simulate":
                prices = load_prices(os.path.join(out, "prices.csv"))
                want = ref.gbm_panel(self.n, self.weeks, 0.125, 0.2, 0.05, 100.0, s)
                fail(op, panel_error(prices, want))
            elif kind == "simulate-rerun":
                same = (read_bytes(os.path.join(out, "prices.csv"))
                        == read_bytes(os.path.join(out, "..", "panel", "prices.csv")))
                fail(op, None if same else "seeded simulate re-run differs")
            elif kind == "simulate-cev":
                prices = load_prices(os.path.join(out, "prices.csv"))
                want = ref.cev_panel(self.cev_n, self.cev_weeks, 0.125, 0.02, 1.0, 0.05,
                                     100.0, s)
                fail(op, panel_error(prices, want))
            elif kind.startswith("backtest"):
                self.check_backtest(argv, cwd, out, op)
            elif kind == "report":
                wealth = load_wealth(os.path.join(cwd, argv[argv.index("--input") + 1]))
                self.check_stats(os.path.join(out, "report.json"), wealth,
                                 float(argv[argv.index("--base") + 1]), op)
            elif kind == "compare-precommit":
                self.check_compare(s, os.path.join(out, "compare_precommit.json"), op)
        except (OSError, ValueError, KeyError) as exc:
            fail(op, f"unreadable output: {exc}")

    def check_backtest(self, argv, cwd, out, op):
        prices = load_prices(os.path.join(cwd, argv[argv.index("--input") + 1]))
        strategy = argv[argv.index("--strategy") + 1]
        want = ref.strategy_ledger(prices, ref.rolling_estimates(prices), strategy,
                                   alpha=1.0 if strategy == "cev" else 0.0)
        table = np.loadtxt(os.path.join(out, "wealth.csv"), delimiter=",", skiprows=1,
                           ndmin=2)
        fail(op, ref.check_backtest(table[:, 2], table[:, 3], table[:, 4], want))
        self.check_stats(os.path.join(out, "stats.json"), table[:, 2],
                         float(argv[argv.index("--base") + 1]), op)
        if op.ok:
            op.weeks = table.shape[0] - 1

    def check_stats(self, path, wealth, base, op):
        """The written statistics equal in-process perf_stats of the same
        wealth column, and agree with the reference definitions."""
        with open(path) as fh:
            got = json.load(fh)
        st = self.mv.metrics.perf_stats(wealth, base=base)
        same = got == {"terminal_return": st.terminal_return,
                       "max_drawdown": st.max_drawdown, "std_dev": st.std_dev}
        fail(op, None if same else "statistics differ from in-process perf_stats")
        fail(op, None if ref.stats_close(got, ref.perf_stats(wealth, base))
             else "statistics off reference")

    def check_compare(self, s, path, op):
        with open(path) as fh:
            got = json.load(fh)
        m = self.mv.dynamic_policy.MarketParams.single(0.125, float(np.sqrt(0.2)), RATE,
                                                       10.0, 1.0)
        want = self.mv.wealth_analysis.compare_strategies_mc(m, 0.0, self.compare_paths, s)
        analytic = ref.precommit_gap(0.125, float(np.sqrt(0.2)), RATE, 10.0, 1.0)
        ok = (got["gap"] == want.gap and got["gap_stderr"] == want.gap_stderr
              and abs(got["gap_analytic"] - analytic) <= 1e-12 * analytic
              # loose statistical guard: 5 standard errors
              and abs(got["gap"] - analytic) <= 5 * got["gap_stderr"])
        fail(op, None if ok else "compare-precommit output off reference")


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def load_prices(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                      converters={0: lambda _: 0.0})[:, 1:]


def load_wealth(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 2]


def panel_error(prices, want):
    if prices.shape != want.shape or not np.allclose(prices, want, rtol=1e-9, atol=0):
        return "simulated panel off reference"
    return None


WORKLOADS = ("static50-sweep", "dynamic10-sweep", "oracles", "cli-pipeline")


def make(name, mv, seed, work_dir):
    if name == "static50-sweep":
        return static50_sweep(mv, seed)
    if name == "dynamic10-sweep":
        return dynamic10_sweep(mv, seed)
    if name == "oracles":
        return Oracles(mv)
    if name == "cli-pipeline":
        return CliPipeline(mv, seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")
