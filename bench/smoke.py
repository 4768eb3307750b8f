"""Smoke check of the benchmark harness at tiny sizes (a few seconds).

    python3 bench/smoke.py        # from the repository root; exit 0 = pass

It checks the mechanics, not mvlab's speed:
  * the traced pass sees calls made from inside a module: on a static
    backtest `static_mvo.robust_cholesky` runs 3 times per decision week
    (StaticProblem, frontier_constants, solve_static_mvo), and
    `backtest.run_backtest.weeks` counts those weeks;
  * every wrapper is removed when the traced block ends, so the untraced
    passes that follow call mvlab's own functions;
  * the per-op correctness gates pass on tiny inputs and count a failure
    without stopping the pass;
  * `run.py` prints exactly the metrics BENCHMARK.json lists, for
    --trace 0 and --trace 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402


def check(cond, what):
    if not cond:
        raise SystemExit(f"smoke check failed: {what}")
    print(f"ok  {what}")


def traced_pass(w, modules):
    tracer = tracing.Tracer(counters=tracing.default_counters())
    with tracer.installed(modules):
        check(tracing.any_wrapped(modules), "wrappers installed inside the block")
        result = w.run_pass()()
    check(not tracing.any_wrapped(modules), "wrappers removed after the block")
    return result, tracer.stats


def main():
    mv = workloads.import_mvlab()
    modules = workloads.layers(mv)

    # static: 1 panel of 5 assets x 60 weeks, three targets
    w = workloads.static50_sweep(mv, seed=0, n=5, weeks=60, n_panels=1)
    w.warm_up()
    result, stats = traced_pass(w, modules)
    weeks = sum(op.weeks for op in result.ops)
    check(all(op.ok for op in result.ops) and weeks == 3 * 33,
          f"static ops pass their checks ({weeks} decision weeks)")
    check(stats["backtest.run_backtest"].count == weeks,
          "backtest.run_backtest.weeks counts decision weeks")
    check(stats["static_mvo.robust_cholesky"].calls == 3 * weeks,
          "robust_cholesky.calls = 3 x decision weeks (in-module calls seen)")
    check(stats["estimate.rolling_estimate"].calls == weeks,
          "rolling_estimate.calls = decision weeks")
    self_total = sum(s.self_s for s in stats.values())
    outer = stats["backtest.run_backtest"].total_s + stats["metrics.perf_stats"].total_s \
        + stats["simulate.gbm_paths"].total_s
    check(abs(self_total - outer) <= 1e-6 * max(1.0, outer),
          "self times add up to the outermost spans")
    calls = {k: v.calls for k, v in stats.items()}
    untraced = w.run_pass()()
    check(all(op.ok for op in untraced.ops), "untraced pass after tracing passes")
    check({k: v.calls for k, v in stats.items()} == calls,
          "untraced pass goes through no wrapper")

    # a failing op is counted, not fatal
    bad = workloads.Sweep(mv, w.panels, {"gbm": [("bad", {"strategy": "nonesuch"})]},
                          base=10.0).run_pass()()
    check(len(bad.ops) == 1 and not bad.ops[0].ok and not bad.ops[0].wrong,
          "an op that raises counts as failed and the pass completes")

    # oracles at tiny sizes: counters only (the criteria need full sizes)
    o = workloads.Oracles(mv, kkt_count=3, mc_paths=200, mc_steps=8,
                          compare_paths=10_000)
    result, stats = traced_pass(o, modules)
    check(stats["simulate.mc_anticipated_gain"].count == 3 * 200 * 8,
          "mc_anticipated_gain.path_steps = 3 x paths x steps")
    check(stats["static_mvo.kkt_oracle"].calls == 3, "kkt_oracle called per instance")

    # CLI in-process at tiny sizes
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as work:
        c = workloads.CliPipeline(mv, seed=0, work_dir=work, n_groups=1, n=5, weeks=60,
                                  cev_n=3, cev_weeks=60, compare_paths=10_000)
        c.in_process = True
        result, stats = traced_pass(c, modules)
    check(stats["cli.main"].calls == len(result.ops) and result.bytes_written > 0,
          f"cli.main traced per op, {result.bytes_written} bytes written")
    failed = [op.kind for op in result.ops if not op.ok]
    check(set(failed) <= {"backtest-multi"}, f"CLI ops pass their checks (failed: {failed})")

    # run.py: metric names match BENCHMARK.json
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "dynamic10-sweep",
             "--seed", "0", "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        check(proc.returncode == 0, f"run.py --trace {trace} exits 0")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        check(set(result) == {"correct", "attempted", "failed", "metrics"}
              and result["correct"] and result["failed"] == 0,
              f"run.py --trace {trace} result line")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == want, f"--trace {trace} prints exactly the {key} metrics")


if __name__ == "__main__":
    main()
