"""mvlab benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload static50-sweep --seed 0 --seconds 15 --trace 0

Run from the repository root; mvlab is imported from ./src.  The run sets
up (fresh-interpreter probes for setup_s, then an untimed warm-up op), then
repeats the workload's pass until --seconds have elapsed, checks every op's
output against bench/reference.py, and prints a `run_info` line followed
by the result line.  With --trace 0 the result holds the end-to-end metrics
of BENCHMARK.json; with --trace 1 it alternates untraced and traced passes
and holds the per-layer metrics.

Times are calibrated (bench/calibrate.py): each op's seconds are scaled by
the host's speed measured by a small fixed kernel right before it, so
they read as seconds on the reference host at its typical speed.
run_info keeps the raw figures.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
PROBE_CAL_SAMPLES = 15

# One BLAS thread (nproc is 2 on the reference machine): the matrices are
# at most 52 x 52, and a second thread only adds scheduling noise.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

LAYERS = ("simulate", "estimate", "static_mvo", "dynamic_policy", "backtest",
          "metrics", "wealth_analysis", "cli")
SELF_TIMED = (
    "static_mvo.robust_cholesky", "static_mvo.frontier_constants",
    "static_mvo.solve_static_mvo", "static_mvo.kkt_oracle",
    "estimate.to_returns", "estimate.rolling_estimate", "estimate.regularize_covariance",
    "backtest.run_backtest", "backtest.rebalance_step", "backtest.accrue_step",
    "dynamic_policy.multi_policy", "dynamic_policy.cev_policy_multi",
    "dynamic_policy.lattice_equilibrium_oracle",
    "simulate.mc_anticipated_gain", "simulate.gbm_paths", "simulate.cev_paths",
    "wealth_analysis.compare_strategies_mc", "metrics.perf_stats",
    "cli.main", "cli.write_price_csv", "cli.read_price_csv",
    "cli.write_wealth_csv", "cli.read_wealth_csv",
)
CALL_COUNTED = ("static_mvo.robust_cholesky", "estimate.rolling_estimate")


def set_child_env():
    """Child interpreters (probes, CLI ops) import mvlab from ./src too."""
    os.environ.update(THREAD_ENV)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")


def probe_json(args) -> dict:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------- probes

def probe_scale(timer):
    """Calibration scale of a probe process, sampled right after its timing."""
    return statistics.median(timer.sample() for _ in range(PROBE_CAL_SAMPLES))


def setup_probe(workload, seed, work_dir):
    """Fresh interpreter: time `import mvlab` plus one warm-up op.  The
    import is calibrated with the pure-Python kernel and the warm-up op
    with the workload's own."""
    start = time.perf_counter()
    import mvlab.cli  # noqa: F401  (imports every mvlab module)
    imported = time.perf_counter() - start
    import workloads
    from calibrate import Timer
    w = workloads.make(workload, workloads.import_mvlab(), seed, work_dir)
    start = time.perf_counter()
    w.warm_up()
    warm = time.perf_counter() - start
    print(json.dumps({"raw_s": imported + warm,
                      "s": imported * probe_scale(Timer("python"))
                      + warm * probe_scale(w.timer)}))


def import_probe():
    start = time.perf_counter()
    import mvlab.cli  # noqa: F401
    imported = time.perf_counter() - start
    from calibrate import Timer
    print(json.dumps({"raw_s": imported, "s": imported * probe_scale(Timer("python"))}))


def probe(kind, workload, seed, work_dir):
    """Median calibrated and raw time of SETUP_PROBES fresh probes."""
    runs = [probe_json([os.path.join(BENCH, "run.py"), "--probe", kind,
                        "--workload", workload, "--seed", str(seed),
                        "--work-dir", work_dir]) for _ in range(SETUP_PROBES)]
    return (statistics.median(r["s"] for r in runs),
            statistics.median(r["raw_s"] for r in runs))


# ------------------------------------------------------------- statistics

def pick(values, index, fallback):
    """values sorted with failed ops (inf) last; the value at index, or
    fallback when the op there failed."""
    v = sorted(values)[index]
    return fallback if v == float("inf") else v


def latency(passes):
    """op_s_p50 over all ops; op_s_tail per pass as the op time with
    exactly ten ops beyond it, median over passes.  Failed ops sort last."""
    def secs(p):
        return [op.seconds if op.ok else float("inf") for op in p.ops]
    every = [s for p in passes for s in secs(p)]
    wall = sum(p.wall_s for p in passes)
    p50 = pick(every, (len(every) - 1) // 2, wall)
    n = len(passes[0].ops)
    tail = statistics.median(pick(secs(p), max(0, n - 11), p.wall_s) for p in passes)
    return p50, tail, {"op_s_tail_percentile": round(100.0 * (n - 10) / n, 2),
                       "ops_per_pass": n, "tail_ops_beyond": min(10, n - 1)}


def end_to_end(passes, setup, peak_rss_mb):
    wall = sum(p.wall_s for p in passes)
    ops = [op for p in passes for op in p.ops]
    p50, tail, tail_info = latency(passes)
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "weeks_per_s": (sum(op.weeks for op in ops if op.ok) / wall, "1/s"),
        "path_steps_per_s": (sum(p.path_steps for p in passes) / wall, "1/s"),
        "op_s_p50": (p50, "s"),
        "op_s_tail": (tail, "s"),
        "ok_frac": (sum(op.ok for op in ops) / len(ops), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, tail_info


def per_layer(traced, untraced, import_s):
    """Median over traced passes of each function's self time and per-pass
    counts; trace overhead is the traced minus the untraced pass wall."""
    metrics = {}
    def med(get):
        return statistics.median(get(stats, p) for p, stats in traced)
    def st(stats, key, attr):
        s = stats.get(key)
        return getattr(s, attr) if s is not None else 0
    for key in SELF_TIMED:
        metrics[f"{key}.self_s"] = (med(lambda s, p: st(s, key, "self_s")), "s")
    for key in CALL_COUNTED:
        metrics[f"{key}.calls"] = (med(lambda s, p: st(s, key, "calls")), "count")
    metrics["backtest.run_backtest.weeks"] = (
        med(lambda s, p: st(s, "backtest.run_backtest", "count")), "count")
    metrics["simulate.mc_anticipated_gain.path_steps"] = (
        med(lambda s, p: st(s, "simulate.mc_anticipated_gain", "count")), "count")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.bytes_written"] = (med(lambda s, p: p.bytes_written), "bytes")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (med(lambda s, p: sum(
            v.self_s for k, v in s.items() if k.startswith(layer + "."))), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall_s for p, _ in traced)
        - statistics.median(p.wall_s for p in untraced), "s")
    return metrics


# ------------------------------------------------------------- run info

def run_info(seed, workload_name):
    import numpy as np
    import scipy
    info = {
        "workload": workload_name, "seed": seed,
        "git_sha": None, "src_sha256": None,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": None, "blas": None, "blas_threads": None,
    }
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        info["git_sha"] = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "mvlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    info["src_sha256"] = digest.hexdigest()
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                      if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    info["blas_threads"] = blas_threads(np)
    return info


def blas_threads(np):
    """Thread count reported by numpy's OpenBLAS, else the env setting."""
    import ctypes
    import glob
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), name, None)
            if fn is not None:
                return int(fn())
    return THREAD_ENV["OPENBLAS_NUM_THREADS"]


def op_counts(passes):
    counts = {}
    for op in (op for p in passes for op in p.ops):
        c = counts.setdefault(op.kind, {"attempted": 0, "failed": 0})
        c["attempted"] += 1
        c["failed"] += not op.ok
    return counts


def first_errors(passes, limit=5):
    return sorted({f"{op.kind}: {op.error}" for p in passes for op in p.ops
                   if not op.ok})[:limit]


# ------------------------------------------------------------- main

def measure(args, work_dir):
    import tracing
    import workloads

    mv = workloads.import_mvlab()
    if os.path.dirname(os.path.abspath(mv.__file__)) != os.path.join(SRC, "mvlab"):
        raise RuntimeError(f"imported mvlab from {mv.__file__}, not {SRC}")
    w = workloads.make(args.workload, mv, args.seed, work_dir)
    modules = workloads.layers(mv)
    tracer = tracing.Tracer(counters=tracing.default_counters())
    if args.trace and args.workload == "cli-pipeline":
        w.in_process = True
    w.warm_up()

    untraced, traced, rss_kb = [], [], None
    start = time.perf_counter()
    while True:
        gc.collect()    # each pass starts from the same heap, outside timing
        finish = w.run_pass()
        if rss_kb is None:
            # peak through the first pass, before any checking allocates
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if args.workload == "cli-pipeline" and not w.in_process:
                rss_kb = max(rss_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        untraced.append(finish())
        if args.trace:
            tracer.reset()
            gc.collect()
            with tracer.installed(modules):
                finish = w.run_pass()
            if tracing.any_wrapped(modules):
                raise RuntimeError("timing wrappers left installed")
            traced.append((finish(), tracer.stats))
        if time.perf_counter() - start >= args.seconds:
            break
    raw = {"raw_wall_s": statistics.median(p.wall_s for p in untraced),
           "raw_op_s_p50": statistics.median(op.seconds for p in untraced for op in p.ops),
           "cal_samples": len(w.timer.samples),
           "cal_median_s": statistics.median(w.timer.samples),
           "cal_nominal_s": w.timer.nominal_s}
    for p in untraced:
        calibrate(p)
    for p, stats in traced:
        k = calibrate(p)
        for st in stats.values():
            st.self_s *= k
            st.total_s *= k
    return w, untraced, traced, rss_kb / 1024.0, raw


def calibrate(p) -> float:
    """Scale a pass's op times by their calibration factors, and its wall
    time by their time-weighted mean, which is returned."""
    raw = sum(op.seconds for op in p.ops)
    for op in p.ops:
        op.seconds *= op.scale
    k = sum(op.seconds for op in p.ops) / raw
    p.wall_s *= k
    return k


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "import"), help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mvlab", "__init__.py")):
        print(f"error: no mvlab sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    set_child_env()
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    if args.probe == "import":
        import_probe()
        return 0
    if args.probe == "setup":
        setup_probe(args.workload, args.seed, args.work_dir)
        return 0

    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="mvlab-bench-", dir=scratch)
    try:
        setup = raw_setup = None
        if not args.trace:
            setup, raw_setup = probe("setup", args.workload, args.seed, work_dir)
        w, untraced, traced, peak_rss_mb, raw = measure(args, work_dir)
        import_s = raw_import = 0.0
        if args.trace and args.workload == "cli-pipeline":
            import_s, raw_import = probe("import", args.workload, args.seed, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    info = run_info(args.seed, args.workload)
    info.update(raw)
    passes = untraced + [p for p, _ in traced]
    if args.trace:
        metrics = per_layer(traced, untraced, import_s)
        info["passes"] = {"untraced": len(untraced), "traced": len(traced)}
        info["raw_cli_import_s"] = raw_import
    else:
        metrics, tail_info = end_to_end(untraced, setup, peak_rss_mb)
        info.update(tail_info)
        info["passes"] = len(untraced)
        info["raw_setup_s"] = raw_setup
        info["fail_frac"] = 1.0 - metrics["ok_frac"][0]
    info["op_counts"] = op_counts(passes)
    info["errors"] = first_errors(passes)
    info.update(w.summary(untraced))
    ops = [op for p in passes for op in p.ops]
    print(json.dumps({"run_info": info}))
    print(json.dumps({
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
