#!/usr/bin/env python3
"""wws benchmark: one workload per call, closed loop, one caller.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload loop-demo --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes (set-up plus one unit of work) and
prints the per-layer metrics of the traced ones.  The last line of stdout
is the result object; the line before it records the environment.  Spans,
results and scratch outputs go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_MIN_REPEATS = 3       # set-up is repeated at least this often,
SETUP_MIN_SECONDS = 3.0     # and until this much time went into it,
SETUP_MAX_REPEATS = 10      # but no more often than this
IMPORT_CODE = ("import time; t = time.perf_counter(); import wws.cli; "
               "print(time.perf_counter() - t)")
# One caller, one thread: BLAS worker threads on a 2-core machine spin
# against the main thread and make every timing drift.  A value the caller
# sets is kept; either way it is recorded with the result.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WWS_MODULES = ("wws.plant", "wws.predictor", "wws.qp", "wws.miqp", "wws.mpc",
               "wws.cli")


def import_seconds() -> float:
    """`import wws.cli` in a fresh interpreter, timed inside it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def environment(args) -> dict:
    import numpy
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "commit": commit,
    }


def keep_going(elapsed: float, est: float, seconds: float) -> bool:
    """Start another unit only if it ends at most half a unit past the budget."""
    return elapsed + est / 2 < seconds


def setup_once(work) -> tuple[float, float]:
    imp = import_seconds()
    t0 = time.perf_counter()
    work.setup()
    return imp, imp + time.perf_counter() - t0


def run_untraced(work, seconds: float):
    """End-to-end metrics; no wrapper is installed."""
    setups: list[float] = []
    while len(setups) < SETUP_MAX_REPEATS and (
            len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS):
        setups.append(setup_once(work)[1])
    units, failed, problems = [], 0, []
    t_start = time.perf_counter()
    while True:
        res = work.unit()
        units.append(res)
        chk = work.check(res)          # outside the timed unit
        failed += chk.failed
        problems += chk.problems
        elapsed = sum(u.wall_s for u in units)
        if not keep_going(elapsed, statistics.median(u.wall_s for u in units), seconds):
            break
    wall = sum(u.wall_s for u in units)
    ops = sum(u.ops for u in units)
    lat = [x for u in units for x in u.latencies_s]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_per_s": (ops / wall, "1/s"),
        # a mean, not a median: the host drifts between faster and slower
        # phases, and a median over many short requests jumps with whichever
        # phase held most of the run
        "latency_ms_mean": (statistics.fmean(lat) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"units": len(units), "unit_walls_s": [u.wall_s for u in units],
            "timed_s": wall, "run_s": time.perf_counter() - t_start,
            "latency_samples": len(lat), "setup_samples": setups}
    return metrics, ops, failed, problems, info


def run_traced(work, seconds: float, wws: dict, spans_path: Path):
    """Per-layer metrics from traced passes, each paired with an untraced one."""
    from layertrace import LAYER_METRICS, Tracer, layer_values

    tracer = Tracer()
    tracer.install(wws)
    ops = failed = 0
    problems, per_pass, imports, overheads, pairs = [], [], [], [], []
    t_start = time.perf_counter()
    try:
        while True:
            walls = []
            for traced in (False, True):
                tracer.pass_id = len(pairs)
                tracer.enabled = traced
                t0 = time.perf_counter()
                imp, _ = setup_once(work)
                res = work.unit()
                walls.append(time.perf_counter() - t0)
                tracer.enabled = False
                imports.append(imp)
                chk = work.check(res)
                ops += res.ops
                failed += chk.failed
                problems += chk.problems
            pairs.append(walls)
            per_pass.append(layer_values(tracer.pass_summary(len(pairs) - 1)))
            overheads.append(walls[1] - walls[0])
            elapsed = time.perf_counter() - t_start
            if not keep_going(elapsed, elapsed / len(pairs), seconds):
                break
    finally:
        tracer.uninstall()
        tracer.write(spans_path)
    values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    values["cli.import_s"] = statistics.median(imports)
    values["trace.overhead_s"] = statistics.median(overheads)
    values["trace.overhead_frac"] = statistics.median(
        (t - u) / u for u, t in pairs)
    metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS}
    info = {"pairs": len(pairs), "pass_walls_s": pairs, "unpatched": tracer.missing,
            "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, ops, failed, problems, info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for key in BLAS_ENV:
        os.environ.setdefault(key, "1")     # before numpy is first imported
    if not (SRC / "wws" / "__init__.py").is_file():
        print(f"error: no wws sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for key in [k for k in os.environ if k.startswith("WWS_")]:
        del os.environ[key]     # the program gets only the generated inputs
    wws = {name: importlib.import_module(name) for name in WWS_MODULES}
    if Path(wws["wws.cli"].__file__).resolve().parent != (SRC / "wws").resolve():
        print("error: wws was not imported from this checkout", file=sys.stderr)
        return 2

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = out_dir / "work" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        work = WORKLOADS[args.workload](wws, args.seed, workdir)
        if args.trace:
            metrics, ops, failed, problems, info = run_traced(
                work, args.seconds, wws, out_dir / "spans" / f"{tag}.jsonl")
        else:
            metrics, ops, failed, problems, info = run_untraced(work, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": failed == 0 and ops > 0,
        "attempted": int(ops),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"env": environment(args), "op": work.op_name,
              "latency_of": work.latency_of,
              "failed_frac": failed / ops if ops else 1.0,
              "problems": problems[:20], "info": info, "result": result}
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    (out_dir / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
