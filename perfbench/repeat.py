#!/usr/bin/env python3
"""Run the untraced benchmark over several seeds and summarise each metric.

Run from the repository root, one process at a time:

    python3 perfbench/repeat.py --workload loop-demo --seeds 1 2 3 4 5 \
        --seconds 30 --out .perfbench/spread-loop-demo.json

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to the bound ``BENCHMARK.json`` gives the metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(runs: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                         "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None,
                         "bound": bounds.get(name), "values": vals}
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out", default=None, help="write the summary JSON here")
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        res = run_once(args.workload, seed, seconds)
        runs.append(res)
        vals = ", ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {vals}", flush=True)
    summary = summarise(runs, bounds)
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
        print(f"{name:36s} median {s['median']:.5g} {s['unit']:8s} "
              f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread {spread} bound {s['bound']}")
    if args.out:
        doc = {"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
               "all_correct": all(r["correct"] for r in runs),
               "failed": sum(r["failed"] for r in runs),
               "attempted": sum(r["attempted"] for r in runs), "metrics": summary}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
