"""Run the benchmark on several seeds and report how far each metric spreads.

    python3 bench/spread.py --workload design --seeds 1 2 3 4 5 [--seconds 20]

Runs are sequential (one at a time, so they do not compete for CPUs).
For every end-to-end metric it prints the median and the quartile
spread, (Q3 - Q1) / median with ``statistics.quantiles(values, n=4)``,
next to a third of the metric's bound in BENCHMARK.json: a steady
benchmark keeps every spread but that of setup_s below that line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
        cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
        t0 = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        wall = time.monotonic() - t0
        result = json.loads(out.strip().splitlines()[-1])
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed} ({wall:.1f} s): correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)
    print(f"{'metric':14s} {'median':>12s} {'spread':>8s} {'bound/3':>8s}")
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        flag = "" if spread <= m["bound"] / 3 or m["name"] == "setup_s" else "  WIDE"
        print(f"{m['name']:14s} {med:12.6g} {spread:8.4f} {m['bound'] / 3:8.4f}{flag}")
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", f"spread-{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"seeds": args.seeds, "seconds": seconds, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
