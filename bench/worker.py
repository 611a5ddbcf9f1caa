"""Workload process: one caller, closed loop, started by ``run.py``.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --probe --workload NAME --seed N

Runs from the root of a checkout and imports witkit from ``src``.  The
next operation starts only when the previous one has returned and been
checked; only the call into witkit is timed.  With ``--trace 0`` it runs
S / (PASSES * block_seconds) whole blocks PASSES times over (about S
seconds on the reference machine; the same operations on every commit),
scales every call to the reference speed with ``yardstick``, and
reports the end-to-end figures.
With ``--trace 1`` it runs S / (2 * block_seconds) blocks, each once
untraced and once with every witkit module traced, and reports per-layer
figures and the tracing overhead.  ``--probe`` stops after set-up
(import, inputs, one warm-up operation) and prints ``ready``.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter

ROOT = os.getcwd()
PASSES = 3  # untraced runs time every operation this many times
YARD_SHARE = 0.05  # yardstick time / timed time
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import yardstick  # noqa: E402
from workloads import WORKLOADS, Mismatch, Outcome  # noqa: E402


def evaluate(wl, op, out):
    if isinstance(out, Exception) and not wl.accepts_errors:
        return Outcome("failed", f"raised {out!r}")
    try:
        return wl.check(op, out)
    except Mismatch as exc:
        return Outcome("failed", str(exc))
    except Exception as exc:  # a malformed output breaks the check itself
        return Outcome("failed", f"check raised {exc!r}")


class Tally:
    def __init__(self):
        self.latencies = []
        self.raw_latencies = []  # before scaling to the reference speed
        self.slowdowns = []      # per pass: mean yardstick unit / REF_MS
        self.status = Counter()
        self.defects = Counter()
        self.failures = []
        self.solved = 0
        self.feasible = 0
        self.problems = []

    def merge(self, other):
        self.latencies += other.latencies
        self.status += other.status
        self.defects += other.defects
        self.failures = (self.failures + other.failures)[:5]
        self.solved += other.solved
        self.feasible += other.feasible
        self.problems += other.problems

    def add(self, dt, outcome):
        self.latencies.append(dt)
        self.status[outcome.status] += 1
        if outcome.status == "defect":
            self.defects[outcome.detail] += 1
        elif outcome.status == "failed" and len(self.failures) < 5:
            self.failures.append(outcome.detail)
        if outcome.solved is not None:
            self.feasible += 1
            self.solved += bool(outcome.solved)


def closed_loop(wl, blocks, tracer=None):
    """Run blocks of operations back to back, once each."""
    tally = Tally()
    for ops in blocks:
        for op in ops:
            run_op(wl, op, tally, tracer)
    return tally


def repeated_loop(wl, ops, passes, limit):
    """Run ``ops`` back to back ``passes`` times at the reference speed.

    Between calls it runs yardstick units until they have taken
    YARD_SHARE of the time the calls took, so the units sample the
    machine's speed evenly over the pass.  Each call is scaled by its
    pass's slowdown (mean unit time / yardstick.REF_MS), and an
    operation's latency is the mean of its scaled calls.  Odd passes go
    in reverse order, so no operation always runs at the same point of
    the run.  Every call is checked.  Stops after a pass once the timed
    calls add up to ``limit`` seconds, so a much slower commit still ends
    in time.  The passes repeat identical inputs, so a change that caches
    results between calls would be credited for the repeats.
    """
    tally = Tally()
    n = len(ops)
    scaled, raw = [0.0] * n, [0.0] * n
    first = [None] * n
    slowdowns = []
    total = 0.0
    done = 0
    for p in range(passes):
        dts = [0.0] * n
        yard_s, units, pass_s = 0.0, 0, 0.0
        for i in (range(n) if p % 2 == 0 else reversed(range(n))):
            dts[i], outcome = run_op(wl, ops[i], tally, None)
            pass_s += dts[i]
            while yard_s < YARD_SHARE * pass_s:
                yard_s += yardstick.unit()
                units += 1
            if first[i] is None:
                first[i] = outcome.status
            elif first[i] != outcome.status:
                tally.problems.append(f"operation {i} gave {first[i]}, then {outcome.status}")
        slowdown = yard_s / units * 1e3 / yardstick.REF_MS
        slowdowns.append(slowdown)
        for i in range(n):
            scaled[i] += dts[i] / slowdown
            raw[i] += dts[i]
        done += 1
        total += pass_s
        if total >= limit:
            break
    tally.latencies = [x / done for x in scaled]
    tally.raw_latencies = [x / done for x in raw]
    tally.slowdowns = slowdowns
    return tally


def run_op(wl, op, tally, tracer):
    """Time one call into witkit, check it, and return its duration and outcome."""
    if tracer is not None:
        tracer.active = True
        root = tracer.open(tracing.ROOT)
    t0 = time.perf_counter()
    try:
        out = wl.run(op)
    except Exception as exc:  # recorded as the operation's outcome
        out = exc
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(root)
        tracer.active = False
    outcome = evaluate(wl, op, out)
    if tracer is not None and outcome.status == "ok":
        names = tracer.names[root:]
        for name, want in outcome.expect.items():
            got = names.count(name)
            if got != want:
                tally.problems.append(f"{name}: {got} calls traced, {want} expected")
    tally.add(dt, outcome)
    return dt, outcome


def traced_blocks(wl, package, n_blocks):
    """Run each block once untraced and once traced; return both tallies and the tracer.

    The two passes alternate block by block, and so does which of them
    goes first, so both meet the same machine state and warm caches; their
    time difference is the tracing overhead.
    """
    tracer = tracing.Tracer()
    plain, traced = Tally(), Tally()
    for b in range(n_blocks):
        ops = wl.block(b)
        for traced_pass in ((False, True) if b % 2 == 0 else (True, False)):
            if not traced_pass:
                plain.merge(closed_loop(wl, [ops]))
                continue
            tracer.install(package)
            try:
                traced.merge(closed_loop(wl, [ops], tracer=tracer))
            finally:
                tracer.uninstall()
    return plain, traced, tracer


def end_to_end(wl, tally):
    lat_ms = [x * 1e3 for x in tally.latencies]
    n = len(lat_ms)
    # the highest whole percentile with at least ten samples beyond it;
    # n is fixed by --seconds, so every commit reports the same quantile
    tail_pct = min(99, max(0, math.floor(100 * (n - 10) / n)))
    tail = float(np.percentile(lat_ms, tail_pct))
    attempted = sum(tally.status.values())
    not_ok = attempted - tally.status["ok"]
    metrics = {
        "ops_per_s": n / sum(tally.latencies),
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_tail": tail,
        "ok_frac": tally.status["ok"] / attempted,
        # workloads without search or certificate jobs have none to miss
        "solved_frac": tally.solved / tally.feasible if tally.feasible else 1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "samples": n,
        "tail_percentile": tail_pct,
        "tail_samples_beyond": sum(1 for x in lat_ms if x > tail),
        "failed_frac": not_ok / attempted,
        "failed_frac_base": attempted,
        "solved": [tally.solved, tally.feasible],
        "latencies_ms": lat_ms,
        # unscaled figures and the machine's slowdown in each pass
        "raw_ops_per_s": n / sum(tally.raw_latencies),
        "raw_op_ms_p50": statistics.median(tally.raw_latencies) * 1e3,
        "slowdowns": tally.slowdowns,
    }
    return metrics, detail


def machine():
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        info["blas"] = {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
                        for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        info["blas"] = None
    return info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    clock = time.perf_counter
    t0 = clock()
    import witkit
    import witkit.cli  # not imported by the package; the cli layer is traced too
    t_import = clock()
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[args.workload](witkit, args.seed, workdir)
        wl.prepare()
        wl.block(0)
        t_inputs = clock()
        warm = wl.warmup()
        warm_out = wl.run(warm)
        t_warm = clock()
        if args.probe:
            print("ready", flush=True)
            return 0
        warm_outcome = evaluate(wl, warm, warm_out)

        problems = []
        if warm_outcome.status != "ok":
            problems.append(f"warm-up operation: {warm_outcome.detail}")
        if args.trace == 0:
            # a fixed amount of work: every seed and every commit runs the
            # same whole blocks PASSES times, sized to fill --seconds at the
            # reference speed; the limit only stops a much slower commit
            n_blocks = max(1, round(args.seconds / (PASSES * wl.block_seconds)))
            ops = [op for b in range(n_blocks) for op in wl.block(b)]
            tally = repeated_loop(wl, ops, PASSES, limit=2 * args.seconds)
            metrics, detail = end_to_end(wl, tally)
        else:
            # half the blocks of an untraced run, each run twice
            n_blocks = max(1, round(args.seconds / 2 / wl.block_seconds))
            plain, tally, tracer = traced_blocks(wl, witkit, n_blocks)
            stats, span_problems = tracer.summary()
            problems += span_problems
            metrics = tracing.layer_metrics(stats, tracer.counters, tracer.wrapped)
            metrics["setup.import_ms"] = (t_import - t0) * 1e3
            metrics["setup.inputs_ms"] = (t_inputs - t_import) * 1e3
            metrics["setup.warmup_ms"] = (t_warm - t_inputs) * 1e3
            n_ops = len(tally.latencies)
            t_traced, t_plain = sum(tally.latencies), sum(plain.latencies)
            metrics["trace.ops_per_s_traced"] = n_ops / t_traced
            metrics["trace.ops_per_s_untraced"] = n_ops / t_plain
            metrics["trace.overhead_frac"] = t_traced / t_plain - 1.0
            metrics["trace.spans"] = len(tracer.names)
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.tsv")
            tracer.write(spans)
            detail = {"samples": n_ops, "spans_file": os.path.relpath(spans, ROOT)}
            if plain.status != tally.status:
                problems.append("traced and untraced runs of the same operations disagree")
            tally.merge(plain)
        problems += tally.problems
        result = {
            "attempted": sum(tally.status.values()),
            "failed": tally.status["failed"],
            "defects": dict(tally.defects),
            "failures": tally.failures,
            "problems": problems,
            "metrics": metrics,
            "detail": detail,
            "machine": machine(),
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
