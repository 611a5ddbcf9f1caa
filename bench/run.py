"""witkit benchmark: four closed-loop workloads with per-layer tracing.

    python3 bench/run.py --workload sweep|design|certify|cli --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; witkit is imported from ``src``.  The
runner pins BLAS/OpenMP threads to the CPUs this process may use, times
set-up in fresh interpreters, starts the workload process
(``worker.py``), prints every metric by name and unit and, as the last
line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0``, the ``per_layer`` ones with ``--trace 1``).  A record with
the machine (nproc, Python, numpy, BLAS) goes to ``.bench_out/``.

Each workload is one caller in a closed loop: the next operation starts
when the previous one has returned.  A run executes a fixed number of
whole blocks (see ``workloads.py``), sized to take about --seconds on
the reference machine (2 CPUs, Python 3.11, numpy 2.4, OpenBLAS), so two
commits are always timed on the same operations.  The blocks run three
times over, in alternating order, and an operation's latency is the mean
of its three calls.

All times are reported at the reference speed (see ``yardstick.py``): a
shared host runs the same call 1.3-1.9 times slower in some spells than
in others, for seconds to minutes, so raw times of two runs of the same
code differ by up to 40%.  Each call is divided by the slowdown that a
fixed reference computation, interleaved with the calls, shows over the
same pass; each set-up start by the slowdown just before and after it.
The unscaled figures and the slowdowns are printed and recorded too.

End-to-end metrics, per workload:

  setup_s      fresh interpreter -> import witkit -> inputs -> one warm-up
               operation; median of SETUP_STARTS starts, half of them
               before the workload and half after
  ops_per_s    operations / summed latency of the operations
  op_ms_p50    median latency of one operation
  op_ms_tail   latency at the highest whole percentile with at least ten
               operations beyond it; the number of operations is fixed by
               --seconds, so every commit reports the same percentile
  ok_frac      operations whose output passed every check / attempted.
               Known defects (a certificate above the m settings that
               suffice; a CLI traceback instead of the JSON envelope)
               count against it, but not in ``failed``, which counts only
               unexpected failures.  failed_frac = 1 - ok_frac is printed.
  solved_frac  feasible search jobs solved (design; the README search in
               cli) or catalog certificates that reach the proven minimum
               (certify) / such jobs attempted; 1 where there are none
  peak_rss_mb  peak resident set size of the workload process

Layer -> end-to-end map (which figure a change to a layer should move,
and where it should not):

  settings.setting_operator, linalg.kron_all,
  simulate.outcome_probabilities, settings.catalog_decomposition,
  settings.verify_decomposition      ops_per_s, op_ms_p50 on sweep, cli;
                                     flat on design, certify
  simulate.estimate_witness, simulate.shots
                                     ops_per_s on sweep; flat on design,
                                     certify
  linalg.hermitian_eigenvalues, witnesses.ppt_check,
  states.DensityMatrix, witnesses.expectation
                                     op_ms_p50, op_ms_tail on sweep; flat
                                     on design
  settings.decomposition_search, settings.search.*,
  settings.group_pauli_terms         ops_per_s, op_ms_tail, solved_frac on
                                     design; flat on sweep, certify
  certify.lower_bound, certify.rank_one_elements_in_span,
  certify.rank_one.*, certify.exhausted_ratio, linalg.numerical_rank
                                     ops_per_s, ok_frac on certify
                                     (op_ms_tail on cli); flat on sweep,
                                     design
  pauli.to_pauli, pauli.from_pauli, pauli.slice_family
                                     op_ms_p50 on certify, cli; flat on
                                     sweep
  cli.main, cli.json_dumps, cli.load_density_matrix
                                     op_ms_p50 on cli; flat on the others
  rng.stream.calls                   a reproducibility guard on all
  setup.* (import, first-call caches such as pauli.product_basis)
                                     setup_s on all
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_STARTS = 6
SETUP_UNITS = 40  # yardstick units before and after each start
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = threads
    return env


def worker_cmd(args, *extra):
    return [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def time_setup(args, env, root, deadline, starts):
    """Times from process start to the end of the warm-up operation.

    Returns (scaled, raw): each start scaled to the reference speed by the
    machine's slowdown measured just before and just after it.
    """
    scaled, raw = [], []
    for _ in range(starts):
        before = yardstick.slowdown(SETUP_UNITS)
        t0 = time.perf_counter()
        proc = subprocess.Popen(worker_cmd(args, "--probe"), cwd=root, env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.close()
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            stop(proc)
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError("set-up probe failed")
        raw.append(t1 - t0)
        scaled.append((t1 - t0) / ((before + yardstick.slowdown(SETUP_UNITS)) / 2))
    return scaled, raw


def run_worker(args, env, root, deadline):
    cmd = worker_cmd(args, "--seconds", str(args.seconds), "--trace", str(args.trace))
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process ran out of time")
    finally:
        stop(proc)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    # a terminated run still stops and reaps its workload process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "witkit", "__init__.py")) \
            or not os.path.isfile(spec_path):
        raise BenchError("run from the root of a witkit checkout (src/witkit and BENCHMARK.json)")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        raise BenchError("seed must be nonnegative and seconds positive")

    env = child_env()
    values = {}
    if args.trace == 0:
        # half the starts before the workload and half after, so one slow
        # spell of the machine does not decide the median
        starts, raw_starts = time_setup(args, env, root, deadline, SETUP_STARTS // 2)
    result = run_worker(args, env, root, deadline)
    if args.trace == 0:
        more, more_raw = time_setup(args, env, root, deadline, SETUP_STARTS - SETUP_STARTS // 2)
        starts += more
        raw_starts += more_raw
        values["setup_s"] = statistics.median(starts)
    values.update(result["metrics"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    detail = result["detail"]
    mach = result["machine"]
    blas = (mach.get("blas") or {}).get("blas") or {}
    print(f"machine: nproc={mach['nproc']} python={mach['python']} numpy={mach['numpy']} "
          f"blas={blas.get('name')} {blas.get('version')} threads={env[THREAD_VARS[0]]}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"samples={detail['samples']}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if args.trace == 0:
        print(f"  op_ms_tail is p{detail['tail_percentile']} with "
              f"{detail['tail_samples_beyond']} of {detail['samples']} samples beyond it")
        print(f"  failed_frac {detail['failed_frac']:.6g} of {detail['failed_frac_base']} ops "
              f"(unexpected {result['failed']}, known defects {result['defects']})")
        print(f"  solved {detail['solved'][0]} of {detail['solved'][1]} feasible jobs")
        print(f"  unscaled: ops_per_s {detail['raw_ops_per_s']:.6g}, op_ms_p50 "
              f"{detail['raw_op_ms_p50']:.6g}, set-up starts {[round(t, 4) for t in raw_starts]} s; "
              f"slowdown per pass {[round(x, 3) for x in detail['slowdowns']]}")
    for line in result["failures"]:
        print(f"  FAILED: {line}")
    for line in result["problems"]:
        print(f"  PROBLEM: {line}")

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, metrics=values)
    if args.trace == 0:
        record["setup_starts_s"] = {"scaled": starts, "raw": raw_starts}
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    correct = result["failed"] == 0 and not result["problems"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
