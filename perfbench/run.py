#!/usr/bin/env python3
"""Run one hilbfold benchmark workload and print its metrics.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; hilbfold is imported from its
``src`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``, named
and with units as in ``BENCHMARK.json``.
``--short`` runs one small round, for the benchmark's own tests.

This process only orchestrates.  The operations run in child processes,
one at a time, each single-threaded: classify and tangent run all their
rounds in one child; complex and sweep start a fresh child per round, so
that no complex is built twice and no check runs twice inside a process.  Every child reports
the moment its set-up ended (import, input generation and warm-up), and
more children that stop right there are started until five set-up times
have been taken; ``setup_s`` is their median.

An operation's latency is the CPU time the process spends in it.  The
operations are single-threaded and compute-bound, so on an idle machine
that is their wall time; on a shared one the wall time also counts the
moments when other tenants hold the core, and varied several times as
much from run to run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("classify", "tangent", "complex", "sweep")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


def monotonic():
    """A clock shared by all processes on the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="operation time to measure (whole rounds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true",
                   help="one small round, for the benchmark's own tests")
    p.add_argument("--child", choices=("probe", "measure"),
                   help=argparse.SUPPRESS)
    p.add_argument("--round", type=int, default=0, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --------------------------------------------------------------------------
# Child: set up, then run and check operations.
# --------------------------------------------------------------------------


def check(workload, item, answer):
    """The workload's problems with an answer; an answer the checks cannot
    even read is wrong too."""
    try:
        return workload.check(item, answer)
    except Exception as exc:  # malformed output is a wrong answer
        return [f"unreadable answer: {type(exc).__name__}: {exc}"]


def run_rounds(workload, seed, budget, first_round, short, tracer=None,
               first_inputs=None):
    """Run whole rounds until `budget` seconds of operation time are spent
    (one round when the workload wants a fresh process per round, or in
    short mode).  Returns the per-operation record of the rounds run."""
    out = {"latencies": [], "attempted": 0, "failed": 0, "wrong": 0,
           "problems": [], "rounds": 0}
    index = first_round
    inputs = first_inputs
    while True:
        if inputs is None:
            inputs = workload.round_inputs(seed, index, short)
        for item in inputs:
            if tracer is not None:
                tracer.active = True
            start = time.process_time()
            try:
                answer = workload.op(item)
                error = None
            except Exception as exc:  # a failed operation is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            out["latencies"].append(time.process_time() - start)
            if tracer is not None:
                tracer.active = False
            out["attempted"] += 1
            problems = [error] if error else check(workload, item, answer)
            if problems:
                out["failed"] += 1
                out["wrong"] += 0 if error else 1
                out["problems"] += problems[:1]
        out["rounds"] += 1
        index += 1
        inputs = None
        if (short or workload.fresh_process_per_round
                or sum(out["latencies"]) >= budget):
            return out


def child_main(args):
    sys.path.insert(0, str(ROOT / "src"))
    import hilbfold
    if not Path(hilbfold.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"hilbfold imported from {hilbfold.__file__}, "
                         f"not from this checkout")
    import workloads

    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](str(workdir))
        inputs = workload.round_inputs(args.seed, args.round, args.short)
        workload.warm_up(args.seed)
        ready = monotonic()
        if args.child == "probe":
            print(json.dumps({"ready": ready}))
            return 0
        tracer = None
        if args.trace:
            import layertrace
            tracer = layertrace.Tracer()
            layertrace.install(tracer)
        out = run_rounds(workload, args.seed, args.seconds, args.round,
                         args.short, tracer, inputs)
        out["ready"] = ready
        out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["trace"] = tracer.metrics() if tracer else None
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# --------------------------------------------------------------------------
# Parent: start children one after another, merge, report.
# --------------------------------------------------------------------------


class ChildFailed(Exception):
    pass


def spawn(kind, args, round_index, budget, deadline):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", kind,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(budget), "--trace", str(args.trace),
           "--round", str(round_index)] + (["--short"] if args.short else [])
    started = monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildFailed(f"{kind} child passed the {DEADLINE_S:.0f} s limit")
    if proc.returncode != 0 or not stdout.strip():
        raise ChildFailed(f"{kind} child exited with {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    return result, result["ready"] - started


def measure(args):
    deadline = monotonic() + DEADLINE_S
    total = {"latencies": [], "attempted": 0, "failed": 0, "wrong": 0,
             "problems": []}
    setup, rss, traces = [], [], []
    round_index = 0
    while True:
        budget = args.seconds - sum(total["latencies"])
        res, setup_s = spawn("measure", args, round_index, budget, deadline)
        setup.append(setup_s)
        rss.append(res["rss_kb"])
        if res["trace"] is not None:
            traces.append(res["trace"])
        for key in total:
            total[key] += res[key]
        round_index += res["rounds"]
        if args.short or sum(total["latencies"]) >= args.seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(spawn("probe", args, 0, 0, deadline)[1])
    lat = total["latencies"]
    end_to_end = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1000.0,
        "op_p90_ms": statistics.quantiles(lat, n=10,
                                          method="inclusive")[-1] * 1000.0,
        "peak_rss_mb": max(rss) / 1024.0,
    }
    return total, end_to_end, traces


def per_layer(traces):
    """Sum the traced counters and self times of all children."""
    merged = {}
    for trace in traces:
        for name, value in trace.items():
            merged[name] = merged.get(name, 0) + value
    return merged


def main(argv=None):
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "hilbfold" / "__init__.py").is_file():
        print(f"error: no hilbfold sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    try:
        total, end_to_end, traces = measure(args)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass
    for problem in total["problems"][:5]:
        print(f"failed op: {problem}", file=sys.stderr)
    if args.trace:
        print(f"traced ops_per_s={end_to_end['ops_per_s']:.6g} over "
              f"{total['attempted']} ops", file=sys.stderr)
    values = per_layer(traces) if args.trace else end_to_end
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {entry["name"]: {"value": values[entry["name"]],
                               "unit": entry["unit"]}
               for entry in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": total["wrong"] == 0,
                      "attempted": total["attempted"],
                      "failed": total["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
