#!/usr/bin/env python3
"""Build and run the Ripple end-to-end benchmark.

One run (the form BENCHMARK.json's "command" takes):

    python3 perfbench/run.py --workload serve-arxiv --seed 1 --seconds 30 --trace 0

builds the library and the perfbench program from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs the workload, and passes the
program's output through; its last stdout line is the result JSON.

Steadiness report:

    python3 perfbench/run.py --repeat 10 [--workloads a,b] [--seconds 30]

runs each workload on seeds 1..N and prints, per end-to-end metric, the
median, the quartiles and the spread (IQR / median), flagging every spread
above the metric's bound in BENCHMARK.json (and above a third of it).
With --trace 1 it instead runs the traced workload twice per seed and
checks that the exact counters repeat bit-for-bit across the processes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, (os.cpu_count() or 2) - 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    return out / "perfbench"


def run_once(binary, workload, seed, seconds, trace, capture):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(build_dir() / "out")]
    proc = subprocess.run(cmd, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE if capture else None)
    if not capture:
        return proc.returncode, None, None
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        return proc.returncode, None, None
    lines = proc.stdout.strip().splitlines()
    return 0, json.loads(lines[-1]), lines


def repeat(binary, spec, workloads, runs, seconds, trace):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    status = 0
    for workload in workloads:
        if trace:
            # Two processes per seed: their exact-counter lines must match.
            for seed in range(1, runs + 1):
                counts = []
                for _ in range(2):
                    code, result, lines = run_once(binary, workload, seed,
                                                   seconds, 1, True)
                    if code != 0 or not result["correct"]:
                        print("%s seed %d: run failed" % (workload, seed))
                        return 1
                    counts += [l for l in lines
                               if l.startswith("exact counters:")]
                same = len(counts) == 2 and counts[0] == counts[1]
                status |= 0 if same else 1
                print("%s seed %d: %s -> %s" % (
                    workload, seed, counts[0],
                    "repeat" if same else "DIFFER"))
            continue
        values = {}
        for seed in range(1, runs + 1):
            code, result, _ = run_once(binary, workload, seed, seconds, 0,
                                       True)
            if code != 0 or not result["correct"]:
                print("%s seed %d: run failed or incorrect" % (workload, seed))
                return 1
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (k, m["value"])
                for k, m in result["metrics"].items())), flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("\n%s: %d runs, seeds 1..%d" % (workload, runs, runs))
        print("  %-16s %12s %12s %12s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    flag, status = "OVER BOUND", 1
                elif spread > bound / 3:
                    flag = "over bound/3"
            print("  %-16s %12.6g %12.6g %12.6g %7.2f%% %6s %s" % (
                name, med, q1, q3, 100 * spread, bound, flag))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness report over seeds 1..N")
    parser.add_argument("--workloads",
                        help="comma-separated subset for --repeat")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if not args.repeat and args.workload not in names:
        parser.error("--workload must be one of %s" % ", ".join(names))
    binary = build()
    if args.repeat:
        workloads = args.workloads.split(",") if args.workloads else names
        return repeat(binary, spec, workloads, args.repeat, seconds,
                      args.trace)
    code, _, _ = run_once(binary, args.workload, args.seed, seconds,
                          args.trace, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
