#!/usr/bin/env python3
"""Builds the repo benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <soap_bulk|xmark_shard|update_2pc>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --determinism --workload <name> --seed <n>

Run from the root of a checkout. The build goes to .bench_build/perfbench
(CMake, RelWithDebInfo, the repo's default build type). Build output goes to
standard error, so the last line of standard output is the benchmark's JSON
result. With --trace 1 the span file and per-layer table of the run are
written to .bench_build/perfbench/trace/. --determinism runs the traced
workload twice with one seed and compares the exact per-layer counts. See
perfbench/NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at src/ next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", BUILD, "-j", jobs, "--target", target]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


# Per-layer counts that are exact functions of the seed on the serial
# workloads (soap_bulk, update_2pc); xmark_shard dispatches in parallel, so
# for it their spread is reported instead of required to be zero.
EXACT_METRICS = ("core.requests_per_op", "server.request_kb_per_op",
                 "server.response_kb_per_op", "alloc.count_per_op",
                 "server.txn_log_appends_per_op")
SERIAL_WORKLOADS = ("soap_bulk", "update_2pc")


def traced_metrics(binary, args):
    out_dir = os.path.join(BUILD, "trace")
    os.makedirs(out_dir, exist_ok=True)
    done = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "1",
         "--out-dir", out_dir],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()
            if name in EXACT_METRICS}


def check_determinism(binary, args):
    first = traced_metrics(binary, args)
    second = traced_metrics(binary, args)
    differing = 0
    for name in sorted(first):
        a, b = first[name], second.get(name)
        same = a == b
        differing += not same
        spread = abs(a - b) / a if a and b is not None else 0.0
        print("%-45s %16.4f %16.4f %s" % (name, a, b,
              "same" if same else "differs by %.4f%%" % (100 * spread)))
    print("%d of %d exact counts differ" % (differing, len(first)))
    return 1 if differing and args.workload in SERIAL_WORKLOADS else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--determinism", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    binary = build("perfbench")
    if args.determinism:
        sys.exit(check_determinism(binary, args))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(BUILD, "trace")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--out-dir", out_dir]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
