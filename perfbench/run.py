#!/usr/bin/env python3
# Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
"""Runs one workload of the repository's benchmark and prints its result.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

Builds the harness from source on first use (into .bench_build/ at the
checkout root, or $CARGO_TARGET_DIR), prepares the seeded database and the
Naive oracle in a separate process, runs the workload and prints one JSON
object as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics (the
untraced run); with --trace 1 they are its per_layer metrics (the traced run,
whose spans are written to <build>/traces/). The line before it holds the
run's harness diagnostics. The deterministic counts of a run are kept under
<build>/counts/ and compared with every later run of the same build, seed
and length; a difference marks the run incorrect.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-hot", "serve-dram", "dist-replicated")
# Metrics printed next to the gated ones so a run hit by a host stall shows
# as such.
DIAGNOSTICS = ("harness.gen_late_ms.p95", "harness.gen_late_ms.max",
               "harness.stall_share", "harness.latency_p50_all_ms",
               "harness.latency_p95_all_ms", "harness.latency_tail_ms",
               "harness.latency_tail_rank", "server.busy_share")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the library sources are not next to perfbench/; run from a "
             "full checkout")
    tree = os.path.join(build_dir, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=840).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(tree, "perfbench")


def harness(binary, args, timeout):
    done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, timeout=timeout, text=True)
    if done.returncode != 0:
        fail("perfbench %s exited with %d" % (args[0], done.returncode))
    return done.stdout


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced database sizes, for the benchmark's "
                             "own tests")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    tag = "%s-%d%s" % (args.workload, args.seed, "-small" if args.small else "")
    data = os.path.join(build_dir, "data", tag)
    os.makedirs(data, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--data", data] + (["--small"] if args.small else [])
    try:
        harness(binary, ["prepare"] + common, 170)
        run = ["run"] + common + ["--seconds", str(args.seconds),
                                  "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            run += ["--trace-out", os.path.join(traces, tag + ".jsonl")]
        out = harness(binary, run, 170)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    report = json.loads(out.strip().splitlines()[-1])
    measured = report["metrics"]

    metrics = {}
    for metric in wanted:
        got = measured.get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            fail("metric %s missing or not in %s" % (metric["name"],
                                                     metric["unit"]))
        metrics[metric["name"]] = got

    # Count determinism guard: the same seed and run length must reproduce
    # the counts bit for bit.
    correct = report["failed"] == 0 and report["exact"] == report["attempted"]
    counts_dir = os.path.join(build_dir, "counts")
    os.makedirs(counts_dir, exist_ok=True)
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    counts_file = os.path.join(counts_dir, "%s-%ds-trace%d-%s.json" % (
        tag, args.seconds, args.trace, build_id))
    if os.path.isfile(counts_file):
        with open(counts_file) as f:
            before = json.load(f)
        if before != report["counts"]:
            print("perfbench: COUNT DRIFT for %s: %s before, %s now" % (
                tag, before, report["counts"]), file=sys.stderr)
            correct = False
    else:
        with open(counts_file, "w") as f:
            json.dump(report["counts"], f)

    print(json.dumps({name: measured[name]["value"] for name in DIAGNOSTICS
                      if name in measured}))
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
