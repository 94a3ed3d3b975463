#!/usr/bin/env python3
"""PIGEON's benchmark: one command for the serve, train and ingest workloads.

Usage (from the repository root):

    python3 perfbench/run.py --open-loop-rps R --workload serve|train|ingest \
        --seed N --seconds S --trace 0|1

Builds the harness (perfbench/CMakeLists.txt compiles PIGEON's libraries
from ../src) into .bench_build/, generates the workload's inputs from the
seed, runs one measurement and prints the result as the last line of
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 its per_layer list, and the spans go to
.bench_build/traces/<workload>-seed<N>.spans.jsonl. A per-layer metric of a
layer the workload never calls reads 0. Everything else (build log,
the harness's human-readable summary) goes to standard error. Exits
non-zero, printing no result, when the build, the inputs or the run fail.
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
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("serve", "train", "ingest")


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness; returns the binary's path."""
    build_dir = os.path.join(BUILD, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=300)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=540)
    return os.path.join(build_dir, "pigeon_perfbench")


def digest(path):
    """Cached inputs (the serve bundle, the train corpus, the train
    reference) belong to one build of the program."""
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def complete(result, spec, trace):
    """Lays the harness's measurements out in BENCHMARK.json's order."""
    declared = spec["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    undeclared = sorted(set(measured) - {m["name"] for m in declared})
    if undeclared:
        raise ValueError("undeclared metrics: " + ", ".join(undeclared))
    metrics = {}
    for m in declared:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                raise ValueError("end-to-end metric missing: " + m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            raise ValueError("%s: unit %s, declared %s"
                             % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--open-loop-rps", type=float, required=True)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1 or args.open_loop_rps <= 0:
        parser.error("--seconds and --open-loop-rps must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    work = os.path.join(BUILD, "work", digest(binary))
    run_dir = os.path.join(BUILD, "runs", "%s-%d-%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work", work, "--run-dir", run_dir]
    run = [binary, "run"] + common + [
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--rate", repr(args.open_loop_rps)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        run += ["--spans", os.path.join(
            traces, "%s-seed%d.spans.jsonl" % (args.workload, args.seed))]
    try:
        subprocess.run([binary, "prep"] + common, stdout=sys.stderr,
                       stderr=sys.stderr, check=True, timeout=60)
        proc = subprocess.run(run, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, check=True,
                              timeout=args.seconds + 60)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ValueError("the harness printed no result")
    print(json.dumps(complete(json.loads(lines[-1]), spec, args.trace)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log("error: %s" % error)
        sys.exit(1)
