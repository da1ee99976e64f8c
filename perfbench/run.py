#!/usr/bin/env python3
"""Build and run one perfbench workload; print one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload week-heavy --seed 42 --seconds 30 --trace 0

The benchmark program (perfbench/perfbench.cc) is built from the repository's sources with
CMake into $CARGO_TARGET_DIR (default .bench_build) and run inside
<build dir>/work. Metric names and units come from BENCHMARK.json: --trace 0
reports every end_to_end metric, --trace 1 every per_layer metric (a layer the
workload does not exercise reads 0). The exit status is non-zero when the
build fails, a metric is missing, or any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PROGRAM_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout, env):
    """Runs cmd, forwarding its output to stderr; returns True on success."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout,
                              env=env)
    except (OSError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return False
    return proc.returncode == 0


def build(build_dir, env):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if not run_quiet(configure, 300, env):
        fail("cmake configure failed")
    if not run_quiet(["cmake", "--build", build_dir, "-j", jobs], 840, env):
        fail("build failed")
    program = os.path.join(build_dir, "crius_perfbench")
    if not os.path.isfile(program):
        fail("crius_perfbench missing after build")
    return program


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Keep compiler and benchmark temporaries inside the build directory.
    tmp_dir = os.path.join(build_dir, "tmp")
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(tmp_dir, exist_ok=True)
    os.makedirs(work_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    program = build(build_dir, env)

    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=work_dir, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"crius_perfbench exceeded {PROGRAM_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"crius_perfbench exited with {proc.returncode}")
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("crius_perfbench printed no result line")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    unknown = sorted(set(raw["metrics"]) - names)
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {}
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if value is None:
            if not args.trace:
                fail(f"end-to-end metric {m['name']} not measured")
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {"correct": bool(raw["correct"]) and proc.returncode == 0,
              "attempted": int(raw["attempted"]), "failed": int(raw["failed"]),
              "metrics": metrics}
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
