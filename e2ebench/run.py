#!/usr/bin/env python3
"""Builds and runs the end-to-end MOST benchmark (see NOTES.md).

Run from the root of the repository:

    python3 e2ebench/run.py --workload city_tick --seed 1 --seconds 12 --trace 0

The first run configures and builds a Release tree in $CARGO_TARGET_DIR
(default .bench_build); later runs only rebuild what changed. Build output
goes to stderr, so the last stdout line is the benchmark's JSON result.
An optional --shards N overrides the engine's default shard count.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def configured_for(build_dir, source_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                home = line.split("=", 1)[1].strip()
                return os.path.realpath(home) == os.path.realpath(source_dir)
    return False


def build(source_dir, build_dir):
    if not configured_for(build_dir, source_dir):
        shutil.rmtree(build_dir, ignore_errors=True)
        configure = ["cmake", "-S", source_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    make = ["cmake", "--build", build_dir, "--target", "most_e2ebench",
            "-j", jobs]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "most_e2ebench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--shards", type=int, default=0)
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(source_dir, build_dir)

    work_dir = os.path.join(build_dir, f"e2e-work-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--shards", str(args.shards), "--work-dir", work_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        fail("benchmark printed no JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed benchmark result")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
