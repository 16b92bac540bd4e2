#!/usr/bin/env python3
"""Builds and runs the MP-Rec serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload offline-engine --seed 42 --seconds 10 --trace 0

The benchmark is a Rust package of its own (perfbench/Cargo.toml) that
builds against the repository's crates from source. This script builds
it in release mode (into $CARGO_TARGET_DIR, default .bench_build) and
then runs it with the given arguments. Build output goes to standard
error; the benchmark's standard output, whose last line is the JSON
result, passes through unchanged. The exit code is the benchmark's, or
nonzero if the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
RUN_TIMEOUT_S = 170


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed with code {build.returncode}", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(ROOT, target, "release", "perfbench")
    try:
        run = subprocess.run([binary, *sys.argv[1:]], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
