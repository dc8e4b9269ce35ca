#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload compile --seed 1 --seconds 10 --trace 0

Builds the `perfbench` binary and the shipped `psim-serve` daemon in
release mode (into $CARGO_TARGET_DIR, default `.bench_build`), then runs
the binary with the given arguments. The last line of standard output is
the JSON result; the exit code is the binary's (0 only when every output
was correct). See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "-p", "perfbench", "-p", "psim-serve", "--bins",
    ]
    # Build output goes to stderr so stdout stays the benchmark's own.
    built = subprocess.run(build, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "perfbench")
    ran = subprocess.run([binary] + sys.argv[1:], env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
