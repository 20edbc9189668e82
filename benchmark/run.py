#!/usr/bin/env python3
"""Builds the benchmark and the `served` daemon from source, then runs it.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`), offline.
When a build fails the script exits non-zero without printing a result;
otherwise it replaces itself with the benchmark binary, whose last stdout
line is the JSON result (see benchmark/README.md).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cargo_build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(ROOT, manifest), *extra]
    try:
        # Compiler output goes to stderr: stdout carries only the result.
        return subprocess.run(cmd, stdout=sys.stderr, check=False).returncode == 0
    except OSError as e:
        print(f"run.py: cannot start cargo: {e}", file=sys.stderr)
        return False


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    os.environ["CARGO_TARGET_DIR"] = target
    if not cargo_build("Cargo.toml", "-p", "wsn-serve", "--bin", "served"):
        print("run.py: building the served daemon failed", file=sys.stderr)
        return 1
    if not cargo_build(os.path.join("benchmark", "Cargo.toml"), "--bin", "wsn-benchmark"):
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "wsn-benchmark")
    served = os.path.join(target, "release", "served")
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execv(binary, [binary, *sys.argv[1:], "--served", served])
    return 1  # unreachable: execv replaced this process


if __name__ == "__main__":
    sys.exit(main())
