#!/usr/bin/env python3
"""Builds the benchmark harness from the repository sources, then runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build tree lives under $CARGO_TARGET_DIR
(default .bench_build) and is reused by later runs. Build output goes to
stderr; the harness prints its JSON result as the last line of stdout. A
failed build exits non-zero without printing a result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr) != 0:
            shutil.rmtree(out, ignore_errors=True)
            return False
    return subprocess.call(["cmake", "--build", out, "--parallel", "4"],
                           stdout=sys.stderr, stderr=sys.stderr) == 0


def main():
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.call([os.path.join(out, "perfbench")] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
