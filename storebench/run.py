#!/usr/bin/env python3
"""Build storebench from source and run one workload.

Usage (from the repository root):

    python3 storebench/run.py --workload point_read --seed 1 --seconds 20 --trace 0

The benchmark is its own CMake package (storebench/CMakeLists.txt); it
compiles the library sources next to it, so a plain source checkout is all it
needs. The build goes to .bench_build/ at the repository root (or to
$CARGO_TARGET_DIR when that is set), and spans of traced runs go to
<build>/traces/. The last line of standard output is the benchmark's JSON
result; build output goes to standard error. The exit code is the
benchmark's: non-zero when the build fails, the oracle rejects a read, or the
store's stats() disagree with the benchmark's accounting.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run_group(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "-j", "3"]
    for cmd in (configure, compile_):
        if run_group(cmd, BUILD_TIMEOUT_S, sys.stderr) != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        if not build(build_dir):
            print("storebench: build failed", file=sys.stderr)
            return 2
        sys.stdout.flush()
        return run_group(
            [os.path.join(build_dir, "storebench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--trace-out", os.path.join(build_dir, "traces")],
            RUN_TIMEOUT_S, sys.stdout)
    except FileNotFoundError as err:
        print(f"storebench: {err}", file=sys.stderr)
        return 2
    except subprocess.TimeoutExpired as err:
        print(f"storebench: timed out: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
