#!/usr/bin/env python3
"""Build bench_e2e from source and run one workload.

Run from the repository root:

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds this directory's CMake package (which
compiles the library from ../src) into $CARGO_TARGET_DIR/bench_e2e, or
.bench_build/bench_e2e when that variable is unset; later calls only
rebuild what changed. The run pins ECL_SCALE=0.02 and ECL_MAX_ORDINATES=6.
With --trace 1 the Chrome trace is written beside the build. The program's
last line of output is the result JSON; the exit code is the program's.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED_ENV = {"ECL_SCALE": "0.02", "ECL_MAX_ORDINATES": "6"}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "bench_e2e"


def _quiet(cmd):
    """Runs a build step; its output reaches stderr only when it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"run.py: build step failed: {' '.join(cmd)}")


def build() -> Path:
    """Configures once, then builds incrementally; returns the binary."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        _quiet(["cmake", "-S", str(HERE), "-B", str(out),
                "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    _quiet(["cmake", "--build", str(out), "--target", "bench_e2e", "-j", "4"])
    return out / "bench_e2e"


def bench_env() -> dict:
    return {**os.environ, **PINNED_ENV}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", str(build_dir() / f"trace-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=bench_env(), timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
