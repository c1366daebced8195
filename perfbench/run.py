#!/usr/bin/env python3
"""Build the MAPG benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The simulator libraries under src/ and the driver under perfbench/src/ are
compiled (Release) into .bench_build/perfbench on first use; later runs only
rebuild what changed.  The driver's result line is the last line of stdout;
build output goes to stderr.  See perfbench/README.md for the workloads and
metrics.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ["direct-mem", "direct-compute", "sweep-tab1", "sampled-trace",
             "serve-mixed"]
# A measured run ends well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("error: simulator sources (src/) not found next to perfbench/")
    jobs = str(min(3, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                        str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"error: benchmark build failed: {e}")
    cmd = [str(BUILD / "mapg_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"error: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
