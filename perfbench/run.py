#!/usr/bin/env python3
"""Build and run the antdense benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload lattice|implicit|campaign|daemon \
        --seed N --seconds S --trace 0|1 [--tiny] [--inject digest,warm]

The script configures and builds perfbench/ (a CMake project that pulls
the antdense library in from the repository root) into
.bench_build/perfbench, then runs antdense_perfbench.  Build output goes
to stderr; standard output ends with the one-line JSON result.  Traces
and temporary journals are written under .bench_build/out.

Without the repository sources next to perfbench/, or when the build
fails, it exits non-zero without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD, "antdense_perfbench")
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n"
            if home not in f.readlines():
                # A cache left by another checkout location cannot be reused.
                shutil.rmtree(BUILD, ignore_errors=True)
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD, "--target", "antdense_perfbench",
            "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["lattice", "implicit", "campaign", "daemon"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs (the benchmark's own tests)")
    parser.add_argument("--inject", default="",
                        help="deliberate faults: digest, warm")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no antdense sources next to perfbench/ "
              "(run from a repository checkout)", file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3

    command = [BINARY,
               f"--workload={args.workload}",
               f"--seed={args.seed}",
               f"--seconds={args.seconds}",
               f"--trace={args.trace}",
               f"--out-dir={OUT}",
               f"--pinned={os.path.join(HERE, 'pinned_digests.json')}"]
    if args.tiny:
        command.append("--tiny")
    if args.inject:
        command.append(f"--inject={args.inject}")
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
