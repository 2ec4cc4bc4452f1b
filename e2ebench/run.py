#!/usr/bin/env python3
"""Builds the end-to-end benchmark and runs one workload.

    python3 e2ebench/run.py --workload learn_cold --seed 1 --seconds 10 --trace 0

Run it from the repository root. It configures and builds e2ebench/ (the
seldon libraries from src/ plus the benchmark program, seldon_e2e) into
the directory named by the CARGO_TARGET_DIR environment variable, default
.bench_build, then runs the program, whose last line of standard output
is the result object. Build output goes to standard error. Exits
non-zero, without a result, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("learn_cold", "relearn_incr", "serve_mixed")


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    steps = [configure,
             ["cmake", "--build", build_dir, "--target", "seldon_e2e",
              "-j", str(os.cpu_count() or 1)]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--projects", type=int,
                        help="corpus size (default 3000)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print("error: benchmark build failed", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "seldon_e2e"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.projects:
        command += ["--projects", str(args.projects)]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
