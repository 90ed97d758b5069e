#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Run from the repository root. The harness (perfbench/src, linked against
the library in src/) is configured and built with CMake under the directory
named by CARGO_TARGET_DIR, default .bench_build; later calls only rebuild
what changed. Build output goes to standard error. The harness's standard
output is passed through, so its last line is the result object, and its
exit code is returned: non-zero on a failed build, a bad argument, or a run
that is not oracle-exact or not bit-identical across thread counts.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-mix", "cluster-scale", "churn-faults")
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))
RUN_TIMEOUT_S = 175


def build() -> str:
    """Configures and builds the harness; returns its path."""
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    # Keep the compiler's temporary files inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.abspath(os.path.join(build_dir,
                                                              "tmp")))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(BUILD_JOBS)],
                   stdout=sys.stderr, env=env, check=True)
    return os.path.join(build_dir, "salarm_perfbench")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload sizes, for the self-test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        harness = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    command = [harness, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: harness timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
