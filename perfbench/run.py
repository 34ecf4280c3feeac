#!/usr/bin/env python3
"""Builds the perfbench harness from this checkout and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: commit_offchain, commit_dred, read_mixed, eval_family. The
harness and the library are built (Release) into .bench_build/perfbench;
the first run builds, later runs only check that the build is current.
The last line of standard output is the run's JSON result. The exit code
is 0 only when the build and the run both finished.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the harness; exits non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ beside perfbench/, nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("perfbench: build failed (%s)" % " ".join(step[:2]))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--plant", default="")
    args = parser.parse_args()

    build()
    workdir = os.path.join(BUILD, "work-%d" % os.getpid())
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--workdir", workdir]
    if args.plant:
        command += ["--plant", args.plant]
    sys.stdout.flush()
    try:
        code = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0:
        sys.exit("perfbench: run failed (%s)" % code)


if __name__ == "__main__":
    main()
