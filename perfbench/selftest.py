#!/usr/bin/env python3
"""Proves that perfbench's checks catch wrong answers.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

1. Runs the reference computations (BFS closure, BFS distances,
   retrograde game solver, direct sink stripping, snapshot encoder) on
   small hand-checked inputs.
2. Runs every workload briefly with no planted bug: each must report
   correct = true.
3. Switches on the planted bugs of src/eval/test_hooks.h one at a time
   and runs the workloads each must break: each must report
   correct = false.

Exits 0 only when every step behaves as listed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

SECONDS = 2
CLEAN = ["commit_offchain", "commit_dred", "read_mixed", "eval_family"]
PLANTED = [
    ("publish-stale", "commit_offchain"),
    ("publish-stale", "read_mixed"),
    ("dred-skip-rederive", "commit_dred"),
    ("seminaive-skip-delta", "eval_family"),
]


def correct(workload, plant):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "1",
               "--seconds", str(SECONDS), "--trace", "0"]
    if plant:
        command += ["--plant", plant]
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    for line in lines:
        if line.startswith("# check failed"):
            print("    " + line)
    return json.loads(lines[-1])["correct"]


def main():
    run.build()
    ok = subprocess.call([run.BINARY, "--checker-selftest"]) == 0
    for workload in CLEAN:
        got = correct(workload, "")
        print("%-20s %-16s correct=%s (want true)" % ("no bug", workload, got))
        ok = ok and got is True
    for plant, workload in PLANTED:
        got = correct(workload, plant)
        print("%-20s %-16s correct=%s (want false)" % (plant, workload, got))
        ok = ok and got is False
    print("selftest: %s" % ("ok" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
