#!/usr/bin/env python3
"""Regenerate benchmark/expected/ from the current program.

    python3 benchmark/make_expected.py

Runs every workload's CLI calls once, with one worker, and stores what
workloads.check_output compares against: the full structured report of
each census (for every antisymmetry census seed the benchmark can pick)
and the n, flags and witnesses of each model check.  Only rerun this when
a change is meant to alter the program's output; the diff of expected/
then shows exactly what changed.
"""

from __future__ import annotations

import os
import subprocess
import sys

import workloads
from run import CHILD_ENV, MODEL_DIR, ROOT, WORK


def main() -> int:
    os.chdir(ROOT)
    WORK.mkdir(exist_ok=True)
    workloads.write_models(MODEL_DIR)
    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    seeds = {"census-transitivity": [0], "check-models": [0],
             "census-antisymmetry": range(workloads.CENSUS_SEED_VARIANTS)}
    for workload in workloads.WORKLOAD_NAMES:
        for seed in seeds[workload]:
            for inv in workloads.invocations(workload, seed, MODEL_DIR):
                done = subprocess.run([sys.executable, "-m", "ispaces", *inv.argv],
                                      env=CHILD_ENV, stdout=subprocess.PIPE, check=True)
                path = workloads.EXPECTED_DIR / inv.expected
                path.write_bytes(workloads.expected_payload(inv, done.stdout))
                print(path.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
