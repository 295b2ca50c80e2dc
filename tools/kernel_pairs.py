#!/usr/bin/env python3
"""Time the census kernels of a change against its parent commit, in process.

    python3 tools/kernel_pairs.py [--parent REV]

Run from anywhere inside the repository.  The parent side is REV (default
HEAD, for a change not yet committed), exported with ``git archive``; the
change side is the working tree's tracked and unignored files, as in
``tools/bench_pairs.py``, whose helpers this script imports.  The script
stops with exit status 2 if the working tree does not differ from REV.

Each case is one call of ``search._census_chunk`` on a fixed batch: the
exhaustive n = 4 population, batch 7 of the exhaustive n = 5 population on
both theorems, and sampled batches at n = 5, 7 and 8 (seed 0, density
sweep), each large enough to run bit-sliced.  One run is a fresh process
that imports one side's ``src/`` and times every case as the best of
``CALLS`` (3) calls.  The sides run in ``PAIRS`` (10) alternating pairs, so
slow drift on the machine falls on both alike.  For each case the script
prints the median time of each side, the median over the pairs of change /
parent, and the pairs in which the change was faster.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_pairs import copy_working_tree, differs, export, git  # noqa: E402

PAIRS = 10
CALLS = 3
#: (label, theorem, population, start, stop); a population is ("exhaustive", n) or ("sampled", n, count).
CASES = (
    ("n = 4 exhaustive, transitivity", "transitivity", ("exhaustive", 4), 0, 4096),
    ("n = 5 exhaustive batch 7, transitivity", "transitivity", ("exhaustive", 5), 7 * 4096, 8 * 4096),
    ("n = 5 exhaustive batch 7, antisymmetry", "antisymmetry", ("exhaustive", 5), 7 * 4096, 8 * 4096),
    ("4,096 sampled at n = 5, antisymmetry", "antisymmetry", ("sampled", 5, 4096), 0, 4096),
    ("128 sampled at n = 7, transitivity", "transitivity", ("sampled", 7, 128), 0, 128),
    ("256 sampled at n = 8, antisymmetry", "antisymmetry", ("sampled", 8, 256), 0, 256),
)

#: One run: reads CASES and CALLS as JSON from argv, prints each case's best time in seconds.
CHILD = """
import json, sys, time
from ispaces.search import ExhaustivePopulation, SampledPopulation, _census_chunk

cases, calls = json.loads(sys.argv[1]), int(sys.argv[2])
best = []
for _, theorem, (kind, n, *count), start, stop in cases:
    population = ExhaustivePopulation(n, allow_large=True) if kind == "exhaustive" else SampledPopulation(n, 0, *count)
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        _census_chunk((theorem, population, start, stop, (), True))
        times.append(time.perf_counter() - t0)
    best.append(min(times))
print(json.dumps(best))
"""


def run_once(checkout: Path) -> list[float]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(checkout / "src")
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(CASES), str(CALLS)],
                          cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: the kernel run in {checkout} failed (exit {proc.returncode})")
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side (default HEAD)")
    args = parser.parse_args(argv)
    parent = git("rev-parse", "--short", args.parent).decode().strip()
    if not differs(parent):
        parser.error(f"the working tree does not differ from {args.parent}; pass the change's parent as --parent")
    times: dict[str, list[list[float]]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="kernel-pairs-") as tmp:
        checkouts = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export(parent, checkouts["parent"])
        copy_working_tree(checkouts["change"])
        for pair in range(PAIRS):
            for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                times[side].append(run_once(checkouts[side]))
    print(f"parent {parent} against the working tree: {PAIRS} pairs, each case the best of {CALLS} calls")
    print(f"{'case':40s} {'parent':>9s} {'change':>9s} {'ratio':>6s}  wins")
    for k, (label, *_) in enumerate(CASES):
        before = [run[k] for run in times["parent"]]
        after = [run[k] for run in times["change"]]
        ratio = statistics.median(c / p for p, c in zip(before, after))
        wins = sum(c < p for p, c in zip(before, after))
        print(f"{label:40s} {statistics.median(before) * 1e3:6.2f} ms {statistics.median(after) * 1e3:6.2f} ms "
              f"{ratio:6.3f}  {wins}/{PAIRS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
