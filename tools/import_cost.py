#!/usr/bin/env python3
"""Import cost of each ``ispaces`` module in the benchmark's four kinds of command.

    python3 tools/import_cost.py

Runs each command ``RUNS`` (15) times as ``python -X importtime -m ispaces
...`` on a copy of this checkout's ``src/`` without its bytecode caches,
with ``PYTHONDONTWRITEBYTECODE=1``, so every process compiles every
``ispaces`` module it imports, as the benchmark's child processes do.  The
commands are the exhaustive n = 4 transitivity census, the sampled n = 5
antisymmetry census (10,000 samples), and ``check --properties all`` on a
graph and on a qpoints file.  It prints, per command, the median self time in ms of each
``ispaces`` module loaded and the median of each run's total over them; a
module a command never loads shows ``-``.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = 15
GOLDEN = ROOT / "tests" / "golden"
FMT = ("--format", "structured")
COMMANDS = {
    "census-n4": ("verify", "--theorem", "transitivity", "--n", "4", "--exhaustive", *FMT),
    "census-n5": ("verify", "--theorem", "antisymmetry", "--n", "5", "--samples", "10000", *FMT),
    "check-graph": ("check", str(GOLDEN / "k23.graph"), "--properties", "all", *FMT),
    "check-qpoints": ("check", str(GOLDEN / "q8.qpoints"), "--properties", "all", *FMT),
}


def self_times(argv: tuple[str, ...], src: str) -> dict[str, int]:
    """Self time in µs of each ``ispaces`` module one run of ``argv`` imports."""
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-X", "importtime", "-m", "ispaces", *argv]
    proc = subprocess.run(command, capture_output=True, text=True, env=env, check=True)
    times = {}
    # import time: self [us] | cumulative | imported package
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[2].strip().split(".")[0] == "ispaces":
            times[fields[2].strip()] = int(fields[0])
    return times


def main() -> int:
    medians: dict[str, dict[str, float]] = {}
    with tempfile.TemporaryDirectory(prefix="ispaces-import-cost-") as src:
        shutil.copytree(ROOT / "src" / "ispaces", Path(src) / "ispaces", ignore=shutil.ignore_patterns("__pycache__"))
        for name, argv in COMMANDS.items():
            runs = [self_times(argv, src) for _ in range(RUNS)]
            modules = sorted({m for run in runs for m in run})
            medians[name] = {m: statistics.median(run.get(m, 0) for run in runs) / 1000 for m in modules}
            medians[name]["total"] = statistics.median(sum(run.values()) for run in runs) / 1000
    rows = sorted({m for table in medians.values() for m in table} - {"total"}) + ["total"]
    print(f"ispaces import self time, ms: median of {RUNS} runs, no bytecode (python {sys.version.split()[0]})")
    print(f"{'module':20s}" + "".join(f"{name:>15s}" for name in COMMANDS))
    for row in rows:
        cells = (f"{medians[name][row]:.1f}" if row in medians[name] else "-" for name in COMMANDS)
        print(f"{row:20s}" + "".join(f"{cell:>15s}" for cell in cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
