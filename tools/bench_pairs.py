#!/usr/bin/env python3
"""Benchmark a change against its parent commit and write BENCH_<label>.json.

    python3 tools/bench_pairs.py --label NAME [--parent REV]

Run from anywhere inside the repository.  The parent side is REV (default
HEAD, for a change not yet committed), exported with ``git archive``; the
change side is the working tree as it stands, its tracked and unignored
files copied.  The script stops with exit status 2 if the working tree does
not differ from REV, as after committing the change with REV left at HEAD.  Both go into fresh
directories under one temporary directory, so neither side runs with files
the other lacks, such as bytecode caches or benchmark scratch output.
The script runs ``benchmark/run.py --trace 0`` for ``run_seconds`` of
``BENCHMARK.json`` on each side in alternating pairs, ``PAIRS`` (10) on
every workload, enough to judge a gain claim on any of them: pair i uses
seed i + 1, and the side that runs first alternates, so
slow drift on the machine falls on both sides alike.  Each side builds from
its own ``src/``.

The output holds, per workload and end-to-end metric, the median and
quartiles of each side and ``change_wins``: the pairs in which the change
was strictly better, in the direction ``BENCHMARK.json`` gives the metric.
``runs`` keeps the last stdout line of every run.py call.
``PYTHONDONTWRITEBYTECODE`` holds that variable as the runs inherited it
(null when unset): run.py passes it on to every child, and where it is set
no process finds bytecode, so each compiles the modules it imports and
every ``wall_s`` and ``setup_s`` is about a third higher.  A run that
exits non-zero, prints no result or reports ``"correct": false`` stops the
script with exit status 1 and writes nothing.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import shutil
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def differs(rev: str) -> bool:
    """Whether the working tree's tracked or unignored files differ from ``rev``."""
    tracked = subprocess.run(["git", "diff", "--quiet", rev, "--"], cwd=ROOT).returncode != 0
    return tracked or bool(git("ls-files", "--others", "--exclude-standard"))


def export(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest``; nothing in the repository changes."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest)


def copy_working_tree(dest: Path) -> None:
    """Copy the working tree's tracked and unignored files into ``dest``."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        source = ROOT / os.fsdecode(name)
        if name and source.is_file():
            target = dest / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or result.get("correct") is not True:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} failed (exit {proc.returncode})")
    return result


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4), "runs": len(values)}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    summary: dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        out = summary[workload] = {}
        for metric in sorted(better):
            sides = {side: [p[side][metric]["value"] for p in pairs.values()] for side in ("parent", "change")}
            sign = 1 if better[metric] == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
            out[metric] = {side: quartiles(values) for side, values in sides.items()}
            out[metric]["change_wins"] = f"{wins}/{len(pairs)}"
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side (default HEAD)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent = git("rev-parse", "--short", args.parent).decode().strip()
    if not differs(parent):
        parser.error(f"the working tree does not differ from {args.parent}; pass the change's parent as --parent")
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export(parent, checkouts["parent"])
        copy_working_tree(checkouts["change"])
        for workload in (w["name"] for w in spec["workloads"]):
            for pair in range(PAIRS):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order):
                    result = run_once(checkouts[side], workload, pair + 1, seconds)
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"{workload} pair {pair} {side}: wall_s {wall:.4f}", file=sys.stderr)
                    runs.append({"workload": workload, "seed": pair + 1, "pair": pair, "side": side,
                                 "order": position, "result": result})
    doc = {
        "label": args.label,
        "what": (f"benchmark/run.py --seconds {seconds:g} --trace 0, parent and change in alternating pairs, "
                 "one seed per pair; each entry of runs is the last stdout line of one run.py call "
                 "(tools/bench_pairs.py)"),
        "parent": parent,
        "machine": f"{os.cpu_count()}-CPU {platform.system()}, Python {platform.python_version()}",
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "summary": summarize(runs, better),
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
