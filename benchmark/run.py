#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ispaces command line.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
Every timed pass is a fresh ``python -m ispaces`` process, so no pass sees
module caches warmed by an earlier one.  With ``--trace 0`` a run
alternates set-up probes and timed passes until ``--seconds`` have passed
(at least MIN_PASSES passes and MIN_SETUPS probes) and reports the
end-to-end metrics; timed_run says which statistic each one uses.  Every
timing is scaled to a reference machine speed, measured by a speed probe
on either side of each process (Child).  With
``--trace 1`` it alternates an untraced pass with a traced one
(benchmark/tracer.py) and reports the per-layer metrics.  Every output is
checked (workloads.check_output); the last line of stdout is the JSON
result.  Per-pass figures and the environment go to
``.bench_work/result-<workload>-<trace>.json``.  README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import workloads

ROOT = workloads.BENCH_DIR.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")
MODEL_DIR = WORK / "models"

MIN_PASSES = 3
MIN_SETUPS = 9
#: A child still running after this many seconds is killed and counted failed.
CHILD_TIMEOUT_S = 150.0

CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}


#: Iterations of speed_probe's loop.
PROBE_ITERATIONS = 100_000
#: speed_probe's time in the fast stretches of the machine the benchmark was
#: tuned on (a shared 2-CPU VM, Python 3.11.7).  Timings are reported at
#: this speed; see Child.scale.
REFERENCE_PROBE_S = 0.013


def speed_probe() -> float:
    """Median seconds of three runs of a fixed piece of pure-Python work,
    integer and list operations like the program's own inner loops."""
    table = list(range(256))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_ITERATIONS):
            m = i & 255
            acc = (acc + (table[m ^ (acc & 255)] | (m << 3))) & 0xFFFFFF
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedLog:
    """The latest speed probe: the probe after one child serves as the probe
    before the next."""

    def __init__(self) -> None:
        self.last = speed_probe()


class Child:
    """Wall time, CPU time (with waited-for descendants) and peak RSS of one process.

    A speed probe runs right before and right after the process.  ``scale``
    is REFERENCE_PROBE_S over their mean: ``wall * scale`` is the wall time
    the process would have taken at the reference speed.  The machine's
    speed drifts by up to 1.75x over minutes, and the probe drifts with it.
    The probe runs in this process while no program process runs, so no
    change to the program can move it.
    """

    def __init__(self, argv: list[str], stdout_path: Path, speed: SpeedLog):
        before = speed.last
        with open(stdout_path, "wb") as out, open(WORK / "stderr.log", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=CHILD_ENV,
                                    start_new_session=True)
            # On timeout the whole process group is killed, census workers included.
            timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall = time.perf_counter() - start
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = stdout_path.read_bytes()
        speed.last = speed_probe()
        self.scale = 2 * REFERENCE_PROBE_S / (before + speed.last)


class Pass:
    """One pass of a workload: its CLI calls run one after another."""

    def __init__(self, invs: list[workloads.Invocation], speed: SpeedLog, traced: bool = False):
        self.wall = self.cpu = self.rss_mb = 0.0
        self.scaled_wall = 0.0
        self.calls: dict[workloads.Invocation, Child] = {}
        self.failures: list[str] = []
        self.outputs: list[bytes] = []
        self.traces: list[dict] = []
        for i, inv in enumerate(invs):
            if traced:
                spans_path = WORK / f"spans-{i}.json"
                child = Child(["benchmark/tracer.py", str(spans_path), *inv.argv], WORK / "stdout.txt", speed)
            else:
                child = Child(["-m", "ispaces", *inv.argv], WORK / "stdout.txt", speed)
            self.calls[inv] = child
            self.wall += child.wall
            self.scaled_wall += child.wall * child.scale
            self.cpu += child.cpu
            self.rss_mb = max(self.rss_mb, child.rss_mb)
            self.outputs.append(child.stdout)
            problem = workloads.check_output(inv, child.exit_code, child.stdout)
            if problem is not None:
                self.failures.append(f"{' '.join(inv.argv)}: {problem}")
            if traced:
                self.traces.append(json.loads(spans_path.read_text(encoding="utf-8")) if child.exit_code == 0 else {})


def setup_probe(workload: str, seed: int, model_paths: list[Path], speed: SpeedLog) -> Child:
    if workload == "census-antisymmetry":
        extra = [str(workloads.census_seed(seed)), str(workloads.ANTISYMMETRY_SAMPLES)]
    elif workload == "check-models":
        extra = [str(p) for p in model_paths]
    else:
        extra = []
    return Child(["benchmark/setup_probe.py", workload, *extra], WORK / "setup.txt", speed)


def timed_run(workload: str, seed: int, seconds: float, model_paths: list[Path], speed: SpeedLog) -> dict:
    invs = workloads.invocations(workload, seed, MODEL_DIR)
    rng = random.Random(seed)
    spaces = sum(inv.spaces for inv in invs)
    deadline = time.perf_counter() + seconds
    setups: list[Child] = []
    passes: list[Pass] = []
    failures: list[str] = []
    attempted = 0
    # Set-up probes and passes alternate, so drift of the machine's speed
    # lands on both metrics alike: the first MIN_PASSES passes are each
    # preceded by a share of the MIN_SETUPS probes, later ones by one probe.
    # The call order within a pass is shuffled.
    while True:
        share = -(-MIN_SETUPS * (len(passes) + 1) // MIN_PASSES)
        while True:
            probe = setup_probe(workload, seed, model_paths, speed)
            attempted += 1
            if probe.exit_code != 0:
                failures.append(f"set-up probe: exit code {probe.exit_code}")
            setups.append(probe)
            if len(setups) >= share:
                break
        p = Pass(rng.sample(invs, len(invs)), speed)
        attempted += len(invs)
        failures.extend(p.failures)
        passes.append(p)
        typical = statistics.median(q.wall for q in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() + typical > deadline:
            break
    if workload == "census-antisymmetry":
        # One untimed pass on the pool checks that the report does not
        # depend on the worker count.
        pooled = Pass(workloads.invocations(workload, seed, MODEL_DIR, workers=workloads.POOL_WORKERS), speed)
        attempted += 1
        failures.extend(pooled.failures)
    # Timings are at the reference speed (Child.scale): a pass is the sum
    # over its CLI calls of each call's median scaled time.
    def scaled(attr: str) -> float:
        return sum(statistics.median(getattr(p.calls[inv], attr) * p.calls[inv].scale for p in passes)
                   for inv in invs)

    wall = scaled("wall")
    metrics = {
        "wall_s": (wall, "s"),
        "cpu_s": (scaled("cpu"), "s"),
        "spaces_per_s": (spaces / wall, "1/s"),
        "setup_s": (statistics.median(c.wall * c.scale for c in setups), "s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB"),
        "ok_frac": ((attempted - len(failures)) / attempted, "ratio"),
    }
    raw = {
        "pass_wall_s": [p.wall for p in passes],
        "pass_cpu_s": [p.cpu for p in passes],
        "pass_rss_mb": [p.rss_mb for p in passes],
        "call_wall_s": {inv.expected: [p.calls[inv].wall for p in passes] for inv in invs},
        "call_scale": {inv.expected: [p.calls[inv].scale for p in passes] for inv in invs},
        "setup_s": [c.wall for c in setups],
        "setup_scale": [c.scale for c in setups],
        "unscaled_median_wall_s": sum(statistics.median(p.calls[inv].wall for p in passes) for inv in invs),
        "unscaled_median_setup_s": statistics.median(c.wall for c in setups),
    }
    return {"metrics": metrics, "attempted": attempted, "failures": failures, "raw": raw}


#: Per-layer time metric -> the tracer's span name; the value is the
#: inclusive seconds of those spans in one traced pass, at the reference
#: speed (Child.scale).
SPAN_METRICS = {
    "search.decode_s": "search.decode",
    "search.sample_s": "search.sample",
    "properties.transitivity_conditions_s": "properties.transitivity_conditions",
    "properties.antisymmetry_conditions_s": "properties.antisymmetry_conditions",
    "properties.hypothesis_s": "properties.hypothesis",
    "properties.named_witnesses_s": "properties.named_witnesses",
    "properties.property_report_s": "properties.property_report",
    "closure.system_s": "closure.system",
    "closure.antiexchange_s": "closure.antiexchange",
    "closure.combinatorial_s": "closure.combinatorial",
    "closure.antimatroid_s": "closure.antimatroid",
    "core.convex_sets_s": "core.convex_sets",
    "core.subset_table_s": "core.subset_table",
    "core.validate_s": "core.validate",
    "models.build_s": "models.build",
    "cli.load_s": "cli.load",
    "cli.render_s": "cli.render",
}


def _layer_figures(traced: Pass, invs: list[workloads.Invocation]) -> tuple[Counter, Counter, float, set[str]]:
    """Inclusive seconds and call counts per span name, counters, summed
    top-level span time and unwrapped boundaries of a traced pass; times
    are scaled to the reference speed."""
    seconds: Counter = Counter()
    counts: Counter = Counter()
    top = 0.0
    missing: set[str] = set()
    for trace, inv, out in zip(traced.traces, invs, traced.outputs):
        scale = traced.calls[inv].scale
        for name, start, end, parent in trace.get("spans", []):
            seconds[name] += (end - start) * scale
            counts[f"{name}.calls"] += 1
            if parent < 0:
                top += (end - start) * scale
        counts.update(trace.get("counts", {}))
        missing.update(trace.get("missing", []))
        if workloads.check_output(inv, 0, out) is None:
            counts.update(workloads.output_counts(inv, out))
    return seconds, counts, top, missing


def _met_ratio(counts: Counter) -> float:
    """Interval-transitivity hypothesis met over attempted: the census filter's
    calls, or else the D1..D5 evaluations; 0 where neither ran."""
    if counts["properties.hypothesis.calls"]:
        return counts["hypothesis.met"] / counts["properties.hypothesis.calls"]
    if counts["properties.antisymmetry_conditions.calls"]:
        return counts["antisymmetry_conditions.hypothesis_met"] / counts["properties.antisymmetry_conditions.calls"]
    return 0.0


def traced_run(workload: str, seed: int, seconds: float, speed: SpeedLog) -> dict:
    # Spans are kept in one process, so the traced census runs with 1
    # worker, like the untraced pass it is compared with.  The antisymmetry
    # census also runs once per round on POOL_WORKERS workers, which gives
    # the pool's idle share and checks the pooled report against the
    # 1-worker one.
    invs = workloads.invocations(workload, seed, MODEL_DIR)
    workers = workloads.POOL_WORKERS if workload == "census-antisymmetry" else 1
    pool_invs = workloads.invocations(workload, seed, MODEL_DIR, workers=workers)
    deadline = time.perf_counter() + seconds
    rounds: list[dict[str, float]] = []
    round_counts: list[dict[str, float]] = []
    failures: list[str] = []
    attempted = 0
    missing: set[str] = set()
    while True:
        untraced = Pass(invs, speed)
        traced = Pass(invs, speed, traced=True)
        pooled = Pass(pool_invs, speed) if pool_invs != invs else untraced
        for p in {id(q): q for q in (untraced, traced, pooled)}.values():
            attempted += len(invs)
            failures.extend(p.failures)
        secs, counts, top, missing = _layer_figures(traced, invs)
        figures = {metric: secs[span] for metric, span in SPAN_METRICS.items()}
        figures["search.pool_idle_frac"] = 1.0 - pooled.cpu / (workers * pooled.wall)
        figures["trace.coverage"] = top / traced.scaled_wall
        figures["traced_wall_s"] = traced.scaled_wall
        figures["untraced_wall_s"] = untraced.scaled_wall
        rounds.append(figures)
        round_counts.append({
            "search.spaces": counts["search.decode.calls"],
            "properties.hypothesis_met_ratio": _met_ratio(counts),
            "properties.subset_triples": counts["subset_triples"],
            "properties.c45_skipped": counts["c45_skipped"],
            "core.convex_sets": counts["core.convex_sets"],
            "closure.closed_sets": counts["closure.closed_sets"],
        })
        if time.perf_counter() > deadline - (traced.wall + untraced.wall + pooled.wall) / 2:
            break
    if any(c != round_counts[0] for c in round_counts):
        failures.append(f"per-layer counts differ between traced passes: {round_counts}")
    if missing:
        print(f"warning: layer boundaries not found, their spans are absent: {', '.join(sorted(missing))}",
              file=sys.stderr)
    # Layer times take the median round, like the end-to-end timings.
    metrics: dict[str, tuple[float, str]] = {
        name: (statistics.median(r[name] for r in rounds), "s") for name in SPAN_METRICS
    }
    for name in ("search.pool_idle_frac", "trace.coverage"):
        metrics[name] = (statistics.median(r[name] for r in rounds), "ratio")
    overhead = (statistics.median(r["traced_wall_s"] for r in rounds)
                / statistics.median(r["untraced_wall_s"] for r in rounds) - 1.0)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    for name, value in round_counts[0].items():
        metrics[name] = (value, "ratio" if name.endswith("_ratio") else "count")
    metrics["fail_frac"] = (len(failures) / attempted, "ratio")
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "raw": {"rounds": rounds, "counts": round_counts, "missing_boundaries": sorted(missing)}}


def _git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ispaces").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ispaces" / "__init__.py").is_file():
        print(f"error: no ispaces package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    WORK.mkdir(exist_ok=True)
    model_paths = workloads.write_models(MODEL_DIR)
    # One untimed start-up compiles the package's bytecode, as any earlier run would have.
    speed = SpeedLog()
    warm = setup_probe(args.workload, args.seed, model_paths, speed)
    if warm.exit_code != 0:
        print(f"error: set-up probe failed with exit code {warm.exit_code}; see {WORK / 'stderr.log'}",
              file=sys.stderr)
        return 1
    if args.trace:
        result = traced_run(args.workload, args.seed, args.seconds, speed)
    else:
        result = timed_run(args.workload, args.seed, args.seconds, model_paths, speed)
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, **result}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    (WORK / f"result-{args.workload}-{args.trace}.json").write_text(json.dumps(record, indent=2))
    for failure in result["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
