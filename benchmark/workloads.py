"""The benchmark's workloads: generated inputs, CLI invocations and output checks.

Why each workload exists, and why some models are left out, is written up
in README.md next to this file.  Every workload drives the public CLI
(``python -m ispaces ...``) on inputs this module generates; the program
never sees anything else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_DIR = BENCH_DIR / "expected"

WORKLOAD_NAMES = ("census-transitivity", "census-antisymmetry", "check-models")

#: Spaces sampled by one antisymmetry census pass.
ANTISYMMETRY_SAMPLES = 10_000
#: Worker processes of the antisymmetry census in its pool pass (the
#: reference machine's 2 CPUs).  Timed passes use 1 worker: with 2, both
#: CPUs must be free of interference at once (README.md).
POOL_WORKERS = 2
#: The antisymmetry census seed is chosen among this many disjoint sample
#: windows, one stored expected report each.
CENSUS_SEED_VARIANTS = 16

# The checks below do not import ispaces, so the gate does not rest on the
# code it measures.
TRANSITIVITY_CONDITIONS = tuple(f"C{i}" for i in range(1, 10))
ANTISYMMETRY_CONDITIONS = tuple(f"D{i}" for i in range(1, 6))


def _graph(n: int, edges: list[tuple[int, int]]) -> str:
    return f"graph v1\nvertices {n}\n" + "".join(f"edge {u} {v}\n" for u, v in edges)


def _path(n: int) -> str:
    return _graph(n, [(i, i + 1) for i in range(n - 1)])


_RATIONAL_8 = ("0 0", "4 0", "0 4", "1 1", "2 0", "1 2", "3 1", "1/2 3/2")

#: Model file name -> (point count, file text).  C_8 and the rational set
#: have C4/C5 evaluated in full (n <= SUBSET_TRIPLE_CAP = 10); P_12 is past
#: the cap.  README.md says why P_9 and K_{1,8} are left out.
MODELS: dict[str, tuple[int, str]] = {
    "k23.graph": (5, _graph(5, [(i, 2 + j) for i in range(2) for j in range(3)])),
    "c8.graph": (8, _graph(8, [(i, (i + 1) % 8) for i in range(8)])),
    "q8.qpoints": (8, "qpoints v1\ndim 2\n" + "".join(f"point {p}\n" for p in _RATIONAL_8)),
    "p12.graph": (12, _path(12)),
}


def write_models(model_dir: Path) -> list[Path]:
    model_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, (_, text) in MODELS.items():
        path = model_dir / name
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


def census_seed(seed: int) -> int:
    """The antisymmetry census seed for a benchmark seed: a disjoint window of samples."""
    return (seed % CENSUS_SEED_VARIANTS) * ANTISYMMETRY_SAMPLES


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``python -m ispaces <argv>``, checked against ``expected``."""

    kind: str  # "census" or "check"
    argv: tuple[str, ...]
    expected: str  # file name under expected/
    n: int
    spaces: int


def invocations(workload: str, seed: int, model_dir: Path, *, workers: int = 1) -> list[Invocation]:
    """The CLI calls of one pass of ``workload``; ``workers`` sets the census worker count."""
    fmt = ("--format", "structured")
    if workload == "census-transitivity":
        argv = ("verify", "--theorem", "transitivity", "--n", "4", "--exhaustive",
                "--workers", str(workers), *fmt)
        return [Invocation("census", argv, "census-transitivity.json", 4, 4096)]
    if workload == "census-antisymmetry":
        s = census_seed(seed)
        argv = ("verify", "--theorem", "antisymmetry", "--n", "5",
                "--samples", str(ANTISYMMETRY_SAMPLES), "--seed", str(s),
                "--workers", str(workers), *fmt)
        return [Invocation("census", argv, f"census-antisymmetry-seed{s}.json", 5, ANTISYMMETRY_SAMPLES)]
    if workload == "check-models":
        out = []
        for name, (n, _) in MODELS.items():
            argv = ("check", str(model_dir / name), "--properties", "all", *fmt)
            out.append(Invocation("check", argv, f"check-{Path(name).stem}.json", n, 1))
        return out
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOAD_NAMES)}")


def expected_payload(inv: Invocation, stdout: bytes) -> bytes:
    """What is stored under expected/ for a correct ``stdout`` of ``inv``."""
    if inv.kind == "census":
        return stdout
    report = json.loads(stdout)
    kept = {key: report[key] for key in ("n", "flags", "witnesses")}
    return (json.dumps(kept, indent=2) + "\n").encode()


def check_output(inv: Invocation, exit_code: int, stdout: bytes) -> str | None:
    """Why the output of ``inv`` is wrong, or None when it is correct.

    A census must be byte-identical to its stored 1-worker report and
    report 0 violations.  A model check must reproduce the stored flags and
    witnesses, with C1..C9 all equal and D1..D5 all equal whenever the
    interval-transitivity hypothesis is met.
    """
    if exit_code != 0:
        return f"exit code {exit_code}"
    expected = (EXPECTED_DIR / inv.expected).read_bytes()
    try:
        report = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    if inv.kind == "census":
        if stdout != expected:
            return "census report differs from the expected report"
        if report["violations"] != 0:
            return f"{report['violations']} equivalence violations"
        return None
    want = json.loads(expected)
    for key in ("n", "flags", "witnesses"):
        if report.get(key) != want[key]:
            return f"{key} differ from the expected output"
    flags = report["flags"]
    decided = {flags[c] for c in TRANSITIVITY_CONDITIONS if flags[c] is not None}
    if len(decided) > 1:
        return "C1..C9 disagree"
    if "antisymmetry-conditions" not in report["notes"]:
        if len({flags[d] for d in ANTISYMMETRY_CONDITIONS}) > 1:
            return "D1..D5 disagree while the hypothesis is met"
    return None


def output_counts(inv: Invocation, stdout: bytes) -> dict[str, int]:
    """Exact counts read from a correct output: subset triples scanned by
    C4/C5 (sum of 8^n over the spaces where they ran) and spaces where C4/C5
    were skipped."""
    report = json.loads(stdout)
    if inv.kind == "census":
        if report["theorem"] != "transitivity":
            return {"subset_triples": 0, "c45_skipped": 0}
        if "C4" in report["skipped"]:
            return {"subset_triples": 0, "c45_skipped": report["spaces"]}
        return {"subset_triples": report["spaces"] * 8 ** inv.n, "c45_skipped": 0}
    if report["flags"]["C4"] is None:
        return {"subset_triples": 0, "c45_skipped": 1}
    return {"subset_triples": 8 ** inv.n, "c45_skipped": 0}
