"""The census commands of the benchmark give the reports stored under ``benchmark/expected``.

The benchmark gates every run on these bytes, so a change that alters a
census report fails here first.  The test only reads the stored files.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from ispaces.cli import main

EXPECTED_DIR = Path(__file__).resolve().parents[1] / "benchmark" / "expected"
#: The benchmark's antisymmetry census: 10,000 samples at n = 5 from one of 16
#: disjoint seed windows.
SAMPLES = 10_000
SEEDS = tuple(range(0, 16 * SAMPLES, SAMPLES))


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def _expected(name: str) -> str:
    return (EXPECTED_DIR / name).read_text(encoding="utf-8")


def test_every_stored_antisymmetry_report_is_covered():
    stored = {p.name for p in EXPECTED_DIR.glob("census-antisymmetry-seed*.json")}
    assert stored == {f"census-antisymmetry-seed{s}.json" for s in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
def test_antisymmetry_census(seed):
    argv = ("verify", "--theorem", "antisymmetry", "--n", "5", "--samples", str(SAMPLES),
            "--seed", str(seed), "--workers", "1", "--format", "structured")
    assert _stdout(argv) == _expected(f"census-antisymmetry-seed{seed}.json")


def test_antisymmetry_census_on_two_workers():
    argv = ("verify", "--theorem", "antisymmetry", "--n", "5", "--samples", str(SAMPLES),
            "--seed", "70000", "--workers", "2", "--format", "structured")
    assert _stdout(argv) == _expected("census-antisymmetry-seed70000.json")


@pytest.mark.parametrize("path", sorted(EXPECTED_DIR.glob("census-*.json")), ids=lambda p: p.stem)
def test_stored_vector_counts_cover_the_qualifying_spaces(path):
    report = json.loads(path.read_text(encoding="utf-8"))
    assert sum(report["vector_counts"].values()) == report["spaces"] - report["hypothesis_excluded"]


def test_transitivity_census():
    argv = ("verify", "--theorem", "transitivity", "--n", "4", "--exhaustive",
            "--workers", "1", "--format", "structured")
    assert _stdout(argv) == _expected("census-transitivity.json")
