"""The CLI gives the committed stdout, stderr and exit code on fixed commands.

The commands, their input files and the transcripts live in ``tests/golden``;
``tests/golden/make_golden.py`` wrote them and says how to rewrite them.
"""

import json
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN_DIR))

from make_golden import run_in_process  # noqa: E402

TRANSCRIPTS = json.loads((GOLDEN_DIR / "transcripts.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("expected", TRANSCRIPTS, ids=[" ".join(t["argv"])[:60] for t in TRANSCRIPTS])
def test_transcript(expected, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    got = run_in_process(expected["argv"])
    assert (got["exit"], got["stderr"], got["stdout"]) == (expected["exit"], expected["stderr"], expected["stdout"])
