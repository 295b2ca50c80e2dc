"""README.md agrees with the code it describes."""

import re
import sys
from pathlib import Path

import mutants

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))

from make_golden import COMMANDS  # noqa: E402

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_mutant_counts_match_the_mutation_check():
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert re.findall(r"Each of its (\d+) mutants", text) == [str(len(mutants.MUTANTS))]
    assert re.findall(r"Each of its (\d+) equivalent mutants", text) == [str(len(mutants.EQUIVALENT))]


def test_golden_count_matches_the_commands():
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert re.findall(r"replays (\d+) fixed CLI commands", text) == [str(len(COMMANDS))]
