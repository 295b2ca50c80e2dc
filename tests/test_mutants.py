"""Every entry of the mutation check still applies to ``src/``.

``tests/mutants.py`` reports an entry as stale when its old text does not
occur exactly once in its file, and a stale entry tests nothing.  The
mutation check takes about a quarter of an hour; this test applies the same
rule to every entry, numbered as that script prints them, in well under a
second.
"""

from pathlib import Path

import pytest

from mutants import EQUIVALENT, MUTANTS

SRC = Path(__file__).resolve().parents[1] / "src" / "ispaces"
PLAN = MUTANTS + EQUIVALENT


@pytest.mark.parametrize("number", range(1, len(PLAN) + 1))
def test_old_text_occurs_once(number):
    file, old, _, reason, *_ = PLAN[number - 1]
    assert (SRC / file).read_text(encoding="utf-8").count(old) == 1, reason
