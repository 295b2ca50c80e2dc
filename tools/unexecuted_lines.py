#!/usr/bin/env python3
"""Statement lines of ``src/ispaces`` that the tier-1 tests never execute.

    python3 tools/unexecuted_lines.py

Runs the tier-1 tests in this process, as ``PYTHONPATH=src python -m pytest``
would from the repository root, under ``sys.settrace`` and
``threading.settrace``, with hypothesis seeded at 0 so that two runs of one
checkout list the same lines.  Only frames whose code lives in
``src/ispaces`` are traced line by line, and a code object stops being
traced once each of its lines has run, which keeps the run to about 4 min.
It then lists every statement of those modules' syntax trees whose first
line never ran, leaving out docstrings, ``def``, ``class`` and imports.
Tests that run the CLI in a subprocess, and census worker processes, are
not seen.

Each listed line is looked up in :data:`ALLOWED`, keyed by file, enclosing
function and statement text (not by line number, which edits move), and
printed with the entry's reason.  The exit status is 1 when a listed line
has no entry, or an entry matches no listed line, and 0 otherwise.  Test
outcomes do not change it: pytest's exit status is printed, and whether the
tests pass is the tier-1 run's verdict, not this tool's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "ispaces"

PIPE = "the BrokenPipeError handler: only a subprocess test can close the reader's end of a real pipe"
#: (file under src/ispaces, enclosing function, statement text) -> why no test runs it in process.
ALLOWED = {
    ("__main__.py", "<module>", "raise SystemExit(main())"):
        "the `python -m ispaces` entry point; only the subprocess tests of the CLI run it",
    ("cli.py", "<module>", "raise SystemExit(main())"):
        "the entry point of cli.py run as a script; the installed command and -m call main() instead",
    ("cli.py", "main", "devnull = os.open(os.devnull, os.O_WRONLY)"): PIPE,
    ("cli.py", "main", "os.dup2(devnull, sys.stdout.fileno())"): PIPE,
    ("cli.py", "main", "os.close(devnull)"): PIPE,
    ("cli.py", "main", "return 1"): PIPE,
    ("properties.py", "entailment_reverse_witness", "return (b, c)"):
        "the proposition it checks holds on every valid space, so no valid input reaches a breach",
}


def statements(path: Path) -> list[tuple[int, str, str]]:
    """(line, enclosing function, text) of each statement that compiles to code,
    except docstrings, ``def``, ``class`` and imports."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    out = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        body = getattr(node, "body", None)
        docstring = (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        )
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = [*scope, child.name]
            elif isinstance(child, ast.stmt) and not (docstring and child is body[0]) and not isinstance(
                child, (ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)
            ):
                out.append((child.lineno, ".".join(scope) or "<module>", lines[child.lineno - 1].strip()))
            visit(child, inner)

    visit(ast.parse(source, str(path)), [])
    return out


def traced_tier1() -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status, and the lines run of each file under src/ispaces."""
    executed: dict[str, set[int]] = defaultdict(set)
    # The lines run of each file by its name in the code objects, None outside src/ispaces.
    files: dict[str, set[int] | None] = {}
    # The lines of each traced code object; once all of them ran, its calls are not traced.
    code_lines: dict = {}
    prefix = str(PACKAGE) + os.sep

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            path = os.path.realpath(code.co_filename)
            files[code.co_filename] = executed[path] if path.startswith(prefix) else None
        seen = files[code.co_filename]
        if seen is None:
            return None
        lines = code_lines.get(code)
        if lines is None:
            lines = code_lines[code] = frozenset(line for *_, line in code.co_lines() if line is not None)
        if lines <= seen:
            return None

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line

        return line

    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "--hypothesis-seed=0"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), executed


def main() -> int:
    status, executed = traced_tier1()
    print(f"pytest exit status: {status}")
    unexecuted = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = executed.get(os.path.realpath(path), set())
        unexecuted += [(path.name, *s) for s in statements(path) if s[0] not in ran]
    matched, unlisted = set(), 0
    for name, lineno, scope, text in unexecuted:
        reason = ALLOWED.get((name, scope, text))
        matched.add((name, scope, text))
        unlisted += reason is None
        print(f"{name}:{lineno}  {scope}  {text}\n    {reason or 'NOT ALLOWED: no test runs this line'}")
    stale = [key for key in ALLOWED if key not in matched]
    for name, scope, text in stale:
        print(f"stale allowlist entry, every line it names ran or is gone: {name}  {scope}  {text}")
    print(f"{len(unexecuted)} unexecuted statement lines, {unlisted} not allowed, {len(stale)} stale entries")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
