"""Golden CLI transcripts: the input files and the expected output of fixed commands.

``transcripts.json`` holds, for each command, its argv and the stdout, stderr
and exit code that ``ispaces`` gave when the file was written.
``tests/test_golden.py`` runs every command through ``cli.main`` inside this
directory and requires the same three.

    PYTHONPATH=src python tests/golden/make_golden.py           # rewrite inputs and transcripts
    PYTHONPATH=src python tests/golden/make_golden.py --check   # compare via python -m ispaces

``--check`` runs each command as a subprocess of the running interpreter, so
the transcripts can be checked under any supported Python without pytest.
Rewrite the transcripts only when an output change is intended.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import ispaces as I
from ispaces.cli import format_ispace, main

GOLDEN_DIR = Path(__file__).resolve().parent
TRANSCRIPTS = GOLDEN_DIR / "transcripts.json"


def _graph(n: int, edges) -> str:
    return f"graph v1\nvertices {n}\n" + "".join(f"edge {u} {v}\n" for u, v in edges)


_RATIONAL_8 = ("0 0", "4 0", "0 4", "1 1", "2 0", "1 2", "3 1", "1/2 3/2")


def _inputs() -> dict[str, str]:
    """Input file name -> text."""
    files = {
        "k23.graph": _graph(5, I.complete_bipartite_graph(2, 3).edges()),
        "c8.graph": _graph(8, [(i, (i + 1) % 8) for i in range(8)]),
        "c9.graph": _graph(9, [(i, (i + 1) % 9) for i in range(9)]),
        "p12.graph": _graph(12, I.path_graph(12).edges()),
        "k18.graph": _graph(9, I.complete_bipartite_graph(1, 8).edges()),
        "q8.qpoints": "qpoints v1\ndim 2\n" + "".join(f"point {p}\n" for p in _RATIONAL_8),
        "empty14.ispace": "ispace v1\npoints 14\n",
    }
    # Sparse samples: they keep some properties, so witnesses sit past the first pair.
    for n, seed, density in ((4, 106, 0.1), (5, 105, 0.2), (6, 106, 0.1), (7, 108, 0.05)):
        files[f"s{n}.ispace"] = format_ispace(I.random_space(n, seed, density))
    return files


COMMANDS: tuple[tuple[str, ...], ...] = (
    ("check", "k23.graph"),
    ("check", "c8.graph", "--format", "structured"),
    ("check", "c9.graph"),
    ("check", "p12.graph"),
    ("check", "k18.graph"),
    ("check", "q8.qpoints"),
    # Every subset of a space with no free triples is convex, so C7 alone
    # would scan (2^14)^2 set pairs: the C conditions are left out here.
    (
        "check", "empty14.ispace", "--properties",
        "point-transitive,point-antisymmetric,interval-transitive,interval-antisymmetric,interval-convex,"
        "stiff,antiexchange,combinatorial,antimatroid,D1,D2,D3,D4,D5",
    ),
    ("check", "s4.ispace"),
    ("check", "s5.ispace", "--format", "structured"),
    ("check", "s6.ispace"),
    ("check", "s7.ispace", "--allow-large", "--properties", "C4,C5,D4,D5,antiexchange"),
    ("order", "c8.graph", "--point", "0"),
    ("order", "s6.ispace", "--set", "0,2,5", "--format", "structured"),
    ("order", "k23.graph", "--set", "-"),
    ("hull", "q8.qpoints", "--set", "1,2"),
    ("interval", "c9.graph", "0", "4"),
    ("set-interval", "p12.graph", "--A", "0,5", "--C", "9"),
    ("enumerate", "--n", "3", "--list"),
    ("verify", "--theorem", "transitivity", "--n", "4", "--exhaustive"),
    ("verify", "--theorem", "antisymmetry", "--n", "4", "--exhaustive", "--format", "structured"),
    ("verify", "--theorem", "transitivity", "--n", "5", "--samples", "5000"),
    ("verify", "--theorem", "antisymmetry", "--n", "5", "--samples", "5000", "--seed", "7"),
    ("verify", "--theorem", "antisymmetry", "--n", "5", "--samples", "5000", "--workers", "2"),
    ("verify", "--theorem", "transitivity", "--n", "6", "--samples", "40", "--seed", "3"),
    ("verify", "--theorem", "antisymmetry", "--n", "6", "--samples", "500"),
    ("verify", "--theorem", "transitivity", "--n", "6", "--samples", "60", "--density", "0.9"),
    # Census mixes: sliced batches of 4096 spaces, and at n = 7 a 104-space scalar tail.
    ("verify", "--theorem", "transitivity", "--n", "6", "--samples", "4096", "--format", "structured"),
    ("verify", "--theorem", "antisymmetry", "--n", "8", "--samples", "4096", "--format", "structured"),
    ("verify", "--theorem", "transitivity", "--n", "7", "--samples", "4200", "--format", "structured"),
    ("search", "--want", "interval-transitive", "--want-not", "interval-antisymmetric"),
    ("search", "--want", "stiff", "--want-not", "interval-convex", "--format", "structured"),
    (
        "search", "--want", "point-transitive,interval-convex", "--want-not", "antimatroid",
        "--ns", "5,6", "--max-spaces", "2000",
    ),
    ("search", "--want", "antimatroid", "--want-not", "point-antisymmetric", "--ns", "3,4", "--max-spaces", "300"),
    ("check", "missing.ispace"),
    ("verify", "--theorem", "transitivity", "--n", "5", "--exhaustive"),
)


def run_in_process(argv) -> dict:
    """stdout, stderr and exit code of ``cli.main(argv)`` in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def run_subprocess(argv) -> dict:
    """The same through ``python -m ispaces`` with the running interpreter and
    the ``ispaces`` package imported here."""
    src = str(Path(I.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ispaces", *argv], cwd=GOLDEN_DIR, env=env, capture_output=True, text=True, check=False
    )
    return {"stdout": proc.stdout, "stderr": proc.stderr, "exit": proc.returncode}


def write() -> None:
    for name, text in _inputs().items():
        (GOLDEN_DIR / name).write_text(text, encoding="utf-8")
    os.chdir(GOLDEN_DIR)
    transcripts = [{"argv": list(argv), **run_in_process(argv)} for argv in COMMANDS]
    TRANSCRIPTS.write_text(json.dumps(transcripts, indent=1) + "\n", encoding="utf-8")


def check() -> int:
    transcripts = json.loads(TRANSCRIPTS.read_text(encoding="utf-8"))
    mismatches = 0
    for expected in transcripts:
        got = run_subprocess(expected["argv"])
        differ = [key for key in ("stdout", "stderr", "exit") if got[key] != expected[key]]
        if differ:
            mismatches += 1
            print(f"{' '.join(expected['argv'])}: {', '.join(differ)} differ", file=sys.stderr)
    print(f"{mismatches} of {len(transcripts)} commands differ ({sys.version.split()[0]})", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare through python -m ispaces instead of writing")
    raise SystemExit(check() if parser.parse_args().check else write())
