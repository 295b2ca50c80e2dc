"""Mutation check: every listed one-edit mutant of ``src/`` must fail the targeted tests.

    python tests/mutants.py            # run every mutant
    python tests/mutants.py 3 7        # run mutants 3 and 7 (numbers as printed)

Each mutant is (file under ``src/ispaces``, exact old text, new text,
reason), optionally followed by the test files that kill it when they are
not ``TESTS``.  For each one the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, replaces the old text, which
must occur exactly once, and runs its test files there (pytest's
``pythonpath`` setting then points at the mutated copy).  A mutant is *killed* when the
tests fail and *survives* when they pass; the time taken is printed with it.

``MUTANTS`` must all be killed.  ``EQUIVALENT`` lists edits that the axioms
or the two theorems make unobservable, each with the reason: they must
survive, and each names a scan that a simplification could drop.  The
unmutated copy runs first, with every test file named, and must pass.  The exit status is 0 when every
verdict is the expected one, 1 otherwise, and 2 when the unmutated tests
fail.  pytest does not collect this file (its name does not start with
``test_``); it needs only the standard library, pytest and hypothesis.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = ("tests/test_sliced.py", "tests/test_properties.py", "tests/test_golden.py")
#: A mutant that loops forever counts as killed once this many seconds pass.
TIMEOUT = 600

MUTANTS = [
    # The scans of the scalar path.
    ("core.py",
     "    for key, mask in family:\n        witness = breach(mask)\n        if witness is not None:\n"
     "            return (*label(key), *witness)\n    return None\n",
     "    last = None\n    for key, mask in family:\n        witness = breach(mask)\n        if witness is not None:\n"
     "            last = (*label(key), *witness)\n    return last\n",
     "the one scan returns the last breach, not the first"),
    ("core.py", "for b in range(a + first, n))", "for b in range(a + 1, n))",
     "the interval family skips b = a"),
    ("properties.py", "_first_breach(space._intervals(), space._order_transitivity_breach)",
     "_first_breach(space._intervals(1), space._order_transitivity_breach)",
     "interval-transitivity skips [a, a]"),
    ("core.py", "        outside = ~am & ((1 << self.n) - 1)\n", "        outside = (1 << self.n) - 1\n",
     "the antisymmetry kernel scans the base set's own points too"),
    ("core.py", "return (x, y, (extra & -extra).bit_length() - 1)", "return (x, y, extra.bit_length() - 1)",
     "the transitivity kernel names the largest z, not the smallest"),
    ("core.py", "            rest_v = rest_u\n", "            rest_v = rest_u & (rest_u - 1)\n",
     "the convexity kernel skips the pair of u with the next point"),
    ("closure.py", "rows = [self._cl_mask(a_mask | (1 << x))", "rows = [(a_mask | (1 << x))",
     "antiexchange rows without cl"),
    # C4/C5 from C3, D5 from D4.
    ("properties.py", '    witnesses["C2"] = _peano_witness(c2_stream, True)\n',
     '    witnesses["C2"] = w3 = _peano_witness(c2_stream, True)\n', "C4/C5 wrap C2's witness"),
    ("properties.py", "for p in w3[:3]), w3[3])", "for p in (w3[0], w3[2], w3[1])), w3[3])",
     "C4/C5 swap b and c in C3's witness"),
    ("properties.py", "PointSet(space.n, 1 << p) for p in w3[:3]", "PointSet(space.n, p) for p in w3[:3]",
     "C4/C5 wrap the point id p as a mask instead of 1 << p"),
    ("properties.py", "None if w3 is None else (*(PointSet(space.n, 1 << p) for p in w3[:3]), w3[3])",
     "w3", "C4/C5 take C3's witness without wrapping its points as sets"),
    ("properties.py", '        "D5": d4,\n', '        "D5": _d3_witness(space, convex),\n',
     "scalar D5 takes D3's witness"),
    # C7 over unions.
    ("properties.py", "            u = am | bm\n", "            u = bm\n", "the C7 witness joins B alone, not A | B"),
    # C9 from C8.
    ("properties.py", "space._hull_mask((1 << a) | (1 << b) | (1 << c))", "space._hull_mask((1 << a) | (1 << b))",
     "the C9 witness reads the hull of {a, b}, not of {a, b, c}"),
    ("properties.py", "(1 << c)) & ~triangles[", "(1 << c)) & triangles[",
     "the C9 witness picks x inside [[a, b], {c}], not outside it"),
    ("properties.py", "& ~triangles[(a * n + b) * n + c]\n    return (a, b, c, (extra & -extra).bit_length() - 1)",
     "& ~triangles[(a * n + b) * n + c]\n    return (a, b, c, extra.bit_length() - 1)",
     "the C9 witness names the largest x, not the smallest"),
    # The sliced kernels.
    ("sliced.py", "for a in pts for b in range(a, n)]", "for a in pts for b in range(a + 1, n)]",
     "sliced C1, C6 and D1 skip [a, a]"),
    ("sliced.py", "for u in range(n - 1) for v", "for u in range(n - 2) for v",
     "the sliced join skips the last u (convexity, C6..C9, D3, D4)"),
    ("sliced.py", "            fail2 |= x & ~y\n", "", "sliced C2 never fails"),
    ("sliced.py", "        fail8 |= _breach(n, ivl, tri)\n", "        fail8 |= _breach(n, ivl, ivl[bc])\n",
     "sliced C8 tests the convexity of [b, c], not of [[a, b], {c}]"),
    ("sliced.py", "            fail6 |= conv & _intransitive(", "            fail6 |= _intransitive(",
     "sliced C6 tests the base order of non-convex sets too"),
    ("sliced.py", "                pairs[am | bm] |= conv_a & convex[bm]\n", "                pairs[am | bm] |= conv_a\n",
     "sliced C7 pairs convex A with every B"),
    ("sliced.py", "pairs[am | bm]", "pairs[bm]", "sliced C7 files each pair under B, not under A | B"),
    ("sliced.py", "_breach(n, ivl, _join(n, ivl, batch.const(um)))", "_breach(n, ivl, batch.const(um))",
     "sliced C7 tests whether the union U is convex, not [U, U]"),
    ("sliced.py", "for c in pts if c != b)", "for c in pts)", "sliced stiffness without c != b"),
    ("sliced.py", "_union(n, ((row_ab[c], fwd[b * n + c]) for c in pts if c != b)), row_ab)",
     "_union(n, ((row_ab[c], fwd[b * n + c]) for c in pts if c != b)), fwd[b * n + ab // n])",
     "sliced stiffness tests the union against <b, a, .>, not <a, b, .>"),
    ("sliced.py", "            fail3 |= conv & _two_way(", "            fail3 |= _two_way(",
     "sliced D3 without its convex[M] mask"),
    ("sliced.py", "excluded[m] = list(map(or_, excluded[m], excluded[m | 1 << b]))", "pass",
     "sliced D4 skips the superset pass: cl(M) is M when M is convex, else every point"),
    ("sliced.py", "excluded[am | 1 << y][x]", "excluded[am | 1 << y][y]",
     "sliced D4 reads the wrong excluded entry: y is in cl(A + {y}), so only y in cl(A + {x}) is tested"),
    ("sliced.py", "[0 if cm >> y & 1 else conv for y in pts]", "[conv if cm >> y & 1 else 0 for y in pts]",
     "sliced D4 starts from the points each convex C holds, not from those it leaves out"),
    ("sliced.py", "        for y in range(x + 1, n):\n            both = row_x[y] & rows[y][x]\n",
     "        for y in range(x + 2, n):\n            both = row_x[y] & rows[y][x]\n",
     "sliced two-way pairs skip y = x + 1 (D1, D3)"),
    ("sliced.py", "    d1, d2, d3, d4 = (evaluated & ~f", "    d1, d2, d3, d4 = (full & ~f",
     "sliced D1..D4 without the evaluated mask"),
    # The sampler.
    ("search.py", "        low = int(u)\n", "        low = int(u) + 1\n",
     "the sampler's byte table ends its '1' run one byte late: t = floor(u) reads '1'"),
    ("search.py", 'b"X" * tie', 'b"0" * tie', "the sampler reads tied draws as '0' without resolving them"),
    ("search.py", "(a >> 5) * 2**26 + (b >> 6) < threshold", "(b >> 5) * 2**26 + (a >> 6) < threshold",
     "the sampler resolves a tie with the words a and b swapped"),
    ("search.py", "raw[3::8]", "raw[7::8]", "the sampler's byte table reads the top byte of b, not of a"),
    # C2, C3 and the transitivity proposition from one stream of triangle breaches.
    ("properties.py", "_peano_witness(c2_stream, True)", "_peano_witness(c2_stream, False)",
     "C2 takes C3's test, a point in exactly one side"),
    ("properties.py", "_peano_witness(c2_stream, True)", "_peano_witness(c3_stream, True)",
     "C2 reads the stream after C3, so it skips the first triangle breach"),
    ("properties.py", "if lhs != rhs:", "if lhs & ~rhs:", "the stream keeps only C2 breaches, so C3 reads one inclusion"),
    ("properties.py", "ivl[t[0] * n + t[1]]) is None)", "ivl[t[0] * n + t[1]]) is not None)",
     "the transitivity proposition keeps the breaches whose [a, b] is intransitive"),
    ("core.py", "self._set_interval_mask(a_set.mask, c_set.mask) >> x", "self._set_interval_mask(a_set.mask, a_set.mask) >> x",
     "set_between reads [A, A], not [A, C]", ("tests/test_core.py",)),
    # Stiffness and the antisymmetry proposition from one stream of stiffness breaches.
    ("properties.py", "            rest_c = row_ab & ~(1 << b)\n", "            rest_c = row_ab\n",
     "the stiffness stream lets c = b, where <b,b,d> always holds"),
    ("properties.py", "ivl[a * n + d]) is None)", "ivl[a * n + d]) is not None)",
     "the antisymmetry proposition keeps the breaches whose [a, d] is not antisymmetric"),
    # The two primitives of the sliced kernels: the member union and the escape test.
    ("sliced.py", "        out |= r & ~m\n", "        out |= r & m\n",
     "the escape test reads the points inside S, not those outside it"),
    ("sliced.py", "_escapes(_union(n, zip(row_x, rows)), row_x)", "_escapes(row_x, row_x)",
     "the sliced transitivity test drops the composition: no row escapes itself (C1, C6)"),
    ("sliced.py", "self.cols = [fwd[x::n] for x in pts]", "self.cols = [fwd[x::n + 1] for x in pts]",
     "the sliced base orders read the rows <p, x, .> with the wrong stride"),
    ("sliced.py", "to = [ivl[c::n] for c in pts]", "to = [ivl[c::n + 1] for c in pts]",
     "the sliced [[a, b], {c}] read the [p, c] with the wrong stride"),
    # base.record, and the ispace writer.
    ("base.py", "        if other.__class__ is self.__class__:\n", "        if hasattr(other, '__dict__'):\n",
     "record equality holds across classes with the same fields", ("tests/test_core.py",)),
    ("base.py", "return hash(values(self))", "return hash(getattr(self, fields[0]))",
     "record hash reads the first field only", ("tests/test_core.py",)),
    ("base.py", "raise AttributeError(f\"cannot assign to field {name!r}\")", "object.__setattr__(self, name, value)",
     "records are not frozen", ("tests/test_core.py",)),
    ("base.py", "        if post_init:\n            self.__post_init__()\n", "",
     "records skip __post_init__", ("tests/test_core.py",)),
    ("base.py", "if cls.__dict__.get(member.__name__) is None:", "if True:",
     "record overwrites the dunders the class defines itself", ("tests/test_core.py",)),
    ("base.py", "defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}", "defaults = {}",
     "record ignores the class attributes as defaults", ("tests/test_core.py",)),
    ("cli.py", "if a < c and b != a and b != c]", "if a < c and b != a]",
     "format_ispace writes the forced triples <a, c, c> too", ("tests/test_cli.py",)),
    # Start-up: each command imports the layers it runs.
    ("cli.py", "from .base import CapExceededError\n",
     "from .base import CapExceededError\nfrom .search import (\n    ExhaustivePopulation,\n    FreeOrbitEncoding,\n    SampledPopulation,\n"
     "    find_separating,\n    verify_antisymmetry_theorem,\n    verify_transitivity_theorem,\n)\n",
     "the CLI imports search at start-up again, so every command compiles it", ("tests/test_cli.py",)),
    ("cli.py", "from .base import CapExceededError\n",
     "from .base import CapExceededError\nfrom .core import PointSet\n",
     "the CLI imports core at start-up again, so a census compiles the space model", ("tests/test_cli.py",)),
    # Rejected input: the library's ValueError is the one check, and main maps it to exit 2.
    ("cli.py", "    except (ValueError, CapExceededError) as exc:\n",
     "    except (SpaceFileError, UsageError, CapExceededError) as exc:\n",
     "main maps only the CLI's own errors to exit 2, so a library ValueError escapes", ("tests/test_cli.py",)),
    # The census.
    ("search.py", "        values = [None if name in skipped else s for name, s in zip(CONDITIONS[theorem], values)]\n",
     "", "the census does not blank the skipped slices"),
    # The census batches' orbit columns, and the chunks they are cut from.
    ("search.py", "full if span.start >> j & 1 else 0", "full if span.stop >> j & 1 else 0",
     "the exhaustive columns above the block's bits read bit j of stop, not of start"),
    ("search.py", "<< (1 << j)) >> low & full", "<< (1 << j)) & full",
     "the exhaustive columns below the block's bits lose their shift by start mod 4096"),
    ("search.py", "int(text[j::m] or b\"0\", 2)", "int(text[j::m + 1] or b\"0\", 2)",
     "the sampled columns take every (m + 1)-th byte, not every m-th"),
    ("search.py", "    chunk = -(-chunk // min_chunk) * min_chunk\n", "    chunk = max(min_chunk, chunk)\n",
     "census chunks are no shorter than a batch but no longer start on a multiple of one"),
    # The census path: a batch of at least 2^n spaces runs sliced.
    ("search.py", "    return size >= 1 << n\n", "    return size >= 1 << n + 1\n",
     "the census slices a batch only from 2^(n+1) spaces", ("tests/test_sliced.py",)),
    ("search.py", "    return size >= 1 << n\n", "    return size >= 1 << n - 1\n",
     "the census slices a batch from 2^(n-1) spaces", ("tests/test_sliced.py",)),
    ("search.py", "_sliced(population.n, min(total, sliced.BATCH))", "_sliced(population.n, total)",
     "chunks start on batches wherever the population reaches 2^n, even where no batch of 4096 does",
     ("tests/test_sliced.py",)),
]

EQUIVALENT = [
    ("sliced.py", "return (c1, c2, c3, c3, c3, c6", "return (c1, c2, c3, c2, c2, c6",
     "sliced C4/C5 take C2's value: the transitivity theorem makes C2 = C3 on every space"),
    ("sliced.py", "return (d1, d2, d3, d4, d4), evaluated", "return (d1, d2, d3, d4, d3), evaluated",
     "sliced D5 takes D3's value: D3 = D4 on the interval-transitive spaces the evaluated mask keeps"),
    ("sliced.py", "            fail3 |= x ^ y\n", "            fail3 |= x & ~y\n",
     "sliced C3 tests one inclusion, which is C2: the transitivity theorem makes C2 = C3"),
    ("sliced.py", "c7, c8, c8)", "c7, c8, c2)",
     "sliced C9 takes C2's value: the transitivity theorem makes C2 = C8, whose value C9 takes"),
    ("sliced.py", "        if m:\n            for x in pts:\n                out[x] |= m & s[x]\n",
     "        for x in pts:\n            out[x] |= m & s[x]\n",
     "the sliced union without its zero test: a zero mask adds nothing"),
    ("core.py", "self._set_interval_mask(a_set.mask, c_set.mask) >> x", "self._set_interval_mask(c_set.mask, a_set.mask) >> x",
     "set_between reads [C, A]: [a, c] = [c, a] by middle symmetry, so [A, C] = [C, A]", ("tests/test_core.py",)),
]


def _tests(edit: tuple) -> tuple[str, ...]:
    return edit[4] if len(edit) > 4 else TESTS


def _run(edit: tuple | None, tests: tuple[str, ...]) -> tuple[str, float]:
    """'killed', 'survived' or 'stale' (the old text does not occur exactly once), and the seconds taken."""
    with tempfile.TemporaryDirectory(prefix="ispaces-mutant-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", work / "tests", ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", work)
        if edit is not None:
            target = work / "src" / "ispaces" / edit[0]
            text = target.read_text(encoding="utf-8")
            if text.count(edit[1]) != 1:
                return "stale", 0.0
            target.write_text(text.replace(edit[1], edit[2]), encoding="utf-8")
        command = [sys.executable, "-B", "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   "--hypothesis-seed=0", *tests]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        start = time.perf_counter()
        try:
            code = subprocess.run(command, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                  timeout=TIMEOUT).returncode
        except subprocess.TimeoutExpired:
            code = -1
        return ("killed" if code else "survived"), time.perf_counter() - start


def main(argv: list[str]) -> int:
    plan = [(m, "killed") for m in MUTANTS] + [(m, "survived") for m in EQUIVALENT]
    chosen = [int(a) for a in argv] if argv else range(1, len(plan) + 1)
    status, seconds = _run(None, tuple(sorted({t for m, _ in plan for t in _tests(m)})))
    print(f"unmutated    {seconds:6.1f} s  {'pass' if status == 'survived' else 'FAIL'}", flush=True)
    if status != "survived":
        return 2
    wrong = 0
    total = time.perf_counter()
    for number in chosen:
        mutant, expected = plan[number - 1]
        status, seconds = _run(mutant, _tests(mutant))
        mark = "" if status == expected else "  <-- expected " + expected
        wrong += status != expected
        kind = "equivalent: " if expected == "survived" else ""
        print(f"{number:2d} {status:9s} {seconds:6.1f} s  {mutant[0]}: {kind}{mutant[3]}{mark}", flush=True)
    print(f"{len(chosen) - wrong} of {len(chosen)} as expected in {time.perf_counter() - total:.0f} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
