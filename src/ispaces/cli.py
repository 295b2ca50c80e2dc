"""Command-line interface and flat-file formats for interval spaces.

Three input formats, recognized by their first line:

    ispace v1            graph v1             qpoints v1
    points N             vertices N           dim D
    triple a x c         edge u v             point 1/2 3 -4/5
    ...                  ...                  ...

Blank lines and ``#`` comments are allowed.  The ispace loader inserts
every axiom-forced triple and the middle-symmetric partner of each listed
triple, so a file only needs free representatives; an explicit thinness
breach (``triple a x a`` with x != a) is rejected at its line.  Graphs must
be simple and connected, rational points pairwise distinct and at most
`MAX_POINTS` of them; coordinate tokens are ``p/q`` or plain integers.

Subset flags (--set, --A, --C) take comma-separated ids; ``-`` is the empty
set.  Every command renders one report: aligned text by default, or the
same content as a single JSON document with ``--format structured``.

Exit status: 0 on success, 1 when a census finds equivalence violations,
2 on usage and parse errors (a point or vertex count above `MAX_POINTS` is
a parse error) and on work over the budget (``--allow-large`` lifts it).
A rejected argument exits 2 with the message of the library call that
checks it (`main` prints any ``ValueError``); ``verify --exhaustive`` reads
neither ``--seed`` nor ``--density``.
Every loader builds a valid table by construction, so no input file fails
the axioms and none is scanned for them.  When the reader of stdout goes
away before the report is written (``ispaces ... | head``), the command
exits 1 without a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Any

# core, models, properties and search are imported where a command runs them.
from .base import CapExceededError


#: Largest point or vertex count a file may declare, and the most points a
#: qpoints file may list.  Loading n points builds n^3-bit tables: at 256 an
#: ispace file with no triples loads in about 0.4 s, 256 collinear rational
#: points in about 2.7 s and a 256-vertex path in about 5 s (2-CPU VM,
#: Python 3.11).
MAX_POINTS = 256

#: A qpoints coordinate: an integer or p/q.  ``Fraction`` alone also takes
#: decimals and exponents, and ``Fraction('1e10000000')`` takes 13 s.
_RATIONAL_TOKEN = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class SpaceFileError(ValueError):
    """A file could not be parsed or names an impossible relation entry."""

    def __init__(self, path: str, line: int | None, message: str):
        self.path = path
        self.line = line
        self.message = message
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")


class UsageError(ValueError):
    """Bad command-line arguments beyond what argparse can see."""


# ---------------------------------------------------------------------------
# File formats


def _content_lines(path: str) -> list[tuple[int, str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except OSError as exc:
        raise SpaceFileError(path, None, f"cannot read file: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpaceFileError(path, None, f"not UTF-8 text: byte {exc.start} cannot be decoded") from None
    out = []
    for lineno, line in enumerate(raw, start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body))
    return out


def _expect_int(path: str, lineno: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise SpaceFileError(path, lineno, f"{what} must be an integer, got {token!r}") from None


def _header_count(path: str, lines: list[tuple[int, str]], form: str, what: str, limit: int | None) -> int:
    """N from the second line, which must read ``form`` (e.g. 'points N'):
    an integer from 1 up to ``limit`` (None: no upper bound)."""
    keyword = form.split()[0]
    if len(lines) < 2 or lines[1][1].split()[0] != keyword:
        raise SpaceFileError(path, lines[1][0] if len(lines) > 1 else None, f"expected {form!r}")
    lineno, header = lines[1]
    parts = header.split()
    if len(parts) != 2:
        raise SpaceFileError(path, lineno, f"expected {form!r}")
    n = _expect_int(path, lineno, parts[1], what)
    if n < 1:
        raise SpaceFileError(path, lineno, f"{what} must be at least 1")
    if limit is not None and n > limit:
        raise SpaceFileError(path, lineno, f"{what} {n} exceeds the limit of {limit}")
    return n


def _load_ispace(path: str, lines: list[tuple[int, str]]) -> FiniteIntervalSpace:
    n = _header_count(path, lines, "points N", "point count", MAX_POINTS)
    triples: list[tuple[int, int, int]] = []
    for lineno, body in lines[2:]:
        parts = body.split()
        if parts[0] != "triple" or len(parts) != 4:
            raise SpaceFileError(path, lineno, f"expected 'triple a x c', got {body!r}")
        a, x, c = (_expect_int(path, lineno, t, "point id") for t in parts[1:])
        for i in (a, x, c):
            if not 0 <= i < n:
                raise SpaceFileError(path, lineno, f"point id {i} out of range [0, {n})")
        if a == c and x != a:
            raise SpaceFileError(
                path, lineno, f"triple <{a},{x},{c}> breaks thinness: middle differs from repeated endpoint"
            )
        triples.append((a, x, c))
    from .core import BetweennessTable, FiniteIntervalSpace

    return FiniteIntervalSpace._trusted(BetweennessTable.completed(n, triples))


def _load_graph(path: str, lines: list[tuple[int, str]]) -> FiniteIntervalSpace:
    n = _header_count(path, lines, "vertices N", "vertex count", MAX_POINTS)
    edges: list[tuple[int, int]] = []
    for lineno, body in lines[2:]:
        parts = body.split()
        if parts[0] != "edge" or len(parts) != 3:
            raise SpaceFileError(path, lineno, f"expected 'edge u v', got {body!r}")
        u, v = (_expect_int(path, lineno, t, "vertex id") for t in parts[1:])
        for i in (u, v):
            if not 0 <= i < n:
                raise SpaceFileError(path, lineno, f"vertex id {i} out of range [0, {n})")
        if u == v:
            raise SpaceFileError(path, lineno, f"loop at vertex {u}")
        edges.append((u, v))
    from .models import Graph, geodesic_space_from_graph

    try:
        graph = Graph.from_edges(n, edges)
    except ValueError as exc:
        raise SpaceFileError(path, None, str(exc)) from exc
    return geodesic_space_from_graph(graph)


def _rational(token: str) -> Fraction:
    """A coordinate token as a Fraction; any other token fails with Fraction's own message."""
    if not _RATIONAL_TOKEN.fullmatch(token):
        raise ValueError(f"Invalid literal for Fraction: {token!r}")
    from fractions import Fraction

    return Fraction(token)


def _load_qpoints(path: str, lines: list[tuple[int, str]]) -> FiniteIntervalSpace:
    dim = _header_count(path, lines, "dim D", "dimension", None)
    points: list[tuple[Fraction, ...]] = []
    seen: dict[tuple[Fraction, ...], int] = {}
    for lineno, body in lines[2:]:
        parts = body.split()
        if parts[0] != "point" or len(parts) != dim + 1:
            raise SpaceFileError(path, lineno, f"expected 'point' with {dim} coordinates, got {body!r}")
        if len(points) == MAX_POINTS:
            raise SpaceFileError(path, lineno, f"point count exceeds the limit of {MAX_POINTS}")
        try:
            coords = tuple(_rational(t) for t in parts[1:])
        except (ValueError, ZeroDivisionError) as exc:
            raise SpaceFileError(path, lineno, f"bad rational coordinate: {exc}") from None
        if coords in seen:
            raise SpaceFileError(path, lineno, f"duplicate point, already given on line {seen[coords]}")
        seen[coords] = lineno
        points.append(coords)
    if not points:
        raise SpaceFileError(path, None, "qpoints file lists no points")
    from .models import vector_space_on_points

    return vector_space_on_points(points)


_LOADERS = {"ispace": _load_ispace, "graph": _load_graph, "qpoints": _load_qpoints}


def load(path: str) -> FiniteIntervalSpace:
    """Load a space from an ispace, graph, or qpoints file."""
    lines = _content_lines(path)
    if not lines:
        raise SpaceFileError(path, None, "empty file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] not in _LOADERS or parts[1] != "v1":
        raise SpaceFileError(
            path, lineno, f"unrecognized header {header!r}; expected 'ispace v1', 'graph v1' or 'qpoints v1'"
        )
    return _LOADERS[parts[0]](path, lines)


def format_ispace(space: FiniteIntervalSpace) -> str:
    """Canonical ispace text: free orbit representatives only, the true
    triples <a, b, c> with a < c and b outside {a, c}, in orbit order.

    Reloading the result reproduces the table bit-for-bit, since the loader
    restores the forced triples and symmetric partners.
    """
    lines = ["ispace v1", f"points {space.n}"]
    lines += [f"triple {a} {b} {c}" for a, b, c in space.table.triples() if a < c and b != a and b != c]
    return "\n".join(lines) + "\n"


def save_ispace(space: FiniteIntervalSpace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_ispace(space))


def parse_point_set(text: str, n: int) -> PointSet:
    """Comma-separated point ids; '-' is the empty set."""
    from .core import PointSet

    if text.strip() == "-":
        return PointSet.empty(n)
    try:
        ids = [int(t) for t in text.split(",")]
    except ValueError:
        raise UsageError(f"bad point set {text!r}: expected comma-separated ids or '-'") from None
    try:
        return PointSet.of(n, ids)
    except ValueError as exc:
        raise UsageError(f"bad point set {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Report rendering


def _fmt_scalar(value: Any) -> str:
    if value is None:
        return "skipped"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, tuple):
        return "(" + ", ".join(_fmt_scalar(v) for v in value) + ")"
    return str(value)


def _is_scalar(value: Any) -> bool:
    return not isinstance(value, (dict, list))


def _human_lines(value: dict, indent: int = 0) -> list[str]:
    """A payload as indented text; every non-scalar item of its lists is a dict."""
    pad = "  " * indent
    lines: list[str] = []
    for key, val in value.items():
        if _is_scalar(val):
            lines.append(f"{pad}{key}: {_fmt_scalar(val)}")
        elif isinstance(val, dict):
            if val:
                lines.append(f"{pad}{key}:")
                lines.extend(_human_lines(val, indent + 1))
        elif val:
            if all(_is_scalar(item) for item in val):
                lines.append(f"{pad}{key}: " + " ".join(_fmt_scalar(item) for item in val))
            else:
                lines.append(f"{pad}{key}:")
                for item in val:
                    lines.extend(_human_lines(item, indent + 1))
    return lines


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "structured":
        # a PointSet is the list of its members, ascending
        print(json.dumps(payload, indent=2, default=list))
    else:
        print("\n".join(_human_lines(payload)))


# ---------------------------------------------------------------------------
# Command handlers


def _encoding(bits: int) -> int | str:
    """An orbit encoding as reported: wider than 64 bits it is hex, since
    ``str`` refuses an int of more than 4,300 digits."""
    return bits if bits.bit_length() <= 64 else hex(bits)


def _cmd_check(args: argparse.Namespace) -> tuple[int, dict]:
    from .properties import property_report

    space = load(args.file)
    names = None
    if args.properties != "all":
        names = [t.strip() for t in args.properties.split(",") if t.strip()]
    report = property_report(space, names, allow_large=args.allow_large)
    payload = {
        "command": "check",
        "file": args.file,
        "n": space.n,
        "valid": True,
        "flags": report.flags,
        "witnesses": report.witnesses,
        "notes": report.notes,
    }
    return 0, payload


def _cmd_interval(args: argparse.Namespace) -> tuple[int, dict]:
    space = load(args.file)
    result = space.interval(args.a, args.c)
    return 0, {"command": "interval", "file": args.file, "n": space.n,
               "a": args.a, "c": args.c, "result": result}


def _cmd_set_interval(args: argparse.Namespace) -> tuple[int, dict]:
    space = load(args.file)
    a_set = parse_point_set(args.A, space.n)
    c_set = parse_point_set(args.C, space.n)
    result = space.set_interval(a_set, c_set)
    return 0, {"command": "set-interval", "file": args.file, "n": space.n,
               "A": a_set, "C": c_set, "result": result}


def _cmd_hull(args: argparse.Namespace) -> tuple[int, dict]:
    space = load(args.file)
    seed = parse_point_set(args.set, space.n)
    result = space.hull(seed)
    return 0, {"command": "hull", "file": args.file, "n": space.n,
               "set": seed, "result": result}


def _cmd_order(args: argparse.Namespace) -> tuple[int, dict]:
    if (args.point is None) == (args.set is None):
        raise UsageError("order needs exactly one of --point ID or --set LIST")
    space = load(args.file)
    if args.point is not None:
        relation = space.base_point_order(args.point)
        base: dict[str, Any] = {"point": args.point}
    else:
        base_set = parse_point_set(args.set, space.n)
        relation = space.base_set_order(base_set)
        base = {"set": base_set}
    reflexive = relation.is_reflexive()
    trans_w = relation.transitivity_witness()
    anti_w = relation.antisymmetry_witness()
    payload = {
        "command": "order",
        "file": args.file,
        "n": space.n,
        **base,
        "rows": ["".join("1" if (relation.rows[x] >> y) & 1 else "0" for y in range(space.n))
                 for x in range(space.n)],
        "reflexive": reflexive,
        "transitive": trans_w is None,
        "antisymmetric": anti_w is None,
        "partial_order": reflexive and trans_w is None and anti_w is None,
        "witnesses": {
            **({"transitive": trans_w} if trans_w is not None else {}),
            **({"antisymmetric": anti_w} if anti_w is not None else {}),
        },
    }
    return 0, payload


def _cmd_enumerate(args: argparse.Namespace) -> tuple[int, dict]:
    from .search import ExhaustivePopulation, FreeOrbitEncoding

    encodings = ExhaustivePopulation(args.n, allow_large=args.allow_large).encodings()
    orbits = encodings.stop.bit_length() - 1  # the encodings are 0 .. 2^orbits - 1
    payload: dict[str, Any] = {
        "command": "enumerate",
        "n": args.n,
        "free_orbits": orbits,
        "spaces": 1 << orbits if orbits < 64 else f"2^{orbits}",
    }
    if args.list:
        enc = FreeOrbitEncoding(args.n)  # n^3 time and memory, so built only for a listing
        payload["list"] = [{"encoding": _encoding(bits), "triples": enc.triples(bits)} for bits in encodings]
    return 0, payload


def _parse_density(text: str | None) -> float | None:
    if text is None or text == "sweep":
        return None
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"bad density {text!r}: expected a number in [0, 1] or 'sweep'") from None


def _cmd_verify(args: argparse.Namespace) -> tuple[int, dict]:
    if args.exhaustive == (args.samples is not None):
        raise UsageError("verify needs exactly one of --exhaustive or --samples COUNT")
    from .search import (
        ExhaustivePopulation, SampledPopulation, verify_antisymmetry_theorem, verify_transitivity_theorem,
    )

    if args.exhaustive:
        population = ExhaustivePopulation(args.n, allow_large=args.allow_large)
    else:
        population = SampledPopulation(args.n, args.seed, args.samples, _parse_density(args.density))
    if args.theorem == "transitivity":
        report = verify_transitivity_theorem(population, allow_large=args.allow_large, workers=args.workers)
    else:
        report = verify_antisymmetry_theorem(population, allow_large=args.allow_large, workers=args.workers)
    payload = {"command": "verify", **report.to_dict()}
    return (1 if report.violation_count else 0), payload


def _cmd_search(args: argparse.Namespace) -> tuple[int, dict]:
    from .search import FreeOrbitEncoding, find_separating

    want = [t for t in args.want.split(",") if t] if args.want else []
    want_not = [t for t in args.want_not.split(",") if t] if args.want_not else []
    try:
        ns = tuple(int(t) for t in args.ns.split(",") if t)
    except ValueError:
        raise UsageError(f"bad --ns {args.ns!r}: expected comma-separated sizes") from None
    space = find_separating(
        want,
        want_not,
        max_spaces=args.max_spaces,
        ns=ns,
        seed=args.seed,
        density=_parse_density(args.density),
        workers=args.workers,
    )
    payload: dict[str, Any] = {
        "command": "search",
        "want": want,
        "want_not": want_not,
        "max_spaces": args.max_spaces,
        "found": space is not None,
    }
    if space is not None:
        payload["n"] = space.n
        payload["encoding"] = _encoding(FreeOrbitEncoding(space.n).encode(space))
        payload["ispace"] = format_ispace(space)
    return 0, payload


# ---------------------------------------------------------------------------
# Parser and entry point


def _worker_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ispaces",
        description="Finite interval spaces: load models, check order-geometry properties, "
        "verify condition equivalences, and search for separating examples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("human", "structured"), default="human",
                       help="output as aligned text (default) or one JSON document")

    p = sub.add_parser("check", help="load a space file and evaluate named properties")
    p.add_argument("file")
    p.add_argument("--properties", default="all",
                   help="'all' or comma-separated names (e.g. stiff,interval-convex,C4)")
    p.add_argument("--allow-large", action="store_true",
                   help="lift the work budget: enumerate the subsets past n=16 and run C4/C5 past n=8")
    add_format(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("interval", help="the interval [a, c] of a loaded space")
    p.add_argument("file")
    p.add_argument("a", type=int)
    p.add_argument("c", type=int)
    add_format(p)
    p.set_defaults(handler=_cmd_interval)

    p = sub.add_parser("set-interval", help="the interval [A, C] between two point sets")
    p.add_argument("file")
    p.add_argument("--A", required=True, help="comma-separated ids, '-' for empty")
    p.add_argument("--C", required=True, help="comma-separated ids, '-' for empty")
    add_format(p)
    p.set_defaults(handler=_cmd_set_interval)

    p = sub.add_parser("hull", help="convex hull of a point set")
    p.add_argument("file")
    p.add_argument("--set", required=True, help="comma-separated ids, '-' for empty")
    add_format(p)
    p.set_defaults(handler=_cmd_hull)

    p = sub.add_parser("order", help="base-point or base-set 'in front of' relation")
    p.add_argument("file")
    p.add_argument("--point", type=int, default=None)
    p.add_argument("--set", default=None, help="comma-separated ids, '-' for empty")
    add_format(p)
    p.set_defaults(handler=_cmd_order)

    p = sub.add_parser("enumerate", help="enumerate all spaces on n labeled points")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--list", action="store_true", help="list each space's free orbit triples")
    p.add_argument("--allow-large", action="store_true",
                   help="lift the work budget on the 2^orbits spaces enumerated (n > 4)")
    add_format(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("verify", help="census one condition family over a population of spaces")
    p.add_argument("--theorem", choices=("transitivity", "antisymmetry"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", default=None, help="orbit density in [0,1], or 'sweep' (default)")
    p.add_argument("--workers", type=_worker_count, default=1)
    p.add_argument("--allow-large", action="store_true",
                   help="lift the work budget: enumerate the 2^orbits spaces of --exhaustive past n=4 "
                   "and the subsets of each space past n=16, and run C4/C5 even when spaces * 8^n "
                   "subset triples exceed it")
    add_format(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("search", help="first space with the wanted properties and none of the excluded")
    p.add_argument("--want", default="", help="comma-separated property names")
    p.add_argument("--want-not", default="", help="comma-separated property names")
    p.add_argument("--max-spaces", type=int, default=100_000)
    p.add_argument("--ns", default="1,2,3,4,5,6", help="comma-separated sizes to scan")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", default=None, help="orbit density in [0,1], or 'sweep' (default)")
    p.add_argument("--workers", type=_worker_count, default=1)
    add_format(p)
    p.set_defaults(handler=_cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, payload = args.handler(args)
    except (ValueError, CapExceededError) as exc:
        # SpaceFileError and UsageError are ValueErrors; each input is checked once, where it is read
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(payload, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull so the flush
        # at interpreter exit cannot raise again, as the signal module's
        # documentation describes.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
