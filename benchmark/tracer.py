"""Traced CLI call: record spans around calls into each ispaces layer.

    python benchmark/tracer.py SPANS_OUT CLI_ARG...

Wraps the functions one layer calls in another (the names a module
imports from its neighbour, plus the two ``FiniteIntervalSpace`` subset
enumerations and the orbit decoder), then runs ``ispaces.cli.main`` on the
arguments exactly as ``python -m ispaces`` would.  Spans (name, start,
end, parent index) and counters are kept in memory and written to SPANS_OUT
as JSON when the call returns.  Nothing is cleared or pre-warmed: each
traced call runs in its own fresh interpreter, like the CLI.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from typing import Any, Callable

from ispaces import cli, core, models, properties, search

SPANS: list[Any] = []
COUNTS: Counter = Counter()
_open: list[int] = []


def _count_none(key: str) -> Callable[[Any], None]:
    def count(result: Any) -> None:
        if result is None:
            COUNTS[key] += 1
    return count


def _count_len(key: str, attr: str | None = None) -> Callable[[Any], None]:
    def count(result: Any) -> None:
        COUNTS[key] += len(getattr(result, attr) if attr else result)
    return count


def _count_hypothesis(result: Any) -> None:
    COUNTS["antisymmetry_conditions.hypothesis_met"] += bool(result.hypothesis_met)


def _traced(name: str, fn: Callable, after: Callable[[Any], None] | None = None) -> Callable:
    perf = time.perf_counter

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = len(SPANS)
        SPANS.append(None)
        parent = _open[-1] if _open else -1
        _open.append(index)
        start = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            SPANS[index] = (name, start, perf(), parent)
            _open.pop()
        if after is not None:
            after(result)
        return result

    return wrapper


#: (owner, attribute, span name, counter hook).  The owner is the module or
#: class whose attribute the caller looks up, so a span marks the boundary
#: between the calling layer and the called one.
PATCHES: list[tuple[Any, str, str, Callable[[Any], None] | None]] = [
    (cli, "load", "cli.load", None),
    (cli, "_emit", "cli.render", None),
    (cli, "property_report", "properties.property_report", None),
    (cli, "verify_transitivity_theorem", "search.census", None),
    (cli, "verify_antisymmetry_theorem", "search.census", None),
    (cli, "geodesic_space_from_graph", "models.build", None),
    (cli, "vector_space_on_points", "models.build", None),
    (cli, "validate", "core.validate", None),
    (models, "validate", "core.validate", None),
    (search, "random_space", "search.sample", None),
    (search.FreeOrbitEncoding, "decode", "search.decode", None),
    (search, "interval_transitivity_witness", "properties.hypothesis", _count_none("hypothesis.met")),
    (search, "transitivity_conditions", "properties.transitivity_conditions", None),
    (search, "antisymmetry_conditions", "properties.antisymmetry_conditions", _count_hypothesis),
    (properties, "transitivity_conditions", "properties.transitivity_conditions", None),
    (properties, "antisymmetry_conditions", "properties.antisymmetry_conditions", _count_hypothesis),
    (properties, "convex_closure_system", "closure.system", _count_len("closure.closed_sets", "closed")),
    (properties, "antiexchange_witness", "closure.antiexchange", None),
    (properties, "combinatorial_witness", "closure.combinatorial", None),
    (properties, "antimatroid_report", "closure.antimatroid", None),
    (core.FiniteIntervalSpace, "_convex_masks", "core.convex_sets", _count_len("core.convex_sets")),
    (core.FiniteIntervalSpace, "_subset_table", "core.subset_table", None),
]


def install() -> list[str]:
    """Wrap every boundary that exists; return the names that do not."""
    missing = []
    for owner, attr, name, after in PATCHES:
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            continue
        setattr(owner, attr, _traced(name, fn, after))
    # property_report looks the six named witnesses up in its registry.
    registry = getattr(properties, "_PROPERTY_WITNESSES", None)
    if registry is None:
        missing.append("properties._PROPERTY_WITNESSES")
    else:
        for key, fn in registry.items():
            registry[key] = _traced("properties.named_witnesses", fn)
    return missing


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    missing = install()
    code = cli.main(cli_args)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": SPANS, "counts": COUNTS, "missing": missing}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
