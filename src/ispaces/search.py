"""Enumeration, sampling, censuses and counterexample search over spaces.

The axioms pin most of a betweenness table: <x,x,a> and <a,x,x> are forced
true, <x,y,x> (y != x) forced false, and middle symmetry ties the remaining
pairwise-distinct triples into orbits {<a,b,c>, <c,b,a>}.  The free orbits
give a bijection between bit strings of length n(n-1)(n-2)/2 and the valid
spaces on n labeled points, which drives exhaustive enumeration (small n),
seeded sampling, extensional verification of both condition-equivalence
theorems, and search for spaces separating named properties.

All sampling is partition-stable: sample i is drawn from seed + i, never
from a shared generator, so censuses are identical for every worker count.
For n <= ``sliced.MAX_N`` the transitivity census evaluates C1..C9 on whole
batches of encodings at once (:mod:`ispaces.sliced`); every other census
decodes and checks one space at a time.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_, or_
from typing import Iterable, Iterator, Sequence

from . import sliced
from .core import (
    BetweennessTable,
    FiniteIntervalSpace,
    _forced_bits,
    _triple_index,
    bits_of,
    check_budget,
    over_budget,
)
from .properties import (
    CONDITIONS,
    PROPERTIES,
    antisymmetry_conditions,
    interval_transitivity_witness,
    resolve_properties,
    transitivity_conditions,
)


def _orbit_count(n: int) -> int:
    """Free orbits on n points, without building the encoding: an exhaustive
    population has 2^orbits spaces (2^30 at n = 5).  A size below 1 counts 0,
    so it reaches the encoding's own error."""
    return max(0, n * (n - 1) * (n - 2) // 2)


class FreeOrbitEncoding:
    """Bijection between orbit bit strings and valid tables on n points.

    Orbit k is the pair {<a,b,c>, <c,b,a>} for the k-th pairwise-distinct
    triple (a, b, c) with a < c in lexicographic order.  Decoding ORs the
    selected orbit pairs onto the axiom-forced bits; every decoded table is
    a valid space, and encoding a decoded space returns the original bits.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one point")
        self.n = n
        self.orbits: tuple[tuple[int, int, int], ...] = tuple(
            (a, b, c)
            for a in range(n)
            for b in range(n)
            for c in range(n)
            if a != b and b != c and a < c
        )
        self._base = _forced_bits(n)
        self._masks = tuple(
            (1 << _triple_index(n, a, b, c)) | (1 << _triple_index(n, c, b, a))
            for a, b, c in self.orbits
        )

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)

    @property
    def space_count(self) -> int:
        return 1 << len(self.orbits)

    def decode(self, bits: int) -> FiniteIntervalSpace:
        if not 0 <= bits < self.space_count:
            raise ValueError(f"encoding {bits} out of range [0, 2^{self.orbit_count})")
        table_bits = self._base
        rest = bits
        while rest:
            low = rest & -rest
            table_bits |= self._masks[low.bit_length() - 1]
            rest ^= low
        return FiniteIntervalSpace._trusted(BetweennessTable(self.n, table_bits))

    def triples(self, bits: int) -> list[tuple[int, int, int]]:
        """The orbit representatives <a, b, c> (a < c) set in an encoding, in orbit order."""
        return [self.orbits[k] for k in bits_of(bits)]

    def encode(self, space: FiniteIntervalSpace) -> int:
        if space.n != self.n:
            raise ValueError(f"space has {space.n} points, encoding expects {self.n}")
        n = self.n
        table_bits = space.table.bits
        bits = 0
        for k, (a, b, c) in enumerate(self.orbits):
            if (table_bits >> _triple_index(n, a, b, c)) & 1:
                bits |= 1 << k
        return bits


@lru_cache(maxsize=64)
def free_orbit_encoding(n: int) -> FreeOrbitEncoding:
    return FreeOrbitEncoding(n)


def enumerate_spaces(n: int, *, allow_large: bool = False) -> Iterator[FiniteIntervalSpace]:
    """All valid spaces on n labeled points, in ascending encoding order."""
    for _, space in ExhaustivePopulation(n, allow_large).spaces():
        yield space


def random_encoding(n: int, seed: int, density: float = 0.5) -> int:
    """The orbit encoding of a seeded random space: each free orbit is set
    with probability ``density``.

    Deterministic in (n, seed, density); independent of any global state.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    rng = random.Random(seed)
    bits = 0
    for k in range(free_orbit_encoding(n).orbit_count):
        if rng.random() < density:
            bits |= 1 << k
    return bits


def random_space(n: int, seed: int, density: float = 0.5) -> FiniteIntervalSpace:
    """The space of :func:`random_encoding` (n, seed, density)."""
    return free_orbit_encoding(n).decode(random_encoding(n, seed, density))


# ---------------------------------------------------------------------------
# Populations


class Population:
    """Indexed spaces on n points; subclasses give ``size``, ``describe`` and ``encodings``."""

    n: int

    def spaces(self, start: int = 0, stop: int | None = None) -> Iterator[tuple[int, FiniteIntervalSpace]]:
        """(index, space) for spaces start..stop-1."""
        encodings = self.encodings(start, stop)
        enc = free_orbit_encoding(self.n)
        for index, bits in enumerate(encodings, start):
            yield index, enc.decode(bits)


@dataclass(frozen=True)
class ExhaustivePopulation(Population):
    """Every valid space on n points, indexed by encoding."""

    n: int
    allow_large: bool = False

    def size(self) -> int:
        return free_orbit_encoding(self.n).space_count

    def describe(self) -> str:
        return f"exhaustive n={self.n}"

    def encodings(self, start: int = 0, stop: int | None = None) -> range:
        """Orbit encodings of spaces start..stop-1 (a space's index is its encoding).

        The one place the 2^orbits spaces are held to the work budget,
        before the encoding of n points is built.
        """
        check_budget(f"exhaustive enumeration at n={self.n}", 1, _orbit_count(self.n), self.allow_large)
        return range(start, self.size() if stop is None else stop)


@dataclass(frozen=True)
class SampledPopulation(Population):
    """``count`` seeded random spaces on n points.

    Sample i is drawn from seed + i at density ``density``; with
    density=None the density sweeps the grid 0.00, 0.01, ..., 1.00
    cyclically, which covers both near-minimal and near-maximal tables.
    """

    n: int
    seed: int
    count: int
    density: float | None = None

    def size(self) -> int:
        return self.count

    def density_at(self, i: int) -> float:
        return self.density if self.density is not None else (i % 101) / 100.0

    def describe(self) -> str:
        density = "sweep" if self.density is None else f"{self.density:g}"
        return f"sampled n={self.n} seed={self.seed} count={self.count} density={density}"

    def encodings(self, start: int = 0, stop: int | None = None) -> Iterator[int]:
        """Orbit encodings of samples start..stop-1, each drawn when it is read."""
        for i in range(start, self.count if stop is None else stop):
            yield random_encoding(self.n, self.seed + i, self.density_at(i))


# ---------------------------------------------------------------------------
# Censuses


@dataclass(frozen=True)
class EquivalenceViolation:
    """A space whose supposedly equivalent condition values disagree."""

    index: int
    encoding: int
    values: tuple[bool | None, ...]


@dataclass(frozen=True)
class CensusReport:
    """Aggregated condition census over a population.

    Counts merge as a commutative monoid and the final report is
    canonicalized (fixed condition order, sorted vector patterns, violations
    sorted by index), so the report is identical for every work
    partitioning.  ``violations`` lists the spaces where evaluated condition
    values disagree; the theorems say it must stay empty.
    """

    theorem: str
    n: int
    population: str
    total: int
    hypothesis_excluded: int
    skipped: tuple[str, ...]
    condition_counts: tuple[tuple[str, int], ...]
    vector_counts: tuple[tuple[str, int], ...]
    violations: tuple[EquivalenceViolation, ...]

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "n": self.n,
            "population": self.population,
            "spaces": self.total,
            "hypothesis_excluded": self.hypothesis_excluded,
            "skipped": list(self.skipped),
            "condition_counts": dict(self.condition_counts),
            "vector_counts": dict(self.vector_counts),
            "violations": self.violation_count,
            "violation_details": [
                {"index": v.index, "encoding": v.encoding,
                 "values": [x if x is None else bool(x) for x in v.values]}
                for v in self.violations
            ],
        }


def _pattern(values: tuple[bool | None, ...]) -> str:
    return "".join("-" if v is None else ("T" if v else "F") for v in values)


def _sliced(theorem: str, n: int) -> bool:
    """Whether the census evaluates its conditions bit-sliced, a batch at a time."""
    return theorem == "transitivity" and n <= sliced.MAX_N


def _condition_slices(theorem: str, n: int, encodings: list[int], skipped: tuple[str, ...]) -> tuple[Sequence[int | None], int]:
    """A batch's condition slices (bit j of entry k: condition k in space j;
    None: skipped), sliced or one decoded space at a time, and the mask of the
    spaces evaluated: the antisymmetry census leaves out those that are not
    interval-transitive."""
    enc = free_orbit_encoding(n)
    if _sliced(theorem, n):
        slices = sliced.triple_slices(enc, encodings)
        return sliced.transitivity_slices(n, slices, not skipped), (1 << len(encodings)) - 1
    values: list[int | None] = [None if name in skipped else 0 for name in CONDITIONS[theorem]]
    evaluated = 0
    for j, bits in enumerate(encodings):
        space = enc.decode(bits)
        if theorem == "transitivity":
            cv = transitivity_conditions(space, semigroup_conditions=not skipped)
        elif interval_transitivity_witness(space) is None:
            cv = antisymmetry_conditions(space)
        else:
            continue
        evaluated |= 1 << j
        for k, value in enumerate(cv.values):
            if value:
                values[k] |= 1 << j
    return values, evaluated


def _census_chunk(args: tuple) -> dict:
    """The census tallies over spaces start..stop-1, read off one batch of slices at a time."""
    theorem, population, start, stop, skipped = args
    counts: Counter = Counter()
    vectors: Counter = Counter()
    violations: list[EquivalenceViolation] = []
    excluded = 0
    for lo in range(start, stop, sliced.BATCH):
        encodings = list(population.encodings(lo, min(lo + sliced.BATCH, stop)))
        values, evaluated = _condition_slices(theorem, population.n, encodings, skipped)
        excluded += len(encodings) - evaluated.bit_count()
        for name, s in zip(CONDITIONS[theorem], values):
            if s:
                counts[name] += s.bit_count()
        # An evaluated space agrees when every evaluated condition is true or
        # every one is false; the others are violations, read out one by one.
        decided = [s for s in values if s is not None]
        agree_true = evaluated & reduce(and_, decided)
        agree_false = evaluated & ~reduce(or_, decided)
        for agreed, value in ((agree_true, True), (agree_false, False)):
            if agreed:
                vectors[_pattern(tuple(None if s is None else value for s in values))] += agreed.bit_count()
        for j in bits_of(evaluated & ~(agree_true | agree_false)):
            vector = tuple(None if s is None else bool(s >> j & 1) for s in values)
            vectors[_pattern(vector)] += 1
            violations.append(EquivalenceViolation(lo + j, encodings[j], vector))
    return {"counts": counts, "vectors": vectors, "violations": violations, "excluded": excluded}


def _pool_size(workers: int, chunks: int) -> int:
    """Worker processes worth starting: no more than CPUs or chunks, at least one."""
    return max(1, min(workers, os.cpu_count() or 1, chunks))


def _partition(total: int, workers: int, min_chunk: int = 1) -> list[tuple[int, int]]:
    """Index ranges covering [0, total): about four per worker, none shorter
    than ``min_chunk`` except the last."""
    if total == 0:
        return []
    workers = _pool_size(workers, total)
    chunk = total if workers <= 1 else max(min_chunk, -(-total // (workers * 4)))
    return [(s, min(s + chunk, total)) for s in range(0, total, chunk)]


def _run_chunks(task, args_list: list[tuple], workers: int) -> list:
    size = _pool_size(workers, len(args_list))
    if size == 1:
        return [task(a) for a in args_list]
    # Imported here, so a single-worker run never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(task, args_list))


def _verify(theorem: str, population: Population, semigroup: bool, workers: int) -> CensusReport:
    total = population.size()
    min_chunk = sliced.BATCH if _sliced(theorem, population.n) else 1
    skipped = ("C4", "C5") if theorem == "transitivity" and not semigroup else ()
    chunk_results = _run_chunks(
        _census_chunk,
        [(theorem, population, s, e, skipped) for s, e in _partition(total, workers, min_chunk)],
        workers,
    )
    counts: Counter = Counter()
    vectors: Counter = Counter()
    violations: list[EquivalenceViolation] = []
    excluded = 0
    for r in chunk_results:
        counts.update(r["counts"])
        vectors.update(r["vectors"])
        violations.extend(r["violations"])
        excluded += r["excluded"]
    return CensusReport(
        theorem=theorem,
        n=population.n,
        population=population.describe(),
        total=total,
        hypothesis_excluded=excluded,
        skipped=skipped,
        condition_counts=tuple((name, counts.get(name, 0)) for name in CONDITIONS[theorem]),
        vector_counts=tuple(sorted(vectors.items())),
        violations=tuple(sorted(violations, key=lambda v: v.index)),
    )


def verify_transitivity_theorem(
    population: Population,
    *,
    allow_large: bool = False,
    workers: int = 1,
) -> CensusReport:
    """Census C1..C9 over a population; equivalence violations must be absent.

    C4/C5 are evaluated in full when population-size * (2^n)^3 subset
    triples fit the work budget or ``allow_large`` is set, and reported as
    skipped otherwise.
    """
    semigroup = allow_large or not over_budget(population.size(), 3 * population.n)
    return _verify("transitivity", population, semigroup, workers)


def verify_antisymmetry_theorem(population: Population, *, workers: int = 1) -> CensusReport:
    """Census D1..D5 over the interval-transitive spaces of a population.

    Spaces failing the interval-transitivity hypothesis are counted in
    ``hypothesis_excluded`` and take no part in the equivalence assertion.
    """
    return _verify("antisymmetry", population, True, workers)


# ---------------------------------------------------------------------------
# Separating search


def _search_chunk(args: tuple) -> int | None:
    population, start, stop, want, want_not = args
    want_witnesses = [PROPERTIES[name] for name in want]
    want_not_witnesses = [PROPERTIES[name] for name in want_not]
    for i, space in population.spaces(start, stop):
        if all(w(space, False) is None for w in want_witnesses) and not any(
            w(space, False) is None for w in want_not_witnesses
        ):
            return i
    return None


def _search_plan(
    ns: Iterable[int], max_spaces: int, seed: int, density: float | None
) -> list[tuple[Population, int]]:
    """(population, count) segments, each scanned over its first ``count``
    spaces: exhaustive sizes ascending, then sampled sizes ascending with the
    leftover budget split evenly.  A size is exhaustive when its population
    fits the work budget."""
    sizes = sorted(set(ns))
    exhaustive = [m for m in sizes if not over_budget(1, _orbit_count(m))]
    plan: list[tuple[Population, int]] = []
    remaining = max_spaces
    for n in exhaustive:
        k = min(remaining, free_orbit_encoding(n).space_count)
        if k > 0:
            plan.append((ExhaustivePopulation(n), k))
            remaining -= k
    sampled = [m for m in sizes if m not in exhaustive]
    if sampled and remaining > 0:
        base, extra = divmod(remaining, len(sampled))
        for j, n in enumerate(sampled):
            k = base + (1 if j < extra else 0)
            if k > 0:
                plan.append((SampledPopulation(n, seed, k, density), k))
    return plan


def find_separating(
    want: Iterable[str],
    want_not: Iterable[str],
    *,
    max_spaces: int = 100_000,
    ns: Iterable[int] = (1, 2, 3, 4, 5, 6),
    seed: int = 0,
    density: float | None = None,
    workers: int = 1,
) -> FiniteIntervalSpace | None:
    """First space with every ``want`` property and no ``want_not`` property.

    Candidates are scanned in a deterministic order: exhaustive enumeration
    for the sizes whose populations fit the work budget (ascending
    encodings), then seeded samples for the larger sizes, all bounded by
    ``max_spaces`` candidates in total.  Sample i of a sampled segment is
    drawn from seed + i; density=None sweeps the 0.00..1.00 grid like
    :class:`SampledPopulation`.  Property names are the keys of
    ``properties.PROPERTIES``; a space has a property when its witness is
    None.  Returns None when no candidate within the budget separates the
    properties; the answer is identical for every worker count.
    """
    want = resolve_properties(want)
    want_not = resolve_properties(want_not)
    if max_spaces < 0:
        raise ValueError("max_spaces must be nonnegative")
    for population, count in _search_plan(ns, max_spaces, seed, density):
        args_list = [
            (population, s, e, tuple(want), tuple(want_not))
            for s, e in _partition(count, workers)
        ]
        hits = _run_chunks(_search_chunk, args_list, workers)
        for hit in hits:
            if hit is not None:
                return next(population.spaces(hit, hit + 1))[1]
    return None
