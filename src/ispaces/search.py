"""Enumeration, sampling, censuses and counterexample search over spaces.

The axioms pin most of a betweenness table: <x,x,a> and <a,x,x> are forced
true, <x,y,x> (y != x) forced false, and middle symmetry ties the remaining
pairwise-distinct triples into orbits {<a,b,c>, <c,b,a>}.  The free orbits
give a bijection between bit strings of length n(n-1)(n-2)/2 and the valid
spaces on n labeled points, which drives exhaustive enumeration (small n),
seeded sampling, extensional verification of both condition-equivalence
theorems, and search for spaces separating named properties.

All sampling is partition-stable: sample i is drawn from a generator
reseeded with seed + i, so it does not depend on the samples drawn before
it, and censuses are identical for every worker count.  No module state is
kept: each population scan and command builds its own :class:`FreeOrbitEncoding`,
after the work budget has admitted the work.  Both censuses evaluate a batch
of at least 2^n spaces on n points at once (:mod:`ispaces.sliced`): C1..C9,
or the interval-transitivity filter and D1..D5.  A population hands such a
batch over as its orbit columns: fixed bit patterns for the exhaustive one,
whose census chunks start on multiples of ``sliced.BATCH``, and stride slices
of the sampled one's orbit bytes.  A smaller batch is decoded and checked one
space at a time, and that scalar path is the tests' oracle for the sliced
one; it and the separating search import :mod:`ispaces.properties` where they
run, and decoding a space imports :mod:`ispaces.core`, so a sliced census
loads neither.
"""

from __future__ import annotations

import os
import random
from array import array
from collections import Counter
from functools import reduce
from operator import and_, or_
from typing import Iterable, Iterator, Sequence

from . import sliced
from .base import (
    CONDITIONS,
    OVERRIDE_ADVICE,
    CapExceededError,
    _forced_bits,
    _orbits,
    _triple_index,
    bits_of,
    check_budget,
    over_budget,
    record,
    semigroup_reported,
)


def _orbit_count(n: int) -> int:
    """Free orbits on n points, without building the encoding: an exhaustive
    population has 2^orbits spaces (2^30 at n = 5).  A size below 1 counts 0,
    so it reaches the population's own error."""
    return max(0, n * (n - 1) * (n - 2) // 2)


class FreeOrbitEncoding:
    """Bijection between orbit bit strings and valid tables on n points.

    Orbit k is the pair {<a,b,c>, <c,b,a>} for the k-th pairwise-distinct
    triple (a, b, c) with a < c in lexicographic order.  Decoding ORs the
    selected orbit pairs onto the axiom-forced bits; every decoded table is
    a valid space, and encoding a decoded space returns the original bits.
    """

    def __init__(self, n: int):
        _check_n(n)
        self.n = n
        # Tables are built as base-2 text, whose first character is the
        # highest triple: the forced bits, and the two positions of each orbit's
        # triples in it, in flat arrays (not n^3 tuples, nor n^6 bits of masks).
        top = n ** 3 - 1
        self._base = format(_forced_bits(n), f"0{top + 1}b").encode()
        self._first = array("q", (top - _triple_index(n, a, b, c) for a, b, c in _orbits(n)))
        self._second = array("q", (top - _triple_index(n, c, b, a) for a, b, c in _orbits(n)))

    @property
    def orbit_count(self) -> int:
        return len(self._first)

    @property
    def space_count(self) -> int:
        return 1 << self.orbit_count

    def decode(self, bits: int) -> FiniteIntervalSpace:
        if not 0 <= bits < self.space_count:
            raise ValueError(f"encoding {bits} out of range [0, 2^{self.orbit_count})")
        from .core import BetweennessTable, FiniteIntervalSpace

        # One parse of the table text: ORing each orbit into an int as wide
        # as the table would take time quadratic in n^3.
        text = bytearray(self._base)
        for i, j, bit in zip(self._first, self._second, reversed(format(bits, f"0{self.orbit_count}b"))):
            if bit == "1":
                text[i] = text[j] = 49  # ord("1")
        return FiniteIntervalSpace._trusted(BetweennessTable(self.n, int(text, 2)))

    def triples(self, bits: int) -> list[tuple[int, int, int]]:
        """The orbit representatives <a, b, c> (a < c) set in an encoding, in orbit order."""
        n, top = self.n, len(self._base) - 1
        return [(t // (n * n), t // n % n, t % n) for t in (top - self._first[k] for k in bits_of(bits))]

    def encode(self, space: FiniteIntervalSpace) -> int:
        if space.n != self.n:
            raise ValueError(f"space has {space.n} points, encoding expects {self.n}")
        # Orbit k is bit k: the table text at each orbit's first position, the last orbit first.
        text = format(space.table.bits, f"0{len(self._base)}b").encode()
        return int(bytes(map(text.__getitem__, reversed(self._first))) or b"0", 2)


def enumerate_spaces(n: int, *, allow_large: bool = False) -> Iterator[FiniteIntervalSpace]:
    """All valid spaces on n labeled points, in ascending encoding order."""
    for _, space in ExhaustivePopulation(n, allow_large).spaces():
        yield space


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError("need at least one point")


def _check_seed(seed: int) -> None:
    # random seeds with abs(seed), so seeds -k and k would draw the same stream
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


def _check_density(density: float | None) -> None:
    # None is the sweep; NaN fails both comparisons
    if density is not None and not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")


def _sample_bits(n: int, draws: Iterable[tuple[int, float]]) -> Iterator[bytes]:
    """The orbit bytes for each (seed, density) of ``draws``: byte k is ``1`` when
    draw k of ``random.Random(seed).random()`` is below ``density``, else ``0``.
    Callers check seeds and densities when they build a draw.

    Draw k is ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``, where a and b are
    the generator's 32-bit outputs 2k and 2k + 1; ``getrandbits(64 * m)``
    returns the same outputs in order, output i in bits 32i..32i+31.  So one
    call reads a sample's m draws, and the top byte t of each a settles its
    draw against u = 256 * density in one ``bytes.translate``: '1' when
    t + 1 <= u, '0' when t >= u.  Only t = floor(u) < u is a tie (about one
    draw in 256), resolved exactly by comparing the integer numerator with
    density * 2**53.
    """
    rng = random.Random()
    # The C-level seed: the same stream for int seeds, without the Python wrapper.
    reseed, getrandbits = super(random.Random, rng).seed, rng.getrandbits
    m = _orbit_count(n)
    for seed, density in draws:
        reseed(seed)
        raw = getrandbits(64 * m).to_bytes(8 * m, "little")
        u = 256 * density
        low = int(u)
        tie = low < u
        bits = raw[3::8].translate(b"1" * low + b"X" * tie + b"0" * (256 - low - tie))
        k = bits.find(b"X")
        if k >= 0:
            bits = bytearray(bits)
            threshold = density * 2**53
            while k >= 0:
                a = int.from_bytes(raw[8 * k : 8 * k + 4], "little")
                b = int.from_bytes(raw[8 * k + 4 : 8 * k + 8], "little")
                bits[k] = b"01"[(a >> 5) * 2**26 + (b >> 6) < threshold]
                k = bits.find(b"X", k + 1)
        yield bits


def random_encoding(n: int, seed: int, density: float = 0.5) -> int:
    """The orbit encoding of a seeded random space: each free orbit is set
    with probability ``density``.

    Deterministic in (n, seed, density); independent of any global state.
    """
    return next(SampledPopulation(n, seed, 1, density).encodings())


def random_space(n: int, seed: int, density: float = 0.5) -> FiniteIntervalSpace:
    """The space of :func:`random_encoding` (n, seed, density)."""
    return FreeOrbitEncoding(n).decode(random_encoding(n, seed, density))


# ---------------------------------------------------------------------------
# Populations


class Population:
    """Indexed spaces on n points; subclasses give ``size``, ``describe``, ``encodings`` and ``columns``."""

    n: int

    def spaces(self, start: int = 0, stop: int | None = None) -> Iterator[tuple[int, FiniteIntervalSpace]]:
        """(index, space) for spaces start..stop-1."""
        encodings = self.encodings(start, stop)
        enc = FreeOrbitEncoding(self.n)
        for index, bits in enumerate(encodings, start):
            yield index, enc.decode(bits)


@record
class ExhaustivePopulation(Population):
    """Every valid space on n points, indexed by encoding."""

    n: int
    allow_large: bool = False

    def __post_init__(self) -> None:
        _check_n(self.n)

    def size(self) -> int:
        return 1 << _orbit_count(self.n)

    def describe(self) -> str:
        return f"exhaustive n={self.n}"

    def encodings(self, start: int = 0, stop: int | None = None) -> range:
        """Orbit encodings of spaces start..stop-1 (a space's index is its encoding).

        The one place the 2^orbits spaces are held to the work budget,
        before the encoding of n points is built.
        """
        check_budget(f"exhaustive enumeration at n={self.n}", 1, _orbit_count(self.n), self.allow_large)
        return range(start, self.size() if stop is None else stop)

    def columns(self, start: int, stop: int) -> list[int]:
        """The orbit columns of spaces start..stop-1, within one block of ``sliced.BATCH``
        encodings: bit i of column j is bit j of start + i, so it is bit j over the
        block shifted down, or all ones or all zeros once 2^j reaches the block."""
        span, block = self.encodings(start, stop), sliced.BATCH
        low, full = span.start % block, (1 << len(span)) - 1
        if low + len(span) > block:
            raise ValueError(f"batch [{span.start}, {span.stop}) crosses a multiple of {block}")
        # (2^block - 1) // (2^r + 1) sets the low r bits of every 2r: shifted up by r = 2^j, bit j over the block
        return [
            (((1 << block) - 1) // ((1 << (1 << j)) + 1) << (1 << j)) >> low & full if 1 << j < block
            else full if span.start >> j & 1 else 0
            for j in range(_orbit_count(self.n))
        ]


@record
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

    def __post_init__(self) -> None:
        _check_n(self.n)
        _check_seed(self.seed)
        _check_density(self.density)
        if self.count < 0:
            raise ValueError(f"count must be nonnegative, got {self.count}")

    def size(self) -> int:
        return self.count

    def density_at(self, i: int) -> float:
        return self.density if self.density is not None else (i % 101) / 100.0

    def describe(self) -> str:
        density = "sweep" if self.density is None else f"{self.density:g}"
        return f"sampled n={self.n} seed={self.seed} count={self.count} density={density}"

    def _bits(self, start: int, stop: int | None) -> Iterator[bytes]:
        indices = range(start, self.count if stop is None else stop)
        return _sample_bits(self.n, ((self.seed + i, self.density_at(i)) for i in indices))

    def encodings(self, start: int = 0, stop: int | None = None) -> Iterator[int]:
        """Orbit encodings of samples start..stop-1, each drawn when it is read."""
        # Orbit k is bit k; one parse, where ORing each bit in would be quadratic.
        return (int(bits[::-1] or b"0", 2) for bits in self._bits(start, stop))

    def columns(self, start: int, stop: int) -> list[int]:
        """The orbit columns of samples start..stop-1: bit i of column j is orbit j of sample start + i."""
        # The last sample first, as it holds every column's highest bit: column j is every m-th byte from j.
        m, text = _orbit_count(self.n), b"".join(list(self._bits(start, stop))[::-1])
        return [int(text[j::m] or b"0", 2) for j in range(m)]


# ---------------------------------------------------------------------------
# Censuses


@record
class EquivalenceViolation:
    """A space whose supposedly equivalent condition values disagree."""

    index: int
    encoding: int
    values: tuple[bool | None, ...]


@record
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


def _sliced(n: int, size: int) -> bool:
    """Whether a census batch of ``size`` spaces on n points is evaluated bit-sliced: a sliced
    batch scans the 2^n point sets whatever its size, so it pays from 2^n spaces (n <= 12)."""
    return size >= 1 << n


def _condition_slices(
    theorem: str, population: Population, lo: int, hi: int, allow_large: bool
) -> tuple[Sequence[int], int]:
    """The condition slices of spaces lo..hi-1 (bit j of entry k: condition
    k in space lo + j), sliced or one decoded space at a time, and the mask
    of the spaces evaluated: the antisymmetry census leaves out those that
    are not interval-transitive.  ``allow_large`` lifts the subset budget of
    the one-space-at-a-time path."""
    n = population.n
    if _sliced(n, hi - lo):
        columns = population.columns(lo, hi)
        if theorem == "transitivity":
            return sliced.transitivity_slices(n, columns, hi - lo), (1 << (hi - lo)) - 1
        return sliced.antisymmetry_slices(n, columns, hi - lo)
    from .properties import antisymmetry_conditions, interval_transitivity_witness, transitivity_conditions

    values = [0] * len(CONDITIONS[theorem])
    evaluated = 0
    for j, (_, space) in enumerate(population.spaces(lo, hi)):
        if theorem == "transitivity":
            cv = transitivity_conditions(space, allow_large=allow_large)
        elif interval_transitivity_witness(space) is None:
            cv = antisymmetry_conditions(space, allow_large=allow_large)
        else:
            continue
        evaluated |= 1 << j
        values = [s | bool(value) << j for s, value in zip(values, cv.values)]
    return values, evaluated


def _census_chunk(args: tuple) -> dict:
    """The census tallies over spaces start..stop-1, read off one batch of
    slices at a time; the conditions in ``skipped`` are blanked (None) first."""
    theorem, population, start, stop, skipped, allow_large = args
    counts, vectors, violations, excluded = Counter(), Counter(), [], 0
    for lo in range(start, stop, sliced.BATCH):
        hi = min(lo + sliced.BATCH, stop)
        values, evaluated = _condition_slices(theorem, population, lo, hi, allow_large)
        values = [None if name in skipped else s for name, s in zip(CONDITIONS[theorem], values)]
        excluded += hi - lo - evaluated.bit_count()
        counts.update({name: s.bit_count() for name, s in zip(CONDITIONS[theorem], values) if s})
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
            (encoding,) = population.encodings(lo + j, lo + j + 1)
            violations.append(EquivalenceViolation(lo + j, encoding, vector))
    return {"counts": counts, "vectors": vectors, "violations": violations, "excluded": excluded}


def _pool_size(workers: int, chunks: int) -> int:
    """Worker processes worth starting: no more than CPUs or chunks, at least one."""
    return max(1, min(workers, os.cpu_count() or 1, chunks))


def _partition(total: int, workers: int, min_chunk: int = 1) -> list[tuple[int, int]]:
    """Index ranges covering [0, total): about four per worker, each starting
    on a multiple of ``min_chunk``, so no census batch crosses one."""
    if total == 0:
        return []
    workers = _pool_size(workers, total)
    chunk = total if workers <= 1 else -(-total // (workers * 4))
    chunk = -(-chunk // min_chunk) * min_chunk
    return [(s, min(s + chunk, total)) for s in range(0, total, chunk)]


def _run_chunks(task, args_list: list[tuple], workers: int) -> list:
    size = _pool_size(workers, len(args_list))
    if size == 1:
        return [task(a) for a in args_list]
    # Imported here, so a single-worker run never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(task, args_list))


def _verify(
    theorem: str, population: Population, skipped: tuple[str, ...], allow_large: bool, workers: int
) -> CensusReport:
    total = population.size()
    # chunks start on multiples of a batch where a full one is sliced, else they balance
    min_chunk = sliced.BATCH if _sliced(population.n, min(total, sliced.BATCH)) else 1
    chunk_results = _run_chunks(
        _census_chunk,
        [(theorem, population, s, e, skipped, allow_large) for s, e in _partition(total, workers, min_chunk)],
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

    C4/C5 are reported as skipped where :func:`~ispaces.base.semigroup_reported`
    says so for the population's size.  ``allow_large`` also lifts the work
    budget of each space's subset enumeration.
    """
    reported = semigroup_reported(population.size(), population.n, allow_large)
    return _verify("transitivity", population, () if reported else ("C4", "C5"), allow_large, workers)


def verify_antisymmetry_theorem(
    population: Population, *, allow_large: bool = False, workers: int = 1
) -> CensusReport:
    """Census D1..D5 over the interval-transitive spaces of a population.

    Spaces failing the interval-transitivity hypothesis are counted in
    ``hypothesis_excluded`` and take no part in the equivalence assertion.
    ``allow_large`` lifts the work budget of each space's subset enumeration.
    """
    return _verify("antisymmetry", population, (), allow_large, workers)


# ---------------------------------------------------------------------------
# Separating search


def _search_chunk(args: tuple) -> int | None:
    from .properties import PROPERTIES

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
        k = min(remaining, 1 << _orbit_count(n))
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
    None.  ``ns`` must list at least one size, each at least 1.  Returns
    None when no candidate within the budget separates the properties; the
    answer is identical for every worker count.
    """
    from .properties import resolve_properties

    want = resolve_properties(want)
    want_not = resolve_properties(want_not)
    if max_spaces < 0:
        raise ValueError("max_spaces must be nonnegative")
    _check_seed(seed)
    _check_density(density)
    ns = tuple(ns)
    if not ns:
        raise ValueError("ns must list at least one size")
    for n in ns:
        _check_n(n)
    for population, count in _search_plan(ns, max_spaces, seed, density):
        args_list = [
            (population, s, e, tuple(want), tuple(want_not))
            for s, e in _partition(count, workers)
        ]
        try:
            hits = _run_chunks(_search_chunk, args_list, workers)
        except CapExceededError as exc:
            # the witnesses run within the budget, and no caller can lift it here
            raise CapExceededError(str(exc).removesuffix(OVERRIDE_ADVICE)) from None
        for hit in hits:
            if hit is not None:
                return next(population.spaces(hit, hit + 1))[1]
    return None
