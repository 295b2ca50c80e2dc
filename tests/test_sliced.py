"""The bit-sliced census paths against the scalar per-space path."""

import json
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from ispaces import (
    CapExceededError,
    ExhaustivePopulation,
    FreeOrbitEncoding,
    Graph,
    SampledPopulation,
    antisymmetry_conditions,
    complete_bipartite_graph,
    geodesic_space_from_graph,
    interval_transitivity_witness,
    path_graph,
    random_space,
    sliced,
    transitivity_conditions,
    verify_antisymmetry_theorem,
    verify_transitivity_theorem,
)
from ispaces import search
from ispaces.properties import CONDITIONS, TRANSITIVITY_CONDITIONS
from ispaces.search import EquivalenceViolation, _census_chunk, _partition, _verify, random_encoding

import naive


def _scalar_values(n, encodings):
    enc = FreeOrbitEncoding(n)
    return [transitivity_conditions(enc.decode(e)).values for e in encodings]


def _columns(n, encodings):
    return naive.orbit_columns(FreeOrbitEncoding(n).orbit_count, encodings)


def _sliced_values(n, encodings):
    slices = sliced.transitivity_slices(n, _columns(n, encodings), len(encodings))
    return [tuple(bool(s >> i & 1) for s in slices) for i in range(len(encodings))]


def _scalar_antisymmetry(n, encodings):
    """Per space: None off the hypothesis, else the scalar D1..D5."""
    enc = FreeOrbitEncoding(n)
    out = []
    for e in encodings:
        space = enc.decode(e)
        out.append(antisymmetry_conditions(space).values if interval_transitivity_witness(space) is None else None)
    return out


def _sliced_antisymmetry(n, encodings):
    values, evaluated = sliced.antisymmetry_slices(n, _columns(n, encodings), len(encodings))
    # off the hypothesis every D bit must be clear, or the census would count it
    assert not any(s & ~evaluated for s in values)
    return [tuple(bool(s >> i & 1) for s in values) if evaluated >> i & 1 else None for i in range(len(encodings))]


@lru_cache(maxsize=None)
def _scalar_census(population, semigroup):
    """The census payload by a plain loop over spaces and the scalar conditions,
    with C4/C5 blanked unless ``semigroup`` (cached: both worker counts
    compare against it)."""
    enc = FreeOrbitEncoding(population.n)
    counts = Counter()
    vectors = Counter()
    details = []
    for index, space in population.spaces():
        values = transitivity_conditions(space).values
        if not semigroup:
            values = values[:3] + (None, None) + values[5:]
        counts.update(name for name, v in zip(TRANSITIVITY_CONDITIONS, values) if v)
        vectors["".join("-" if v is None else "T" if v else "F" for v in values)] += 1
        if len({v for v in values if v is not None}) > 1:
            details.append({"index": index, "encoding": enc.encode(space), "values": list(values)})
    return {
        "theorem": "transitivity",
        "n": population.n,
        "population": population.describe(),
        "spaces": population.size(),
        "hypothesis_excluded": 0,
        "skipped": [] if semigroup else ["C4", "C5"],
        "condition_counts": {name: counts[name] for name in TRANSITIVITY_CONDITIONS},
        "vector_counts": dict(sorted(vectors.items())),
        "violations": len(details),
        "violation_details": details,
    }


def _slices(batch):
    """The triple slices a batch holds, read from its two views."""
    n = batch.n
    fwd = [s for row in batch.fwd for s in row]
    ivl = [batch.ivl[a * n + c][x] for a in range(n) for x in range(n) for c in range(n)]
    assert fwd == ivl
    return fwd


class TestColumns:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_exhaustive_columns_equal_the_per_bit_formula(self, n):
        population = ExhaustivePopulation(n, allow_large=True)
        size = min(population.size(), sliced.BATCH)
        batches = [(0, size), (size // 3, size - size // 4)]
        if n == 5:
            # batches 1, 2^17 and 2^18 - 1, and part of batch 2^17 off its start
            top = 1 << 17
            batches += [(b * size, (b + 1) * size) for b in (1, top, 2 * top - 1)]
            batches.append((top * size + 100, top * size + 1300))
        for start, stop in batches:
            # a space's encoding is its index: bit i of column j is bit j of start + i
            assert population.columns(start, stop) == _columns(n, range(start, stop)), (start, stop)

    def test_exhaustive_batch_across_a_block_is_refused(self):
        population = ExhaustivePopulation(5, allow_large=True)
        for start, stop in ((4000, 4100), (sliced.BATCH - 1, sliced.BATCH + 1), (0, sliced.BATCH + 1)):
            with pytest.raises(ValueError, match=f"crosses a multiple of {sliced.BATCH}"):
                population.columns(start, stop)

    @pytest.mark.parametrize("size", [1, 7, sliced.BATCH - 1, sliced.BATCH])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_sampled_columns_are_the_bits_of_the_encodings(self, n, size):
        # n <= 2 has no orbits; n = 6 has 60, twice as many as the census's n = 5
        population = SampledPopulation(n, seed=17 * n, count=size + 5)
        encodings = list(population.encodings(5, size + 5))
        assert population.columns(5, size + 5) == _columns(n, encodings)


class TestSlices:
    def test_batch_slices_are_the_decoded_tables(self):
        for n in range(1, 5):
            enc = FreeOrbitEncoding(n)
            slices = _slices(sliced._Batch(n, ExhaustivePopulation(n).columns(0, enc.space_count), enc.space_count))
            for i in range(enc.space_count):
                bits = enc.decode(i).table.bits
                assert [s >> i & 1 for s in slices] == [bits >> t & 1 for t in range(n ** 3)]

    @pytest.mark.parametrize("size", [1, 7, sliced.BATCH - 1, sliced.BATCH])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_batch_slices_equal_the_per_bit_formula(self, n, size):
        enc = FreeOrbitEncoding(n)
        encodings = list(SampledPopulation(n, seed=17 * n, count=size).encodings())
        batch = sliced._Batch(n, _columns(n, encodings), size)
        assert _slices(batch) == naive.triple_slices(enc, encodings)

    def test_every_space_up_to_four_points(self):
        for n in range(1, 5):
            encodings = range(FreeOrbitEncoding(n).space_count)
            assert _sliced_values(n, encodings) == _scalar_values(n, encodings)

    @given(st.lists(st.integers(0, FreeOrbitEncoding(5).space_count - 1), min_size=1, max_size=24))
    @settings(max_examples=20)
    def test_five_point_batches(self, encodings):
        assert _sliced_values(5, encodings) == _scalar_values(5, encodings)


class TestAntisymmetrySlices:
    def test_every_space_up_to_four_points(self):
        for n in range(1, 5):
            encodings = range(FreeOrbitEncoding(n).space_count)
            assert _sliced_antisymmetry(n, encodings) == _scalar_antisymmetry(n, encodings)

    @given(st.lists(st.integers(0, FreeOrbitEncoding(5).space_count - 1), min_size=1, max_size=64))
    @settings(max_examples=25)
    def test_five_point_batches(self, encodings):
        assert _sliced_antisymmetry(5, encodings) == _scalar_antisymmetry(5, encodings)

    def test_five_point_batch_meeting_the_hypothesis(self):
        # uniform draws rarely meet interval-transitivity; the density sweep
        # gives a batch where about one space in seven does
        encodings = list(SampledPopulation(5, seed=3, count=700).encodings())
        got = _sliced_antisymmetry(5, encodings)
        assert sum(v is not None for v in got) > 50
        assert got == _scalar_antisymmetry(5, encodings)


class TestPastFivePoints:
    """The kernels against the scalar path on 6 to 12 points: the census
    slices a batch of at least 2^n spaces, and a batch holds up to 2^12."""

    @pytest.mark.parametrize(
        "graph",
        [
            # Q_3 is interval-transitive, yet [U, U] is not convex for U = {1, 2, 4}:
            # a C7 that skips the "A and B convex" premise fails it
            Graph.from_edges(8, [(u, u | 1 << i) for u in range(8) for i in range(3) if not u >> i & 1]),
            complete_bipartite_graph(2, 4),
            path_graph(7),
            Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)]),
            # the 3 x 3 grid meets C1..C9 and fails D1..D5
            Graph.from_edges(9, [(i, i + 1) for i in range(9) if i % 3 != 2] + [(i, i + 3) for i in range(6)]),
            complete_bipartite_graph(3, 6),
            complete_bipartite_graph(4, 6),
            Graph.from_edges(11, [(i, (i + 1) % 11) for i in range(11)]),
            path_graph(12),
        ],
        ids=["Q_3", "K_2_4", "P_7", "C_6", "grid_3_3", "K_3_6", "K_4_6", "C_11", "P_12"],
    )
    def test_geodesic_models(self, graph):
        space = geodesic_space_from_graph(graph)
        n, encodings = space.n, [FreeOrbitEncoding(space.n).encode(space)]
        assert _sliced_values(n, encodings) == _scalar_values(n, encodings)
        assert _sliced_antisymmetry(n, encodings) == _scalar_antisymmetry(n, encodings)

    @given(st.integers(0, 2 ** 32))
    @settings(max_examples=3)
    def test_six_point_batches(self, seed):
        # the density sweep puts spaces on both sides of the hypothesis in the batch
        encodings = list(SampledPopulation(6, seed=seed, count=200).encodings())
        assert _sliced_values(6, encodings) == _scalar_values(6, encodings)
        assert _sliced_antisymmetry(6, encodings) == _scalar_antisymmetry(6, encodings)

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_sampled_batches_up_to_twelve_points(self, n):
        # the sweep's first densities, 0 to 0.03, leave many subsets convex
        encodings = list(SampledPopulation(n, seed=n, count=4).encodings())
        assert _sliced_values(n, encodings) == _scalar_values(n, encodings)
        assert _sliced_antisymmetry(n, encodings) == _scalar_antisymmetry(n, encodings)

    @pytest.mark.parametrize("density", [0.0, 0.02, 1.0, None], ids=["every-subset-convex", "sparse", "full", "sweep"])
    @pytest.mark.parametrize("n", [7, 8])
    def test_antisymmetry_past_six_points(self, n, density):
        # D4's closed supersets are gathered over 2^n point sets; density 0
        # makes every subset convex, and at 0.02 D1..D5 hold on some of the
        # spaces that meet the hypothesis and fail on others
        encodings = list(SampledPopulation(n, seed=n, count=120, density=density).encodings())
        got = _sliced_antisymmetry(n, encodings)
        assert got == _scalar_antisymmetry(n, encodings)
        met = [v for v in got if v is not None]
        if density == 0.02:
            assert any(all(v) for v in met) and any(not any(v) for v in met)


class TestSlicedCensus:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "population, semigroup",
        [
            (ExhaustivePopulation(1), True),
            (ExhaustivePopulation(2), True),
            (ExhaustivePopulation(3), True),
            (ExhaustivePopulation(4), True),
            (ExhaustivePopulation(4), False),
            (SampledPopulation(4, seed=41, count=sliced.BATCH + 300), False),
            (SampledPopulation(5, seed=52, count=150), True),
            (SampledPopulation(5, seed=53, count=400), False),
        ],
        ids=lambda p: p.describe() if hasattr(p, "describe") else f"semigroup={p}",
    )
    def test_report_equals_scalar_loop(self, population, semigroup, workers):
        # semigroup=False: the census must blank C4/C5 before it tallies
        report = _verify("transitivity", population, () if semigroup else ("C4", "C5"), False, workers).to_dict()
        assert json.dumps(report) == json.dumps(_scalar_census(population, semigroup))

    def test_flipped_bit_is_reported_as_violation(self, monkeypatch):
        population = SampledPopulation(4, seed=7, count=50)
        flipped = 17
        real = sliced.transitivity_slices

        def one_flip(n, columns, size):
            values = list(real(n, columns, size))
            values[1] ^= 1 << flipped  # C2 of sample 17
            return tuple(values)

        monkeypatch.setattr(sliced, "transitivity_slices", one_flip)
        report = _verify("transitivity", population, (), False, 1)
        encoding = random_encoding(4, 7 + flipped, population.density_at(flipped))
        values = list(_scalar_values(4, [encoding])[0])
        values[1] = not values[1]
        assert report.violations == (EquivalenceViolation(flipped, encoding, tuple(values)),)
        assert random_space(4, 7 + flipped, population.density_at(flipped)) == (
            FreeOrbitEncoding(4).decode(encoding)
        )

    def test_flipped_antisymmetry_bit_is_reported_as_violation(self, monkeypatch):
        population = SampledPopulation(5, seed=11, count=600)
        real = sliced.antisymmetry_slices
        enc = FreeOrbitEncoding(5)
        flipped = next(i for i, e in enumerate(population.encodings())
                       if interval_transitivity_witness(enc.decode(e)) is None)

        def one_flip(n, columns, size):
            values, evaluated = real(n, columns, size)
            values = list(values)
            values[2] ^= 1 << flipped  # D3 of the first interval-transitive sample
            return tuple(values), evaluated

        monkeypatch.setattr(sliced, "antisymmetry_slices", one_flip)
        report = verify_antisymmetry_theorem(population)
        encoding = random_encoding(5, 11 + flipped, population.density_at(flipped))
        values = list(antisymmetry_conditions(enc.decode(encoding)).values)
        values[2] = not values[2]
        assert report.violations == (EquivalenceViolation(flipped, encoding, tuple(values)),)

    def test_exhaustive_cap_checked_before_any_batch(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a batch was built")

        monkeypatch.setattr(sliced, "_Batch", refuse)
        with pytest.raises(CapExceededError):
            verify_transitivity_theorem(ExhaustivePopulation(5))


class TestPathRule:
    """A census batch of ``size`` spaces on n points runs sliced when size >= 2^n."""

    @pytest.mark.parametrize("theorem", ["transitivity", "antisymmetry"])
    @pytest.mark.parametrize("n", [5, 6])
    def test_threshold(self, monkeypatch, n, theorem):
        kernel = f"{theorem}_slices"
        real, calls = getattr(sliced, kernel), []

        def spy(n, columns, size):
            calls.append(size)
            return real(n, columns, size)

        monkeypatch.setattr(sliced, kernel, spy)
        verify = verify_transitivity_theorem if theorem == "transitivity" else verify_antisymmetry_theorem
        verify(SampledPopulation(n, seed=n, count=2 ** n - 1))
        assert calls == []
        verify(SampledPopulation(n, seed=n, count=2 ** n))
        assert calls == [2 ** n]

    @pytest.fixture
    def chunk_starts(self, monkeypatch):
        """The chunk starts a census asks of ``_census_chunk`` on 3 workers, run in process without tallies."""
        starts = []

        def spy(args):
            starts.append(args[2])
            return {"counts": Counter(), "vectors": Counter(), "violations": [], "excluded": 0}

        monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(search, "_census_chunk", spy)
        monkeypatch.setattr(search, "_run_chunks", lambda task, args_list, workers: [task(a) for a in args_list])

        def run(population):
            starts.clear()
            _verify("transitivity", population, (), False, 3)
            return starts

        return run

    @pytest.mark.parametrize("population", [
        SampledPopulation(5, seed=0, count=9000), SampledPopulation(6, seed=0, count=64), ExhaustivePopulation(4),
    ], ids=lambda p: p.describe())
    def test_chunks_of_a_sliced_population_start_on_batches(self, chunk_starts, population):
        starts = chunk_starts(population)
        assert starts and all(start % sliced.BATCH == 0 for start in starts)
        assert len(starts) == -(-population.size() // sliced.BATCH)

    @pytest.mark.parametrize("population", [
        SampledPopulation(5, seed=0, count=31), SampledPopulation(6, seed=0, count=63),
        # no batch of at most 4096 spaces reaches 2^13
        SampledPopulation(13, seed=0, count=2 ** 13),
    ], ids=lambda p: p.describe())
    def test_chunks_of_a_scalar_population_are_not_rounded_up(self, chunk_starts, population):
        step = -(-population.size() // 12)  # about four chunks per worker
        assert chunk_starts(population) == list(range(0, population.size(), step))


def test_partition_respects_minimum_chunk(monkeypatch):
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    assert _partition(0, 2, 4096) == []
    assert _partition(4096, 2, 4096) == [(0, 4096)]
    assert _partition(10_000, 2, 4096) == [(0, 4096), (4096, 8192), (8192, 10_000)]
    assert _partition(100, 2) == [(s, min(s + 13, 100)) for s in range(0, 100, 13)]
    assert _partition(100, 1, 4096) == [(0, 100)]


def test_partition_aligns_chunks(monkeypatch):
    # 2^30 / 12 is not a multiple of 4096: unaligned chunks cut exhaustive
    # batches across blocks of encodings
    monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
    for total in (2**30, 10_000):
        chunks = _partition(total, 3, sliced.BATCH)
        assert all(start % sliced.BATCH == 0 for start, _ in chunks)
        assert [start for start, _ in chunks] == [0] + [stop for _, stop in chunks[:-1]]
        assert chunks[-1][1] == total


@lru_cache(maxsize=None)
def _scalar_chunk(theorem, population, lo, hi):
    """The tallies of spaces lo..hi-1 by a plain loop over the scalar conditions."""
    counts = Counter()
    vectors = Counter()
    excluded = 0
    for _, space in population.spaces(lo, hi):
        if theorem == "transitivity":
            values = transitivity_conditions(space).values
        elif interval_transitivity_witness(space) is None:
            values = antisymmetry_conditions(space).values
        else:
            excluded += 1
            continue
        counts.update(name for name, v in zip(CONDITIONS[theorem], values) if v)
        vectors["".join("T" if v else "F" for v in values)] += 1
    return {"counts": counts, "vectors": vectors, "violations": [], "excluded": excluded}


class TestFivePointBatches:
    """The first 1,024 spaces of exhaustive n = 5 batches 0 and 2^18 - 1,
    through the sliced census and the scalar conditions."""

    POPULATION = ExhaustivePopulation(5, allow_large=True)

    @pytest.mark.parametrize("theorem", ["transitivity", "antisymmetry"])
    @pytest.mark.parametrize("batch", [0, 2**18 - 1])
    def test_census_chunk_equals_scalar_conditions(self, batch, theorem):
        lo = batch * sliced.BATCH
        got = _census_chunk((theorem, self.POPULATION, lo, lo + 1024, (), True))
        assert got == _scalar_chunk(theorem, self.POPULATION, lo, lo + 1024)

    @pytest.mark.parametrize("batch", [0, 2**18 - 1])
    def test_c1_count_is_the_evaluated_count(self, batch):
        lo = batch * sliced.BATCH
        transitivity = _census_chunk(("transitivity", self.POPULATION, lo, lo + 1024, (), True))
        antisymmetry = _census_chunk(("antisymmetry", self.POPULATION, lo, lo + 1024, (), True))
        assert transitivity["counts"]["C1"] == 1024 - antisymmetry["excluded"]
