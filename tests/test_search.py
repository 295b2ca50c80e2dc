import hashlib
import json
import math
import os
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import ispaces as I
from ispaces import (
    CapExceededError,
    ExhaustivePopulation,
    SampledPopulation,
    enumerate_spaces,
    find_separating,
    random_space,
    verify_antisymmetry_theorem,
    verify_transitivity_theorem,
)

from ispaces import properties, search
from ispaces.cli import main
from ispaces.properties import ANTISYMMETRY_CONDITIONS
from ispaces.search import (
    EquivalenceViolation,
    FreeOrbitEncoding,
    _partition,
    _pool_size,
    _sample_bits,
    _search_plan,
    random_encoding,
)

import naive
from conftest import deadline


class TestFreeOrbitEncoding:
    def test_orbit_counts(self):
        for n in range(1, 7):
            assert FreeOrbitEncoding(n).orbit_count == n * (n - 1) * (n - 2) // 2

    def test_decode_encode_roundtrip_exhaustive(self):
        for n in (1, 2, 3, 4):
            enc = FreeOrbitEncoding(n)
            for bits in range(enc.space_count):
                assert enc.encode(enc.decode(bits)) == bits

    @given(st.integers(0, FreeOrbitEncoding(5).space_count - 1))
    @settings(max_examples=80)
    def test_decoded_tables_validate(self, bits):
        space = FreeOrbitEncoding(5).decode(bits)
        assert I.axiom_violations(space.table) == []

    def test_decode_range_checked(self):
        enc = FreeOrbitEncoding(3)
        with pytest.raises(ValueError):
            enc.decode(8)
        with pytest.raises(ValueError):
            enc.decode(-1)

    def test_encode_checks_universe(self, l3):
        with pytest.raises(ValueError):
            FreeOrbitEncoding(4).encode(l3)

    def test_large_sample_decodes_in_bounded_memory(self):
        # an n^3-bit mask per orbit would hold n^6 bits: about 240 MB at n = 40
        tracemalloc.start()
        try:
            enc = FreeOrbitEncoding(40)
            space = enc.decode(random_encoding(40, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        assert space.n == 40 and enc.encode(space) == random_encoding(40, 0)

    def test_encoding_holds_no_object_per_orbit(self):
        # two flat arrays of text positions, 16 bytes per orbit; a tuple per
        # orbit and per pair of positions took about 200
        tracemalloc.start()
        try:
            enc = FreeOrbitEncoding(60)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert enc.orbit_count == 102_660 and size < 24 * enc.orbit_count

    def test_wide_encodings_take_linear_time(self):
        # 842,520 orbits and a 1,728,000-bit table: ORing or shifting an int
        # that wide once per bit took minutes
        enc = FreeOrbitEncoding(120)
        with deadline(10):
            bits = random_encoding(120, 0)
            space = enc.decode(bits)
            assert enc.encode(space) == bits
        assert bits.bit_length() > enc.orbit_count - 20 and space.n == 120

    def test_encoding_of_known_space(self, l3):
        # L3 has exactly the <0,1,2> orbit set: first orbit in lex order
        assert FreeOrbitEncoding(3).encode(l3) == 1


class TestEnumerateSpaces:
    def test_counts(self):
        assert [sum(1 for _ in enumerate_spaces(n)) for n in (1, 2, 3, 4)] == [1, 1, 8, 4096]

    def test_all_distinct_and_valid(self):
        seen = {s.table.bits for s in enumerate_spaces(3)}
        assert len(seen) == 8

    def test_cross_check_against_raw_symmetry_filter(self):
        # independent route: all 2^6 assignments of the six pairwise-distinct
        # triples at n=3, kept iff middle-symmetric
        distinct = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)
                    if len({a, b, c}) == 3]
        assert len(distinct) == 6
        valid = set()
        for bits in range(1 << 6):
            chosen = {t for k, t in enumerate(distinct) if (bits >> k) & 1}
            if all((c, b, a) in chosen for (a, b, c) in chosen):
                table = I.BetweennessTable.completed(3, chosen)
                assert I.axiom_violations(table) == []
                valid.add(table.bits)
        assert valid == {s.table.bits for s in enumerate_spaces(3)}

    def test_exhaustive_cap(self):
        with pytest.raises(CapExceededError):
            next(enumerate_spaces(5))
        assert next(enumerate_spaces(5, allow_large=True)).n == 5


class TestRandomSpace:
    def test_density_extremes(self):
        enc = FreeOrbitEncoding(4)
        assert random_space(4, 123, 0.0) == enc.decode(0)
        assert random_space(4, 123, 1.0) == enc.decode(enc.space_count - 1)

    def test_deterministic(self):
        a = random_space(5, seed=42, density=0.5)
        b = random_space(5, seed=42, density=0.5)
        assert a.table == b.table

    def test_density_validated(self):
        with pytest.raises(ValueError):
            random_space(3, 0, 1.5)


class TestSampler:
    @pytest.mark.parametrize("population, digest", [
        (SampledPopulation(5, 0, 10_000), "003d9bbd8af779ee882bb6cbf2390fc18ac852cc229eaac1290838684a9128a6"),
        (SampledPopulation(9, 123, 500, 0.3), "feb6893000d45c88ed0492f750519c8ca11743e04393ff40f579973e9cccb515"),
    ], ids=["n=5 sweep", "n=9 density=0.3"])
    def test_draw_stream_is_pinned(self, population, digest):
        # digests of the stream drawn with a new random.Random(seed + i) per sample
        text = ",".join(map(str, population.encodings()))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("density", [None, 0.0, 1.0, 1, 0.3])
    def test_sub_ranges_equal_single_draws(self, density):
        pop = SampledPopulation(5, 40, 250, density)
        for start, stop in ((0, 250), (0, 1), (17, 18), (99, 203), (240, 250), (5, 5)):
            assert list(pop.encodings(start, stop)) == [
                random_encoding(5, 40 + i, pop.density_at(i)) for i in range(start, stop)
            ]

    # The sweep grid, the ends (the int 1 too), 0.5 and 77/256 (u = 256 * density
    # an integer: no ties), and the smallest and largest floats inside (0, 1).
    DENSITIES = [i / 100 for i in range(101)] + [0.0, 1.0, 1, 0.5, 77 / 256, 5e-324, math.nextafter(1, 0)]
    # 2^32 and above take multi-word keys in the Mersenne Twister seeding.
    SEEDS = (0, 1, 7, 2**32 - 1, 2**32, 2**32 + 1, 2**64 + 3, 10**30)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_naive_oracle(self, n):
        # n <= 2 has no orbits; every sample is empty.  Byte k is b"1" when orbit k is set.
        draws = [(seed, d) for d in self.DENSITIES for seed in self.SEEDS]
        orbits = range(n * (n - 1) * (n - 2) // 2)
        expected = [naive.sample_encoding(n, s, d) for s, d in draws]
        assert [bytes(bits) for bits in _sample_bits(n, draws)] == [
            "".join("1" if e >> k & 1 else "0" for k in orbits).encode() for e in expected
        ]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**80), st.floats(0.0, 1.0))
    def test_matches_naive_oracle_hypothesis(self, n, seed, density):
        assert random_encoding(n, seed, density) == naive.sample_encoding(n, seed, density)

    def test_tied_draws_are_resolved_both_ways(self):
        # A draw is tied when it shares its top byte with density: 256 * draw
        # and 256 * density have the same floor, and 256 * density is not an
        # integer.  The n = 5 sweep has such draws, set and unset, and every
        # sample with one still matches the oracle.
        population = SampledPopulation(5, 0, 2000)
        tied = {True: 0, False: 0}
        for i, encoding in enumerate(population.encodings()):
            d = population.density_at(i)
            rng = random.Random(i)
            for x in (rng.random() for _ in range(30)):
                if int(256 * x) == int(256 * d) < 256 * d:
                    tied[x < d] += 1
                    assert encoding == naive.sample_encoding(5, i, d)
        assert tied[True] > 0 and tied[False] > 0

    @pytest.mark.parametrize("density", [2.0, -0.1, 1.0000000000000002, math.nan, math.inf])
    def test_bad_density_is_refused_up_front(self, density):
        # every entry point checks before anything is drawn
        with pytest.raises(ValueError, match=r"density must be in \[0, 1\]"):
            SampledPopulation(5, 0, 10, density)
        with pytest.raises(ValueError, match=r"density must be in \[0, 1\]"):
            random_encoding(5, 0, density)
        # n = 3 is exhaustive: the search would draw no sample at all
        with pytest.raises(ValueError, match=r"density must be in \[0, 1\]"):
            find_separating(["stiff"], [], ns=(3,), density=density)

    def test_negative_seed_is_refused(self):
        # random seeds with abs(seed): seeds -10..9 gave 11 distinct samples of 20
        with pytest.raises(ValueError, match="nonnegative"):
            SampledPopulation(5, -10, 20, 0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            random_encoding(5, -1)
        with pytest.raises(ValueError, match="nonnegative"):
            find_separating(["stiff"], [], ns=(3,), seed=-1)
        assert len(set(SampledPopulation(5, 0, 20, 0.5).encodings())) == 20

    @pytest.mark.parametrize("n", [0, -4])
    def test_no_points_is_refused(self, n):
        # each of these once drew or described a space on no points
        for build in (
            lambda: random_encoding(n, 0),
            lambda: random_encoding(n, 1, 1.0),
            lambda: SampledPopulation(n, 0, 3),
            lambda: ExhaustivePopulation(n),
        ):
            with pytest.raises(ValueError, match="need at least one point"):
                build()

    def test_negative_count_is_refused(self):
        # a census of SampledPopulation(5, 0, -3) reported "spaces": -3
        with pytest.raises(ValueError, match="count must be nonnegative, got -3"):
            SampledPopulation(5, 0, -3)
        assert list(SampledPopulation(5, 0, 0).encodings()) == []


class TestPopulations:
    def test_sampled_slicing_is_consistent(self):
        pop = SampledPopulation(n=4, seed=9, count=20)
        whole = list(pop.spaces())
        parts = list(pop.spaces(0, 7)) + list(pop.spaces(7, 20))
        assert [(i, s.table.bits) for i, s in whole] == [(i, s.table.bits) for i, s in parts]

    def test_density_sweep_hits_extremes(self):
        pop = SampledPopulation(n=3, seed=0, count=102)
        assert pop.density_at(0) == 0.0
        assert pop.density_at(100) == 1.0
        assert pop.density_at(101) == 0.0

    def test_exhaustive_cap_enforced(self):
        with pytest.raises(CapExceededError):
            list(ExhaustivePopulation(5).spaces())

    def test_refused_census_builds_no_encoding(self, monkeypatch):
        # n = 100 has 485,100 orbits; the census must be refused before they are listed
        def refuse(self, n):
            raise AssertionError(f"built the encoding of {n} points")

        monkeypatch.setattr(FreeOrbitEncoding, "__init__", refuse)
        for verify in (verify_transitivity_theorem, verify_antisymmetry_theorem):
            with pytest.raises(CapExceededError, match=r"n=100 takes an estimated 2\^485100 steps"):
                verify(ExhaustivePopulation(100))

    def test_exhaustive_within_budget_to_four_points(self):
        # 2^12 spaces at n = 4 fit the budget, 2^30 at n = 5 do not; the
        # separating search splits its sizes by the same rule
        assert ExhaustivePopulation(4).encodings() == range(4096)
        with pytest.raises(CapExceededError, match=r"n=5 takes an estimated 1073741824 steps"):
            ExhaustivePopulation(5).encodings()
        plan = _search_plan((5, 4), 5000, 0, None)
        assert plan == [(ExhaustivePopulation(4), 4096), (SampledPopulation(5, 0, 904, None), 904)]

    def test_one_cap_check_names_the_override(self, monkeypatch, capsys):
        # the check runs before any encoding is built, for every entry point
        # the CLI reads FreeOrbitEncoding from search when a command runs
        monkeypatch.setattr("ispaces.search.FreeOrbitEncoding", None)
        for call in (
            lambda: ExhaustivePopulation(7).encodings(),
            lambda: next(ExhaustivePopulation(7).spaces()),
            lambda: next(enumerate_spaces(7)),
        ):
            with pytest.raises(CapExceededError, match=r"n=7 takes an estimated 2\^105 steps, over the work budget of 33554432; pass allow_large=True \(--allow-large\)"):
                call()
        assert main(["enumerate", "--n", "7"]) == 2
        assert "--allow-large" in capsys.readouterr().err


class TestVerifyTheorems:
    def test_transitivity_exhaustive_n3(self):
        report = verify_transitivity_theorem(ExhaustivePopulation(3))
        assert report.total == 8
        assert report.violation_count == 0
        assert report.skipped == ()
        assert dict(report.condition_counts)["C1"] == 8
        assert dict(report.vector_counts) == {"TTTTTTTTT": 8}

    def test_budget_skips_semigroup(self):
        # 1025 * 8^5 subset triples are just over the work budget, 1024 * 8^5 fit it
        report = verify_transitivity_theorem(SampledPopulation(5, 7, 1025))
        assert report.skipped == ("C4", "C5")
        assert report.violation_count == 0
        assert all(pattern[3:5] == "--" for pattern in dict(report.vector_counts))
        report = verify_transitivity_theorem(SampledPopulation(5, 7, 1024))
        assert report.skipped == () and report.violation_count == 0
        assert "-" not in "".join(dict(report.vector_counts))

    def test_antisymmetry_exhaustive_n3(self):
        report = verify_antisymmetry_theorem(ExhaustivePopulation(3))
        assert report.total == 8
        assert report.hypothesis_excluded == 0
        assert report.violation_count == 0

    def test_sampled_census_matches_direct_loop(self):
        pop = SampledPopulation(n=4, seed=5, count=30)
        report = verify_transitivity_theorem(pop)
        direct = sum(1 for _, s in pop.spaces() if naive.interval_transitive(s))
        assert dict(report.condition_counts)["C1"] == direct

    def test_workers_byte_identical(self):
        pop = SampledPopulation(n=4, seed=31, count=60)
        reports = [
            verify_transitivity_theorem(pop, workers=w).to_dict() for w in (1, 3)
        ]
        assert json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)

    def test_pool_size_clamped(self):
        cpus = os.cpu_count() or 1
        assert _pool_size(1, 100) == 1
        assert _pool_size(10**6, 3) == min(3, cpus)
        assert _pool_size(10**6, 10**6) == cpus
        assert _pool_size(2, 1) == 1
        assert _pool_size(4, 0) == 1
        # chunking follows the clamped count, not the requested one
        assert len(_partition(4096, 10**6)) <= 4 * cpus
        assert _partition(4096, 10**6)[-1][1] == 4096

    def test_interval_transitive_counts_frozen(self):
        # regression values from the first verified exhaustive runs
        n3 = verify_transitivity_theorem(ExhaustivePopulation(3))
        n4 = verify_transitivity_theorem(ExhaustivePopulation(4))
        assert dict(n3.condition_counts)["C1"] == 8
        assert dict(n4.condition_counts)["C1"] == 400

    def test_hypothesis_excluded_is_complement_of_qualifying(self):
        report = verify_antisymmetry_theorem(ExhaustivePopulation(4))
        assert report.hypothesis_excluded == 4096 - 400

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_census_identities(self, n):
        # C1 is interval-transitivity, the hypothesis of the antisymmetry
        # conditions; every space that meets a census' hypothesis has one vector
        trans = verify_transitivity_theorem(ExhaustivePopulation(n))
        anti = verify_antisymmetry_theorem(ExhaustivePopulation(n))
        assert dict(trans.condition_counts)["C1"] == anti.total - anti.hypothesis_excluded
        for report in (trans, anti):
            assert sum(dict(report.vector_counts).values()) == report.total - report.hypothesis_excluded

    def test_sampled_equivalences_hold_beyond_exhaustive_sizes(self):
        # C4/C5 exceed the default triple budget here and must be skipped,
        # not guessed; the remaining columns still have to agree
        for n, count in ((5, 3000), (6, 1000)):
            pop = SampledPopulation(n=n, seed=606060 + n, count=count)
            trans = verify_transitivity_theorem(pop)
            assert trans.violation_count == 0
            assert trans.skipped == ("C4", "C5")
            anti = verify_antisymmetry_theorem(pop)
            assert anti.violation_count == 0
            assert anti.hypothesis_excluded < count  # some samples qualify


def _plain_antisymmetry_census(population):
    """Excluded count, condition counts and vector counts by a plain loop over spaces."""
    counts = Counter()
    vectors = Counter()
    excluded = 0
    for _, space in population.spaces():
        if I.interval_transitivity_witness(space) is not None:
            excluded += 1
            continue
        values = I.antisymmetry_conditions(space).values
        counts.update(name for name, v in zip(ANTISYMMETRY_CONDITIONS, values) if v)
        vectors["".join("T" if v else "F" for v in values)] += 1
    return excluded, tuple((name, counts[name]) for name in ANTISYMMETRY_CONDITIONS), tuple(sorted(vectors.items()))


class TestAntisymmetryCensus:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "population", [ExhaustivePopulation(4), SampledPopulation(5, 11, 600)], ids=lambda p: p.describe()
    )
    def test_equals_plain_loop(self, population, workers):
        report = verify_antisymmetry_theorem(population, workers=workers)
        assert (report.hypothesis_excluded, report.condition_counts, report.vector_counts) == (
            _plain_antisymmetry_census(population)
        )

    def test_flipped_condition_is_reported_as_violation(self, monkeypatch):
        # 50 < 2^6 spaces on 6 points make no sliced batch, so the census calls
        # the scalar conditions per space; tests/test_sliced.py flips a bit on the sliced path
        population = SampledPopulation(6, 11, 50)
        target = next(s for _, s in population.spaces() if I.interval_transitivity_witness(s) is None)
        real = properties.antisymmetry_conditions
        values = list(real(target).values)
        values[2] = not values[2]  # D3
        flipped = tuple(values)

        def flip_d3(space, **options):
            cv = real(space, **options)
            return I.ConditionVector("antisymmetry", flipped) if space == target else cv

        # the scalar census imports the conditions from properties when it runs
        monkeypatch.setattr(properties, "antisymmetry_conditions", flip_d3)
        report = verify_antisymmetry_theorem(population)
        enc = FreeOrbitEncoding(6)
        expected = tuple(
            EquivalenceViolation(i, enc.encode(s), flipped) for i, s in population.spaces() if s == target
        )
        assert expected and report.violations == expected


class TestFindSeparating:
    def test_empty_constraints_return_first_space(self):
        space = find_separating([], [], max_spaces=10)
        assert space == FreeOrbitEncoding(1).decode(0)

    def test_unknown_property(self):
        with pytest.raises(ValueError, match="unknown property"):
            find_separating(["white-chocolate"], [], max_spaces=1)

    def test_zero_budget(self):
        assert find_separating([], [], max_spaces=0) is None

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError) as exc:
            find_separating([], [], max_spaces=-1)
        assert str(exc.value) == "max_spaces must be nonnegative"

    def test_proven_implication_direction_never_separates(self):
        for budget in (1, 10, 500, 5000):
            assert find_separating(
                ["interval-transitive"], ["point-transitive"], max_spaces=budget, seed=3
            ) is None

    def test_point_transitive_separation_frozen(self):
        # regression: no separating space at n <= 4 (coincide exhaustively);
        # the first sampled hit for this plan sits at n = 5
        space = find_separating(
            ["point-transitive"], ["interval-transitive"],
            max_spaces=4500, ns=(1, 2, 3, 4, 5), seed=777000,
        )
        assert space is not None and space.n == 5
        assert FreeOrbitEncoding(5).encode(space) == 6152
        assert naive.point_transitive(space)
        assert not naive.interval_transitive(space)

    def test_workers_agree(self):
        kwargs = dict(max_spaces=4500, ns=(1, 2, 3, 4, 5), seed=777000)
        w1 = find_separating(["point-transitive"], ["interval-transitive"], workers=1, **kwargs)
        w4 = find_separating(["point-transitive"], ["interval-transitive"], workers=4, **kwargs)
        assert w1 == w4
