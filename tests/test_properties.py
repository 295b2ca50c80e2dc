import hashlib
import json

import pytest
from hypothesis import example, given, settings, strategies as st

import ispaces as I
from ispaces import BetweennessTable, HypothesisNotMetError, validate
from ispaces.base import bits_of
from ispaces.properties import (
    _c7_witness,
    _stiffness_breaches,
    antisymmetry_conditions,
    interval_transitivity_witness,
    property_report,
    resolve_properties,
    semigroup_reported,
    transitivity_conditions,
)

import naive
from conftest import deadline, space_strategy


@pytest.fixture(scope="module")
def non_stiff_3():
    # the two orbits <0,1,2>/<2,1,0> and <1,2,0>/<0,2,1> set true
    return validate(BetweennessTable.completed(3, [(0, 1, 2), (1, 2, 0)]))


@pytest.fixture(scope="module")
def single():
    return I.linear_order_space(1)


class TestNamedProperties:
    def test_single_point_vacuous(self, single):
        report = property_report(single)
        assert all(v is True for v in report.flags.values())

    def test_chain_properties(self, l3):
        assert I.point_transitivity_witness(l3) is None
        assert I.point_antisymmetry_witness(l3) is None
        assert I.interval_transitivity_witness(l3) is None
        assert I.interval_antisymmetry_witness(l3) is None
        assert I.interval_convexity_witness(l3) is None
        assert I.stiffness_witness(l3) is None

    def test_non_stiff_example(self, non_stiff_3):
        assert I.stiffness_witness(non_stiff_3) == (0, 1, 2, 0)
        assert I.stiffness_witness(non_stiff_3) is not None

    def test_k23_interval_convexity_witness(self, k23):
        witness = I.interval_convexity_witness(k23)
        assert witness == (2, 3, 0, 1, 4)
        assert naive.witness_falsifies(k23, "interval-convex", witness)

    def test_k23_interval_transitivity_fails(self, k23):
        assert I.interval_transitivity_witness(k23) is not None
        assert naive.witness_falsifies(k23, "C1", I.interval_transitivity_witness(k23))

    @given(space_strategy(max_n=4))
    @settings(max_examples=80)
    def test_checkers_match_naive(self, space):
        assert (I.point_transitivity_witness(space) is None) == naive.point_transitive(space)
        assert (I.point_antisymmetry_witness(space) is None) == naive.point_antisymmetric(space)
        assert (I.interval_transitivity_witness(space) is None) == naive.interval_transitive(space)
        assert (I.interval_antisymmetry_witness(space) is None) == naive.interval_antisymmetric(space)
        assert (I.interval_convexity_witness(space) is None) == naive.interval_convex(space)
        assert (I.stiffness_witness(space) is None) == naive.stiff(space)

    @given(space_strategy(max_n=5))
    @settings(max_examples=60)
    def test_interval_transitive_implies_point_transitive(self, space):
        if I.interval_transitivity_witness(space) is None:
            assert I.point_transitivity_witness(space) is None


class TestTransitivityConditions:
    def test_chain_all_true(self, l3):
        cv = transitivity_conditions(l3)
        assert cv.values == (True,) * 9
        assert cv.all_equal() and cv.witnesses == {}

    def test_k23_all_false_and_agreeing(self, k23):
        cv = transitivity_conditions(k23)
        assert cv.values == (False,) * 9
        assert cv.all_equal()
        for name, witness in cv.witnesses.items():
            assert naive.witness_falsifies(k23, name, witness)

    @given(space_strategy(max_n=3))
    @settings(max_examples=30)
    def test_against_naive_vector(self, space):
        cv = transitivity_conditions(space)
        assert cv.values == naive.transitivity_vector(space)

    @pytest.mark.parametrize("encoding", [0, 1, 25, 100, 777, 2048, 4095])
    def test_against_naive_vector_n4(self, encoding):
        # full brute-force route at the exhaustive-verification size,
        # including the (2^4)^3 subset-triple conditions
        space = I.FreeOrbitEncoding(4).decode(encoding)
        cv = transitivity_conditions(space)
        assert cv.values == naive.transitivity_vector(space)

    @given(space_strategy(max_n=4))
    @settings(max_examples=60)
    def test_logical_weakenings(self, space):
        flags = transitivity_conditions(space).flags()
        if flags["C5"]:
            assert flags["C4"]
        if flags["C3"]:
            assert flags["C2"]

    def test_semigroup_skip(self, l3):
        # the evaluator always returns C4/C5; only the report blanks them
        cv = transitivity_conditions(l3)
        assert cv.values == (True,) * 9 and cv.all_equal()
        assert semigroup_reported(1, 3, False)
        assert not semigroup_reported(1025, 5, False) and semigroup_reported(1024, 5, False)
        assert semigroup_reported(1025, 5, True)

    def test_skipped_by_cap(self):
        # a dense space keeps the convex family tiny, so only the subset
        # lattice size matters here
        big = I.random_space(11, seed=0, density=1.0)
        cv = transitivity_conditions(big)
        assert cv.all_equal() and cv.values[3] == cv.values[4] == cv.values[2]
        report = property_report(big, list(I.TRANSITIVITY_CONDITIONS))
        assert report.flags == {**cv.flags(), "C4": None, "C5": None}
        assert report.witnesses == {k: w for k, w in cv.witnesses.items() if k not in ("C4", "C5")}
        assert set(report.notes) == {"C4", "C5"}


class TestWorkBudget:
    """Each size rule at its boundary: steps <= WORK_BUDGET run, more are refused or skipped."""

    def test_semigroup_conditions_run_to_eight_points(self):
        eight = property_report(I.random_space(8, seed=0), ["C4", "C5"])
        assert eight.flags == {"C4": False, "C5": False} and eight.notes == {}
        nine = property_report(I.random_space(9, seed=0), ["C4", "C5"])
        assert nine.flags == {"C4": None, "C5": None} and nine.witnesses == {}
        assert semigroup_reported(1, 8, False) and not semigroup_reported(1, 9, False)

    def test_allow_large_forces_semigroup_conditions(self):
        nine = I.random_space(9, seed=0)
        witness = (I.PointSet.of(9, [0]), I.PointSet.of(9, [0]), I.PointSet.of(9, [1]), 3)
        cv = transitivity_conditions(nine)
        assert cv.values[3] is False and cv.values[4] is False
        assert cv.witnesses["C4"] == cv.witnesses["C5"] == witness
        report = property_report(nine, ["C4", "C5"], allow_large=True)
        assert report.flags == {"C4": False, "C5": False} and report.notes == {}
        assert report.witnesses == {"C4": witness, "C5": witness}

    def test_subsets_enumerated_to_sixteen_points(self):
        # a dense space: every [a, c] is the whole universe, so only the
        # empty set, the points and the universe are convex
        assert len(I.random_space(16, seed=0, density=1.0)._convex_masks()) == 18
        seventeen = I.random_space(17, seed=0, density=1.0)
        with pytest.raises(I.CapExceededError, match=r"takes an estimated 37879808 steps, over the work budget of 33554432"):
            seventeen._convex_masks()
        assert len(seventeen._convex_masks(allow_large=True)) == 19

    def test_report_notes_the_skip_estimate(self):
        report = property_report(I.random_space(9, seed=0), ["C4", "C5", "stiff"])
        assert list(report.flags) == ["stiff", "C4", "C5"]
        assert report.flags["C4"] is None and report.flags["C5"] is None
        for name in ("C4", "C5"):
            assert report.notes[name].startswith("skipped: C4/C5 on 9 points takes an estimated 134217728 steps")
        assert set(report.notes) == {"C4", "C5"}


def _mask_witness(witness):
    return None if witness is None else tuple(
        part.mask if isinstance(part, I.PointSet) else part for part in witness
    )


def _check_fast_paths(space):
    """C4/C5 (C3's witness as singletons) and C7 (skip of convex [A, B]) against plain scans."""
    tab = naive.subset_interval_table(space)
    w4, w5 = naive.semigroup_witnesses(space, tab)
    witnesses = transitivity_conditions(space).witnesses
    assert _mask_witness(witnesses.get("C4")) == w4
    assert _mask_witness(witnesses.get("C5")) == w5
    w7 = naive.convex_pairs_witness(space, tab)
    assert _mask_witness(witnesses.get("C7")) == w7


class TestFastPathOracles:
    def test_every_space_up_to_four_points(self):
        for n in range(1, 5):
            for space in I.enumerate_spaces(n):
                _check_fast_paths(space)

    @given(space_strategy(min_n=5, max_n=5))
    @settings(max_examples=8)
    def test_sampled_five_points(self, space):
        _check_fast_paths(space)

    @given(space_strategy(min_n=6, max_n=6))
    @example(I.linear_order_space(6))
    @example(I.geodesic_space_from_graph(I.complete_bipartite_graph(1, 5)))
    @settings(max_examples=8, deadline=None)
    def test_sampled_six_points(self, space):
        _check_fast_paths(space)

    @given(space_strategy(min_n=6, max_n=6))
    @example(I.linear_order_space(6))
    @example(I.geodesic_space_from_graph(I.complete_bipartite_graph(1, 5)))
    @settings(max_examples=20)
    def test_c7_sampled_six_points(self, space):
        # C7 scans only the pairs A <= B; the oracle scans every pair
        tab = naive.subset_interval_table(space)
        convex = space._convex_masks()
        w7 = naive.convex_pairs_witness(space, tab)
        assert _mask_witness(_c7_witness(space, convex, set(convex))) == w7

    def test_c7_cost_on_a_large_star(self):
        # K_{1,11} has 2^11 + 12 convex sets, so about 2.1 million pairs
        # A < B, but only 2,114 distinct unions A | B to join
        space = I.geodesic_space_from_graph(I.complete_bipartite_graph(1, 11))
        with deadline(5):
            assert all(transitivity_conditions(space).values)

    @pytest.mark.parametrize(
        "space, witness",
        [
            (I.geodesic_space_from_graph(I.Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)])), None),
            (I.linear_order_space(8), None),
            (I.geodesic_space_from_graph(I.complete_bipartite_graph(1, 7)), None),
            # A = {2}, B = C = {4}: the mismatch is not in the B = {0} or C = {0} slots
            (I.random_space(6, seed=0, density=0.05), (0b100, 0b10000, 0b10000, 5)),
        ],
        ids=["C_8", "P_8", "K_1_7", "random_6"],
    )
    def test_pinned_semigroup_witnesses(self, space, witness):
        witnesses = transitivity_conditions(space).witnesses
        assert _mask_witness(witnesses.get("C4")) == _mask_witness(witnesses.get("C5")) == witness


def _symmetric_tables(max_n=5):
    """Spaces built without the axiom check from tables with <a, x, c> iff
    <c, x, a>, the one axiom the triangle masks rely on: past the other
    axioms the propositions can fail."""

    def for_n(n):
        keys = [(a, x, c) for a in range(n) for x in range(n) for c in range(a, n)]

        def build(chosen):
            table = BetweennessTable.from_function(n, lambda a, x, c: (min(a, c), x, max(a, c)) in chosen)
            return I.FiniteIntervalSpace._trusted(table)

        return st.frozensets(st.sampled_from(keys)).map(build)

    return st.integers(1, max_n).flatmap(for_n)


class TestTriangleBreaches:
    """C2, C3 and the transitivity proposition read one stream of triangle
    breaches; each against its own plain scan."""

    @staticmethod
    def _check(space):
        witnesses = transitivity_conditions(space).witnesses
        assert (witnesses.get("C2"), witnesses.get("C3")) == naive.peano_witnesses(space)
        assert I.base_interval_transitivity_prop_witness(space) is None

    def test_every_space_up_to_three_points(self):
        for n in range(1, 4):
            for space in I.enumerate_spaces(n):
                self._check(space)

    @given(space_strategy(min_n=4, max_n=5))
    @settings(max_examples=60)
    def test_sampled(self, space):
        self._check(space)

    def test_c2_can_fail_after_c3(self):
        # the one pass must run on past C3's triple to find C2's
        space = I.FreeOrbitEncoding(4).decode(96)
        assert naive.peano_witnesses(space) == ((2, 2, 1, 3), (1, 2, 2, 3))
        witnesses = transitivity_conditions(space).witnesses
        assert (witnesses["C2"], witnesses["C3"]) == ((2, 2, 1, 3), (1, 2, 2, 3))

    @given(_symmetric_tables())
    @settings(max_examples=150)
    def test_proposition_on_symmetric_tables(self, space):
        got = I.base_interval_transitivity_prop_witness(space)
        assert got == naive.base_interval_transitivity_prop_witness(space)


class TestStiffnessBreaches:
    """Stiffness and the antisymmetry proposition read one stream of
    stiffness breaches; the stream, every d of every breach, against a plain
    quadruple scan."""

    @staticmethod
    def _check(space):
        stream = list(_stiffness_breaches(space))
        assert all(extra for *_, extra in stream)
        quadruples = [(a, b, c, d) for a, b, c, extra in stream for d in bits_of(extra)]
        assert quadruples == naive.stiffness_breaches(space)
        assert I.stiffness_witness(space) == next(iter(quadruples), None)
        assert I.base_interval_antisymmetry_prop_witness(space) is None

    def test_every_space_up_to_four_points(self):
        for n in range(1, 5):
            for space in I.enumerate_spaces(n):
                self._check(space)

    @given(space_strategy(min_n=5, max_n=7))
    @settings(max_examples=40)
    def test_sampled(self, space):
        self._check(space)

    @given(_symmetric_tables(max_n=4))
    @settings(max_examples=150)
    def test_proposition_on_symmetric_tables(self, space):
        got = I.base_interval_antisymmetry_prop_witness(space)
        assert got == naive.base_interval_antisymmetry_prop_witness(space)

    def test_proposition_tests_each_interval_once(self, k23, monkeypatch):
        # K_{2,3} is point-transitive, and its 24 breach points (a, d) name 12 intervals
        ads = [(a, d) for a, _, _, extra in _stiffness_breaches(k23) for d in bits_of(extra)]
        assert (len(ads), len(set(ads))) == (24, 12)
        calls = []
        breach = type(k23)._order_antisymmetry_breach

        def counted(space, am):
            calls.append(am)
            return breach(space, am)

        monkeypatch.setattr(type(k23), "_order_antisymmetry_breach", counted)
        assert I.base_interval_antisymmetry_prop_witness(k23) is None
        assert len(calls) == 12


class TestTriangleWitnesses:
    """C8 (skip of convex [[a,b],{c}]) and C9 (one hull per point set) against plain scans."""

    @given(space_strategy(min_n=1, max_n=5))
    @settings(max_examples=80)
    def test_against_plain_scan(self, space):
        witnesses = transitivity_conditions(space).witnesses
        assert (witnesses.get("C8"), witnesses.get("C9")) == naive.triangle_witnesses(space)


class TestSpaceMemo:
    @given(space_strategy(max_n=5))
    @settings(max_examples=60)
    def test_memoized_values_equal_fresh(self, space):
        property_report(space)
        assert (interval_transitivity_witness(space) is None) == naive.interval_transitive(space)
        naive_convex = tuple(sorted(sum(1 << i for i in s) for s in naive.convex_sets(space)))
        assert space._convex_masks() == naive_convex
        enc = I.FreeOrbitEncoding(space.n)
        fresh = enc.decode(enc.encode(space))
        assert fresh._convex is None and fresh._it_witness is None
        assert interval_transitivity_witness(fresh) == interval_transitivity_witness(space)
        assert fresh._convex_masks() == space._convex_masks()

    def test_caps_checked_before_memo(self):
        big = I.linear_order_space(17)
        big._convex = ()
        with pytest.raises(I.CapExceededError):
            big._convex_masks()
        assert big._convex_masks(allow_large=True) == ()


class TestAntisymmetryConditions:
    def test_chain_all_true(self, l3):
        dv = antisymmetry_conditions(l3)
        assert dv.values == (True,) * 5
        assert dv.hypothesis_met

    def test_hypothesis_enforced(self, k23):
        with pytest.raises(HypothesisNotMetError):
            antisymmetry_conditions(k23)
        dv = antisymmetry_conditions(k23, allow_non_interval_transitive=True)
        assert not dv.hypothesis_met

    @given(space_strategy(max_n=3))
    @settings(max_examples=30)
    def test_against_naive_vector(self, space):
        dv = antisymmetry_conditions(space, allow_non_interval_transitive=True)
        assert dv.values == naive.antisymmetry_vector(space)

    def test_equivalence_can_fail_without_hypothesis(self):
        # regression: exhaustive n <= 4 count of non-interval-transitive
        # spaces whose D values disagree, and the first such space
        disagreeing = 0
        first = None
        for n in (3, 4):
            for index, space in enumerate(I.enumerate_spaces(n)):
                if I.interval_transitivity_witness(space) is None:
                    continue
                dv = antisymmetry_conditions(space, allow_non_interval_transitive=True)
                if not dv.all_equal():
                    disagreeing += 1
                    if first is None:
                        first = (n, index, dv.values)
        assert disagreeing == 56
        assert first == (4, 25, (True, True, True, False, False))


class TestRationalSamples:
    def test_qualifying_samples_satisfy_all_antisymmetry_conditions(self, triangle):
        collinear = I.vector_space_on_points([(i,) for i in range(5)])
        for space in (triangle, collinear):
            assert I.interval_transitivity_witness(space) is None
            assert I.antisymmetry_conditions(space).values == (True,) * 5

    def test_witness_conditions_not_inherited_by_samples(self):
        # the ambient plane satisfies every condition, but a finite sample
        # need not: the 3x3 grid lacks the witnesses interval-transitivity
        # asks for, so results are reported per sample, never extrapolated
        grid = I.vector_space_on_points([(x, y) for x in range(3) for y in range(3)])
        assert I.point_transitivity_witness(grid) is None and I.stiffness_witness(grid) is None
        assert I.interval_transitivity_witness(grid) is not None


class TestPropositions:
    def test_exhaustive_small(self):
        for n in (1, 2, 3):
            for space in I.enumerate_spaces(n):
                assert I.base_interval_transitivity_prop_witness(space) is None
                assert I.base_interval_antisymmetry_prop_witness(space) is None
                assert I.stiff_convex_antisymmetry_witness(space) is None

    @given(space_strategy(min_n=4, max_n=5))
    @settings(max_examples=60)
    def test_sampled(self, space):
        assert I.base_interval_transitivity_prop_witness(space) is None
        assert I.base_interval_antisymmetry_prop_witness(space) is None
        assert I.stiff_convex_antisymmetry_witness(space) is None

    def test_vacuous_when_not_point_transitive(self):
        space = next(s for s in I.enumerate_spaces(4) if I.point_transitivity_witness(s) is not None)
        assert I.base_interval_antisymmetry_prop_witness(space) is None


def _sparse_spaces(min_n, max_n):
    """Seeded samples, mostly sparse: some properties hold, so witnesses sit past the first pairs."""
    return st.builds(
        I.random_space, st.integers(min_n, max_n), st.integers(0, 10 ** 6), st.sampled_from([0.05, 0.1, 0.2, 0.5])
    )


class TestSmallestWitnesses:
    """The library's scans (unordered interval pairs, base-order kernels)
    against plain lexicographic scans over every ordered tuple."""

    NAMES = (
        "point_transitivity_witness",
        "point_antisymmetry_witness",
        "interval_transitivity_witness",
        "interval_antisymmetry_witness",
        "interval_convexity_witness",
    )

    @given(_sparse_spaces(5, 6))
    @example(I.linear_order_space(6))
    @example(I.geodesic_space_from_graph(I.complete_bipartite_graph(2, 3)))
    @settings(max_examples=40)
    def test_against_plain_scan(self, space):
        for name in self.NAMES:
            assert getattr(I, name)(space) == getattr(naive, name)(space), name


class TestWitnessSoundness:
    @given(space_strategy(max_n=4))
    @settings(max_examples=60)
    def test_every_false_flag_has_sound_witness(self, space):
        report = property_report(space)
        for name, value in report.flags.items():
            if value is False:
                assert name in report.witnesses, f"missing witness for {name}"
                assert naive.witness_falsifies(space, name, report.witnesses[name]), (
                    name,
                    report.witnesses[name],
                )
            elif value is True:
                assert name not in report.witnesses


class TestPropertyReport:
    def test_selected_names_only(self, k23):
        report = property_report(k23, ["stiff", "interval-convex"])
        assert set(report.flags) == {"stiff", "interval-convex"}

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown property"):
            resolve_properties(["no-such-property"])

    @pytest.mark.parametrize("theorem, values, message", [
        ("pasch", (True,), "unknown theorem 'pasch'"),
        ("transitivity", (True,) * 8, "transitivity needs 9 values, got 8"),
    ])
    def test_condition_vector_shape_checks(self, theorem, values, message):
        with pytest.raises(ValueError) as exc:
            I.ConditionVector(theorem, values)
        assert str(exc.value) == message

    def test_condition_names_evaluate_only_their_family(self, monkeypatch):
        # the first 4-point space that is not interval-transitive
        space = next(s for s in I.enumerate_spaces(4) if interval_transitivity_witness(s) is not None)
        full = property_report(space)

        def refuse(*args, **kwargs):
            raise AssertionError("family evaluated without one of its names requested")

        with monkeypatch.context() as m:
            m.setattr("ispaces.properties.antisymmetry_conditions", refuse)
            report = property_report(space, ["C1", "stiff", "C8"])
        assert list(report.flags) == ["stiff", "C1", "C8"]
        assert report.flags == {k: full.flags[k] for k in ("stiff", "C1", "C8")}
        assert report.witnesses == {k: w for k, w in full.witnesses.items() if k in ("stiff", "C1", "C8")}
        assert report.notes == {}
        with monkeypatch.context() as m:
            m.setattr("ispaces.properties.transitivity_conditions", refuse)
            report = property_report(space, ["D2"])
        assert report.flags == {"D2": full.flags["D2"]}
        assert "antisymmetry-conditions" in report.notes

    def test_hypothesis_note_recorded(self, k23):
        report = property_report(k23)
        assert "antisymmetry-conditions" in report.notes
        assert report.flags["D1"] in (True, False)

    def test_registry_covers_documented_names(self):
        assert list(I.PROPERTIES) == [
            "point-transitive",
            "point-antisymmetric",
            "interval-transitive",
            "interval-antisymmetric",
            "interval-convex",
            "stiff",
            "antiexchange",
            "combinatorial",
            "antimatroid",
        ]
        report = property_report(I.linear_order_space(3))
        assert list(report.flags) == [*I.PROPERTIES, *I.TRANSITIVITY_CONDITIONS, *I.ANTISYMMETRY_CONDITIONS]

    def test_reports_up_to_four_points_unchanged(self):
        # flags, witnesses and notes of every space on n <= 4 points, in
        # report order, rendered as JSON as the CLI renders them (a point set
        # as its members); any change to a flag, a witness or their order
        # changes the digest
        digest = hashlib.sha256()
        for n in range(1, 5):
            for space in I.enumerate_spaces(n):
                report = property_report(space)
                digest.update(json.dumps([report.flags, report.witnesses, report.notes], default=list).encode())
        assert digest.hexdigest() == "67785ff1e0d5c18fbd29d83c44ce97a9d72f69a056fb005641a5cbad17c67c47"
