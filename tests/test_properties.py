import hashlib
import json

import pytest
from hypothesis import example, given, settings, strategies as st

import ispaces as I
from ispaces import BetweennessTable, HypothesisNotMetError, validate
from ispaces.cli import _jsonify
from ispaces.properties import (
    _c7_witness,
    _interval_transitivity_scan,
    antisymmetry_conditions,
    interval_transitivity_witness,
    property_report,
    resolve_properties,
    transitivity_conditions,
)

import naive
from conftest import space_strategy


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
        space = I.free_orbit_encoding(4).decode(encoding)
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
        cv = transitivity_conditions(l3, semigroup_conditions=False)
        assert cv.values[3] is None and cv.values[4] is None
        assert cv.skipped == ("C4", "C5")
        assert cv.all_equal()
        assert cv.flags()["C4"] is None

    def test_skipped_by_cap(self):
        # a dense space keeps the convex family tiny, so only the subset
        # lattice size matters here
        big = I.random_space(11, seed=0, density=1.0)
        cv = transitivity_conditions(big)
        assert cv.skipped == ("C4", "C5")
        assert cv.all_equal()


class TestWorkBudget:
    """Each size rule at its boundary: steps <= WORK_BUDGET run, more are refused or skipped."""

    def test_semigroup_conditions_run_to_eight_points(self):
        # random spaces fail C4 at the first triples, so only the rule costs
        eight = transitivity_conditions(I.random_space(8, seed=0))
        assert eight.skipped == () and eight.values[3] is False
        nine = I.random_space(9, seed=0)
        assert transitivity_conditions(nine).skipped == ("C4", "C5")
        assert transitivity_conditions(nine, semigroup_conditions=True).skipped == ()

    def test_allow_large_forces_semigroup_conditions(self):
        nine = I.random_space(9, seed=0)
        cv = transitivity_conditions(nine, allow_large=True)
        assert cv.skipped == () and cv.values[3] is False and cv.values[4] is False
        assert cv.witnesses["C4"] == cv.witnesses["C5"]
        assert transitivity_conditions(nine, semigroup_conditions=False, allow_large=True).skipped == ("C4", "C5")

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
    """C4/C5 (row gather) and C7 (skip of convex [A, B]) against plain scans."""
    tab = naive.subset_interval_table(space)
    assert [list(row) for row in space._subset_table()] == tab
    w4, w5 = naive.semigroup_witnesses(space, tab)
    witnesses = transitivity_conditions(space, semigroup_conditions=True).witnesses
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
    @settings(max_examples=20)
    def test_c7_sampled_six_points(self, space):
        # C7 scans only the pairs A <= B; the oracle scans every pair
        convex = space._convex_masks()
        w7 = naive.convex_pairs_witness(space, naive.subset_interval_table(space))
        assert _mask_witness(_c7_witness(space, convex, set(convex))) == w7


class TestTriangleWitnesses:
    """C8 (skip of convex [[a,b],{c}]) and C9 (one hull per point set) against plain scans."""

    @given(space_strategy(min_n=1, max_n=5))
    @settings(max_examples=80)
    def test_against_plain_scan(self, space):
        witnesses = transitivity_conditions(space, semigroup_conditions=False).witnesses
        assert (witnesses.get("C8"), witnesses.get("C9")) == naive.triangle_witnesses(space)


class TestSpaceMemo:
    @given(space_strategy(max_n=5))
    @settings(max_examples=60)
    def test_memoized_values_equal_fresh(self, space):
        property_report(space)
        assert interval_transitivity_witness(space) == _interval_transitivity_scan(space)
        assert (interval_transitivity_witness(space) is None) == naive.interval_transitive(space)
        naive_convex = tuple(sorted(sum(1 << i for i in s) for s in naive.convex_sets(space)))
        assert space._convex_masks() == naive_convex
        enc = I.free_orbit_encoding(space.n)
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
        # report order, rendered as JSON; any change to a flag, a witness or
        # their order changes the digest
        digest = hashlib.sha256()
        for n in range(1, 5):
            for space in I.enumerate_spaces(n):
                report = property_report(space)
                digest.update(json.dumps(_jsonify([report.flags, report.witnesses, report.notes])).encode())
        assert digest.hexdigest() == "67785ff1e0d5c18fbd29d83c44ce97a9d72f69a056fb005641a5cbad17c67c47"
