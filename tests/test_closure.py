import pytest
from hypothesis import given, settings, strategies as st

import ispaces as I
from ispaces import (
    BetweennessTable,
    ClosureSystem,
    HypothesisNotMetError,
    PointSet,
    convex_closure_system,
    validate,
)
from ispaces.closure import antiexchange_witness, antimatroid_witness

import naive
from conftest import space_strategy, space_with_masks


def _moore_closure(n, raw):
    """Close a family of masks under intersection and add the universe."""
    family = set(raw) | {(1 << n) - 1}
    grew = True
    while grew:
        grew = False
        for a in list(family):
            for b in list(family):
                if a & b not in family:
                    family.add(a & b)
                    grew = True
    return tuple(sorted(family))


@pytest.fixture(scope="module")
def non_stiff_3():
    return validate(BetweennessTable.completed(3, [(0, 1, 2), (1, 2, 0)]))


class TestClosureSystemConstruction:
    def test_universe_required(self):
        with pytest.raises(ValueError, match="full universe"):
            ClosureSystem.of(2, [[0], [1]])

    def test_intersection_closure_required(self):
        with pytest.raises(ValueError, match="intersection-closed"):
            ClosureSystem.of(3, [[0, 1], [1, 2], [0, 1, 2]])

    @pytest.mark.parametrize("n, closed, message", [
        (-1, (), "universe size must be nonnegative"),
        (2, (3, 1), "closed sets must be distinct and ascending by mask"),
        (2, (1, 1, 3), "closed sets must be distinct and ascending by mask"),
        (2, (3, 4), "closed set exceeds the universe"),
        (2, (-1, 3), "closed set exceeds the universe"),
    ])
    def test_shape_checks(self, n, closed, message):
        with pytest.raises(ValueError) as exc:
            ClosureSystem(n, closed)
        assert str(exc.value) == message

    @pytest.mark.parametrize("x, y, bad", [(3, 0, 3), (0, -1, -1)])
    def test_entails_checks_point_ids(self, x, y, bad):
        cs = ClosureSystem.of(3, [[], [0, 1, 2]])
        with pytest.raises(ValueError) as exc:
            cs.entails(PointSet.empty(3), x, y)
        assert str(exc.value) == f"point id {bad} out of range [0, 3)"

    def test_foreign_universe_rejected(self):
        cs = ClosureSystem.of(3, [[], [0, 1, 2]])
        for call in (cs.is_closed, cs.cl, lambda s: cs.entails(s, 0, 1)):
            with pytest.raises(ValueError) as exc:
                call(PointSet.of(4, [0]))
            assert str(exc.value) == "point set universe 4 does not match system universe 3"

    def test_non_point_set_rejected(self, l3):
        cs = convex_closure_system(l3)
        for call in (cs.is_closed, cs.cl, lambda s: cs.entails(s, 0, 1)):
            for bad in (5, {0}):
                with pytest.raises(TypeError) as exc:
                    call(bad)
                assert str(exc.value) == f"expected PointSet, got {type(bad).__name__}"

    def test_standalone_moore_family(self):
        cs = ClosureSystem.of(3, [[], [0], [0, 1], [0, 1, 2]])
        assert cs.has_empty()
        assert cs.is_closed(PointSet.of(3, [0, 1]))
        assert not cs.is_closed(PointSet.of(3, [1]))

    def test_convex_system_examples(self, l3):
        cs = convex_closure_system(l3)
        assert len(cs.closed) == 7
        single = convex_closure_system(I.linear_order_space(1))
        assert [s.members for s in single.sets()] == [frozenset(), frozenset({0})]

    @given(space_strategy(max_n=5))
    @settings(max_examples=40)
    def test_full_universe_always_closed(self, space):
        cs = convex_closure_system(space)
        assert cs.is_closed(PointSet.full(space.n))

    def test_convex_families_pass_the_moore_check_up_to_four_points(self):
        # convex_closure_system skips the check; the checked constructor
        # must accept every family it builds, unchanged
        for n in range(1, 5):
            for space in I.enumerate_spaces(n):
                assert ClosureSystem(n, space._convex_masks()) == convex_closure_system(space)

    @given(space_strategy(min_n=5, max_n=6))
    @settings(max_examples=30)
    def test_convex_families_pass_the_moore_check(self, space):
        assert ClosureSystem(space.n, space._convex_masks()) == convex_closure_system(space)


class TestClosureOperator:
    def test_examples(self, l3):
        cs = convex_closure_system(l3)
        assert cs.cl(PointSet.empty(3)).mask == 0
        assert cs.cl(PointSet.of(3, [0, 2])) == PointSet.full(3)
        for closed in cs.sets():
            assert cs.cl(closed) == closed

    @given(space_with_masks(max_n=5, masks=1))
    @settings(max_examples=60)
    def test_cl_equals_hull(self, case):
        space, am = case
        cs = convex_closure_system(space)
        a_set = PointSet(space.n, am)
        assert cs.cl(a_set) == space.hull(a_set)

    def test_standalone_cl_by_intersection(self):
        cs = ClosureSystem.of(3, [[0], [0, 1], [0, 2], [0, 1, 2]])
        assert cs.cl(PointSet.of(3, [1])).members == {0, 1}
        assert cs.cl(PointSet.empty(3)).members == {0}

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=60)
    def test_random_moore_families(self, n, data):
        # close an arbitrary collection under intersection, add the universe,
        # and check the operator contracts hold on the standalone system
        raw = data.draw(st.sets(st.integers(0, (1 << n) - 1), max_size=6))
        family = _moore_closure(n, raw)
        cs = ClosureSystem(n, family)
        am = data.draw(st.integers(0, (1 << n) - 1))
        closure = cs.cl(PointSet(n, am))
        assert cs.is_closed(closure)
        assert am & ~closure.mask == 0
        for m in family:
            if am & ~m == 0:
                assert closure.mask & ~m == 0


class TestEntailment:
    def test_reflexive_like(self, l3):
        cs = convex_closure_system(l3)
        a_set = PointSet.of(3, [0])
        for x in range(3):
            assert cs.entails(a_set, x, x)

    def test_chain_example(self, l3):
        cs = convex_closure_system(l3)
        assert cs.entails(PointSet.of(3, [0]), 2, 1)

    def test_base_members_always_entailed(self, l3):
        cs = convex_closure_system(l3)
        a_set = PointSet.of(3, [0, 1])
        for x in range(3):
            for y in a_set:
                assert cs.entails(a_set, x, y)

    def test_unclosed_base_rejected(self, l3):
        cs = convex_closure_system(l3)
        unclosed = PointSet.of(3, [0, 2])
        with pytest.raises(HypothesisNotMetError):
            cs.entails(unclosed, 0, 1)
        assert cs.entails(unclosed, 0, 1, allow_unclosed=True)

    @given(space_with_masks(max_n=4, masks=1), st.data())
    @settings(max_examples=40)
    def test_against_naive(self, case, data):
        space, am = case
        cs = convex_closure_system(space)
        base = space.hull(PointSet(space.n, am))
        x = data.draw(st.integers(0, space.n - 1))
        y = data.draw(st.integers(0, space.n - 1))
        assert cs.entails(base, x, y) == naive.entails(space, base.members, x, y)


class TestEntailmentReverse:
    def test_chain_examples(self, l3):
        assert I.entailment_reverse_witness(l3, PointSet.of(3, [0])) is None
        assert I.entailment_reverse_witness(l3, PointSet.full(3)) is None

    def test_exhaustive_small(self):
        for n in (1, 2, 3):
            for space in I.enumerate_spaces(n):
                if I.interval_transitivity_witness(space) is not None:
                    continue
                for a_set in space.convex_sets():
                    if len(a_set) == 0:
                        continue
                    assert I.entailment_reverse_witness(space, a_set) is None

    def test_hypotheses_enforced(self, k23, l3):
        with pytest.raises(HypothesisNotMetError, match="interval-transitive"):
            I.entailment_reverse_witness(k23, PointSet.of(5, [0]))
        with pytest.raises(HypothesisNotMetError, match="convex"):
            I.entailment_reverse_witness(l3, PointSet.of(3, [0, 2]))
        # the empty base genuinely breaks the claim: c |-_{} c always holds,
        # <{}, c, c> never does, so emptiness is part of the hypothesis
        with pytest.raises(HypothesisNotMetError, match="nonempty"):
            I.entailment_reverse_witness(l3, PointSet.empty(3))


class TestAntiexchange:
    def test_chain_true(self, l3):
        assert I.antiexchange_witness(convex_closure_system(l3)) is None

    def test_non_stiff_space_false(self, non_stiff_3):
        # interval-transitive but not stiff, so the convex system cannot be
        # antiexchange; confirmed extensionally
        assert I.interval_transitivity_witness(non_stiff_3) is None
        cs = convex_closure_system(non_stiff_3)
        witness = antiexchange_witness(cs)
        assert witness is not None
        assert naive.witness_falsifies(non_stiff_3, "antiexchange", witness)

    def test_single_point_vacuous(self):
        assert I.antiexchange_witness(convex_closure_system(I.linear_order_space(1))) is None

    @given(space_strategy(max_n=4))
    @settings(max_examples=40)
    def test_against_naive(self, space):
        assert (I.antiexchange_witness(convex_closure_system(space)) is None) == naive.antiexchange(space)


class TestCombinatorial:
    """Chain unions stay closed on every finite family, checked by the
    per-chain walk in naive; the registry entry reports exactly that."""

    @given(space_strategy(max_n=5))
    @settings(max_examples=40)
    def test_always_true_on_finite_systems(self, space):
        assert naive.chain_walk(convex_closure_system(space).closed) is None
        assert I.PROPERTIES["combinatorial"](space, False) is None

    def test_standalone_family(self):
        cs = ClosureSystem.of(4, [[], [0], [1], [0, 1], [0, 1, 2, 3]])
        assert naive.chain_walk(cs.closed) is None

    @given(space_strategy(max_n=4))
    @settings(max_examples=25)
    def test_verify_combinatorial_prop(self, space):
        assert naive.combinatorial(space)
        report = I.property_report(space, ["combinatorial"])
        assert report.flags == {"combinatorial": True} and report.witnesses == {}

    def test_entry_keeps_the_subset_cap(self):
        big = I.linear_order_space(17)
        with pytest.raises(I.CapExceededError):
            I.PROPERTIES["combinatorial"](big, False)


class TestChainWalk:
    """The per-chain walk finds no chain with an unclosed union."""

    def test_every_space_up_to_four_points(self):
        for n in range(1, 5):
            for space in I.enumerate_spaces(n):
                assert naive.chain_walk(convex_closure_system(space).closed) is None

    @given(space_strategy(min_n=5, max_n=6))
    @settings(max_examples=30)
    def test_sampled_five_and_six_points(self, space):
        assert naive.chain_walk(convex_closure_system(space).closed) is None

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=60)
    def test_hand_built_systems(self, n, data):
        raw = data.draw(st.sets(st.integers(0, (1 << n) - 1), max_size=12))
        cs = ClosureSystem(n, _moore_closure(n, raw))
        assert naive.chain_walk(cs.closed) is None


class TestAntiexchangeOracle:
    @given(st.integers(1, 6), st.data())
    @settings(max_examples=80)
    def test_hand_built_moore_families(self, n, data):
        # families derived from spaces never reach non-convex Moore families
        raw = data.draw(st.sets(st.integers(0, (1 << n) - 1), max_size=12))
        closed = _moore_closure(n, raw)
        w = antiexchange_witness(ClosureSystem(n, closed))
        assert (None if w is None else (w[0].mask, *w[1:])) == naive.moore_antiexchange_witness(n, closed)


class TestClosureMemo:
    @given(space_strategy(max_n=5))
    @settings(max_examples=40)
    def test_memoized_witnesses_equal_fresh(self, space):
        cs = convex_closure_system(space)
        first = (antiexchange_witness(cs), antimatroid_witness(cs))
        assert (antiexchange_witness(cs), antimatroid_witness(cs)) == first
        I.property_report(space)
        fresh = ClosureSystem(cs.n, cs.closed)
        assert (antiexchange_witness(fresh), antimatroid_witness(fresh)) == first
        assert (first[0] is None) == naive.antiexchange(space)

    def test_memo_shared_by_predicates(self, non_stiff_3):
        cs = ClosureSystem(non_stiff_3.n, convex_closure_system(non_stiff_3).closed)
        witness = antiexchange_witness(cs)
        assert antimatroid_witness(cs) is witness
        assert I.antiexchange_witness(cs) is not None and I.antimatroid_witness(cs) is not None

    @given(space_strategy(max_n=4))
    @settings(max_examples=30)
    def test_system_memoized_on_the_space(self, space):
        cs = convex_closure_system(space)
        assert convex_closure_system(space) is cs
        assert cs == ClosureSystem(space.n, tuple(m.mask for m in space.convex_sets()))

    def test_cap_checked_before_the_memo(self):
        big = I.linear_order_space(17)
        full = (1 << big.n) - 1
        big._convex = (full,)
        big._closure = ClosureSystem(big.n, (full,))
        with pytest.raises(I.CapExceededError):
            convex_closure_system(big)
        assert convex_closure_system(big, allow_large=True) is big._closure


class TestAntimatroid:
    def test_chain_true(self, l3):
        assert I.antimatroid_witness(convex_closure_system(l3)) is None

    def test_non_stiff_space_false(self, non_stiff_3):
        cs = convex_closure_system(non_stiff_3)
        assert cs.has_empty() and naive.chain_walk(cs.closed) is None
        assert antimatroid_witness(cs) == antiexchange_witness(cs) is not None

    def test_empty_membership_is_data(self):
        without_empty = ClosureSystem.of(2, [[0], [0, 1]])
        assert I.antiexchange_witness(without_empty) is None and not without_empty.has_empty()
        assert antimatroid_witness(without_empty) == ("empty-set-not-closed",)
        assert I.antimatroid_witness(without_empty) is not None

    @given(space_strategy(max_n=4))
    @settings(max_examples=30)
    def test_space_systems_never_fail_on_empty(self, space):
        cs = convex_closure_system(space)
        assert cs.has_empty()
        assert antimatroid_witness(cs) == antiexchange_witness(cs)

    def test_against_naive_up_to_four_points(self):
        # both sides depend on the space only through its convex family, so
        # one space per distinct family covers every space on n <= 4 points
        families = {}
        for n in range(1, 5):
            for space in I.enumerate_spaces(n):
                families.setdefault((n, convex_closure_system(space).closed), space)
        for (n, closed), space in families.items():
            assert (antimatroid_witness(ClosureSystem(n, closed)) is None) == naive.antimatroid(space)


class TestTheoremBridges:
    @given(space_strategy(max_n=4))
    @settings(max_examples=40)
    def test_d3_d4_d5_agree_under_hypothesis(self, space):
        if I.interval_transitivity_witness(space) is not None:
            return
        dv = I.antisymmetry_conditions(space)
        flags = dv.flags()
        assert flags["D3"] == flags["D4"] == flags["D5"]
