import operator
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

import ispaces as I
from ispaces import (
    Axiom,
    BetweennessTable,
    PointSet,
    ValidationError,
    axiom_violations,
    validate,
)
from ispaces.closure import ClosureSystem
from ispaces.base import record
from ispaces.core import AxiomViolation, BinaryRelation
from ispaces.models import Graph
from ispaces.properties import ConditionVector, PropertyReport
from ispaces.search import CensusReport, EquivalenceViolation, ExhaustivePopulation, SampledPopulation

import naive
from conftest import deadline, space_strategy, space_with_masks


def chain_table(n):
    return BetweennessTable.from_function(n, lambda a, x, c: min(a, c) <= x <= max(a, c))


# ---------------------------------------------------------------------------
# validation


class TestValidate:
    def test_chain_table_is_valid(self):
        space = validate(chain_table(3))
        assert space.n == 3
        assert space == I.linear_order_space(3)

    def test_thinness_violation_witnessed(self):
        table = BetweennessTable.completed(2, [])
        table = BetweennessTable(2, table.bits | (1 << ((0 * 2 + 1) * 2 + 0)))  # <0,1,0>
        violations = axiom_violations(table)
        assert I.AxiomViolation(Axiom.THINNESS, (0, 1, 0)) in violations
        with pytest.raises(ValidationError) as exc:
            validate(table)
        assert any(v.axiom is Axiom.THINNESS and v.witness == (0, 1, 0) for v in exc.value.violations)

    def test_middle_symmetry_violation_witnessed(self):
        base = BetweennessTable.completed(3, [])
        table = BetweennessTable(3, base.bits | (1 << ((0 * 3 + 1) * 3 + 2)))  # <0,1,2> only
        violations = axiom_violations(table)
        assert violations == [I.AxiomViolation(Axiom.MIDDLE_SYMMETRY, (0, 1, 2))]

    @pytest.mark.parametrize("n, bits", [(2, 1 << 8), (1, 2), (2, -1)])
    def test_table_bits_past_the_triple_range_rejected(self, n, bits):
        BetweennessTable(n, (1 << n ** 3) - 1)  # every triple true is in range
        with pytest.raises(ValueError) as exc:
            BetweennessTable(n, bits)
        assert str(exc.value) == "relation bits exceed the n^3 triple range"

    def test_reflexivity_violation_witnessed(self):
        violations = axiom_violations(BetweennessTable(2, 0))
        assert all(v.axiom is Axiom.REFLEXIVITY for v in violations)
        assert (0, 0, 0) in [v.witness for v in violations]

    def test_all_violations_reported(self):
        # empty table at n=2 misses every forced triple: 2 per (a, x) pair with
        # a != x plus one per diagonal point
        violations = axiom_violations(BetweennessTable(2, 0))
        assert len(violations) == 6

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError):
            BetweennessTable(0, 0)

    @given(space_strategy(max_n=5))
    def test_valid_spaces_have_no_violations(self, space):
        assert axiom_violations(space.table) == []

    def test_completed_rejects_explicit_thinness_breach(self):
        with pytest.raises(ValueError, match="thinness"):
            BetweennessTable.completed(3, [(0, 1, 0)])

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n ** 3) - 1))))
    @settings(max_examples=150)
    def test_violations_equal_per_triple_scan(self, case):
        n, bits = case
        table = BetweennessTable(n, bits)
        got = [(v.axiom.value, v.witness) for v in axiom_violations(table)]
        assert got == naive.axiom_violations(table)

    @given(space_strategy(max_n=5), st.data())
    @settings(max_examples=80)
    def test_near_valid_tables_diagnosed(self, space, data):
        n = space.n
        flips = data.draw(st.lists(st.integers(0, n ** 3 - 1), max_size=3))
        bits = space.table.bits
        for t in flips:
            bits ^= 1 << t
        table = BetweennessTable(n, bits)
        got = [(v.axiom.value, v.witness) for v in axiom_violations(table)]
        assert got == naive.axiom_violations(table)

    @given(space_strategy(max_n=5))
    @settings(max_examples=60)
    def test_builders_agree(self, space):
        table = space.table
        n = table.n
        assert BetweennessTable.from_triples(n, table.triples()) == table
        assert BetweennessTable.from_function(n, table.holds) == table
        assert list(table.triples()) == [
            (a, x, c) for a in range(n) for x in range(n) for c in range(n) if table.holds(a, x, c)
        ]
        halves = [(a, x, c) for a, x, c in table.triples() if a < c]
        assert BetweennessTable.completed(n, halves) == table

    def test_large_path_loads_quickly(self):
        # 120^3 triples: building or checking the table one triple at a time
        # against the whole n^3-bit int took minutes
        with deadline(20):
            space = I.geodesic_space_from_graph(I.path_graph(120))
        assert space.interval(0, 119) == PointSet.full(120)
        assert space.interval(3, 5) == PointSet.of(120, [3, 4, 5])


# ---------------------------------------------------------------------------
# holds / interval / set operators


class TestHolds:
    def test_chain_examples(self, l3):
        assert l3.holds(0, 1, 2)
        assert not l3.holds(1, 0, 2)

    @given(space_strategy(), st.data())
    def test_reflexivity_everywhere(self, space, data):
        a = data.draw(st.integers(0, space.n - 1))
        c = data.draw(st.integers(0, space.n - 1))
        assert space.holds(a, a, c)
        assert space.holds(a, c, c)

    def test_out_of_range(self, l3):
        with pytest.raises(ValueError):
            l3.holds(0, 1, 3)


class TestInterval:
    def test_chain(self, l3):
        assert l3.interval(0, 2) == PointSet.of(3, [0, 1, 2])

    @given(space_strategy(), st.data())
    def test_endpoints_and_degenerate(self, space, data):
        a = data.draw(st.integers(0, space.n - 1))
        c = data.draw(st.integers(0, space.n - 1))
        ivl = space.interval(a, c)
        assert a in ivl and c in ivl
        assert space.interval(a, a) == PointSet.of(space.n, [a])

    def test_k23_against_distance_oracle(self, k23):
        edges = list(I.complete_bipartite_graph(2, 3).edges())
        for a in range(5):
            for c in range(5):
                expected = naive.geodesic_interval(5, edges, a, c)
                assert k23.interval(a, c).members == expected
        assert k23.interval(2, 3).members == {0, 1, 2, 3}


class TestSetOperators:
    def test_set_between_examples(self, l3, k23):
        assert l3.set_between(PointSet.of(3, [0]), 1, PointSet.of(3, [2]))
        assert not l3.set_between(PointSet.empty(3), 1, PointSet.of(3, [2]))
        assert k23.set_between(PointSet.of(5, [2, 3]), 0, PointSet.of(5, [2, 3]))

    def test_set_interval_union_of_intervals(self, l3):
        # [{0}, {1,2}] is the union of [0,1] and [0,2]
        expected = l3.interval(0, 1) | l3.interval(0, 2)
        assert l3.set_interval(PointSet.of(3, [0]), PointSet.of(3, [1, 2])) == expected
        assert expected == PointSet.of(3, [0, 1, 2])

    @given(space_with_masks(masks=2))
    def test_singleton_reduction_and_empty(self, case):
        space, am, cm = case
        assert space.set_interval(PointSet.empty(space.n), PointSet(space.n, cm)).mask == 0
        a = am % space.n
        c = cm % space.n
        single = space.set_interval(PointSet.of(space.n, [a]), PointSet.of(space.n, [c]))
        assert single == space.interval(a, c)

    @given(space_with_masks(max_n=4, masks=2))
    def test_against_naive(self, case):
        space, am, cm = case
        a_set, c_set = PointSet(space.n, am), PointSet(space.n, cm)
        assert space.set_interval(a_set, c_set).members == naive.set_interval(
            space, a_set.members, c_set.members
        )

    @given(space_with_masks(max_n=4, masks=2))
    def test_set_between_against_naive(self, case):
        space, am, cm = case
        a_set, c_set = PointSet(space.n, am), PointSet(space.n, cm)
        for x in range(space.n):
            assert space.set_between(a_set, x, c_set) == naive.set_between(space, a_set.members, x, c_set.members)

    @given(space_with_masks(masks=2))
    def test_commutative(self, case):
        space, am, cm = case
        a_set, c_set = PointSet(space.n, am), PointSet(space.n, cm)
        assert space.set_interval(a_set, c_set) == space.set_interval(c_set, a_set)

    @given(space_with_masks(masks=4))
    def test_monotone_two_sided(self, case):
        space, am, bm, cm, dm = case
        small_a, big_a = PointSet(space.n, am & bm), PointSet(space.n, am | bm)
        small_c, big_c = PointSet(space.n, cm & dm), PointSet(space.n, cm | dm)
        assert space.set_interval(small_a, small_c).issubset(space.set_interval(big_a, small_c))
        assert space.set_interval(small_a, small_c).issubset(space.set_interval(small_a, big_c))
        assert space.set_interval(small_a, small_c).issubset(space.set_interval(big_a, big_c))

    @given(space_with_masks(masks=3))
    def test_union_distribution(self, case):
        space, am, bm, cm = case
        a, b, c = (PointSet(space.n, m) for m in (am, bm, cm))
        assert space.set_interval(a | b, c) == space.set_interval(a, c) | space.set_interval(b, c)


# ---------------------------------------------------------------------------
# convexity and hulls


class TestConvexity:
    def test_examples(self, l3, k23):
        assert l3.is_convex(PointSet.empty(3))
        assert not l3.is_convex(PointSet.of(3, [0, 2]))
        assert not k23.is_convex(PointSet.of(5, [0, 1, 2, 3]))

    @given(space_strategy())
    def test_trivial_convex_sets(self, space):
        assert space.is_convex(PointSet.empty(space.n))
        assert space.is_convex(PointSet.full(space.n))
        for a in range(space.n):
            assert space.is_convex(PointSet.of(space.n, [a]))

    def test_convex_sets_small_universes(self, l3):
        l2 = I.linear_order_space(2)
        assert {s.members for s in l2.convex_sets()} == {
            frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})
        }
        sets = l3.convex_sets()
        assert len(sets) == 7
        assert PointSet.of(3, [0, 2]) not in sets
        assert PointSet.empty(3) in sets and PointSet.full(3) in sets

    @given(space_strategy(max_n=4))
    def test_convex_sets_against_naive(self, space):
        assert {s.members for s in space.convex_sets()} == set(naive.convex_sets(space))

    def test_enumeration_cap(self):
        big = I.FreeOrbitEncoding(17).decode(0)
        with pytest.raises(I.CapExceededError):
            big.convex_sets()

    @given(space_with_masks(masks=2))
    def test_intersection_of_convex_is_convex(self, case):
        space, am, bm = case
        a_set = space.hull(PointSet(space.n, am))
        b_set = space.hull(PointSet(space.n, bm))
        assert space.is_convex(a_set & b_set)


class TestHull:
    def test_examples(self, l3, triangle):
        assert l3.hull(PointSet.empty(3)).mask == 0
        assert l3.hull(PointSet.of(3, [0, 2])) == PointSet.full(3)
        assert triangle.hull(PointSet.of(5, [0, 1, 2])).members == {0, 1, 2, 4}

    @given(space_with_masks(masks=2))
    def test_extensive_monotone_idempotent_convex(self, case):
        space, am, bm = case
        a_set = PointSet(space.n, am)
        h = space.hull(a_set)
        assert a_set.issubset(h)
        assert h.issubset(space.hull(PointSet(space.n, am | bm)))
        assert space.hull(h) == h
        assert space.is_convex(h)

    @given(space_with_masks(max_n=4, masks=1))
    def test_agrees_with_intersection_oracle(self, case):
        space, am = case
        a_set = PointSet(space.n, am)
        assert space.hull(a_set).members == naive.hull_by_intersection(space, a_set.members)


# ---------------------------------------------------------------------------
# base orders


class TestBaseOrders:
    def test_base_point_order_chain(self, l3):
        r = l3.base_point_order(0)
        assert r.holds(1, 2) and not r.holds(2, 1)
        assert r.is_partial_order()

    @given(space_strategy(), st.data())
    def test_reflexive_by_axiom(self, space, data):
        a = data.draw(st.integers(0, space.n - 1))
        assert space.base_point_order(a).is_reflexive()

    def test_base_set_order_examples(self, l3):
        a = 0
        assert l3.base_set_order(PointSet.of(3, [a])).rows == l3.base_point_order(a).rows
        empty = l3.base_set_order(PointSet.empty(3))
        assert all(row == 0 for row in empty.rows)
        r = l3.base_set_order(l3.interval(0, 1))
        assert r.holds(1, 2)

    @given(space_with_masks(max_n=4, masks=1), st.data())
    def test_base_set_order_against_naive(self, case, data):
        space, am = case
        a_set = PointSet(space.n, am)
        r = space.base_set_order(a_set)
        x = data.draw(st.integers(0, space.n - 1))
        y = data.draw(st.integers(0, space.n - 1))
        assert r.holds(x, y) == naive.base_holds(space, a_set.members, x, y)

    def test_relation_witnesses(self):
        # relation 0->1->2 without 0->2: transitivity witness (0, 1, 2)
        r = I.BinaryRelation(3, (0b011, 0b110, 0b100))
        assert r.transitivity_witness() == (0, 1, 2)
        # symmetric pair (0, 1): antisymmetry witness
        r2 = I.BinaryRelation(2, (0b11, 0b11))
        assert r2.antisymmetry_witness() == (0, 1)
        assert r2.antisymmetry_witness(within=PointSet.of(2, [1])) is None


# ---------------------------------------------------------------------------
# restriction


class TestRestrict:
    def test_identity(self, l3):
        assert l3.restrict(PointSet.full(3)) == l3

    def test_chain_to_endpoints(self, l3):
        sub = l3.restrict(PointSet.of(3, [0, 2]))
        assert sub.n == 2
        # only forced triples: the two points are no longer between each other
        assert sub.interval(0, 1).members == {0, 1}
        assert sub == I.FreeOrbitEncoding(2).decode(0)

    def test_empty_rejected(self, l3):
        with pytest.raises(ValueError):
            l3.restrict(PointSet.empty(3))

    @given(space_with_masks(max_n=5, masks=1))
    @settings(max_examples=60)
    def test_preserves_universal_properties(self, case):
        space, sm = case
        if sm == 0:
            sm = 1
        sub = space.restrict(PointSet(space.n, sm))
        for witness in (I.point_transitivity_witness, I.point_antisymmetry_witness, I.stiffness_witness):
            if witness(space) is None:
                assert witness(sub) is None


# ---------------------------------------------------------------------------
# point sets


class TestPointSet:
    def test_extensional_equality_and_str(self):
        assert PointSet.of(5, [2, 0]) == PointSet(5, 0b00101)
        assert str(PointSet.of(5, [0, 2])) == "{0,2}"
        assert str(PointSet.empty(5)) == "{}"

    def test_universe_checks(self):
        with pytest.raises(ValueError):
            PointSet.of(3, [3])
        with pytest.raises(ValueError):
            PointSet(3, 1 << 3)
        with pytest.raises(ValueError):
            PointSet.of(3, [0]) | PointSet.of(4, [0])

    def test_set_algebra(self):
        a = PointSet.of(4, [0, 1])
        b = PointSet.of(4, [1, 2])
        assert (a | b).members == {0, 1, 2}
        assert (a & b).members == {1}
        assert (a - b).members == {0}
        assert a.complement().members == {2, 3}
        assert (a & b).issubset(a)
        assert len(a) == 2 and list(a) == [0, 1] and 1 in a and 3 not in a

    def test_space_rejects_foreign_universe(self, l3):
        with pytest.raises(ValueError):
            l3.hull(PointSet.of(4, [0]))

    @pytest.mark.parametrize("op", [operator.or_, operator.and_, operator.sub, PointSet.issubset])
    def test_set_algebra_refuses_a_non_set(self, op):
        with pytest.raises(TypeError) as exc:
            op(PointSet.of(3, [0]), 1)
        assert str(exc.value) == "expected PointSet, got int"

    def test_space_refuses_a_non_set(self, l3):
        with pytest.raises(TypeError) as exc:
            l3.hull({0})
        assert str(exc.value) == "expected PointSet, got set"


# ---------------------------------------------------------------------------
# value classes (base.record)


def _census_report():
    return CensusReport("transitivity", 1, "exhaustive n=1", 1, 0, (), (("C1", 1),), (("TTTTTTTTT", 1),), ())


# (make, a different instance of the same class, the literal repr); make is
# called twice, so equality is checked between separately built instances.
RECORDS = [
    (lambda: PointSet(3, 5), PointSet(3, 4), "PointSet.of(3, [0, 2])"),
    (lambda: BetweennessTable(1, 1), BetweennessTable(1, 0), "BetweennessTable(n=1, bits=1)"),
    (lambda: AxiomViolation(Axiom.THINNESS, (0, 1, 0)), AxiomViolation(Axiom.THINNESS, (1, 0, 1)),
     "AxiomViolation(axiom=<Axiom.THINNESS: 'thinness'>, witness=(0, 1, 0))"),
    (lambda: BinaryRelation(2, (3, 2)), BinaryRelation(2, (1, 2)), "BinaryRelation(n=2, rows=(3, 2))"),
    (lambda: ClosureSystem(2, (1, 3)), ClosureSystem(2, (3,)), "ClosureSystem(n=2, closed=(1, 3))"),
    (lambda: Graph(2, (2, 1)), Graph(1, (0,)), "Graph(n=2, adj=(2, 1))"),
    (lambda: ConditionVector("antisymmetry", (True,) * 5), ConditionVector("antisymmetry", (False,) * 5),
     "ConditionVector(theorem='antisymmetry', values=(True, True, True, True, True), "
     "witness_items=(), hypothesis_met=True)"),
    (lambda: PropertyReport(2, {"stiff": True}, {}, {}), PropertyReport(2, {"stiff": False}, {"stiff": (0, 1, 1, 0)}, {}),
     "PropertyReport(n=2, flags={'stiff': True}, witnesses={}, notes={})"),
    (lambda: ExhaustivePopulation(3), ExhaustivePopulation(3, True), "ExhaustivePopulation(n=3, allow_large=False)"),
    (lambda: SampledPopulation(5, 0, 10), SampledPopulation(5, 0, 10, 0.5),
     "SampledPopulation(n=5, seed=0, count=10, density=None)"),
    (lambda: EquivalenceViolation(1, 2, (True, False)), EquivalenceViolation(1, 2, (False, True)),
     "EquivalenceViolation(index=1, encoding=2, values=(True, False))"),
    (_census_report, CensusReport("transitivity", 1, "exhaustive n=1", 2, 0, (), (), (), ()),
     "CensusReport(theorem='transitivity', n=1, population='exhaustive n=1', total=1, "
     "hypothesis_excluded=0, skipped=(), condition_counts=(('C1', 1),), "
     "vector_counts=(('TTTTTTTTT', 1),), violations=())"),
]


def _fields(obj):
    return {f: getattr(obj, f) for f in type(obj).__match_args__}


@pytest.mark.parametrize("make, other, text", RECORDS, ids=[r[1].__class__.__name__ for r in RECORDS])
class TestRecords:
    def test_repr(self, make, other, text):
        assert repr(make()) == text

    def test_equality_and_hash_by_field(self, make, other, text):
        obj = make()
        assert obj == make() and not obj != make()
        assert obj != other
        assert type(obj)(**_fields(obj)) == obj
        assert type(obj).__match_args__ == tuple(type(obj).__annotations__)
        if isinstance(obj, PropertyReport):
            with pytest.raises(TypeError):
                hash(obj)  # its dict fields are unhashable
        else:
            assert hash(obj) == hash(make()) == hash(tuple(_fields(obj).values()))

    def test_not_equal_to_another_class_with_the_same_fields(self, make, other, text):
        obj = make()
        twin_class = record(type("Twin", (), {"__annotations__": dict(type(obj).__annotations__)}))
        twin = twin_class(**_fields(obj))
        assert _fields(twin) == _fields(obj)
        assert obj != twin and twin != obj
        assert obj.__eq__(twin) is NotImplemented

    def test_frozen_unless_report(self, make, other, text):
        # every record, the report included, is frozen
        obj = make()
        name = type(obj).__match_args__[0]
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert repr(obj) == text

    def test_pickle_round_trip(self, make, other, text):
        obj = make()
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj) and back == obj and repr(back) == text


class TestRecordConstruction:
    def test_post_init_errors_unchanged(self):
        with pytest.raises(ValueError, match="^universe size must be nonnegative$"):
            PointSet(-1)
        with pytest.raises(ValueError, match="^betweenness table needs at least one point$"):
            BetweennessTable(0, 0)

    def test_keywords_and_defaults(self):
        assert PointSet(3) == PointSet(n=3) == PointSet(3, mask=0) == PointSet(mask=0, n=3)
        assert SampledPopulation(5, 0, count=10, density=None) == SampledPopulation(5, 0, 10)

    @pytest.mark.parametrize("args, kwargs, message", [
        ((1,), {}, "missing required arguments: 'bits'"),
        ((1, 1, 1), {}, "takes 2 arguments but 3 were given"),
        ((1, 1), {"n": 1}, "got multiple values for argument 'n'"),
        ((1, 1), {"rows": 1}, "got an unexpected keyword argument 'rows'"),
    ])
    def test_bad_arguments_raise_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError, match=re.escape(f"BetweennessTable() {message}")):
            BetweennessTable(*args, **kwargs)

    def test_trusted_closure_system_fills_fields_and_memos(self):
        system = ClosureSystem._trusted(2, (1, 3))
        assert system == ClosureSystem(2, (1, 3)) and system._members == frozenset({1, 3})
        assert pickle.loads(pickle.dumps(system)) == system
