from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ispaces as I
from ispaces import Graph, rational_between, vector_space_on_points

import naive
from conftest import TRIANGLE_POINTS

coord = st.integers(-8, 8).map(Fraction)


def rational_points(dim, count):
    point = st.tuples(*[coord] * dim)
    return st.lists(point, min_size=count, max_size=count, unique=True)


def collinear_points(dim):
    """One to nine distinct points o + t*d on one line, in any order."""
    origin = st.tuples(*[coord] * dim)
    step = st.tuples(*[coord] * dim).filter(any)
    ts = st.lists(st.fractions(-4, 4, max_denominator=3), min_size=1, max_size=9, unique=True)
    return st.builds(
        lambda o, d, t: [tuple(oc + ti * dc for oc, dc in zip(o, d)) for ti in t], origin, step, ts
    )


def point_sets(dim):
    """One to nine distinct points: arbitrary, or all on one line."""
    return st.one_of(
        st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=9, unique=True),
        collinear_points(dim),
    )


class TestRationalBetween:
    def test_midpoint(self):
        assert rational_between((0, 0), (1, 2), (2, 4))

    def test_lambda_out_of_range(self):
        assert not rational_between((0, 0), (3, 0), (2, 0))

    def test_degenerate_segment(self):
        assert rational_between((1, 1), (1, 1), (1, 1))
        assert not rational_between((1, 1), (2, 1), (1, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rational_between((0, 0), (1,), (2, 2))

    def test_exact_boundary(self):
        # betweenness holds exactly at the endpoints, no rounding slack
        assert rational_between((0,), (1,), (1,))
        assert not rational_between((0,), (Fraction(10**12 + 1, 10**12),), (1,))

    @given(rational_points(2, 3))
    def test_parallel_component_oracle(self, pts):
        # independent route: y - x and z - x must be parallel (2x2 minors
        # vanish), pointing the same way, with |y - x| <= |z - x|
        x, y, z = pts
        dy = (y[0] - x[0], y[1] - x[1])
        dz = (z[0] - x[0], z[1] - x[1])
        parallel = dy[0] * dz[1] == dy[1] * dz[0]
        same_side = dy[0] * dz[0] >= 0 and dy[1] * dz[1] >= 0
        shorter = abs(dy[0]) <= abs(dz[0]) and abs(dy[1]) <= abs(dz[1])
        expected = parallel and same_side and shorter and dz != (0, 0)
        assert rational_between(x, y, z) == expected


class TestVectorSpaces:
    def test_collinear_matches_chain(self):
        space = vector_space_on_points([(0,), (1,), (2,), (3,)])
        assert space.table == I.linear_order_space(4).table

    def test_triangle_sample_betweenness(self, triangle):
        # (2,0) is the midpoint of (0,0) and (4,0): ids 0, 4, 1
        assert triangle.holds(0, 4, 1)
        assert not triangle.holds(0, 3, 1)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            vector_space_on_points([(0, 0), (1, 1), (0, 0)])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            vector_space_on_points([(0, 0), (1,)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            vector_space_on_points([])

    @given(st.integers(1, 3).flatmap(point_sets))
    @settings(max_examples=150)
    def test_table_equals_rational_between(self, pts):
        # the row-by-ray build against the n^3 reference tests
        reference = I.BetweennessTable.from_function(
            len(pts), lambda a, x, c: rational_between(pts[a], pts[x], pts[c])
        )
        assert vector_space_on_points(pts).table == reference

    @given(st.one_of(rational_points(2, 5), rational_points(3, 5)))
    @settings(max_examples=40)
    def test_universal_vector_space_properties(self, pts):
        space = vector_space_on_points(pts)
        assert I.point_transitivity_witness(space) is None
        assert I.point_antisymmetry_witness(space) is None
        assert I.stiffness_witness(space) is None


class TestGraph:
    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            Graph.from_edges(2, [(0, 0), (0, 1)])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            Graph.from_edges(4, [(0, 1), (2, 3)])

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(2, [(0, 1), (1, 0)])
        assert list(g.edges()) == [(0, 1)]

    def test_distances_against_floyd_warshall(self):
        for graph in (I.path_graph(5), I.complete_bipartite_graph(2, 3), I.complete_graph(4)):
            edges = list(graph.edges())
            expected = naive.fw_distances(graph.n, edges)
            for v in range(graph.n):
                assert graph.distances(v) == expected[v]


class TestGeodesicSpaces:
    def test_path_graph_is_chain(self):
        assert I.geodesic_space_from_graph(I.path_graph(4)).table == I.linear_order_space(4).table

    def test_k23_not_interval_convex(self, k23):
        assert I.interval_convexity_witness(k23) is not None

    def test_complete_graph_trivial_intervals(self):
        k3 = I.geodesic_space_from_graph(I.complete_graph(3))
        for a in range(3):
            for c in range(3):
                assert k3.interval(a, c).members == {a, c}
        report = I.property_report(k3)
        assert all(v is True for v in report.flags.values())

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=40)
    def test_interval_contains_a_shortest_path(self, n, data):
        # random connected graph: a random spanning tree plus random extras
        edges = {(i, data.draw(st.integers(0, i - 1), label="parent")) for i in range(1, n)}
        extra = data.draw(
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1]),
                max_size=n,
            ),
            label="extra",
        )
        graph = Graph.from_edges(n, [(min(u, v), max(u, v)) for u, v in edges | extra])
        space = I.geodesic_space_from_graph(graph)
        dist = [graph.distances(v) for v in range(n)]
        for a in range(n):
            for c in range(n):
                # walk one shortest path greedily and check containment
                path = [a]
                while path[-1] != c:
                    v = path[-1]
                    nxt = next(
                        u for u in I.core.bits_of(graph.adj[v])
                        if dist[u][c] == dist[v][c] - 1
                    )
                    path.append(nxt)
                ivl = space.interval(a, c)
                assert all(p in ivl for p in path)


class TestLinearOrderSpaces:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            I.linear_order_space(0)

    def test_matches_collinear_rationals(self):
        for n in range(1, 6):
            collinear = vector_space_on_points([(Fraction(i, 3),) for i in range(n)])
            assert I.linear_order_space(n).table == collinear.table

    def test_all_conditions_hold(self):
        for n in range(1, 5):
            space = I.linear_order_space(n)
            assert I.transitivity_conditions(space).values == (True,) * 9
            assert I.antisymmetry_conditions(space).values == (True,) * 5


@given(st.sampled_from(["chain", "k23", "triangle", "complete"]))
def test_model_outputs_always_validate(kind):
    space = {
        "chain": lambda: I.linear_order_space(5),
        "k23": lambda: I.geodesic_space_from_graph(I.complete_bipartite_graph(2, 3)),
        "triangle": lambda: vector_space_on_points(TRIANGLE_POINTS),
        "complete": lambda: I.geodesic_space_from_graph(I.complete_graph(4)),
    }[kind]()
    assert I.axiom_violations(space.table) == []
