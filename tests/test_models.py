import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ispaces as I
from ispaces import Graph, PointSet, rational_between, vector_space_on_points
from ispaces.base import bits_of
from ispaces.cli import load

import naive
from conftest import TRIANGLE_POINTS, space_with_masks

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

    @pytest.mark.parametrize("n, adj, message", [
        (0, (), "graph needs at least one vertex"),
        (2, (0b10,), "adjacency size does not match vertex count"),
        (2, (0b11, 0b01), "loop at vertex 0"),
        (1, (0b10,), "asymmetric or out-of-range edge 0-1"),
    ])
    def test_construction_checks(self, n, adj, message):
        with pytest.raises(ValueError) as exc:
            Graph(n, adj)
        assert str(exc.value) == message

    @pytest.mark.parametrize("edge", [(0, 3), (-1, 0)])
    def test_edge_out_of_range_rejected(self, edge):
        with pytest.raises(ValueError) as exc:
            Graph.from_edges(3, [(0, 1), edge])
        assert str(exc.value) == f"edge {edge[0]}-{edge[1]} out of range [0, 3)"

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
                        u for u in bits_of(graph.adj[v])
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


@st.composite
def connected_graphs(draw, max_n=8):
    """A random spanning tree on up to ``max_n`` vertices plus random extra edges."""
    n = draw(st.integers(1, max_n))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, tree + extra)


@st.composite
def ispace_texts(draw, max_n=6):
    """An ispace file listing random triples, none of the shape <a, x, a> with x != a."""
    n = draw(st.integers(1, max_n))
    triple = st.tuples(*[st.integers(0, n - 1)] * 3).filter(lambda t: t[0] != t[2] or t[1] == t[0])
    lines = ["ispace v1", f"points {n}"] + [f"triple {a} {x} {c}" for a, x, c in draw(st.lists(triple))]
    return "\n".join(lines) + "\n"


def load_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "space.ispace")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return load(path)


#: Every way the package builds a space without the axiom scan.
BUILT_SPACES = st.one_of(
    st.sampled_from([
        lambda: I.geodesic_space_from_graph(I.complete_bipartite_graph(2, 3)),
        lambda: vector_space_on_points(TRIANGLE_POINTS),
        lambda: I.geodesic_space_from_graph(I.complete_graph(4)),
    ]).map(lambda build: build()),
    st.integers(1, 8).map(I.linear_order_space),
    connected_graphs().map(I.geodesic_space_from_graph),
    st.integers(1, 3).flatmap(point_sets).map(vector_space_on_points),
    space_with_masks(1, 6).filter(lambda sm: sm[1]).map(lambda sm: sm[0].restrict(PointSet(sm[0].n, sm[1]))),
    ispace_texts().map(load_text),
)


@given(BUILT_SPACES)
@settings(max_examples=300)
def test_model_outputs_always_validate(space):
    # the builders, restrict and the ispace loader skip validation, so the
    # axiom scan is their oracle here
    assert I.axiom_violations(space.table) == []
    assert I.validate(space.table) == space
