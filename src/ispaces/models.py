"""Interval spaces built from concrete mathematical models.

Three builders are provided: exact rational point configurations with the
segment betweenness of the ambient vector space, connected graphs with
geodesic (shortest-path) betweenness, and linear orders.  The axioms hold
in each model by construction, so every builder returns its
:class:`~ispaces.core.FiniteIntervalSpace` without the axiom scan; the
tests check each builder's output against :func:`~ispaces.core.axiom_violations`.

All rational arithmetic is exact (`fractions.Fraction`); no floating point
is used anywhere, since betweenness at segment endpoints would otherwise be
decided by rounding noise.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Sequence, Union

from .core import BetweennessTable, FiniteIntervalSpace, _join_rows, bits_of, record

# ``fractions`` is imported where points are built, so graph models never load it.
Rational = Union[int, "Fraction"]
RationalPoint = tuple["Fraction", ...]


def rational_point(coords: Iterable[Rational]) -> RationalPoint:
    """Normalize a coordinate sequence to a tuple of Fractions."""
    from fractions import Fraction

    return tuple(Fraction(c) for c in coords)


def rational_between(x: Sequence[Rational], y: Sequence[Rational], z: Sequence[Rational]) -> bool:
    """Exact segment betweenness: y = x + t*(z - x) for some rational 0 <= t <= 1.

    Decided without floating point: if z == x the segment is a point and the
    answer is y == x; otherwise t is pinned by the first coordinate where z
    and x differ and verified on all coordinates.
    """
    px, py, pz = rational_point(x), rational_point(y), rational_point(z)
    if not len(px) == len(py) == len(pz):
        raise ValueError(f"dimension mismatch: {len(px)}, {len(py)}, {len(pz)}")
    if pz == px:
        return py == px
    dz = [zc - xc for xc, zc in zip(px, pz)]
    dy = [yc - xc for xc, yc in zip(px, py)]
    k = next(i for i, d in enumerate(dz) if d)
    t = dy[k] / dz[k]
    if t < 0 or t > 1:
        return False
    return all(dyc == t * dzc for dyc, dzc in zip(dy, dz))


def vector_space_on_points(points: Iterable[Sequence[Rational]]) -> FiniteIntervalSpace:
    """Interval space induced on a finite list of distinct rational points.

    Point ids follow list order.  Duplicate points are rejected: two ids
    naming one geometric point would make the sample's thinness vacuous in
    the wrong way.  Row <a, a, .> is full; for x != a, row <a, x, .> holds
    x and the points beyond it on the ray from a, found by grouping the other
    points by direction: O(n^2) exact steps, not n^3 :func:`rational_between` tests.
    """
    pts = [rational_point(p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    dim = len(pts[0])
    for p in pts:
        if len(p) != dim:
            raise ValueError(f"dimension mismatch: expected {dim}, got {len(p)}")
    seen: dict[RationalPoint, int] = {}
    for i, p in enumerate(pts):
        if p in seen:
            raise ValueError(f"duplicate point at ids {seen[p]} and {i}: {p}")
        seen[p] = i
    n = len(pts)
    rows = [0] * (n * n)
    for a, pa in enumerate(pts):
        rows[a * n + a] = (1 << n) - 1
        rays: dict[RationalPoint, list[tuple[Fraction, int]]] = {}  # direction -> [(distance, x)]
        for x, px in enumerate(pts):
            if x != a:
                d = [xc - ac for ac, xc in zip(pa, px)]
                scale = abs(next(c for c in d if c))
                rays.setdefault(tuple(c / scale for c in d), []).append((scale, x))
        for ray in rays.values():
            beyond = 0
            for _, x in sorted(ray, reverse=True):
                beyond |= 1 << x
                rows[a * n + x] = beyond
    return FiniteIntervalSpace._trusted(BetweennessTable(n, _join_rows(n, rows)))


# ---------------------------------------------------------------------------
# Graphs and geodesic betweenness


@record
class Graph:
    """A simple connected undirected graph on vertices [0, n).

    ``adj[v]`` is the neighbor bit mask of v.  Loops are rejected and
    connectivity is enforced at construction, so geodesic distances are
    always finite.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.adj) != self.n:
            raise ValueError("adjacency size does not match vertex count")
        for v, row in enumerate(self.adj):
            if (row >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
            for u in bits_of(row):
                if u >= self.n or not (self.adj[u] >> v) & 1:
                    raise ValueError(f"asymmetric or out-of-range edge {v}-{u}")
        if not self._connected():
            raise ValueError("graph is not connected")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} out of range [0, {n})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    def _connected(self) -> bool:
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            for v in bits_of(frontier):
                nxt |= self.adj[v]
            frontier = nxt & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits_of(self.adj[u]):
                if u < v:
                    yield (u, v)

    def distances(self, source: int) -> list[int]:
        """Unweighted shortest-path distances from ``source`` (BFS)."""
        dist = [-1] * self.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for u in bits_of(self.adj[v]):
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        return dist


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite_graph(m: int, k: int) -> Graph:
    """K_{m,k} with parts {0..m-1} and {m..m+k-1}."""
    return Graph.from_edges(m + k, [(i, m + j) for i in range(m) for j in range(k)])


def geodesic_space_from_graph(graph: Graph) -> FiniteIntervalSpace:
    """Geodesic interval space: x between a and c iff d(a,x) + d(x,c) = d(a,c)."""
    dist = [graph.distances(v) for v in range(graph.n)]
    table = BetweennessTable.from_function(
        graph.n, lambda a, x, c: dist[a][x] + dist[x][c] == dist[a][c]
    )
    return FiniteIntervalSpace._trusted(table)


def linear_order_space(n: int) -> FiniteIntervalSpace:
    """The chain 0 < 1 < ... < n-1 with order betweenness min(a,c) <= x <= max(a,c)."""
    if n < 1:
        raise ValueError("need at least one point")
    table = BetweennessTable.from_function(n, lambda a, x, c: min(a, c) <= x <= max(a, c))
    return FiniteIntervalSpace._trusted(table)
