"""Plain-quantifier reference implementations used as independent oracles.

Everything here is written directly from the defining formulas with loops
over explicit frozensets, using only ``space.holds``.  Nothing is shared
with the library's bit-mask scans, so agreement between the two routes is
evidence, not tautology.  Sizes are expected to stay small (n <= 5 or so).
"""

import random
from itertools import combinations, product

from ispaces.base import _orbits


def points(space):
    return range(space.n)


def subsets(space):
    pts = list(range(space.n))
    return [frozenset(c) for r in range(space.n + 1) for c in combinations(pts, r)]


def interval(space, a, c):
    return frozenset(x for x in points(space) if space.holds(a, x, c))


def set_between(space, a_set, x, c_set):
    return any(space.holds(a, x, c) for a in a_set for c in c_set)


def set_interval(space, a_set, c_set):
    return frozenset(x for x in points(space) if set_between(space, a_set, x, c_set))


def is_convex(space, s):
    return set_interval(space, s, s) <= frozenset(s)


def convex_sets(space):
    return [s for s in subsets(space) if is_convex(space, s)]


def hull_by_intersection(space, a_set):
    a_set = frozenset(a_set)
    out = frozenset(points(space))
    for s in convex_sets(space):
        if a_set <= s:
            out &= s
    return out


def base_holds(space, a_set, x, y):
    return any(space.holds(a, x, y) for a in a_set)


def entails(space, a_set, x, y):
    return y in hull_by_intersection(space, frozenset(a_set) | {x})


def orbit_columns(orbit_count, encodings):
    """The orbit columns of a batch of encodings, one bit at a time: bit i
    of column k is bit k of ``encodings[i]``."""
    ordered = list(encodings)[::-1]  # the last space holds the highest bit
    return [int("0" + "".join(["1" if e >> k & 1 else "0" for e in ordered]), 2) for k in range(orbit_count)]


def triple_slices(encoding, encodings):
    """The triple slices of a batch of orbit encodings, one bit at a time:
    bit i of slice (a*n + x)*n + c is <a, x, c> in the space of ``encodings[i]``."""
    n = encoding.n
    full = (1 << len(encodings)) - 1
    slices = [0] * n ** 3
    for a, x, c in product(range(n), repeat=3):
        if x in (a, c):  # <x, x, c> and <a, x, x> hold in every space
            slices[(a * n + x) * n + c] = full
    for (a, b, c), column in zip(_orbits(n), orbit_columns(encoding.orbit_count, encodings)):
        slices[(a * n + b) * n + c] = slices[(c * n + b) * n + a] = column
    return slices


def axiom_violations(table):
    """(axiom name, witness) pairs by a per-triple scan: reflexivity, then
    middle symmetry (witness <x, a, z> with x < z), then thinness."""
    n = table.n
    out = []
    for a, x in product(range(n), repeat=2):
        if not table.holds(x, x, a):
            out.append(("reflexivity", (x, x, a)))
        if a != x and not table.holds(a, x, x):
            out.append(("reflexivity", (a, x, x)))
    for x, a, z in product(range(n), repeat=3):
        if x < z and table.holds(x, a, z) != table.holds(z, a, x):
            out.append(("middle-symmetry", (x, a, z)))
    for x, y in product(range(n), repeat=2):
        if y != x and table.holds(x, y, x):
            out.append(("thinness", (x, y, x)))
    return out


# -- named properties --------------------------------------------------------


def point_transitive(space):
    n = space.n
    return all(
        not (space.holds(a, x, y) and space.holds(a, y, z)) or space.holds(a, x, z)
        for a, x, y, z in product(range(n), repeat=4)
    )


def point_antisymmetric(space):
    n = space.n
    return all(
        not (space.holds(a, x, y) and space.holds(a, y, x)) or x == y
        for a, x, y in product(range(n), repeat=3)
    )


def interval_transitive(space):
    n = space.n
    for a, b in product(range(n), repeat=2):
        base = interval(space, a, b)
        for x, y, z in product(range(n), repeat=3):
            if base_holds(space, base, x, y) and base_holds(space, base, y, z):
                if not base_holds(space, base, x, z):
                    return False
    return True


def interval_antisymmetric(space):
    n = space.n
    for a, b in product(range(n), repeat=2):
        base = interval(space, a, b)
        for x, y in product(range(n), repeat=2):
            if x != y and x not in base and y not in base:
                if base_holds(space, base, x, y) and base_holds(space, base, y, x):
                    return False
    return True


def interval_convex(space):
    n = space.n
    return all(is_convex(space, interval(space, a, b)) for a, b in product(range(n), repeat=2))


def stiff(space):
    n = space.n
    return all(
        not (space.holds(a, b, c) and b != c and space.holds(b, c, d)) or space.holds(a, b, d)
        for a, b, c, d in product(range(n), repeat=4)
    )


# -- smallest witnesses, by lexicographic scans over all ordered tuples -------


def _first(candidates, breaks):
    return next((t for t in candidates if breaks(*t)), None)


def _intervals(space):
    return {(a, b): interval(space, a, b) for a, b in product(points(space), repeat=2)}


def point_transitivity_witness(space):
    h = space.holds
    return _first(
        product(points(space), repeat=4),
        lambda a, x, y, z: h(a, x, y) and h(a, y, z) and not h(a, x, z),
    )


def point_antisymmetry_witness(space):
    h = space.holds
    return _first(product(points(space), repeat=3), lambda a, x, y: x < y and h(a, x, y) and h(a, y, x))


def interval_transitivity_witness(space):
    intervals = _intervals(space)

    def breaks(a, b, x, y, z):
        base = intervals[a, b]
        return (
            base_holds(space, base, x, y) and base_holds(space, base, y, z)
            and not base_holds(space, base, x, z)
        )

    return _first(product(points(space), repeat=5), breaks)


def interval_antisymmetry_witness(space):
    intervals = _intervals(space)

    def breaks(a, b, x, y):
        base = intervals[a, b]
        return (
            x < y and x not in base and y not in base
            and base_holds(space, base, x, y) and base_holds(space, base, y, x)
        )

    return _first(product(points(space), repeat=4), breaks)


def interval_convexity_witness(space):
    intervals = _intervals(space)

    def breaks(a, b, u, v, w):
        base = intervals[a, b]
        return u in base and v in base and space.holds(u, w, v) and w not in base

    return _first(product(points(space), repeat=5), breaks)


def moore_antiexchange_witness(n, closed):
    """Smallest (A mask, x, y) of a Moore family given by its closed masks
    (ascending): x < y outside closed A, each in the closure of A with the
    other, where cl(S) is the intersection of the closed supersets of S."""

    def cl(mask):
        out = (1 << n) - 1
        for m in closed:
            if mask & ~m == 0:
                out &= m
        return out

    def breaks(a, x, y):
        outside = not (a >> x) & 1 and not (a >> y) & 1
        return x < y and outside and (cl(a | 1 << x) >> y) & 1 and (cl(a | 1 << y) >> x) & 1

    return _first(product(closed, range(n), range(n)), breaks)


# -- the nine transitivity conditions ----------------------------------------


def peano_subset(space):  # C2
    n = space.n
    return all(
        set_interval(space, {a}, interval(space, b, c))
        <= set_interval(space, interval(space, a, b), {c})
        for a, b, c in product(range(n), repeat=3)
    )


def peano_equal(space):  # C3
    n = space.n
    return all(
        set_interval(space, {a}, interval(space, b, c))
        == set_interval(space, interval(space, a, b), {c})
        for a, b, c in product(range(n), repeat=3)
    )


def peano_witnesses(space):  # C2 and C3, in the library's scan order
    """The smallest (a, b, c, x) with x in [{a},[b,c]] and not in [[a,b],{c}],
    and the smallest with x in exactly one of the two."""
    w2 = w3 = None
    for a, b, c in product(points(space), repeat=3):
        lhs = set_interval(space, {a}, interval(space, b, c))
        rhs = set_interval(space, interval(space, a, b), {c})
        if w2 is None and lhs - rhs:
            w2 = (a, b, c, min(lhs - rhs))
        if w3 is None and lhs ^ rhs:
            w3 = (a, b, c, min(lhs ^ rhs))
    return w2, w3


def base_transitive(space, base):
    return all(
        not (base_holds(space, base, x, y) and base_holds(space, base, y, z)) or base_holds(space, base, x, z)
        for x, y, z in product(points(space), repeat=3)
    )


def base_interval_transitivity_prop_witness(space):
    """The smallest (a, b, c, x): the base order of [a, b] is transitive,
    and x is in [{a},[b,c]] but not in [[a,b],{c}]."""
    for a, b, c in product(points(space), repeat=3):
        base = interval(space, a, b)
        extra = set_interval(space, {a}, interval(space, b, c)) - set_interval(space, base, {c})
        if extra and base_transitive(space, base):
            return (a, b, c, min(extra))
    return None


def associative(space):  # C4
    subs = subsets(space)
    return all(
        set_interval(space, set_interval(space, a, b), c)
        == set_interval(space, a, set_interval(space, b, c))
        for a, b, c in product(subs, repeat=3)
    )


def commutative_semigroup(space):  # C5
    subs = subsets(space)
    commutes = all(
        set_interval(space, a, b) == set_interval(space, b, a) for a, b in product(subs, repeat=2)
    )
    return commutes and associative(space)


def _mask(members):
    return sum(1 << i for i in members)


def _members(mask):
    return frozenset(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def subset_interval_table(space):
    """[A, C] as a mask for every pair of subset masks: the union of [a, c]."""
    n = space.n
    ivl = [[_mask(interval(space, a, c)) for c in range(n)] for a in range(n)]
    members = [sorted(_members(m)) for m in range(1 << n)]
    table = []
    for a_members in members:
        row = []
        for c_members in members:
            out = 0
            for a in a_members:
                for c in c_members:
                    out |= ivl[a][c]
            row.append(out)
        table.append(row)
    return table


def semigroup_witnesses(space, tab):
    """C4 and C5 witnesses as masks, (A, B, C, x) and (A, B, x), by plain row scans.

    ``tab`` is a [A, C] table indexed by masks; the scan order is A, then B,
    then C ascending (A < B for commutativity), x the lowest differing point.
    """
    size = len(tab)
    w4 = None
    for am in range(size):
        row_a = tab[am]
        for bm in range(size):
            left_row = [tab[row_a[bm]][cm] for cm in range(size)]
            right_row = [row_a[t] for t in tab[bm]]
            diffs = [(cm, left_row[cm] ^ right_row[cm]) for cm in range(size) if left_row[cm] != right_row[cm]]
            if diffs:
                cm, diff = diffs[0]
                w4 = (am, bm, cm, (diff & -diff).bit_length() - 1)
                break
        if w4 is not None:
            break
    if w4 is not None:
        return w4, w4
    for am in range(size):
        for bm in range(am + 1, size):
            diff = tab[am][bm] ^ tab[bm][am]
            if diff:
                return None, (am, bm, (diff & -diff).bit_length() - 1)
    return None, None


def convex_base_transitive(space):  # C6
    if not interval_convex(space):
        return False
    n = space.n
    for a_set in convex_sets(space):
        for x, y, z in product(range(n), repeat=3):
            if base_holds(space, a_set, x, y) and base_holds(space, a_set, y, z):
                if not base_holds(space, a_set, x, z):
                    return False
    return True


def convex_pairs_convex(space):  # C7
    cs = convex_sets(space)
    return all(is_convex(space, set_interval(space, a, b)) for a, b in product(cs, repeat=2))


def convex_pairs_witness(space, tab):  # C7, in the library's scan order
    """Smallest (A, B, u, v, w), A and B convex masks ascending, u, v in [A, B],
    w between them and outside [A, B]; None when C7 holds.  ``tab`` is
    :func:`subset_interval_table` of the space."""
    n = space.n
    between = [[interval(space, u, v) for v in range(n)] for u in range(n)]
    masks = sorted(_mask(s) for s in convex_sets(space))
    for am in masks:
        for bm in masks:
            t = _members(tab[am][bm])
            for u in sorted(t):
                for v in sorted(t):
                    outside = between[u][v] - t
                    if outside:
                        return (am, bm, u, v, min(outside))
    return None


def triangle_convex(space):  # C8
    n = space.n
    return all(
        is_convex(space, set_interval(space, interval(space, a, b), {c}))
        for a, b, c in product(range(n), repeat=3)
    )


def hull_equals_triangle(space):  # C9
    n = space.n
    return all(
        hull_by_intersection(space, {a, b, c})
        == set_interval(space, interval(space, a, b), {c})
        for a, b, c in product(range(n), repeat=3)
    )


def triangle_witnesses(space):  # C8 and C9, in the library's scan order
    """(w8, w9): the smallest (a, b, c, u, v, w) with u, v in [[a,b],{c}] and w
    between them outside it, and the smallest (a, b, c, x) with x in exactly
    one of co({a,b,c}) and [[a,b],{c}]; None where the condition holds."""
    n = space.n
    convex = convex_sets(space)
    w8 = w9 = None
    for a, b, c in product(range(n), repeat=3):
        t = set_interval(space, interval(space, a, b), {c})
        if w8 is None:
            for u, v in product(sorted(t), repeat=2):
                outside = interval(space, u, v) - t
                if outside:
                    w8 = (a, b, c, u, v, min(outside))
                    break
        if w9 is None:
            hull = frozenset(points(space))
            for s in convex:
                if {a, b, c} <= s:
                    hull &= s
            if hull != t:
                w9 = (a, b, c, min(hull ^ t))
    return w8, w9


def transitivity_vector(space):
    return (
        interval_transitive(space),
        peano_subset(space),
        peano_equal(space),
        associative(space),
        commutative_semigroup(space),
        convex_base_transitive(space),
        convex_pairs_convex(space),
        triangle_convex(space),
        hull_equals_triangle(space),
    )


# -- the five antisymmetry conditions ----------------------------------------


def convex_antisym_off_base(space):  # D3
    n = space.n
    for a_set in convex_sets(space):
        for x, y in product(range(n), repeat=2):
            if x != y and x not in a_set and y not in a_set:
                if base_holds(space, a_set, x, y) and base_holds(space, a_set, y, x):
                    return False
    return True


def antiexchange(space):  # D4
    n = space.n
    for a_set in convex_sets(space):
        for x, y in product(range(n), repeat=2):
            if x != y and x not in a_set and y not in a_set:
                if entails(space, a_set, x, y) and entails(space, a_set, y, x):
                    return False
    return True


def combinatorial(space):  # chain unions stay convex, checked over every chain
    family = convex_sets(space)
    for r in range(1, len(family) + 1):
        for chain in combinations(family, r):
            if all(a <= b or b <= a for a, b in combinations(chain, 2)):
                union = frozenset().union(*chain)
                if union not in family:
                    return False
    return True


def chain_walk(closed):
    """First chain (size-then-mask DFS order) whose union is not in ``closed``.

    The path-enumerating walk: every nonempty chain of the family is visited
    once, one step per chain, with no pruning.  Reference for the library's
    state-pruned walk, which must return the same witness.
    """
    members = set(closed)
    by_size = sorted(closed, key=lambda m: (m.bit_count(), m))
    k = len(by_size)
    supersets = [
        [j for j in range(i + 1, k) if by_size[i] != by_size[j] and by_size[i] & ~by_size[j] == 0]
        for i in range(k)
    ]
    stack = [((i,), by_size[i]) for i in range(k - 1, -1, -1)]
    while stack:
        chain, union = stack.pop()
        if union not in members:
            return tuple(by_size[i] for i in chain)
        for j in reversed(supersets[chain[-1]]):
            stack.append((chain + (j,), union | by_size[j]))
    return None


def antimatroid(space):  # D5
    family = convex_sets(space)
    return frozenset() in family and combinatorial(space) and antiexchange(space)


def antisymmetry_vector(space):
    return (
        interval_antisymmetric(space),
        stiff(space),
        convex_antisym_off_base(space),
        antiexchange(space),
        antimatroid(space),
    )


# -- graph distance oracle (Floyd-Warshall, unlike the library's BFS) ---------


def fw_distances(n, edges):
    big = n * n
    dist = [[0 if i == j else big for j in range(n)] for i in range(n)]
    for u, v in edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = dist[i][k] + dist[k][j]
                if through < dist[i][j]:
                    dist[i][j] = through
    return dist


def geodesic_interval(n, edges, a, c):
    dist = fw_distances(n, edges)
    return frozenset(x for x in range(n) if dist[a][x] + dist[x][c] == dist[a][c])


# -- witness replay -----------------------------------------------------------


def witness_falsifies(space, name, witness):
    """Re-evaluate a reported witness against the defining formula."""
    h = space.holds
    if name == "point-transitive":
        a, x, y, z = witness
        return h(a, x, y) and h(a, y, z) and not h(a, x, z)
    if name == "point-antisymmetric":
        a, x, y = witness
        return x != y and h(a, x, y) and h(a, y, x)
    if name in ("interval-transitive", "C1"):
        a, b, x, y, z = witness
        base = interval(space, a, b)
        return (
            base_holds(space, base, x, y)
            and base_holds(space, base, y, z)
            and not base_holds(space, base, x, z)
        )
    if name == "interval-antisymmetric" or name == "D1":
        a, b, x, y = witness
        base = interval(space, a, b)
        return (
            x != y
            and x not in base
            and y not in base
            and base_holds(space, base, x, y)
            and base_holds(space, base, y, x)
        )
    if name == "interval-convex":
        a, b, u, v, w = witness
        base = interval(space, a, b)
        return u in base and v in base and h(u, w, v) and w not in base
    if name in ("stiff", "D2"):
        a, b, c, d = witness
        return h(a, b, c) and b != c and h(b, c, d) and not h(a, b, d)
    if name == "C2":
        a, b, c, x = witness
        return x in set_interval(space, {a}, interval(space, b, c)) and x not in set_interval(
            space, interval(space, a, b), {c}
        )
    if name == "C3":
        a, b, c, x = witness
        lhs = set_interval(space, {a}, interval(space, b, c))
        rhs = set_interval(space, interval(space, a, b), {c})
        return (x in lhs) != (x in rhs)
    if name == "C4":
        a_set, b_set, c_set, x = witness
        left = set_interval(space, set_interval(space, set(a_set), set(b_set)), set(c_set))
        right = set_interval(space, set(a_set), set_interval(space, set(b_set), set(c_set)))
        return (x in left) != (x in right)
    if name == "C5":
        if len(witness) == 4:
            return witness_falsifies(space, "C4", witness)
        a_set, b_set, x = witness
        lhs = set_interval(space, set(a_set), set(b_set))
        rhs = set_interval(space, set(b_set), set(a_set))
        return (x in lhs) != (x in rhs)
    if name == "C6":
        if len(witness) == 5 and isinstance(witness[0], int):
            return witness_falsifies(space, "interval-convex", witness)
        a_set, x, y, z = witness
        members = set(a_set)
        return (
            is_convex(space, members)
            and base_holds(space, members, x, y)
            and base_holds(space, members, y, z)
            and not base_holds(space, members, x, z)
        )
    if name == "C7":
        a_set, b_set, u, v, w = witness
        t = set_interval(space, set(a_set), set(b_set))
        return (
            is_convex(space, set(a_set))
            and is_convex(space, set(b_set))
            and u in t and v in t and h(u, w, v) and w not in t
        )
    if name == "C8":
        a, b, c, u, v, w = witness
        t = set_interval(space, interval(space, a, b), {c})
        return u in t and v in t and h(u, w, v) and w not in t
    if name == "C9":
        a, b, c, x = witness
        t = set_interval(space, interval(space, a, b), {c})
        return (x in hull_by_intersection(space, {a, b, c})) != (x in t)
    if name in ("D3",):
        a_set, x, y = witness
        members = set(a_set)
        return (
            is_convex(space, members)
            and x != y and x not in members and y not in members
            and base_holds(space, members, x, y)
            and base_holds(space, members, y, x)
        )
    if name in ("D4", "D5", "antiexchange", "antimatroid"):
        a_set, x, y = witness
        members = frozenset(a_set)
        return (
            is_convex(space, members)
            and x != y and x not in members and y not in members
            and entails(space, members, x, y)
            and entails(space, members, y, x)
        )
    raise ValueError(f"no replay rule for {name!r}")


def sample_encoding(n, seed, density):
    """The sampler's definition: one orbit per triple of distinct points up
    to reversal, and orbit k set iff draw k of a new ``random.Random(seed)``
    is below ``density``."""
    rng = random.Random(seed)
    orbits = sum(1 for a, b, c in product(range(n), repeat=3) if len({a, b, c}) == 3 and a < c)
    return sum(1 << k for k in range(orbits) if rng.random() < density)
