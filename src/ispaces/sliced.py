"""Bit-sliced evaluation of C1..C9, and of D1..D5, over a batch of spaces at once.

A batch holds up to :data:`BATCH` valid spaces on n points.  The *slice* of
the triple <a, x, c> is one int whose bit i is that triple's value in space
i of the batch (bitslicing: Biham, FSE 1997; Knuth, TAOCP 4A, 7.1.3).  A
formula over triples becomes a chain of AND/OR/XOR over slices that decides
it for the whole batch at once, and its result is a slice again: bit i is
the formula's value in space i.  A batch arrives as its orbit columns, built
by its population: bit i of column k is free orbit k in space i.  C6, C7, D3
and D4 scan all 2^n point sets whatever the batch size, so the census slices
only batches of at least 2^n spaces (``search._sliced``).

Sets whose membership differs between spaces are *slice-sets*: tuples of n
slices, entry x holding "x is a member" per space.  A fixed point set is
the slice-set that is all ones at its members.

Each of C1..C9 and D1..D5 is written out from its own defining formula,
mirroring :func:`ispaces.properties.transitivity_conditions` and
:func:`ispaces.properties.antisymmetry_conditions`, except where that
scalar path derives one condition from another: C4 and C5 take C3's value,
C9 takes C8's and D5 takes D4's, for the reasons given there.  C4 and C5 are always
returned; the census blanks them where ``semigroup_reported`` says so.  The
scalar path stays the reference and the only source of witnesses.  Every
space of a batch is valid, so the evaluation uses two axioms to halve
scans: [u, v] = [v, u] (middle symmetry) and [u, u] = {u} (thinness).  So
C1, C6 and D1 scan the intervals [a, b] with a <= b, and the convexity
test and C7 share one join over u < v.  The sets [[a, b], {c}] are
built once, for C2, C3 and C8 alike.  C7 joins each union U = A | B of
convex A < B once: for nonempty convex A and B, [A, B] = [U, U], since
[a, b] holds a and b (endpoint reflexivity), [A, A] = A and [B, B] = B.

Four tests build every condition.  :func:`_union` (the OR of slice-sets
each masked by a slice) and :func:`_escapes` (the spaces where one
slice-set has a point outside another) test inclusion: C2 and C3 compare
[{a}, [b, c]] with [[a, b], {c}], S is convex where [S, S] does not escape
S (C6..C8, D3, D4), and D2 tests the rows <a, b, .>.  :func:`_intransitive`
tests the transitivity of the base orders of the intervals (C1, the D
hypothesis) and of the convex sets (C6).  :func:`_two_way` tests the
antisymmetry of those base orders (D1, D3) and of entailment (D4), whose
row x at a closed A is cl(A + {x}), as in the scalar path.
"""

from __future__ import annotations

from operator import and_
from typing import Iterable, Sequence

from .base import _forced_bits, _orbits, _triple_index, bits_of

#: Spaces per batch.  A batch costs about the same whatever its size, so
#: batches are as large as the exhaustive n = 4 population.
BATCH = 4096

SliceSet = tuple[int, ...]


def _union(n: int, terms: Iterable[tuple[int, SliceSet]]) -> SliceSet:
    """The slice-set OR of M & S over each (M, S) in ``terms``, M a slice."""
    out = [0] * n
    pts = range(n)
    for m, s in terms:
        if m:
            for x in pts:
                out[x] |= m & s[x]
    return tuple(out)


def _escapes(reach: SliceSet, s: SliceSet) -> int:
    """The spaces where the slice-set ``reach`` has a point outside S.  ``(r | m) ^ m``
    is ``r & ~m`` without the negative ``~m``, which is slower on long slices."""
    out = 0
    for r, m in zip(reach, s):
        out |= (r | m) ^ m
    return out


def _join(n: int, ivl: list[SliceSet], s: SliceSet) -> SliceSet:
    """The union of [u, v] over u < v in a slice-set S.  With S itself that
    is [S, S]: [u, v] = [v, u] by middle symmetry and [u, u] = {u} by thinness."""
    return _union(n, ((s[u] & s[v], ivl[u * n + v]) for u in range(n - 1) for v in range(u + 1, n)))


def _breach(n: int, ivl: list[SliceSet], s: SliceSet) -> int:
    """Spaces where S is not convex: u, v in S and some w in [u, v] outside S."""
    return _escapes(_join(n, ivl, s), s)


def _intransitive(n: int, rows: list[SliceSet]) -> int:
    """Spaces where the base order ``rows`` is not transitive: some row x
    misses a point of the union of the rows y it holds."""
    out = 0
    for row_x in rows:
        out |= _escapes(_union(n, zip(row_x, rows)), row_x)
    return out


def _two_way(n: int, rows: list[SliceSet], s: SliceSet) -> int:
    """Spaces where the relation ``rows`` relates some x < y outside S both ways.

    Only x is tested, which is exact for the relations passed here.  In the
    base order of a convex S, R(x, y) with x outside S puts y outside S,
    since <p, x, y> with p and y in S would put x in the convex S; D1 passes
    intervals, which are convex on the interval-transitive spaces it is
    evaluated on (C1 implies C6).  In D4's rows cl(A + {x}) of a closed A,
    cl(A + {y}) = A leaves x out for every y in A.
    """
    out = 0
    for x in range(n - 1):
        row_x = rows[x]
        both = 0
        for y in range(x + 1, n):
            both |= row_x[y] & rows[y][x]
        out |= (both | s[x]) ^ s[x]
    return out


class _Batch:
    """The views both kernels read of a batch of ``size`` spaces, from its orbit columns.

    ``fwd[a*n + x][c]`` and ``ivl[a*n + c][x]`` are two views of <a, x, c>;
    ``intervals`` holds [a, b] for a <= b; ``sets[M]`` is the fixed point
    set M as a slice-set, and ``convex[M]`` the slice of the spaces where M
    is convex.
    """

    def __init__(self, n: int, columns: Sequence[int], size: int):
        pts = range(n)
        self.n = n
        self.full = full = (1 << size) - 1
        slices = [0] * n ** 3
        for t in bits_of(_forced_bits(n)):
            slices[t] = full
        for column, (a, b, c) in zip(columns, _orbits(n)):
            slices[_triple_index(n, a, b, c)] = slices[_triple_index(n, c, b, a)] = column
        self.fwd = fwd = [tuple(slices[i:i + n]) for i in range(0, n ** 3, n)]
        self.cols = [fwd[x::n] for x in pts]
        self.ivl = ivl = [tuple(slices[(a * n + x) * n + c] for x in pts) for a in pts for c in pts]
        self.intervals = [ivl[a * n + b] for a in pts for b in range(a, n)]
        self.sets = [tuple(full if sm >> x & 1 else 0 for x in pts) for sm in range(1 << n)]
        self.convex = [full & ~_breach(n, ivl, s) for s in self.sets]

    def rows(self, s: SliceSet) -> list[SliceSet]:
        """The base order of S as n rows of slices: row x is the union of
        the rows <p, x, .> (``cols[x][p]``) over p in S."""
        return [_union(self.n, zip(s, col)) for col in self.cols]


def transitivity_slices(n: int, columns: Sequence[int], size: int) -> tuple[int, ...]:
    """C1..C9 over a batch: bit i of entry k is condition C(k+1) in space i.

    ``columns`` are the batch's orbit columns (see :class:`_Batch`).  C4 and
    C5 are always returned; the census decides whether they are reported.
    """
    batch = _Batch(n, columns, size)
    full, ivl, sets, convex = batch.full, batch.ivl, batch.sets, batch.convex
    pts = range(n)

    # Each fail_k collects the spaces where C(k) fails.
    # C1: the base order of every [a, b] is transitive.  C6: every [a, b]
    # is convex, and the base order of every convex set is transitive.
    fail1 = fail6 = 0
    for ab in batch.intervals:
        fail1 |= _intransitive(n, batch.rows(ab))
        fail6 |= _breach(n, ivl, ab)
    for s, conv in zip(sets, convex):
        if conv:
            fail6 |= conv & _intransitive(n, batch.rows(s))

    # C2: [{a}, [b, c]] <= [[a, b], {c}];  C3: the two are equal, so fail3
    # collects the reverse inclusion.  C8: [[a, b], {c}] is convex.
    # triangles[(a*n + b)*n + c] is [[a, b], {c}].
    to = [ivl[c::n] for c in pts]
    triangles = [_union(n, zip(ab, to[c])) for ab in ivl for c in pts]
    fail2 = fail3 = fail8 = 0
    for index, tri in enumerate(triangles):
        a, bc = divmod(index, n * n)
        # [{a}, [b, c]] = [[b, c], {a}] by middle symmetry
        lhs = triangles[bc * n + a]
        fail2 |= _escapes(lhs, tri)
        fail3 |= _escapes(tri, lhs)
        fail8 |= _breach(n, ivl, tri)

    # C7: [A, B] is convex for all convex A and B.  [A, B] = [U, U] for
    # U = A | B when A and B are convex and nonempty, and [{}, B] is empty;
    # so pairs[U] collects the spaces where some convex A < B, A nonempty,
    # has union U, and each U is joined once.  |U| >= 2, so _join, which
    # leaves out [u, u], still covers U.
    pairs = [0] * len(convex)
    for am in range(1, len(convex)):
        conv_a = convex[am]
        if conv_a:
            for bm in range(am + 1, len(convex)):
                pairs[am | bm] |= conv_a & convex[bm]
    fail7 = 0
    for um, both in enumerate(pairs):
        if both:
            fail7 |= both & _breach(n, ivl, _join(n, ivl, sets[um]))

    c1, c2, c3, c6, c7, c8 = (full & ~f for f in (fail1, fail2, fail2 | fail3, fail6, fail7, fail8))
    # C4: [.,.] on subsets is associative;  C5: associative and commutative.
    # Both take C3's value, and C9 (the triangle equals the hull of {a, b, c})
    # takes C8's, as in the scalar path.
    return (c1, c2, c3, c3, c3, c6, c7, c8, c8)


def antisymmetry_slices(n: int, columns: Sequence[int], size: int) -> tuple[tuple[int, ...], int]:
    """D1..D5 over a batch, and the mask of the spaces they are evaluated on.

    ``columns`` are the batch's orbit columns.  The mask is sliced C1
    (interval-transitivity, the theorem's hypothesis); bit i of entry k is
    condition D(k+1) in space i, and is clear wherever the mask is.
    """
    batch = _Batch(n, columns, size)
    full, fwd, sets, convex = batch.full, batch.fwd, batch.sets, batch.convex
    pts = range(n)

    # The hypothesis and D1 read the same base orders: those of every [a, b].
    intransitive = fail1 = 0
    for ab in batch.intervals:
        rows = batch.rows(ab)
        intransitive |= _intransitive(n, rows)
        # D1: the base order of [a, b] relates no x < y outside it both ways.
        fail1 |= _two_way(n, rows, ab)
    evaluated = full & ~intransitive

    # D2 (stiffness): <a, b, c>, b != c and <b, c, d> imply <a, b, d>.
    fail2 = 0
    for ab, row_ab in enumerate(fwd):
        b = ab % n
        fail2 |= _escapes(_union(n, ((row_ab[c], fwd[b * n + c]) for c in pts if c != b)), row_ab)

    # D3: the base order of every convex M relates no x < y outside M both ways.
    fail3 = 0
    for s, conv in zip(sets, convex):
        if conv:
            fail3 |= conv & _two_way(n, batch.rows(s), s)

    # D4 (antiexchange): entailment is antisymmetric: for closed A and x < y
    # outside A, y in cl(A + {x}) and x in cl(A + {y}) never both hold.
    # cl[M][y] is the spaces where every convex superset of M holds y, as in
    # the scalar path: M's members, and every point where M is not convex,
    # ANDed over the supersets by one pass, a bit at a time.
    cl = [[m | full ^ conv for m in s] for s, conv in zip(sets, convex)]
    for b in pts:
        for m in range(1 << n):
            if not m >> b & 1:
                cl[m] = list(map(and_, cl[m], cl[m | 1 << b]))
    fail4 = 0
    for am, closed in enumerate(convex):
        if closed:
            fail4 |= closed & _two_way(n, [cl[am | 1 << x] for x in pts], sets[am])

    # D5 (antimatroid): antiexchange, and the empty set is closed, which it
    # always is; so D5 takes D4's value, as in the scalar path.
    d1, d2, d3, d4 = (evaluated & ~f for f in (fail1, fail2, fail3, fail4))
    return (d1, d2, d3, d4, d4), evaluated
