"""Bit-sliced evaluation of C1..C9 over a batch of spaces at once.

A batch holds up to :data:`BATCH` valid spaces on n points.  The *slice* of
the triple <a, x, c> is one int whose bit i is that triple's value in space
i of the batch (bitslicing: Biham, FSE 1997; Knuth, TAOCP 4A, 7.1.3).  A
formula over triples becomes a chain of AND/OR/XOR over slices that decides
it for the whole batch at once, and its result is a slice again: bit i is
the formula's value in space i.

Sets whose membership differs between spaces are *slice-sets*: tuples of n
slices, entry x holding "x is a member" per space.  A fixed point set is
the slice-set that is all ones at its members.

Each of C1..C9 is written out from its own defining formula, mirroring
:func:`ispaces.properties.transitivity_conditions`, so no condition is
derived from another.  That scalar path stays the reference and the only
source of witnesses.  Every space of a batch is valid, so the evaluation
uses two axioms to halve scans: [u, v] = [v, u] (middle symmetry) and
[u, u] = {u} (thinness).
"""

from __future__ import annotations

from operator import or_
from typing import Sequence

from .core import _forced_bits, _subset_unions, _triple_index, bits_of

#: Spaces per batch.  A batch costs about the same whatever its size, so
#: batches are as large as the exhaustive n = 4 population.
BATCH = 4096

#: Largest n evaluated sliced.  A batch costs about 4^n * n^3 big-int
#: operations whatever its size (C7 and C4/C5 range over subset pairs), so
#: from n = 6 on a small batch loses to the scalar path: at n = 6, with
#: C4/C5 skipped, 100 spaces took 0.16 s sliced against 0.07 s scalar.
MAX_N = 5

SliceSet = tuple[int, ...]


def triple_slices(encoding, encodings: Sequence[int]) -> list[int]:
    """The n^3 triple slices of a batch of orbit encodings.

    ``encoding`` is a :class:`~ispaces.search.FreeOrbitEncoding`: slice
    (a*n + x)*n + c has bit i set iff <a, x, c> holds in the space decoded
    from ``encodings[i]``.
    """
    n = encoding.n
    full = (1 << len(encodings)) - 1
    slices = [0] * n ** 3
    for t in bits_of(_forced_bits(n)):
        slices[t] = full
    # int(.., 2) transposes a column of the batch in linear time; the last
    # space comes first because it holds the highest bit.
    ordered = encodings[::-1]
    for k, (a, b, c) in enumerate(encoding.orbits):
        column = int("0" + "".join(["1" if e >> k & 1 else "0" for e in ordered]), 2)
        slices[_triple_index(n, a, b, c)] = slices[_triple_index(n, c, b, a)] = column
    return slices


def _join_point(n: int, ivl: list[SliceSet], s: SliceSet, c: int) -> SliceSet:
    """[S, {c}] for a slice-set S: the union of [p, c] over p in S."""
    out = [0] * n
    for p in range(n):
        sp = s[p]
        if sp:
            row = ivl[p * n + c]
            for x in range(n):
                out[x] |= sp & row[x]
    return tuple(out)


def _breach(n: int, ivl: list[SliceSet], s: SliceSet) -> int:
    """Spaces where S is not convex: u, v in S and some w in [u, v] outside S."""
    out = 0
    outside = [~m for m in s]
    for u in range(n - 1):
        su = s[u]
        if su:
            for v in range(u + 1, n):
                both = su & s[v]
                if both:
                    row = ivl[u * n + v]
                    for w in range(n):
                        out |= both & row[w] & outside[w]
    return out


def _intransitive(n: int, fwd: list[SliceSet], s: SliceSet) -> int:
    """Spaces where the base order of S, R(x, y) iff <p, x, y> for some p in S,
    is not transitive."""
    rows = []
    for x in range(n):
        row = [0] * n
        for p in range(n):
            sp = s[p]
            if sp:
                px = fwd[p * n + x]
                for y in range(n):
                    row[y] |= sp & px[y]
        rows.append(row)
    out = 0
    for x in range(n):
        row_x = rows[x]
        missing = [~m for m in row_x]
        for y in range(n):
            rxy = row_x[y]
            if rxy:
                row_y = rows[y]
                for z in range(n):
                    out |= rxy & row_y[z] & missing[z]
    return out


def _hull(n: int, ivl: list[SliceSet], s: SliceSet) -> SliceSet:
    """Least fixpoint of S -> S | [S, S], for every space of the batch."""
    while True:
        grown = list(s)
        for u in range(n - 1):
            su = s[u]
            if su:
                for v in range(u + 1, n):
                    both = su & s[v]
                    if both:
                        row = ivl[u * n + v]
                        for x in range(n):
                            grown[x] |= both & row[x]
        grown = tuple(grown)
        if grown == s:
            return s
        s = grown


def _union(s: SliceSet, t: SliceSet) -> SliceSet:
    return tuple(map(or_, s, t))


def _set_table(n: int, ivl: list[SliceSet]) -> list[list[SliceSet]]:
    """[A, B] for every pair of point-set masks: tab[A][B] is a slice-set.

    Built by union over the lowest point of B for single-point A, then over
    the lowest point of A.
    """
    size = 1 << n
    empty = (0,) * n
    tab: list[list[SliceSet]] = [[empty] * size]
    for am in range(1, size):
        low = am & -am
        row = [empty] * size
        if am == low:
            a = low.bit_length() - 1
            for bm in range(1, size):
                lb = bm & -bm
                row[bm] = _union(row[bm ^ lb], ivl[a * n + lb.bit_length() - 1])
        else:
            rest, single = tab[am ^ low], tab[low]
            for bm in range(1, size):
                row[bm] = _union(rest[bm], single[bm])
        tab.append(row)
    return tab


def _semigroup_breaches(n: int, ivl: list[SliceSet], tab: list[list[SliceSet]], width: int) -> tuple[int, int]:
    """Spaces where [.,.] on subsets is not associative, and where it is not commutative.

    For each B, [A, [B, C]] is built by a union over the lowest point of A
    and [[A, B], C] by a union over the lowest point of C.  The unions and
    comparisons run on packed slice-sets: one int holding the n slices side
    by side, ``width`` bits apart.
    """
    size = 1 << n
    pts = range(n)

    def packed_join(s: SliceSet, c: int) -> int:
        return sum(x << (i * width) for i, x in enumerate(_join_point(n, ivl, s, c)))

    diff = 0
    for bm in range(size):
        row_b = tab[bm]
        # right[C][A] = [A, [B, C]]
        right = [_subset_unions(size, [packed_join(row_b[cm], a) for a in pts]) for cm in range(size)]
        for am in range(size):
            v = tab[am][bm]
            left = _subset_unions(size, [packed_join(v, c) for c in pts])  # [[A, B], C] over C
            for cm in range(1, size):
                diff |= left[cm] ^ right[cm][am]
    nonassoc = 0
    mask = (1 << width) - 1
    for i in pts:
        nonassoc |= diff >> (i * width) & mask
    noncomm = 0
    for am in range(size):
        for bm in range(am + 1, size):
            for x, y in zip(tab[am][bm], tab[bm][am]):
                noncomm |= x ^ y
    return nonassoc, noncomm


def transitivity_slices(n: int, slices: Sequence[int], semigroup: bool) -> tuple[int | None, ...]:
    """C1..C9 over a batch: bit i of entry k is condition C(k+1) in space i.

    ``slices`` are the batch's :func:`triple_slices`.  C4 and C5 are None
    when ``semigroup`` is False (skipped, never guessed).
    """
    full = slices[0]  # <0, 0, 0> holds in every space
    pts = range(n)
    # fwd[a*n + x][c] and ivl[a*n + c][x] are two views of <a, x, c>.
    fwd = [tuple(slices[i:i + n]) for i in range(0, n ** 3, n)]
    ivl = [tuple(slices[(a * n + x) * n + c] for x in pts) for a in pts for c in pts]

    def const(mask: int) -> SliceSet:
        return tuple(full if mask >> x & 1 else 0 for x in pts)

    # Each fail_k collects the spaces where C(k) fails.
    # C1: the base order of every [a, b] is transitive.
    fail1 = 0
    for ab in ivl:
        fail1 |= _intransitive(n, fwd, ab)

    # C2: [{a}, [b, c]] <= [[a, b], {c}];  C3: the two are equal.
    # C8: [[a, b], {c}] is convex;  C9: it equals the hull of {a, b, c}.
    fail2 = fail3 = fail8 = fail9 = 0
    hulls: dict[int, SliceSet] = {}
    for a in pts:
        for b in pts:
            ab = ivl[a * n + b]
            for c in pts:
                tri = _join_point(n, ivl, ab, c)
                # [{a}, S] = [S, {a}] by middle symmetry
                lhs = _join_point(n, ivl, ivl[b * n + c], a)
                for x, y in zip(lhs, tri):
                    fail2 |= x & ~y
                    fail3 |= x ^ y
                fail8 |= _breach(n, ivl, tri)
                mask = (1 << a) | (1 << b) | (1 << c)
                hull = hulls.get(mask)
                if hull is None:
                    hull = hulls[mask] = _hull(n, ivl, const(mask))
                for x, y in zip(hull, tri):
                    fail9 |= x ^ y

    # convex[M]: the spaces where the point set M is convex.
    convex = [full & ~_breach(n, ivl, const(sm)) for sm in range(1 << n)]

    # C6: every [a, b] is convex, and the base order of every convex set is transitive.
    fail6 = 0
    for ab in ivl:
        fail6 |= _breach(n, ivl, ab)
    for sm, conv in enumerate(convex):
        if conv:
            fail6 |= conv & _intransitive(n, fwd, const(sm))

    # C7: [A, B] is convex for all convex A and B.
    tab = _set_table(n, ivl)
    fail7 = 0
    for am, conv_a in enumerate(convex):
        if conv_a:
            row = tab[am]
            for bm, conv_b in enumerate(convex):
                both = conv_a & conv_b
                if both:
                    fail7 |= both & _breach(n, ivl, row[bm])

    # C4: [.,.] on subsets is associative;  C5: associative and commutative.
    c4 = c5 = None
    if semigroup:
        nonassoc, noncomm = _semigroup_breaches(n, ivl, tab, full.bit_length())
        c4 = full & ~nonassoc
        c5 = full & ~(nonassoc | noncomm)
    c1, c2, c3, c6, c7, c8, c9 = (full & ~f for f in (fail1, fail2, fail3, fail6, fail7, fail8, fail9))
    return (c1, c2, c3, c4, c5, c6, c7, c8, c9)
