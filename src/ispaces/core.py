"""Finite interval spaces over dense integer point universes.

Points are the integers [0, n).  A betweenness table is a total ternary
relation <a, x, c> ("x lies between a and c") stored as one bit per ordered
triple.  A table satisfying the three interval-space axioms

  * endpoint reflexivity: <x, x, a> and <a, x, x> hold for all a, x,
  * middle symmetry:      <x, a, z> iff <z, a, x>,
  * thinness:             <x, y, x> implies y = x,

is promoted to a :class:`FiniteIntervalSpace`, which provides the interval
operators [a, c] and [A, C], convexity tests, convex hulls, and the
base-point / base-set "in front of" relations.

Subsets of the universe are bit masks wrapped in :class:`PointSet`; equality
is extensional.  Spaces, tables, sets and relations are immutable value
types and every operation is pure, so instances may be shared freely across
threads or worker processes.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, Iterable, Iterator

from .base import _check_point, _forced_rows, _join_rows, _split_rows, _triple_index, bits_of, check_budget, record


# ---------------------------------------------------------------------------
# Point sets


@record
class PointSet:
    """An extensional subset of the point universe [0, n), bit-indexed.

    Bit i of ``mask`` is set iff point i is a member.  Set algebra is only
    defined between sets over the same universe.
    """

    n: int
    mask: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("universe size must be nonnegative")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError(f"set members exceed universe [0, {self.n})")

    @classmethod
    def of(cls, n: int, members: Iterable[int]) -> "PointSet":
        m = 0
        for i in members:
            _check_point(n, i, "member")
            m |= 1 << i
        return cls(n, m)

    @classmethod
    def empty(cls, n: int) -> "PointSet":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "PointSet":
        return cls(n, (1 << n) - 1)

    @property
    def members(self) -> frozenset[int]:
        return frozenset(bits_of(self.mask))

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.n and (self.mask >> i) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return bits_of(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def _same_universe(self, other: "PointSet") -> None:
        if not isinstance(other, PointSet):
            raise TypeError(f"expected PointSet, got {type(other).__name__}")
        if other.n != self.n:
            raise ValueError(f"mixed universes: {self.n} vs {other.n}")

    def __or__(self, other: "PointSet") -> "PointSet":
        self._same_universe(other)
        return PointSet(self.n, self.mask | other.mask)

    def __and__(self, other: "PointSet") -> "PointSet":
        self._same_universe(other)
        return PointSet(self.n, self.mask & other.mask)

    def __sub__(self, other: "PointSet") -> "PointSet":
        self._same_universe(other)
        return PointSet(self.n, self.mask & ~other.mask)

    def issubset(self, other: "PointSet") -> bool:
        self._same_universe(other)
        return self.mask & ~other.mask == 0

    def complement(self) -> "PointSet":
        return PointSet(self.n, ~self.mask & ((1 << self.n) - 1))

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self) + "}"

    def __repr__(self) -> str:
        return f"PointSet.of({self.n}, {sorted(self.members)})"


# ---------------------------------------------------------------------------
# Betweenness tables and axiom validation


@record
class BetweennessTable:
    """A total ternary relation on [0, n): bit (a*n + x)*n + c holds <a, x, c>.

    Tables are raw data and may violate the interval-space axioms; use
    :func:`validate` (or :func:`axiom_violations`) to promote or diagnose.
    """

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("betweenness table needs at least one point")
        if self.bits < 0 or self.bits >> self.n ** 3:
            raise ValueError("relation bits exceed the n^3 triple range")

    @classmethod
    def from_triples(cls, n: int, triples: Iterable[tuple[int, int, int]]) -> "BetweennessTable":
        """Table with exactly the given <a, x, c> triples true."""
        rows = [0] * (n * n)
        for a, x, c in triples:
            _check_point(n, a)
            _check_point(n, x)
            _check_point(n, c)
            rows[a * n + x] |= 1 << c
        return cls(n, _join_rows(n, rows))

    @classmethod
    def completed(cls, n: int, triples: Iterable[tuple[int, int, int]]) -> "BetweennessTable":
        """Table with the given triples plus everything the axioms force.

        Adds all reflexivity-forced triples and the middle-symmetric partner
        <c, x, a> of every listed <a, x, c>.  A listed triple of the shape
        <a, x, a> with x != a can never sit in a valid space and is rejected.
        """
        rows = _forced_rows(n)
        for a, x, c in triples:
            _check_point(n, a)
            _check_point(n, x)
            _check_point(n, c)
            if a == c and x != a:
                raise ValueError(f"triple <{a},{x},{c}> breaks thinness: middle differs from repeated endpoint")
            rows[a * n + x] |= 1 << c
            rows[c * n + x] |= 1 << a
        return cls(n, _join_rows(n, rows))

    @classmethod
    def from_function(cls, n: int, rel: Callable[[int, int, int], bool]) -> "BetweennessTable":
        rows = []
        for a in range(n):
            for x in range(n):
                row = 0
                for c in range(n):
                    if rel(a, x, c):
                        row |= 1 << c
                rows.append(row)
        return cls(n, _join_rows(n, rows))

    def holds(self, a: int, x: int, c: int) -> bool:
        _check_point(self.n, a)
        _check_point(self.n, x)
        _check_point(self.n, c)
        return (self.bits >> _triple_index(self.n, a, x, c)) & 1 == 1

    def triples(self) -> Iterator[tuple[int, int, int]]:
        """All true triples, lexicographic."""
        for ax, row in enumerate(_split_rows(self.n, self.bits)):
            a, x = divmod(ax, self.n)
            for c in bits_of(row):
                yield (a, x, c)


class Axiom(Enum):
    REFLEXIVITY = "reflexivity"
    MIDDLE_SYMMETRY = "middle-symmetry"
    THINNESS = "thinness"


@record
class AxiomViolation:
    """A triple witnessing that a table breaks one named axiom."""

    axiom: Axiom
    witness: tuple[int, int, int]

    def __str__(self) -> str:
        a, x, c = self.witness
        return f"{self.axiom.value} violated at <{a},{x},{c}>"


class ValidationError(ValueError):
    """Raised when a table fails axiom validation; carries every violation."""

    def __init__(self, violations: list[AxiomViolation]):
        self.violations = list(violations)
        head = "; ".join(str(v) for v in self.violations[:4])
        more = "" if len(self.violations) <= 4 else f" (+{len(self.violations) - 4} more)"
        super().__init__(f"not an interval space: {head}{more}")


def axiom_violations(table: BetweennessTable) -> list[AxiomViolation]:
    """Every axiom violation in the table, with witness triples.

    Violations are listed per axiom (reflexivity, then middle symmetry, then
    thinness), each group in lexicographic witness order.  A symmetry breach
    is witnessed by the representative <x, a, z> with x < z.
    """
    n = table.n
    rows = _split_rows(n, table.bits)  # rows[a*n + x] bit c: <a, x, c>
    out: list[AxiomViolation] = []
    for a in range(n):
        for x in range(n):
            if not (rows[x * n + x] >> a) & 1:
                out.append(AxiomViolation(Axiom.REFLEXIVITY, (x, x, a)))
            if a != x and not (rows[a * n + x] >> x) & 1:
                out.append(AxiomViolation(Axiom.REFLEXIVITY, (a, x, x)))
    # mirrored[z*n + a] bit x: <x, a, z>
    mirrored = [0] * (n * n)
    for xa, row in enumerate(rows):
        x, a = divmod(xa, n)
        for z in bits_of(row):
            mirrored[z * n + a] |= 1 << x
    for x in range(n):
        above = ~((2 << x) - 1)
        for a in range(n):
            for z in bits_of((rows[x * n + a] ^ mirrored[x * n + a]) & above):
                out.append(AxiomViolation(Axiom.MIDDLE_SYMMETRY, (x, a, z)))
    for x in range(n):
        for y in range(n):
            if y != x and (rows[x * n + y] >> x) & 1:
                out.append(AxiomViolation(Axiom.THINNESS, (x, y, x)))
    return out


def validate(table: BetweennessTable) -> "FiniteIntervalSpace":
    """Promote a table to an interval space, or raise with every violation.

    The raised :class:`ValidationError` carries the complete violation list
    so hand-written tables can be diagnosed in one pass.
    """
    return FiniteIntervalSpace(table)


# ---------------------------------------------------------------------------
# Binary relations (base-point / base-set orders)


def _transitive_rows_witness(rows: list[int] | tuple[int, ...]) -> tuple[int, int, int] | None:
    """Smallest (x, y, z) with y in rows[x], z in rows[y], z not in rows[x]."""
    for x, row_x in enumerate(rows):
        rest = row_x
        while rest:
            low = rest & -rest
            y = low.bit_length() - 1
            rest ^= low
            extra = rows[y] & ~row_x
            if extra:
                return (x, y, (extra & -extra).bit_length() - 1)
    return None


def _antisymmetric_rows_witness(rows: list[int] | tuple[int, ...], scope: int) -> tuple[int, int] | None:
    """Smallest (x, y), x < y, both in ``scope``, with y in rows[x] and x in rows[y]."""
    rest_x = scope
    while rest_x:
        low = rest_x & -rest_x
        x = low.bit_length() - 1
        rest_x ^= low
        cands = rows[x] & scope & ~((1 << (x + 1)) - 1)
        while cands:
            lo = cands & -cands
            y = lo.bit_length() - 1
            cands ^= lo
            if (rows[y] >> x) & 1:
                return (x, y)
    return None


@record
class BinaryRelation:
    """A total binary relation on [0, n); ``rows[x]`` bit y holds R(x, y)."""

    n: int
    rows: tuple[int, ...]

    def holds(self, x: int, y: int) -> bool:
        _check_point(self.n, x)
        _check_point(self.n, y)
        return (self.rows[x] >> y) & 1 == 1

    def is_reflexive(self) -> bool:
        return all((self.rows[x] >> x) & 1 for x in range(self.n))

    def transitivity_witness(self) -> tuple[int, int, int] | None:
        """Lexicographically smallest (x, y, z) with R(x,y), R(y,z), not R(x,z)."""
        return _transitive_rows_witness(self.rows)

    def antisymmetry_witness(self, within: PointSet | None = None) -> tuple[int, int] | None:
        """Smallest (x, y), x < y, both in ``within``, with R(x,y) and R(y,x).

        ``within`` restricts both quantifiers; None means all of [0, n).
        """
        scope = (1 << self.n) - 1 if within is None else within.mask
        return _antisymmetric_rows_witness(self.rows, scope)

    def is_partial_order(self) -> bool:
        return self.is_reflexive() and self.transitivity_witness() is None and self.antisymmetry_witness() is None


# ---------------------------------------------------------------------------
# Interval spaces


class FiniteIntervalSpace:
    """A betweenness table known to satisfy the interval-space axioms.

    Construction validates the three axioms and raises
    :class:`ValidationError` otherwise.  Instances are immutable; the only
    internal state beyond the table is pure memos, filled on first use: the
    convex masks, the closure system of the convex sets
    (:func:`ispaces.closure.convex_closure_system`), and the
    interval-transitivity witness (boxed in a 1-tuple, since None is a valid
    witness).
    """

    __slots__ = ("table", "n", "_ivl", "_fwd", "_convex", "_closure", "_it_witness")

    def __init__(self, table: BetweennessTable):
        violations = axiom_violations(table)
        if violations:
            raise ValidationError(violations)
        self._setup(table)

    @classmethod
    def _trusted(cls, table: BetweennessTable) -> "FiniteIntervalSpace":
        """Construction fast path for tables valid by construction."""
        space = cls.__new__(cls)
        space._setup(table)
        return space

    def _setup(self, table: BetweennessTable) -> None:
        n = table.n
        self.table = table
        self.n = n
        # _ivl[a*n + c] over x, _fwd[a*n + x] over y: two slicings of <a, x, c>.
        fwd = _split_rows(n, table.bits)
        ivl = [0] * (n * n)
        ax = 0
        for a in range(n):
            for x in range(n):
                rest = fwd[ax]
                ax += 1
                while rest:
                    low = rest & -rest
                    ivl[a * n + low.bit_length() - 1] |= 1 << x
                    rest ^= low
        self._ivl = tuple(ivl)
        self._fwd = tuple(fwd)
        self._convex: tuple[int, ...] | None = None
        self._closure: "ClosureSystem | None" = None
        self._it_witness: tuple[tuple[int, ...] | None] | None = None

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteIntervalSpace):
            return NotImplemented
        return self.n == other.n and self.table.bits == other.table.bits

    def __hash__(self) -> int:
        return hash((self.n, self.table.bits))

    def __repr__(self) -> str:
        return f"FiniteIntervalSpace(n={self.n}, triples={self.table.bits.bit_count()})"

    # -- the ternary relation and intervals ---------------------------------

    def holds(self, a: int, x: int, c: int) -> bool:
        """Whether x lies between a and c."""
        n = self.n
        _check_point(n, a)
        _check_point(n, x)
        _check_point(n, c)
        return (self._fwd[a * n + x] >> c) & 1 == 1

    def interval(self, a: int, c: int) -> PointSet:
        """[a, c]: every point between a and c (always contains both)."""
        _check_point(self.n, a)
        _check_point(self.n, c)
        return PointSet(self.n, self._ivl[a * self.n + c])

    def set_between(self, a_set: PointSet, x: int, c_set: PointSet) -> bool:
        """Whether <a, x, c> holds for some a in a_set, c in c_set: x is in [A, C]."""
        self._check_set(a_set)
        self._check_set(c_set)
        _check_point(self.n, x)
        return self._set_interval_mask(a_set.mask, c_set.mask) >> x & 1 == 1

    def set_interval(self, a_set: PointSet, c_set: PointSet) -> PointSet:
        """[A, C]: points between some a in A and some c in C."""
        self._check_set(a_set)
        self._check_set(c_set)
        return PointSet(self.n, self._set_interval_mask(a_set.mask, c_set.mask))

    def is_convex(self, s: PointSet) -> bool:
        """Whether [S, S] is contained in S."""
        self._check_set(s)
        return self._convexity_breach(s.mask) is None

    def hull(self, a_set: PointSet) -> PointSet:
        """Convex hull: least fixpoint of S -> S | [S, S] starting at a_set."""
        self._check_set(a_set)
        return PointSet(self.n, self._hull_mask(a_set.mask))

    def convex_sets(self, *, allow_large: bool = False) -> list[PointSet]:
        """All convex subsets, ascending by bit mask; always holds {} and X."""
        return [PointSet(self.n, m) for m in self._convex_masks(allow_large=allow_large)]

    # -- base orders ---------------------------------------------------------

    def base_point_order(self, a: int) -> BinaryRelation:
        """The "in front of a" relation: R(x, y) iff <a, x, y>."""
        _check_point(self.n, a)
        n = self.n
        return BinaryRelation(n, tuple(self._fwd[a * n + x] for x in range(n)))

    def base_set_order(self, a_set: PointSet) -> BinaryRelation:
        """R(x, y) iff <a, x, y> for some a in a_set."""
        self._check_set(a_set)
        return BinaryRelation(self.n, tuple(self._base_set_rows(a_set.mask)))

    # -- substructure --------------------------------------------------------

    def restrict(self, s: PointSet) -> "FiniteIntervalSpace":
        """Induced subspace on a nonempty subset.

        Points are relabeled in ascending order of their original ids; the
        axioms are universally quantified, so the restriction is valid by
        construction and skips the axiom scan.
        """
        self._check_set(s)
        if s.mask == 0:
            raise ValueError("cannot restrict to the empty set")
        keep = list(bits_of(s.mask))
        n_old = self.n
        fwd = self._fwd
        table = BetweennessTable.from_function(
            len(keep),
            lambda a, x, c: (fwd[keep[a] * n_old + keep[x]] >> keep[c]) & 1 == 1,
        )
        return FiniteIntervalSpace._trusted(table)

    # -- mask-level internals (shared with the checker modules) --------------

    def _check_set(self, s: PointSet) -> None:
        if not isinstance(s, PointSet):
            raise TypeError(f"expected PointSet, got {type(s).__name__}")
        if s.n != self.n:
            raise ValueError(f"point set universe {s.n} does not match space universe {self.n}")

    def _set_interval_mask(self, am: int, cm: int) -> int:
        # [A, C] is the union of [a, c] over a in A, c in C.
        n = self.n
        ivl = self._ivl
        out = 0
        rest_a = am
        while rest_a:
            low_a = rest_a & -rest_a
            base = (low_a.bit_length() - 1) * n
            rest_a ^= low_a
            rest_c = cm
            while rest_c:
                low_c = rest_c & -rest_c
                out |= ivl[base + low_c.bit_length() - 1]
                rest_c ^= low_c
        return out

    def _convexity_breach(self, sm: int) -> tuple[int, int, int] | None:
        """Smallest (u, v, w) with u, v in S, w between them, w outside S.

        Only pairs u < v are scanned: [u, v] = [v, u] by middle symmetry
        and [u, u] = {u} by thinness, so the smallest breach has u < v.
        """
        n = self.n
        ivl = self._ivl
        rest_u = sm
        while rest_u:
            low_u = rest_u & -rest_u
            base = (low_u.bit_length() - 1) * n
            rest_u ^= low_u
            rest_v = rest_u
            while rest_v:
                low_v = rest_v & -rest_v
                outside = ivl[base + low_v.bit_length() - 1] & ~sm
                if outside:
                    return (base // n, low_v.bit_length() - 1, (outside & -outside).bit_length() - 1)
                rest_v ^= low_v
        return None

    def _hull_mask(self, am: int) -> int:
        cur = am
        while True:
            nxt = cur | self._set_interval_mask(cur, cur)
            if nxt == cur:
                return cur
            cur = nxt

    def _convex_masks(self, *, allow_large: bool = False) -> tuple[int, ...]:
        """Every convex subset mask, ascending (memoized; the budget is checked on every call)."""
        check_budget(f"enumerating the 2^{self.n} subsets", self.n * self.n, self.n, allow_large)
        if self._convex is None:
            self._convex = tuple(m for m in range(1 << self.n) if self._convexity_breach(m) is None)
        return self._convex

    def _base_set_rows(self, am: int) -> list[int]:
        n = self.n
        fwd = self._fwd
        rows = [0] * n
        rest = am
        while rest:
            low = rest & -rest
            base = (low.bit_length() - 1) * n
            rest ^= low
            for x in range(n):
                rows[x] |= fwd[base + x]
        return rows

    def _order_transitivity_breach(self, am: int) -> tuple[int, int, int] | None:
        """Smallest (x, y, z) with <S, x, y> and <S, y, z> but not <S, x, z>:
        the base order of S breaks transitivity."""
        return _transitive_rows_witness(self._base_set_rows(am))

    def _order_antisymmetry_breach(self, am: int) -> tuple[int, int] | None:
        """Smallest (x, y), x < y both outside S, that the base order of S relates both ways."""
        outside = ~am & ((1 << self.n) - 1)
        return _antisymmetric_rows_witness(self._base_set_rows(am), outside) if outside else None

    def _points(self) -> Iterator[tuple[tuple[int], int]]:
        """The base points as (label (a,), mask of {a}), ascending."""
        return (((a,), 1 << a) for a in range(self.n))

    def _intervals(self, first: int = 0) -> Iterator[tuple[tuple[int, int], int]]:
        """The intervals as (label (a, b), mask of [a, b]) for a + first <= b,
        lexicographic: [a, b] = [b, a] by middle symmetry, and first = 1
        leaves out [a, a] = {a} (thinness)."""
        n, ivl = self.n, self._ivl
        return (((a, b), ivl[a * n + b]) for a in range(n) for b in range(a + first, n))


def _first_breach(
    family: Iterable[tuple[Any, int]], breach: Callable[[int], tuple | None], label: Callable[[Any], tuple] = tuple
) -> tuple | None:
    """``(*label(key), *witness)`` for the first (key, mask) of ``family``
    whose mask ``breach`` finds a witness in, or None when none does.

    Every check of a base-order or convexity breach over base points,
    intervals or a list of point sets is one call, so each returns the
    smallest witness in its family's order.  ``label`` is applied only to
    the key returned (a mask becomes a :class:`PointSet` only there).
    """
    for key, mask in family:
        witness = breach(mask)
        if witness is not None:
            return (*label(key), *witness)
    return None
