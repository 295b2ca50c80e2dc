"""Closure systems over the convex sets of an interval space.

A :class:`ClosureSystem` is a materialized Moore family: it contains the
universe and is closed under nonempty intersection (verified when a
hand-built family is constructed; the convex sets of a space are a Moore
family by definition, so :func:`convex_closure_system` skips the check).
On top of it live the closure operator cl, the relative entailment
relations, and the antiexchange and antimatroid predicates.

For a system built from a space by :func:`convex_closure_system`, cl agrees
with the space's fixpoint hull; the two are computed by different routes,
which the test suite exploits as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import FiniteIntervalSpace, PointSet, bits_of


class HypothesisNotMetError(ValueError):
    """An operation's stated hypothesis fails and no override was requested."""


@dataclass(frozen=True)
class ClosureSystem:
    """A Moore family on [0, n): the universe plus nonempty-intersection closure.

    ``closed`` holds the member bit masks in ascending mask order.  Both
    invariants are verified at construction (except through :meth:`_trusted`);
    a family violating them is rejected rather than repaired.  The
    antiexchange witness is computed at most once per instance and then
    shared by every predicate that needs it.
    """

    n: int
    closed: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("universe size must be nonnegative")
        full = (1 << self.n) - 1
        members = set(self.closed)
        if len(members) != len(self.closed) or tuple(sorted(self.closed)) != self.closed:
            raise ValueError("closed sets must be distinct and ascending by mask")
        for m in self.closed:
            if m < 0 or m > full:
                raise ValueError("closed set exceeds the universe")
        if full not in members:
            raise ValueError("a closure system must contain the full universe")
        for a in self.closed:
            for b in self.closed:
                if b >= a:
                    break
                if a & b not in members:
                    raise ValueError(
                        f"not intersection-closed: {PointSet(self.n, a)} and {PointSet(self.n, b)}"
                    )

    @classmethod
    def of(cls, n: int, sets) -> "ClosureSystem":
        masks = sorted({PointSet.of(n, s).mask if not isinstance(s, PointSet) else s.mask for s in sets})
        return cls(n, tuple(masks))

    @classmethod
    def _trusted(cls, n: int, closed: tuple[int, ...]) -> "ClosureSystem":
        """Construction fast path for families that are Moore by construction."""
        system = cls.__new__(cls)
        object.__setattr__(system, "n", n)
        object.__setattr__(system, "closed", closed)
        return system

    def sets(self) -> list[PointSet]:
        return [PointSet(self.n, m) for m in self.closed]

    def is_closed(self, s: PointSet) -> bool:
        self._check_set(s)
        return s.mask in self._members

    def has_empty(self) -> bool:
        return 0 in self.closed

    def cl(self, a_set: PointSet) -> PointSet:
        """Smallest closed superset: intersection of all closed supersets."""
        self._check_set(a_set)
        return PointSet(self.n, self._cl_mask(a_set.mask))

    def entails(self, a_set: PointSet, x: int, y: int, *, allow_unclosed: bool = False) -> bool:
        """Relative entailment: x |-_A y iff y lies in cl(A + {x}).

        The antiexchange condition only quantifies over closed A, so an
        unclosed base set is rejected unless ``allow_unclosed`` is passed.
        """
        self._check_set(a_set)
        if not allow_unclosed and a_set.mask not in self._members:
            raise HypothesisNotMetError(
                f"base set {a_set} is not closed; pass allow_unclosed=True to relax"
            )
        if not 0 <= x < self.n or not 0 <= y < self.n:
            raise ValueError("point id out of range")
        return (self._cl_mask(a_set.mask | (1 << x)) >> y) & 1 == 1

    # -- mask internals ------------------------------------------------------

    def _check_set(self, s: PointSet) -> None:
        if s.n != self.n:
            raise ValueError(f"point set universe {s.n} does not match system universe {self.n}")

    @cached_property
    def _members(self) -> frozenset[int]:
        return frozenset(self.closed)

    def _cl_mask(self, am: int) -> int:
        if am in self._members:
            return am
        out = (1 << self.n) - 1
        for m in self.closed:
            if am & ~m == 0:
                out &= m
        return out

    @cached_property
    def _antiexchange_witness(self) -> tuple[PointSet, int, int] | None:
        full = (1 << self.n) - 1
        for a_mask in self.closed:
            outside = full & ~a_mask
            if outside == 0:
                continue
            cl_with = {x: self._cl_mask(a_mask | (1 << x)) for x in bits_of(outside)}
            rest = outside
            while rest:
                low = rest & -rest
                x = low.bit_length() - 1
                rest ^= low
                cands = cl_with[x] & outside & ~((1 << (x + 1)) - 1)
                while cands:
                    lo = cands & -cands
                    y = lo.bit_length() - 1
                    cands ^= lo
                    if (cl_with[y] >> x) & 1:
                        return (PointSet(self.n, a_mask), x, y)
        return None


def convex_closure_system(space: FiniteIntervalSpace, *, allow_large: bool = False) -> ClosureSystem:
    """The closure system of all convex sets of a space.

    Materializes the convex family (the work budget applies).  The Moore
    check of O(k^2) pairs for k convex sets is skipped: the universe is
    convex and an intersection of convex sets is convex by definition
    (Edelman & Jamison, "The theory of convex geometries", 1985); the tests
    run the checked constructor on these families.  The system is memoized
    on the space, together with the witnesses computed on it; the budget is
    checked on every call, before the memo is read.
    """
    convex = space._convex_masks(allow_large=allow_large)
    if space._closure is None:
        space._closure = ClosureSystem._trusted(space.n, convex)
    return space._closure


# ---------------------------------------------------------------------------
# Antiexchange / antimatroid predicates


def antiexchange_witness(cs: ClosureSystem) -> tuple[PointSet, int, int] | None:
    """Smallest (A, x, y): A closed, x < y outside A, x |-_A y and y |-_A x."""
    return cs._antiexchange_witness


def antimatroid_witness(cs: ClosureSystem) -> tuple | None:
    """Why the system is not an antimatroid, or None when it is.

    The antiexchange witness comes first; failing that,
    ``("empty-set-not-closed",)`` when the empty set is not closed.  The
    third conjunct, combinatorial (the union of every chain of closed sets
    is closed), holds on every finite family, since a finite chain's union
    is its largest member (Edelman & Jamison, "The theory of convex
    geometries", 1985), so it never supplies a witness.  Hand-built systems
    may lack the empty set; convex systems always contain it.
    """
    witness = antiexchange_witness(cs)
    if witness is not None:
        return witness
    return None if cs.has_empty() else ("empty-set-not-closed",)


# ---------------------------------------------------------------------------
# Space-level bridges


def entailment_reverse_witness(space: FiniteIntervalSpace, a_set: PointSet) -> tuple[int, int] | None:
    """Smallest (b, c) where c |-_A b disagrees with <A, b, c>, or None.

    Hypotheses: the space is interval-transitive and A is nonempty and
    convex; under them the entailment relation relative to A is exactly the
    reverse of the base-set relation of A.  Nonemptiness matters: c |-_{}
    c always holds (cl({c}) contains c) while <{}, c, c> never does.
    Entailment is evaluated through the convex closure system, the other
    side through the space's own operators.
    """
    from .properties import interval_transitivity_witness

    space._check_set(a_set)
    if interval_transitivity_witness(space) is not None:
        raise HypothesisNotMetError("space is not interval-transitive")
    if a_set.mask == 0:
        raise HypothesisNotMetError("base set must be nonempty")
    if space._convexity_breach(a_set.mask) is not None:
        raise HypothesisNotMetError(f"base set {a_set} is not convex")
    cs = convex_closure_system(space)
    n = space.n
    rows = space._base_set_rows(a_set.mask)  # rows[b] bit c: <A, b, c>
    entailed_by = [cs._cl_mask(a_set.mask | (1 << c)) for c in range(n)]
    for b in range(n):
        for c in range(n):
            if ((entailed_by[c] >> b) & 1) != ((rows[b] >> c) & 1):
                return (b, c)
    return None
