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

from functools import cached_property

from .base import _check_point, record
from .core import FiniteIntervalSpace, PointSet, _antisymmetric_rows_witness, _first_breach


class HypothesisNotMetError(ValueError):
    """An operation's stated hypothesis fails and no override was requested."""


@record
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
    _universe = "system"
    _check_set = FiniteIntervalSpace._check_set

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
        _check_point(self.n, x)
        _check_point(self.n, y)
        return (self._cl_mask(a_set.mask | (1 << x)) >> y) & 1 == 1

    # -- mask internals ------------------------------------------------------

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

    def _entailment_breach(self, a_mask: int) -> tuple[int, int] | None:
        """Smallest (x, y), x < y outside A, entailing each other relative to A:
        antiexchange is antisymmetry of entailment, whose row x is cl(A + {x})."""
        outside = ~a_mask & ((1 << self.n) - 1)
        rows = [self._cl_mask(a_mask | (1 << x)) if outside >> x & 1 else 0 for x in range(self.n)]
        return _antisymmetric_rows_witness(rows, outside) if outside else None

    @cached_property
    def _antiexchange_witness(self) -> tuple[PointSet, int, int] | None:
        return _first_breach(zip(self.closed, self.closed), self._entailment_breach, lambda m: (PointSet(self.n, m),))


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
