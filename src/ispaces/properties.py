"""Property checkers for interval spaces, with counterexample witnesses.

Each named property (point-transitive, stiff, interval-convex, ...) has a
witness function returning the lexicographically smallest counterexample
tuple, or None when the property holds; the registry :data:`PROPERTIES`
lists them by name, and a flag is always ``witness is None``.  The two
condition vectors bundle the nine formulations equivalent to
interval-transitivity (C1..C9) and the five equivalent to
interval-antisymmetry (D1..D5).  Every condition is evaluated from its own
defining formula, not derived from the others, so the equivalences can be
verified extensionally over enumerated or sampled spaces.  The exceptions
are C4 and C5, which the definition of [A, B] and the axioms reduce to C3
(:func:`transitivity_conditions`), C9, which takes C8's value since
[[a, b], {c}] equals the hull of {a, b, c} exactly when it is convex, and
D5, which takes D4's value on a convex system (:func:`antisymmetry_conditions`).

Scan order is ascending point ids (and ascending bit masks for subset
quantifiers) everywhere, which makes reported witnesses deterministic.
Interval scans skip b < a: [a, b] = [b, a] by middle symmetry, so the
smallest failing pair has a <= b (a < b for convexity, as [a, a] = {a}).
Base orders are tested by the space's two ``_order_*_breach`` kernels, and
each quantifier over base points, intervals or convex sets is one
``core._first_breach`` scan.  Stiffness and its proposition read one stream
of stiffness breaches, as C2, C3 and theirs read one of triangle breaches.
The evaluators always return C4 and C5; whether they are reported is
:func:`semigroup_reported`'s decision.
"""

from __future__ import annotations

from functools import cache
from itertools import tee
from typing import Callable, Iterable, Iterator

from .base import (
    ANTISYMMETRY_CONDITIONS, CONDITIONS, TRANSITIVITY_CONDITIONS, bits_of, budget_message, record, semigroup_reported,
)
from .core import FiniteIntervalSpace, PointSet, _first_breach
from .closure import (
    HypothesisNotMetError,
    antiexchange_witness,
    antimatroid_witness,
    convex_closure_system,
)


# ---------------------------------------------------------------------------
# Named properties


def point_transitivity_witness(space: FiniteIntervalSpace) -> tuple[int, int, int, int] | None:
    """Smallest (a, x, y, z) with <a,x,y> and <a,y,z> but not <a,x,z>."""
    return _first_breach(space._points(), space._order_transitivity_breach)


def point_antisymmetry_witness(space: FiniteIntervalSpace) -> tuple[int, int, int] | None:
    """Smallest (a, x, y), x < y, with <a,x,y> and <a,y,x>.

    Scanning outside {a} is enough: by thinness a is in no two-way pair.
    """
    return _first_breach(space._points(), space._order_antisymmetry_breach)


def interval_transitivity_witness(space: FiniteIntervalSpace) -> tuple[int, int, int, int, int] | None:
    """Smallest (a, b, x, y, z) where the base order of [a, b] breaks transitivity.

    Memoized on the space: the census hypothesis filter, C1 and the named
    property all ask for it.
    """
    if space._it_witness is None:
        space._it_witness = (_first_breach(space._intervals(), space._order_transitivity_breach),)
    return space._it_witness[0]


def interval_antisymmetry_witness(space: FiniteIntervalSpace) -> tuple[int, int, int, int] | None:
    """Smallest (a, b, x, y): x, y outside [a, b], related both ways by its base order."""
    return _first_breach(space._intervals(), space._order_antisymmetry_breach)


def interval_convexity_witness(space: FiniteIntervalSpace) -> tuple[int, int, int, int, int] | None:
    """Smallest (a, b, u, v, w) where [a, b] fails to contain [u, v] for u, v in it."""
    return _first_breach(space._intervals(1), space._convexity_breach)


def _stiffness_breaches(space: FiniteIntervalSpace) -> Iterator[tuple[int, int, int, int]]:
    """(a, b, c, D) for every <a,b,c> with b != c, ascending, where D is the
    nonempty mask of every d with <b,c,d> and not <a,b,d>."""
    n, fwd = space.n, space._fwd
    for a in range(n):
        for b in range(n):
            row_ab = fwd[a * n + b]
            rest_c = row_ab & ~(1 << b)
            while rest_c:
                low = rest_c & -rest_c
                c = low.bit_length() - 1
                rest_c ^= low
                extra = fwd[b * n + c] & ~row_ab
                if extra:
                    yield (a, b, c, extra)


def stiffness_witness(space: FiniteIntervalSpace) -> tuple[int, int, int, int] | None:
    """Smallest (a, b, c, d) with <a,b,c>, b != c, <b,c,d>, but not <a,b,d>."""
    for a, b, c, extra in _stiffness_breaches(space):
        return (a, b, c, (extra & -extra).bit_length() - 1)
    return None


# ---------------------------------------------------------------------------
# Condition vectors


@record
class ConditionVector:
    """Values of one theorem's equivalent conditions on one space.

    ``values`` holds one flag per condition in order; every False entry has
    a witness.  ``hypothesis_met`` records whether the space satisfied the
    hypothesis the equivalence needs (interval-transitivity, for the
    antisymmetry conditions).
    """

    theorem: str
    values: tuple[bool, ...]
    witness_items: tuple[tuple[str, tuple], ...] = ()
    hypothesis_met: bool = True

    def __post_init__(self) -> None:
        if self.theorem not in CONDITIONS:
            raise ValueError(f"unknown theorem {self.theorem!r}")
        if len(self.values) != len(self.names):
            raise ValueError(f"{self.theorem} needs {len(self.names)} values, got {len(self.values)}")

    @classmethod
    def of(cls, theorem: str, witnesses: dict[str, tuple | None], hypothesis_met: bool = True) -> "ConditionVector":
        """The vector of one witness per condition name (None: the condition holds)."""
        names = CONDITIONS.get(theorem, ())
        values = tuple(witnesses[name] is None for name in names)
        items = tuple((name, witnesses[name]) for name in names if witnesses[name] is not None)
        return cls(theorem, values, items, hypothesis_met)

    @property
    def names(self) -> tuple[str, ...]:
        return CONDITIONS[self.theorem]

    @property
    def witnesses(self) -> dict[str, tuple]:
        return dict(self.witness_items)

    def flags(self) -> dict[str, bool]:
        return dict(zip(self.names, self.values))

    def all_equal(self) -> bool:
        """Whether every condition agrees."""
        return len(set(self.values)) <= 1


def _triangle_breaches(space: FiniteIntervalSpace, triangles: list[int]) -> Iterator[tuple[int, int, int, int, int]]:
    """(a, b, c, lhs, rhs) for every (a, b, c), ascending, where
    lhs = [{a},[b,c]] and rhs = [[a,b],{c}] differ.

    ``triangles`` holds [[a,b],{c}] at (a*n + b)*n + c (:func:`_triangle_masks`);
    by middle symmetry [{a},[b,c]] = [[b,c],{a}] is at (b*n + c)*n + a.
    """
    n = space.n
    for index, rhs in enumerate(triangles):
        a, bc = divmod(index, n * n)
        lhs = triangles[bc * n + a]
        if lhs != rhs:
            yield (a, *divmod(bc, n), lhs, rhs)


def _peano_witness(breaches: Iterable[tuple[int, int, int, int, int]], inclusion: bool) -> tuple | None:
    """The first (a, b, c, x) of a stream of triangle breaches with x in
    [{a},[b,c]] outside [[a,b],{c}] (C2, ``inclusion``) or in exactly one
    of the two (C3), x smallest."""
    for a, b, c, lhs, rhs in breaches:
        diff = lhs & ~rhs if inclusion else lhs ^ rhs
        if diff:
            return (a, b, c, (diff & -diff).bit_length() - 1)
    return None


def _c6_witness(space: FiniteIntervalSpace, convex_masks: tuple[int, ...]) -> tuple | None:
    """Interval-convexity breaches scan first, then base-order transitivity per convex set."""
    return interval_convexity_witness(space) or _first_breach(
        zip(convex_masks, convex_masks), space._order_transitivity_breach, lambda m: (PointSet(space.n, m),)
    )


def _c7_witness(space: FiniteIntervalSpace, convex_masks: tuple[int, ...], convex: set[int]) -> tuple | None:
    """Smallest (A, B, u, v, w): a convexity breach of [A, B], A and B convex.

    [A, B] = [B, A] by middle symmetry, so the smallest breaching pair has
    A <= B, and a convex A has [A, A] = A, so only the pairs A < B are
    scanned.  [A, B] is computed as [U, U] with U = A | B, once per U: for
    nonempty A and B, [U, U] is [A, A] | [A, B] | [B, A] | [B, B] =
    A | [A, B] | B, which is [A, B] since [a, b] holds a and b (endpoint
    reflexivity).  For A empty, [U, U] = B and [A, B] is empty, both convex.
    ``convex`` is the convex family, every mask without a breach, so a mask
    outside it has one.
    """
    joined: dict[int, int] = {}
    for i, am in enumerate(convex_masks):
        for bm in convex_masks[i + 1:]:
            u = am | bm
            t = joined.get(u)
            if t is None:
                t = joined[u] = space._set_interval_mask(u, u)
            if t not in convex:
                return (PointSet(space.n, am), PointSet(space.n, bm), *space._convexity_breach(t))
    return None


def _triangle_masks(space: FiniteIntervalSpace) -> list[int]:
    """[[a, b], {c}] for every (a, b, c), at index (a*n + b)*n + c."""
    n = space.n
    ivl = space._ivl
    return [space._set_interval_mask(ivl[a * n + b], 1 << c) for a in range(n) for b in range(n) for c in range(n)]


def _c8_witness(space: FiniteIntervalSpace, triangles: list[int], convex: set[int]) -> tuple | None:
    """Smallest (a, b, c, u, v, w): a convexity breach of [[a,b],{c}].

    ``convex`` is the convex family, so a mask outside it has a breach.
    """
    for index, t in enumerate(triangles):
        if t not in convex:
            a, bc = divmod(index, space.n * space.n)
            return (a, *divmod(bc, space.n), *space._convexity_breach(t))
    return None


def _c9_witness(space: FiniteIntervalSpace, triangles: list[int], w8: tuple | None) -> tuple | None:
    """Smallest (a, b, c, x) with x in exactly one of co({a,b,c}) and [[a,b],{c}].

    [[a,b],{c}] holds a, b and c and lies inside their hull, so it equals
    the hull exactly when it is convex: C9 fails first at C8's failing
    triple (``w8``), and x is a hull point outside [[a,b],{c}].
    """
    if w8 is None:
        return None
    a, b, c = w8[:3]
    n = space.n
    extra = space._hull_mask((1 << a) | (1 << b) | (1 << c)) & ~triangles[(a * n + b) * n + c]
    return (a, b, c, (extra & -extra).bit_length() - 1)


def transitivity_conditions(space: FiniteIntervalSpace, *, allow_large: bool = False) -> ConditionVector:
    """Evaluate the nine conditions equivalent to interval-transitivity.

    ``allow_large`` lifts the work budget of the convex-set enumeration
    that C6 and C7 read.  The sets [[a, b], {c}] are built once for C2/C3,
    C8 and C9, and C9 takes C8's value (:func:`_c9_witness`).

    C4 (associativity on subsets) takes C3's value: [A, B] is the union of
    [a, b] over a in A and b in B, so [[A, B], C] and [A, [B, C]] are the
    unions of [[a, b], {c}] and of [{a}, [b, c]] over the point triples of
    A x B x C, and a subset triple fails only if one of its point triples
    does.  The masks below {a} hold only points below a, so with (a, b, c)
    C3's smallest failing triple the smallest failing (A, B, C, x) is C3's
    witness (a, b, c, x) with a, b and c as singletons.  C5 (associative and
    commutative) takes C4's value and witness: [a, b] = [b, a] by middle
    symmetry, so [A, B] = [B, A] on every interval space.  Both are always
    evaluated; whether they are reported is :func:`semigroup_reported`'s
    decision.
    """
    convex = space._convex_masks(allow_large=allow_large)
    convex_set = set(convex)
    triangles = _triangle_masks(space)
    witnesses = {"C1": interval_transitivity_witness(space)}
    # C3 fails at the first triangle breach and C2 at it or later: one pass, read twice.
    c2_stream, c3_stream = tee(_triangle_breaches(space, triangles))
    witnesses["C3"] = w3 = _peano_witness(c3_stream, False)
    witnesses["C2"] = _peano_witness(c2_stream, True)
    witnesses["C4"] = witnesses["C5"] = None if w3 is None else (*(PointSet(space.n, 1 << p) for p in w3[:3]), w3[3])
    witnesses["C6"] = _c6_witness(space, convex)
    witnesses["C7"] = _c7_witness(space, convex, convex_set)
    witnesses["C8"] = _c8_witness(space, triangles, convex_set)
    witnesses["C9"] = _c9_witness(space, triangles, witnesses["C8"])
    return ConditionVector.of("transitivity", witnesses)


def _d3_witness(space: FiniteIntervalSpace, convex_masks: tuple[int, ...]) -> tuple | None:
    """Smallest (A, x, y): A convex, x < y outside A, base order of A relates both ways."""
    return _first_breach(
        zip(convex_masks, convex_masks), space._order_antisymmetry_breach, lambda m: (PointSet(space.n, m),)
    )


def antisymmetry_conditions(
    space: FiniteIntervalSpace,
    *,
    allow_non_interval_transitive: bool = False,
    allow_large: bool = False,
) -> ConditionVector:
    """Evaluate the five conditions equivalent to interval-antisymmetry.

    The equivalence holds for interval-transitive spaces; by default a
    space failing that hypothesis is rejected.  With
    ``allow_non_interval_transitive=True`` the conditions are still
    evaluated (they remain individually well-defined) and the breach is
    recorded via ``hypothesis_met=False``; the five values need not agree
    then.

    D5 (antimatroid) takes D4's value and witness: the empty set is convex,
    so antiexchange is the one conjunct of :func:`antimatroid_witness` that
    can fail on a convex system.
    """
    hypothesis_met = interval_transitivity_witness(space) is None
    if not hypothesis_met and not allow_non_interval_transitive:
        raise HypothesisNotMetError(
            "space is not interval-transitive; pass allow_non_interval_transitive=True to evaluate anyway"
        )
    convex = space._convex_masks(allow_large=allow_large)
    cs = convex_closure_system(space, allow_large=allow_large)
    d4 = antiexchange_witness(cs)
    witnesses = {
        "D1": interval_antisymmetry_witness(space),
        "D2": stiffness_witness(space),
        "D3": _d3_witness(space, convex),
        "D4": d4,
        "D5": d4,
    }
    return ConditionVector.of("antisymmetry", witnesses, hypothesis_met=hypothesis_met)


# ---------------------------------------------------------------------------
# Universally valid implications


def base_interval_transitivity_prop_witness(space: FiniteIntervalSpace) -> tuple | None:
    """Smallest (a, b, c, x) breaking: base order of [a,b] transitive implies
    [{a},[b,c]] <= [[a,b],{c}].  None on every interval space: the first C2
    breach whose [a, b] has a transitive base order."""
    n, ivl = space.n, space._ivl
    breaches = _triangle_breaches(space, _triangle_masks(space))
    return _peano_witness((t for t in breaches if space._order_transitivity_breach(ivl[t[0] * n + t[1]]) is None), True)


def base_interval_antisymmetry_prop_witness(space: FiniteIntervalSpace) -> tuple | None:
    """Smallest (a, d, b, c) breaking: in a point-transitive space, if the base
    order of [a,d] is antisymmetric outside [a,d], then <a,b,c>, b != c and
    <b,c,d> force <a,b,d>.  Vacuously None when not point-transitive; else
    the least over every d of every stiffness breach with [a,d] antisymmetric,
    each [a,d] tested once."""
    if point_transitivity_witness(space) is not None:
        return None
    n, ivl = space.n, space._ivl
    antisymmetric = cache(lambda ad: space._order_antisymmetry_breach(ivl[ad]) is None)
    return min(((a, d, b, c) for a, b, c, extra in _stiffness_breaches(space) for d in bits_of(extra)
                if antisymmetric(a * n + d)), default=None)


def stiff_convex_antisymmetry_witness(space: FiniteIntervalSpace, *, allow_large: bool = False) -> tuple | None:
    """Smallest (A, x, y) breaking: stiff implies every convex base order is
    antisymmetric off its base set.  Vacuously None when not stiff."""
    if stiffness_witness(space) is not None:
        return None
    return _d3_witness(space, space._convex_masks(allow_large=allow_large))


def entailment_reverse_witness(space: FiniteIntervalSpace, a_set: PointSet) -> tuple[int, int] | None:
    """Smallest (b, c) where c |-_A b disagrees with <A, b, c>, or None.

    Hypotheses: the space is interval-transitive and A is nonempty and
    convex; under them the entailment relation relative to A is exactly the
    reverse of the base-set relation of A.  Nonemptiness matters: c |-_{}
    c always holds (cl({c}) contains c) while <{}, c, c> never does.
    Entailment is evaluated through the convex closure system, the other
    side through the space's own operators.
    """
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


# ---------------------------------------------------------------------------
# Aggregated reports and the named-predicate registry


@record
class PropertyReport:
    """Named flags plus witnesses for one space.

    ``flags`` maps each requested name to True/False, or None when the
    entry was skipped (work budget); ``notes`` explains every None and
    every hypothesis breach.  Every False flag has a witness.
    """

    n: int
    flags: dict[str, bool | None]
    witnesses: dict[str, tuple]
    notes: dict[str, str]


def _combinatorial_witness(space: FiniteIntervalSpace, allow_large: bool) -> None:
    """Always None: on a finite family the union of a chain of closed sets is
    its largest member, so it is closed (see :func:`antimatroid_witness`).

    The convex sets are still enumerated, so this entry is held to the same
    work budget as the other closure entries.
    """
    space._convex_masks(allow_large=allow_large)
    return None


#: Every named property in report order: name -> witness(space, allow_large),
#: the smallest counterexample or None when the property holds.  Only the
#: closure entries enumerate subsets, so only they read ``allow_large``.
PROPERTIES: dict[str, Callable[[FiniteIntervalSpace, bool], tuple | None]] = {
    "point-transitive": lambda space, allow_large: point_transitivity_witness(space),
    "point-antisymmetric": lambda space, allow_large: point_antisymmetry_witness(space),
    "interval-transitive": lambda space, allow_large: interval_transitivity_witness(space),
    "interval-antisymmetric": lambda space, allow_large: interval_antisymmetry_witness(space),
    "interval-convex": lambda space, allow_large: interval_convexity_witness(space),
    "stiff": lambda space, allow_large: stiffness_witness(space),
    "antiexchange": lambda space, allow_large: antiexchange_witness(
        convex_closure_system(space, allow_large=allow_large)
    ),
    "combinatorial": _combinatorial_witness,
    "antimatroid": lambda space, allow_large: antimatroid_witness(
        convex_closure_system(space, allow_large=allow_large)
    ),
}


def resolve_properties(names: Iterable[str]) -> list[str]:
    """Validate predicate names against the registry, preserving order."""
    out = []
    for name in names:
        if name not in PROPERTIES:
            known = ", ".join(sorted(PROPERTIES))
            raise ValueError(f"unknown property {name!r}; known: {known}")
        out.append(name)
    return out


def property_report(
    space: FiniteIntervalSpace,
    names: Iterable[str] | None = None,
    *,
    allow_large: bool = False,
) -> PropertyReport:
    """Evaluate named properties and conditions (all of them by default) on one space.

    ``names`` mixes registry names with C1..C9 and D1..D5.  Registry names
    are reported in the order given, then the requested conditions in their
    own order.  Each condition family is evaluated only when one of its
    names is requested; the D conditions are evaluated even when the space
    is not interval-transitive, with a note recording the hypothesis breach.
    An empty ``names`` is an error, not an empty report.  C4 and C5 are
    shown as skipped, with a note, where :func:`semigroup_reported` says so.
    """
    conditions = TRANSITIVITY_CONDITIONS + ANTISYMMETRY_CONDITIONS
    names = [*PROPERTIES, *conditions] if names is None else list(names)
    if not names:
        raise ValueError("no property names given")
    flags: dict[str, bool | None] = {}
    witnesses: dict[str, tuple] = {}
    notes: dict[str, str] = {}
    for name in resolve_properties(t for t in names if t not in conditions):
        witness = PROPERTIES[name](space, allow_large)
        flags[name] = witness is None
        if witness is not None:
            witnesses[name] = witness

    def keep(vector: ConditionVector) -> None:
        flags.update((k, v) for k, v in vector.flags().items() if k in names)
        witnesses.update((k, w) for k, w in vector.witness_items if k in names)

    if any(t in TRANSITIVITY_CONDITIONS for t in names):
        keep(transitivity_conditions(space, allow_large=allow_large))
        if not semigroup_reported(1, space.n, allow_large):
            for name in ("C4", "C5"):
                if name in names:
                    flags[name] = None
                    witnesses.pop(name, None)
                    notes[name] = "skipped: " + budget_message(f"C4/C5 on {space.n} points", 1, 3 * space.n)
    if any(t in ANTISYMMETRY_CONDITIONS for t in names):
        dv = antisymmetry_conditions(space, allow_non_interval_transitive=True, allow_large=allow_large)
        keep(dv)
        if not dv.hypothesis_met:
            notes["antisymmetry-conditions"] = (
                "space is not interval-transitive; D1..D5 evaluated anyway and need not agree"
            )
    return PropertyReport(space.n, flags, witnesses, notes)
