"""Property checkers for interval spaces, with counterexample witnesses.

Each named property (point-transitive, stiff, interval-convex, ...) has a
witness function returning the lexicographically smallest counterexample
tuple, or None when the property holds; the registry :data:`PROPERTIES`
lists them by name, and a flag is always ``witness is None``.  The two
condition vectors bundle the nine formulations equivalent to
interval-transitivity (C1..C9) and the five equivalent to
interval-antisymmetry (D1..D5).  Every condition is evaluated from its own
defining formula, not derived from the others, so the equivalences can be
verified extensionally over enumerated or sampled spaces.

Scan order is ascending point ids (and ascending bit masks for subset
quantifiers) everywhere, which makes reported witnesses deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable

from .core import (
    FiniteIntervalSpace,
    PointSet,
    _antisymmetric_rows_witness,
    _transitive_rows_witness,
    budget_message,
    over_budget,
)
from .closure import (
    HypothesisNotMetError,
    antiexchange_witness,
    antimatroid_witness,
    convex_closure_system,
)

TRANSITIVITY_CONDITIONS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9")
ANTISYMMETRY_CONDITIONS = ("D1", "D2", "D3", "D4", "D5")

#: The equivalent conditions of each theorem, in report order.
CONDITIONS = {"transitivity": TRANSITIVITY_CONDITIONS, "antisymmetry": ANTISYMMETRY_CONDITIONS}


# ---------------------------------------------------------------------------
# Named properties


def point_transitivity_witness(space: FiniteIntervalSpace) -> tuple[int, int, int, int] | None:
    """Smallest (a, x, y, z) with <a,x,y> and <a,y,z> but not <a,x,z>."""
    n = space.n
    fwd = space._fwd
    for a in range(n):
        base = a * n
        w = _transitive_rows_witness(fwd[base:base + n])
        if w is not None:
            return (a, *w)
    return None


def point_antisymmetry_witness(space: FiniteIntervalSpace) -> tuple[int, int, int] | None:
    """Smallest (a, x, y), x < y, with <a,x,y> and <a,y,x>."""
    n = space.n
    fwd = space._fwd
    full = (1 << n) - 1
    for a in range(n):
        base = a * n
        w = _antisymmetric_rows_witness(fwd[base:base + n], full)
        if w is not None:
            return (a, *w)
    return None


def interval_transitivity_witness(space: FiniteIntervalSpace) -> tuple[int, int, int, int, int] | None:
    """Smallest (a, b, x, y, z) where the base order of [a, b] breaks transitivity.

    Memoized on the space: the census hypothesis filter, C1 and the named
    property all ask for it.
    """
    if space._it_witness is None:
        space._it_witness = (_interval_transitivity_scan(space),)
    return space._it_witness[0]


def _interval_transitivity_scan(space: FiniteIntervalSpace) -> tuple[int, int, int, int, int] | None:
    n = space.n
    ivl = space._ivl
    for a in range(n):
        for b in range(n):
            rows = space._base_set_rows(ivl[a * n + b])
            w = _transitive_rows_witness(rows)
            if w is not None:
                return (a, b, *w)
    return None


def interval_antisymmetry_witness(space: FiniteIntervalSpace) -> tuple[int, int, int, int] | None:
    """Smallest (a, b, x, y): x, y outside [a, b], related both ways by its base order."""
    n = space.n
    ivl = space._ivl
    full = (1 << n) - 1
    for a in range(n):
        for b in range(n):
            im = ivl[a * n + b]
            outside = full & ~im
            if outside == 0:
                continue
            rows = space._base_set_rows(im)
            w = _antisymmetric_rows_witness(rows, outside)
            if w is not None:
                return (a, b, *w)
    return None


def interval_convexity_witness(space: FiniteIntervalSpace) -> tuple[int, int, int, int, int] | None:
    """Smallest (a, b, u, v, w) where [a, b] fails to contain [u, v] for u, v in it."""
    n = space.n
    ivl = space._ivl
    for a in range(n):
        for b in range(n):
            breach = space._convexity_breach(ivl[a * n + b])
            if breach is not None:
                return (a, b, *breach)
    return None


def stiffness_witness(space: FiniteIntervalSpace) -> tuple[int, int, int, int] | None:
    """Smallest (a, b, c, d) with <a,b,c>, b != c, <b,c,d>, but not <a,b,d>."""
    n = space.n
    fwd = space._fwd
    for a in range(n):
        for b in range(n):
            row_ab = fwd[a * n + b]
            cands = fwd[a * n + b] & ~(1 << b)
            rest_c = cands
            while rest_c:
                low = rest_c & -rest_c
                c = low.bit_length() - 1
                rest_c ^= low
                extra = fwd[b * n + c] & ~row_ab
                if extra:
                    return (a, b, c, (extra & -extra).bit_length() - 1)
    return None


# ---------------------------------------------------------------------------
# Condition vectors


@dataclass(frozen=True)
class ConditionVector:
    """Values of one theorem's equivalent conditions on one space.

    ``values`` holds one entry per condition in order; None marks a
    condition that was skipped (work budget), never one that was
    guessed.  Every False entry has a witness.  ``hypothesis_met`` records
    whether the space satisfied the hypothesis the equivalence needs
    (interval-transitivity, for the antisymmetry conditions).
    """

    theorem: str
    values: tuple[bool | None, ...]
    witness_items: tuple[tuple[str, tuple], ...] = ()
    hypothesis_met: bool = True

    def __post_init__(self) -> None:
        if self.theorem not in CONDITIONS:
            raise ValueError(f"unknown theorem {self.theorem!r}")
        if len(self.values) != len(self.names):
            raise ValueError(f"{self.theorem} needs {len(self.names)} values, got {len(self.values)}")

    @classmethod
    def of(
        cls,
        theorem: str,
        witnesses: dict[str, tuple | None],
        skipped: tuple[str, ...] = (),
        hypothesis_met: bool = True,
    ) -> "ConditionVector":
        """The vector of one witness per condition name (None: the condition
        holds); the names in ``skipped`` have no witness and the value None."""
        names = CONDITIONS.get(theorem, ())
        values = tuple(None if name in skipped else witnesses[name] is None for name in names)
        items = tuple((name, witnesses[name]) for name, value in zip(names, values) if value is False)
        return cls(theorem, values, items, hypothesis_met)

    @property
    def names(self) -> tuple[str, ...]:
        return CONDITIONS[self.theorem]

    @property
    def witnesses(self) -> dict[str, tuple]:
        return dict(self.witness_items)

    def flags(self) -> dict[str, bool | None]:
        return dict(zip(self.names, self.values))

    @property
    def skipped(self) -> tuple[str, ...]:
        return tuple(name for name, v in zip(self.names, self.values) if v is None)

    def decided(self) -> tuple[bool, ...]:
        return tuple(v for v in self.values if v is not None)

    def all_equal(self) -> bool:
        """Whether every evaluated condition agrees (skipped entries ignored)."""
        decided = self.decided()
        return all(v == decided[0] for v in decided) if decided else True


def _c2_c3_witnesses(space: FiniteIntervalSpace, triangles: list[int]) -> tuple[tuple | None, tuple | None]:
    """Witnesses for [{a},[b,c]] <= [[a,b],{c}] and for equality of the two.

    ``triangles`` holds [[a,b],{c}] at (a*n + b)*n + c (:func:`_triangle_masks`);
    by middle symmetry [{a},[b,c]] = [[b,c],{a}] is at (b*n + c)*n + a.
    """
    n = space.n
    w2 = w3 = None
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = triangles[(b * n + c) * n + a]
                rhs = triangles[(a * n + b) * n + c]
                if w2 is None:
                    extra = lhs & ~rhs
                    if extra:
                        w2 = (a, b, c, (extra & -extra).bit_length() - 1)
                if w3 is None:
                    diff = lhs ^ rhs
                    if diff:
                        w3 = (a, b, c, (diff & -diff).bit_length() - 1)
                if w2 is not None and w3 is not None:
                    return (w2, w3)
    return (w2, w3)


def _associativity_witness(space: FiniteIntervalSpace, tab: list[tuple[int, ...]]) -> tuple | None:
    """Smallest (A, B, C, x) with x in exactly one of [[A,B],C] and [A,[B,C]]."""
    size = len(tab)
    n = space.n
    for am in range(size):
        row_a = tab[am]
        for bm in range(size):
            left_row = tab[row_a[bm]]
            # right_row[C] = [A, [B, C]]; rows have 2^n >= 2 entries, so the
            # gather always returns a tuple.
            right_row = itemgetter(*tab[bm])(row_a)
            if left_row != right_row:
                for cm in range(size):
                    diff = left_row[cm] ^ right_row[cm]
                    if diff:
                        x = (diff & -diff).bit_length() - 1
                        return (PointSet(n, am), PointSet(n, bm), PointSet(n, cm), x)
    return None


def _commutativity_witness(space: FiniteIntervalSpace, tab: list[tuple[int, ...]]) -> tuple | None:
    size = len(tab)
    n = space.n
    for am in range(size):
        row_a = tab[am]
        for bm in range(am + 1, size):
            diff = row_a[bm] ^ tab[bm][am]
            if diff:
                x = (diff & -diff).bit_length() - 1
                return (PointSet(n, am), PointSet(n, bm), x)
    return None


def _c6_witness(space: FiniteIntervalSpace, convex_masks: tuple[int, ...]) -> tuple | None:
    """Interval-convexity breaches scan first, then base-order transitivity per convex set."""
    w = interval_convexity_witness(space)
    if w is not None:
        return w
    for am in convex_masks:
        rows = space._base_set_rows(am)
        tw = _transitive_rows_witness(rows)
        if tw is not None:
            return (PointSet(space.n, am), *tw)
    return None


def _c7_witness(space: FiniteIntervalSpace, convex_masks: tuple[int, ...], convex: set[int]) -> tuple | None:
    """Smallest (A, B, u, v, w): a convexity breach of [A, B], A and B convex.

    [A, B] = [B, A] by middle symmetry, so the smallest breaching pair has
    A <= B and only those pairs are scanned.  ``convex`` is the convex
    family, every mask without a breach, so a mask outside it has one.
    """
    for i, am in enumerate(convex_masks):
        for bm in convex_masks[i:]:
            t = space._set_interval_mask(am, bm)
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


def _c9_witness(space: FiniteIntervalSpace, triangles: list[int]) -> tuple | None:
    """Smallest (a, b, c, x) with x in exactly one of co({a,b,c}) and [[a,b],{c}].

    Each hull is computed once per distinct point set {a, b, c}.
    """
    n = space.n
    hulls: dict[int, int] = {}
    for index, t in enumerate(triangles):
        a, bc = divmod(index, n * n)
        b, c = divmod(bc, n)
        mask = (1 << a) | (1 << b) | (1 << c)
        h = hulls.get(mask)
        if h is None:
            h = hulls[mask] = space._hull_mask(mask)
        diff = t ^ h
        if diff:
            return (a, b, c, (diff & -diff).bit_length() - 1)
    return None


def transitivity_conditions(
    space: FiniteIntervalSpace,
    *,
    semigroup_conditions: bool | None = None,
    allow_large: bool = False,
) -> ConditionVector:
    """Evaluate the nine conditions equivalent to interval-transitivity.

    C4 and C5 quantify over all (2^n)^3 subset triples; with
    ``semigroup_conditions=None`` they are evaluated exactly when those 8^n
    steps fit the work budget or ``allow_large`` is set, and reported as
    skipped (None) otherwise.  Pass True to force them or False to skip
    regardless.  They scan the full [A, B] table; the sets [[a, b], {c}]
    are built once for C2/C3, C8 and C9.
    """
    if semigroup_conditions is None:
        semigroup_conditions = allow_large or not over_budget(1, 3 * space.n)
    convex = space._convex_masks(allow_large=allow_large)
    convex_set = set(convex)
    triangles = _triangle_masks(space)
    witnesses = {"C1": interval_transitivity_witness(space)}
    witnesses["C2"], witnesses["C3"] = _c2_c3_witnesses(space, triangles)
    if semigroup_conditions:
        tab = space._subset_table()
        w4 = witnesses["C4"] = _associativity_witness(space, tab)
        witnesses["C5"] = w4 if w4 is not None else _commutativity_witness(space, tab)
    witnesses["C6"] = _c6_witness(space, convex)
    witnesses["C7"] = _c7_witness(space, convex, convex_set)
    witnesses["C8"] = _c8_witness(space, triangles, convex_set)
    witnesses["C9"] = _c9_witness(space, triangles)
    return ConditionVector.of("transitivity", witnesses, () if semigroup_conditions else ("C4", "C5"))


def _d3_witness(space: FiniteIntervalSpace, convex_masks: tuple[int, ...]) -> tuple | None:
    """Smallest (A, x, y): A convex, x < y outside A, base order of A relates both ways."""
    full = (1 << space.n) - 1
    for am in convex_masks:
        outside = full & ~am
        if outside == 0:
            continue
        rows = space._base_set_rows(am)
        w = _antisymmetric_rows_witness(rows, outside)
        if w is not None:
            return (PointSet(space.n, am), *w)
    return None


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
    """
    hypothesis_met = interval_transitivity_witness(space) is None
    if not hypothesis_met and not allow_non_interval_transitive:
        raise HypothesisNotMetError(
            "space is not interval-transitive; pass allow_non_interval_transitive=True to evaluate anyway"
        )
    convex = space._convex_masks(allow_large=allow_large)
    cs = convex_closure_system(space, allow_large=allow_large)
    witnesses = {
        "D1": interval_antisymmetry_witness(space),
        "D2": stiffness_witness(space),
        "D3": _d3_witness(space, convex),
        "D4": antiexchange_witness(cs),
        "D5": antimatroid_witness(cs),
    }
    return ConditionVector.of("antisymmetry", witnesses, hypothesis_met=hypothesis_met)


# ---------------------------------------------------------------------------
# Universally valid implications


def base_interval_transitivity_prop_witness(space: FiniteIntervalSpace) -> tuple | None:
    """Smallest (a, b, c, x) breaking: base order of [a,b] transitive implies
    [{a},[b,c]] <= [[a,b],{c}].  None on every interval space."""
    n = space.n
    ivl = space._ivl
    triangles = _triangle_masks(space)
    for a in range(n):
        for b in range(n):
            rows = space._base_set_rows(ivl[a * n + b])
            if _transitive_rows_witness(rows) is not None:
                continue
            for c in range(n):
                # [{a},[b,c]] is [[b,c],{a}] by middle symmetry
                extra = triangles[(b * n + c) * n + a] & ~triangles[(a * n + b) * n + c]
                if extra:
                    return (a, b, c, (extra & -extra).bit_length() - 1)
    return None


def base_interval_antisymmetry_prop_witness(space: FiniteIntervalSpace) -> tuple | None:
    """Smallest (a, d, b, c) breaking: in a point-transitive space, if the base
    order of [a,d] is antisymmetric outside [a,d], then <a,b,c>, b != c and
    <b,c,d> force <a,b,d>.  Vacuously None when not point-transitive."""
    if point_transitivity_witness(space) is not None:
        return None
    n = space.n
    ivl = space._ivl
    fwd = space._fwd
    full = (1 << n) - 1
    for a in range(n):
        for d in range(n):
            im = ivl[a * n + d]
            rows = space._base_set_rows(im)
            if _antisymmetric_rows_witness(rows, full & ~im) is not None:
                continue
            for b in range(n):
                row_ab = fwd[a * n + b]
                if not (row_ab >> d) & 1:
                    rest_c = row_ab & ~(1 << b)
                    while rest_c:
                        low = rest_c & -rest_c
                        c = low.bit_length() - 1
                        rest_c ^= low
                        if (fwd[b * n + c] >> d) & 1:
                            return (a, d, b, c)
    return None


def stiff_convex_antisymmetry_witness(space: FiniteIntervalSpace, *, allow_large: bool = False) -> tuple | None:
    """Smallest (A, x, y) breaking: stiff implies every convex base order is
    antisymmetric off its base set.  Vacuously None when not stiff."""
    if stiffness_witness(space) is not None:
        return None
    return _d3_witness(space, space._convex_masks(allow_large=allow_large))


# ---------------------------------------------------------------------------
# Aggregated reports and the named-predicate registry


@dataclass
class PropertyReport:
    """Named flags plus witnesses for one space.

    ``flags`` maps each requested name to True/False, or None when the
    entry was skipped (work budget); ``notes`` explains every None and
    every hypothesis breach.  Every False flag has a witness.
    """

    n: int
    flags: dict[str, bool | None] = field(default_factory=dict)
    witnesses: dict[str, tuple] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)


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
    """
    conditions = TRANSITIVITY_CONDITIONS + ANTISYMMETRY_CONDITIONS
    names = [*PROPERTIES, *conditions] if names is None else list(names)
    report = PropertyReport(n=space.n)
    for name in resolve_properties(t for t in names if t not in conditions):
        witness = PROPERTIES[name](space, allow_large)
        report.flags[name] = witness is None
        if witness is not None:
            report.witnesses[name] = witness

    def keep(vector: ConditionVector) -> None:
        report.flags.update((k, v) for k, v in vector.flags().items() if k in names)
        report.witnesses.update((k, w) for k, w in vector.witness_items if k in names)

    if any(t in TRANSITIVITY_CONDITIONS for t in names):
        cv = transitivity_conditions(space, allow_large=allow_large)
        keep(cv)
        for name in cv.skipped:
            if name in names:
                report.notes[name] = "skipped: " + budget_message(f"C4/C5 on {space.n} points", 1, 3 * space.n)
    if any(t in ANTISYMMETRY_CONDITIONS for t in names):
        dv = antisymmetry_conditions(space, allow_non_interval_transitive=True, allow_large=allow_large)
        keep(dv)
        if not dv.hypothesis_met:
            report.notes["antisymmetry-conditions"] = (
                "space is not interval-transitive; D1..D5 evaluated anyway and need not agree"
            )
    return report
