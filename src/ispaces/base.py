"""Primitives of the package that need no space model.

The work budget, the condition names of the two theorems, point-id and
bit-mask helpers, the :func:`record` decorator for value classes, and the
layout of a betweenness table's n^3 bits.  A census on the bit-sliced path
reads only these, so it never loads :mod:`ispaces.core`.

Work that grows with the subset lattice is counted before it starts and
held to one budget, `WORK_BUDGET`: over it, :func:`check_budget` raises
:class:`CapExceededError` instead of silently running for minutes.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Iterator

#: Counted steps one operation may take unless ``allow_large=True``
#: (``--allow-large``).  Each size rule counts its own steps: 2^n * n^2 to
#: enumerate the subsets of n points (n <= 16) and 2^orbits for an
#: exhaustive population (n <= 4).  The rule of count * 8^n subset triples
#: for C4/C5 (n <= 8 for one space, :func:`semigroup_reported`) only
#: decides whether they are reported: they take C3's value, at no cost.
WORK_BUDGET = 1 << 25


class CapExceededError(RuntimeError):
    """An operation's estimated work exceeds the work budget."""


def over_budget(count: int, log2: int) -> bool:
    """Whether count * 2^log2 steps exceed `WORK_BUDGET`.

    The product is built only when it can fit, so an astronomically large
    estimate (2^orbits for an exhaustive population) is rejected at no cost.
    """
    return (count > 0 and log2 >= WORK_BUDGET.bit_length()) or count << log2 > WORK_BUDGET


#: How an over-budget message says to lift the budget; callers with no
#: override (``find_separating``, ``ispaces search``) remove it.
OVERRIDE_ADVICE = "; pass allow_large=True (--allow-large) to override"


def budget_message(what: str, count: int, log2: int) -> str:
    """The one wording of an over-budget estimate, for errors and skip notes."""
    estimate = count << log2 if log2 < 64 else f"{count}*2^{log2}".removeprefix("1*")
    return f"{what} takes an estimated {estimate} steps, over the work budget of {WORK_BUDGET}" + OVERRIDE_ADVICE


def check_budget(what: str, count: int, log2: int, allow_large: bool = False) -> None:
    """Raise :class:`CapExceededError` when count * 2^log2 steps of ``what``
    exceed `WORK_BUDGET` and ``allow_large`` is not set."""
    if not allow_large and over_budget(count, log2):
        raise CapExceededError(budget_message(what, count, log2))


TRANSITIVITY_CONDITIONS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9")
ANTISYMMETRY_CONDITIONS = ("D1", "D2", "D3", "D4", "D5")

#: The equivalent conditions of each theorem, in report order.
CONDITIONS = {"transitivity": TRANSITIVITY_CONDITIONS, "antisymmetry": ANTISYMMETRY_CONDITIONS}


def semigroup_reported(spaces: int, n: int, allow_large: bool) -> bool:
    """Whether C4 and C5 are reported for ``spaces`` spaces on n points.

    The one copy of the rule: they are reported when spaces * 8^n subset
    triples fit the work budget or ``allow_large`` is set, and shown as
    skipped otherwise.  Since they take C3's value the rule bounds no work;
    it stays so that reports do not change.
    """
    return allow_large or not over_budget(spaces, 3 * n)


def bits_of(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_point(n: int, i: int, name: str = "point") -> None:
    if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < n:
        raise ValueError(f"{name} id {i!r} out of range [0, {n})")


# ---------------------------------------------------------------------------
# Value classes


def _bind(name: str, fields: tuple[str, ...], defaults: dict[str, Any], args: tuple, kwargs: dict) -> tuple:
    """Field values, in field order, of a constructor call that passes
    keywords or leaves fields to their defaults."""
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
    given = dict(zip(fields, args))
    for key, value in kwargs.items():
        if key not in fields:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if key in given:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
        given[key] = value
    missing = [f for f in fields if f not in given and f not in defaults]
    if missing:
        raise TypeError(f"{name}() missing required arguments: {', '.join(map(repr, missing))}")
    return tuple(given[f] if f in given else defaults[f] for f in fields)


def record(cls: type) -> type:
    """Class decorator for a frozen value class over its annotated fields,
    with the behaviour of ``dataclasses.dataclass(frozen=True)``.

    It adds ``__init__`` (positional or keyword arguments, class attributes
    as defaults, then ``__post_init__`` when the class has one), field-wise
    ``__eq__``, a ``Name(field=value, ...)`` ``__repr__``,
    ``__match_args__``, a ``__hash__`` over the fields, and refuses
    assignment and deletion.  A method the class defines itself is kept.
    Instances keep their ``__dict__``, so they pickle, take
    ``functools.cached_property`` and can be filled by
    ``object.__setattr__``.  The methods are closures: the ``dataclasses``
    module would add its import and one ``exec`` of generated source per
    class to the start-up of every process.
    """
    fields = tuple(cls.__annotations__)
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    values = attrgetter(*fields)
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        if kwargs or len(args) != len(fields):
            args = _bind(cls.__name__, fields, defaults, args, kwargs)
        self.__dict__.update(zip(fields, args))
        if post_init:
            self.__post_init__()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in fields)})"

    def __hash__(self) -> int:
        return hash(values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    for member in (__init__, __eq__, __repr__, __hash__, __setattr__, __delattr__):
        # A class that defines __eq__ gets __hash__ = None, which is not its own.
        if cls.__dict__.get(member.__name__) is None:
            member.__qualname__ = f"{cls.__qualname__}.{member.__name__}"
            setattr(cls, member.__name__, member)
    cls.__match_args__ = fields
    return cls


# ---------------------------------------------------------------------------
# Table layout: bit (a*n + x)*n + c holds <a, x, c>


def _triple_index(n: int, a: int, x: int, c: int) -> int:
    return (a * n + x) * n + c


def _join_rows(n: int, rows: list[int]) -> int:
    """Table bits from its n^2 rows: row a*n + x holds <a, x, c> at bit c.

    One base-2 parse of the concatenated rows is linear in n^3; ORing each
    triple or row into a growing int would be quadratic.
    """
    return int("".join(format(row, f"0{n}b") for row in reversed(rows)) or "0", 2)


def _split_rows(n: int, bits: int) -> list[int]:
    """The n^2 rows of table bits, the inverse of :func:`_join_rows`.

    The table is cut into n planes <a, ., .> and each plane into its rows, so
    no shift runs over the whole n^3 bits more than n times.
    """
    row_mask = (1 << n) - 1
    plane_mask = (1 << n * n) - 1
    rows: list[int] = []
    for a in range(n):
        plane = bits >> a * n * n & plane_mask
        rows += [plane >> i & row_mask for i in range(0, n * n, n)]
    return rows


def _forced_rows(n: int) -> list[int]:
    """Rows every interval space must contain: <x, x, a> and <a, x, x> true."""
    full = (1 << n) - 1
    return [full if a == x else 1 << x for a in range(n) for x in range(n)]


def _forced_bits(n: int) -> int:
    """Bits every interval space must have: <x, x, a> and <a, x, x> true."""
    return _join_rows(n, _forced_rows(n))


def _orbits(n: int) -> Iterator[tuple[int, int, int]]:
    """The free orbits in encoding order: orbit k is {<a,b,c>, <c,b,a>} for the k-th
    pairwise-distinct (a, b, c) with a < c, lexicographically; the axioms force the rest."""
    pts = range(n)
    return ((a, b, c) for a in pts for b in pts for c in pts if a != b and b != c and a < c)
