"""Domain types for competitions, rankings, allocations, and observed prize data.

A competition is a finite set of competitor identifiers together with a
bijective ranking onto positions 1..n and a non-negative prize endowment.
An allocation assigns each competitor a non-negative prize; the prizes sum
to the endowment within a configurable tolerance.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from types import SimpleNamespace
from typing import Iterable, Sequence

# The largest finite float: an int or Fraction endowment above it has no
# float value, and a float is at most it exactly when it is finite.
MAX_FLOAT = sys.float_info.max

# Default tolerances. These are configuration, not constants: every operation
# that compares sums or prizes accepts an explicit tolerance argument.
TAU_EQ = 1e-9


def tau_sum(endowment: float) -> float:
    """Default sum tolerance, scaled with the endowment."""
    return 1e-9 * max(1.0, abs(endowment))


class PrizeAllocError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateId(PrizeAllocError):
    pass


class NotAPermutation(PrizeAllocError):
    pass


class NegativeEndowment(PrizeAllocError):
    pass


class NonFiniteEndowment(PrizeAllocError):
    pass


class EmptySubset(PrizeAllocError):
    pass


class UnknownCompetitor(PrizeAllocError):
    pass


class KeyMismatch(PrizeAllocError):
    pass


class InconsistentPositionCounts(PrizeAllocError):
    pass


def number_text(x: float) -> str:
    """str(x), but 6 digits and a power of ten for an int or Fraction of over
    about 30 digits, whose str() holds each digit (and raises above 4,300)."""
    num, den = (0, 1) if isinstance(x, float) else abs(x).as_integer_ratio()
    if num.bit_length() + den.bit_length() <= 100:
        return str(x)
    shift = 8 - (num.bit_length() - den.bit_length()) * 30103 // 100000  # 8 to 10 digits
    digits = str(num * 10 ** shift // den if shift > 0 else num // (den * 10 ** -shift))
    return f"{'-' * (x < 0)}{digits[0]}.{digits[1:6]}e{len(digits) - 1 - shift:+d}"


def endowment_error(endowment: float) -> PrizeAllocError:
    """The error for an endowment outside 0 <= E <= MAX_FLOAT (callers test
    that inline, as it is on every allocation's path)."""
    kind = NegativeEndowment if endowment < 0 else NonFiniteEndowment
    return kind(f"endowment must be finite and >= 0, got {number_text(endowment)}")


class Record:
    """Base of the package's immutable value records, in place of a frozen
    dataclass, which costs start-up time to build.  The fields are the base
    records' fields, then the class's own annotated names, each defaulting
    to the class attribute of its name.  ``__init__`` takes them by position
    or name, then calls ``__post_init__``; equality (within one class), the
    hash and ``repr`` read the tuple of field values; assignment raises.
    ``__dataclass_fields__`` holds what ``dataclasses.replace`` reads."""

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        own = cls.__annotations__
        cls._fields += tuple(name for name in own if name not in cls._fields)
        cls._defaults = {**cls._defaults, **{k: cls.__dict__[k] for k in own if k in cls.__dict__}}
        cls.__dataclass_fields__ = {
            k: SimpleNamespace(name=k, init=True, _field_type=None) for k in cls._fields}

    def __init__(self, *args, **kwargs) -> None:
        values = self.__dict__
        try:
            values.update(self._defaults, **dict(zip(self._fields, args)), **kwargs)
        except TypeError:  # a field given by position and by name
            doubled = next(k for k in self._fields[:len(args)] if k in kwargs)
            raise TypeError(f"{type(self).__qualname__}() got the field {doubled!r} "
                            "by position and by name") from None
        if len(args) > len(self._fields) or values.keys() != self.__dataclass_fields__.keys():
            raise TypeError(f"{type(self).__qualname__}() takes the fields {self._fields}, "
                            f"got {len(args)} by position and {sorted(kwargs)}")
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        values = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({values})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with ``changes`` to some fields, built and checked anew."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def to_dict(self) -> dict:
        """``{field: value}`` for every field, as JSON holds it: a nested record
        becomes its dict, a ``Ranking`` its ids in position order and a tuple
        a list."""
        return {k: _plain(v) for k, v in zip(self._fields, self._values())}


def _plain(value: object) -> object:
    if isinstance(value, Ranking):
        return list(value.by_position)
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


class Ranking(Record):
    """A bijection from competitor ids onto positions 1..n.

    Stored as the tuple of ids in position order: ``by_position[r - 1]`` is
    the competitor at position ``r`` (position 1 is the winner).
    """

    by_position: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.by_position) < 1:
            raise NotAPermutation("ranking must cover at least one competitor")
        if len(set(self.by_position)) != len(self.by_position):
            raise DuplicateId(f"duplicate competitor ids in ranking: {self.by_position}")
        if not all(self.by_position):
            raise DuplicateId("competitor ids must be non-empty strings")

    @property
    def n(self) -> int:
        return len(self.by_position)

    @property
    def competitors(self) -> frozenset[str]:
        return frozenset(self.by_position)

    def position_of(self, cid: str) -> int:
        try:
            return self.by_position.index(cid) + 1
        except ValueError:
            raise UnknownCompetitor(f"unknown competitor: {cid!r}") from None

    def id_at(self, position: int) -> str:
        return self.by_position[position - 1]


class Competition(Record):
    """A ranked field of competitors with a prize endowment."""

    ranking: Ranking
    endowment: float

    def __init__(self, ranking: Ranking, endowment: float) -> None:  # one per allocation
        if not 0 <= endowment <= MAX_FLOAT:
            raise endowment_error(endowment)
        values = self.__dict__
        values["ranking"], values["endowment"] = ranking, endowment

    @property
    def n(self) -> int:
        return self.ranking.n

    @property
    def competitors(self) -> frozenset[str]:
        return self.ranking.competitors


class Allocation(Record):
    """Per-competitor prize amounts, keyed by competitor id."""

    prizes: dict[str, float]

    def __init__(self, prizes: dict[str, float]) -> None:  # one per allocation
        self.__dict__["prizes"] = prizes

    def by_position(self, ranking: Ranking) -> tuple[float, ...]:
        """The prize vector in position order (winner first)."""
        # a list first, as in standard_competition
        return tuple([self.prizes[cid] for cid in ranking.by_position])

    def total(self) -> float:
        return sum(self.prizes.values())


def make_competition(
    ids: Sequence[str], positions: Sequence[int], endowment: float
) -> Competition:
    """Build a validated competition from parallel id/position sequences."""
    if len(set(ids)) != len(ids):
        raise DuplicateId(f"duplicate competitor ids: {list(ids)}")
    if len(positions) != len(ids) or sorted(positions) != list(range(1, len(ids) + 1)):
        raise NotAPermutation(
            f"positions must be a permutation of 1..{len(ids)}, got {list(positions)}"
        )
    by_position = [""] * len(ids)
    for cid, pos in zip(ids, positions):
        by_position[pos - 1] = cid
    return Competition(ranking=Ranking(tuple(by_position)), endowment=_as_float(endowment))


def standard_competition(n: int, endowment: float, prefix: str = "c") -> Competition:
    """A competition with generic ids c1..cn ranked in index order.

    The validated ranking of the last (n, prefix) is kept and shared, as
    callers loop over endowments at one n; one field is at most about 6 MB
    (n = 100,000).  An invalid n is not kept, so it raises on every call."""
    return Competition(ranking=_standard_ranking(n, prefix), endowment=_as_float(endowment))


def _as_float(endowment: float) -> float:
    try:
        return float(endowment)
    except OverflowError:  # an int or Fraction beyond the float range
        raise endowment_error(endowment) from None


@lru_cache(maxsize=1, typed=True)  # typed: a float n raises, as range() does
def _standard_ranking(n: int, prefix: str) -> Ranking:
    # tuple() of a list, not of a generator: a generator's tuple is grown by
    # resizing, and CPython then parks it on the free list of its final size,
    # where no later tuple(generator) reuses it (up to 2,000 per size).
    return Ranking(tuple([f"{prefix}{k}" for k in range(1, n + 1)]))


def subranking(ranking: Ranking, subset: Iterable[str]) -> Ranking:
    """Restrict a ranking to a subset of competitors, preserving relative order."""
    subset = set(subset)
    if not subset:
        raise EmptySubset("subset must be non-empty")
    unknown = subset - ranking.competitors
    if unknown:
        raise UnknownCompetitor(f"not in ranking: {sorted(unknown)}")
    return Ranking(tuple(cid for cid in ranking.by_position if cid in subset))


def validate_allocation(
    competition: Competition, allocation: Allocation, tol: float | None = None
) -> bool:
    """True iff the allocation is non-negative and sums to the endowment.

    Raises KeyMismatch when the allocation is not keyed by exactly the
    competitors of the competition.
    """
    if set(allocation.prizes) != competition.competitors:
        raise KeyMismatch(
            f"allocation keys {sorted(allocation.prizes)} != "
            f"competitors {sorted(competition.competitors)}"
        )
    if tol is None:
        tol = tau_sum(competition.endowment)
    if any(p < 0 for p in allocation.prizes.values()):
        return False
    return abs(allocation.total() - competition.endowment) <= tol


class PrizeTable(Record):
    """Observed position -> prize data for a single event.

    The prize list starts at position 1 and may cover only the top
    positions, so the listed prizes may sum to less than the endowment.
    """

    name: str
    endowment: float
    prizes: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0 < self.endowment <= MAX_FLOAT:
            kind = NegativeEndowment if self.endowment <= 0 else NonFiniteEndowment
            raise kind(f"endowment must be finite and > 0, got {number_text(self.endowment)}")
        if not all(0 <= p <= MAX_FLOAT for p in self.prizes):  # also rejects NaN
            raise PrizeAllocError(f"prizes must be finite and non-negative: {self.prizes}")
        if sum(self.prizes) > self.endowment + tau_sum(self.endowment):
            raise PrizeAllocError(
                f"prizes sum to {sum(self.prizes)} > endowment {self.endowment}"
            )


class EventSet(Record):
    """Several prize tables expected to share one underlying rule."""

    events: tuple[PrizeTable, ...]

    def __post_init__(self) -> None:
        if not self.events:
            raise PrizeAllocError("event set must contain at least one event")
        counts = {len(e.prizes) for e in self.events}
        if len(counts) > 1:
            raise InconsistentPositionCounts(
                f"events list different numbers of positions: {counts}"
            )

    @property
    def positions(self) -> int:
        return len(self.events[0].prizes)
