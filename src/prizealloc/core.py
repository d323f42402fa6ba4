"""Domain types for competitions, rankings, allocations, and observed prize data.

A competition is a finite set of competitor identifiers together with a
bijective ranking onto positions 1..n and a non-negative prize endowment.
An allocation assigns each competitor a non-negative prize; the prizes sum
to the endowment within a configurable tolerance.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf
from typing import Iterable, Sequence

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


def endowment_error(endowment: float) -> PrizeAllocError:
    """The error for an endowment outside 0 <= E < inf (callers test that
    inline, as it is on every allocation's path)."""
    kind = NegativeEndowment if endowment < 0 else NonFiniteEndowment
    return kind(f"endowment must be finite and >= 0, got {endowment}")


@dataclass(frozen=True)
class Ranking:
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


@dataclass(frozen=True)
class Competition:
    """A ranked field of competitors with a prize endowment."""

    ranking: Ranking
    endowment: float

    def __post_init__(self) -> None:
        if not 0 <= self.endowment < inf:
            raise endowment_error(self.endowment)

    @property
    def n(self) -> int:
        return self.ranking.n

    @property
    def competitors(self) -> frozenset[str]:
        return self.ranking.competitors


@dataclass(frozen=True)
class Allocation:
    """Per-competitor prize amounts, keyed by competitor id."""

    prizes: dict[str, float]

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
    return Competition(ranking=Ranking(tuple(by_position)), endowment=float(endowment))


def standard_competition(n: int, endowment: float, prefix: str = "c") -> Competition:
    """A competition with generic ids c1..cn ranked in index order.

    The validated ranking of the last (n, prefix) is kept and shared, as
    callers loop over endowments at one n; one field is at most about 6 MB
    (n = 100,000).  An invalid n is not kept, so it raises on every call."""
    return Competition(ranking=_standard_ranking(n, prefix), endowment=float(endowment))


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


@dataclass(frozen=True)
class PrizeTable:
    """Observed position -> prize data for a single event.

    The prize list starts at position 1 and may cover only the top
    positions, so the listed prizes may sum to less than the endowment.
    """

    name: str
    endowment: float
    prizes: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0 < self.endowment < inf:
            kind = NegativeEndowment if self.endowment <= 0 else NonFiniteEndowment
            raise kind(f"endowment must be finite and > 0, got {self.endowment}")
        if not all(0 <= p < inf for p in self.prizes):  # also rejects NaN
            raise PrizeAllocError(f"prizes must be finite and non-negative: {self.prizes}")
        if sum(self.prizes) > self.endowment + tau_sum(self.endowment):
            raise PrizeAllocError(
                f"prizes sum to {sum(self.prizes)} > endowment {self.endowment}"
            )


@dataclass(frozen=True)
class EventSet:
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
