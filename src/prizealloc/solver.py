"""Numeric kernels: monotone root-finding for the level equation, iterated
function application, interval location, and allocation-path tracing.

The level equation sum_k f_k(x) = E is solved by bisection on [0, E].  The
bracket is valid because g(x) = sum f_k(x) is continuous with g(0) = 0 and
g(E) >= f_1(E) = E, and g is strictly increasing (f_1 is the identity, the
other f_k are non-decreasing), so the root exists and is unique.  Bisection
is used instead of Newton because the functions are piecewise linear with
kinks; it is derivative-free and unconditionally convergent on the bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .core import Allocation, PrizeAllocError

if TYPE_CHECKING:
    from .rules import IntervalList, RuleSpec


class SolverFailure(PrizeAllocError):
    pass


class InvalidPath(PrizeAllocError, ValueError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    """Residual tolerance is relative: the solve stops once
    |sum f_k(x) - E| <= residual_tol * max(1, E)."""

    residual_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self) -> None:
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


DEFAULT_SOLVER = SolverConfig()


def iterate_f(f: Callable[[float], float], x: float, k: int) -> float:
    """Apply f to x exactly k times (k = 0 returns x)."""
    if k < 0:
        raise ValueError("iteration count must be >= 0")
    for _ in range(k):
        x = f(x)
    return x


def solve_level(
    fs: Sequence[Callable[[float], float]],
    n: int,
    endowment: float,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> float:
    """Solve sum_{k<=n} f_k(x) = E for x by bisection on [0, E].

    fs[0] must be the identity; fs must cover at least n functions.
    """
    if n < 1:
        raise ValueError("need at least one competitor")
    if endowment < 0:
        raise ValueError("endowment must be >= 0")
    fs = fs[:n]
    if len(fs) < n:
        raise SolverFailure(f"need {n} level functions, got {len(fs)}")
    if endowment == 0:
        return 0.0

    def g(x: float) -> float:
        return sum(f(x) for f in fs)

    tol = cfg.residual_tol * max(1.0, endowment)
    lo, hi = 0.0, endowment
    x = endowment
    for _ in range(cfg.max_iter):
        x = 0.5 * (lo + hi)
        r = g(x) - endowment
        if abs(r) <= tol:
            return x
        if r < 0:
            lo = x
        else:
            hi = x
    r = g(x) - endowment
    if abs(r) <= tol:
        return x
    raise SolverFailure(
        f"bisection did not reach residual {tol:g} within {cfg.max_iter} "
        f"iterations (last residual {r:g})"
    )


def interval_locate(intervals: "IntervalList", avg: float) -> int | None:
    """Index of the interval whose closure contains avg, or None.

    Intervals are disjoint open sets, so avg can lie in the closure of at
    most two of them only via a shared endpoint; the first match in sorted
    order is returned (the allocation formula agrees on shared endpoints).
    """
    for idx, (a, b) in enumerate(intervals.pairs):
        if a <= avg <= b:
            return idx
        if avg < a:
            break
    return None


@dataclass(frozen=True)
class PathTrace:
    """Allocations sampled along an increasing endowment grid."""

    samples: tuple[tuple[float, Allocation], ...]

    def endowments(self) -> tuple[float, ...]:
        return tuple(e for e, _ in self.samples)


def trace_path(
    rule: "RuleSpec", n: int, e_max: float, step: float | None = None
) -> PathTrace:
    """Allocations at E = 0, step, 2*step, ..., E_max for a fixed field size."""
    from .core import standard_competition
    from .rules import allocate

    if not 0 <= e_max < math.inf:  # also rejects NaN
        raise InvalidPath(f"E_max must be finite and >= 0, got {e_max}")
    if step is None:
        step = 0.01 * max(1.0, e_max)
    if not 0 < step < math.inf:
        raise InvalidPath(f"step must be finite and > 0, got {step}")
    endowments = []
    k = 0
    while k * step < e_max:
        endowments.append(k * step)
        k += 1
    endowments.append(e_max)
    samples = tuple(
        (e, allocate(rule, standard_competition(n, e))) for e in endowments
    )
    return PathTrace(samples=samples)
