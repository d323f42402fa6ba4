"""Numeric kernels: monotone root-finding for the level equation, iterated
function application, and interval location.

The level equation g(x) = sum_k f_k(x) = E is solved by bisection on [0, E].
The bracket is valid because g is continuous with g(0) = 0 and
g(E) >= f_1(E) = E, and g is strictly increasing (f_1 is the identity, the
other f_k are non-decreasing), so the root exists and is unique.  Bisection
is used instead of Newton because the functions are piecewise linear with
kinks; it is derivative-free and unconditionally convergent on the bracket.

``solve_level_sum`` is the one bisection loop: it takes the level sum g as
a single callable.  ``solve_level`` is its list form, for explicit level
functions f_1..f_n.  A single-parametric rule (f_k = f^(k-1)) passes
``sum(iterates(f, x, n))``, which walks x, f(x), f(f(x)), ... once, so a
bisection step costs O(n): n - 1 calls to f rather than the n(n-1)/2 of
evaluating each f^(k-1) from x.  Both forms add the same terms with
``sum`` in position order, so the one-pass sum is bit-identical to the list
form over ``iterate_f`` levels.  (A running ``+=`` would not be on every
Python: from 3.12, ``sum`` of floats compensates rounding error.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .core import PrizeAllocError

if TYPE_CHECKING:
    from .rules import IntervalList


class SolverFailure(PrizeAllocError):
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


def iterates(f: Callable[[float], float], x: float, n: int) -> Iterator[float]:
    """x, f(x), f(f(x)), ...: the first n iterates of f from x."""
    if n < 1:
        return
    yield x
    for _ in range(n - 1):
        x = f(x)
        yield x


def solve_level(
    fs: Sequence[Callable[[float], float]],
    n: int,
    endowment: float,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> float:
    """Solve sum_{k<=n} f_k(x) = E for x by bisection on [0, E].

    fs[0] must be the identity; fs must cover at least n functions.
    """
    fs = fs[:n]
    if len(fs) < n:
        raise SolverFailure(f"need {n} level functions, got {len(fs)}")
    return solve_level_sum(lambda x: sum(f(x) for f in fs), n, endowment, cfg)


def solve_level_sum(
    g: Callable[[float], float],
    n: int,
    endowment: float,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> float:
    """Solve g(x) = E for x by bisection on [0, E], where g is the sum of n
    level functions, the first of them the identity."""
    if n < 1:
        raise ValueError("need at least one competitor")
    if endowment < 0:
        raise ValueError("endowment must be >= 0")
    if endowment == 0:
        return 0.0
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
