"""Numeric kernels: monotone root-finding for the level equation and
iterated function application.

The level equation g(x) = sum_k f_k(x) = E is solved by bisection on [0, E].
The bracket is valid because g is continuous with g(0) = 0 and
g(E) >= f_1(E) = E, and g is strictly increasing (f_1 is the identity, the
other f_k are non-decreasing), so the root exists and is unique.  Bisection
is used instead of Newton because the functions are piecewise linear with
kinks; it is derivative-free and unconditionally convergent on the bracket.

``solve_level_sum`` is the one bisection loop: it takes the level sum g as
a single callable.  ``solve_level`` is its list form, for explicit level
functions f_1..f_n.  ``iterates(f, x, n)`` walks x, f(x), f(f(x)), ...
once, so a single-parametric level sum costs n - 1 calls to f rather than
the n(n-1)/2 of evaluating each f^(k-1) from x, and its ``sum`` adds the
same terms in position order as the list form over ``iterate_f`` levels,
so it is bit-identical.  (A running ``+=`` would not be on every Python:
from 3.12, ``sum`` of floats compensates rounding error.)  The walk stops
calling f at a fixed point: once f(x) is x bit for bit (the same value and
the same sign of zero; NaN never qualifies), every later iterate is that
x.  The rules do not call f per term: each kind of level walks in one
loop of its own (``rules._KINDS``), bit for bit ``iterates``, and a level
rule's g keeps the terms of its last few calls, and the rules pay those
of the x ``solve_level_sum`` returns as the prizes, with no further walk.

A solve replays plain bisection on [0, E]: the same midpoints, the same
accept test |g(x) - E| <= tol, the same iteration count and the same
failure.  (Once no float lies between lo and hi, every later step repeats
the last, so the loop stops there.)  It only skips g at midpoints whose
side of the root is known, so its answer is plain bisection's midpoint,
bit for bit.  On the benchmark's ``tables`` traffic it costs about 2.6
level sums, where plain bisection costs 33.

1. Predicted ends.  Each level rule passes ``estimate=(x, slope)``, read
   off its piecewise-linear model of g: the root of the piece of g that
   holds E, and g's slope there.  The bracket ends are then xl, xu = x -+
   2 tol / slope, not evaluated: a midpoint at or below xl takes lo = x
   without calling g, one at or above xu takes hi = x.  An evaluated
   midpoint (x, r = g(x) - E) certifies, with band = 2 tol:
   - by monotone g, every p <= x is low when r < -band, and every p >= x
     high when r > band;
   - by g' >= 1 (f_1 is the identity), with one tol of slack, every
     p < x - (r + band) is low and every p > x + (band - r) high.  This
     holds while the float sum's rounding, about n * 2**-53 * max(1, E)
     at each point, stays below tol / 4, that is while n is at most
     residual_tol * 2**51: 225,000 at the default 1e-10, above the CLI's
     field cap, and 2,250 at the axiom checks' 1e-12.
   When a midpoint passes the accept test, the largest midpoint taken low
   and the smallest taken high without a call must be certified; one that
   is not yet is evaluated, and must clear the band on its side.  Those
   checks evaluate g after the accepted x, so a level rule keeps its last
   few level sums' terms.
2. Plain bisection.  Without an estimate, when a check fails, or when
   max_iter runs out first, the same loop runs again with no ends: plain
   bisection, which evaluates every midpoint.

The skips rest on one premise: fl(g), the level sum as rounded, may decrease
as x grows, but by less than tol.  Then every midpoint at or below an end
whose residual is below -2 tol has a residual below -tol, and the skipped
decision is the one an evaluation would have made (likewise above).  Each
level of a rule is non-decreasing as evaluated, up to a few ulps at a
``pwl`` breakpoint, and a sum of n of them rounds with an error of at most
about n * 2**-52 * E.  That is below tol = residual_tol * max(1, E) while n
is below residual_tol * 2**52: about 450,000 at the default 1e-10, above
the CLI's field cap, and 4,500 at the axiom checks' 1e-12, far above their
field cap of 12.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import Callable, Iterable, Sequence

from .core import PrizeAllocError, Record


class SolverFailure(PrizeAllocError):
    pass


class SolverConfig(Record):
    """Residual tolerance is relative: the solve stops once
    |sum f_k(x) - E| <= residual_tol * max(1, E)."""

    residual_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self) -> None:
        # `not <` also refuses NaN, which would accept no residual at all
        if not 0.0 < self.residual_tol < math.inf:
            raise ValueError(f"residual_tol must be finite and > 0, got {self.residual_tol!r}")
        if type(self.max_iter) is not int or self.max_iter < 1:  # a bool is no count
            raise ValueError(f"max_iter must be an int >= 1, got {self.max_iter!r}")


DEFAULT_SOLVER = SolverConfig()
# predicted bracket ends lie _Z tol / slope either side of the rule's estimate
_Z = 2.0


def iterate_f(f: Callable[[float], float], x: float, k: int) -> float:
    """Apply f to x exactly k times (k = 0 returns x)."""
    if k < 0:
        raise ValueError("iteration count must be >= 0")
    for _ in range(k):
        x = f(x)
    return x


def iterates(f: Callable[[float], float], x: float, n: int) -> Iterable[float]:
    """x, f(x), f(f(x)), ...: the first n iterates of f from x, to be
    iterated once.  Once f(x) is x bit for bit, f is not called again: the
    rest repeat x."""
    if n < 1:
        return []
    walked = [x]
    for rest in range(n - 1, 0, -1):  # iterates due after those walked
        # at rest == 1, x is the last iterate: no call of f is left to save
        if x == (x := f(x)) and rest > 1 and (
                x or math.copysign(1.0, x) == math.copysign(1.0, walked[-1])):
            return chain(walked, repeat(x, rest))
        walked.append(x)
    return walked


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
    estimate: tuple[float, float] | None = None,
) -> float:
    """Solve g(x) = E for x by bisection on [0, E], where g is the sum of n
    level functions, the first of them the identity.  The bisection calls g
    only between two bracket ends.  Given ``estimate``, a near root and g's
    slope there, the ends lie 2 tol / slope either side of it, not
    evaluated, and the midpoints taken beyond them are certified once one
    is accepted.  Without it, or when a certificate fails, the ends are
    infinite: plain bisection."""
    if n < 1:
        raise ValueError("need at least one competitor")
    if endowment < 0:
        raise ValueError("endowment must be >= 0")
    if endowment == 0:
        return 0.0
    tol = cfg.residual_tol * max(1.0, endowment)
    band = 2.0 * tol
    steep = n <= cfg.residual_tol * 2.0 ** 51  # g' >= 1 certifies: the sum rounds by < tol / 4
    guess, slope = estimate or (math.nan, 1.0)
    w = _Z * tol / max(1.0, slope)
    predicted = [(guess - w, guess + w)] if 0.0 < guess <= endowment else []  # not for a NaN
    # plain bisection runs last: without an estimate, after a failed
    # certificate, or when the predicted run ends without an answer
    for xl, xu in predicted + [(-math.inf, math.inf)]:
        # every p <= low_ok is low and every p >= high_ok high; low and high are
        # the last midpoints taken as such without a call of g
        low_ok, high_ok, low, high = -math.inf, math.inf, -math.inf, math.inf
        lo, hi = 0.0, endowment
        for _ in range(cfg.max_iter):
            x = 0.5 * (lo + hi)
            if x <= xl:
                lo = low = x
                continue
            if x >= xu:
                hi = high = x
                continue
            r = g(x) - endowment
            if r < -band:
                low_ok = max(low_ok, x)
            elif steep:
                low_ok = max(low_ok, x - (r + band))
            if r > band:
                high_ok = min(high_ok, x)
            elif steep:
                high_ok = min(high_ok, x + (band - r))
            if abs(r) <= tol:
                if ((low <= low_ok or g(low) - endowment < -band)
                        and (high >= high_ok or g(high) - endowment > band)):
                    return x
                break
            if x == lo or x == hi:  # no float left between: every later step repeats this one
                break
            if r < 0:
                lo = x
            else:
                hi = x
    r = g(x) - endowment  # plain bisection's own end
    if abs(r) <= tol:
        return x
    raise SolverFailure(
        f"bisection did not reach residual {tol:g} within {cfg.max_iter} "
        f"iterations (last residual {r:g})"
    )
