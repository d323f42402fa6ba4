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
rule's g keeps the terms of its last call.  ``solve_level_sum`` returns,
but at E = 0, right after it evaluates g at the x it returns, so the rules
pay those terms as the prizes, with no further walk.

A solve runs in two phases.  On the benchmark's ``tables`` traffic it
costs about 4 level sums, where plain bisection on [0, E] costs 33.

1. Probe.  Each level rule sets ``g.estimate = (x, slope)``, read off its
   piecewise-linear model of g: the root of the piece of g that holds E,
   and g's slope there.  A probe becomes a bracket end only if its
   residual clears the tolerance tol by a further tol: g(xl) - E < -2 tol,
   g(xu) - E > 2 tol.  The estimate is not evaluated at first: two probes
   step out to either side of it, 3 tol / slope away, and when each that
   lies inside (0, E) clears that band on its side, they are the bracket.
   That costs two level sums, and one at n = 1, where the root is E and
   the upper step-out lies beyond E, where no midpoint lies.
   Only if a step-out inside (0, E) misses is the estimate evaluated, and
   the search goes on from there.  Without an estimate, or when E/2 lies
   as close to the root, the first probe is the bisection's own first
   midpoint E/2, so a solve that bisection ends there costs one level
   sum.  From an evaluated probe, a few Illinois (false-position) steps
   from the anchors (0, -E) and the probe, or E when the root lies above
   it, look for a tight bracket xl < root < xu.  The first probe inside
   the band ends the search, and two more probes step out around the root
   it points at.  The slope is the rule's own when it gives one: the
   secant from (0, -E) is steeper than a concave g (``sp:cap``) near its
   root, so its steps fall short of the band, and the bracket stays wide.
2. Replay.  The bisection runs exactly as it would alone: the same
   midpoints, the same accept test |g(x) - E| <= tol, the same iteration
   count and the same failure.  Only a midpoint at or below xl takes
   lo = x without calling g, and one at or above xu takes hi = x.

So the probes only choose which midpoints are evaluated; the answer is
always a bisection midpoint, and the same one plain bisection returns, bit
for bit, however close a rule's estimate is.  That rests on one premise:
fl(g), the level sum as rounded, may decrease as x grows, but by less
than tol.  Then every midpoint at or below xl has a residual below -tol,
as xl's is below -2 tol, and the skipped decision is the one an
evaluation would have made (likewise above xu).  Each level of a rule is
non-decreasing as evaluated, up to a few ulps at a ``pwl`` breakpoint,
and a sum of n of them rounds with an error of at most about
n * 2**-52 * E.  That is below tol = residual_tol * max(1, E) while n is
below residual_tol * 2**52: about 450,000 at the default 1e-10, above the
CLI's field cap, and 4,500 at the axiom checks' 1e-12, far above their
field cap of 12.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .core import PrizeAllocError, Record

if TYPE_CHECKING:
    from .rules import IntervalList


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
# false-position probes that look for a tight bracket before each bisection
_PROBES = 10


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
) -> float:
    """Solve g(x) = E for x by bisection on [0, E], where g is the sum of n
    level functions, the first of them the identity.  Probes bracket the
    root first, so the bisection calls g only inside the bracket; the first
    probes step out around ``g.estimate``, a near root and g's slope there,
    if g has one."""
    if n < 1:
        raise ValueError("need at least one competitor")
    if endowment < 0:
        raise ValueError("endowment must be >= 0")
    if endowment == 0:
        return 0.0
    tol = cfg.residual_tol * max(1.0, endowment)
    x = 0.5 * endowment  # the bisection's first midpoint
    guess, slope = getattr(g, "estimate", None) or (x, 0.0)
    # the guess, unless it lies outside (0, E] or is NaN, or E/2 is as close
    if 0.0 < guess <= endowment and abs(guess - x) * slope > tol:
        x, r = guess, None  # not evaluated: _bracket steps out around it
    else:
        r = g(x) - endowment
        if abs(r) <= tol:
            return x
    xl, xu = _bracket(g, endowment, tol, x, r, slope)
    lo, hi = 0.0, endowment
    for _ in range(cfg.max_iter):
        x = 0.5 * (lo + hi)
        if x <= xl:
            lo = x
            continue
        if x >= xu:
            hi = x
            continue
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


def _bracket(g: Callable[[float], float], e: float, tol: float,
             x: float, r: float | None, slope: float = 0.0) -> tuple[float, float]:
    """From the probe (x, r) = (x, g(x) - E) and the anchors (0, -E) and,
    when the root lies above x, (E, g(E) - E), probe g by Illinois false
    position for xl < xu with g(xl) - E < -2 tol and g(xu) - E > 2 tol,
    each an evaluated probe; an end no probe clears stays infinite.  The
    first probe inside that band ends the search, and the bracket steps
    out to 3 tol / slope either side of the root the probe points at:
    1.5 times the width of the window |g - E| <= tol.  The slope is the
    rule's own, when it gives one (not 0), else the secant from the last
    probe.  With r None, x is the rule's root estimate, not evaluated: the
    bracket steps out around x, and g(x) is evaluated, for the search to go
    on from there, only if a step-out inside (0, E) misses the band."""
    band = 2.0 * tol
    xl, xu = -math.inf, math.inf
    a, fa, b, fb = 0.0, -e, e, math.nan  # g(0) = 0: no call; g(E): not called yet
    x0, r0 = a, fa
    guessed, r = r is None, r or 0.0
    for probe in range(_PROBES + 1):
        if r < -band:
            if x0 == a:
                fb *= 0.5  # Illinois: an end kept twice in a row weighs half
            xl = a = x
            fa = r
        elif r > band:
            if x0 == b:
                fa *= 0.5
            xu = b = x
            fb = r
        else:  # inside the band, NaN, or the rule's estimate
            slope = max(1.0, slope or (r - r0) / (x - x0))  # g' >= 1: f_1 is the identity
            root, w = x - r / slope, 3.0 * tol / slope
            for y in (root - w, root + w):
                if max(xl, 0.0) < y < min(xu, e):  # no midpoint lies outside (0, E)
                    ry = g(y) - e
                    if ry < -band:
                        xl = y
                    elif ry > band:
                        xu = y
            if not guessed or ((xl == root - w or root - w <= 0.0)
                               and (xu == root + w or root + w >= e)):
                break
            guessed, r = False, g(x) - e  # a step-out missed: go on from the estimate
            continue
        if probe == _PROBES:
            break
        x0, r0 = x, r
        if fb != fb:  # every probe so far lies below the root
            x = e
        else:
            x = b - fb * (b - a) / (fb - fa)
            if not a < x < b:
                x = 0.5 * (a + b)
        r = g(x) - e
    return xl, xu


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
