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
rule's g keeps the terms of its last few calls, and the rules pay those
of the x ``solve_level_sum`` returns as the prizes, with no further walk.

A solve replays plain bisection on [0, E]: the same midpoints, the same
accept test |g(x) - E| <= tol, the same iteration count and the same
failure.  (Once no float lies between lo and hi, every later step repeats
the last, so the loop stops there.)  It only skips g at midpoints whose
side of the root is known, so its answer is plain bisection's midpoint,
bit for bit.  On the benchmark's
``tables`` traffic it costs about 2.6 level sums, where plain bisection
costs 33.

1. Predicted ends.  Each level rule sets ``g.estimate = (x, slope)``, read
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
2. Evaluated ends.  Without an estimate, when a check fails, or when
   max_iter runs out first, the same loop runs again with ends that are
   evaluated.  Its first probe is the bisection's own first midpoint E/2,
   so a solve that bisection ends there costs one level sum.  From it, a
   few Illinois (false-position) steps from the anchors (0, -E) and the
   probe, or E when the root lies above it, look for a tight bracket
   xl < root < xu whose ends clear the band, g(xl) - E < -2 tol and
   g(xu) - E > 2 tol.  The first probe inside the band ends the search,
   and two more probes step out 3 tol / slope around the root it points
   at, by the secant's slope.

Both rest on one premise: fl(g), the level sum as rounded, may decrease
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
# false-position probes that look for a tight bracket when there is no estimate
_PROBES = 10
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
) -> float:
    """Solve g(x) = E for x by bisection on [0, E], where g is the sum of n
    level functions, the first of them the identity.  The bisection calls g
    only between two bracket ends.  When g has ``g.estimate``, a near root
    and g's slope there, the ends lie 2 tol / slope either side of it, not
    evaluated, and the midpoints taken beyond them are certified once one
    is accepted.  Without it, or when a certificate fails, ``_bracket``
    evaluates the ends from E/2."""
    if n < 1:
        raise ValueError("need at least one competitor")
    if endowment < 0:
        raise ValueError("endowment must be >= 0")
    if endowment == 0:
        return 0.0
    tol = cfg.residual_tol * max(1.0, endowment)
    band = 2.0 * tol
    steep = n <= cfg.residual_tol * 2.0 ** 51  # g' >= 1 certifies: the sum rounds by < tol / 4
    guess, slope = getattr(g, "estimate", None) or (math.nan, 1.0)
    w = _Z * tol / max(1.0, slope)
    xl, xu, known = guess - w, guess + w, (-math.inf, math.inf)
    predicted = 0.0 < guess <= endowment  # not without an estimate, nor for a NaN
    while True:  # twice at most: the second time from E/2
        if not predicted:
            x = 0.5 * endowment  # the bisection's first midpoint
            r = g(x) - endowment
            if abs(r) <= tol:
                return x
            xl, xu = known = _bracket(g, endowment, tol, x, r)
        # every p <= low_ok is low and every p >= high_ok high; low and high are
        # the last midpoints taken as such without a call of g
        (low_ok, high_ok), low, high = known, -math.inf, math.inf
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
        if not predicted:  # evaluated ends certify every skip: bisection's own end
            r = g(x) - endowment
            if abs(r) <= tol:
                return x
            raise SolverFailure(
                f"bisection did not reach residual {tol:g} within {cfg.max_iter} "
                f"iterations (last residual {r:g})"
            )
        predicted = False  # a certificate failed, or the loop ended without an answer


def _bracket(g: Callable[[float], float], e: float, tol: float,
             x: float, r: float) -> tuple[float, float]:
    """From the probe (x, r) = (x, g(x) - E) and the anchors (0, -E) and,
    when the root lies above x, (E, g(E) - E), probe g by Illinois false
    position for xl < xu with g(xl) - E < -2 tol and g(xu) - E > 2 tol,
    each an evaluated probe; an end no probe clears stays infinite.  The
    first probe inside that band ends the search, and the bracket steps
    out to 3 tol / slope either side of the root the probe points at:
    1.5 times the width of the window |g - E| <= tol.  The slope is the
    secant's from the last probe, at least 1, as g' >= 1."""
    band = 2.0 * tol
    xl, xu = -math.inf, math.inf
    a, fa, b, fb = 0.0, -e, e, math.nan  # g(0) = 0: no call; g(E): not called yet
    x0, r0 = a, fa
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
        else:  # inside the band, or NaN
            slope = max(1.0, (r - r0) / (x - x0))  # g' >= 1: f_1 is the identity
            root, w = x - r / slope, 3.0 * tol / slope
            for y in (root - w, root + w):
                if max(xl, 0.0) < y < min(xu, e):  # no midpoint lies outside (0, E)
                    ry = g(y) - e
                    if ry < -band:
                        xl = y
                    elif ry > band:
                        xu = y
            break
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
