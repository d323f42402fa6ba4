"""Allocation rule families for rank-order competitions.

Implemented families, one immutable record (``core.Record``) each:

* equal division and winner-takes-all,
* winner-takes-surplus with cap ``a``,
* interval rules (equal division outside designated average-endowment
  intervals; inside an interval the top positions saturate at the upper
  endpoint, the tail holds at the lower endpoint, one position transitions),
* single-parametric rules (prizes x, f(x), f(f(x)), ... with x solved so
  the total equals the endowment),
* parametric rules (prizes f_1(x), ..., f_n(x), f_1 the identity),
* geometric rules (prize at position r proportional to lambda^(r-1)),
* proportional rules (prize at position r proportional to a fixed
  non-increasing weight), and
* a handful of named counterexample rules that each violate exactly one
  of the checked axioms.

Each rule owns its allocation (``prizes``, in position order) and its spec
string (``spec``).  The closed-form families' ``prizes`` return a finished
tuple of floats.  ``prize_vector`` applies a rule to a field of ids and an
endowment, in position order, and converts any result that is not a tuple;
``allocate`` keys it by competitor id.  ``parse_rule_spec`` inverts
``spec`` through one table keyed by the spec head.

A level's linear pieces (``_KINDS[kind].segments``) are the one source of
where it bends.  The level rules build one piecewise-linear model of their
level sum g per field size n from them (``_pieces``, ``_iterated_pieces``),
whose piece that holds E gives each solve its root estimate; ``Parametric``
checks f_{k+1} <= f_k on them, exactly, for the levels it lists.  A kind
is its ``walk``: x, f(x), f(f(x)), ... in one loop, with no call per term,
and f(x) its second term.  The level rules sum those lists and pay the one
their solve evaluated at the root, as a tuple.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from collections import deque
from functools import partial
from itertools import accumulate, repeat
from typing import Callable, NamedTuple, Sequence

from .core import (
    MAX_FLOAT,
    Allocation,
    Competition,
    NonFiniteEndowment,
    PrizeAllocError,
    Record,
    endowment_error,
    number_text,
    standard_competition,
)
from .solver import (
    DEFAULT_SOLVER,
    SolverConfig,
    SolverFailure,
    solve_level_sum,
)


class InvalidRuleParams(PrizeAllocError):
    pass


class UnknownCounterexample(PrizeAllocError):
    pass


class InvalidPath(PrizeAllocError, ValueError):
    pass


class ParseError(PrizeAllocError):
    """Rule-spec syntax error, with position and expected tokens."""

    def __init__(self, text: str, position: int, expected: str):
        self.text = text
        self.position = position
        self.expected = expected
        super().__init__(
            f"cannot parse rule spec {text!r} at position {position}: expected {expected}"
        )


def _num(x: float) -> str:
    """The shortest text that parses back to x, without a trailing '.0'."""
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def _number(text: str, token: str, at: int, expected: str) -> float:
    try:
        return float(token) + 0.0  # reads -0 as 0
    except ValueError:
        raise ParseError(text, at, expected) from None


# ---------------------------------------------------------------------------
# Monotone generator functions


class MonotoneFn(Record):
    """A continuous, non-decreasing function with 0 <= f(x) <= x on x >= 0.

    Either a named builtin (linear, shift, cap; the identity and zero are
    linear with slope 1 and 0) or a piecewise-linear curve given by
    breakpoints.  Piecewise curves start at (0, 0) and extrapolate the final
    segment's slope, which must lie in [0, 1] so that f(x) <= x keeps
    holding beyond the last breakpoint.
    """

    kind: str
    param: float = 0.0
    points: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        entry = _KINDS.get(self.kind)
        if entry is None:
            raise InvalidRuleParams(f"unknown function kind: {self.kind!r}")
        try:  # a float, so that every level pays floats
            object.__setattr__(self, "param", float(self.param))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidRuleParams(f"{self.kind} parameter: {exc}") from None
        problem = entry.check(self)
        if problem:
            raise InvalidRuleParams(problem)
        # not a field: eq, hash and repr see only kind, param and points
        object.__setattr__(self, "walk", partial(entry.walk, *entry.args(self)))

    # -- constructors

    @staticmethod
    def identity() -> "MonotoneFn":
        return MonotoneFn("linear", param=1.0)

    @staticmethod
    def zero() -> "MonotoneFn":
        return MonotoneFn("linear", param=0.0)

    @staticmethod
    def linear(slope: float) -> "MonotoneFn":
        return MonotoneFn("linear", param=slope)

    @staticmethod
    def shift(c: float) -> "MonotoneFn":
        """max(0, x - c)."""
        return MonotoneFn("shift", param=c)

    @staticmethod
    def cap(a: float) -> "MonotoneFn":
        """min(a, x)."""
        return MonotoneFn("cap", param=a)

    @staticmethod
    def piecewise(points: Sequence[tuple[float, float]]) -> "MonotoneFn":
        return MonotoneFn("pwl", points=tuple((float(x), float(y)) for x, y in points))

    def __call__(self, x: float) -> float:
        return self.walk(x, 2)[1]  # f(x): the second term of a walk from x

    def spec(self) -> str:
        """The text after ``sp:`` that parses back to this function."""
        return _KINDS[self.kind].spec(self)


class _Kind(NamedTuple):
    """One MonotoneFn kind, which is its walk: ``args``, which does a
    function's per-curve work once, at construction, and returns what its
    walk is bound to, ``walk``, a module-level function (so rules pickle)
    that takes those arguments, then x and n >= 1, and lists x, f(x),
    f(f(x)), ... to n terms in one loop, bit for bit
    ``list(iterates(f, x, n))``, its parameter check (a message, or None
    when the parameters are valid), its spec text, its linear pieces from
    x = 0 as (x, f(x), slope) where each starts (one may be empty or start
    at inf: shift=0, cap=inf) and, for kinds the spec grammar names, the
    parser of that text's argument."""

    args: Callable[[MonotoneFn], tuple]
    walk: Callable[..., list[float]]
    check: Callable[[MonotoneFn], str | None]
    spec: Callable[[MonotoneFn], str]
    segments: Callable[[MonotoneFn], list[tuple[float, float, float]]]
    parse: Callable[[str, str, int], MonotoneFn] | None = None


def _pwl_problem(f: MonotoneFn) -> str | None:
    pts = f.points
    if not pts:
        return "piecewise curve needs at least one breakpoint"
    if pts[0] != (0.0, 0.0):
        return f"piecewise curve must start at (0, 0), got {pts[0]}"
    if not all(math.isfinite(v) for pt in pts for v in pt):
        return f"breakpoints must be finite, got {pts}"
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x1 <= x0:
            return "breakpoint x-coordinates must be strictly increasing"
        if y1 < y0:
            return "breakpoint values must be non-decreasing"
    for x, y in pts:
        if not 0.0 <= y <= x:
            return f"need 0 <= f(x) <= x at breakpoints, violated at {(x, y)}"
    slope = (pts[-1][1] - pts[-2][1]) / (pts[-1][0] - pts[-2][0]) if len(pts) >= 2 else 0.0
    if not 0.0 <= slope <= 1.0:
        return f"final segment slope must be in [0, 1], got {slope}"
    return None


def _walk_linear(s: float, x: float, n: int) -> list[float]:
    walked = [x]
    for _ in range(n - 1):
        x = x * s  # s * x, bit for bit
        walked.append(x)
    return walked


def _walk_shift(c: float, x: float, n: int) -> list[float]:
    walked = [x]
    for k in range(1, n):
        if not x > c:  # max(0, x - c) is 0.0, the fixed point, to the end
            return walked + [0.0] * (n - k)
        x -= c
        walked.append(x)
    return walked


def _walk_cap(c: float, x: float, n: int) -> list[float]:
    return [x] * n if x < c else [x] + [c] * (n - 1)  # min(c, x), bit for bit


def _pwl_args(f: MonotoneFn) -> tuple[tuple, tuple]:
    """A curve's walk arguments, worked out once: the upper x's and,
    indexed by them, (x0, y0, rise, run) per segment, with the final slope
    (0.0 for a single breakpoint) as a segment with run 1.0, an exact
    divisor, so ``segs[0]`` starts at the first breakpoint; each value is
    y0 + (y1 - y0) * (x - x0) / (x1 - x0) between breakpoints and
    y1 + slope * (x - x1) beyond, bit for bit; only where
    (y1 - y0) * (x - x0) overflows is the quotient taken first."""
    pts = f.points
    segs = [(x0, y0, y1 - y0, x1 - x0) for (x0, y0), (x1, y1) in zip(pts, pts[1:])]
    segs.append((*pts[-1], segs[-1][2] / segs[-1][3] if segs else 0.0, 1.0))
    return tuple(x for x, _ in pts[1:]), tuple(segs)


def _walk_pwl(uppers: tuple[float, ...], segs: tuple[tuple[float, float, float, float], ...],
              x: float, n: int) -> list[float]:
    """x, f(x), f(f(x)), ... to n terms, to a fixed point: once f(x) is x
    bit for bit (the same sign of zero; NaN never), the rest repeat it.
    From one ``bisect_left``, the walk stays on a segment while x does.
    The curve starts at (0, 0), with a y of either sign, ``segs[0][1]``."""
    walked, rest = [x], n - 1
    while rest:
        if x <= 0.0 or not uppers:  # a single breakpoint is flat beyond it
            # the start's zero, fixed only at x of its sign; 0.0 below the start
            y = float(segs[0][1]) if x >= 0.0 else 0.0
            if y == x and math.copysign(1.0, y) == math.copysign(1.0, x):
                return walked + [y] * rest
            walked.append(y)
            x, rest = y, rest - 1
            continue
        i = bisect_left(uppers, x)  # x on (floor, top]; NaN on none: one step
        x0, y0, rise, run = segs[i]
        floor, top = uppers[i - 1] if i else 0.0, uppers[i] if i < len(uppers) else math.inf
        while rest:
            lift = rise * (x - x0)
            y = (y0 + rise / run * (x - x0) if lift == math.inf and x < math.inf
                 else y0 + lift / run)  # where lift overflowed above ~1e154, divide first
            if y == x:  # x > 0 here: no sign of zero to tell apart
                return walked + [y] * rest
            walked.append(y)
            x, rest = y, rest - 1
            if not floor < x <= top:
                break
    return walked


def _parse_pwl(text: str, arg: str, at: int) -> MonotoneFn:
    points = []
    for part in arg.split(","):
        xy = part.split(":")
        if len(xy) != 2:
            raise ParseError(text, at, "'<x>:<y>' breakpoint")
        x = _number(text, xy[0], at, "a number")
        y = _number(text, xy[1], at + len(xy[0]) + 1, "a number")
        points.append((x, y))
        at += len(part) + 1
    return MonotoneFn.piecewise(points)


def _one_param(kind: str, expected: str):
    def parse(text: str, arg: str, at: int) -> MonotoneFn:
        return MonotoneFn(kind, param=_number(text, arg, at, expected))
    return parse


def _offset_problem(f: MonotoneFn) -> str | None:
    # `not >=` also rejects NaN; an infinite shift or cap is legal
    return None if f.param >= 0 else f"{f.kind} parameter must be >= 0, got {f.param}"


_KINDS: dict[str, _Kind] = {
    "linear": _Kind(lambda f: (f.param,), _walk_linear,
                    lambda f: None if 0.0 <= f.param <= 1.0
                    else f"linear slope must be in [0, 1], got {f.param}",
                    lambda f: f"linear={_num(f.param)}", lambda f: [(0.0, 0.0, f.param)],
                    _one_param("linear", "a slope in [0, 1]")),
    "shift": _Kind(lambda f: (f.param,), _walk_shift, _offset_problem,
                   lambda f: f"shift={_num(f.param)}",
                   lambda f: [(0.0, 0.0, 0.0), (f.param, 0.0, 1.0)],
                   _one_param("shift", "a shift >= 0")),
    "cap": _Kind(lambda f: (f.param,), _walk_cap, _offset_problem,
                 lambda f: f"cap={_num(f.param)}",
                 lambda f: [(0.0, 0.0, 1.0), (f.param, f.param, 0.0)],
                 _one_param("cap", "a cap >= 0")),
    "pwl": _Kind(_pwl_args, _walk_pwl, _pwl_problem,
                 lambda f: "pwl=" + ",".join(f"{_num(x)}:{_num(y)}" for x, y in f.points),
                 lambda f: [(x0, y0, (y1 - y0) / (x1 - x0))  # a single point is flat
                            for (x0, y0), (x1, y1) in zip(f.points, f.points[1:])]
                 or [(0.0, 0.0, 0.0)],
                 _parse_pwl),
}


# ---------------------------------------------------------------------------
# Interval lists


class IntervalList(Record):
    """Disjoint open intervals (a_k, b_k), sorted ascending.

    Endpoints may coincide (b_k = a_{k+1}); only the last upper endpoint may
    be infinite.  An empty list degenerates the interval rule to equal
    division.  ``uppers``, the upper endpoints in order, which
    ``interval_locate`` bisects, and ``units``, each b in units of the finer
    binary denominator of its a and b, are no fields.
    """

    pairs: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        for a, b in self.pairs:
            if a < 0:
                raise InvalidRuleParams(f"interval lower endpoint must be >= 0, got {a}")
            if not a < b:
                raise InvalidRuleParams(f"need a < b in each interval, got ({a}, {b})")
        for (a0, b0), (a1, b1) in zip(self.pairs, self.pairs[1:]):
            if b0 == math.inf or b0 > a1:
                raise InvalidRuleParams(
                    f"intervals must be disjoint and sorted: ({a0}, {b0}) vs ({a1}, {b1})"
                )
        object.__setattr__(self, "uppers", tuple([b for _, b in self.pairs]))
        object.__setattr__(self, "units", tuple([_units(a, b) for a, b in self.pairs]))

    @staticmethod
    def of(*pairs: tuple[float, float]) -> "IntervalList":
        return IntervalList(tuple((float(a), float(b)) for a, b in pairs))


def _units(a: float, b: float) -> float:
    """b in units of 1/q, q the larger binary denominator of a and b."""
    if b == math.inf:
        return math.inf
    (_, qa), (pb, qb) = float(a).as_integer_ratio(), float(b).as_integer_ratio()
    return pb * max(qa // qb, 1)


def interval_locate(intervals: IntervalList, avg: float) -> int | None:
    """Index of the interval whose closure contains avg, or None.

    Intervals are disjoint open sets, so avg can lie in the closure of at
    most two of them only via a shared endpoint; the first match in sorted
    order is returned (the allocation formula agrees on shared endpoints).
    Every interval before the first whose upper endpoint is at least avg
    ends below avg, and every one after it starts at or above that
    endpoint: it is the only candidate.  A NaN avg lies in none.
    """
    idx = bisect_left(intervals.uppers, avg)
    if idx < len(intervals.uppers) and intervals.pairs[idx][0] <= avg:
        return idx
    return None


def unit_steps(count: int) -> IntervalList:
    """Intervals (k-1, k) for k = 1..count: dollar-step allocation."""
    return IntervalList.of(*((k - 1.0, float(k)) for k in range(1, count + 1)))


# ---------------------------------------------------------------------------
# Rule families


Prizes = Sequence[float]


class RuleSpec:
    """Base of the rule families.  Each family defines
    ``prizes(ids, E, cfg)``, the prizes it pays the field ``ids`` (ids in
    position order) out of the endowment E, in position order: a tuple of
    floats, or any other sequence of numbers, and ``spec()``, the rule's text
    in the spec language.  ``designated`` lists the competitor ids whose
    identity, not only their position, the rule reads."""

    designated: tuple[str, ...] = ()


def _equal(n: int, e: float) -> Prizes:
    share = e / n  # a Fraction for a Fraction E, else already a float
    return tuple([share if type(share) is float else float(share)] * n)


def _winner(n: int, e: float) -> Prizes:
    prizes = [0.0] * n
    prizes[0] = float(e)  # a tuple from prizes holds floats, also for an int E
    return tuple(prizes)


class ED(RuleSpec, Record):
    def __init__(self) -> None:  # no fields: ED() costs no more than a dataclass's
        pass

    def prizes(self, ids, e, cfg):
        return _equal(len(ids), e)

    def spec(self):
        return "ed"


class WTA(RuleSpec, Record):
    def __init__(self) -> None:  # no fields: WTA() costs no more than a dataclass's
        pass

    def prizes(self, ids, e, cfg):
        return _winner(len(ids), e)

    def spec(self):
        return "wta"


class WTS(RuleSpec, Record):
    """Everyone receives cap ``a`` once E >= n*a, the winner also takes the
    surplus; below n*a the endowment is divided equally."""

    a: float

    def __post_init__(self) -> None:
        if not self.a >= 0:  # also rejects NaN
            raise InvalidRuleParams(f"WTS cap must be >= 0 or inf, got {self.a}")

    def prizes(self, ids, e, cfg):
        n, a = len(ids), float(self.a)  # an int cap still pays floats
        if e >= n * a:  # never for a = inf
            return tuple([e - (n - 1) * a] + [a] * (n - 1))
        return _equal(n, e)

    def spec(self):
        return f"wts:a={_num(self.a)}"


def _mul(count: int, value: float) -> float:
    # 0 * inf must read as 0 in the interval formula bounds.
    return 0.0 if count == 0 else count * value


def _interval_prize(n: int, e: float, rank: int, a: float, b: float) -> float:
    lo1, hi1 = n * a, (n - rank + 1) * a + _mul(rank - 1, b)
    if lo1 <= e <= hi1:
        return a
    hi2 = _mul(n - rank, a) + _mul(rank, b)
    if hi1 <= e <= hi2:
        return e - (n - rank) * a - _mul(rank - 1, b)
    if hi2 <= e <= _mul(n, b):
        return b
    return float(e / n)  # where n * a or n * b rounds past E; a Fraction E pays floats too


class Interval(RuleSpec, Record):
    intervals: IntervalList

    def prizes(self, ids, e, cfg):
        n = len(ids)
        idx = interval_locate(self.intervals, e / n)
        if idx is None:
            return _equal(n, e)
        a, b = map(float, self.intervals.pairs[idx])  # int endpoints still pay floats
        # Rank r pays a up to the bound H(r) = (n - r + 1) a + (r - 1) b, b from
        # H(r + 1) on, and the remainder between.  When n b is below 2**53
        # units of 1/q, q the larger denominator of a and b, every bound is a
        # whole number of them, so exact, and they rise with r: one bisection
        # finds the rank k with H(k) < E <= H(k + 1), and the vector is three runs.
        if n * self.intervals.units[idx] >= 2 ** 53:
            return tuple([_interval_prize(n, e, r, a, b) for r in range(1, n + 1)])
        if not n * a <= e <= n * b:  # where n * a or n * b rounds past E
            return (float(e / n),) * n
        k = bisect_left(range(1, n + 2), e, key=lambda r: (n - r + 1) * a + (r - 1) * b)
        head = [b] * (k - 1) + [e - (n - k) * a - (k - 1) * b] if k else []  # k = 0: E = n a
        return tuple(head + [a] * (n - k))

    def spec(self):
        return "interval:" + ";".join(f"[{_num(a)},{_num(b)}]" for a, b in self.intervals.pairs)


def _pieces(fns: Sequence[MonotoneFn]) -> tuple[list[float], ...]:
    """g(x) = x + the sum of fns in linear pieces: where each starts, g there
    and g's slope on it."""
    slope, kinks = 1.0, []
    for f in fns:
        segs = _KINDS[f.kind].segments(f)
        slope += segs[0][2]
        kinks += [(x, s1 - s0) for (_, _, s0), (x, _, s1) in zip(segs, segs[1:])]
    xs, gs, slopes = [0.0], [0.0], [slope]
    for c, step in sorted(kinks):
        gs.append(gs[-1] + slopes[-1] * (c - xs[-1]))
        xs.append(c)
        slopes.append(slopes[-1] + step)
    return xs, gs, slopes


def _iterated_pieces(f: MonotoneFn, n: int) -> tuple[list[float], ...] | None:
    """g(x) = x + f(x) + f(f(x)) + ..., n terms, in pieces as ``_pieces``.
    g bends where an iterate f^k(x), k <= n - 2, meets the start b of a
    piece of f: up b's chain b, f^-1(b), f^-1(f^-1(b)), ..., where g is the
    chain's sum above b plus b's first iterates.  A chain ends where the
    next preimage starts a piece (its own chain goes on) or does not exist.
    Each b costs up to 2 n steps, so an f of more than 4 bends gets None."""
    segs = _KINDS[f.kind].segments(f)
    if len(segs) > 5:
        return None
    values = [y for _, y, _ in segs]
    points = {0.0: 0.0}
    for b, _, _ in segs[1:]:
        ahead = list(accumulate(f.walk(b, n)))  # the first 1, 2, ... iterates' sums
        x, above = b, 0.0
        for terms in range(n, 1, -1):
            points[x] = above + ahead[terms - 1]
            j = bisect_left(values, x)  # x lies on piece j - 1, or starts piece j
            x0, y0, slope = segs[j - 1]
            if j < len(values) and values[j] == x or not slope > 0.0:
                break
            x = x0 + (x - y0) / slope
            above += x
    points = {x: g for x, g in points.items() if g < math.inf}  # not where g overflows
    far = 2.0 * max(points) + 1.0  # beyond the last bend, one more point gives g's slope
    points[far] = sum(f.walk(far, n))
    xs = sorted(points)
    gs = [points[x] for x in xs]
    slopes = [(g1 - g0) / (x1 - x0) for x0, x1, g0, g1 in zip(xs, xs[1:], gs, gs[1:])]
    return xs, gs, slopes + slopes[-1:]


def _estimate(pieces, e: float, cfg: SolverConfig) -> tuple[float, float] | None:
    """The ``estimate`` for ``solve_level_sum``, given pieces, or None
    without them: the root of g(x) = E on the piece that holds it, and g's
    slope there.  Where E lies within 2 tol of a bend, the solver's bracket,
    2 tol / slope either side of the root, reaches past it: the estimate
    hands over the smaller slope of the two pieces, whose wider ends clear
    the band on both sides."""
    if not pieces:
        return None
    xs, gs, slopes = pieces
    i = bisect_left(gs, e) - 1  # gs[0] = g(0) = 0 < E
    g, slope = gs[i], slopes[i]
    band = 2.0 * cfg.residual_tol * (e if e > 1.0 else 1.0)
    if i > 0 and e - g <= band:  # the bend at gs[i]
        slope = min(slope, slopes[i - 1])
    if e <= gs[-1] and gs[i + 1] - e <= band:  # the bend at gs[i + 1]
        slope = min(slope, slopes[i + 1])
    return xs[i] + (e - g) / slopes[i], slope


class _LevelRule(RuleSpec):
    """A rule that pays its n levels at the x where they sum to E.  Each
    family gives ``_model(n)``, the pieces of their sum, or None, kept per n
    in ``_by_n``, and ``_walk(x, n)``, the list of its n levels at x in
    position order, x itself first; neither is a field.  The level sum the
    solver calls keeps the levels of its last three calls: the solver
    evaluates the root, then at most two certificates, so the kept levels
    that start at the root are the prizes, without a second walk."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_n", {})

    def prizes(self, ids, e, cfg):
        n = len(ids)
        if n not in self._by_n:
            self._by_n[n] = self._model(n)
        walk, kept = self._walk, deque(maxlen=3)

        def level_sum(x):
            kept.append(levels := walk(x, n))
            return sum(levels)
        x = solve_level_sum(level_sum, n, e, cfg, estimate=_estimate(self._by_n[n], e, cfg))
        for levels in kept:
            if levels[0] is x:
                return tuple(levels)
        return tuple(walk(x, n))  # E = 0 evaluates none


class SingleParametric(_LevelRule, Record):
    f: MonotoneFn

    def __post_init__(self) -> None:
        object.__setattr__(self, "_walk", self.f.walk)
        super().__post_init__()

    def _model(self, n):
        return _iterated_pieces(self.f, n)

    def spec(self):
        return "sp:arithmetic" if self == arithmetic_rule() else "sp:" + self.f.spec()


class Parametric(_LevelRule, Record):
    """Explicit prefix of level functions, lazily extensible by a generator.

    ``extend(k)`` supplies the function for position k beyond the prefix.
    f_1 must be the identity and f_{k+1} <= f_k pointwise, which is checked,
    exactly, for the levels in ``fs``, not for those ``extend`` supplies.
    The rule's spec is ``param:<name>``; a rule without a name has none.
    """

    fs: tuple[MonotoneFn, ...] = ()
    extend: Callable[[int], MonotoneFn] | None = None
    name: str = ""
    _levels = ()  # not a field: f_1, f_2, ... to the largest n seen (_walk: their values)

    def __post_init__(self) -> None:
        if self.fn(1) != MonotoneFn.identity():
            raise InvalidRuleParams("first level function must be the identity")
        # f_hi - f_lo is linear between the bends of both levels and beyond the last:
        # >= 0 (within 1e-12) at each bend, and final slopes that compare exactly,
        # as a slope one ulp higher crosses at a large enough x, keep it >= 0
        for f_hi, f_lo in zip(self.fs, self.fs[1:]):
            hi, lo = ([seg for seg in _KINDS[f.kind].segments(f) if seg[0] < math.inf]
                      for f in (f_hi, f_lo))
            if lo[-1][2] > hi[-1][2] or any(f_lo(x) > f_hi(x) + 1e-12 for x, _, _ in hi + lo):
                raise InvalidRuleParams("level functions must be pointwise non-increasing in k")
        super().__post_init__()

    def fn(self, k: int) -> MonotoneFn:
        if k <= len(self.fs):
            return self.fs[k - 1]
        if self.extend is not None:
            return self.extend(k)
        raise InvalidRuleParams(
            f"rule defines {len(self.fs)} level functions, position {k} requested"
        )

    def _model(self, n):
        levels = self._levels
        levels += tuple(self.fn(k) for k in range(len(levels) + 1, n + 1))
        object.__setattr__(self, "_levels", levels)
        shifts = tuple(f.param for f in levels[1:] if f.kind == "shift")
        object.__setattr__(self, "_walk", partial(_shift_levels, shifts)
                           if len(shifts) == len(levels) - 1
                           else partial(_levels_at, levels[1:]))
        return _pieces(levels[1:n])

    def spec(self):
        if not self.name:
            raise InvalidRuleParams(
                "a Parametric rule without a name has no spec; name it: Parametric(..., name=...)")
        return f"param:{self.name}"


def _shift_levels(cs: tuple[float, ...], x: float, n: int) -> list[float]:
    """x, then f_k(x) = max(0, x - c) for the first n - 1 of cs, bit for bit."""
    return [x, *[x - c if x > c else 0.0 for c in cs[:n - 1]]]


def _levels_at(fs: tuple[Callable[[float], float], ...], x: float, n: int) -> list[float]:
    """x (f_1, the identity: 1.0 * x is x), then the first n - 1 of fs at x."""
    return [x, *[f(x) for f in fs[:n - 1]]]


class Geometric(RuleSpec, Record):
    """Prize at position r is lambda^(r-1) / sum_k lambda^(k-1) times E.

    lambda > 1 breaks order preservation and is admitted only behind the
    explicit ``allow_above_one`` flag (used to exhibit that counterexample).
    """

    lam: float
    allow_above_one: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.lam < math.inf:  # also rejects NaN
            raise InvalidRuleParams(f"geometric ratio must be finite and >= 0, got {self.lam}")
        if self.lam > 1 and not self.allow_above_one:
            raise InvalidRuleParams(
                f"geometric ratio must be in [0, 1], got {self.lam} "
                "(pass allow_above_one=True to override)"
            )
        # not a field: {n: the weights divided by their sum}
        object.__setattr__(self, "_shares", {})

    def prizes(self, ids, e, cfg):
        n = len(ids)
        shares = self._shares.get(n)
        if shares is None:
            weights = list(accumulate(repeat(self.lam, n - 1), operator.mul, initial=1.0))
            total = sum(weights)
            shares = self._shares[n] = [w / total for w in weights]
        return tuple([w * e for w in shares])

    def spec(self):
        return f"geometric:lambda={_num(self.lam)}"


class Proportional(RuleSpec, Record):
    """Prize at position r proportional to the fixed weight lams[r-1]."""

    lams: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.lams or not 0 < self.lams[0] < math.inf:  # also rejects NaN
            raise InvalidRuleParams("first proportional weight must be finite and > 0")
        for lo, hi in zip(self.lams[1:], self.lams):
            if not 0 <= lo <= hi:
                raise InvalidRuleParams(
                    f"proportional weights must be non-negative and non-increasing: {self.lams}"
                )

    def prizes(self, ids, e, cfg):
        n = len(ids)
        if len(self.lams) < n:
            raise InvalidRuleParams(
                f"proportional rule defines {len(self.lams)} weights, "
                f"competition has {n} competitors"
            )
        weights = self.lams[:n]
        total = sum(weights)
        if total == math.inf:  # finite weights, too large to add: divide by the largest
            weights = [w / weights[0] for w in weights]
            total = sum(weights)
        return tuple([w / total * e for w in weights])

    def spec(self):
        return "proportional:" + ",".join(_num(v) for v in self.lams)


def _late_dollar_vector(n: int, e: float) -> list[float]:
    """One continuous dollar to position 1; then positions 2,1; then 3,2,1;
    up to n..1; afterwards repeated rounds lowest-to-highest.  The staircase
    hands out its whole dollars in one batch, by the arithmetic of a step at
    a time: rem - 1.0 is exact below 2**53, and once it rounds back to rem,
    every later step hands out a whole dollar."""
    steps, whole, rem = n * (n + 1) // 2, 0, float(e)
    while rem >= 1.0 and whole < steps:
        if rem - 1.0 == rem:
            whole = steps
        elif rem < 2.0 ** 53:
            dollars = min(steps - whole, int(rem))
            whole, rem = whole + dollars, rem - dollars
        else:
            whole, rem = whole + 1, rem - 1.0
    r = (math.isqrt(8 * whole + 1) - 1) // 2  # whole rounds, then d dollars of round r + 1
    d = whole - r * (r + 1) // 2
    # positions 0..r - d hold r - i, up to r one dollar more, the rest nothing
    v = [*map(float, range(r, d - 1, -1)[:n]), *map(float, range(d, 0, -1))]
    v += [0.0] * (n - 1 - r)
    if whole < steps:
        if rem > 0:  # the fraction goes to the next position of the staircase
            v[r - d] += rem
        return v
    # whole repeated rounds can be batched: each adds one dollar per position
    rounds = int(rem // n)
    if rounds:
        v = [p + rounds for p in v]
        rem -= rounds * n
    for pos in range(n, 0, -1):
        amt = min(1.0, rem)
        v[pos - 1] += amt
        rem -= amt
        if rem <= 0:
            break
    return v


def _pair_favoritism(rule: "Counterexample", ids: tuple[str, ...], e: float) -> Prizes:
    """Split evenly when the designated i and j finish first and second."""
    if ids[:2] == (rule.i, rule.j):
        return tuple([e / 2.0, e / 2.0] + [0.0] * (len(ids) - 2))
    return _winner(len(ids), e)


# name -> prizes(rule, ids, E)
_COUNTEREXAMPLES: dict[str, Callable[["Counterexample", tuple[str, ...], float], Prizes]] = {
    "lowest-takes-all": lambda rule, ids, e: tuple([0.0] * (len(ids) - 1) + [float(e)]),
    "threshold-switch": lambda rule, ids, e: (_equal if e <= 1.0 else _winner)(len(ids), e),
    "pair-favoritism": _pair_favoritism,
    "late-dollar": lambda rule, ids, e: tuple(_late_dollar_vector(len(ids), e)),
    "ed2wta3": lambda rule, ids, e: (_equal if len(ids) <= 2 else _winner)(len(ids), e),
}
COUNTEREXAMPLE_NAMES = tuple(_COUNTEREXAMPLES)


class Counterexample(RuleSpec, Record):
    """Named rules that each violate exactly one checked axiom.

    pair-favoritism requires the two designated competitor ids i and j.
    """

    name: str
    i: str | None = None
    j: str | None = None

    def __post_init__(self) -> None:
        if self.name not in _COUNTEREXAMPLES:
            raise UnknownCounterexample(
                f"unknown counterexample rule {self.name!r}; known: {COUNTEREXAMPLE_NAMES}"
            )
        if self.name == "pair-favoritism" and (self.i is None or self.j is None):
            raise InvalidRuleParams("pair-favoritism needs designated ids i and j")
        if self.name == "pair-favoritism" and self.i == self.j:
            raise InvalidRuleParams(
                f"pair-favoritism needs two distinct designated ids, got i={self.i!r}, "
                f"j={self.j!r}")

    @property
    def designated(self) -> tuple[str, ...]:
        return (self.i, self.j) if self.name == "pair-favoritism" else ()

    def prizes(self, ids, e, cfg):
        return _COUNTEREXAMPLES[self.name](self, ids, e)

    def spec(self):
        return f"cx:{self.name}" + (f"={self.i},{self.j}" if self.designated else "")


def arithmetic_rule() -> SingleParametric:
    """Single-parametric rule with f(x) = max(0, x - 1)."""
    return SingleParametric(MonotoneFn.shift(1.0))


def _hyperarithmetic_fn(k: int) -> MonotoneFn:
    return MonotoneFn.identity() if k == 1 else MonotoneFn.shift(float(k))


def hyperarithmetic_rule() -> Parametric:
    """Parametric rule with f_1(x) = x and f_k(x) = max(0, x - k) for k >= 2."""
    return Parametric(fs=(MonotoneFn.identity(),), extend=_hyperarithmetic_fn,
                      name="hyperarithmetic")


def step_rule() -> Interval:
    """Interval rule with intervals (k-1, k), k <= 64: prizes grow one dollar at a time."""
    return Interval(unit_steps(64))


# ---------------------------------------------------------------------------
# Rule-spec language: one parser per head, each the inverse of a ``spec``


def _bare(head: str, rule: RuleSpec):
    def parse(text: str, rest: str, at: int) -> RuleSpec:
        if text != head:
            raise ParseError(text, at, f"no arguments after '{head}'")
        return rule
    return parse


def _keyword(key: str, build: Callable[[float], RuleSpec], expected: str):
    """``<key>=<number>``."""
    def parse(text: str, rest: str, at: int) -> RuleSpec:
        if not rest.startswith(key + "="):
            raise ParseError(text, at, f"'{key}=<value>'")
        return build(_number(text, rest[len(key) + 1:], at + len(key) + 1, expected))
    return parse


def _parse_interval(text: str, rest: str, at: int) -> RuleSpec:
    if not rest:
        raise ParseError(text, at, "at least one '[a,b]' interval")
    pairs = []
    for part in rest.split(";"):
        if not (part.startswith("[") and part.endswith("]")):
            raise ParseError(text, at, "'[a,b]'")
        inner = part[1:-1].split(",")
        if len(inner) != 2:
            raise ParseError(text, at + 1, "two comma-separated endpoints")
        a = _number(text, inner[0], at + 1, "a number")
        b = _number(text, inner[1], at + 2 + len(inner[0]), "a number or 'inf'")
        pairs.append((a, b))
        at += len(part) + 1
    return Interval(IntervalList(tuple(pairs)))


def _parse_proportional(text: str, rest: str, at: int) -> RuleSpec:
    if not rest:
        raise ParseError(text, at, "comma-separated weights")
    weights = []
    for part in rest.split(","):
        weights.append(_number(text, part, at, "a number"))
        at += len(part) + 1
    return Proportional(tuple(weights))


def _parse_sp(text: str, rest: str, at: int) -> RuleSpec:
    if rest == "arithmetic":
        return arithmetic_rule()
    name, eq, arg = rest.partition("=")
    entry = _KINDS.get(name) if eq else None
    if entry is None or entry.parse is None:
        named = ", ".join(f"'{k}='" for k, v in _KINDS.items() if v.parse)
        raise ParseError(text, at, f"'arithmetic', {named}")
    return SingleParametric(entry.parse(text, arg, at + len(name) + 1))


def _parse_param(text: str, rest: str, at: int) -> RuleSpec:
    if rest != "hyperarithmetic":
        raise ParseError(text, at, "'hyperarithmetic'")
    return hyperarithmetic_rule()


def _parse_cx(text: str, rest: str, at: int) -> RuleSpec:
    name, _, args = rest.partition("=")
    if name == "pair-favoritism":
        ids = args.split(",") if args else []
        if len(ids) != 2 or not all(ids):
            raise ParseError(text, at + len(name) + 1, "two comma-separated competitor ids")
        return Counterexample(name, i=ids[0], j=ids[1])
    if args:
        raise ParseError(text, at + len(name), "no '=' arguments for this rule")
    return Counterexample(name)


# head -> parse(text, text after "head:", offset of that text)
_PARSERS: dict[str, Callable[[str, str, int], RuleSpec]] = {
    "ed": _bare("ed", ED()),
    "wta": _bare("wta", WTA()),
    "wts": _keyword("a", WTS, "a number or 'inf'"),
    "interval": _parse_interval,
    "geometric": _keyword("lambda", Geometric, "a number in [0, 1]"),
    "proportional": _parse_proportional,
    "sp": _parse_sp,
    "param": _parse_param,
    "cx": _parse_cx,
}


def parse_rule_spec(text: str) -> RuleSpec:
    """Parse the rule mini-language (the inverse of ``describe``).

    Grammar:
      ed | wta
      wts:a=<value|inf>
      interval:[a,b];[a,b];...          (only the last b may be inf)
      geometric:lambda=<value>
      proportional:<w1>,<w2>,...
      sp:arithmetic | sp:linear=<s> | sp:shift=<c> | sp:cap=<a>
        | sp:pwl=<x>:<y>,<x>:<y>,...
      param:hyperarithmetic
      cx:<name> | cx:pair-favoritism=<i>,<j>
    """
    head, _, rest = text.partition(":")
    parse = _PARSERS.get(head)
    if parse is None:
        raise ParseError(text, 0, "one of " + ", ".join(_PARSERS))
    return parse(text, rest, len(head) + 1)


# ---------------------------------------------------------------------------
# Allocation


def prize_vector(
    rule: RuleSpec, ids: tuple[str, ...], e: float, cfg: SolverConfig = DEFAULT_SOLVER
) -> tuple[float, ...]:
    """The prizes ``rule`` pays the field ``ids`` (ids in position order, assumed
    distinct) out of the endowment ``e``, in position order.

    Raises what ``Competition`` raises for a negative or non-finite endowment,
    and a ``SolverFailure``, an ``InvalidRuleParams`` or, for an int or
    ``Fraction`` endowment beyond the float range, a ``NonFiniteEndowment``
    naming the rule, n and E.  A tuple from ``prizes`` is returned as it is,
    any other result as a tuple of floats.
    """
    if not 0 <= e < math.inf:
        raise endowment_error(e)
    try:
        prizes = rule.prizes(ids, e, cfg)
    except (SolverFailure, InvalidRuleParams, OverflowError) as exc:
        try:
            name = rule.spec()
        except InvalidRuleParams:
            name = f"unnamed {type(rule).__name__} rule"
        # a rule overflows only on converting an E above MAX_FLOAT to a float
        kind = NonFiniteEndowment if isinstance(exc, OverflowError) else type(exc)
        raise kind(f"{name} at n={len(ids)}, E={number_text(e)}: {exc}") from exc
    return prizes if type(prizes) is tuple else tuple([float(p) for p in prizes])


def allocate(
    rule: RuleSpec, competition: Competition, cfg: SolverConfig = DEFAULT_SOLVER
) -> Allocation:
    """``prize_vector`` keyed by competitor id: deterministic, sums to E within tolerance."""
    ids = competition.ranking.by_position
    return Allocation(prizes=dict(zip(ids, prize_vector(rule, ids, competition.endowment, cfg))))


def describe(rule: RuleSpec) -> str:
    """Render a rule in the spec language (inverse of ``parse_rule_spec``)."""
    return rule.spec()


MAX_RANGE_ROWS = 100_000


class PathTrace(Record):
    """Allocations sampled along an increasing endowment grid."""

    samples: tuple[tuple[float, Allocation], ...]

    def endowments(self) -> tuple[float, ...]:
        return tuple(e for e, _ in self.samples)


def path_endowments(e_max: float, step: float | None = None) -> list[float]:
    """E = 0, step, 2*step, ..., E_max, at most MAX_RANGE_ROWS of them."""
    if not 0 <= e_max <= MAX_FLOAT:  # also rejects NaN and an int beyond the float range
        raise InvalidPath(f"E_max must be finite and >= 0, got {number_text(e_max)}")
    if step is None:
        step = 0.01 * max(1.0, e_max)
    if not 0 < step < math.inf:
        raise InvalidPath(f"step must be finite and > 0, got {number_text(step)}")
    endowments = []
    while len(endowments) * step < e_max:
        if len(endowments) == MAX_RANGE_ROWS - 1:  # E_max is still to come
            raise InvalidPath(
                f"path to {e_max} in steps of {step} has more than {MAX_RANGE_ROWS} rows")
        endowments.append(len(endowments) * step)
    endowments.append(e_max)
    return endowments


def trace_path(
    rule: RuleSpec, n: int, e_max: float, step: float | None = None
) -> PathTrace:
    """Allocations at the ``path_endowments`` for a fixed field size."""
    return PathTrace(samples=tuple(
        (e, allocate(rule, standard_competition(n, e))) for e in path_endowments(e_max, step)))
