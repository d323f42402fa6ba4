import math
import pickle
import struct
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from prizealloc.cli import MAX_ALLOCATION_N, bundled_rules
from prizealloc.core import (
    NonFiniteEndowment,
    PrizeAllocError,
    Ranking,
    Competition,
    make_competition,
    number_text,
    standard_competition,
    validate_allocation,
)
from prizealloc.rules import (
    COUNTEREXAMPLE_NAMES,
    ED,
    WTA,
    WTS,
    Counterexample,
    Geometric,
    Interval,
    IntervalList,
    InvalidPath,
    InvalidRuleParams,
    MonotoneFn,
    Parametric,
    Proportional,
    SingleParametric,
    UnknownCounterexample,
    _KINDS,
    allocate,
    arithmetic_rule,
    describe,
    hyperarithmetic_rule,
    parse_rule_spec,
    prize_vector,
    step_rule,
    trace_path,
)
from prizealloc.solver import SolverConfig, SolverFailure, iterate_f, solve_level

from golden import table_rows

TABLE_RULES = {
    "step": step_rule(),
    "wts1": WTS(1.0),
    "arithmetic": arithmetic_rule(),
    "late-dollar": Counterexample("late-dollar"),
    "hyperarithmetic": hyperarithmetic_rule(),
}


def vector(rule, n, endowment):
    comp = standard_competition(n, endowment)
    return allocate(rule, comp).by_position(comp.ranking)


def bits(xs):
    return [struct.pack("<d", x) for x in xs]


def late_dollar_step_loop(n, e):
    """cx:late-dollar one staircase dollar per step, then whole rounds at
    once: the reference the batched staircase must match bit for bit."""
    v = [0.0] * n
    rem = e
    for r in range(1, n + 1):
        for pos in range(r, 0, -1):
            amt = min(1.0, rem)
            v[pos - 1] += amt
            rem -= amt
            if rem <= 0:
                return v
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


# ---------------------------------------------------------------------------
# Golden tables


@pytest.mark.parametrize(
    "name,n,endowment,expected",
    list(table_rows()),
    ids=lambda v: str(v),
)
def test_golden_table_row(name, n, endowment, expected):
    got = vector(TABLE_RULES[name], n, endowment)
    assert got == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# Elementary rules


class TestBasicRules:
    def test_equal_division(self):
        assert vector(ED(), 4, 6.0) == pytest.approx((1.5, 1.5, 1.5, 1.5))

    def test_winner_takes_all(self):
        assert vector(WTA(), 3, 6.0) == (6.0, 0.0, 0.0)

    def test_wts_below_threshold_is_equal_division(self):
        assert vector(WTS(2.0), 3, 4.5) == pytest.approx((1.5, 1.5, 1.5))

    def test_wts_above_threshold_caps_losers(self):
        assert vector(WTS(2.0), 3, 10.0) == pytest.approx((6.0, 2.0, 2.0))

    def test_wts_zero_cap_equals_wta(self):
        for e in (0.0, 0.5, 3.0):
            assert vector(WTS(0.0), 3, e) == vector(WTA(), 3, e)

    def test_wts_infinite_cap_equals_equal_division(self):
        for e in (0.0, 0.5, 3.0):
            assert vector(WTS(math.inf), 3, e) == vector(ED(), 3, e)

    def test_negative_cap_rejected(self):
        with pytest.raises(InvalidRuleParams):
            WTS(-1.0)

    def test_allocation_keyed_by_ranking(self):
        comp = make_competition(["x", "y"], [2, 1], 3.0)
        alloc = allocate(WTA(), comp)
        assert alloc.prizes == {"y": 3.0, "x": 0.0}


# ---------------------------------------------------------------------------
# Interval rules


def cyclic_dollar_oracle(n, endowment):
    """Independent oracle for the unit-step rule: money flows in continuous
    dollars to positions 1, 2, ..., n, 1, 2, ... in turn."""
    v = [0.0] * n
    rem = endowment
    d = 0
    while rem > 0:
        amt = min(1.0, rem)
        v[d % n] += amt
        rem -= amt
        d += 1
    return tuple(v)


class TestIntervalRules:
    def test_outside_intervals_is_equal_division(self):
        rule = Interval(IntervalList.of((1.0, 2.0)))
        assert vector(rule, 2, 5.0) == pytest.approx((2.5, 2.5))

    def test_inside_interval_shape(self):
        # average 1.5 inside (1, 2): top saturates at 2, tail holds at 1
        rule = Interval(IntervalList.of((1.0, 2.0)))
        assert vector(rule, 4, 6.0) == pytest.approx((2.0, 2.0, 1.0, 1.0))

    def test_infinite_upper_endpoint(self):
        rule = Interval(IntervalList.of((1.0, math.inf)))
        # average above 1: everyone holds at 1 except the winner takes the rest
        assert vector(rule, 3, 12.0) == pytest.approx((10.0, 1.0, 1.0))

    def test_empty_interval_list_is_equal_division(self):
        assert vector(Interval(IntervalList()), 3, 4.0) == pytest.approx((4 / 3,) * 3)

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(InvalidRuleParams):
            IntervalList.of((0.0, 2.0), (1.0, 3.0))

    def test_degenerate_interval_rejected(self):
        with pytest.raises(InvalidRuleParams):
            IntervalList.of((1.0, 1.0))

    def test_infinite_endpoint_only_last(self):
        with pytest.raises(InvalidRuleParams):
            IntervalList.of((0.0, math.inf), (5.0, 6.0))

    @given(
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=300)
    def test_unit_steps_match_cyclic_dollar_oracle(self, n, endowment):
        assert vector(step_rule(), n, endowment) == pytest.approx(
            cyclic_dollar_oracle(n, endowment), abs=1e-9
        )

    @given(
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.0, max_value=4.0),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=300)
    def test_clamp_oracle_inside_interval(self, n, a, width, frac):
        # inside (a, b) each prize is E - (n-r)a - (r-1)b clamped to [a, b]
        b = a + width
        endowment = n * a + frac * n * (b - a)
        got = vector(Interval(IntervalList.of((a, b))), n, endowment)
        expected = tuple(
            min(b, max(a, endowment - (n - r) * a - (r - 1) * b))
            for r in range(1, n + 1)
        )
        assert got == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# The interval vector in three runs, against the per-rank formula


def mul_per_rank(count, value):
    return 0.0 if count == 0 else count * value


def interval_prize_per_rank(n, e, rank, a, b):
    """One rank's interval prize by the per-rank formula: a up to its bound,
    then the remainder, then b, and E / n where n a or n b rounds past E."""
    lo1, hi1 = n * a, (n - rank + 1) * a + mul_per_rank(rank - 1, b)
    if lo1 <= e <= hi1:
        return a
    hi2 = mul_per_rank(n - rank, a) + mul_per_rank(rank, b)
    if hi1 <= e <= hi2:
        return e - (n - rank) * a - mul_per_rank(rank - 1, b)
    if hi2 <= e <= mul_per_rank(n, b):
        return b
    return float(e / n)


def locate_by_scan(intervals, avg):
    """The interval whose closure holds avg, by a scan in sorted order."""
    for idx, (a, b) in enumerate(intervals.pairs):
        if a <= avg <= b:
            return idx
        if avg < a:
            break
    return None


def interval_per_rank(intervals, n, e):
    idx = locate_by_scan(intervals, e / n)
    if idx is None:
        share = e / n
        return [share if type(share) is float else float(share)] * n
    a, b = map(float, intervals.pairs[idx])
    return [interval_prize_per_rank(n, e, r, a, b) for r in range(1, n + 1)]


def _dyadic_points(scale):
    return st.integers(min_value=0, max_value=600).map(lambda k: k / 2.0 ** scale)


def _nudged(x, ulps):
    for _ in range(ulps):
        x = math.nextafter(x, math.inf)
    return x


# endpoints: integers, dyadics at one scale or at several, decimals (not
# dyadic), any float, subnormals included, and floats a few ulps apart
ENDPOINTS = st.one_of(
    st.just(st.integers(min_value=0, max_value=40).map(float)),
    st.integers(min_value=1, max_value=12).map(_dyadic_points),
    st.just(st.integers(min_value=1, max_value=12).flatmap(_dyadic_points)),
    st.just(st.integers(min_value=0, max_value=4000).map(lambda k: k / 100)),
    st.just(st.floats(min_value=0.0, max_value=1e4)),
    st.floats(min_value=0.05, max_value=10.0).map(
        lambda base: st.integers(min_value=0, max_value=40).map(lambda k: _nudged(base, k))),
)


@st.composite
def run_intervals(draw):
    """Interval lists with shared or separate endpoints, a first a = -0.0 or
    a last b = inf at times."""
    points = sorted(set(draw(st.lists(draw(ENDPOINTS), min_size=2, max_size=8))))
    assume(len(points) >= 2)
    if draw(st.booleans()):
        pairs = list(zip(points, points[1:]))
    else:
        pairs = list(zip(points[::2], points[1::2]))
    if pairs[0][0] == 0.0 and draw(st.booleans()):
        pairs[0] = (-0.0, pairs[0][1])
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        pairs[-1] = (pairs[-1][0], math.inf)
    return IntervalList(tuple(pairs))


@st.composite
def interval_endowments(draw, intervals, n):
    """E as a float, an int or a Fraction: at n a, at n b, at a rank's bound
    as the per-rank formula computes it, an ulp either side, or anywhere."""
    a, b = draw(st.sampled_from(intervals.pairs))
    top = b if b < math.inf else a + draw(st.floats(min_value=0.5, max_value=50.0))
    r = draw(st.integers(min_value=1, max_value=n + 1))
    e = draw(st.one_of(
        st.sampled_from([n * a, n * top, (n - r + 1) * a + mul_per_rank(r - 1, b)]),
        st.floats(min_value=0.0, max_value=1.2 * n * top),
    ))
    assume(e < math.inf)
    e = max(0.0, math.nextafter(e, draw(st.sampled_from([e, 0.0, math.inf]))))
    as_type = draw(st.sampled_from(["float", "int", "fraction", "fraction+"]))
    if as_type == "int" and e.is_integer():
        return int(e)
    if as_type == "fraction":
        return Fraction(e)
    if as_type == "fraction+":  # strictly between two floats
        return Fraction(e) + Fraction(1, 3 * 2 ** 60)
    return e


@given(st.data(), st.integers(min_value=1, max_value=130))
@settings(max_examples=400, deadline=None)
def test_interval_runs_match_the_per_rank_formula_bit_for_bit(data, n):
    intervals = data.draw(run_intervals())
    e = data.draw(interval_endowments(intervals, n))
    got = prize_vector(Interval(intervals), tuple(range(n)), e)
    assert bits(got) == bits(interval_per_rank(intervals, n, e))


@pytest.mark.parametrize("pairs", [
    ((0.0, 1.0), (1.0, 2.0), (3.0, 64.0)), ((-0.0, 1.0),), ((0.5, 0.75), (2.25, math.inf)),
    ((0.1, 0.3), (0.3, 0.7)), ((5e-324, 1e-300),), ((0.1, _nudged(0.1, 8)),),
], ids=["int", "minus-zero", "dyadic-inf", "decimal", "subnormal", "ulps-apart"])
@pytest.mark.parametrize("n", [1, 2, 5, 38, 106])
def test_interval_runs_match_the_per_rank_formula_at_every_bound(pairs, n):
    """E at every rank's bound of every interval, as a float, an ulp either
    side and as a Fraction, and at n a and n b."""
    intervals = IntervalList(pairs)
    rule, ids = Interval(intervals), tuple(range(n))
    for a, b in pairs:
        bounds = [(n - r + 1) * a + mul_per_rank(r - 1, b) for r in range(1, n + 2)]
        for bound in {*bounds, n * a, mul_per_rank(n, b)} - {math.inf}:
            for e in (bound, math.nextafter(bound, 0.0), math.nextafter(bound, math.inf),
                      Fraction(bound) + Fraction(1, 3 * 2 ** 60)):
                got = prize_vector(rule, ids, e)
                assert bits(got) == bits(interval_per_rank(intervals, n, e)), (n, e)


RUN_CASES_AT_THE_FIELD_CAP = [
    (step_rule().intervals, 63.5), (step_rule().intervals, 64.0), (step_rule().intervals, 0.0),
    (IntervalList(((-0.0, 1.0),)), 0.0), (IntervalList(((-0.0, 1.0),)), 0.5),
    (IntervalList.of((0.25, 0.75), (0.75, math.inf)), 0.75),
    (IntervalList.of((0.1, 0.7),), 0.3),
]


@pytest.mark.parametrize("intervals,avg", RUN_CASES_AT_THE_FIELD_CAP)
def test_interval_runs_match_the_per_rank_formula_at_the_field_cap(intervals, avg):
    n = MAX_ALLOCATION_N
    e = n * avg + 0.375
    got = prize_vector(Interval(intervals), tuple(range(n)), e)
    assert bits(got) == bits(interval_per_rank(intervals, n, e))


# ---------------------------------------------------------------------------
# Level-function rules


class TestMonotoneFn:
    def test_builtins(self):
        assert MonotoneFn.identity()(3.0) == 3.0
        assert MonotoneFn.zero()(3.0) == 0.0
        assert MonotoneFn.linear(0.5)(3.0) == 1.5
        assert MonotoneFn.shift(1.0)(0.5) == 0.0
        assert MonotoneFn.shift(1.0)(2.5) == 1.5
        assert MonotoneFn.cap(2.0)(5.0) == 2.0

    def test_piecewise_interpolation_and_extrapolation(self):
        f = MonotoneFn.piecewise([(0.0, 0.0), (2.0, 1.0), (4.0, 1.0)])
        assert f(1.0) == pytest.approx(0.5)
        assert f(3.0) == pytest.approx(1.0)
        assert f(10.0) == pytest.approx(1.0)  # final slope 0

    def test_piecewise_validation(self):
        with pytest.raises(InvalidRuleParams):
            MonotoneFn.piecewise([(1.0, 0.5)])  # must start at origin
        with pytest.raises(InvalidRuleParams):
            MonotoneFn.piecewise([(0.0, 0.0), (1.0, 2.0)])  # f(x) > x
        with pytest.raises(InvalidRuleParams):
            MonotoneFn.piecewise([(0.0, 0.0), (2.0, 1.0), (1.0, 1.0)])  # x not increasing
        with pytest.raises(InvalidRuleParams):
            MonotoneFn.piecewise([(0.0, 0.0), (2.0, 1.0), (3.0, 0.5)])  # decreasing

    def test_linear_slope_bounds(self):
        with pytest.raises(InvalidRuleParams):
            MonotoneFn.linear(1.5)

    @pytest.mark.parametrize("fn,spec", [(MonotoneFn.identity(), "sp:linear=1"),
                                         (MonotoneFn.zero(), "sp:linear=0")])
    def test_identity_and_zero_specs_round_trip(self, fn, spec):
        rule = SingleParametric(fn)
        assert describe(rule) == spec
        assert parse_rule_spec(spec) == rule


def segment_loop_pwl(pts, x):
    """The piecewise-linear evaluation written as a walk over the segments,
    recomputing each rise, run and the final slope per call; the reference
    the bound evaluator must match bit for bit.  Where the product
    (y1 - y0) * (x - x0) overflows at a finite x, it divides first."""
    if len(pts) == 1 or x <= pts[0][0]:
        return pts[0][1] if x >= pts[0][0] else 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x <= x1:
            if math.isinf((y1 - y0) * (x - x0)) and math.isfinite(x):
                return y0 + (y1 - y0) / (x1 - x0) * (x - x0)
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    (x0, y0), (x1, y1) = pts[-2], pts[-1]
    slope = (y1 - y0) / (x1 - x0)
    return y1 + slope * (x - pts[-1][0])


def same_float(a, b):
    """Equal bit for bit (so 0.0 and -0.0 differ), or both NaN."""
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


@st.composite
def pwl_points(draw):
    """1-6 breakpoints from a (0, 0) or (-0.0, -0.0) start."""
    start = draw(st.sampled_from([0.0, -0.0]))
    points = [(start, start)]
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        x, y = points[-1]
        dx = draw(st.floats(min_value=1e-9, max_value=1e9))
        points.append((x + dx, y + draw(st.floats(min_value=0.0, max_value=1.0)) * dx))
    try:
        return MonotoneFn.piecewise(points).points
    except InvalidRuleParams:  # rounding pushed a slope or a value past x
        assume(False)


@given(
    pts=pwl_points(),
    fracs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=3),
    below=st.floats(max_value=0.0),
    beyond=st.floats(min_value=0.0),
)
@settings(max_examples=400)
def test_piecewise_matches_segment_loop_bit_for_bit(pts, fracs, below, beyond):
    f = MonotoneFn.piecewise(pts)
    xs = [0.0, -0.0, math.inf, -math.inf, math.nan, below, pts[-1][0] + beyond]
    for x, _ in pts:  # at each breakpoint and one float either side
        xs += [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
    for (x0, _), (x1, _) in zip(pts, pts[1:]):
        xs += [x0 + t * (x1 - x0) for t in fracs]
    for x in xs:
        assert same_float(f(x), segment_loop_pwl(pts, x)), (pts, x)


@given(st.floats(min_value=0.0, max_value=1.7e308),
       st.floats(min_value=1e153, max_value=1.7e308))
def test_piecewise_near_the_largest_float_matches_segment_loop(x, x1):
    # (y1 - y0) * (x - x0) overflows from about 1e154 on; the values stay finite
    pts = MonotoneFn.piecewise([(0.0, 0.0), (x1 / 2, x1 / 4), (x1, x1 / 2)]).points
    f = MonotoneFn.piecewise(pts)
    assert math.isfinite(f(x))
    assert same_float(f(x), segment_loop_pwl(pts, x)), (pts, x)


PICKLE_FNS = (MonotoneFn.identity(), MonotoneFn.zero(), MonotoneFn.linear(0.5),
              MonotoneFn.shift(1.0), MonotoneFn.cap(2.0), MonotoneFn.piecewise([(0.0, 0.0)]),
              MonotoneFn.piecewise([(0.0, 0.0), (2.0, 1.0), (4.0, 1.0)]))
PICKLE_IDS = ("q", "p", "c3", "c4", "c5")  # pair-favoritism reads p and q


def test_pickle_examples_cover_every_kind():
    assert {f.kind for f in PICKLE_FNS} == set(_KINDS)


@pytest.mark.parametrize(
    "rule", [SingleParametric(f) for f in PICKLE_FNS] + list(bundled_rules()), ids=describe)
def test_rules_pickle_round_trip(rule):
    back = pickle.loads(pickle.dumps(rule))
    assert back == rule
    for n in (1, 2, 5):
        for e in (0.0, 1.5, 7.0, 40.25):
            assert prize_vector(back, PICKLE_IDS[:n], e) == prize_vector(rule, PICKLE_IDS[:n], e)


@pytest.mark.parametrize("fn", PICKLE_FNS, ids=lambda f: f.spec())
def test_used_single_parametric_pickles(fn):
    """A rule that has walked and built its models pickles with its bound
    walk, and pays what the rule it came from pays."""
    rule = SingleParametric(fn)
    for n in (1, 5, 106):
        prize_vector(rule, tuple(f"c{k}" for k in range(n)), 2.5 * n)
    back = pickle.loads(pickle.dumps(rule))
    assert back == rule and back.f.walk(7.0, 5) == fn.walk(7.0, 5)
    for n in (1, 5, 106):
        ids = tuple(f"c{k}" for k in range(n))
        for e in (0.0, 1.5, 3.0 * n):
            assert prize_vector(back, ids, e) == prize_vector(rule, ids, e)


@pytest.mark.parametrize("make", [
    lambda: SingleParametric(MonotoneFn.piecewise([(0.0, 0.0), (2.0, 1.0), (4.0, 1.0)])),
    hyperarithmetic_rule,
], ids=["sp:pwl", "param:hyperarithmetic"])
def test_level_sum_model_cache_is_no_field(make):
    """The models a level rule caches per n leave it equal to a fresh rule:
    the same hash and repr, and a pickle round trip that pays the same."""
    rule, fresh = make(), make()
    for n in (1, 5, 106):
        prize_vector(rule, tuple(f"c{k}" for k in range(n)), 2.5 * n)
    assert set(rule._by_n) >= {1, 5, 106} and "_by_n" not in type(rule)._fields
    assert rule == fresh and hash(rule) == hash(fresh) and repr(rule) == repr(fresh)
    back = pickle.loads(pickle.dumps(rule))
    assert back == fresh
    for n in (1, 5, 106):
        ids = tuple(f"c{k}" for k in range(n))
        assert prize_vector(back, ids, 3.0 * n) == prize_vector(fresh, ids, 3.0 * n)


def _halves_pwl(steps):
    """A pwl curve from (0, 0) by steps of (dx, dy) halves, 0 <= dy <= dx."""
    points = [(0.0, 0.0)]
    for dx, dy in steps:
        points.append((points[-1][0] + dx / 2, points[-1][1] + dy / 2))
    return MonotoneFn.piecewise(points)


# Levels on a grid of halves, slopes k/8 and pwl rises of halves: equal slopes
# are equal floats and unequal ones differ by at least 0.01, and no level bends
# beyond x = 20, so two levels that part beyond their last bend have parted
# by far more than rounding at FAR.
OFFSETS = st.one_of(st.integers(0, 40).map(lambda k: k / 2), st.just(math.inf))
ORDER_LEVELS = st.one_of(
    st.integers(0, 8).map(lambda k: MonotoneFn.linear(k / 8)),
    OFFSETS.map(MonotoneFn.shift),
    OFFSETS.map(MonotoneFn.cap),
    st.lists(st.integers(1, 10).flatmap(lambda dx: st.tuples(st.just(dx), st.integers(0, dx))),
             max_size=4).map(_halves_pwl),  # no step: the single point (0, 0)
)
FAR = 2.0 ** 20


@given(st.tuples(ORDER_LEVELS, ORDER_LEVELS))
@example((MonotoneFn.cap(5.0), MonotoneFn.linear(0.01)))
@example((MonotoneFn.cap(math.inf), MonotoneFn.linear(1.0)))
@example((MonotoneFn.piecewise([(0.0, 0.0)]), MonotoneFn.shift(math.inf)))
@settings(max_examples=400)
def test_parametric_order_check_is_exact(levels):
    """A rule of levels identity, f_hi, f_lo constructs exactly when f_lo <=
    f_hi at every bend of either level (within 1e-12) and at a point far
    beyond the last, and every rule that constructs pays prizes in order."""
    f_hi, f_lo = levels
    bends = {0.0, *(x for f in levels for x, _ in f.points),
             *(f.param for f in levels if f.kind in ("shift", "cap") and f.param < math.inf)}
    ordered = (all(f_lo(x) <= f_hi(x) + 1e-12 for x in bends)
               and f_lo(FAR) <= f_hi(FAR) + 1e-9 * FAR)
    try:
        rule = Parametric(fs=(MonotoneFn.identity(), f_hi, f_lo), name="drawn")
    except InvalidRuleParams:
        assert not ordered
        return
    assert ordered
    for e in (25.0, 1e6):
        prizes = prize_vector(rule, ("a", "b", "c"), e)
        assert prizes[2] <= prizes[1] + 1e-9 * e and prizes[1] <= prizes[0] + 1e-9 * e, prizes


class TestLevelRules:
    def test_single_parametric_iterates_f(self):
        got = vector(SingleParametric(MonotoneFn.linear(0.5)), 3, 7.0)
        assert got == pytest.approx((4.0, 2.0, 1.0))

    def test_parametric_first_fn_must_be_identity(self):
        with pytest.raises(InvalidRuleParams):
            Parametric(fs=(MonotoneFn.zero(),))

    def test_parametric_order_enforced(self):
        # the second pair crosses only beyond x = 500, past every bend of either level
        for f_hi, f_lo in ((MonotoneFn.linear(0.2), MonotoneFn.linear(0.8)),
                           (MonotoneFn.cap(5.0), MonotoneFn.linear(0.01))):
            with pytest.raises(InvalidRuleParams):
                Parametric(fs=(MonotoneFn.identity(), f_hi, f_lo), name="bad")

    def test_parametric_needs_functions(self):
        with pytest.raises(InvalidRuleParams):
            Parametric()

    def test_parametric_too_few_functions_for_field(self):
        rule = Parametric(fs=(MonotoneFn.identity(), MonotoneFn.zero()))
        with pytest.raises(InvalidRuleParams):
            vector(rule, 3, 1.0)

    @given(
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=300)
    def test_geometric_reduction_identities(self, n, endowment, lam):
        geo = vector(Geometric(lam), n, endowment)
        sp = vector(SingleParametric(MonotoneFn.linear(lam)), n, endowment)
        prop = vector(Proportional(tuple(lam ** k for k in range(n)) or (1.0,)), n,
                      endowment) if lam > 0 else None
        assert geo == pytest.approx(sp, abs=1e-9 * max(1.0, endowment))
        if prop is not None:
            assert geo == pytest.approx(prop, abs=1e-9 * max(1.0, endowment))

    def test_geometric_lambda_zero_is_wta(self):
        assert vector(Geometric(0.0), 4, 5.0) == vector(WTA(), 4, 5.0)

    def test_geometric_lambda_one_is_equal_division(self):
        assert vector(Geometric(1.0), 4, 5.0) == pytest.approx(vector(ED(), 4, 5.0))

    def test_geometric_above_one_needs_flag(self):
        with pytest.raises(InvalidRuleParams):
            Geometric(2.0)
        got = vector(Geometric(2.0, allow_above_one=True), 2, 3.0)
        assert got == pytest.approx((1.0, 2.0))  # reversed order: the counterexample

    def test_proportional_weight_validation(self):
        with pytest.raises(InvalidRuleParams):
            Proportional((0.0, 1.0))
        with pytest.raises(InvalidRuleParams):
            Proportional((1.0, 2.0))
        with pytest.raises(InvalidRuleParams):
            Proportional((1.0, -0.5))

    def test_proportional_needs_enough_weights(self):
        with pytest.raises(InvalidRuleParams):
            vector(Proportional((1.0,)), 2, 1.0)

    def test_parametric_builds_each_level_once(self):
        calls = []

        def extend(k):
            calls.append(k)
            return MonotoneFn.shift(float(k))

        rule = Parametric(fs=(MonotoneFn.identity(),), extend=extend, name="counted")
        big = prize_vector(rule, ("a", "b", "c", "d", "e", "f"), 30.0)
        small = prize_vector(rule, ("a", "b", "c"), 30.0)
        assert prize_vector(rule, ("a", "b", "c", "d", "e", "f"), 30.0) == big
        assert calls == [2, 3, 4, 5, 6]
        fresh = Parametric(fs=(MonotoneFn.identity(),), extend=extend, name="fresh")
        assert small == prize_vector(fresh, ("a", "b", "c"), 30.0)

    def test_unnamed_parametric_has_no_spec(self):
        rule = Parametric(fs=(MonotoneFn.identity(), MonotoneFn.linear(0.5)))
        with pytest.raises(InvalidRuleParams, match="name it"):
            describe(rule)
        assert describe(Parametric(fs=rule.fs, name="halves")) == "param:halves"

    def test_unnamed_parametric_solver_failure_is_readable(self):
        rule = Parametric(fs=(MonotoneFn.identity(), MonotoneFn.linear(0.5)))
        with pytest.raises(SolverFailure, match=r"^unnamed Parametric rule at n=2, E=3\.3: "):
            prize_vector(rule, ("a", "b"), 3.3, SolverConfig(max_iter=1))


# ---------------------------------------------------------------------------
# Kernel parity: the one-pass level sum against the quadratic reference


def quadratic_reference(rule, n, e):
    """The level solve as it was before the one-pass sum: the list form of
    solve_level over n level functions, each evaluated from x, so a
    single-parametric level k re-applies f k - 1 times."""
    if isinstance(rule, SingleParametric):
        fs = [lambda x, k=k: iterate_f(rule.f, x, k) for k in range(n)]
    else:
        fs = [rule.fn(k) for k in range(1, n + 1)]
    x = solve_level(fs, n, e)
    return tuple(float(f(x)) for f in fs)


PARITY_SPECS = ("sp:arithmetic", "sp:linear=0.5", "sp:cap=2", "sp:pwl=0:0,2:1,4:1",
                "param:hyperarithmetic")
# the reference costs n(n-1)/2 calls to f per bisection step
PARITY_EXAMPLES = {1: 30, 2: 30, 8: 30, 50: 10, 106: 4, 200: 3}


@pytest.mark.parametrize("n", PARITY_EXAMPLES)
@pytest.mark.parametrize("spec", PARITY_SPECS)
def test_kernel_matches_quadratic_reference(spec, n):
    rule = parse_rule_spec(spec)
    ids = tuple(f"c{k}" for k in range(1, n + 1))

    # up to n^2 covers fields where every position is paid and ones where few are
    @given(st.floats(min_value=0.0, max_value=float(n * n + 10)))
    @settings(max_examples=PARITY_EXAMPLES[n], deadline=None)
    def check(e):
        assert prize_vector(rule, ids, e) == quadratic_reference(rule, n, e)

    check()


# ---------------------------------------------------------------------------
# Counterexample rules


class TestCounterexamples:
    def test_unknown_name_rejected(self):
        with pytest.raises(UnknownCounterexample):
            Counterexample("nope")

    def test_pair_favoritism_needs_ids(self):
        with pytest.raises(InvalidRuleParams):
            Counterexample("pair-favoritism")

    def test_pair_favoritism_needs_distinct_ids(self):
        with pytest.raises(InvalidRuleParams, match="i='a', j='a'"):
            Counterexample("pair-favoritism", i="a", j="a")

    def test_lowest_takes_all(self):
        assert vector(Counterexample("lowest-takes-all"), 3, 6.0) == (0.0, 0.0, 6.0)

    def test_threshold_switch_boundary(self):
        rule = Counterexample("threshold-switch")
        assert vector(rule, 2, 1.0) == pytest.approx((0.5, 0.5))
        assert vector(rule, 2, 1.01) == (1.01, 0.0)

    def test_ed2wta3_switches_on_field_size(self):
        rule = Counterexample("ed2wta3")
        assert vector(rule, 2, 4.0) == pytest.approx((2.0, 2.0))
        assert vector(rule, 3, 4.0) == (4.0, 0.0, 0.0)

    def test_pair_favoritism_arrangements(self):
        rule = Counterexample("pair-favoritism", i="p", j="q")
        favored = Competition(ranking=Ranking(("p", "q", "z1")), endowment=4.0)
        assert allocate(rule, favored).prizes == {"p": 2.0, "q": 2.0, "z1": 0.0}
        other = Competition(ranking=Ranking(("q", "p", "z1")), endowment=4.0)
        assert allocate(rule, other).prizes == {"q": 4.0, "p": 0.0, "z1": 0.0}
        split = Competition(ranking=Ranking(("p", "z1", "q")), endowment=4.0)
        assert allocate(rule, split).prizes == {"p": 4.0, "z1": 0.0, "q": 0.0}

    def test_late_dollar_beyond_table(self):
        rule = Counterexample("late-dollar")
        # after the staircase phase, whole rounds add one dollar per position
        assert vector(rule, 2, 9.0) == (5.0, 4.0)
        assert vector(rule, 3, 9.0) == (4.0, 3.0, 2.0)
        # a partial round fills from the lowest position upwards
        assert vector(rule, 3, 10.0) == (4.0, 3.0, 3.0)

    def test_late_dollar_fractional(self):
        assert vector(Counterexample("late-dollar"), 2, 1.5) == (1.0, 0.5)

    @given(st.data(), st.integers(min_value=1, max_value=60))
    @settings(max_examples=500)
    def test_late_dollar_matches_step_loop_bit_for_bit(self, data, n):
        steps = n * (n + 1) // 2  # the staircase's dollars
        e = data.draw(st.one_of(
            st.sampled_from([0.0, 5e-324, 1e300]),
            st.integers(min_value=0, max_value=3 * steps),
            st.fractions(min_value=0, max_value=3 * steps),
            st.floats(min_value=0.0, max_value=3.0 * steps),
            st.floats(min_value=-2.0, max_value=2.0).map(lambda d: max(0.0, steps + d)),
            # rem - 1.0 rounds from 2**53 up: ints, and floats an ulp apart
            st.sampled_from([2 ** 53, 2 ** 54]).flatmap(lambda big: st.one_of(
                st.integers(min_value=big - 4 * steps, max_value=big + 4 * steps),
                st.integers(min_value=-2 * steps, max_value=2 * steps)
                .map(lambda k: float(big) + 2.0 * k))),
        ))
        got = prize_vector(Counterexample("late-dollar"), tuple(f"c{k}" for k in range(n)), e)
        assert bits(got) == bits(late_dollar_step_loop(n, e))


def late_dollar_per_position(n, e):
    """cx:late-dollar with its staircase listed one position at a time: the
    reference the staircase from ranges must match bit for bit."""
    steps, whole, rem = n * (n + 1) // 2, 0, float(e)
    while rem >= 1.0 and whole < steps:
        if rem - 1.0 == rem:
            whole = steps
        elif rem < 2.0 ** 53:
            dollars = min(steps - whole, int(rem))
            whole, rem = whole + dollars, rem - dollars
        else:
            whole, rem = whole + 1, rem - 1.0
    r = (math.isqrt(8 * whole + 1) - 1) // 2
    d = whole - r * (r + 1) // 2
    v = [float(max(0, r - i) + (r - d < i <= r)) for i in range(n)]
    if whole < steps:
        if rem > 0:
            v[r - d] += rem
        return v
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


@given(st.data(), st.integers(min_value=1, max_value=130))
@settings(max_examples=500, deadline=None)
def test_late_dollar_staircase_matches_the_per_position_list_bit_for_bit(data, n):
    steps = n * (n + 1) // 2
    whole = data.draw(st.integers(min_value=0, max_value=steps))  # r whole rounds and d dollars
    e = data.draw(st.one_of(
        st.just(whole), st.just(float(whole)),
        st.floats(min_value=0.0, max_value=0.999).map(lambda f: whole + f),
        st.fractions(min_value=0, max_value=1).map(lambda f: whole + f),
        st.floats(min_value=0.0, max_value=3.0 * steps),
        st.floats(min_value=0.0, max_value=1e6),
        st.integers(min_value=0, max_value=10 ** 6),
    ))
    got = prize_vector(Counterexample("late-dollar"), tuple(range(n)), e)
    assert bits(got) == bits(late_dollar_per_position(n, e))


@pytest.mark.parametrize("e", [0.0, 1.5, 123_456.25, 5_000_050_000, 5_000_049_999.5, 1e9, 1e12])
def test_late_dollar_staircase_matches_the_per_position_list_at_the_field_cap(e):
    n = MAX_ALLOCATION_N
    got = prize_vector(Counterexample("late-dollar"), tuple(range(n)), e)
    assert bits(got) == bits(late_dollar_per_position(n, e))


# ---------------------------------------------------------------------------
# Cross-family invariants


def rule_strategy():
    weights = st.lists(
        st.floats(min_value=0.01, max_value=10.0), min_size=6, max_size=6
    ).map(lambda ws: Proportional(tuple(sorted(ws, reverse=True))))
    return st.one_of(
        st.just(ED()),
        st.just(WTA()),
        st.floats(min_value=0.0, max_value=3.0).map(WTS),
        st.just(WTS(math.inf)),
        st.just(step_rule()),
        st.floats(min_value=0.0, max_value=4.0).flatmap(
            lambda a: st.floats(min_value=0.1, max_value=4.0).map(
                lambda w: Interval(IntervalList.of((a, a + w))))
        ),
        st.floats(min_value=0.0, max_value=1.0).map(Geometric),
        st.floats(min_value=0.0, max_value=1.0).map(
            lambda s: SingleParametric(MonotoneFn.linear(s))),
        st.floats(min_value=0.0, max_value=3.0).map(
            lambda c: SingleParametric(MonotoneFn.cap(c))),
        st.just(arithmetic_rule()),
        st.just(hyperarithmetic_rule()),
        weights,
        st.sampled_from([
            Counterexample("lowest-takes-all"),
            Counterexample("threshold-switch"),
            Counterexample("late-dollar"),
            Counterexample("ed2wta3"),
        ]),
    )


@given(
    rule_strategy(),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.0, max_value=20.0),
)
@settings(max_examples=400)
def test_allocations_are_valid(rule, n, endowment):
    comp = standard_competition(n, endowment)
    alloc = allocate(rule, comp)
    assert validate_allocation(comp, alloc)


@given(
    rule_strategy(),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.0, max_value=20.0),
)
@settings(max_examples=400)
def test_order_preservation_holds_for_non_counterexample_rules(rule, n, endowment):
    assume(not (isinstance(rule, Counterexample) and rule.name == "lowest-takes-all"))
    vec = vector(rule, n, endowment)
    for hi, lo in zip(vec, vec[1:]):
        assert hi >= lo - 1e-9 * max(1.0, endowment)


# ---------------------------------------------------------------------------
# describe()


class TestDescribe:
    @pytest.mark.parametrize(
        "rule,expected",
        [
            (ED(), "ed"),
            (WTA(), "wta"),
            (WTS(1.0), "wts:a=1"),
            (WTS(math.inf), "wts:a=inf"),
            (Interval(IntervalList.of((1.0, 2.5))), "interval:[1,2.5]"),
            (Geometric(0.5), "geometric:lambda=0.5"),
            (arithmetic_rule(), "sp:arithmetic"),
            (SingleParametric(MonotoneFn.linear(0.25)), "sp:linear=0.25"),
            (SingleParametric(MonotoneFn.cap(2.0)), "sp:cap=2"),
            (hyperarithmetic_rule(), "param:hyperarithmetic"),
            (Proportional((2.0, 1.0)), "proportional:2,1"),
            (Counterexample("ed2wta3"), "cx:ed2wta3"),
            (Counterexample("pair-favoritism", i="a", j="b"), "cx:pair-favoritism=a,b"),
        ],
    )
    def test_describe(self, rule, expected):
        assert describe(rule) == expected

    @pytest.mark.parametrize(
        "rule,expected",
        [
            (Geometric(0.1234567891), "geometric:lambda=0.1234567891"),
            (Proportional((1e-7, 1e-8)), "proportional:1e-07,1e-08"),
            (SingleParametric(MonotoneFn.shift(2.0)), "sp:shift=2"),
            (SingleParametric(MonotoneFn.cap(math.inf)), "sp:cap=inf"),
        ],
    )
    def test_describe_is_lossless(self, rule, expected):
        assert describe(rule) == expected
        assert parse_rule_spec(expected) == rule

    def test_shift_is_not_described_as_another_rule(self):
        rule = SingleParametric(MonotoneFn.shift(2.0))
        assert vector(parse_rule_spec(describe(rule)), 3, 6.0) == pytest.approx(
            (4.0, 2.0, 0.0), abs=1e-9)


# ---------------------------------------------------------------------------
# parse_rule_spec(describe(rule)) == rule for every spec head


finite = st.floats(min_value=0.0, max_value=1e6, allow_subnormal=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False)
competitor_id = st.text(st.characters(whitelist_categories=("L", "N")), min_size=1, max_size=4)


@st.composite
def interval_lists(draw):
    pairs, a = [], draw(finite)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        b = a + draw(st.floats(min_value=1e-3, max_value=1e3))
        pairs.append((a, b))
        a = b + draw(st.sampled_from([0.0, 0.5])) * draw(finite)
    if draw(st.booleans()):
        pairs[-1] = (pairs[-1][0], math.inf)
    return IntervalList(tuple(pairs))


@st.composite
def piecewise_fns(draw):
    points = [(0.0, 0.0)]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        x, y = points[-1]
        dx = draw(st.floats(min_value=1e-3, max_value=1e3))
        points.append((x + dx, y + draw(unit) * dx))
    try:
        return MonotoneFn.piecewise(points)
    except InvalidRuleParams:  # rounding pushed a slope past 1
        assume(False)


SPEC_HEADS = {
    "ed": st.just(ED()),
    "wta": st.just(WTA()),
    "wts": st.one_of(finite, st.just(math.inf)).map(WTS),
    "interval": interval_lists().map(Interval),
    "geometric": unit.map(Geometric),
    "proportional": st.lists(st.floats(min_value=1e-9, max_value=1e6), min_size=1,
                             max_size=6).map(lambda ws: Proportional(tuple(sorted(ws)[::-1]))),
    "sp:arithmetic": st.just(arithmetic_rule()),
    "sp:linear": unit.map(lambda s: SingleParametric(MonotoneFn.linear(s))),
    "sp:shift": finite.map(lambda c: SingleParametric(MonotoneFn.shift(c))),
    "sp:cap": finite.map(lambda c: SingleParametric(MonotoneFn.cap(c))),
    "sp:pwl": piecewise_fns().map(SingleParametric),
    "param:hyperarithmetic": st.just(hyperarithmetic_rule()),
    "cx": st.sampled_from([n for n in COUNTEREXAMPLE_NAMES if n != "pair-favoritism"])
    .map(Counterexample),
    "cx:pair-favoritism": st.tuples(competitor_id, competitor_id)
    .filter(lambda ij: ij[0] != ij[1])
    .map(lambda ij: Counterexample("pair-favoritism", *ij)),
}


@pytest.mark.parametrize("head", list(SPEC_HEADS))
@given(data=st.data())
@settings(max_examples=60)
def test_spec_round_trip(head, data):
    rule = data.draw(SPEC_HEADS[head])
    assert parse_rule_spec(describe(rule)) == rule


# ---------------------------------------------------------------------------
# Non-finite parameters and solver failures


@pytest.mark.parametrize(
    "build",
    [
        lambda: Geometric(math.nan),
        lambda: Geometric(math.inf, allow_above_one=True),
        lambda: WTS(math.nan),
        lambda: Proportional((1.0, math.nan)),
        lambda: Proportional((math.nan,)),
        lambda: Proportional((math.inf, 1.0)),
        lambda: MonotoneFn.linear(math.nan),
        lambda: MonotoneFn.shift(math.nan),
        lambda: MonotoneFn.cap(math.nan),
        lambda: MonotoneFn.piecewise([(0, 0), (math.nan, 1)]),
        lambda: MonotoneFn.piecewise([(0, 0), (math.inf, 1)]),
        lambda: IntervalList.of((0.0, math.nan)),
    ],
)
def test_nan_parameters_rejected(build):
    with pytest.raises(InvalidRuleParams):
        build()


def test_infinite_caps_stay_legal():
    assert vector(WTS(math.inf), 3, 6.0) == (2.0, 2.0, 2.0)
    assert vector(SingleParametric(MonotoneFn.cap(math.inf)), 3, 6.0) == pytest.approx(
        (2.0, 2.0, 2.0), abs=1e-9)
    assert vector(SingleParametric(MonotoneFn.shift(math.inf)), 3, 6.0) == pytest.approx(
        (6.0, 0.0, 0.0), abs=1e-9)


def test_solver_failure_names_rule_n_and_endowment():
    with pytest.raises(SolverFailure) as exc:
        allocate(arithmetic_rule(), standard_competition(3, 10.0), SolverConfig(max_iter=1))
    assert "sp:arithmetic at n=3, E=10.0: " in str(exc.value)


# ---------------------------------------------------------------------------
# prize_vector, the position-order entry point under allocate


@pytest.mark.parametrize("endowment", [-1.0, math.nan, math.inf])
def test_prize_vector_rejects_what_competition_rejects(endowment):
    with pytest.raises(PrizeAllocError) as expected:
        Competition(ranking=Ranking(("a", "b")), endowment=endowment)
    with pytest.raises(type(expected.value)) as got:
        prize_vector(ED(), ("a", "b"), endowment)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("endowment", [10 ** 400, Fraction(10 ** 400, 3), 10 ** 5000],
                         ids=["int", "fraction", "int-beyond-str"])
@pytest.mark.parametrize("rule", bundled_rules(), ids=describe)
def test_prize_vector_refuses_an_endowment_beyond_the_float_range(rule, endowment):
    """The message names E as ``endowment_error`` does: str() of 10**5000
    raises, as it has more than 4,300 digits."""
    with pytest.raises(NonFiniteEndowment) as exc:
        prize_vector(rule, ("p", "q", "c3"), endowment)
    assert str(exc.value).startswith(f"{describe(rule)} at n=3, E={number_text(endowment)}: ")


# every bundled rule, and an interval rule that pays E/n where n * a rounds above
# E = 3 * Fraction(0.1)
@pytest.mark.parametrize("rule", [*bundled_rules(), Interval(IntervalList.of((0.1, 0.2)))],
                         ids=describe)
def test_rules_pay_floats_for_a_fraction_or_int_endowment(rule):
    """A tuple from ``prizes`` is returned as it is, so it must hold floats."""
    for ids in (("p", "q", "c3", "c4"), ("c1", "c2", "c3", "c4", "c5")):  # p, q: pair-favoritism
        for n in range(1, len(ids) + 1):
            for e in (Fraction(7, 3), Fraction(1, 3), 3 * Fraction(0.1), Fraction(0), 7, 1, 0):
                vec = prize_vector(rule, ids[:n], e)
                assert all(type(p) is float for p in vec), (n, e, vec)
                assert math.isclose(sum(vec), e, rel_tol=1e-9, abs_tol=1e-9), (n, e, vec)
                comp = Competition(Ranking(ids[:n]), e)
                assert all(type(p) is float for p in allocate(rule, comp).prizes.values())


def test_prize_vector_solver_failure_matches_allocate():
    cfg = SolverConfig(max_iter=1)
    with pytest.raises(SolverFailure) as via_allocate:
        allocate(arithmetic_rule(), standard_competition(3, 10.0), cfg)
    with pytest.raises(SolverFailure) as direct:
        prize_vector(arithmetic_rule(), ("c1", "c2", "c3"), 10.0, cfg)
    assert str(direct.value) == str(via_allocate.value)


@pytest.mark.parametrize("spec", ["ed", "sp:arithmetic", "param:hyperarithmetic",
                                  "cx:pair-favoritism=p,q", "interval:[0,1];[1,inf]"])
def test_allocate_is_prize_vector_keyed_by_id(spec):
    rule = parse_rule_spec(spec)
    for ids in (("p", "q", "z1"), ("z1", "q", "p", "z2")):
        comp = Competition(ranking=Ranking(ids), endowment=7.5)
        vec = prize_vector(rule, ids, 7.5)
        assert all(type(p) is float for p in vec)
        assert allocate(rule, comp).prizes == dict(zip(ids, vec))


@pytest.mark.parametrize("param", [3, Fraction(1, 2), True, 2.5])
def test_monotone_fn_stores_its_parameter_as_a_float(param):
    """A level pays floats whatever number its parameter was given as, so a
    level rule's prizes are a tuple of floats without a conversion each."""
    f = MonotoneFn("cap", param=param)
    assert type(f.param) is float and f.param == param
    assert f == MonotoneFn.cap(float(param))
    assert all(type(p) is float for p in f.walk(7.0, 4))


@pytest.mark.parametrize("param, message", [
    ("x", "could not convert string to float"),
    (None, "must be a string or a real number"),
    (10 ** 400, "int too large to convert to float"),
])
def test_monotone_fn_refuses_a_parameter_that_is_no_float(param, message):
    with pytest.raises(InvalidRuleParams, match=f"^shift parameter: .*{message}"):
        MonotoneFn("shift", param=param)


# int parameters, which each family must still pay out as floats
INT_PARAMETER_RULES = (WTS(1), Interval(IntervalList(((0, 1),))),
                       SingleParametric(MonotoneFn("cap", param=3)), Proportional((2, 1)))
FLOAT_TYPE_RULES = (*bundled_rules(), *INT_PARAMETER_RULES, *map(parse_rule_spec, (
    "sp:linear=0.5", "sp:cap=2", "sp:pwl=0:0,2:1,4:1")))


@settings(max_examples=300, deadline=None)
@given(rule=st.sampled_from(FLOAT_TYPE_RULES), n=st.integers(1, 12),
       designated_first=st.booleans(),
       e=st.one_of(st.floats(0.0, 1e6), st.integers(0, 10 ** 6), st.just(0.0)))
@example(rule=INT_PARAMETER_RULES[0], n=2, designated_first=False, e=10)
@example(rule=INT_PARAMETER_RULES[1], n=12, designated_first=False, e=10)  # E/n in (0, 1)
@example(rule=INT_PARAMETER_RULES[2], n=2, designated_first=False, e=10)
@example(rule=INT_PARAMETER_RULES[3], n=2, designated_first=False, e=10)
def test_prize_vector_and_allocate_pay_the_same_floats(rule, n, designated_first, e):
    ids = tuple(f"c{k}" for k in range(1, n + 1))
    if designated_first and rule.designated and n >= 2:
        ids = (*rule.designated, *ids[2:])
    comp = Competition(ranking=Ranking(ids), endowment=e)
    try:
        vec = prize_vector(rule, ids, e)
    except InvalidRuleParams as exc:  # proportional weights for fewer than n positions
        with pytest.raises(InvalidRuleParams) as via_allocate:
            allocate(rule, comp)
        assert str(via_allocate.value) == str(exc)
        return
    by_position = allocate(rule, comp).by_position(comp.ranking)
    assert all(type(p) is float for p in vec)
    assert all(type(p) is float for p in by_position)
    assert [struct.pack("<d", p) for p in by_position] == [struct.pack("<d", p) for p in vec]


@pytest.mark.parametrize("e_max", [10**400, Fraction(10**400, 3), math.nan])
def test_trace_path_refuses_an_end_beyond_the_float_range(e_max):
    with pytest.raises(InvalidPath, match=r"^E_max must be finite and >= 0, got "):
        trace_path(ED(), 3, e_max)


@pytest.mark.parametrize("e_max, text", [(10**400, "1.00000e+400"),
                                         (Fraction(10**400, 3), "3.33333e+399")],
                         ids=["int", "fraction"])
def test_trace_path_names_a_huge_end_in_short(e_max, text):
    """str() of 10**400 holds its 401 digits; the message holds six."""
    with pytest.raises(InvalidPath) as exc:
        trace_path(ED(), 3, e_max)
    assert str(exc.value) == f"E_max must be finite and >= 0, got {text}"
    with pytest.raises(InvalidPath) as exc:
        trace_path(ED(), 3, 1.0, step=-e_max)
    assert str(exc.value) == f"step must be finite and > 0, got -{text}"
