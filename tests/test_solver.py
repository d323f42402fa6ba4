import math
import random
from fractions import Fraction
import struct
from bisect import bisect_right
from functools import partial

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from prizealloc import rules, solver, trace_path
from prizealloc.axioms import CHECK_SOLVER, MAX_FIELD_SIZE, SampleBudget
from prizealloc.cli import MAX_ALLOCATION_N, parse_rule_spec
from prizealloc.core import standard_competition
from prizealloc.rules import (
    MAX_RANGE_ROWS,
    ED,
    IntervalList,
    InvalidPath,
    MonotoneFn,
    Parametric,
    SingleParametric,
    allocate,
    hyperarithmetic_rule,
    interval_locate,
    prize_vector,
    step_rule,
)
from prizealloc.solver import (
    DEFAULT_SOLVER,
    SolverConfig,
    SolverFailure,
    iterate_f,
    iterates,
    solve_level,
    solve_level_sum,
)

from test_rules import PARITY_SPECS, locate_by_scan, pwl_points, run_intervals, segment_loop_pwl


class TestIterate:
    def test_zero_applications_is_identity(self):
        assert iterate_f(lambda x: x / 2, 8.0, 0) == 8.0

    def test_repeated_application(self):
        assert iterate_f(lambda x: x / 2, 8.0, 3) == 1.0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            iterate_f(lambda x: x, 1.0, -1)

    def test_iterates_are_the_first_n_iterates(self):
        assert list(iterates(lambda x: x / 2, 8.0, 4)) == [8.0, 4.0, 2.0, 1.0]
        assert list(iterates(lambda x: x / 2, 8.0, 0)) == []

    @given(st.integers(min_value=1, max_value=60), st.floats(min_value=0.0, max_value=1e4),
           st.floats(min_value=0.0, max_value=1.0))
    def test_one_pass_level_sum_is_bit_identical(self, n, x, slope):
        # the single-parametric level sum, against each level re-iterated from x
        def f(y):
            return y - 1.0 if y > 1.0 else slope * y
        assert sum(iterates(f, x, n)) == sum(iterate_f(f, x, k) for k in range(n))


class TestSolveLevel:
    def test_equal_split(self):
        # n identical identity levels: n*x = E
        fs = [lambda x: x] * 4
        assert solve_level(fs, 4, 10.0) == pytest.approx(2.5, abs=1e-9)

    def test_known_kinked_root(self):
        # levels x, max(0, x-1), max(0, x-2): at E = 4 the root is x = 7/3
        fs = [lambda x: x, lambda x: max(0.0, x - 1), lambda x: max(0.0, x - 2)]
        assert solve_level(fs, 3, 4.0) == pytest.approx(7 / 3, abs=1e-9)

    def test_zero_endowment(self):
        assert solve_level([lambda x: x], 1, 0.0) == 0.0

    def test_empty_field_rejected(self):
        with pytest.raises(ValueError, match="need at least one competitor"):
            solve_level([lambda x: x], 0, 1.0)

    def test_negative_endowment_rejected(self):
        with pytest.raises(ValueError):
            solve_level([lambda x: x], 1, -1.0)

    def test_missing_levels_rejected(self):
        with pytest.raises(SolverFailure):
            solve_level([lambda x: x], 2, 1.0)

    def test_nonconvergence_raises(self):
        cfg = SolverConfig(residual_tol=1e-14, max_iter=3)
        fs = [lambda x: x, lambda x: max(0.0, x - 1)]
        with pytest.raises(SolverFailure):
            solve_level(fs, 2, 3.3333333, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(residual_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        # a NaN tolerance accepted no residual, so every solve "failed"; a
        # fractional count died in range() at every solve
        for tol in (math.nan, math.inf, -math.inf, -1e-10):
            with pytest.raises(ValueError, match="residual_tol"):
                SolverConfig(residual_tol=tol)
        for max_iter in (2.5, 3.0, True, "3", None):
            with pytest.raises(ValueError, match="max_iter"):
                SolverConfig(max_iter=max_iter)

    @given(
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_residual_bound_property(self, n, endowment, slope):
        # levels x, s*x, s^2*x, ... : residual always within tolerance
        fs = [lambda x, k=k: (slope ** k) * x for k in range(n)]
        x = solve_level(fs, n, endowment)
        residual = abs(sum(f(x) for f in fs) - endowment)
        assert residual <= 1e-10 * max(1.0, endowment)


# ---------------------------------------------------------------------------
# Probe and replay against plain bisection


def plain_bisection(g, n, endowment, cfg=DEFAULT_SOLVER, estimate=None):
    """Bisection on [0, E] that calls g at every midpoint, whatever the
    estimate.  The solver must return its float bit for bit, or fail with
    its message."""
    if endowment == 0:
        return 0.0
    tol = cfg.residual_tol * max(1.0, endowment)
    lo, hi = 0.0, endowment
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


def outcome(solve, g, n, e, cfg):
    try:
        return struct.pack("<d", solve(g, n, e, cfg))
    except SolverFailure as exc:
        return str(exc)


SOLVER_CONFIGS = (DEFAULT_SOLVER, CHECK_SOLVER, SolverConfig(residual_tol=1e-14, max_iter=3))
MONOTONE_FNS = st.one_of(
    st.sampled_from([MonotoneFn.identity(), MonotoneFn.zero(), MonotoneFn.shift(math.inf),
                     MonotoneFn.cap(math.inf)]),
    st.floats(min_value=0.0, max_value=1.0).map(MonotoneFn.linear),
    st.floats(min_value=0.0, max_value=1e3).map(MonotoneFn.shift),
    st.floats(min_value=0.0, max_value=1e3).map(MonotoneFn.cap),
    pwl_points().map(MonotoneFn.piecewise),
)
HYPERARITHMETIC = hyperarithmetic_rule()


@st.composite
def level_sums(draw, n):
    """g for n levels: a single-parametric rule over any MonotoneFn, or the
    hyperarithmetic rule's levels."""
    f = draw(st.one_of(MONOTONE_FNS, st.just(None)))
    if f is not None:
        return lambda x: sum(iterates(f, x, n))
    levels = [HYPERARITHMETIC.fn(k) for k in range(1, n + 1)]
    return lambda x: sum(level(x) for level in levels)


@given(st.data(), st.sampled_from([1, 2, 5, 8, 50, 106]), st.sampled_from(SOLVER_CONFIGS))
@settings(max_examples=300)
def test_solve_matches_plain_bisection_bit_for_bit(data, n, cfg):
    g = data.draw(level_sums(n))
    e = data.draw(st.one_of(
        st.sampled_from([0.0, 5e-324, 1e12]),
        st.floats(min_value=0.0, max_value=2 * cfg.residual_tol),  # E inside the band 2 tol
        st.floats(min_value=0.0, max_value=5.0 * n),
    ))
    assert outcome(solve_level_sum, g, n, e, cfg) == outcome(plain_bisection, g, n, e, cfg)


def level_sum_calls(monkeypatch, solve, sample):
    """The prize vectors of a sample of (rule, n, E) with every level solve
    routed through `solve` without the rule's estimate, and the number of
    level sums it evaluated."""
    calls = 0

    def counted(g, n, e, cfg=DEFAULT_SOLVER, estimate=None):
        def g_counted(x):
            nonlocal calls
            calls += 1
            return g(x)
        return solve(g_counted, n, e, cfg)

    monkeypatch.setattr(rules, "solve_level_sum", counted)  # single-parametric rules
    monkeypatch.setattr(solver, "solve_level_sum", counted)  # solve_level, for Parametric
    ids = tuple(f"c{k}" for k in range(max(n for _, n, _ in sample)))
    vectors = [prize_vector(rule, ids[:n], e) for rule, n, e in sample]
    return vectors, calls


def test_a_solve_without_an_estimate_is_plain_bisection(monkeypatch):
    """A level sum with no root estimate is solved by plain bisection: on a
    sample shaped like the benchmark's `tables` workload, the same vectors
    for the same number of level sums.

    That an estimate's skipped midpoints keep those vectors rests on one
    premise: the certificates' band of 2 tol covers fl(g)'s
    non-monotonicity, at most about n * 2**-52 * E.  That is below tol =
    residual_tol * max(1, E) for every n up to MAX_ALLOCATION_N at the
    default 1e-10, and for every field the axiom checks build
    (n <= MAX_FIELD_SIZE) at CHECK_SOLVER's 1e-12."""
    assert MAX_ALLOCATION_N * 2.0 ** -52 < DEFAULT_SOLVER.residual_tol
    assert MAX_FIELD_SIZE * 2.0 ** -52 < CHECK_SOLVER.residual_tol
    rng = random.Random("solver-tables-sample")
    sample = [(parse_rule_spec(spec), n, rng.uniform(0.0, 5.0 * n))
              for spec in PARITY_SPECS for n in (8, 50, 106) for _ in range(8)]
    vectors, calls = level_sum_calls(monkeypatch, solve_level_sum, sample)
    plain_vectors, plain = level_sum_calls(monkeypatch, plain_bisection, sample)
    assert vectors == plain_vectors
    assert calls == plain, (calls, plain)


# ---------------------------------------------------------------------------
# The rules' root estimates against plain bisection


def pwl_level(k):
    """f_1 the identity, then f_k rising at slope 1/k to 1 at x = k: each
    level lies below the one before it."""
    if k == 1:
        return MonotoneFn.identity()
    return MonotoneFn.piecewise([(0.0, 0.0), (float(k), 1.0), (k + 1.0, 1.0)])


PWL_LEVELS = Parametric(fs=(MonotoneFn.identity(),), extend=pwl_level, name="pwl-levels")
ESTIMATE_RULES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0]).map(MonotoneFn.linear),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
    .map(MonotoneFn.linear),
    st.sampled_from([0.0, -0.0, math.inf, 1e-9, 1e6]).map(MonotoneFn.shift),
    st.sampled_from([0.0, -0.0, math.inf]).map(MonotoneFn.cap),
    st.sampled_from([[(0.0, 0.0)], [(0.0, 0.0), (2.0, 1.0), (4.0, 1.0)]])
    .map(MonotoneFn.piecewise),
    pwl_points().map(MonotoneFn.piecewise),
).map(SingleParametric) | st.sampled_from([HYPERARITHMETIC, PWL_LEVELS])


def vector_outcome(rule, n, e, cfg):
    try:
        return bits(prize_vector(rule, tuple(f"c{k}" for k in range(n)), e, cfg))
    except SolverFailure as exc:
        return str(exc)


@given(st.data(), ESTIMATE_RULES, st.sampled_from([1, 2, 5, 8, 50, 106]),
       st.sampled_from(SOLVER_CONFIGS))
@settings(max_examples=300)
def test_estimate_pays_plain_bisection_bits(data, rule, n, cfg):
    """A rule's root estimate only moves the first probe: the prizes are
    plain bisection's, bit for bit, and so is a failure's message."""
    e = data.draw(st.one_of(
        st.sampled_from([0.0, 5e-324, 1e12, 1e300]),
        st.floats(min_value=0.0, max_value=2 * cfg.residual_tol),
        st.floats(min_value=0.0, max_value=5.0 * n),
    ))
    estimates = []

    def solve(g, n, e, cfg, estimate=None):
        estimates.append(estimate)
        return solve_level_sum(g, n, e, cfg, estimate)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rules, "solve_level_sum", solve)
        probed = vector_outcome(rule, n, e, cfg)
        patch.setattr(rules, "solve_level_sum", plain_bisection)
        plain = vector_outcome(rule, n, e, cfg)
    assert estimates and None not in estimates
    assert probed == plain


def near_root(g, e):
    """The root of g(x) = E, to the last float bisection can reach, and g's
    secant slope across it, at least 1."""
    lo, hi = 0.0, e
    while lo < (x := 0.5 * (lo + hi)) < hi:
        lo, hi = (x, hi) if g(x) < e else (lo, x)
    lo, hi = max(0.0, x * (1 - 1e-6)), x * (1 + 1e-6)
    slope = (g(hi) - g(lo)) / (hi - lo) if hi > lo else 1.0
    return x, max(1.0, slope) if math.isfinite(slope) else 1.0


@st.composite
def wrong_estimates(draw, g, e, tol):
    """An estimate of the root of g(x) = E that may be far off: the root
    offset by 0.5 to 10**4 tol / slope either way, a random (guess, slope)
    pair, or the root with a slope 10 times too large or too small."""
    root, slope = near_root(g, e)
    kind = draw(st.sampled_from(["offset", "random", "slope"]))
    if kind == "offset":
        offset = draw(st.floats(min_value=0.5, max_value=1e4)) * draw(st.sampled_from([-1, 1]))
        return root + offset * tol / slope, slope
    if kind == "random":
        guess = draw(st.floats(min_value=0.0, max_value=e, exclude_min=True))
        return guess, draw(st.one_of(st.sampled_from([0.0, 1.0, math.inf, math.nan]),
                                     st.floats(min_value=0.0, max_value=1e6)))
    return root, slope * draw(st.sampled_from([0.1, 10.0]))


def estimated_outcome(g, n, e, cfg, estimate):
    """solve_level_sum's outcome for g given `estimate`, and whether
    it fell back to plain bisection: with an estimate, only after a failed
    certificate.  The fallback shows as a call of g at E/2, plain
    bisection's first midpoint, outside the predicted window, where the
    run from the estimate takes it without a call."""
    calls = []

    def g_estimated(x):
        calls.append(x)
        return g(x)
    guess, slope = estimate or (math.nan, 1.0)
    w = solver._Z * cfg.residual_tol * max(1.0, e) / max(1.0, slope)
    got = outcome(partial(solve_level_sum, estimate=estimate), g_estimated, n, e, cfg)
    return got, 0.5 * e in calls and not guess - w < 0.5 * e < guess + w


@given(st.data(), st.sampled_from([1, 2, 5, 8, 50, 106]), st.sampled_from(SOLVER_CONFIGS))
@settings(max_examples=300, deadline=None)
def test_a_wrong_estimate_costs_level_sums_never_a_float(data, n, cfg):
    """However far off a rule's estimate is, the solve pays plain bisection's
    bits, and a failure its message: a bracket end that the bisection takes
    without a call of g is certified before a midpoint is accepted, and a
    failed certificate reruns the solve as plain bisection."""
    g = data.draw(level_sums(n))
    e = data.draw(st.one_of(
        st.sampled_from([5e-324, 1e12]),
        st.floats(min_value=0.0, max_value=2 * cfg.residual_tol, exclude_min=True),
        st.floats(min_value=0.0, max_value=5.0 * n, exclude_min=True),
    ))
    estimate = data.draw(wrong_estimates(g, e, cfg.residual_tol * max(1.0, e)))
    got, _ = estimated_outcome(g, n, e, cfg, estimate)
    assert got == outcome(plain_bisection, g, n, e, cfg)


@given(st.data(), st.sampled_from([1, 2, 5, 50, 106]))
@settings(max_examples=150, deadline=None)
def test_a_bisection_out_of_floats_pays_plain_bisection_bits(data, n):
    """At a tolerance below the float sum's rounding, bisection can run out
    of floats between lo and hi long before max_iter, and every later step
    repeats the last: the solve stops there and pays plain bisection's bits,
    or its failure message, with or without a wrong estimate."""
    cfg = SolverConfig(residual_tol=1e-16)
    g = data.draw(level_sums(n))
    e = data.draw(st.floats(min_value=0.0, max_value=5.0 * n, exclude_min=True))
    estimate = data.draw(st.one_of(st.none(), wrong_estimates(g, e, 1e-16 * max(1.0, e))))
    got, _ = estimated_outcome(g, n, e, cfg, estimate)
    assert got == outcome(plain_bisection, g, n, e, cfg)


@pytest.mark.parametrize("spec", ["sp:arithmetic", "sp:cap=2", "sp:linear=0.5",
                                  "sp:pwl=0:0,2:1,4:1", "param:hyperarithmetic"])
@pytest.mark.parametrize("cfg", SOLVER_CONFIGS, ids=["default", "check", "three-steps"])
def test_an_estimate_far_off_goes_on_from_evaluated_ends(spec, cfg):
    """An estimate 10**4 tol / slope off the root fails its certificates, and
    the solve falls back to plain bisection, whose midpoints are all
    evaluated, and pays its bits."""
    rule, n, e = parse_rule_spec(spec), 8, 17.0
    rule._model(n)

    def g(x):
        return sum(rule._walk(x, n))
    tol = cfg.residual_tol * max(1.0, e)
    root, slope = near_root(g, e)
    for sign in (-1, 1):
        got, fell_back = estimated_outcome(g, n, e, cfg, (root + sign * 1e4 * tol / slope, slope))
        assert fell_back
        assert got == outcome(plain_bisection, g, n, e, cfg)


@pytest.mark.parametrize("spec", ["sp:arithmetic", "sp:cap=2", "param:hyperarithmetic"])
def test_an_estimate_is_an_argument_not_an_attribute(spec):
    """A level sum that carries its rule's estimate as an ``estimate``
    attribute, but is solved without ``estimate=``, costs exactly plain
    bisection's level sums; the same tuple passed as ``estimate=`` costs
    fewer, for the same root."""
    rule, n, e = parse_rule_spec(spec), 50, 100.0
    pieces, calls = rule._model(n), []

    def g(x):
        calls.append(x)
        return sum(rule._walk(x, n))
    g.estimate = rules._estimate(pieces, e, DEFAULT_SOLVER)
    root = plain_bisection(g, n, e)
    plain = len(calls)
    calls.clear()
    assert solve_level_sum(g, n, e) == root and len(calls) == plain
    calls.clear()
    assert solve_level_sum(g, n, e, estimate=g.estimate) == root and len(calls) < plain


def level_sums_per_solve(monkeypatch, sample, cfg=DEFAULT_SOLVER):
    """Level sums per solve of a sample of (rule, n, E), each level sum
    counted with the root estimate its rule passed."""
    solves = calls = 0

    def counted(g, n, e, cfg=DEFAULT_SOLVER, estimate=None):
        nonlocal solves
        solves += 1

        def g_counted(x):
            nonlocal calls
            calls += 1
            return g(x)
        return solve_level_sum(g_counted, n, e, cfg, estimate)

    monkeypatch.setattr(rules, "solve_level_sum", counted)
    ids = tuple(f"c{k}" for k in range(max(n for _, n, _ in sample)))
    for rule, n, e in sample:
        prize_vector(rule, ids[:n], e, cfg)
    return calls / solves


@pytest.mark.parametrize("spec", ["sp:arithmetic", "sp:cap=2", "sp:linear=0.5",
                                  "sp:pwl=0:0,2:1,4:1", "param:hyperarithmetic"])
def test_estimates_save_level_sums(monkeypatch, spec):
    """On the sample of test_a_solve_without_an_estimate_is_plain_bisection,
    a solve that predicts its bracket ends around its rule's estimate
    evaluates at most 3.2 level sums on average (1.67 to 2.96 here, where
    evaluated step-outs took 2.33 to 4.21); plain bisection takes 28.5."""
    rng = random.Random("solver-tables-sample")
    sample = [(head, n, rng.uniform(0.0, 5.0 * n))
              for head in PARITY_SPECS for n in (8, 50, 106) for _ in range(8)]
    rule = parse_rule_spec(spec)
    assert level_sums_per_solve(
        monkeypatch, [(rule, n, e) for head, n, e in sample if head == spec]) <= 3.2


@pytest.mark.parametrize("spec", ["sp:arithmetic", "sp:cap=2", "sp:linear=0.5",
                                  "sp:pwl=0:0,2:1,4:1", "param:hyperarithmetic"])
def test_estimates_save_level_sums_in_the_axiom_checks(monkeypatch, spec):
    """At the axiom checks' fields (n <= 5, CHECK_SOLVER) over the seed-0
    matrix grid, a solve evaluates at most 2.6 level sums on average
    (1.66 to 2.29 here, where evaluated step-outs took 3.33 to 3.82)."""
    grid = SampleBudget(rng_seed=0).sorted_grid()
    rule = parse_rule_spec(spec)
    sample = [(rule, n, e) for n in range(1, 6) for e in grid]
    assert level_sums_per_solve(monkeypatch, sample, CHECK_SOLVER) <= 2.6


def test_a_root_on_the_cap_takes_few_level_sums(monkeypatch):
    """sp:cap=2 at n = 50 pays its root on the cap at E = 100, where g's
    slope falls from 50 to 1.  The estimate hands over the smaller slope, so
    its bracket ends clear the band and the solve takes at most 4 level sums
    (39 with the steeper slope, whose high end failed its certificate)."""
    rule = parse_rule_spec("sp:cap=2")
    for e in (100.0, 100, 37.0, 100.0000001):
        assert level_sums_per_solve(monkeypatch, [(rule, 50, e)]) <= 4


@pytest.mark.parametrize("spec", ["sp:cap=2", "sp:cap=0.7", "sp:pwl=0:0,1:0.5,3:1,4:2",
                                  "sp:pwl=0:0,1.2:0.9,5:1.5", "param:hyperarithmetic",
                                  "sp:arithmetic", "sp:shift=0.3"])
def test_an_endowment_on_a_model_bend_takes_few_level_sums(monkeypatch, spec):
    """E on each bend of the level-sum model, or one tol either side, costs
    at most 9 level sums a solve (up to 46 when the estimate handed over the
    slope of the piece that holds E alone)."""
    rule = parse_rule_spec(spec)
    for n in (3, 10, 50, 106):
        prize_vector(rule, tuple(range(n)), 1.0)
        for bend in rule._by_n[n][1][1:]:
            tol = DEFAULT_SOLVER.residual_tol * max(1.0, bend)
            for e in (bend - tol, bend, bend + tol):
                assert level_sums_per_solve(monkeypatch, [(rule, n, e)]) <= 9, (n, e)


# ---------------------------------------------------------------------------
# The walk's fixed point against a walk that calls f at every step


def walk_every_step(f, x, n):
    """The first n iterates of f from x, with f called at every step: the
    reference the fixed-point walk of `iterates` must match."""
    if n < 1:
        return
    yield x
    for _ in range(n - 1):
        x = f(x)
        yield x


def bits(xs):
    return [struct.pack("<d", x) for x in xs]


def one_step(fn):
    """f as a single step written here for each kind, the reference a walk
    must match: s * x, max(0, x - c) and min(c, x) bit for bit, and the
    segment loop of a piecewise-linear curve."""
    c = fn.param
    return {"linear": lambda x: c * x,
            "shift": lambda x: x - c if x > c else 0.0,
            "cap": lambda x: x if x < c else c,
            "pwl": partial(segment_loop_pwl, fn.points)}[fn.kind]


def flat_tail(a, rise, run):
    """Slope `rise` up to x = a, then flat: with rise 1, f(a) = a."""
    return MonotoneFn.piecewise([(0.0, 0.0), (a, a * rise), (a + run, a * rise)])


FIXED_POINT_SIZES = [1, 2, 5, 8, 50, 106]
# zeros of either sign, built through the API (the spec language reads -0
# as 0), a flat tail that starts at a fixed point, and a pwl curve from
# (-0.0, -0.0), whose value at x = 0.0 is -0.0
NEGATIVE_ZERO_START = MonotoneFn.piecewise(((-0.0, -0.0), (1.0, 0.0)))
EDGE_FNS = [MonotoneFn.linear(-0.0), MonotoneFn.cap(-0.0), MonotoneFn.shift(-0.0),
            MonotoneFn.shift(0.0), MonotoneFn.cap(0.0), flat_tail(1.0, 1.0, 1.0),
            NEGATIVE_ZERO_START]
FIXED_POINT_FNS = st.one_of(
    st.sampled_from(EDGE_FNS),
    MONOTONE_FNS,
    st.builds(flat_tail, st.floats(min_value=1e-3, max_value=1e3),
              st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
              st.floats(min_value=1e-3, max_value=1e3)),
)


@given(FIXED_POINT_FNS, st.sampled_from(FIXED_POINT_SIZES),
       st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, 1.0, 5e-324]), st.floats()))
# -0.0 * x maps -0.0 to 0.0 and back: equal values, but no fixed point
@example(MonotoneFn.linear(-0.0), 5, 5.0)
@example(MonotoneFn.linear(-0.0), 5, -0.0)
@example(MonotoneFn.cap(-0.0), 5, 0.0)  # 0.0, then the fixed point -0.0
@example(MonotoneFn.cap(1.0), 106, math.nan)
@settings(max_examples=500)
def test_iterates_match_every_step_walk_bit_for_bit(fn, n, x):
    assert bits(iterates(fn, x, n)) == bits(walk_every_step(fn, x, n))


def prizes_outcome(prizes, fn, n, e, cfg):
    try:
        return bits(prizes(fn, n, e, cfg))
    except SolverFailure as exc:
        return str(exc)


def every_step_prizes(fn, n, e, cfg):
    """SingleParametric.prizes over walk_every_step."""
    x = solve_level_sum(lambda x: sum(walk_every_step(fn, x, n)), n, e, cfg)
    return list(walk_every_step(fn, x, n))


def single_parametric_prizes(fn, n, e, cfg):
    return SingleParametric(fn).prizes(tuple(f"c{k}" for k in range(1, n + 1)), e, cfg)


@given(st.data(), FIXED_POINT_FNS, st.sampled_from(FIXED_POINT_SIZES),
       st.sampled_from(SOLVER_CONFIGS))
@settings(max_examples=300)
def test_single_parametric_prizes_match_every_step_walk_bit_for_bit(data, fn, n, cfg):
    e = data.draw(st.one_of(  # the endowments of test_solve_matches_plain_bisection_bit_for_bit
        st.sampled_from([0.0, 5e-324, 1e12]),
        st.floats(min_value=0.0, max_value=2 * cfg.residual_tol),
        st.floats(min_value=0.0, max_value=5.0 * n),
    ))
    assert (prizes_outcome(single_parametric_prizes, fn, n, e, cfg)
            == prizes_outcome(every_step_prizes, fn, n, e, cfg))


def walked_points(monkeypatch, sample):
    """(f, x, n) for every level sum the solves of a sample of single-parametric
    (rule, n, E) evaluate, with the root estimate each rule passed: every
    walk of f an allocation makes, the prizes' too."""
    points = []

    def solve(g, n, e, cfg=DEFAULT_SOLVER, estimate=None):
        def g_seen(x):
            points.append((f, x, n))
            return g(x)
        return solve_level_sum(g_seen, n, e, cfg, estimate)

    monkeypatch.setattr(rules, "solve_level_sum", solve)
    ids = tuple(f"c{k}" for k in range(max(n for _, n, _ in sample)))
    for rule, n, e in sample:
        f = rule.f
        prize_vector(rule, ids[:n], e)
    return points


def f_calls(walk, points):
    """The walks (as bits) of `walk` from each (f, x, n), and its calls to f."""
    calls = 0

    def counted(f):
        def f_counted(y):
            nonlocal calls
            calls += 1
            return f(y)
        return f_counted
    return [bits(walk(counted(f), x, n)) for f, x, n in points], calls


@pytest.mark.parametrize("head, share", [("sp:cap", 0.15), ("sp:arithmetic", 0.5)])
def test_fixed_point_saves_f_calls(monkeypatch, head, share):
    """On a sample shaped like the benchmark's `tables` workload (n on a log
    grid over 2..106, 8 endowments in [0, 5n] each), `iterates` from the
    points the solves walk calls f at most `share` times as often as a walk
    that never stops, for the same iterates."""
    rng = random.Random(f"fixed-point-{head}")
    sizes = [round(2 * 53 ** ((k + 0.5) / 16)) for k in range(16)]
    sample = []
    for n in sizes:
        rule = parse_rule_spec(f"sp:cap={rng.uniform(0.5, 5.0)}" if head == "sp:cap" else head)
        sample += [(rule, n, rng.uniform(0.0, 5.0 * n)) for _ in range(8)]
    points = walked_points(monkeypatch, sample)
    walks, calls = f_calls(iterates, points)
    every_step_walks, every_step_calls = f_calls(walk_every_step, points)
    assert walks == every_step_walks
    assert calls <= share * every_step_calls, (calls, every_step_calls)


@given(FIXED_POINT_FNS, st.sampled_from(FIXED_POINT_SIZES),
       st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, 1.0, 5e-324]), st.floats()))
@example(MonotoneFn.linear(-0.0), 5, 5.0)
@example(MonotoneFn.linear(-0.0), 5, -0.0)
@example(MonotoneFn.cap(-0.0), 5, 0.0)
@example(MonotoneFn.cap(1.0), 106, math.nan)
@example(NEGATIVE_ZERO_START, 2, 0.0)
@example(NEGATIVE_ZERO_START, 5, -0.0)
@example(MonotoneFn.piecewise([(0.0, 0.0)]), 5, 3.0)
@example(MonotoneFn.shift(0.0), 106, 1e300)
@settings(max_examples=500)
def test_kind_walks_match_every_step_walk_bit_for_bit(fn, n, x):
    """Each kind's one-loop walk lists the iterates a walk that calls f at
    every step does, bit for bit, as a list that starts with x itself."""
    walked = fn.walk(x, n)
    assert type(walked) is list and walked[0] is x
    assert bits(walked) == bits(walk_every_step(one_step(fn), x, n))


def test_a_kind_is_its_walk():
    """A function keeps its walk and no evaluator beside it: f(x) is the
    walk's second term."""
    fn = MonotoneFn.cap(1.0)
    assert set(vars(fn)) == {"kind", "param", "points", "walk"}
    assert (fn(0.5), fn(2.0)) == (0.5, 1.0)


def test_pwl_walk_leaves_a_segment_its_iterate_rounds_above():
    """On the identity piece up to 0.1, f(0.1) rounds up to the next float,
    which lies on the next piece: the walk, which stays on one segment while
    its iterates do, must take that piece's expression for the next step."""
    fn = MonotoneFn.piecewise([(0.0, 0.0), (0.1, 0.1), (1.0, 0.2)])
    assert fn(0.1) > 0.1
    assert bits(fn.walk(0.1, 5)) == bits(walk_every_step(one_step(fn), 0.1, 5))


SHIFT_LEVELS = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1e-9, math.inf]),
                                  st.floats(min_value=0.0, max_value=1e3)), max_size=12)
PARAMETRIC_RULES = st.one_of(
    SHIFT_LEVELS.map(lambda cs: Parametric(  # sorted: f_{k+1} <= f_k
        fs=(MonotoneFn.identity(), *map(MonotoneFn.shift, sorted(cs))), name="shifts")),
    st.sampled_from([HYPERARITHMETIC, PWL_LEVELS]),
)


@given(PARAMETRIC_RULES, st.sampled_from([1, 2, 5, 13, 50, 106]),
       st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, 5e-324]), st.floats()))
@example(Parametric(fs=(MonotoneFn.identity(), MonotoneFn.shift(2.0)), name="one"), 2, -0.0)
@settings(max_examples=400)
def test_parametric_walk_is_its_levels_bit_for_bit(rule, n, x):
    """A Parametric rule lists its levels at x in one pass, in one
    comprehension when every level after the identity is a shift: bit for
    bit each level's single step, as a list that starts with x itself."""
    if rule.extend is None:
        n = min(n, len(rule.fs))
    rule._model(n)
    shifts = all(rule.fn(k).kind == "shift" for k in range(2, len(rule._levels) + 1))
    assert (rule._walk.func is rules._shift_levels) == shifts
    walked = rule._walk(x, n)
    assert walked[0] is x
    assert bits(walked) == bits([one_step(rule.fn(k))(x) for k in range(1, n + 1)])


def count_walks(rule, sizes):
    """Route the walks of `rule` through a counter, once it has seen every n
    of `sizes`; returns the counter, a list that grows one entry a walk."""
    ids = tuple(f"c{k}" for k in range(max(sizes)))
    for n in sorted(sizes, reverse=True):
        prize_vector(rule, ids[:n], 1.0)
    walks, walk = [], rule._walk

    def counted(x, n):
        walks.append(x)
        return walk(x, n)
    object.__setattr__(rule, "_walk", counted)
    return walks


@pytest.mark.parametrize("spec", ["sp:arithmetic", "sp:cap=2", "sp:linear=0.5",
                                  "sp:pwl=0:0,2:1,4:1", "param:hyperarithmetic"])
def test_prizes_walk_once_per_level_sum(monkeypatch, spec):
    """On the sample of test_estimates_save_level_sums, a level rule walks
    its levels once per level sum its solve evaluates and never again: the
    prizes are the last level sum's terms."""
    rng = random.Random("solver-tables-sample")
    sample = [(head, n, rng.uniform(0.0, 5.0 * n))
              for head in PARITY_SPECS for n in (8, 50, 106) for _ in range(8)]
    rule = parse_rule_spec(spec)
    sample = [(rule, n, e) for head, n, e in sample if head == spec]
    fresh = [prize_vector(parse_rule_spec(spec), tuple(f"c{k}" for k in range(n)), e)
             for _, n, e in sample]
    walks = count_walks(rule, {n for _, n, _ in sample})
    sums = []

    def counted(g, n, e, cfg=DEFAULT_SOLVER, estimate=None):
        def g_counted(x):
            sums.append(x)
            return g(x)
        return solve_level_sum(g_counted, n, e, cfg, estimate)

    monkeypatch.setattr(rules, "solve_level_sum", counted)
    ids = tuple(f"c{k}" for k in range(106))
    assert [prize_vector(rule, ids[:n], e) for _, n, e in sample] == fresh
    assert len(sums) >= len(sample) and walks == sums


def test_a_solver_that_returns_an_unwalked_x_gets_a_fresh_walk(monkeypatch):
    """Prizes come from the kept levels only when the solver returns the x it
    walked last; otherwise, and at E = 0, where no level sum is evaluated,
    the rule walks once more at the x it is given."""
    rule = parse_rule_spec("sp:arithmetic")
    walks = count_walks(rule, {3})

    def solve(g, n, e, cfg=DEFAULT_SOLVER, estimate=None):
        g(1.0)
        return 2.0

    monkeypatch.setattr(rules, "solve_level_sum", solve)
    assert prize_vector(rule, ("a", "b", "c"), 6.0) == (2.0, 1.0, 0.0)
    assert walks == [1.0, 2.0]
    monkeypatch.undo()
    assert prize_vector(rule, ("a", "b", "c"), 0.0) == (0.0, 0.0, 0.0)
    assert walks == [1.0, 2.0, 0.0]


class TestIntervalLocate:
    def test_inside(self):
        ivs = IntervalList.of((1.0, 2.0), (3.0, 5.0))
        assert interval_locate(ivs, 1.5) == 0
        assert interval_locate(ivs, 4.0) == 1

    def test_outside(self):
        ivs = IntervalList.of((1.0, 2.0), (3.0, 5.0))
        assert interval_locate(ivs, 0.5) is None
        assert interval_locate(ivs, 2.5) is None
        assert interval_locate(ivs, 6.0) is None

    def test_shared_endpoint_takes_first(self):
        ivs = IntervalList.of((1.0, 2.0), (2.0, 3.0))
        assert interval_locate(ivs, 2.0) == 0

    def test_infinite_tail(self):
        ivs = IntervalList.of((1.0, math.inf))
        assert interval_locate(ivs, 1e12) == 0

    @given(st.data())
    @settings(max_examples=200)
    def test_bisection_finds_what_a_scan_finds(self, data):
        ivs = data.draw(run_intervals())
        ends = [v for pair in ivs.pairs for v in pair]
        avg = data.draw(st.one_of(
            st.sampled_from([math.nan, math.inf, -math.inf, -0.0, *ends]),
            st.sampled_from(ends).flatmap(lambda v: st.sampled_from(
                [math.nextafter(v, -math.inf), math.nextafter(v, math.inf)])),
            st.sampled_from(ends).filter(math.isfinite).map(
                lambda v: Fraction(v) + Fraction(1, 3 * 2 ** 60)),
            st.floats(allow_nan=False),
        ))
        assert interval_locate(ivs, avg) == locate_by_scan(ivs, avg)

    def test_bisection_is_no_field(self):
        ivs = IntervalList.of((1.0, 2.0), (2.0, math.inf))
        assert ivs.uppers == (2.0, math.inf)
        assert ivs.to_dict() == {"pairs": [[1.0, 2.0], [2.0, math.inf]]}
        assert ivs == IntervalList.of((1.0, 2.0), (2.0, math.inf))
        assert "uppers" not in repr(ivs)


class TestTracePath:
    def test_grid_and_endpoint(self):
        trace = trace_path(ED(), 2, 1.0, step=0.25)
        assert trace.endowments() == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_irregular_endpoint_included(self):
        trace = trace_path(ED(), 2, 1.1, step=0.25)
        assert trace.endowments()[-1] == 1.1

    def test_samples_match_direct_allocation(self):
        rule = step_rule()
        trace = trace_path(rule, 3, 4.0, step=1.0)
        for e, alloc in trace.samples:
            comp = standard_competition(3, e)
            assert alloc.by_position(comp.ranking) == allocate(rule, comp).by_position(
                comp.ranking
            )

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            trace_path(ED(), 2, -1.0)
        with pytest.raises(ValueError):
            trace_path(ED(), 2, 1.0, step=0.0)

    def test_row_cap(self):
        # the same cap as an endowment range in `table`
        assert len(trace_path(ED(), 1, MAX_RANGE_ROWS - 1, step=1.0).samples) == MAX_RANGE_ROWS
        with pytest.raises(InvalidPath):
            trace_path(ED(), 1, MAX_RANGE_ROWS, step=1.0)
        with pytest.raises(InvalidPath):  # 10^12 rows: refused before any is built
            trace_path(ED(), 2, 1e6, step=1e-6)


# ---------------------------------------------------------------------------
# The level rules' piecewise-linear models of their level sums


def model_level_sum(pieces, x):
    """g(x) read off a rule's piecewise-linear model of its level sum."""
    xs, gs, slopes = pieces
    i = bisect_right(xs, x) - 1
    return gs[i] + slopes[i] * (x - xs[i])


def assert_model_matches(pieces, g, extra):
    """The model against g at its own piece starts and at the points
    `extra`, within a relative 1e-9 (and 1e-300 for subnormal values)."""
    for x in [x for x in pieces[0] if x < math.inf] + extra:
        assert math.isclose(model_level_sum(pieces, x), g(x), rel_tol=1e-9, abs_tol=1e-300), x


@given(st.data(), FIXED_POINT_FNS, st.sampled_from(FIXED_POINT_SIZES))
@example(None, MonotoneFn.piecewise([(0.0, 0.0), (2.0, 1.0), (4.0, 1.0)]), 106)
@settings(max_examples=300)
def test_single_parametric_model_matches_the_walk(data, fn, n):
    """For every kind of f, the zeros of either sign and flat tails, the
    model of g(x) = x + f(x) + f(f(x)) + ... is the walk's sum, up to the
    model's last point, where g is still finite, and beyond it."""
    pieces = rules._iterated_pieces(fn, n)

    def g(x):
        return sum(iterates(fn, x, n))
    top = pieces[0][-1]
    assume(g(top) < math.inf)
    extra = [0.5 * top, 1.5 * top] + (data.draw(st.lists(
        st.floats(min_value=0.0, max_value=top), max_size=5)) if data else [])
    assert_model_matches(pieces, g, [x for x in extra if g(x) < math.inf])


@given(st.data(), st.lists(MONOTONE_FNS, max_size=6))
@settings(max_examples=300)
def test_parametric_model_matches_the_level_sum(data, fns):
    """The same for a parametric rule's levels, pwl ones too: the model of
    x + f_2(x) + ... + f_n(x)."""
    pieces = rules._pieces(fns)
    top = 2.0 * max(x for x in pieces[0] if x < math.inf) + 1.0
    extra = data.draw(st.lists(st.floats(min_value=0.0, max_value=top), max_size=5))
    assert_model_matches(pieces, lambda x: x + sum(f(x) for f in fns), extra)


def test_an_f_of_many_bends_gets_no_model():
    """Each bend of f costs the model up to 2 n steps, so past 4 bends the
    rule builds none and its solves are plain bisection."""
    fn = MonotoneFn.piecewise([(0.0, 0.0), (1.0, 0.5), (2.0, 0.7), (3.0, 1.5), (4.0, 2.0),
                               (5.0, 2.2), (6.0, 3.0), (7.0, 3.5)])
    assert rules._iterated_pieces(fn, 50) is None
    rule = SingleParametric(fn)
    for n, e in ((1, 0.7), (5, 9.0), (50, 120.0)):
        with pytest.MonkeyPatch.context() as patch:
            probed = vector_outcome(rule, n, e, DEFAULT_SOLVER)
            patch.setattr(rules, "solve_level_sum", plain_bisection)
            assert probed == vector_outcome(rule, n, e, DEFAULT_SOLVER)
    assert rule._by_n == {1: None, 5: None, 50: None}
