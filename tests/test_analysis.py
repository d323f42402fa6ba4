import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from prizealloc.core import EventSet, PrizeAllocError, PrizeTable, standard_competition
from prizealloc.analysis import (
    FIT_FAMILIES,
    TooFewPositions,
    check_data_top_consistency,
    classify,
    detect_interval_pattern,
    fit_family,
    fit_geometric,
    fit_proportional,
)
from prizealloc.axioms import InvalidCheck, verify_witness
from prizealloc.cli import load_prize_data, parse_rule_spec
from prizealloc.rules import (
    Geometric,
    Interval,
    IntervalList,
    Proportional,
    allocate,
)

from golden import (
    GENESIS_ENDOWMENT,
    GENESIS_PRIZES,
    POKER_ENDOWMENT,
    POKER_PRIZES,
    SAFEWAY_ENDOWMENT,
    SAFEWAY_PRIZES,
)

POKER = PrizeTable(name="poker", endowment=POKER_ENDOWMENT, prizes=POKER_PRIZES)
GENESIS = PrizeTable(name="genesis", endowment=GENESIS_ENDOWMENT, prizes=GENESIS_PRIZES)
SAFEWAY = PrizeTable(name="safeway", endowment=SAFEWAY_ENDOWMENT, prizes=SAFEWAY_PRIZES)
GOLF = EventSet(events=(GENESIS, SAFEWAY))


def synthesize(rule, n, endowment):
    comp = standard_competition(n, endowment)
    return allocate(rule, comp).by_position(comp.ranking)


class TestFitGeometric:
    def test_exact_sequence(self):
        t = PrizeTable(name="t", endowment=15.0, prizes=(8.0, 4.0, 2.0, 1.0))
        fit = fit_geometric(t)
        assert fit.parameters["lam"] == pytest.approx(0.5, abs=1e-12)
        assert fit.max_rel_dev == pytest.approx(0.0, abs=1e-12)
        assert fit.verdict

    def test_poker_table(self):
        fit = fit_geometric(POKER)
        assert 0.708 <= fit.parameters["lam"] <= 0.718
        assert fit.max_rel_dev < 0.01
        assert fit.verdict

    def test_golf_table_rejected(self):
        fit = fit_geometric(GENESIS)
        assert not fit.verdict
        # consecutive ratios range from ~0.606 up to ~0.935
        ratios = [b / a for a, b in zip(GENESIS_PRIZES, GENESIS_PRIZES[1:])]
        assert min(ratios) < 0.61 and max(ratios) > 0.83

    def test_winner_takes_all_shape(self):
        t = PrizeTable(name="t", endowment=4.0, prizes=(4.0, 0.0, 0.0))
        fit = fit_geometric(t)
        assert fit.parameters["lam"] == 0.0
        assert fit.verdict

    def test_late_zero_block_rejected(self):
        t = PrizeTable(name="t", endowment=6.0, prizes=(4.0, 2.0, 0.0))
        fit = fit_geometric(t)
        assert not fit.verdict
        assert math.isinf(fit.max_rel_dev)

    def test_zero_then_positive_rejected(self):
        t = PrizeTable(name="t", endowment=6.0, prizes=(4.0, 0.0, 2.0))
        fit = fit_geometric(t)
        assert not fit.verdict
        assert fit.warnings

    def test_too_few_positions(self):
        with pytest.raises(TooFewPositions):
            fit_geometric(PrizeTable(name="t", endowment=1.0, prizes=(1.0,)))

    @pytest.mark.parametrize("lam", [k / 10 for k in range(11)])
    def test_round_trip(self, lam):
        prizes = synthesize(Geometric(lam), 6, 100.0)
        fit = fit_geometric(PrizeTable(name="t", endowment=100.0, prizes=prizes))
        assert fit.parameters["lam"] == pytest.approx(lam, abs=1e-9)
        assert fit.max_rel_dev <= 1e-9
        assert fit.verdict


class TestFitProportional:
    def test_single_event_is_always_representable(self):
        ev = EventSet(events=(PrizeTable(name="t", endowment=10.0, prizes=(5.0, 3.0, 2.0)),))
        fit = fit_proportional(ev)
        assert fit.parameters["shares_percent"] == pytest.approx((50.0, 30.0, 20.0))
        assert fit.verdict and fit.max_rel_dev == 0.0

    def test_golf_events(self):
        fit = fit_proportional(GOLF, abs_slack=1.0)
        assert fit.verdict
        shares = fit.parameters["shares_percent"]
        assert shares[0] == pytest.approx(18.0, abs=0.05)
        assert shares[1] == pytest.approx(10.9, abs=0.05)
        # reconstructed winner prize for the larger event
        assert shares[0] / 100 * GENESIS_ENDOWMENT == pytest.approx(1674, abs=1.0)

    def test_non_monotone_shares_rejected(self):
        a = PrizeTable(name="a", endowment=3.0, prizes=(2.0, 1.0))
        b = PrizeTable(name="b", endowment=3.0, prizes=(1.0, 2.0))
        fit = fit_proportional(EventSet(events=(a, b)))
        assert not fit.verdict

    def test_no_prizes(self):
        with pytest.raises(TooFewPositions):
            fit_proportional(EventSet(events=(PrizeTable(name="t", endowment=1.0, prizes=()),)))

    def test_round_trip_two_endowments(self):
        rule = Proportional((5.0, 3.0, 1.5, 0.5))
        events = []
        for e in (40.0, 90.0):
            events.append(PrizeTable(name=f"e{e}", endowment=e,
                                     prizes=synthesize(rule, 4, e)))
        fit = fit_proportional(EventSet(events=tuple(events)))
        assert fit.verdict and fit.max_rel_dev <= 1e-9
        total = 5.0 + 3.0 + 1.5 + 0.5
        expected = tuple(100 * w / total for w in (5.0, 3.0, 1.5, 0.5))
        assert fit.parameters["shares_percent"] == pytest.approx(expected, abs=1e-9)


class TestDetectIntervalPattern:
    def test_flat_top_flat_tail(self):
        t = PrizeTable(name="t", endowment=6.0, prizes=(2.0, 2.0, 1.0, 1.0))
        fit = detect_interval_pattern(t)
        assert fit.verdict
        assert fit.parameters["b"] == 2.0 and fit.parameters["a"] == 1.0

    def test_all_equal_matches_trivially(self):
        t = PrizeTable(name="t", endowment=9.0, prizes=(3.0, 3.0, 3.0))
        fit = detect_interval_pattern(t)
        assert fit.verdict
        assert fit.parameters["a"] == fit.parameters["b"] == 3.0

    def test_strictly_decreasing_has_no_match(self):
        share_table = PrizeTable(name="poker", endowment=POKER_ENDOWMENT,
                                 prizes=POKER_PRIZES)
        assert not detect_interval_pattern(share_table).verdict

    def test_too_few_positions(self):
        with pytest.raises(TooFewPositions):
            detect_interval_pattern(PrizeTable(name="t", endowment=1.0, prizes=(1.0,)))

    def test_increasing_prizes_admit_no_split(self):
        events = EventSet(events=(PrizeTable(name="t", endowment=6.0, prizes=(1.0, 2.0, 3.0)),))
        fit = fit_family(events, "interval")
        assert (fit.verdict, fit.max_rel_dev, fit.parameters) == (False, math.inf, {})
        assert fit.warnings == ("no split position admits the flat-top/flat-tail shape",)

    @given(
        st.integers(min_value=2, max_value=6),
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=0.001, max_value=0.999),
    )
    @settings(max_examples=300)
    def test_every_interval_allocation_matches(self, n, a, width, frac):
        b = a + width
        endowment = n * a + frac * n * (b - a)
        prizes = synthesize(Interval(IntervalList.of((a, b))), n, endowment)
        if endowment <= 0:
            return
        fit = detect_interval_pattern(
            PrizeTable(name="t", endowment=endowment, prizes=prizes))
        assert fit.verdict


class TestClassify:
    def test_poker_is_locally_consistent(self):
        result = classify(EventSet(events=(POKER,)))
        assert result.tier == "locally-consistent"
        assert result.order_preserved
        assert not result.interval_pattern.verdict

    def test_golf_is_top_consistent(self):
        result = classify(GOLF, abs_slack=1.0)
        assert result.tier == "top-consistent"
        assert not result.geometric.verdict
        assert result.proportional.verdict
        assert result.scale_invariant_across_events is not None
        assert result.scale_invariant_across_events.verdict

    def test_interval_shape_table(self):
        ev = EventSet(events=(PrizeTable(name="t", endowment=6.0,
                                         prizes=(2.0, 2.0, 1.0, 1.0)),))
        assert classify(ev).tier == "consistent-shape"

    def test_ordered_but_no_family_fits(self):
        ev = EventSet(events=(PrizeTable(name="a", endowment=20.0, prizes=(10.0, 6.0, 3.0, 1.0)),
                              PrizeTable(name="b", endowment=21.0, prizes=(10.0, 8.0, 2.0, 1.0))))
        result = classify(ev)
        assert result.tier == "unordered"
        assert result.order_preserved
        assert not (result.interval_pattern.verdict or result.geometric.verdict
                    or result.proportional.verdict)

    def test_unordered(self):
        ev = EventSet(events=(PrizeTable(name="t", endowment=6.0,
                                         prizes=(1.0, 3.0, 2.0)),))
        result = classify(ev)
        assert result.tier == "unordered"
        assert not result.order_preserved


class TestFitFamily:
    @pytest.mark.parametrize("data", ["pga2019.json", "wcoop2019.json"])
    def test_classify_reports_each_family_as_fit_family_fits_it(self, data):
        events = load_prize_data(data)
        result = classify(events, abs_slack=1.0)
        reports = (result.geometric, result.proportional, result.interval_pattern)
        assert tuple(r.family for r in reports) == FIT_FAMILIES
        for family, report in zip(FIT_FAMILIES, reports):
            assert fit_family(events, family, abs_slack=1.0) == report

    def test_a_per_event_fit_holds_only_if_every_event_fits(self):
        geometric = PrizeTable(name="g", endowment=20.0, prizes=(8.0, 4.0, 2.0, 1.0))
        flat = PrizeTable(name="f", endowment=20.0, prizes=(3.0, 3.0, 3.0, 3.0))
        events = EventSet(events=(geometric, flat))
        assert fit_geometric(geometric).verdict and fit_geometric(flat).verdict
        assert detect_interval_pattern(flat).verdict
        assert not detect_interval_pattern(geometric).verdict
        report = fit_family(events, "interval")
        assert report == detect_interval_pattern(geometric)
        assert fit_family(events, "geometric").verdict

    def test_unknown_family(self):
        with pytest.raises(PrizeAllocError, match="unknown fit family 'linear'"):
            fit_family(EventSet(events=(POKER,)), "linear")


class TestDataTopConsistency:
    def test_poker_prefixes_under_fitted_geometric(self):
        lam = fit_geometric(POKER).parameters["lam"]
        verdict = check_data_top_consistency(POKER, Geometric(lam), tol=0.01)
        assert verdict.passed

    def test_golf_prefixes_under_fitted_proportional(self):
        shares = fit_proportional(GOLF, abs_slack=1.0).parameters["shares_percent"]
        rule = Proportional(tuple(s / 100 for s in shares))
        verdict = check_data_top_consistency(GENESIS, rule, tol=0.01, abs_slack=1.0)
        assert verdict.passed

    def test_golf_prefixes_fail_under_geometric(self):
        lam = fit_geometric(GENESIS).parameters["lam"]
        verdict = check_data_top_consistency(GENESIS, Geometric(lam), tol=0.01)
        assert not verdict.passed
        assert verdict.witness is not None

    @pytest.mark.parametrize("event", load_prize_data("pga2019.json").events,
                             ids=lambda ev: ev.name)
    def test_witness_round_trip(self, event):
        rule = parse_rule_spec("geometric:lambda=0.7")
        verdict = check_data_top_consistency(event, rule)
        assert not verdict.passed
        ok, margin = verify_witness(rule, verdict.witness)
        assert ok and margin == verdict.witness.margin
        # the predicted prize in place of the observed one reproduces itself
        fixed = replace(verdict.witness, lhs=verdict.witness.rhs)
        assert verify_witness(rule, fixed) == (False, 0.0)


FITS = {
    "fit_geometric": lambda tol, slack: fit_geometric(POKER, tol, slack),
    "fit_proportional": lambda tol, slack: fit_proportional(GOLF, tol, slack),
    "detect_interval_pattern": lambda tol, slack: detect_interval_pattern(GENESIS, tol, slack),
    "classify": lambda tol, slack: classify(GOLF, tol, slack),
    "check_data_top_consistency":
        lambda tol, slack: check_data_top_consistency(POKER, Geometric(0.7), tol, slack),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("name", FITS)
def test_unusable_tolerance_or_slack_rejected(name, value):
    with pytest.raises(InvalidCheck, match="tolerance must be finite and >= 0"):
        FITS[name](value, 0.0)
    with pytest.raises(InvalidCheck, match="slack must be finite and >= 0"):
        FITS[name](0.01, value)
