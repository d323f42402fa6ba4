
import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from prizealloc.analysis import FitReport, check_data_top_consistency, fit_geometric
from prizealloc.core import (
    Allocation,
    Competition,
    DuplicateId,
    EmptySubset,
    EventSet,
    InconsistentPositionCounts,
    KeyMismatch,
    NegativeEndowment,
    NonFiniteEndowment,
    NotAPermutation,
    PrizeAllocError,
    PrizeTable,
    Ranking,
    UnknownCompetitor,
    make_competition,
    standard_competition,
    subranking,
    tau_sum,
    validate_allocation,
)
from prizealloc.rules import ED, WTA, Geometric, MonotoneFn
from prizealloc.solver import SolverConfig


class TestRanking:
    def test_positions_and_ids(self):
        r = Ranking(("a", "b", "c"))
        assert r.n == 3
        assert r.position_of("a") == 1
        assert r.position_of("c") == 3
        assert r.id_at(1) == "a"
        assert r.competitors == {"a", "b", "c"}

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateId):
            Ranking(("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(NotAPermutation):
            Ranking(())

    def test_empty_id_rejected(self):
        with pytest.raises(DuplicateId):
            Ranking(("a", ""))

    def test_unknown_competitor(self):
        with pytest.raises(UnknownCompetitor):
            Ranking(("a",)).position_of("z")


class TestCompetition:
    def test_negative_endowment_rejected(self):
        with pytest.raises(NegativeEndowment):
            Competition(ranking=Ranking(("a",)), endowment=-1.0)
        with pytest.raises(NegativeEndowment):
            Competition(ranking=Ranking(("a",)), endowment=-math.inf)

    @pytest.mark.parametrize("endowment", [math.nan, math.inf])
    def test_non_finite_endowment_rejected(self, endowment):
        with pytest.raises(NonFiniteEndowment):
            Competition(ranking=Ranking(("a",)), endowment=endowment)

    def test_zero_endowment_allowed(self):
        assert Competition(ranking=Ranking(("a",)), endowment=0.0).endowment == 0.0

    @pytest.mark.parametrize("endowment", [10 ** 400, Fraction(10 ** 400, 3)],
                             ids=["int", "fraction"])
    def test_endowment_beyond_the_float_range_rejected(self, endowment):
        """0 <= E < inf holds for an int or Fraction with no float value."""
        with pytest.raises(NonFiniteEndowment, match="endowment must be finite"):
            Competition(Ranking(("a",)), endowment)
        with pytest.raises(NonFiniteEndowment, match="endowment must be finite"):
            standard_competition(3, endowment)
        with pytest.raises(NonFiniteEndowment, match="endowment must be finite"):
            make_competition(["a"], [1], endowment)
        with pytest.raises(NonFiniteEndowment, match="endowment must be finite"):
            PrizeTable(name="x", endowment=endowment, prizes=(1.0,))

    @pytest.mark.parametrize("endowment, text", [
        (10 ** 400, "1.00000e+400"), (Fraction(10 ** 400, 3), "3.33333e+399"),
        (-10 ** 400, "-1.00000e+400"), (10 ** 5000, "1.00000e+5000")],
        ids=["int", "fraction", "negative", "5001-digits"])
    def test_huge_endowment_is_named_in_short(self, endowment, text):
        """str() holds every digit of such an E (and raises above 4,300 of
        them): the message holds six and the power of ten."""
        for build in (lambda: Competition(Ranking(("a",)), endowment),
                      lambda: standard_competition(3, endowment),
                      lambda: PrizeTable(name="x", endowment=endowment, prizes=(1.0,))):
            with pytest.raises(PrizeAllocError) as exc:
                build()
            assert str(exc.value).startswith("endowment must be finite and >")
            assert str(exc.value).endswith(f", got {text}")
            assert len(str(exc.value)) <= 60

    def test_make_competition_maps_positions(self):
        comp = make_competition(["x", "y", "z"], [2, 1, 3], 6.0)
        assert comp.ranking.by_position == ("y", "x", "z")

    def test_make_competition_rejects_non_permutation(self):
        with pytest.raises(NotAPermutation):
            make_competition(["x", "y"], [1, 3], 1.0)
        with pytest.raises(NotAPermutation):
            make_competition(["x", "y"], [1, 1], 1.0)

    def test_make_competition_rejects_duplicates(self):
        with pytest.raises(DuplicateId):
            make_competition(["x", "x"], [1, 2], 1.0)

    def test_standard_competition(self):
        comp = standard_competition(3, 5.0)
        assert comp.ranking.by_position == ("c1", "c2", "c3")
        assert comp.endowment == 5.0

    def test_standard_competition_equals_a_fresh_build(self):
        rng = random.Random("standard-competition")
        for n in [rng.randint(1, 20) for _ in range(200)]:
            e = rng.choice([0.0, 1.0, rng.uniform(0.0, 100.0)])
            fresh = Competition(Ranking(tuple(f"c{k}" for k in range(1, n + 1))), e)
            assert standard_competition(n, e) == fresh

    def test_standard_competition_shares_the_last_ranking(self):
        first = standard_competition(5, 1.0).ranking
        assert standard_competition(5, 2.0).ranking is first
        assert standard_competition(5, 3.0, "c").ranking is first
        assert standard_competition(5, 1.0, "p").ranking.by_position[0] == "p1"
        again = standard_competition(5, 1.0).ranking
        assert again == first and again is not first  # another prefix replaced it
        assert standard_competition(6, 1.0).ranking.n == 6
        assert standard_competition(5, 1.0).ranking is not again  # another n replaced it

    def test_standard_competition_refuses_every_bad_field(self):
        standard_competition(3, 1.0)
        for _ in range(2):  # a raise is never kept, and a float n is not the int
            with pytest.raises(NotAPermutation, match="ranking must cover at least one competitor"):
                standard_competition(0, 1.0)
            with pytest.raises(TypeError):
                standard_competition(3.0, 1.0)


class TestSubranking:
    def test_preserves_relative_order(self):
        r = Ranking(("a", "b", "c", "d"))
        assert subranking(r, {"d", "b"}).by_position == ("b", "d")

    def test_empty_subset_rejected(self):
        with pytest.raises(EmptySubset):
            subranking(Ranking(("a",)), set())

    def test_unknown_member_rejected(self):
        with pytest.raises(UnknownCompetitor):
            subranking(Ranking(("a",)), {"a", "z"})

    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_relative_order_property(self, n, data):
        ids = tuple(f"c{k}" for k in range(n))
        subset = data.draw(st.sets(st.sampled_from(ids), min_size=1))
        sub = subranking(Ranking(ids), subset)
        positions = [ids.index(cid) for cid in sub.by_position]
        assert positions == sorted(positions)
        assert set(sub.by_position) == subset


class TestValidateAllocation:
    def test_valid(self):
        comp = standard_competition(2, 4.0)
        assert validate_allocation(comp, Allocation({"c1": 3.0, "c2": 1.0}))

    def test_sum_mismatch(self):
        comp = standard_competition(2, 4.0)
        assert not validate_allocation(comp, Allocation({"c1": 3.0, "c2": 0.5}))

    def test_negative_prize(self):
        comp = standard_competition(2, 4.0)
        assert not validate_allocation(comp, Allocation({"c1": 5.0, "c2": -1.0}))

    def test_key_mismatch_raises(self):
        comp = standard_competition(2, 4.0)
        with pytest.raises(KeyMismatch):
            validate_allocation(comp, Allocation({"c1": 4.0}))

    def test_tolerance_scales_with_endowment(self):
        assert tau_sum(0.5) == 1e-9
        assert tau_sum(1e6) == pytest.approx(1e-3)
        comp = standard_competition(1, 1e9)
        assert validate_allocation(comp, Allocation({"c1": 1e9 + 0.1}))


class TestPrizeTable:
    def test_prizes_may_undershoot_endowment(self):
        t = PrizeTable(name="x", endowment=10.0, prizes=(5.0, 2.0))
        assert sum(t.prizes) < t.endowment

    def test_prizes_exceeding_endowment_rejected(self):
        with pytest.raises(PrizeAllocError):
            PrizeTable(name="x", endowment=5.0, prizes=(4.0, 2.0))

    def test_negative_prize_rejected(self):
        with pytest.raises(PrizeAllocError):
            PrizeTable(name="x", endowment=5.0, prizes=(-1.0,))

    def test_nonpositive_endowment_rejected(self):
        with pytest.raises(NegativeEndowment):
            PrizeTable(name="x", endowment=0.0, prizes=())

    @pytest.mark.parametrize("endowment", [math.inf, math.nan])
    def test_non_finite_endowment_rejected(self, endowment):
        with pytest.raises(NonFiniteEndowment):
            PrizeTable(name="x", endowment=endowment, prizes=(1.0,))

    @pytest.mark.parametrize("prize", [math.inf, math.nan])
    def test_non_finite_prize_rejected(self, prize):
        with pytest.raises(PrizeAllocError):
            PrizeTable(name="x", endowment=5.0, prizes=(prize,))


class TestEventSet:
    def test_mismatched_position_counts_rejected(self):
        a = PrizeTable(name="a", endowment=10.0, prizes=(5.0, 3.0))
        b = PrizeTable(name="b", endowment=10.0, prizes=(5.0,))
        with pytest.raises(InconsistentPositionCounts):
            EventSet(events=(a, b))

    def test_empty_rejected(self):
        with pytest.raises(PrizeAllocError):
            EventSet(events=())

    def test_positions(self):
        a = PrizeTable(name="a", endowment=10.0, prizes=(5.0, 3.0))
        assert EventSet(events=(a,)).positions == 2


class TestRecord:
    """The value records behave as the frozen dataclasses they replace."""

    def test_repr(self):
        assert repr(ED()) == "ED()"
        assert repr(Geometric(0.5)) == "Geometric(lam=0.5, allow_above_one=False)"
        assert repr(SolverConfig()) == "SolverConfig(residual_tol=1e-10, max_iter=200)"
        assert repr(standard_competition(2, 3.0)) == (
            "Competition(ranking=Ranking(by_position=('c1', 'c2')), endowment=3.0)")

    def test_equal_records_hash_equal(self):
        pairs = [(Geometric(0.5), Geometric(lam=0.5, allow_above_one=False)),
                 (MonotoneFn.shift(1.0), MonotoneFn("shift", 1.0)),
                 (standard_competition(3, 2.0), Competition(Ranking(("c1", "c2", "c3")), 2.0)),
                 (Allocation({"a": 1.0}), Allocation(prizes={"a": 1.0}))]
        for a, b in pairs:
            assert a == b and not a != b
            if not isinstance(a, Allocation):  # a dict field is unhashable
                assert hash(a) == hash(b)
        assert Geometric(0.5) != Geometric(0.25)

    def test_records_of_two_classes_are_unequal(self):
        assert ED() != WTA() and not ED() == WTA()
        assert Ranking(("a",)) != ("a",)

    def test_assignment_and_deletion_raise(self):
        rule = Geometric(0.5)
        with pytest.raises(AttributeError):
            rule.lam = 0.25
        with pytest.raises(AttributeError):
            del rule.lam
        comp = standard_competition(2, 1.0)
        with pytest.raises(AttributeError):
            comp.endowment = 2.0
        assert rule.lam == 0.5 and comp.endowment == 1.0

    @pytest.mark.parametrize("build", [
        lambda: Geometric(), lambda: Geometric(lamb=0.5), lambda: Geometric(0.5, lam=0.5),
        lambda: Geometric(0.5, False, 1), lambda: Ranking(), lambda: ED(1),
        lambda: Competition(Ranking(("a",))), lambda: Competition(Ranking(("a",)), 1.0, x=1),
        lambda: Allocation(), lambda: Allocation({}, {})])
    def test_missing_or_unknown_arguments_raise_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    def test_a_field_given_twice_is_named_with_its_class(self):
        with pytest.raises(TypeError, match=r"^Geometric\(\) got the field 'lam' by position"):
            Geometric(0.5, lam=0.5)
        with pytest.raises(TypeError, match=r"^PrizeTable\(\) got the field 'name' "):
            PrizeTable("x", 10.0, name="x", prizes=(1.0,))

    def test_to_dict_holds_lists_where_the_record_holds_tuples(self):
        report = FitReport("f", {"shares": (2.0, 1.0)}, 0.0, True, 0.01, ("w",))
        assert report.to_dict() == {"family": "f", "parameters": {"shares": [2.0, 1.0]},
                                    "max_rel_dev": 0.0, "verdict": True, "tolerance": 0.01,
                                    "warnings": ["w"]}
        assert standard_competition(2, 3.0).to_dict() == {"ranking": ["c1", "c2"],
                                                          "endowment": 3.0}

    def test_fit_report_is_unhashable(self):
        report = fit_geometric(PrizeTable(name="x", endowment=10.0, prizes=(4.0, 2.0, 1.0)))
        with pytest.raises(TypeError):
            hash(report)

    def test_dataclasses_replace(self):
        table = PrizeTable(name="x", endowment=10.0, prizes=(4.0, 4.0, 1.0))
        verdict = check_data_top_consistency(table, Geometric(0.5), tol=0.01)
        witness = verdict.witness
        report = fit_geometric(table)
        for record, change in ((witness, {"lhs": witness.rhs}), (verdict, {"passed": True}),
                               (report, {"family": "other"})):
            new = dataclasses.replace(record, **change)
            assert type(new) is type(record) and new != record
            assert new == record.replace(**change)
            assert all(getattr(new, k) == v for k, v in change.items())
            assert dataclasses.replace(new, **{k: getattr(record, k) for k in change}) == record
        with pytest.raises(TypeError):
            report.replace(shape="geometric")
