import inspect
import math
from collections import Counter
from dataclasses import dataclass
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prizealloc import axioms
from prizealloc.axioms import (
    MATRIX_CELLS,
    MIN_STRICT_GAP,
    MONOTONICITY_MODES,
    InvalidCheck,
    PreconditionNotChecked,
    SampleBudget,
    Verdict,
    Witness,
    cell_key,
    check_anonymity,
    check_consistency,
    check_endowment_monotonicity,
    check_lipschitz,
    check_order_preservation,
    check_scale_invariance,
    run_axiom_matrix,
    run_cell,
    verify_witness,
)
from prizealloc.cli import bundled_rules, parse_rule_spec
from prizealloc.core import TAU_EQ, Competition, PrizeAllocError, Ranking
from prizealloc.rules import (
    ED,
    WTS,
    Counterexample,
    Geometric,
    Interval,
    IntervalList,
    InvalidRuleParams,
    MonotoneFn,
    Parametric,
    Proportional,
    RuleSpec,
    SingleParametric,
    describe,
    hyperarithmetic_rule,
)

from golden import GOLDEN_MATRIX, matrix_key
from test_rules import piecewise_fns

CELL_KEYS = [cell_key(a, m) for a, m in MATRIX_CELLS]

# A small budget keeps the single-checker tests fast; the full default
# budget is exercised by the session-scoped matrix fixture.
SMALL = SampleBudget(max_n=4, endowment_grid=tuple(k * 0.5 for k in range(13)))
SMALL_PAIRS = SampleBudget(max_n=4, endowment_grid=tuple(k * 0.5 for k in range(21)))


class TestSampleBudget:
    def test_default_grid_composition(self):
        grid = SampleBudget().endowment_grid
        assert len(grid) == 91
        assert grid[:41] == tuple(k * 0.25 for k in range(41))
        assert all(0.0 <= e <= 10.0 for e in grid)

    def test_seed_determinism(self):
        assert SampleBudget(rng_seed=7).endowment_grid == SampleBudget(rng_seed=7).endowment_grid
        assert SampleBudget(rng_seed=7).endowment_grid != SampleBudget(rng_seed=8).endowment_grid

    def test_validation(self):
        with pytest.raises(ValueError):
            SampleBudget(max_n=1)
        with pytest.raises(ValueError):
            SampleBudget(endowment_grid=(-1.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e308,
                                     math.nextafter(axioms.MAX_GRID_ENDOWMENT, math.inf)])
    def test_grid_must_be_finite_with_room_to_round(self, bad):
        with pytest.raises(axioms.InvalidBudget, match="finite"):
            SampleBudget(max_n=3, endowment_grid=(1.0, bad))

    def test_largest_grid_endowment_runs(self):
        def marks(grid):
            row = run_axiom_matrix([ED()], SampleBudget(max_n=3, endowment_grid=grid))["ed"]
            return {key: verdict.passed for key, verdict in row.items()}

        assert marks((1.0, axioms.MAX_GRID_ENDOWMENT)) == marks((1.0, 2.0))

    def test_invalid_budget_is_a_package_error(self):
        with pytest.raises(PrizeAllocError):
            SampleBudget(max_n=0)

    def test_field_size_is_capped(self):
        assert axioms.MAX_FIELD_SIZE == 12
        SampleBudget(max_n=12)
        with pytest.raises(PrizeAllocError):
            SampleBudget(max_n=13)

    def test_scan_grid_puts_round_values_first(self):
        budget = SampleBudget(endowment_grid=(0.3, 1.0, 0.13, 0.25))
        assert budget.scan_grid() == (0.25, 1.0, 0.13, 0.3)

    def test_grid_orders_are_kept_once_per_budget_and_are_no_fields(self):
        budget = SampleBudget(endowment_grid=(0.3, 1.0, 0.13, 0.25, 1.0))
        assert budget.sorted_grid() is budget.sorted_grid() == (0.13, 0.25, 0.3, 1.0)
        assert budget.scan_grid() is budget.scan_grid()
        twin = SampleBudget(endowment_grid=(0.3, 1.0, 0.13, 0.25, 1.0))
        assert twin == budget and hash(twin) == hash(budget)
        assert repr(budget) == ("SampleBudget(max_n=5, endowment_grid=(0.3, 1.0, 0.13, 0.25, "
                                "1.0), rng_seed=0)")
        assert budget.to_dict() == {"max_n": 5, "endowment_grid": [0.3, 1.0, 0.13, 0.25, 1.0],
                                    "rng_seed": 0}

    def test_describe_names_a_custom_grid(self):
        one, seven = (SampleBudget(max_n=3, endowment_grid=(0.0, e)) for e in (1.0, 7.0))
        assert one.describe() == "max_n=3, 2 grid endowments [0.0, 1.0], seed=0"
        assert seven.describe() == "max_n=3, 2 grid endowments [0.0, 7.0], seed=0"
        assert SampleBudget(max_n=3, rng_seed=2).describe() == "max_n=3, 91 grid endowments, seed=2"
        default = SampleBudget(max_n=3).endowment_grid
        assert SampleBudget(max_n=3, endowment_grid=default).describe() == (
            "max_n=3, 91 grid endowments, seed=0")


class TestSingleCheckers:
    def test_anonymity_pass_for_position_based_rule(self):
        assert check_anonymity(ED(), SMALL).passed

    def test_anonymity_fail_for_designated_pair_rule(self):
        rule = Counterexample("pair-favoritism", i="p", j="q")
        verdict = check_anonymity(rule, SMALL)
        assert not verdict.passed
        w = verdict.witness
        assert w.competitions[0].ranking.n == 2  # minimal field size
        ok, margin = verify_witness(rule, w)
        assert ok and margin > 1e-9

    def test_order_weak_fail(self):
        verdict = check_order_preservation(Counterexample("lowest-takes-all"), SMALL, "weak")
        assert not verdict.passed
        assert verdict.witness.competitions[0].ranking.n == 2

    def test_order_strict_modes_skip_zero_endowment(self):
        # at E = 0 every rule ties; strict modes must not call that a failure
        verdict = check_order_preservation(Geometric(0.5), SMALL, "strict")
        assert verdict.passed

    def test_order_winner_loser_fail_for_equal_division(self):
        verdict = check_order_preservation(ED(), SMALL, "winner_loser_strict")
        assert not verdict.passed
        w = verdict.witness
        assert w.position == 1
        assert verify_witness(ED(), w)[0]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            check_order_preservation(ED(), SMALL, "bogus")
        with pytest.raises(ValueError):
            check_endowment_monotonicity(ED(), SMALL, "bogus")
        with pytest.raises(ValueError):
            check_consistency(ED(), SMALL, "bogus")

    def test_monotonicity_weak_fail_for_threshold_switch(self):
        rule = Counterexample("threshold-switch")
        verdict = check_endowment_monotonicity(rule, SMALL, "weak")
        assert not verdict.passed
        w = verdict.witness
        assert w.competitions[0].endowment < w.competitions[1].endowment
        ok, margin = verify_witness(rule, w)
        assert ok and margin > 1e-9

    def test_verify_witness_refuses_an_unknown_axiom(self):
        rule = Counterexample("threshold-switch")
        w = check_endowment_monotonicity(rule, SMALL, "weak").witness.replace(axiom="fairness")
        with pytest.raises(InvalidCheck, match="unknown witness axiom: fairness"):
            verify_witness(rule, w)

    def test_monotonicity_winner_strict_fail_for_late_dollar(self):
        verdict = check_endowment_monotonicity(
            Counterexample("late-dollar"), SMALL, "winner_strict")
        assert not verdict.passed
        assert verdict.witness.position == 1

    def test_lipschitz_requires_monotonicity_verdict(self):
        with pytest.raises(PreconditionNotChecked):
            check_lipschitz(ED(), SMALL, None)

    def test_lipschitz_rejects_failed_precondition(self):
        rule = Counterexample("threshold-switch")
        mono = check_endowment_monotonicity(rule, SMALL, "weak")
        with pytest.raises(PreconditionNotChecked):
            check_lipschitz(rule, SMALL, mono)

    def test_lipschitz_rejects_wrong_verdict_kind(self):
        other = check_anonymity(ED(), SMALL)
        with pytest.raises(PreconditionNotChecked):
            check_lipschitz(ED(), SMALL, other)

    def test_lipschitz_precondition_names_what_was_passed(self):
        rule = Counterexample("threshold-switch")
        for verdict, got in ((None, "got None$"),
                             (check_anonymity(ED(), SMALL), "got a passed anonymity verdict"),
                             (check_endowment_monotonicity(rule, SMALL, "weak"),
                              "got a failed endowment_monotonicity verdict of mode 'weak'")):
            with pytest.raises(PreconditionNotChecked, match=got):
                check_lipschitz(rule, SMALL, verdict)

    def test_lipschitz_passes_for_equal_division(self):
        mono = check_endowment_monotonicity(ED(), SMALL, "weak")
        assert check_lipschitz(ED(), SMALL, mono).passed

    def test_scale_invariance_fail_for_wts(self):
        verdict = check_scale_invariance(WTS(1.0), SMALL)
        assert not verdict.passed
        ok, margin = verify_witness(WTS(1.0), verdict.witness)
        assert ok and margin > 1e-9

    def test_consistency_full_fail_for_geometric(self):
        verdict = check_consistency(Geometric(0.5), SMALL, "full")
        assert not verdict.passed
        w = verdict.witness
        assert w.competitions[0].ranking.n == 3
        assert len(w.subset) == 2
        ok, margin = verify_witness(Geometric(0.5), w)
        assert ok and margin > 1e-9

    def test_consistency_local_pass_for_geometric(self):
        assert check_consistency(Geometric(0.5), SMALL, "local").passed

    def test_consistency_local_fail_for_hyperarithmetic(self):
        verdict = check_consistency(hyperarithmetic_rule(), SMALL, "local")
        assert not verdict.passed
        ok, margin = verify_witness(hyperarithmetic_rule(), verdict.witness)
        assert ok and margin > 1e-9

    def test_consistency_top_pass_for_hyperarithmetic(self):
        assert check_consistency(hyperarithmetic_rule(), SMALL, "top").passed

    def test_verdict_states_budget(self):
        verdict = check_anonymity(ED(), SMALL)
        assert "max_n=4" in verdict.budget
        assert verdict.samples_checked > 0

    def test_determinism(self):
        a = check_consistency(Geometric(0.5), SMALL, "full")
        b = check_consistency(Geometric(0.5), SMALL, "full")
        assert a == b


class TestGoldenMatrix:
    def test_matrix_matches_golden(self, axiom_matrix):
        rules, matrix = axiom_matrix
        for rule in rules:
            name = describe(rule)
            row = matrix[name]
            marks = "".join(
                "-" if row[k] is None else ("P" if row[k].passed else "F")
                for k in CELL_KEYS
            )
            assert marks == GOLDEN_MATRIX[matrix_key(name)], name

    def test_every_fail_witness_reverifies(self, axiom_matrix):
        rules, matrix = axiom_matrix
        for rule in rules:
            for k in CELL_KEYS:
                verdict = matrix[describe(rule)][k]
                if verdict is None or verdict.passed:
                    continue
                ok, _ = verify_witness(rule, verdict.witness, verdict.tolerance)
                assert ok, f"{describe(rule)} / {k}"

    def test_equality_type_witness_margins_exceed_tolerance(self, axiom_matrix):
        rules, matrix = axiom_matrix
        equality_axioms = {"anonymity", "consistency", "scale_invariance", "lipschitz"}
        for rule in rules:
            for k in CELL_KEYS:
                verdict = matrix[describe(rule)][k]
                if verdict is None or verdict.passed:
                    continue
                if verdict.witness.axiom in equality_axioms:
                    assert verdict.witness.margin > 1e-9

    def test_mode_nesting(self, axiom_matrix):
        # a rule passing a stricter mode must pass every weaker one
        rules, matrix = axiom_matrix
        orderings = [
            ("order_preservation:strict", "order_preservation:winner_loser_strict"),
            ("order_preservation:winner_loser_strict", "order_preservation:weak"),
            ("endowment_monotonicity:strict", "endowment_monotonicity:winner_strict"),
            ("endowment_monotonicity:winner_strict", "endowment_monotonicity:weak"),
            ("consistency:full", "consistency:bilateral"),
            ("consistency:full", "consistency:local"),
            ("consistency:full", "consistency:top"),
        ]
        for rule in rules:
            row = matrix[describe(rule)]
            for strict_key, weak_key in orderings:
                if row[strict_key] is not None and row[strict_key].passed:
                    assert row[weak_key].passed, f"{describe(rule)}: {strict_key}"

    def test_lipschitz_skipped_only_when_weak_monotonicity_fails(self, axiom_matrix):
        rules, matrix = axiom_matrix
        for rule in rules:
            row = matrix[describe(rule)]
            skipped = row["lipschitz"] is None
            assert skipped == (not row["endowment_monotonicity:weak"].passed)

    def test_named_witnesses_are_small_and_round(self, axiom_matrix):
        rules, matrix = axiom_matrix
        geo = matrix["geometric:lambda=0.5"]["consistency:full"].witness
        assert geo.competitions[0].ranking.n == 3
        assert geo.competitions[0].endowment == 0.25
        hyper = matrix["param:hyperarithmetic"]["consistency:local"].witness
        assert hyper.competitions[0].ranking.n == 3
        assert hyper.competitions[0].endowment == 4.25


# ---------------------------------------------------------------------------
# The endowment-monotonicity row scan against a plain O(G^2) pair scan


def _reference_fault(lo, hi, gap, mode, tol):
    """The monotonicity pair test, restated independently of the package."""
    for pos, (x, y) in enumerate(zip(lo, hi), start=1):
        if x > y + tol:
            return pos, "prize non-decreasing in E", x - y
    if gap < MIN_STRICT_GAP:
        return None
    if mode == "winner_strict" and hi[0] <= lo[0] + tol:
        return 1, "winner prize strictly increasing in E", lo[0] - hi[0] + tol
    if mode == "strict":
        for pos, (x, y) in enumerate(zip(lo, hi), start=1):
            if y <= x + tol:
                return pos, "prize strictly increasing in E", x - y + tol
    return None


def _reference_scan(grid, vecs, mode, tol):
    """First failing (a, b) and the number of pairs tested up to it."""
    count = 0
    for a in range(len(grid)):
        for b in range(a + 1, len(grid)):
            count += 1
            if _reference_fault(vecs[a], vecs[b], grid[b] - grid[a], mode, tol):
                return (a, b), count
    return None, count


@st.composite
def _prize_tables(draw):
    """A grid with gaps below MIN_STRICT_GAP, and prize vectors for n = 1..3
    at every grid point and snap candidate.  Consecutive prizes are equal,
    exactly tol apart, or further apart, in either direction; each table
    draws how often prizes rise, so some violations come late or not at all."""
    tol = draw(st.sampled_from([TAU_EQ, 0.25]))
    points = draw(st.lists(st.tuples(st.integers(0, 24), st.integers(0, 3)),
                           min_size=1, max_size=10, unique=True))
    grid = sorted({k * 0.25 + j * 4e-7 for k, j in points})
    endpoints = sorted(set(grid) | {c for e in grid for c in axioms._snap_candidates(e)})
    rises = draw(st.sampled_from([0, 6, 60]))
    steps = st.sampled_from([0.5] * rises + [0.0, tol, -tol, -0.5])
    table = {}
    for n in range(1, 4):
        prev = [draw(st.sampled_from([0.0, 1.0, 3.0])) for _ in range(n)]
        for e in endpoints:
            prev = [p + draw(steps) for p in prev]
            table[n, e] = tuple(prev)
    return tol, grid, table


@pytest.mark.parametrize("mode", MONOTONICITY_MODES)
@settings(max_examples=150)
@given(data=_prize_tables())
def test_monotonicity_row_scan_matches_pair_scan(mode, data):
    tol, grid, table = data
    expected_witness, expected_count = None, 0
    for n in range(1, 4):
        vecs = [table[n, e] for e in grid]
        hit, count = _reference_scan(grid, vecs, mode, tol)
        # the screen plus walk, walking the reference pair test
        rows = axioms._monotonicity_rows(grid, vecs, mode, tol)
        assert axioms._first_pair(grid, *rows, lambda a, b: _reference_fault(
            vecs[a], vecs[b], grid[b] - grid[a], mode, tol)) == hit
        expected_count += count
        if hit is None:
            continue
        ranking = Ranking(tuple(f"c{k}" for k in range(1, n + 1)))

        def witness(e_lo, e_hi):
            if e_hi <= e_lo:
                return None
            lo, hi = table[n, e_lo], table[n, e_hi]
            fault = _reference_fault(lo, hi, e_hi - e_lo, mode, tol)
            if fault is None:
                return None
            pos, relation, margin = fault
            return Witness(
                axiom="endowment_monotonicity", mode=mode,
                competitions=(Competition(ranking=ranking, endowment=e_lo),
                              Competition(ranking=ranking, endowment=e_hi)),
                subset=None, competitor=f"c{pos}", position=pos,
                lhs=lo[pos - 1], rhs=hi[pos - 1], relation=relation, margin=margin,
            )

        # the witness moves to the first pair of round endowments where the
        # fault persists, the lower endowment's candidates in the outer loop
        a, b = hit
        expected_witness = witness(grid[a], grid[b])
        los = [grid[a]] + axioms._snap_candidates(grid[a])
        his = [grid[b]] + axioms._snap_candidates(grid[b])
        snapped = (witness(lo, hi) for lo in los for hi in his if (lo, hi) != (grid[a], grid[b]))
        expected_witness = next((w for w in snapped if w is not None), expected_witness)
        break
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(axioms, "prize_vector", lambda rule, ids, e, cfg: table[len(ids), e])
        verdict = check_endowment_monotonicity(
            ED(), SampleBudget(max_n=3, endowment_grid=tuple(grid)), mode, tol)
    assert verdict.samples_checked == expected_count
    assert verdict.witness == expected_witness
    assert verdict.passed == (expected_witness is None)


# ---------------------------------------------------------------------------
# The Lipschitz row scan against a plain O(G^2) pair scan


def _reference_lipschitz(grid, vecs, tol):
    """First failing (a, b, position) and the number of pairs tested up to it."""
    count = 0
    for a in range(len(grid)):
        for b in range(a + 1, len(grid)):
            count += 1
            for pos, (x, y) in enumerate(zip(vecs[a], vecs[b]), start=1):
                if abs(y - x) > (grid[b] - grid[a]) + tol:
                    return (a, b, pos), count
    return None, count


@st.composite
def _lipschitz_tables(draw):
    """A grid with gaps below MIN_STRICT_GAP, and prize vectors for n = 1..3
    at every grid point.  From one grid point to the next a prize holds, or
    moves by exactly the endowment gap dE, dE + tol, dE + tol / 2 (a fault
    that builds up over several steps) or 2 dE, in either direction; prizes
    start at magnitudes from 0 to 1e6."""
    tol = draw(st.sampled_from([TAU_EQ, 0.25]))
    points = draw(st.lists(st.tuples(st.integers(0, 24), st.integers(0, 3)),
                           min_size=1, max_size=10, unique=True))
    grid = sorted({k * 0.25 + j * 4e-7 for k, j in points})
    moves = st.sampled_from([0.0, 1.0, 1.0, 2.0, "tol", "half"])
    table = {}
    for n in range(1, 4):
        prev = [draw(st.sampled_from([0.0, 1.0, 3.0, 1e6])) for _ in range(n)]
        table[n, grid[0]] = tuple(prev)
        for e_lo, e_hi in zip(grid, grid[1:]):
            d_e = e_hi - e_lo
            steps = []
            for _ in range(n):
                move = draw(moves)
                step = (d_e + tol if move == "tol" else d_e + tol / 2 if move == "half"
                        else move * d_e)
                steps.append(draw(st.sampled_from([step, -step])))
            prev = [p + s for p, s in zip(prev, steps)]
            table[n, e_hi] = tuple(prev)
    return tol, grid, table


@settings(max_examples=300)
@given(data=_lipschitz_tables())
def test_lipschitz_row_scan_matches_pair_scan(data):
    tol, grid, table = data
    expected_witness, expected_count = None, 0
    for n in range(1, 4):
        vecs = [table[n, e] for e in grid]
        hit, count = _reference_lipschitz(grid, vecs, tol)
        # the screen plus walk, walking the reference pair test
        rows = axioms._lipschitz_rows(grid, vecs, None, tol)
        assert axioms._first_pair(grid, *rows, lambda a, b: any(
            abs(y - x) > (grid[b] - grid[a]) + tol for x, y in zip(vecs[a], vecs[b]))
        ) == (hit and hit[:2])
        expected_count += count
        if hit is None:
            continue
        a, b, pos = hit
        gap = abs(vecs[b][pos - 1] - vecs[a][pos - 1])
        ranking = Ranking(tuple(f"c{k}" for k in range(1, n + 1)))
        expected_witness = Witness(
            axiom="lipschitz", mode=None,
            competitions=(Competition(ranking=ranking, endowment=grid[a]),
                          Competition(ranking=ranking, endowment=grid[b])),
            subset=None, competitor=f"c{pos}", position=pos,
            lhs=gap, rhs=grid[b] - grid[a],
            relation="|prize(E) - prize(E')| <= |E - E'|",
            margin=gap - (grid[b] - grid[a]),
        )
        break
    budget = SampleBudget(max_n=3, endowment_grid=tuple(grid))
    mono = Verdict(axiom="endowment_monotonicity", mode="weak", passed=True,
                   samples_checked=0, witness=None, tolerance=tol, budget=budget.describe())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(axioms, "prize_vector", lambda rule, ids, e, cfg: table[len(ids), e])
        verdict = check_lipschitz(ED(), budget, mono, tol)
    assert verdict.samples_checked == expected_count
    assert verdict.witness == expected_witness
    assert verdict.passed == (expected_witness is None)


# ---------------------------------------------------------------------------
# Random members of the monotone families pass the weak pair cells


def _intervals(ends):
    ends = sorted(ends)
    return Interval(IntervalList.of(*zip(ends[::2], ends[1::2])))


_small = st.floats(0.0, 10.0, allow_subnormal=False)
_unit = st.floats(0.0, 1.0, allow_subnormal=False)
MONOTONE_MEMBERS = st.one_of(
    _small.map(WTS),
    st.lists(_small, min_size=2, max_size=6, unique=True).map(_intervals),
    _unit.map(Geometric),
    st.lists(st.floats(1e-3, 10.0), min_size=4, max_size=4)
    .map(lambda ws: Proportional(tuple(sorted(ws, reverse=True)))),
    _unit.map(lambda s: SingleParametric(MonotoneFn.linear(s))),
    _small.map(lambda c: SingleParametric(MonotoneFn.shift(c))),
    _small.map(lambda c: SingleParametric(MonotoneFn.cap(c))),
    piecewise_fns().map(SingleParametric),
    st.lists(_small, min_size=3, max_size=3).map(lambda cs: Parametric(
        (MonotoneFn.identity(), *map(MonotoneFn.shift, sorted(cs))))),
)


@settings(max_examples=100)
@given(rule=MONOTONE_MEMBERS)
def test_monotone_family_members_pass_the_weak_pair_cells(rule):
    """Weak endowment monotonicity and the Lipschitz bound hold; a strict
    mode may fail, and its witness then re-verifies."""
    memo = axioms._Memo(rule)
    weak = check_endowment_monotonicity(rule, SMALL_PAIRS, "weak", memo=memo)
    assert weak.passed
    assert check_lipschitz(rule, SMALL_PAIRS, weak, memo=memo).passed
    for mode in ("winner_strict", "strict"):
        verdict = check_endowment_monotonicity(rule, SMALL_PAIRS, mode, memo=memo)
        assert verdict.passed or verify_witness(rule, verdict.witness, verdict.tolerance)[0]


# ---------------------------------------------------------------------------
# The row memo shared by the cells of run_axiom_matrix


def _standalone(rule, axiom, mode, budget):
    """A cell's verdict from the public checkers alone, each with its own memo."""
    if axiom == "anonymity":
        return check_anonymity(rule, budget)
    if axiom == "order_preservation":
        return check_order_preservation(rule, budget, mode)
    if axiom == "endowment_monotonicity":
        return check_endowment_monotonicity(rule, budget, mode)
    if axiom == "lipschitz":
        mono = check_endowment_monotonicity(rule, budget, "weak")
        return check_lipschitz(rule, budget, mono) if mono.passed else None
    if axiom == "scale_invariance":
        return check_scale_invariance(rule, budget)
    return check_consistency(rule, budget, mode)


@pytest.mark.parametrize("spec", ["cx:pair-favoritism=p,q", "sp:arithmetic"])
def test_matrix_cells_equal_standalone_checks(spec):
    rule = parse_rule_spec(spec)
    row = run_axiom_matrix([rule], SMALL)[describe(rule)]
    for axiom, mode in MATRIX_CELLS:
        expected = _standalone(rule, axiom, mode, SMALL)
        got = row[cell_key(axiom, mode)]
        # Verdict equality covers the outcome, samples_checked and the witness
        assert got == expected, cell_key(axiom, mode)


def test_matrix_row_allocates_each_grid_vector_once(monkeypatch):
    real = axioms.prize_vector
    calls = Counter()

    def counting(rule, ids, e, cfg):
        calls[ids, e] += 1
        return real(rule, ids, e, cfg)

    monkeypatch.setattr(axioms, "prize_vector", counting)
    grid = set(SMALL.endowment_grid)
    for rule in bundled_rules():
        calls.clear()
        run_axiom_matrix([rule], SMALL)
        assert calls, describe(rule)
        repeated = {key: k for key, k in calls.items() if key[1] in grid and k > 1}
        assert not repeated, describe(rule)


def test_matrix_builds_each_pair_witness_once(monkeypatch):
    # a pair cell's row walk hands the witness it built to the verdict loop;
    # building it again there took 148 competitions at seed 0
    real, built = axioms.Competition, []
    monkeypatch.setattr(axioms, "Competition",
                        lambda *args, **kwargs: built.append(1) or real(*args, **kwargs))
    run_axiom_matrix(bundled_rules(), SampleBudget(rng_seed=0))
    assert 0 < len(built) <= 118


def test_patched_checkers_run_in_the_matrix_and_in_a_cell(monkeypatch):
    # the cell spans of a traced run wrap the checkers bound on the module
    calls = Counter()
    for axiom in dict(MATRIX_CELLS):
        real = getattr(axioms, f"check_{axiom}")
        monkeypatch.setattr(axioms, f"check_{axiom}", lambda *args, real=real, axiom=axiom,
                            **kwargs: calls.update([axiom]) or real(*args, **kwargs))
    run_axiom_matrix([ED()], SMALL)
    assert set(calls) == set(dict(MATRIX_CELLS))
    calls.clear()
    run_cell(ED(), "consistency", "top", SMALL)
    run_cell(ED(), "lipschitz", None, SMALL)
    assert calls == Counter(["consistency", "endowment_monotonicity", "lipschitz"])


def test_checkers_of_axioms_with_modes_name_the_parameter_mode():
    # a traced run reads a cell's mode off the argument bound to ``mode``
    for axiom, (modes, *_) in axioms.AXIOMS.items():
        params = inspect.signature(getattr(axioms, f"check_{axiom}")).parameters
        assert ("mode" in params) == (modes not in ((), (None,))), axiom


# ---------------------------------------------------------------------------
# verify_witness judges a witness by the relation its checker used


@dataclass(frozen=True)
class _Shares(RuleSpec):
    """Pays the fixed shares SHARES[n] of the endowment to a field of n."""

    SHARES = {1: (1.0,), 2: (0.6, 0.4), 3: (0.3, 0.5, 0.2)}

    def prizes(self, ids, e, cfg):
        return [s * e for s in self.SHARES[len(ids)]]

    def spec(self):
        return "test:shares"


@dataclass(frozen=True)
class _ThreeThousandSkew(RuleSpec):
    """Equal division, except that at E = 3000 the top two prizes of a field
    of two or more move 1e-7 apart."""

    def prizes(self, ids, e, cfg):
        prizes = [e / len(ids)] * len(ids)
        if e == 3000.0 and len(ids) >= 2:
            prizes[0] += 1e-7
            prizes[1] -= 1e-7
        return prizes

    def spec(self):
        return "test:skew-at-3000"


# The competitions a witness of each axiom holds: order preservation and the
# data-top check compare prizes within one competition, the rest across two.
WITNESS_SIZES = {"order_preservation": 1, "data_top_consistency": 1}


@pytest.mark.parametrize("axiom", list(axioms.AXIOMS))
def test_verify_witness_refuses_a_wrong_competition_count(axiom):
    size = WITNESS_SIZES.get(axiom, 2)
    ranking = Ranking(("c1", "c2"))
    for count in sorted({0, size - 1, size + 1}):
        w = Witness(axiom=axiom, mode=(axioms.AXIOMS[axiom][0] or (None,))[0],
                    competitions=(Competition(ranking=ranking, endowment=1.0),) * count,
                    subset=("c1", "c2"), competitor="c1", position=1, lhs=1.0, rhs=0.5,
                    relation="any", margin=0.5)
        with pytest.raises(InvalidCheck, match=f"{axiom} witness holds {size} competition"):
            verify_witness(ED(), w)


def test_order_witness_behind_a_weak_failure_verifies():
    # winner_loser_strict fails its weak part first, at position 1 of n = 3
    verdict = check_order_preservation(_Shares(), SampleBudget(max_n=3), "winner_loser_strict")
    w = verdict.witness
    assert (w.position, w.relation) == (1, "prize(r) >= prize(r+1)")
    ok, margin = verify_witness(_Shares(), w, verdict.tolerance)
    assert ok and margin > 1e-9


def test_scale_witness_is_judged_with_the_checker_relative_tolerance():
    rule = _ThreeThousandSkew()
    assert check_scale_invariance(rule, SampleBudget(max_n=2, endowment_grid=(1000.0,))).passed
    ranking = Ranking(("c1", "c2"))
    w = Witness(
        axiom="scale_invariance", mode="scale",
        competitions=(Competition(ranking=ranking, endowment=1000.0),
                      Competition(ranking=ranking, endowment=3000.0)),
        subset=None, competitor="c1", position=1, lhs=1500.0 + 1e-7, rhs=1500.0,
        relation="prize(3.0*E) = 3.0*prize(E)", margin=1e-7,
    )
    assert not verify_witness(rule, w)[0]


# ---------------------------------------------------------------------------
# The entry points refuse unusable tolerances and cells the matrix lacks


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_unusable_tolerance_rejected(tol):
    w = check_anonymity(Counterexample("pair-favoritism", i="p", j="q"), SMALL).witness
    calls = [
        lambda: run_axiom_matrix([ED()], SMALL, tol),
        lambda: run_cell(ED(), "anonymity", None, SMALL, tol),
        lambda: verify_witness(Counterexample("pair-favoritism", i="p", j="q"), w, tol),
    ]
    for call in calls:
        with pytest.raises(InvalidCheck, match="tolerance must be finite and >= 0"):
            call()
    assert issubclass(InvalidCheck, PrizeAllocError) and issubclass(InvalidCheck, ValueError)


def test_zero_tolerance_accepted():
    assert run_cell(ED(), "anonymity", None, SMALL, 0.0).passed
    assert not run_cell(WTS(1.0), "scale_invariance", None, SMALL, 0.0).passed


class TestRunCell:
    def test_equals_the_matrix_cell(self):
        row = run_axiom_matrix([Geometric(0.5)], SMALL)["geometric:lambda=0.5"]
        for axiom, mode in MATRIX_CELLS:
            verdict = run_cell(Geometric(0.5), axiom, mode, SMALL)
            assert verdict == row[cell_key(axiom, mode)], cell_key(axiom, mode)

    def test_first_listed_mode_is_the_default(self):
        assert run_cell(ED(), "consistency", None, SMALL).mode == "full"

    def test_axiom_without_modes_ignores_mode(self):
        assert run_cell(ED(), "anonymity", "strict", SMALL).mode is None

    @pytest.mark.parametrize("axiom, mode, budget", [
        ("consistency", "local", SampleBudget(max_n=2)),
        ("endowment_monotonicity", "weak", SampleBudget(endowment_grid=(1.0,))),
        ("lipschitz", None, SampleBudget(endowment_grid=(1.0, 1.0))),
    ])
    def test_a_cell_of_no_samples_is_refused(self, axiom, mode, budget):
        key = cell_key(axiom, mode)
        with pytest.raises(InvalidCheck, match=f"{key} checks no samples at max_n={budget.max_n}"):
            run_cell(ED(), axiom, mode, budget)

    @pytest.mark.parametrize("axiom, mode", [("order_preservation", "full"),
                                             ("consistency", "bogus")])
    def test_unknown_mode(self, axiom, mode):
        with pytest.raises(InvalidCheck, match=f"has no mode '{mode}'"):
            run_cell(ED(), axiom, mode, SMALL)

    @pytest.mark.parametrize("axiom", ["fairness", "data_top_consistency"])
    @pytest.mark.parametrize("mode", [None, "full"])
    def test_unknown_axiom(self, axiom, mode):
        # the data check is an axiom of the table, but no matrix cell
        expected = f"unknown axiom '{axiom}'; expected one of .*'anonymity', .*'consistency'"
        for call in (lambda: run_cell(ED(), axiom, mode, SMALL), lambda: cell_key(axiom, mode)):
            with pytest.raises(InvalidCheck, match=expected):
                call()


# ---------------------------------------------------------------------------
# Batched screens against per-sample scans


def _per_sample_anonymity(rule, budget, tol):
    """The anonymity cell as a per-sample scan: every (base, relabelled, E)
    sample runs the fault."""
    grid = budget.scan_grid()

    def samples():
        for n in range(1, budget.max_n + 1):
            rankings = axioms._arrangements(rule, n)
            if len(rankings) == 1:
                rankings.append(tuple(f"d{k}" for k in range(n, 0, -1)))
            for e in grid:
                yield from ((rankings[0], ids, e) for ids in rankings[1:])

    return axioms._scan("anonymity", None, budget, tol, axioms._Memo(rule).vector,
                        axioms._anonymity_fault, enumerate(samples(), 1))


def _per_sample_consistency(rule, budget, mode, tol):
    """A consistency cell as a per-sample scan: every (field, E, positions)
    sample runs the fault."""
    grid = budget.scan_grid()
    samples = ((ids, e, positions) for n in range(3, budget.max_n + 1)
               for ids in axioms._arrangements(rule, n)
               for positions in axioms._position_subsets(n, mode) for e in grid)
    return axioms._scan("consistency", mode, budget, tol, axioms._Memo(rule).vector,
                        axioms._consistency_fault, enumerate(samples, 1), slots=(1,))


def _per_sample_order_preservation(rule, budget, mode, tol):
    """An order-preservation cell as a per-sample scan: every (field, E)
    sample runs the fault."""
    grid = budget.scan_grid()
    samples = ((ids, e) for n in range(2, budget.max_n + 1)
               for ids in axioms._arrangements(rule, n) for e in grid)
    return axioms._scan("order_preservation", mode, budget, tol, axioms._Memo(rule).vector,
                        axioms._order_fault, enumerate(samples, 1), slots=(1,))


def _per_sample_scale_invariance(rule, budget, tol):
    """The scale-invariance cell as a per-sample scan: each (E, c) and
    (E, E') sample is screened on its own before the fault runs."""
    memo = axioms._Memo(rule)
    values = axioms._pair_values(budget.endowment_grid)
    on_grid = set(budget.endowment_grid)
    at = None

    def samples():
        nonlocal at
        count = 0
        for n in range(1, budget.max_n + 1):
            ids = axioms._generic_ids(n)
            on, off = memo.field(ids), axioms._Field(rule, ids).__getitem__
            at = lambda e: (on if e in on_grid else off)(e)
            base = list(map(on, values))
            for e, p in zip(values, base):
                for c in axioms.SCALARS:
                    count += 1
                    if not max(map(abs, map(sub, at(c * e), map(c.__mul__, p)))) <= tol:
                        yield count, (ids, e, c, "scale")
            for a, (e1, p1) in enumerate(zip(values, base)):
                for e2, p2 in zip(values[a:], base[a:]):
                    count += 1
                    if not max(map(abs, map(sub, at(e1 + e2), map(add, p1, p2)))) <= tol:
                        yield count, (ids, e1, e2, "additivity")
        yield count, None

    return axioms._scan("scale_invariance", None, budget, tol, lambda ids, e: at(e),
                        lambda vector, ids, e, x, kind, _, tol:
                        axioms._scale_fault(vector, ids, e, x, kind, tol), samples())


def _outcome(check, *args):
    """A check's verdict, or the type and text of the error it raised."""
    try:
        return check(*args)
    except PrizeAllocError as exc:
        return type(exc), str(exc)


@dataclass(frozen=True)
class _Faulty(RuleSpec):
    """Equal division but for ``defects``, each (n, E, kind) at one field
    size and endowment: "skew" moves E/(2n) from the last prize to the first,
    which breaks consistency and, off the grid, scale invariance; "swap" moves
    it from the first to the last, which breaks order preservation; "raise"
    raises InvalidRuleParams; "relabel" skews only when the winner's id starts
    with c, which also breaks anonymity; "nan" pays such a winner NaN, which
    no fault confirms."""

    defects: tuple[tuple[int, float, str], ...] = ()

    def prizes(self, ids, e, cfg):
        n = len(ids)
        prizes = [e / n] * n
        for size, at, kind in self.defects:
            if (size, at) != (n, e) or kind in ("relabel", "nan") and not ids[0].startswith("c"):
                continue
            if kind == "raise":
                raise InvalidRuleParams("a defect raises here")
            if kind == "nan":
                prizes[0] = math.nan
            else:
                shift = e / (2 * n) if kind != "swap" else -e / (2 * n)
                prizes[0] += shift
                prizes[-1] -= shift
        return prizes

    def spec(self):
        return "test:faulty" + "".join(f";{kind}@{n},{e!r}" for n, e, kind in self.defects)


@st.composite
def _faulty_rules(draw, grid, max_n):
    def defect():
        e, n = draw(st.sampled_from(grid)), draw(st.integers(1, max_n))
        where = draw(st.sampled_from(["grid", "reduced", "scaled", "sum"]))
        if where == "reduced" and n >= 3:  # at the endowment of a reduced field of k
            k = draw(st.integers(2, n - 1))
            n, e = k, sum([e / n] * k)
        elif where == "scaled":  # at c*E, off the grid or on it
            e = draw(st.sampled_from(axioms.SCALARS)) * e
        elif where == "sum":  # at E + E'
            e = e + draw(st.sampled_from(grid))
        return n, e, draw(st.sampled_from(["skew", "swap", "raise", "relabel", "nan"]))

    return _Faulty(tuple(defect() for _ in range(draw(st.integers(1, 3)))))


@st.composite
def _screen_cases(draw):
    max_n = draw(st.integers(3, 6))
    grid = tuple(draw(st.lists(
        st.one_of(st.sampled_from([k * 0.25 for k in range(41)]), st.floats(0.0, 10.0)),
        min_size=1, max_size=6, unique=True)))
    rule = draw(st.one_of(st.sampled_from(bundled_rules()), _faulty_rules(grid, max_n)))
    tol = draw(st.sampled_from([0.0, TAU_EQ, 1e-3]))
    return rule, SampleBudget(max_n=max_n, endowment_grid=grid), tol


@settings(max_examples=60)
@given(case=_screen_cases())
def test_batched_screens_match_per_sample_scans(case):
    rule, budget, tol = case
    assert (_outcome(run_cell, rule, "anonymity", None, budget, tol)
            == _outcome(_per_sample_anonymity, rule, budget, tol))
    for mode in ("full", "bilateral", "local", "top"):
        assert (_outcome(run_cell, rule, "consistency", mode, budget, tol)
                == _outcome(_per_sample_consistency, rule, budget, mode, tol)), mode
    for mode in ("weak", "winner_loser_strict", "strict"):
        assert (_outcome(run_cell, rule, "order_preservation", mode, budget, tol)
                == _outcome(_per_sample_order_preservation, rule, budget, mode, tol)), mode
    assert (_outcome(run_cell, rule, "scale_invariance", None, budget, tol)
            == _outcome(_per_sample_scale_invariance, rule, budget, tol))


def test_unconfirmed_flag_does_not_end_its_batch():
    # at E = 1 the reduced field (c1, c2) is paid NaN: the screen flags it and
    # the fault does not confirm it; at E = 2 the field of three is skewed
    rule = _Faulty(((2, sum([1.0 / 3] * 2), "nan"), (3, 2.0, "skew")))
    budget = SampleBudget(max_n=3, endowment_grid=(1.0, 2.0))
    verdict = run_cell(rule, "consistency", "full", budget)
    assert verdict == _per_sample_consistency(rule, budget, "full", TAU_EQ)
    assert (verdict.samples_checked, verdict.witness.subset) == (2, ("c1", "c2"))
    assert verdict.witness.competitions[0].endowment == 2.0
    anonymity = run_cell(_Faulty(((3, 2.0, "nan"),)), "anonymity", None, budget)
    assert anonymity.passed and anonymity.samples_checked == 6


@pytest.mark.parametrize("axiom, mode, defects, outcome", [
    # at n = 2 the batch E = 1 of the scale cell reads c*E = 0, 0.25, 0.5, 2 and 3
    ("scale_invariance", None, ((2, 3.0, "raise"), (2, 0.5, "skew")), 16),
    ("scale_invariance", None, ((2, 0.5, "raise"), (2, 3.0, "skew")), "n=2, E=0.5:"),
    ("scale_invariance", None, ((2, 0.25, "nan"), (2, 2.0, "skew")), 17),
    # the field of three is the second order batch, after two samples at n = 2
    ("order_preservation", "weak", ((3, 2.0, "raise"), (3, 1.0, "swap")), 3),
    ("order_preservation", "weak", ((3, 1.0, "raise"), (3, 2.0, "swap")), "n=3, E=1.0:"),
])
def test_an_error_arrives_at_its_own_sample(axiom, mode, defects, outcome):
    # a batch whose prizes raise is walked sample by sample: an earlier
    # witness still ends the scan, and the error names its own endowment
    rule, budget = _Faulty(defects), SampleBudget(max_n=3, endowment_grid=(1.0, 2.0))
    if isinstance(outcome, str):
        with pytest.raises(InvalidRuleParams, match=outcome):
            run_cell(rule, axiom, mode, budget)
    else:
        verdict = run_cell(rule, axiom, mode, budget)
        assert not verdict.passed and verdict.samples_checked == outcome


def test_screens_run_no_fault_on_a_passing_cell(monkeypatch):
    # a screen that flags what the fault clears costs time, not verdicts
    calls = Counter()
    for name in ("_order_fault", "_scale_fault"):
        real = getattr(axioms, name)
        monkeypatch.setattr(axioms, name,
                            lambda *args, real=real, name=name: calls.update([name]) or real(*args))
    for rule in (ED(), Geometric(0.5), parse_rule_spec("wta")):
        assert run_cell(rule, "scale_invariance", None, SMALL).passed, describe(rule)
    assert run_cell(ED(), "order_preservation", "weak", SMALL).passed
    assert run_cell(Geometric(0.5), "order_preservation", "strict", SMALL).passed
    assert not calls


def test_failing_cells_and_their_witnesses_run_the_patched_faults(monkeypatch):
    # the control of the test above: the cells and verify_witness read each
    # fault off the module when they run it, so a patched fault is the one run
    calls = Counter()
    for name in ("_order_fault", "_scale_fault"):
        real = getattr(axioms, name)
        monkeypatch.setattr(axioms, name,
                            lambda *args, real=real, name=name: calls.update([name]) or real(*args))
    for axiom, mode in (("order_preservation", "winner_loser_strict"),
                        ("scale_invariance", None)):
        verdict = run_cell(WTS(1.0), axiom, mode, SMALL)
        assert not verdict.passed, axiom
        checked = calls.copy()
        assert verify_witness(WTS(1.0), verdict.witness)[0], axiom
        assert calls - checked, axiom
    assert set(calls) == {"_order_fault", "_scale_fault"}


@pytest.mark.parametrize("seed", [0, 1])
def test_consistency_modes_share_batches_in_any_order(seed):
    budget = SampleBudget(rng_seed=seed)
    modes = [mode for axiom, mode in reversed(MATRIX_CELLS) if axiom == "consistency"]
    for rule in bundled_rules():
        memo = axioms._Memo(rule)
        for mode in modes:
            verdict = check_consistency(rule, budget, mode, memo=memo)
            assert verdict == run_cell(rule, "consistency", mode, budget), (describe(rule), mode)


def test_consistency_batches_are_kept_per_grid_and_tolerance():
    # the skew at E = 2 moves prizes by 1/6 in the reduced fields: within
    # tol 0.2, outside tol 1e-3; it is grid index 1 of the first grid, 0 of the second
    rule = _Faulty(((3, 2.0, "skew"),))
    memo = axioms._Memo(rule)
    wide, narrow = (SampleBudget(max_n=3, endowment_grid=g) for g in ((1.0, 2.0), (2.0,)))
    for budget, tol in ((wide, 0.2), (wide, 1e-3), (narrow, 1e-3), (narrow, 0.2)):
        verdict = check_consistency(rule, budget, "full", tol, memo=memo)
        assert verdict == run_cell(rule, "consistency", "full", budget, tol), (budget, tol)
    assert [run_cell(rule, "consistency", "full", b, 1e-3).samples_checked
            for b in (wide, narrow)] == [2, 1]
