from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prizealloc import axioms
from prizealloc.axioms import (
    MATRIX_CELLS,
    MIN_STRICT_GAP,
    MONOTONICITY_MODES,
    PreconditionNotChecked,
    SampleBudget,
    Witness,
    cell_key,
    check_anonymity,
    check_consistency,
    check_endowment_monotonicity,
    check_lipschitz,
    check_order_preservation,
    check_scale_invariance,
    run_axiom_matrix,
    verify_witness,
)
from prizealloc.cli import bundled_rules, parse_rule_spec
from prizealloc.core import TAU_EQ, Competition, PrizeAllocError, Ranking
from prizealloc.rules import (
    ED,
    WTS,
    Counterexample,
    Geometric,
    arithmetic_rule,
    describe,
    hyperarithmetic_rule,
)

from golden import GOLDEN_MATRIX, matrix_key

CELL_KEYS = [cell_key(a, m) for a, m in MATRIX_CELLS]

# A small budget keeps the single-checker tests fast; the full default
# budget is exercised by the session-scoped matrix fixture.
SMALL = SampleBudget(max_n=4, endowment_grid=tuple(k * 0.5 for k in range(13)))


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

    def test_pair_only_budget_restricts_subsets(self):
        budget = SampleBudget(
            max_n=4, endowment_grid=SMALL.endowment_grid, pair_only=True)
        full = check_consistency(arithmetic_rule(), budget, "full")
        bilateral = check_consistency(arithmetic_rule(), budget, "bilateral")
        assert full.samples_checked == bilateral.samples_checked

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


class _Prizes:
    """Stands in for an Allocation: serves a fixed prize vector."""

    def __init__(self, vec):
        self.vec = vec

    def by_position(self, ranking):
        return self.vec


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
        assert axioms._first_monotonicity_pair(grid, vecs, mode, tol) == hit
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

        a, b = hit
        expected_witness = axioms._snap_pair(witness(grid[a], grid[b]), witness)
        break
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(axioms, "allocate",
                   lambda rule, comp, cfg: _Prizes(table[comp.n, comp.endowment]))
        verdict = check_endowment_monotonicity(
            ED(), SampleBudget(max_n=3, endowment_grid=tuple(grid)), mode, tol)
    assert verdict.samples_checked == expected_count
    assert verdict.witness == expected_witness
    assert verdict.passed == (expected_witness is None)


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
    real = axioms.allocate
    calls = Counter()

    def counting(rule, comp, cfg):
        calls[comp.ranking.by_position, comp.endowment] += 1
        return real(rule, comp, cfg)

    monkeypatch.setattr(axioms, "allocate", counting)
    grid = set(SMALL.endowment_grid)
    for rule in bundled_rules():
        calls.clear()
        run_axiom_matrix([rule], SMALL)
        assert calls, describe(rule)
        repeated = {key: k for key, k in calls.items() if key[1] in grid and k > 1}
        assert not repeated, describe(rule)
