"""Empirical axiom checkers.

Each checker takes a rule and a sampling budget and returns a Verdict:
pass-with-count or fail-with-witness.  The checkers are falsifiers, not
provers — the axioms quantify over infinite domains, so Pass only means
"no violation within the budget", and every verdict states the budget.

Samples are enumerated in a deterministic ascending order (field size,
identity arrangement, endowment, subset size), so the first witness found
is already small; a snapping pass then moves endowments onto round grid
points while the violation persists.

Prize vectors are read through a memo keyed by the ranking's ids and the
endowment.  ``run_axiom_matrix`` shares one memo across the cells of a
rule's row and drops it when the row is done; a standalone check builds
its own, and ``verify_witness`` never reads one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable, Iterator, Sequence

from .core import (
    TAU_EQ,
    Competition,
    PrizeAllocError,
    Ranking,
    subranking,
)
from .rules import Counterexample, RuleSpec, allocate, describe
from .solver import SolverConfig

# Tighter residual than the allocation default, so solver error stays well
# below the comparison tolerance in consistency identities.
CHECK_SOLVER = SolverConfig(residual_tol=1e-12, max_iter=300)

# Below this endowment gap, strict-increase comparisons are numerically
# meaningless and the pair is skipped.
MIN_STRICT_GAP = 1e-6

# Largest field size a budget may ask for.  The full consistency scan visits
# every position subset, so its cost roughly doubles with each competitor.
MAX_FIELD_SIZE = 12


class PreconditionNotChecked(PrizeAllocError):
    pass


class InvalidBudget(PrizeAllocError, ValueError):
    pass


class DuplicateRow(PrizeAllocError):
    pass


@dataclass(frozen=True)
class SampleBudget:
    """Sampling budget: competitor counts 1..max_n and an endowment grid."""

    max_n: int = 5
    endowment_grid: tuple[float, ...] = ()
    rng_seed: int = 0
    pair_only: bool = False

    def __post_init__(self) -> None:
        if self.max_n < 2:
            raise InvalidBudget(f"sample budget max_n must be >= 2, got {self.max_n}")
        if self.max_n > MAX_FIELD_SIZE:
            raise InvalidBudget(
                f"sample budget max_n must be <= {MAX_FIELD_SIZE}, got {self.max_n}")
        if not self.endowment_grid:
            object.__setattr__(self, "endowment_grid", _default_grid(self.rng_seed))
        if any(e < 0 for e in self.endowment_grid):
            raise InvalidBudget("endowment grid must be non-negative")

    def sorted_grid(self) -> tuple[float, ...]:
        return tuple(sorted(set(self.endowment_grid)))

    def scan_grid(self) -> tuple[float, ...]:
        """Grid in scan order: round quarter-dollar values first, so the
        first witness found lands on a readable endowment."""
        values = sorted(set(self.endowment_grid))
        round_vals = [e for e in values if abs(e * 4 - round(e * 4)) < 1e-12]
        rest = [e for e in values if abs(e * 4 - round(e * 4)) >= 1e-12]
        return tuple(round_vals + rest)

    def describe(self) -> str:
        return (
            f"max_n={self.max_n}, {len(self.endowment_grid)} grid endowments, "
            f"seed={self.rng_seed}"
        )


def _default_grid(seed: int) -> tuple[float, ...]:
    uniform = [k * 0.25 for k in range(41)]
    rng = random.Random(seed)
    draws = [rng.uniform(0.0, 10.0) for _ in range(50)]
    return tuple(uniform + draws)


def _pair_values(grid: Sequence[float], limit: int = 48) -> list[float]:
    """Subsample for quadratic pair scans, keeping the scan affordable."""
    values = sorted(set(grid))
    if len(values) <= limit:
        return values
    stride = (len(values) - 1) / (limit - 1)
    return [values[round(i * stride)] for i in range(limit)]


@dataclass(frozen=True)
class Witness:
    """A concrete, reproducible axiom violation.

    ``competitions`` holds the one or two competitions involved; ``subset``
    the reduced-competition ids for consistency checks.  ``lhs`` and ``rhs``
    are the two sides of the violated relation, ``margin`` the violation
    magnitude (for equality- and weak-inequality violations it exceeds the
    tolerance; for strict-inequality violations it is the missing gap).
    """

    axiom: str
    mode: str | None
    competitions: tuple[Competition, ...]
    subset: tuple[str, ...] | None
    competitor: str | None
    position: int | None
    lhs: float
    rhs: float
    relation: str
    margin: float


@dataclass(frozen=True)
class Verdict:
    axiom: str
    mode: str | None
    passed: bool
    samples_checked: int
    witness: Witness | None
    tolerance: float
    budget: str

    @property
    def outcome(self) -> str:
        return "pass" if self.passed else "fail"


def _verdict(axiom, mode, budget, tol, count, witness=None) -> Verdict:
    return Verdict(
        axiom=axiom,
        mode=mode,
        passed=witness is None,
        samples_checked=count,
        witness=witness,
        tolerance=tol,
        budget=budget.describe(),
    )


# ---------------------------------------------------------------------------
# Sampling helpers


def _designated_pair(rule: RuleSpec) -> tuple[str, str] | None:
    if isinstance(rule, Counterexample) and rule.name == "pair-favoritism":
        return (rule.i, rule.j)
    return None


def _generic_ids(n: int) -> tuple[str, ...]:
    return tuple(f"c{k}" for k in range(1, n + 1))


def _arrangements(rule: RuleSpec, n: int) -> list[tuple[str, ...]]:
    """Identity arrangements (ids in position order) to sample: a generic
    one, plus placements of a rule's designated competitors at varying
    position pairs."""
    rankings = [_generic_ids(n)]
    pair = _designated_pair(rule)
    if pair and n >= 2:
        i, j = pair
        fillers = [f"z{k}" for k in range(1, n + 1)]
        for pi in range(1, n + 1):
            for pj in range(1, n + 1):
                if pi == pj:
                    continue
                ids = fillers[:]
                ids[pi - 1] = i
                ids[pj - 1] = j
                rankings.append(tuple(ids))
    return rankings


def _competition(ids: tuple[str, ...], endowment: float) -> Competition:
    return Competition(ranking=Ranking(ids), endowment=endowment)


def _prizes(rule: RuleSpec, comp: Competition) -> tuple[float, ...]:
    return allocate(rule, comp, CHECK_SOLVER).by_position(comp.ranking)


class _Memo:
    """One rule's prize vectors in position order, ``{ids: {E: vector}}``,
    and the cell verdicts computed from them."""

    def __init__(self, rule: RuleSpec):
        self.rule = rule
        self.vectors: dict[tuple[str, ...], dict[float, tuple[float, ...]]] = {}
        self.verdicts: dict[str, Verdict] = {}

    def vector(self, ids: tuple[str, ...], e: float) -> tuple[float, ...]:
        by_e = self.vectors.get(ids)
        if by_e is None:
            by_e = self.vectors[ids] = {}
        vec = by_e.get(e)
        if vec is None:
            vec = by_e[e] = self.compute(ids, e)
        return vec

    def compute(self, ids: tuple[str, ...], e: float) -> tuple[float, ...]:
        """Allocate without storing the vector."""
        return _prizes(self.rule, _competition(ids, e))


def _snap_candidates(e: float) -> list[float]:
    """Round grid points to try in place of a raw endowment, nearest first."""
    snapped = round(e * 4) / 4
    out = []
    for cand in (snapped, round(e), round(e * 2) / 2):
        if cand >= 0 and abs(cand - e) > 1e-12 and cand not in out:
            out.append(cand)
    return out


# ---------------------------------------------------------------------------
# Anonymity


def check_anonymity(
    rule: RuleSpec, budget: SampleBudget, tol: float = TAU_EQ, *, memo: _Memo | None = None
) -> Verdict:
    memo = memo or _Memo(rule)
    grid = budget.scan_grid()
    count = 0
    for n in range(1, budget.max_n + 1):
        rankings = _arrangements(rule, n)
        if len(rankings) == 1:
            # generic rules still get one relabelled arrangement to compare
            rankings.append(tuple(f"d{k}" for k in range(n, 0, -1)))
        base_ids = rankings[0]
        for e in grid:
            base = memo.vector(base_ids, e)
            for ids in rankings[1:]:
                vec = memo.vector(ids, e)
                count += 1
                for pos in range(1, n + 1):
                    if abs(vec[pos - 1] - base[pos - 1]) > tol:
                        w = Witness(
                            axiom="anonymity", mode=None,
                            competitions=(_competition(base_ids, e), _competition(ids, e)),
                            subset=None, competitor=ids[pos - 1], position=pos,
                            lhs=base[pos - 1], rhs=vec[pos - 1],
                            relation="equal prize for equal position",
                            margin=abs(vec[pos - 1] - base[pos - 1]),
                        )
                        return _verdict("anonymity", None, budget, tol, count, w)
    return _verdict("anonymity", None, budget, tol, count)


# ---------------------------------------------------------------------------
# Order preservation


ORDER_MODES = ("weak", "winner_loser_strict", "strict")


def check_order_preservation(
    rule: RuleSpec, budget: SampleBudget, mode: str = "weak", tol: float = TAU_EQ,
    *, memo: _Memo | None = None,
) -> Verdict:
    if mode not in ORDER_MODES:
        raise ValueError(f"unknown order-preservation mode: {mode}")
    memo = memo or _Memo(rule)
    grid = budget.scan_grid()
    count = 0

    def violation(ids: tuple[str, ...], e: float) -> Witness | None:
        vec = memo.vector(ids, e)
        n = len(ids)

        def make(hi: int, lo: int, relation: str, margin: float) -> Witness:
            return Witness(
                axiom="order_preservation", mode=mode, competitions=(_competition(ids, e),),
                subset=None, competitor=ids[hi - 1], position=hi,
                lhs=vec[hi - 1], rhs=vec[lo - 1], relation=relation, margin=margin,
            )

        for r in range(1, n):
            if vec[r - 1] < vec[r] - tol:
                return make(r, r + 1, "prize(r) >= prize(r+1)", vec[r] - vec[r - 1])
        if e > 0 and mode == "winner_loser_strict" and n >= 2:
            if vec[0] <= vec[n - 1] + tol:
                return make(1, n, "prize(1) > prize(n) for E > 0",
                            vec[n - 1] - vec[0] + tol)
        if e > 0 and mode == "strict":
            for r in range(1, n):
                if vec[r - 1] <= vec[r] + tol:
                    return make(r, r + 1, "prize(r) > prize(r+1) for E > 0",
                                vec[r] - vec[r - 1] + tol)
        return None

    for n in range(2, budget.max_n + 1):
        for ids in _arrangements(rule, n):
            for e in grid:
                count += 1
                w = violation(ids, e)
                if w is not None:
                    w = _snap_single(w, lambda e2: violation(ids, e2))
                    return _verdict("order_preservation", mode, budget, tol, count, w)
    return _verdict("order_preservation", mode, budget, tol, count)


def _snap_single(w: Witness, recheck: Callable[[float], Witness | None]) -> Witness:
    """Try to move a one-competition witness onto a round endowment."""
    e = w.competitions[0].endowment
    for cand in _snap_candidates(e):
        w2 = recheck(cand)
        if w2 is not None:
            return w2
    return w


# ---------------------------------------------------------------------------
# Endowment monotonicity and the Lipschitz consequence


MONOTONICITY_MODES = ("weak", "winner_strict", "strict")


def check_endowment_monotonicity(
    rule: RuleSpec, budget: SampleBudget, mode: str = "weak", tol: float = TAU_EQ,
    *, memo: _Memo | None = None,
) -> Verdict:
    if mode not in MONOTONICITY_MODES:
        raise ValueError(f"unknown endowment-monotonicity mode: {mode}")
    memo = memo or _Memo(rule)
    count = 0
    grid = budget.sorted_grid()
    g = len(grid)
    for n in range(1, budget.max_n + 1):
        for ids in _arrangements(rule, n):
            hit = _first_monotonicity_pair(grid, [memo.vector(ids, e) for e in grid], mode, tol)
            if hit is None:
                count += g * (g - 1) // 2
                continue
            # the pairs scanned in row-major order up to and including (a, b)
            a, b = hit
            count += a * (g - 1) - a * (a - 1) // 2 + (b - a)
            w = _monotonicity_witness(memo, ids, grid[a], grid[b], mode, tol)
            w = _snap_pair(w, lambda lo, hi: _monotonicity_witness(memo, ids, lo, hi, mode, tol))
            return _verdict("endowment_monotonicity", mode, budget, tol, count, w)
    return _verdict("endowment_monotonicity", mode, budget, tol, count)


def _monotonicity_fault(lo, hi, gap, mode, tol, strict_hi=None):
    """The pair test on prize vectors at endowments ``gap`` apart: (position,
    relation, margin) or None.  Strict modes compare ``lo`` with ``strict_hi``
    (default ``hi``) and skip gaps below MIN_STRICT_GAP."""
    for pos in range(1, len(lo) + 1):
        if lo[pos - 1] > hi[pos - 1] + tol:
            return pos, "prize non-decreasing in E", lo[pos - 1] - hi[pos - 1]
    if gap < MIN_STRICT_GAP:
        return None
    hi = hi if strict_hi is None else strict_hi
    if mode == "winner_strict" and hi[0] <= lo[0] + tol:
        return 1, "winner prize strictly increasing in E", lo[0] - hi[0] + tol
    if mode == "strict":
        for pos in range(1, len(lo) + 1):
            if hi[pos - 1] <= lo[pos - 1] + tol:
                return pos, "prize strictly increasing in E", lo[pos - 1] - hi[pos - 1] + tol
    return None


def _first_monotonicity_pair(grid, vecs, mode, tol) -> tuple[int, int] | None:
    """First grid pair (a, b), a < b, in row-major order that fails the pair test.

    Row a is tested once against per-position suffix minima: over b > a for
    the weak part, over b from the first gap >= MIN_STRICT_GAP for the strict
    part.  Rounding is monotone, so fl(min p_b + tol) = min fl(p_b + tol) and
    the row test fails exactly when some pair in the row does; only that row
    is walked pair by pair.
    """
    g = len(grid)
    suffix = [None] * (g + 1)  # suffix[k]: per-position minima of vecs[k:]
    for k in reversed(range(g)):
        suffix[k] = tuple(map(min, vecs[k], suffix[k + 1] or vecs[k]))
    b0 = 0
    for a in range(g - 1):
        b0 = max(b0, a + 1)
        while b0 < g and grid[b0] - grid[a] < MIN_STRICT_GAP:
            b0 += 1
        gap = grid[b0] - grid[a] if b0 < g else 0.0
        if _monotonicity_fault(vecs[a], suffix[a + 1], gap, mode, tol, suffix[b0]):
            for b in range(a + 1, g):
                if _monotonicity_fault(vecs[a], vecs[b], grid[b] - grid[a], mode, tol):
                    return a, b
    return None


def _monotonicity_witness(memo, ids, e_lo, e_hi, mode, tol) -> Witness | None:
    if e_hi <= e_lo:
        return None
    lo, hi = memo.vector(ids, e_lo), memo.vector(ids, e_hi)
    fault = _monotonicity_fault(lo, hi, e_hi - e_lo, mode, tol)
    if fault is None:
        return None
    pos, relation, margin = fault
    return Witness(
        axiom="endowment_monotonicity", mode=mode,
        competitions=(_competition(ids, e_lo), _competition(ids, e_hi)),
        subset=None, competitor=ids[pos - 1], position=pos,
        lhs=lo[pos - 1], rhs=hi[pos - 1], relation=relation, margin=margin,
    )


def _snap_pair(w: Witness, recheck: Callable[[float, float], Witness | None]) -> Witness:
    e_lo = w.competitions[0].endowment
    e_hi = w.competitions[1].endowment
    for lo_cand in [e_lo] + _snap_candidates(e_lo):
        for hi_cand in [e_hi] + _snap_candidates(e_hi):
            if (lo_cand, hi_cand) == (e_lo, e_hi):
                continue
            w2 = recheck(lo_cand, hi_cand)
            if w2 is not None:
                return w2
    return w


def check_lipschitz(
    rule: RuleSpec,
    budget: SampleBudget,
    monotonicity: Verdict | None = None,
    tol: float = TAU_EQ,
    *,
    memo: _Memo | None = None,
) -> Verdict:
    """Check |prize(E) - prize(E')| <= |E - E'| + tol over all grid pairs.

    The inequality is a consequence of (weak) endowment monotonicity, so the
    caller must supply a passing weak-monotonicity verdict for the same rule.
    """
    if monotonicity is None:
        raise PreconditionNotChecked(
            "check endowment monotonicity (weak) first and pass its verdict"
        )
    if monotonicity.axiom != "endowment_monotonicity" or monotonicity.mode != "weak":
        raise PreconditionNotChecked("expected a weak endowment-monotonicity verdict")
    if not monotonicity.passed:
        raise PreconditionNotChecked("rule fails weak endowment monotonicity")
    memo = memo or _Memo(rule)
    count = 0
    grid = budget.sorted_grid()
    for n in range(1, budget.max_n + 1):
        ids = _generic_ids(n)
        vecs = [memo.vector(ids, e) for e in grid]
        for a_idx in range(len(grid)):
            for b_idx in range(a_idx + 1, len(grid)):
                e_lo, e_hi = grid[a_idx], grid[b_idx]
                count += 1
                lo, hi = vecs[a_idx], vecs[b_idx]
                for pos in range(1, n + 1):
                    gap = abs(hi[pos - 1] - lo[pos - 1])
                    if gap > (e_hi - e_lo) + tol:
                        w = Witness(
                            axiom="lipschitz", mode=None,
                            competitions=(_competition(ids, e_lo), _competition(ids, e_hi)),
                            subset=None, competitor=ids[pos - 1], position=pos,
                            lhs=gap, rhs=e_hi - e_lo,
                            relation="|prize(E) - prize(E')| <= |E - E'|",
                            margin=gap - (e_hi - e_lo),
                        )
                        return _verdict("lipschitz", None, budget, tol, count, w)
    return _verdict("lipschitz", None, budget, tol, count)


# ---------------------------------------------------------------------------
# Scale invariance (checked jointly with endowment additivity)


def check_scale_invariance(
    rule: RuleSpec, budget: SampleBudget, tol: float = TAU_EQ, *, memo: _Memo | None = None
) -> Verdict:
    memo = memo or _Memo(rule)
    count = 0
    values = _pair_values(budget.endowment_grid)
    on_grid = set(budget.endowment_grid)
    scalars = [0.0, 0.25, 0.5, 2.0, 3.0]
    for n in range(1, budget.max_n + 1):
        ids = _generic_ids(n)
        # c*E and E + E' off the grid: no other cell reads them, so they
        # stay out of the shared memo
        products: dict[float, tuple[float, ...]] = {}

        def get(e: float) -> tuple[float, ...]:
            if e in on_grid:
                return memo.vector(ids, e)
            if e not in products:
                products[e] = memo.compute(ids, e)
            return products[e]

        # scale: prize(c * E) = c * prize(E)
        for e in values:
            base = get(e)
            for c in scalars:
                count += 1
                scaled = get(c * e)
                for pos in range(1, n + 1):
                    lhs, rhs = scaled[pos - 1], c * base[pos - 1]
                    if abs(lhs - rhs) > tol * max(1.0, abs(lhs), abs(rhs)):
                        w = Witness(
                            axiom="scale_invariance", mode="scale",
                            competitions=(_competition(ids, e), _competition(ids, c * e)),
                            subset=None, competitor=ids[pos - 1], position=pos,
                            lhs=lhs, rhs=rhs,
                            relation=f"prize({c}*E) = {c}*prize(E)",
                            margin=abs(lhs - rhs),
                        )
                        return _verdict("scale_invariance", None, budget, tol, count, w)
        # additivity: prize(E + E') = prize(E) + prize(E')
        for a_idx in range(len(values)):
            for b_idx in range(a_idx, len(values)):
                e1, e2 = values[a_idx], values[b_idx]
                count += 1
                total = get(e1 + e2)
                p1, p2 = get(e1), get(e2)
                for pos in range(1, n + 1):
                    lhs = total[pos - 1]
                    rhs = p1[pos - 1] + p2[pos - 1]
                    if abs(lhs - rhs) > tol * max(1.0, abs(lhs), abs(rhs)):
                        w = Witness(
                            axiom="scale_invariance", mode="additivity",
                            competitions=(_competition(ids, e1), _competition(ids, e2)),
                            subset=None, competitor=ids[pos - 1], position=pos,
                            lhs=lhs, rhs=rhs,
                            relation="prize(E + E') = prize(E) + prize(E')",
                            margin=abs(lhs - rhs),
                        )
                        return _verdict("scale_invariance", None, budget, tol, count, w)
    return _verdict("scale_invariance", None, budget, tol, count)


# ---------------------------------------------------------------------------
# Consistency (full / bilateral / local / top)


CONSISTENCY_MODES = ("full", "bilateral", "local", "top")


def _position_subsets(n: int, mode: str, pair_only: bool) -> Iterator[tuple[int, ...]]:
    """Qualifying position subsets of sizes 2..n-1, smallest first.

    Size-1 subsets and the full set make the consistency identity trivially
    true and are skipped.
    """
    max_size = 2 if (mode == "bilateral" or pair_only) else n - 1
    for size in range(2, max_size + 1):
        if mode == "top":
            yield tuple(range(1, size + 1))
        elif mode == "local":
            for start in range(1, n - size + 2):
                yield tuple(range(start, start + size))
        else:
            yield from combinations(range(1, n + 1), size)


def check_consistency(
    rule: RuleSpec, budget: SampleBudget, mode: str = "full", tol: float = TAU_EQ,
    *, memo: _Memo | None = None,
) -> Verdict:
    if mode not in CONSISTENCY_MODES:
        raise ValueError(f"unknown consistency mode: {mode}")
    memo = memo or _Memo(rule)
    grid = budget.scan_grid()
    count = 0
    for n in range(3, budget.max_n + 1):
        for ids in _arrangements(rule, n):
            for positions in _position_subsets(n, mode, budget.pair_only):
                for e in grid:
                    count += 1
                    w = _consistency_violation(memo, ids, e, positions, mode, tol)
                    if w is not None:
                        w = _snap_single(
                            w,
                            lambda e2: _consistency_violation(memo, ids, e2, positions, mode, tol),
                        )
                        return _verdict("consistency", mode, budget, tol, count, w)
    return _verdict("consistency", mode, budget, tol, count)


def _consistency_violation(memo, ids, e, positions, mode, tol) -> Witness | None:
    """``positions`` ascend, so the subset's ids are already in ranking order."""
    vec = memo.vector(ids, e)
    subset = tuple(ids[p - 1] for p in positions)
    sub_e = sum(vec[p - 1] for p in positions)
    red_vec = memo.vector(subset, sub_e)
    for sub_pos, orig_pos in enumerate(positions, start=1):
        lhs = vec[orig_pos - 1]
        rhs = red_vec[sub_pos - 1]
        if abs(lhs - rhs) > tol:
            ranking = Ranking(ids)
            return Witness(
                axiom="consistency", mode=mode,
                competitions=(
                    Competition(ranking=ranking, endowment=e),
                    Competition(ranking=subranking(ranking, subset), endowment=sub_e),
                ),
                subset=subset, competitor=ids[orig_pos - 1], position=orig_pos,
                lhs=lhs, rhs=rhs,
                relation="prize in reduced competition equals original prize",
                margin=abs(lhs - rhs),
            )
    return None


# ---------------------------------------------------------------------------
# Witness re-verification


def verify_witness(rule: RuleSpec, witness: Witness, tol: float = TAU_EQ) -> tuple[bool, float]:
    """Re-evaluate a witness from scratch.

    Returns (still_violates, margin).  For equality- and weak-inequality
    violations the margin must exceed the tolerance; for strict-inequality
    violations the claim is the absence of the required strict gap.
    """
    ax, mode = witness.axiom, witness.mode
    if ax == "anonymity":
        c1, c2 = witness.competitions
        v1, v2 = _prizes(rule, c1), _prizes(rule, c2)
        margin = abs(v1[witness.position - 1] - v2[witness.position - 1])
        return margin > tol, margin
    if ax == "order_preservation":
        (comp,) = witness.competitions
        vec = _prizes(rule, comp)
        hi = witness.position
        lo = _order_partner(witness, comp.ranking.n)
        gap = vec[hi - 1] - vec[lo - 1]
        if mode == "weak" or gap < -tol:
            return gap < -tol, -gap
        return gap <= tol, tol - gap
    if ax == "endowment_monotonicity":
        c_lo, c_hi = witness.competitions
        v_lo, v_hi = _prizes(rule, c_lo), _prizes(rule, c_hi)
        pos = witness.position
        diff = v_hi[pos - 1] - v_lo[pos - 1]
        if diff < -tol:
            return True, -diff
        if mode in ("winner_strict", "strict"):
            return diff <= tol, tol - diff
        return False, diff
    if ax == "lipschitz":
        c_lo, c_hi = witness.competitions
        v_lo, v_hi = _prizes(rule, c_lo), _prizes(rule, c_hi)
        pos = witness.position
        gap = abs(v_hi[pos - 1] - v_lo[pos - 1])
        margin = gap - abs(c_hi.endowment - c_lo.endowment)
        return margin > tol, margin
    if ax == "scale_invariance":
        c1, c2 = witness.competitions
        v1, v2 = _prizes(rule, c1), _prizes(rule, c2)
        pos = witness.position
        if mode == "scale":
            c = c2.endowment / c1.endowment if c1.endowment else 0.0
            margin = abs(v2[pos - 1] - c * v1[pos - 1])
        else:
            comp3 = Competition(ranking=c1.ranking, endowment=c1.endowment + c2.endowment)
            v3 = _prizes(rule, comp3)
            margin = abs(v3[pos - 1] - (v1[pos - 1] + v2[pos - 1]))
        return margin > tol, margin
    if ax == "consistency":
        comp, _ = witness.competitions
        w2 = _consistency_violation(
            _Memo(rule), comp.ranking.by_position, comp.endowment,
            tuple(sorted(comp.ranking.position_of(cid) for cid in witness.subset)),
            mode, tol,
        )
        if w2 is None:
            return False, 0.0
        return True, w2.margin
    raise ValueError(f"unknown witness axiom: {ax}")


def _order_partner(witness: Witness, n: int) -> int:
    if witness.mode == "winner_loser_strict" and witness.position == 1:
        return n
    return witness.position + 1


# ---------------------------------------------------------------------------
# Axiom matrix


MATRIX_CELLS = (
    ("anonymity", None),
    ("order_preservation", "weak"),
    ("order_preservation", "winner_loser_strict"),
    ("order_preservation", "strict"),
    ("endowment_monotonicity", "weak"),
    ("endowment_monotonicity", "winner_strict"),
    ("endowment_monotonicity", "strict"),
    ("lipschitz", None),
    ("scale_invariance", None),
    ("consistency", "full"),
    ("consistency", "bilateral"),
    ("consistency", "local"),
    ("consistency", "top"),
)


def cell_key(axiom: str, mode: str | None) -> str:
    return axiom if mode is None else f"{axiom}:{mode}"


def _lipschitz_cell(rule, budget, tol, memo, mode=None) -> Verdict:
    """Lipschitz continuity is checked only once weak monotonicity passes;
    a failing weak-monotonicity verdict is returned in its place."""
    mono = _cell_verdict(cell_key("endowment_monotonicity", "weak"), rule, budget, tol, memo)
    return check_lipschitz(rule, budget, mono, tol, memo=memo) if mono.passed else mono


# One entry per axiom, called as (rule, budget, tol, memo, mode).  Each calls
# its checker through the module name at call time, so a patched check_* runs.
_AXIOM_ENTRIES = {
    "anonymity": lambda rule, budget, tol, memo, mode: check_anonymity(
        rule, budget, tol, memo=memo),
    "order_preservation": lambda rule, budget, tol, memo, mode: check_order_preservation(
        rule, budget, mode, tol, memo=memo),
    "endowment_monotonicity": lambda rule, budget, tol, memo, mode: (
        check_endowment_monotonicity(rule, budget, mode, tol, memo=memo)),
    "lipschitz": _lipschitz_cell,
    "scale_invariance": lambda rule, budget, tol, memo, mode: check_scale_invariance(
        rule, budget, tol, memo=memo),
    "consistency": lambda rule, budget, tol, memo, mode: check_consistency(
        rule, budget, mode, tol, memo=memo),
}

# The matrix cells in MATRIX_CELLS order, each taking (rule, budget, tol, memo).
_CELLS: dict[str, Callable[[RuleSpec, SampleBudget, float, _Memo], Verdict]] = {
    cell_key(axiom, mode): partial(_AXIOM_ENTRIES[axiom], mode=mode)
    for axiom, mode in MATRIX_CELLS
}


def _cell_verdict(key: str, rule, budget, tol, memo: _Memo) -> Verdict:
    """A cell's verdict, computed at most once per memo."""
    if key not in memo.verdicts:
        memo.verdicts[key] = _CELLS[key](rule, budget, tol, memo)
    return memo.verdicts[key]


def _matrix_row(rule, budget, tol) -> dict[str, Verdict | None]:
    memo = _Memo(rule)  # shared by the row's cells, dropped on return
    row: dict[str, Verdict | None] = {}
    for key in _CELLS:
        verdict = _cell_verdict(key, rule, budget, tol, memo)
        # a Lipschitz cell that holds its failed precondition shows as None
        row[key] = verdict if cell_key(verdict.axiom, verdict.mode) == key else None
    return row


def run_axiom_matrix(
    rules: Sequence[RuleSpec], budget: SampleBudget, tol: float = TAU_EQ
) -> dict[str, dict[str, Verdict | None]]:
    """One Verdict per (rule, axiom, mode) cell; deterministic given the seed.

    The Lipschitz cell is None when the rule fails weak endowment
    monotonicity (the lemma's hypothesis is unmet).  Rows are keyed by
    ``describe(rule)``; two rules with the same description raise
    DuplicateRow.
    """
    names = [describe(rule) for rule in rules]
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise DuplicateRow(f"two rules describe as {name!r}; matrix rows need distinct names")
        seen.add(name)
    return {name: _matrix_row(rule, budget, tol) for rule, name in zip(rules, names)}
