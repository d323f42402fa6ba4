"""Empirical axiom checkers.

Each checker takes a rule and a sampling budget and returns a Verdict:
pass-with-count or fail-with-witness.  The checkers are falsifiers, not
provers — the axioms quantify over infinite domains, so Pass only means
"no violation within the budget", and every verdict states the budget.

Each axiom's relation is written once, as a fault function ``fault(vector,
*sample, mode, tol) -> Witness | None``; ``vector(ids, E)`` gives the prizes
of the field ``ids`` in position order; ``AXIOMS`` holds each axiom's modes,
fault, witness size and rebuild, and the cell it needs to pass first.  A
checker enumerates samples in a deterministic ascending order (field size,
identity arrangement, endowment, subset size), so the first witness found is
already small, and screens them in batches, such as one field over the grid
or one E against every scalar.
``_scan``, the one verdict loop, runs the fault on the flagged samples only
and re-runs it to move a witness onto round endowments; ``verify_witness``
runs it on freshly allocated prizes, and ``tests/test_fixture_witnesses.py``
re-checks the fixture witnesses with relations of its own.

Prize vectors are read through a memo keyed by the ranking's ids and the
endowment, and computed by ``rules.prize_vector`` on position tuples;
``Competition`` objects are built only for a witness (a pair cell's row walk
hands its witness to ``_scan``) and while snapping it.  ``run_axiom_matrix``
shares one memo across a rule's row, so the four consistency modes screen
each batch once, and drops it when the row is done; a standalone check
builds its own, and ``verify_witness`` re-allocates through ``allocate``.
"""

from __future__ import annotations

import math
import random
import sys
from functools import lru_cache
from itertools import (accumulate, chain, combinations, compress, cycle, islice, permutations,
                       product, repeat)
from operator import add, and_, gt, itemgetter, le, lt, mul, sub
from typing import Callable, Iterator, NamedTuple, Sequence

from .core import TAU_EQ, Competition, PrizeAllocError, PrizeTable, Ranking, Record
from .rules import RuleSpec, allocate, describe, prize_vector
from .solver import SolverConfig

# Tighter residual than the allocation default, so solver error stays well
# below the comparison tolerance in consistency identities.
CHECK_SOLVER = SolverConfig(residual_tol=1e-12, max_iter=300)

# Below this endowment gap, strict-increase comparisons are numerically
# meaningless and the pair is skipped.
MIN_STRICT_GAP = 1e-6

# Largest grid endowment: ``scan_grid`` rounds 4*E to an integer, so 4*E
# must stay finite.
MAX_GRID_ENDOWMENT = sys.float_info.max / 4

# Largest field size a budget may ask for.  The full consistency scan visits
# every position subset, so its cost roughly doubles with each competitor.
MAX_FIELD_SIZE = 12


class PreconditionNotChecked(PrizeAllocError):
    pass


class InvalidBudget(PrizeAllocError, ValueError):
    pass


class DuplicateRow(PrizeAllocError):
    pass


class InvalidCheck(PrizeAllocError, ValueError):
    """A missing matrix cell, a check of no samples, or a tolerance not finite and >= 0."""


def check_tolerance(value: float, name: str = "tolerance") -> None:
    """InvalidCheck unless a tolerance (or a slack) is finite and >= 0."""
    if not 0 <= value < math.inf:  # also NaN
        raise InvalidCheck(f"{name} must be finite and >= 0, got {value!r}")


class SampleBudget(Record):
    """Sampling budget: competitor counts 1..max_n and an endowment grid."""

    max_n: int = 5
    endowment_grid: tuple[float, ...] = ()
    rng_seed: int = 0

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
        bad = [e for e in self.endowment_grid if not e <= MAX_GRID_ENDOWMENT]  # also NaN
        if bad:
            raise InvalidBudget(
                f"endowment grid values must be finite and <= {MAX_GRID_ENDOWMENT!r}, "
                f"got {bad[0]}")
        # not fields: the grid sorted, and in scan order, once per budget
        grid = tuple(sorted(set(self.endowment_grid)))
        object.__setattr__(self, "_sorted", grid)
        object.__setattr__(self, "_scan", tuple(sorted(
            grid, key=lambda e: abs(e * 4 - round(e * 4)) >= 1e-12)))

    def sorted_grid(self) -> tuple[float, ...]:
        return self._sorted

    def scan_grid(self) -> tuple[float, ...]:
        """Grid in scan order: round quarter-dollar values first, so the
        first witness found lands on a readable endowment."""
        return self._scan

    def describe(self) -> str:
        """The budget in words; a grid other than the seed's default is
        written out, so two budgets that sample differently read differently."""
        grid = self.endowment_grid
        values = "" if grid == _default_grid(self.rng_seed) else f" {list(grid)}"
        return f"max_n={self.max_n}, {len(grid)} grid endowments{values}, seed={self.rng_seed}"


@lru_cache
def _default_grid(seed: int) -> tuple[float, ...]:
    rng = random.Random(seed)
    return tuple([k * 0.25 for k in range(41)] + [rng.uniform(0.0, 10.0) for _ in range(50)])


def _pair_values(grid: Sequence[float]) -> list[float]:
    """Subsample for quadratic pair scans, keeping the scan affordable."""
    values, limit = sorted(set(grid)), 48
    if len(values) <= limit:
        return values
    stride = (len(values) - 1) / (limit - 1)
    return [values[round(i * stride)] for i in range(limit)]


class Witness(Record):
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


class Verdict(Record):
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

    def to_dict(self) -> dict:
        """The record's dict with ``outcome`` in place of ``passed``."""
        report = super().to_dict()
        del report["passed"]
        return {**report, "outcome": self.outcome}


def _witness(axiom, mode, fields, pos, competitor, lhs, rhs, relation, margin,
             subset=None) -> Witness:
    """A witness on the competitions ``fields``, pairs (ids, E)."""
    return Witness(axiom=axiom, mode=mode, competitions=tuple(_competition(*f) for f in fields),
                   subset=subset, competitor=competitor, position=pos,
                   lhs=lhs, rhs=rhs, relation=relation, margin=margin)


def _verdict(axiom, mode, budget, tol, count, witness=None) -> Verdict:
    text = budget if isinstance(budget, str) else budget.describe()
    return Verdict(axiom=axiom, mode=mode, passed=witness is None, samples_checked=count,
                   witness=witness, tolerance=tol, budget=text)


# Sampling helpers


def _generic_ids(n: int) -> tuple[str, ...]:
    return tuple(f"c{k}" for k in range(1, n + 1))


def _arrangements(rule: RuleSpec, n: int) -> list[tuple[str, ...]]:
    """Identity arrangements (ids in position order) to sample: a generic
    one, plus placements of a rule's designated competitors at varying
    position pairs."""
    rankings = [_generic_ids(n)]
    if rule.designated:
        i, j = rule.designated
        fillers = [f"z{k}" for k in range(1, n + 1)]
        for pi, pj in permutations(range(n), 2):
            ids = fillers[:]
            ids[pi], ids[pj] = i, j
            rankings.append(tuple(ids))
    return rankings


def _competition(ids: tuple[str, ...], endowment: float) -> Competition:
    return Competition(ranking=Ranking(ids), endowment=endowment)


class _Field(dict):
    """One field's prize vectors ``{E: vector}``, each computed on first lookup."""

    def __init__(self, rule: RuleSpec, ids: tuple[str, ...]):
        self.rule, self.ids = rule, ids  # dict.__new__ has made the empty dict

    def __missing__(self, e: float) -> tuple[float, ...]:
        vec = self[e] = prize_vector(self.rule, self.ids, e, CHECK_SOLVER)
        return vec


class _Memo:
    """One rule's prize vectors in position order, ``{ids: {E: vector}}``, and
    the cell verdicts and consistency batches computed from them."""

    def __init__(self, rule: RuleSpec):
        self.rule = rule
        self.vectors: dict[tuple[str, ...], _Field] = {}
        self.verdicts: dict[str, Verdict] = {}
        # {(grid, tol): {(ids, positions): first failing grid index or None}}
        self.batches: dict[tuple, dict[tuple, int | None]] = {}

    def field(self, ids: tuple[str, ...]) -> Callable[[float], tuple[float, ...]]:
        """``E -> vector`` for the field ``ids``: a loop over E looks it up once."""
        by_e = self.vectors.get(ids)
        if by_e is None:
            Ranking(ids)  # the distinct-id check, once per field rather than per (field, E)
            by_e = self.vectors[ids] = _Field(self.rule, ids)
        return by_e.__getitem__

    def vector(self, ids: tuple[str, ...], e: float) -> tuple[float, ...]:
        return self.field(ids)(e)


def _snap_candidates(e: float) -> list[float]:
    """Round grid points to try in place of a raw endowment, nearest first."""
    cands = (round(e * 4) / 4, round(e), round(e * 2) / 2)
    return list(dict.fromkeys(c for c in cands if c >= 0 and abs(c - e) > 1e-12))


def _scan(axiom, mode, budget, tol, vector, fault, samples, slots=()) -> Verdict:
    """The verdict of ``fault`` over ``samples``, tuples (count, sample) where
    count is the number of samples enumerated so far; a None sample stands
    for samples a screen cleared, counted but not tested, and a third item is
    the sample's witness, found already.  A witness moves to the first
    combination of round endowments, at the sample indices ``slots``, where
    the fault persists.  ``budget`` is a SampleBudget, or the text that names
    what was sampled."""
    count, w = 0, None
    for count, sample, *found in samples:
        w = found[0] if found else sample and fault(vector, *sample, mode, tol)
        if w is not None:
            grids = ([sample[i]] + _snap_candidates(sample[i]) for i in slots)
            moves = ([dict(zip(slots, es)).get(i, x) for i, x in enumerate(sample)]
                     for es in islice(product(*grids), 1, None))  # the first is the sample itself
            w = next(filter(None, (fault(vector, *moved, mode, tol) for moved in moves)), w)
            break
    return _verdict(axiom, mode, budget, tol, count, w)


def _pair_samples(budget, memo, fields, screen, fault, mode, tol):
    """``_scan`` samples over the grid pairs (E, E') of each field in
    ``fields``, in row-major order: a field's first pair where ``fault`` holds,
    as ``_first_pair`` finds it on the rows, slack and strict width that
    ``screen(grid, vectors, mode, tol)`` gives, with the witness its cached
    pair test built, then the field's pairs as cleared."""
    grid = budget.sorted_grid()
    g, count = len(grid), 0
    for ids in fields:
        test = lru_cache(lambda a, b: fault(memo.vector, ids, grid[a], grid[b], mode, tol))
        hit = _first_pair(grid, *screen(grid, list(map(memo.field(ids), grid)), mode, tol), test)
        if hit is not None:
            a, b = hit  # (a, b) is pair number a(g-1) - a(a-1)/2 + (b-a) of the field
            yield (count + a * (g - 1) - a * (a - 1) // 2 + (b - a), (ids, grid[a], grid[b]),
                   test(*hit))
        count += g * (g - 1) // 2
        yield count, None


# Anonymity


def check_anonymity(
    rule: RuleSpec, budget: SampleBudget, tol: float = TAU_EQ, *, memo: _Memo | None = None
) -> Verdict:
    """Each relabelled field meets the base field one grid endowment at a
    time; only prizes that differ by more than tol run the fault."""
    memo = memo or _Memo(rule)
    grid = budget.scan_grid()

    def samples():
        count = 0
        for n in range(1, budget.max_n + 1):
            base_ids, *others = _arrangements(rule, n)
            # generic rules still get one relabelled arrangement to compare
            others = others or [tuple(f"d{k}" for k in range(n, 0, -1))]
            base, fields = memo.field(base_ids), [(ids, memo.field(ids)) for ids in others]
            for e in grid:
                p = base(e)
                for ids, field in fields:
                    count += 1
                    q = field(e)
                    if q != p and not max(map(abs, map(sub, q, p))) <= tol:
                        yield count, (base_ids, ids, e)
        yield count, None

    return _scan("anonymity", None, budget, tol, memo.vector, _anonymity_fault, samples())


def _anonymity_fault(vector, base_ids, ids, e, mode, tol) -> Witness | None:
    """The fields ``base_ids`` and ``ids`` get equal prizes position by position."""
    base, vec = vector(base_ids, e), vector(ids, e)
    for pos, (lhs, rhs) in enumerate(zip(base, vec), start=1):
        if abs(rhs - lhs) > tol:
            return _witness("anonymity", None, ((base_ids, e), (ids, e)), pos, ids[pos - 1],
                            lhs, rhs, "equal prize for equal position", abs(rhs - lhs))
    return None


# Order preservation


def check_order_preservation(
    rule: RuleSpec, budget: SampleBudget, mode: str = "weak", tol: float = TAU_EQ,
    *, memo: _Memo | None = None,
) -> Verdict:
    """A batch, one field over the scan grid, is screened column by column
    with the fault's own tests: only endowments where the fault holds run
    it, or all of them if computing a prize raises."""
    cell_key("order_preservation", mode)  # refuses a mode the axiom lacks
    memo = memo or _Memo(rule)
    grid = budget.scan_grid()
    positive = [e > 0 for e in grid]

    def samples():
        count = 0
        for ids in (ids for n in range(2, budget.max_n + 1) for ids in _arrangements(rule, n)):
            try:
                cols = list(zip(*map(memo.field(ids), grid)))  # cols[r]: prize r + 1 at each E
                flags = map(any, zip(*(
                    map(and_, positive, map(le, cols[i], [p + tol for p in cols[j]])) if strict
                    else map(lt, cols[i], [p - tol for p in cols[j]])
                    for i, j, strict, _ in _order_tests(len(ids), mode))))
            except Exception:  # the fault meets the error at its own sample
                flags = repeat(True)
            yield from ((k, (ids, e)) for k, e in compress(enumerate(grid, count + 1), flags))
            count += len(grid)
        yield count, None

    return _scan("order_preservation", mode, budget, tol, memo.vector, _order_fault,
                 samples(), slots=(1,))


def _order_tests(n: int, mode: str) -> list[tuple[int, int, bool, str]]:
    """The order tests on a field of n, in the fault's order, as (i, j,
    strict, relation): prize i + 1 falls below prize j + 1 by at most tol,
    and if strict, for E > 0, exceeds it by more than tol."""
    tests = [(r - 1, r, False, "prize(r) >= prize(r+1)") for r in range(1, n)]
    if mode == "winner_loser_strict" and n >= 2:
        tests.append((0, n - 1, True, "prize(1) > prize(n) for E > 0"))
    if mode == "strict":
        tests += [(r - 1, r, True, "prize(r) > prize(r+1) for E > 0") for r in range(1, n)]
    return tests


def _order_fault(vector, ids, e, mode, tol) -> Witness | None:
    """Prizes do not rise with position; for E > 0 they also fall from first
    to last (winner_loser_strict) or at every step (strict)."""
    vec = vector(ids, e)
    for i, j, strict, relation in _order_tests(len(ids), mode):
        if e > 0 and vec[i] <= vec[j] + tol if strict else vec[i] < vec[j] - tol:
            return _witness("order_preservation", mode, ((ids, e),), i + 1, ids[i], vec[i], vec[j],
                            relation, vec[j] - vec[i] + tol if strict else vec[j] - vec[i])
    return None


# Endowment monotonicity and the Lipschitz consequence


MONOTONICITY_MODES = ("weak", "winner_strict", "strict")


def check_endowment_monotonicity(
    rule: RuleSpec, budget: SampleBudget, mode: str = "weak", tol: float = TAU_EQ,
    *, memo: _Memo | None = None,
) -> Verdict:
    cell_key("endowment_monotonicity", mode)  # refuses a mode the axiom lacks
    memo = memo or _Memo(rule)
    fields = (ids for n in range(1, budget.max_n + 1) for ids in _arrangements(rule, n))
    samples = _pair_samples(budget, memo, fields, _monotonicity_rows, _monotonicity_fault,
                            mode, tol)
    return _scan("endowment_monotonicity", mode, budget, tol, memo.vector, _monotonicity_fault,
                 samples, slots=(1, 2))


def _first_pair(grid, rows, slack, width, pair_test) -> tuple[int, int] | None:
    """First grid pair (a, b), a < b, in row-major order where ``pair_test(a, b)`` holds.

    Row a is flagged when an entry of ``rows[a]`` exceeds the minimum at its
    position over ``rows[a + 1:]`` by more than ``slack``, or, for the strict
    monotonicity part (``width`` 1: the first entry; more: every entry), when
    the entry plus ``slack`` reaches that minimum over the rows from the first
    one at least MIN_STRICT_GAP above E_a.  Only flagged rows are walked pair
    by pair, so the screens must flag every row that holds a pair the test fails.
    """
    # lists, as are the Lipschitz rows: CPython keeps freed short tuples for
    # reuse, so tuples of a length no other code makes (2n) would stay allocated
    suffix = list(accumulate(rows[::-1], lambda m, x: list(map(min, x, m))))[::-1]
    g = len(grid)
    for a in range(g - 1):
        row, b = rows[a], a + 1
        while width and b < g and grid[b] - grid[a] < MIN_STRICT_GAP:  # rarely walks
            b += 1
        if (any(map(gt, row, map(add, suffix[a + 1], repeat(slack)))) or width and b < g and (
                suffix[b][0] <= row[0] + slack if width == 1
                else any(map(le, suffix[b], map(add, row, repeat(slack)))))):
            for b in range(a + 1, g):
                if pair_test(a, b):
                    return a, b
    return None


def _monotonicity_rows(grid, vecs, mode, tol):
    """The prize vectors as ``_first_pair``'s rows, at slack tol.  Rounding is
    monotone, so fl(min p_b + tol) = min fl(p_b + tol): the screen flags exactly
    the rows that hold a weak failure, and its strict part (the winner, or
    every position) exactly those that hold a strict one."""
    return vecs, tol, MONOTONICITY_MODES.index(mode)  # strict width 0, 1 or 2


def _monotonicity_fault(vector, ids, e_lo, e_hi, mode, tol) -> Witness | None:
    """No prize of the field ``ids`` falls from ``e_lo`` to ``e_hi``; at a gap of
    at least MIN_STRICT_GAP the winner's (winner_strict) or every prize (strict) rises."""
    if e_hi <= e_lo:
        return None
    lo, hi = vector(ids, e_lo), vector(ids, e_hi)
    tests = [(i, False, "prize non-decreasing in E") for i in range(len(lo))]
    if e_hi - e_lo >= MIN_STRICT_GAP and mode == "winner_strict":
        tests.append((0, True, "winner prize strictly increasing in E"))
    elif e_hi - e_lo >= MIN_STRICT_GAP and mode == "strict":
        tests += [(i, True, "prize strictly increasing in E") for i in range(len(lo))]
    for i, strict, relation in tests:
        if hi[i] <= lo[i] + tol if strict else lo[i] > hi[i] + tol:
            return _witness("endowment_monotonicity", mode, ((ids, e_lo), (ids, e_hi)), i + 1,
                            ids[i], lo[i], hi[i], relation,
                            lo[i] - hi[i] + tol if strict else lo[i] - hi[i])
    return None


def check_lipschitz(
    rule: RuleSpec, budget: SampleBudget, monotonicity: Verdict | None = None,
    tol: float = TAU_EQ, *, memo: _Memo | None = None,
) -> Verdict:
    """Check |prize(E) - prize(E')| <= |E - E'| + tol over all grid pairs.

    The inequality is a consequence of (weak) endowment monotonicity, so the
    caller must supply a passing weak-monotonicity verdict for the same rule.
    """
    m = monotonicity
    if m is None or (m.axiom, m.mode, m.passed) != ("endowment_monotonicity", "weak", True):
        got = "None" if m is None else (
            f"a {'passed' if m.passed else 'failed'} {m.axiom} verdict of mode {m.mode!r}")
        raise PreconditionNotChecked(
            f"check_lipschitz needs a passed weak endowment_monotonicity verdict, got {got}")
    memo = memo or _Memo(rule)
    samples = _pair_samples(budget, memo, map(_generic_ids, range(1, budget.max_n + 1)),
                            _lipschitz_rows, _lipschitz_fault, None, tol)
    return _scan("lipschitz", None, budget, tol, memo.vector, _lipschitz_fault, samples)


def _lipschitz_rows(grid, vecs, mode, tol):
    """For E_a < E_b the Lipschitz bound fails exactly when p_a + E_a > p_b +
    E_b + tol or E_a - p_a > E_b - p_b + tol, so ``_first_pair`` screens the
    rows (p + E, E - p).  Those sums round differently from the fault, so the
    screen's slack is 1e-12 times the largest magnitude below tol, far beyond
    the few ulps either can be off by."""
    scale = max(1.0, tol, grid[-1], *(abs(p) for vec in vecs for p in vec))
    rows = [[*map(add, vec, repeat(e)), *map(sub, repeat(e), vec)] for e, vec in zip(grid, vecs)]
    return rows, tol - 1e-12 * scale, 0


def _lipschitz_fault(vector, ids, e_lo, e_hi, mode, tol) -> Witness | None:
    """|prize(E) - prize(E')| <= |E - E'| + tol on the field ``ids`` at ``e_lo`` and ``e_hi``."""
    lo, hi, d_e = vector(ids, e_lo), vector(ids, e_hi), abs(e_hi - e_lo)
    for i, gap in enumerate(map(abs, map(sub, hi, lo))):
        if gap > d_e + tol:
            return _witness("lipschitz", None, ((ids, e_lo), (ids, e_hi)), i + 1, ids[i],
                            gap, d_e, "|prize(E) - prize(E')| <= |E - E'|", gap - d_e)
    return None


# Scale invariance (checked jointly with endowment additivity)


# The scalars c of prize(c * E) = c * prize(E).
SCALARS = (0.0, 0.25, 0.5, 2.0, 3.0)


def check_scale_invariance(
    rule: RuleSpec, budget: SampleBudget, tol: float = TAU_EQ, *, memo: _Memo | None = None
) -> Verdict:
    """Scale invariance, checked jointly with endowment additivity.  A batch
    is one E against every c in SCALARS or every E' >= E; its samples run the
    fault only if some prize of the batch differs by more than tol, as the
    fault's relative test cannot fail otherwise, or if computing one raises."""
    memo = memo or _Memo(rule)
    values = _pair_values(budget.endowment_grid)
    fields: dict[tuple[str, ...], _Field] = {}  # the current field, on and off the grid

    def samples():
        count = 0
        for n in range(1, budget.max_n + 1):
            ids = _generic_ids(n)
            base = list(map(memo.field(ids), values))
            # c*E and E + E' off the grid stay out of the shared memo: no other cell reads them
            fields.clear()
            vec = fields[ids] = _Field(rule, ids)
            vec |= memo.vectors[ids]
            cs = [c for c in SCALARS for _ in ids]
            # a batch: (E, each sample's c or E', its left-hand E, all right-hand prizes, kind)
            for e, xs, lhs_es, rhs, kind in chain(
                ((e, SCALARS, map(mul, SCALARS, repeat(e)), map(mul, cs, cycle(p)), "scale")
                 for e, p in zip(values, base)),
                ((e, values[a:], map(add, repeat(e), values[a:]),
                  map(add, cycle(p), chain.from_iterable(base[a:])), "additivity")
                 for a, (e, p) in enumerate(zip(values, base)))):
                try:
                    lhs = chain.from_iterable(map(vec.__getitem__, lhs_es))
                    flagged = not max(map(abs, map(sub, lhs, rhs))) <= tol
                except Exception:  # the fault meets the error at its own sample
                    flagged = True
                if flagged:
                    yield from ((k, (ids, e, x, kind)) for k, x in enumerate(xs, count + 1))
                count += len(xs)
        yield count, None

    # a sample names its relation, scale or additivity; the cell has no mode
    return _scan("scale_invariance", None, budget, tol, lambda ids, e: fields[ids][e],
                 lambda vector, ids, e, x, kind, _, tol: _scale_fault(vector, ids, e, x, kind, tol),
                 samples())


def _scale_fault(vector, ids, e, x, mode, tol) -> Witness | None:
    """Mode "scale": prize(x*E) = x*prize(E); mode "additivity": prize(E + x) =
    prize(E) + prize(x).  Each equality holds within tol * max(1, |lhs|, |rhs|)."""
    if mode == "scale":
        fields, lhs_vec = ((ids, e), (ids, x * e)), vector(ids, x * e)
        rhs_vec = tuple(x * p for p in vector(ids, e))
        relation = f"prize({x}*E) = {x}*prize(E)"
    else:
        fields, lhs_vec = ((ids, e), (ids, x)), vector(ids, e + x)
        rhs_vec = tuple(map(add, vector(ids, e), vector(ids, x)))
        relation = "prize(E + E') = prize(E) + prize(E')"
    for pos, (lhs, rhs) in enumerate(zip(lhs_vec, rhs_vec), start=1):
        if abs(lhs - rhs) > tol * max(1.0, abs(lhs), abs(rhs)):
            return _witness("scale_invariance", mode, fields, pos, ids[pos - 1],
                            lhs, rhs, relation, abs(lhs - rhs))
    return None


# Consistency (full / bilateral / local / top)


def _position_subsets(n: int, mode: str) -> Iterator[tuple[int, ...]]:
    """Qualifying position subsets of sizes 2..n-1, smallest first: a single
    position or the full set makes the consistency identity trivially true."""
    max_size = 2 if mode == "bilateral" else n - 1
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
    """A batch, one field and position subset over the scan grid, is screened
    at once; its first grid index where the fault holds is kept in the memo,
    which the four modes share, as the relation does not depend on the mode."""
    cell_key("consistency", mode)  # refuses a mode the axiom lacks
    memo = memo or _Memo(rule)
    grid = budget.scan_grid()
    batches = memo.batches.setdefault((grid, tol), {})

    def first_fault(ids, positions):
        field, take = memo.field(ids), itemgetter(*(p - 1 for p in positions))
        reduced = memo.field(take(ids))
        for k, e in enumerate(grid):
            prizes = take(field(e))
            red = reduced(sum(prizes))
            if (red != prizes and not max(map(abs, map(sub, prizes, red))) <= tol
                    and _consistency_fault(memo.vector, ids, e, positions, mode, tol)):
                return k
        return None

    def samples():
        count = 0
        for key in ((ids, positions) for n in range(3, budget.max_n + 1)
                    for ids in _arrangements(rule, n) for positions in _position_subsets(n, mode)):
            if key not in batches:
                batches[key] = first_fault(*key)
            if batches[key] is not None:
                yield count + batches[key] + 1, (key[0], grid[batches[key]], key[1])
            count += len(grid)
        yield count, None

    return _scan("consistency", mode, budget, tol, memo.vector, _consistency_fault,
                 samples(), slots=(1,))


def _consistency_fault(vector, ids, e, positions, mode, tol) -> Witness | None:
    """The competition reduced to ``positions`` and to the prizes they won
    pays each of them the same.  ``positions`` ascend, so the subset's ids
    are already in ranking order."""
    vec = vector(ids, e)
    subset = tuple(ids[p - 1] for p in positions)
    sub_e = sum(vec[p - 1] for p in positions)
    red_vec = vector(subset, sub_e)
    for sub_pos, orig_pos in enumerate(positions, start=1):
        lhs, rhs = vec[orig_pos - 1], red_vec[sub_pos - 1]
        if abs(lhs - rhs) > tol:
            return _witness("consistency", mode, ((ids, e), (subset, sub_e)), orig_pos,
                            ids[orig_pos - 1], lhs, rhs,
                            "prize in reduced competition equals original prize",
                            abs(lhs - rhs), subset)
    return None


# Observed prize tables


def check_data_top_consistency(
    table: PrizeTable, rule: RuleSpec, tol: float = TAU_EQ, abs_slack: float = 0.0
) -> Verdict:
    """Does re-allocating each observed prefix sum reproduce the prefix?

    For every prefix length m, the sum of the top-m observed prizes is
    allocated by the rule to an m-competitor field; the result must match
    the observed prizes within the (relative) tolerance plus slack."""
    check_tolerance(tol)
    check_tolerance(abs_slack, "slack")
    prizes = table.prizes
    samples = ((_generic_ids(m), float(sum(prizes[:m])), pos, prizes[pos - 1], abs_slack)
               for m in range(1, len(prizes) + 1) for pos in range(1, m + 1))
    return _scan("data_top_consistency", None, f"{len(prizes)} prefixes of table {table.name!r}",
                 tol, _Memo(rule).vector, _data_top_fault, enumerate(samples, 1))


def _excess(observed: float, predicted: float, abs_slack: float) -> float:
    """Relative deviation net of an absolute rounding slack."""
    gap = max(0.0, abs(observed - predicted) - abs_slack)
    if gap == 0.0:
        return 0.0
    denom = max(abs(observed), abs(predicted))
    return gap / denom if denom else math.inf


def _data_top_fault(vector, ids, e, pos, observed, slack, mode, tol) -> Witness | None:
    """The field ``ids``, paid the sum ``e`` of the observed top prizes, gets
    the observed prize at ``pos`` within the relative tol, net of ``slack``."""
    predicted = vector(ids, e)[pos - 1]
    if _excess(observed, predicted, slack) <= tol:
        return None
    return _witness("data_top_consistency", None, ((ids, e),), pos, ids[pos - 1], observed,
                    predicted, "rule on prefix sum reproduces observed prize",
                    abs(observed - predicted))


# The axiom table and matrix


def _at_endowments(w, ids, *es):
    """The default rebuild: the field ``ids`` at each competition's endowment."""
    return [(ids, *es)]


class _Axiom(NamedTuple):
    """An axiom's modes, default first (the data check is no matrix cell and
    has none); its fault's name, looked up when it runs, so a patched fault
    runs; its witness's number of competitions; ``rebuild(witness, ids, *es)``,
    the fault's samples for a witness on the field ``ids`` paid ``es``; and
    the cell (axiom, mode) that must pass before its checker runs."""

    modes: tuple
    fault: str
    competitions: int = 2
    rebuild: Callable = _at_endowments
    needs: tuple = ()


AXIOMS = {
    "anonymity": _Axiom((None,), "_anonymity_fault", rebuild=lambda w, ids, e, _: [
        (ids, w.competitions[1].ranking.by_position, e)]),
    "order_preservation": _Axiom(("weak", "winner_loser_strict", "strict"), "_order_fault",
                                 competitions=1),
    "endowment_monotonicity": _Axiom(MONOTONICITY_MODES, "_monotonicity_fault"),
    "lipschitz": _Axiom((None,), "_lipschitz_fault", needs=("endowment_monotonicity", "weak")),
    # a scale witness does not store its scalar: each c in SCALARS with c * E == E' is tried
    "scale_invariance": _Axiom((None,), "_scale_fault", rebuild=lambda w, ids, e, e2: [
        (ids, e, e2)] if w.mode != "scale" else [(ids, e, c) for c in SCALARS if c * e == e2]),
    "consistency": _Axiom(("full", "bilateral", "local", "top"), "_consistency_fault",
                          rebuild=lambda w, ids, e, _: [(ids, e, tuple(sorted(
                              map(Ranking(ids).position_of, w.subset))))]),
    # re-run on the stored observed prize at slack 0, which can only widen the gap
    "data_top_consistency": _Axiom((), "_data_top_fault", competitions=1,
                                   rebuild=lambda w, ids, e: [(ids, e, w.position, w.lhs, 0.0)]),
}

MATRIX_CELLS = tuple((axiom, mode) for axiom, (modes, *_) in AXIOMS.items() for mode in modes)


def verify_witness(rule: RuleSpec, witness: Witness, tol: float = TAU_EQ) -> tuple[bool, float]:
    """Re-run the checker's fault, on prizes freshly allocated through
    ``allocate`` (no memo), on the samples the axiom's rebuild gives for the
    witness.  Returns (still_violates, margin): True and the fault's margin
    once it reports the witness's position and relation, else (False, 0.0)."""
    check_tolerance(tol)
    if witness.axiom not in AXIOMS:
        raise InvalidCheck(f"unknown witness axiom: {witness.axiom}")
    entry = AXIOMS[witness.axiom]
    if len(witness.competitions) != entry.competitions:
        raise InvalidCheck(f"a {witness.axiom} witness holds {entry.competitions} "
                           f"competition(s), got {len(witness.competitions)}")

    def vector(ids: tuple[str, ...], e: float) -> tuple[float, ...]:
        comp = _competition(ids, e)
        return allocate(rule, comp, CHECK_SOLVER).by_position(comp.ranking)

    for sample in entry.rebuild(witness, witness.competitions[0].ranking.by_position,
                                *(c.endowment for c in witness.competitions)):
        w = globals()[entry.fault](vector, *sample, witness.mode, tol)
        if w is not None and (w.position, w.relation) == (witness.position, witness.relation):
            return True, w.margin
    return False, 0.0


def cell_key(axiom: str, mode: str | None) -> str:
    """The matrix key of the cell (axiom, mode); InvalidCheck if there is none."""
    modes = AXIOMS.get(axiom, [()])[0]
    if not modes:
        raise InvalidCheck(f"unknown axiom {axiom!r}; expected one of {list(dict(MATRIX_CELLS))}")
    if mode not in modes:
        raise InvalidCheck(f"axiom {axiom!r} has no mode {mode!r}; expected one of {list(modes)}")
    return axiom if mode is None else f"{axiom}:{mode}"


def _cell(axiom: str, mode: str | None, rule, budget, tol, memo: _Memo) -> Verdict:
    """The cell's verdict, computed at most once per memo by ``check_<axiom>``,
    which is looked up in the module at call time, so a patched checker runs.
    The cell the axiom ``needs`` comes first: failing, it stands in this
    cell's place; passing, it is the checker's third argument."""
    key, needs = cell_key(axiom, mode), AXIOMS[axiom].needs
    needed = needs and (_cell(*needs, rule, budget, tol, memo),)
    if needed and not needed[0].passed:
        return needed[0]
    if key not in memo.verdicts:
        args = {} if mode is None else {"mode": mode}
        memo.verdicts[key] = globals()[f"check_{axiom}"](
            rule, budget, *needed, tol=tol, memo=memo, **args)
    return memo.verdicts[key]


def run_cell(rule: RuleSpec, axiom: str, mode: str | None, budget: SampleBudget,
             tol: float = TAU_EQ) -> Verdict:
    """One matrix cell on a fresh memo.  An axiom's first mode in AXIOMS is
    its default; an axiom without modes ignores ``mode``."""
    check_tolerance(tol)
    modes = AXIOMS.get(axiom, [()])[0]  # none: cell_key refuses the axiom
    if modes and (None in modes or mode is None):
        mode = modes[0]
    verdict = _cell(axiom, mode, rule, budget, tol, _Memo(rule))
    if not verdict.samples_checked:
        raise InvalidCheck(f"{cell_key(axiom, mode)} checks no samples at max_n={budget.max_n}: "
                           "consistency needs max_n >= 3, an endowment pair two grid endowments")
    return verdict


def _matrix_row(rule, budget, tol) -> dict[str, Verdict | None]:
    memo = _Memo(rule)  # shared by the row's cells, dropped on return
    # a Lipschitz cell that holds its failed precondition shows as None
    return {cell_key(axiom, mode): verdict if verdict.axiom == axiom else None
            for axiom, mode in MATRIX_CELLS
            for verdict in [_cell(axiom, mode, rule, budget, tol, memo)]}


def run_axiom_matrix(
    rules: Sequence[RuleSpec], budget: SampleBudget, tol: float = TAU_EQ
) -> dict[str, dict[str, Verdict | None]]:
    """One Verdict per (rule, axiom, mode) cell; deterministic given the seed.

    The Lipschitz cell is None when the rule fails weak endowment
    monotonicity (the lemma's hypothesis is unmet).  Rows are keyed by
    ``describe(rule)``; two rules with the same description raise
    DuplicateRow.
    """
    check_tolerance(tol)
    names = [describe(rule) for rule in rules]
    for k, name in enumerate(names):
        if name in names[:k]:
            raise DuplicateRow(f"two rules describe as {name!r}; matrix rows need distinct names")
    return {name: _matrix_row(rule, budget, tol) for rule, name in zip(rules, names)}
