"""Every failed cell of the matrix fixtures, re-checked without the scanner.

Each witness's competitions are rebuilt from the JSON and re-allocated
through ``allocate``; the relation the witness states is evaluated here,
keyed on its ``relation`` text, so this check shares no relation code with
``prizealloc.axioms``.  No bundled rule fails the Lipschitz cell or the
additivity half of scale invariance, so two rules built here supply those
witnesses.
"""

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

from prizealloc.axioms import CHECK_SOLVER, SampleBudget, run_cell
from prizealloc.cli import bundled_rules
from prizealloc.core import Competition, Ranking
from prizealloc.rules import RuleSpec, allocate, describe

FIXTURES = Path(__file__).parent / "fixtures"

# The strict endowment relations are not tested across gaps below this.
STRICT_GAP = 1e-6

SCALE = re.compile(r"prize\((.+)\*E\) = (.+)\*prize\(E\)")


def _failed_cells():
    for seed in (0, 1):
        doc = json.loads((FIXTURES / f"matrix_seed{seed}.json").read_text())
        for rule_name, row in doc["cells"].items():
            for key, verdict in row.items():
                if verdict is not None and verdict["outcome"] == "fail":
                    yield pytest.param(rule_name, verdict, id=f"seed{seed}-{rule_name}-{key}")


RULES = {describe(rule): rule for rule in bundled_rules()}


def _prizes(rule, ids, e):
    ranking = Ranking(tuple(ids))
    return allocate(rule, Competition(ranking=ranking, endowment=e), CHECK_SOLVER).by_position(
        ranking)


def _stated_relation(rule, witness, tol):
    """(competitor, lhs, rhs, violated) of the witness's relation at its position."""
    relation, pos = witness["relation"], witness["position"]
    (ids, e), *rest = [(c["ranking"], c["endowment"]) for c in witness["competitions"]]
    vec = _prizes(rule, ids, e)
    if relation == "equal prize for equal position":
        other_ids, other_e = rest[0]
        assert other_e == e
        lhs, rhs = vec[pos - 1], _prizes(rule, other_ids, e)[pos - 1]
        return other_ids[pos - 1], lhs, rhs, abs(lhs - rhs) > tol
    if relation == "prize(r) >= prize(r+1)":
        lhs, rhs = vec[pos - 1], vec[pos]
        return ids[pos - 1], lhs, rhs, lhs < rhs - tol
    if relation == "prize(r) > prize(r+1) for E > 0":
        lhs, rhs = vec[pos - 1], vec[pos]
        return ids[pos - 1], lhs, rhs, e > 0 and lhs <= rhs + tol
    if relation == "prize(1) > prize(n) for E > 0":
        assert pos == 1
        return ids[0], vec[0], vec[-1], e > 0 and vec[0] <= vec[-1] + tol
    if relation == "prize in reduced competition equals original prize":
        sub_ids, sub_e = rest[0]
        assert sub_ids == witness["subset"] == [c for c in ids if c in sub_ids]
        assert abs(sub_e - sum(vec[ids.index(c)] for c in sub_ids)) <= 1e-12
        lhs = vec[pos - 1]
        rhs = _prizes(rule, sub_ids, sub_e)[sub_ids.index(ids[pos - 1])]
        return ids[pos - 1], lhs, rhs, abs(lhs - rhs) > tol
    # the remaining relations compare the first field at a second endowment
    other_ids, e2 = rest[0]
    assert other_ids == ids
    other = _prizes(rule, ids, e2)
    if relation == "prize non-decreasing in E":
        lhs, rhs = vec[pos - 1], other[pos - 1]
        return ids[pos - 1], lhs, rhs, e < e2 and lhs > rhs + tol
    if relation in ("prize strictly increasing in E", "winner prize strictly increasing in E"):
        assert pos == 1 or not relation.startswith("winner")
        lhs, rhs = vec[pos - 1], other[pos - 1]
        return ids[pos - 1], lhs, rhs, e2 - e >= STRICT_GAP and rhs <= lhs + tol
    if relation == "|prize(E) - prize(E')| <= |E - E'|":
        lhs, rhs = abs(other[pos - 1] - vec[pos - 1]), abs(e2 - e)
        return ids[pos - 1], lhs, rhs, lhs > rhs + tol
    if relation == "prize(E + E') = prize(E) + prize(E')":
        lhs, rhs = _prizes(rule, ids, e + e2)[pos - 1], vec[pos - 1] + other[pos - 1]
    else:
        match = SCALE.fullmatch(relation)
        assert match and match[1] == match[2], f"unknown relation {relation!r}"
        c = float(match[1])
        assert c * e == e2
        lhs, rhs = other[pos - 1], c * vec[pos - 1]
    return ids[pos - 1], lhs, rhs, abs(lhs - rhs) > tol * max(1.0, abs(lhs), abs(rhs))


def _assert_violates_its_relation(rule, witness, tol):
    competitor, lhs, rhs, violated = _stated_relation(rule, witness, tol)
    assert violated
    assert competitor == witness["competitor"]
    assert math.isclose(lhs, witness["lhs"], rel_tol=0, abs_tol=1e-12)
    assert math.isclose(rhs, witness["rhs"], rel_tol=0, abs_tol=1e-12)


@pytest.mark.parametrize("rule_name, verdict", list(_failed_cells()))
def test_fixture_witness_violates_its_relation(rule_name, verdict):
    _assert_violates_its_relation(RULES[rule_name], verdict["witness"], verdict["tolerance"])


@dataclass(frozen=True)
class Doubling(RuleSpec):
    """Pays the winner 2E: weakly monotone in E but not 1-Lipschitz.  A rule
    that pays out exactly E and is monotone is 1-Lipschitz, so this one pays
    more than E, which no cell reads."""

    def prizes(self, ids, e, cfg):
        return [2.0 * e] + [0.0] * (len(ids) - 1)

    def spec(self):
        return "test:doubling"


@dataclass(frozen=True)
class DyadicSwitch(RuleSpec):
    """Winner-takes-all when E is a binary fraction with a numerator below
    2**20 (the grid's quarter-dollar values), equal division otherwise (its
    random draws).  Every checked scalar keeps E on its side, so scale
    invariance holds; a quarter-dollar value plus a random draw changes side,
    so additivity fails."""

    def prizes(self, ids, e, cfg):
        n = len(ids)
        if e.as_integer_ratio()[0] < 2 ** 20:
            return [e] + [0.0] * (n - 1)
        return [e / n] * n

    def spec(self):
        return "test:dyadic-switch"


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("rule, axiom, relation", [
    (Doubling(), "lipschitz", "|prize(E) - prize(E')| <= |E - E'|"),
    (DyadicSwitch(), "scale_invariance", "prize(E + E') = prize(E) + prize(E')"),
], ids=["lipschitz", "additivity"])
def test_built_witness_violates_its_relation(rule, axiom, relation, seed):
    verdict = run_cell(rule, axiom, None, SampleBudget(max_n=3, rng_seed=seed))
    assert (verdict.axiom, verdict.passed) == (axiom, False)
    witness = verdict.witness.to_dict()
    assert witness["relation"] == relation
    _assert_violates_its_relation(rule, witness, verdict.tolerance)
