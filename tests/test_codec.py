"""The ``--json`` reports are the records' own fields, and they parse back.

``fixtures/fit_classify_reports.json`` holds the exact stdout of ``fit --json``
(each family) and ``classify --json`` on both bundled datasets and on
``fixtures/event.csv``, recorded before the reports were built by
``Record.to_dict``.  ``fixtures/cli_human.json`` holds the exit code, stdout
and stderr of every command's human output (witnesses, ``-`` matrix cells,
fit warnings and four exit-2 errors), recorded before the commands returned
their reports to one printer in ``run``.  A witness's JSON is rebuilt here by hand, so the round
trip shares no decoding code with the package.
"""

import io
import json
from functools import cache
from pathlib import Path

import pytest

from prizealloc.axioms import SampleBudget, Witness, run_axiom_matrix
from prizealloc.cli import bundled_rules, run
from prizealloc.core import Competition, Ranking

FIXTURES = Path(__file__).parent / "fixtures"
REPORTS = json.loads((FIXTURES / "fit_classify_reports.json").read_text())
HUMAN = json.loads((FIXTURES / "cli_human.json").read_text())


@pytest.mark.parametrize("case", REPORTS, ids=lambda case: " ".join(case["argv"][:-1]))
def test_fit_and_classify_reports_are_byte_identical(case, monkeypatch):
    monkeypatch.chdir(FIXTURES)  # the reports echo the relative --data path
    out, err = io.StringIO(), io.StringIO()
    assert run(case["argv"], out=out, err=err) == 0, err.getvalue()
    assert out.getvalue() == case["stdout"]


@pytest.mark.parametrize("case", HUMAN, ids=lambda case: " ".join(case["argv"])[:60])
def test_human_output_is_byte_identical(case, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    out, err = io.StringIO(), io.StringIO()
    code = run(case["argv"], out=out, err=err)
    assert (code, out.getvalue(), err.getvalue()) == (case["code"], case["stdout"], case["stderr"])


@cache
def _matrix(seed):
    return run_axiom_matrix(bundled_rules(), SampleBudget(rng_seed=seed))


def _failed_cells():
    for seed in (0, 1):
        doc = json.loads((FIXTURES / f"matrix_seed{seed}.json").read_text())
        for rule_name, row in doc["cells"].items():
            for key, verdict in row.items():
                if verdict is not None and verdict["outcome"] == "fail":
                    yield pytest.param(seed, rule_name, key, verdict["witness"],
                                       id=f"seed{seed}-{rule_name}-{key}")


def _witness_from_dict(d: dict) -> Witness:
    competitions = tuple(Competition(Ranking(tuple(c["ranking"])), c["endowment"])
                         for c in d["competitions"])
    subset = None if d["subset"] is None else tuple(d["subset"])
    return Witness(**{**d, "competitions": competitions, "subset": subset})


@pytest.mark.parametrize("seed, rule_name, key, fixture", list(_failed_cells()))
def test_witness_parses_back_losslessly(seed, rule_name, key, fixture):
    witness = _matrix(seed)[rule_name][key].witness
    assert witness.to_dict() == fixture
    assert _witness_from_dict(json.loads(json.dumps(witness.to_dict()))) == witness
