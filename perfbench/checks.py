"""Output checks, run outside the timed region.

Each check returns None when the output is right and a one-line reason
when it is not; a wrong output counts as a failed op.  The level
functions of the `sp:` and `param:` rules are re-implemented here from
the spec text, so the recursion checks do not trust the program's own
function objects.
"""

from __future__ import annotations

import csv
import io
import json
import math

from inputs import CliOp, TableOp

# Expected answers on the bundled datasets at the default 1% fit tolerance,
# with and without 1 unit of rounding slack (acceptance criteria 2 and 3).
EXPECTED_TIER = {"wcoop2019.json": "locally-consistent", "pga2019.json": "top-consistent"}
EXPECTED_FIT = {
    ("wcoop2019.json", "geometric"): True,
    ("wcoop2019.json", "proportional"): True,
    ("wcoop2019.json", "interval"): False,
    ("pga2019.json", "geometric"): False,
    ("pga2019.json", "proportional"): True,
    ("pga2019.json", "interval"): False,
}


def tol_for(endowment: float) -> float:
    return 1e-9 * max(1.0, abs(endowment))


def level_function(spec: str):
    """f for an `sp:` spec, as an independent Python function."""
    body = spec.split(":", 1)[1]
    if body == "arithmetic":
        return lambda x: max(0.0, x - 1.0)
    name, _, arg = body.partition("=")
    if name == "linear":
        s = float(arg)
        return lambda x: s * x
    if name == "cap":
        c = float(arg)
        return lambda x: min(c, x)
    if name == "pwl":
        pts = [tuple(float(v) for v in p.split(":")) for p in arg.split(",")]

        def pwl(x: float) -> float:
            for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
                if x <= x1:
                    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
            (x0, y0), (x1, y1) = pts[-2], pts[-1]
            return y1 + (y1 - y0) / (x1 - x0) * (x - x1)
        return pwl
    raise ValueError(f"no level function for {spec!r}")


def check_table_op(pa, op: TableOp, results: list) -> str | None:
    """`results[i]` is the (competition, allocation) for `op.endowments[i]`."""
    if len(results) != len(op.endowments):
        return f"{op.spec[:40]} n={op.n}: {len(results)} results for {len(op.endowments)} endowments"
    f = level_function(op.spec) if op.spec.startswith("sp:") else None
    for e, (comp, alloc) in zip(op.endowments, results):
        where = f"{op.spec[:40]} n={op.n} E={e!r}"
        vec = alloc.by_position(comp.ranking)
        tol = tol_for(e)
        if len(vec) != op.n:
            return f"{where}: {len(vec)} prizes"
        if not pa.validate_allocation(comp, alloc):
            return f"{where}: validate_allocation failed"
        if op.spec != "cx:lowest-takes-all":
            for k in range(op.n - 1):
                if vec[k + 1] > vec[k] + tol:
                    return f"{where}: prize {k + 2} > prize {k + 1}"
        if f is not None:
            for k in range(op.n - 1):
                if abs(vec[k + 1] - f(vec[k])) > tol:
                    return f"{where}: p_{k + 2} != f(p_{k + 1})"
        if op.spec == "param:hyperarithmetic":
            for k in range(2, op.n + 1):
                if abs(vec[k - 1] - max(0.0, vec[0] - k)) > tol:
                    return f"{where}: p_{k} != f_{k}(p_1)"
    return None


def marks_of(row: dict, keys: list[str]) -> str:
    return "".join(
        "-" if row[k] is None else ("P" if row[k].passed else "F") for k in keys
    )


def check_matrix(pa, rules, matrix: dict, golden: dict, keys: list[str]) -> str | None:
    """Every mark equals the golden matrix and every witness re-verifies.

    `golden` maps describe(rule) to the expected marks; `pa.verify_witness`
    is looked up at call time so a traced run records it.
    """
    if list(matrix) != list(golden):
        return f"matrix rows {list(matrix)[:3]}... != bundled rules"
    for rule in rules:
        name = pa.describe(rule)
        row = matrix[name]
        marks = marks_of(row, keys)
        if marks != golden[name]:
            return f"{name[:40]}: marks {marks} != golden {golden[name]}"
        for key in keys:
            v = row[key]
            if v is not None and not v.passed:
                ok, _ = pa.axioms.verify_witness(rule, v.witness, v.tolerance)
                if not ok:
                    return f"{name[:40]} / {key}: witness does not re-verify"
    return None


def _witness_from_dict(pa, d: dict):
    comps = tuple(
        pa.Competition(ranking=pa.Ranking(tuple(c["ranking"])), endowment=float(c["endowment"]))
        for c in d["competitions"]
    )
    return pa.Witness(
        axiom=d["axiom"], mode=d["mode"], competitions=comps,
        subset=tuple(d["subset"]) if d["subset"] is not None else None,
        competitor=d["competitor"], position=d["position"], lhs=d["lhs"], rhs=d["rhs"],
        relation=d["relation"], margin=d["margin"],
    )


def _check_verdict_dict(pa, rule, v: dict, expect_pass: bool) -> str | None:
    passed = v["outcome"] == "pass"
    if passed != expect_pass:
        return f"outcome {v['outcome']}, expected {'pass' if expect_pass else 'fail'}"
    if not passed:
        ok, _ = pa.axioms.verify_witness(rule, _witness_from_dict(pa, v["witness"]),
                                         v["tolerance"])
        if not ok:
            return f"{v['axiom']} witness rebuilt from JSON does not re-verify"
    return None


def _sums_to(prizes, e: float, tol: float) -> bool:
    return all(p >= -tol for p in prizes) and abs(math.fsum(prizes) - e) <= tol


def check_cli_op(pa, op: CliOp, code: int | None, out: str, err: str,
                 golden: dict, keys: list[str]) -> str | None:
    """Exit code, parsed output and re-verified witnesses of one invocation."""
    if code is None:
        return "timed out"
    if code != op.expect_exit:
        return f"exit {code}, expected {op.expect_exit}: {err.strip()[-160:]}"
    if op.kind == "malformed":
        return None if "error" in err else "exit 2 without an error message"
    if op.kind == "path":
        return _check_path(op, out)
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if op.kind == "allocate":
        e = float(op.argv[op.argv.index("--endowment") + 1])
        n = int(op.argv[op.argv.index("--n") + 1])
        if len(doc["prizes"]) != n or not _sums_to(doc["prizes"], e, tol_for(e)):
            return f"prizes {doc['prizes'][:4]}... do not sum to {e}"
    elif op.kind == "table":
        if not doc["rows"]:
            return "empty table"
        for row in doc["rows"]:
            if not _sums_to(row["prizes"], row["endowment"], tol_for(row["endowment"])):
                return f"row at E={row['endowment']} does not sum"
    elif op.kind == "fit":
        family = op.argv[op.argv.index("--family") + 1]
        if doc["fit"]["verdict"] != EXPECTED_FIT[(op.dataset, family)]:
            return f"{family} fit verdict {doc['fit']['verdict']} on {op.dataset}"
    elif op.kind == "classify":
        if doc["tier"] != EXPECTED_TIER[op.dataset]:
            return f"tier {doc['tier']} on {op.dataset}"
    elif op.kind == "check":
        rule = pa.parse_rule_spec(op.spec)
        return _check_verdict_dict(pa, rule, doc["verdict"], op.expect_exit == 0)
    elif op.kind == "matrix":
        rule = pa.parse_rule_spec(op.spec)
        (row,) = doc["cells"].values()
        marks = "".join(
            "-" if row[k] is None else ("P" if row[k]["outcome"] == "pass" else "F")
            for k in keys
        )
        if marks != golden[op.spec]:
            return f"marks {marks} != golden {golden[op.spec]}"
        for k in keys:
            if row[k] is not None and row[k]["outcome"] == "fail":
                reason = _check_verdict_dict(pa, rule, row[k], False)
                if reason:
                    return f"{k}: {reason}"
    return None


def _check_path(op: CliOp, out: str) -> str | None:
    n = int(op.argv[op.argv.index("--n") + 1])
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != ["endowment"] + [f"prize_{k}" for k in range(1, n + 1)]:
        return "bad CSV header"
    if len(rows) < 2:
        return "no path rows"
    for row in rows[1:]:
        e, prizes = float(row[0]), [float(v) for v in row[1:]]
        # prizes are printed to 6 decimals
        if len(prizes) != n or not _sums_to(prizes, e, 1e-6 * n * max(1.0, e)):
            return f"path row at E={row[0]} does not sum"
    return None
