"""Command-line interface: data ingestion, commands, and reports.

Commands
  allocate   one competition -> prize vector
  table      prize vectors over an endowment range
  path       allocation path as CSV (endowment, prize_1, ..., prize_n)
  check      run one axiom checker against a rule
  matrix     full axiom matrix over a set of rules
  fit        fit one shape family to observed prize data
  classify   run all fits and report a tier

Exit codes: 0 success / all checks pass, 1 any axiom check failed (the
witness is printed), 2 input or usage error.  Output is deterministic
given --seed; --json (all but path, whose CSV is machine-readable already)
switches to a report that parses back losslessly.  Each ``_cmd_<name>(args)``
returns (exit code, report, human lines) and writes nothing: ``run`` prints
the report under --json, else the lines, and an input error to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from typing import Callable, Sequence

from .core import (
    TAU_EQ,
    EventSet,
    PrizeAllocError,
    PrizeTable,
    standard_competition,
)
# ParseError and parse_rule_spec are re-exported: the spec language lives in rules.
from .rules import (
    ED,
    MAX_RANGE_ROWS,
    WTA,
    WTS,
    Counterexample,
    Geometric,
    ParseError,
    Proportional,
    RuleSpec,
    allocate,
    arithmetic_rule,
    describe,
    hyperarithmetic_rule,
    parse_rule_spec,
    path_endowments,
    step_rule,
)
from .axioms import (
    MATRIX_CELLS,
    SampleBudget,
    Witness,
    cell_key,
    run_axiom_matrix,
    run_cell,
)
from .analysis import FIT_FAMILIES, TAU_FIT, classify, fit_family


class SchemaError(PrizeAllocError):
    pass


class NonNumeric(SchemaError):
    pass


class IoError(PrizeAllocError):
    pass


def _fmt(x: float) -> str:
    """Six-decimal display of a number in human-readable output; from 1e16
    on, where its six decimals would print every digit, its repr, which the
    JSON report prints too."""
    if abs(x) >= 1e16:
        return repr(x)
    s = f"{x:.6f}".rstrip("0").rstrip(".")
    return s if s else "0"


# ---------------------------------------------------------------------------
# Data ingestion


DATA_PACKAGE = "prizealloc.data"
BUNDLED_DATASETS = ("wcoop2019.json", "pga2019.json")


def load_prize_data(path: str, fmt: str | None = None, endowment: float | None = None) -> EventSet:
    """Load an event set from a JSON or CSV file.

    JSON schema: {"events": [{"name": ..., "endowment": ..., "prizes": [...]}]}.
    CSV schema: header ``position,prize``, one event per file, named by its
    path; the endowment comes from the ``endowment`` argument (CLI flag
    --endowment).

    Bundled dataset names (wcoop2019.json, pga2019.json) resolve to the
    packaged copies when no such file exists on disk.
    """
    if fmt is None:
        fmt = "csv" if path.lower().endswith(".csv") else "json"
    if fmt not in ("csv", "json"):
        raise SchemaError(f"unknown data format {fmt!r}; expected 'csv' or 'json'")
    try:
        text = _read_data_text(path)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if fmt == "json":
        return _parse_json_events(path, text)
    return _parse_csv_event(path, text, endowment)


def _read_data_text(path: str) -> str:
    if not os.path.exists(path) and path in BUNDLED_DATASETS:
        return resources.files(DATA_PACKAGE).joinpath(path).read_text()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_json_events(path: str, text: str) -> EventSet:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("events"), list):
        raise SchemaError(f"{path}: top-level object must contain an 'events' array")
    events = []
    for idx, ev in enumerate(doc["events"]):
        if not isinstance(ev, dict):
            raise SchemaError(f"{path}: events[{idx}] must be an object")
        missing = {"name", "endowment", "prizes"} - set(ev)
        if missing:
            raise SchemaError(f"{path}: events[{idx}] missing fields {sorted(missing)}")
        if not isinstance(ev["prizes"], list):  # a string or an object would read as its items
            raise SchemaError(f"{path}: events[{idx}]: 'prizes' must be an array")
        try:
            endowment = float(ev["endowment"])
            prizes = tuple(float(p) for p in ev["prizes"])
        except (TypeError, ValueError, OverflowError) as exc:  # a JSON int may exceed a float
            raise NonNumeric(f"{path}: events[{idx}]: {exc}") from exc
        events.append(PrizeTable(name=str(ev["name"]), endowment=endowment, prizes=prizes))
    return EventSet(events=tuple(events))


def _parse_csv_event(path: str, text: str, endowment: float | None) -> EventSet:
    if endowment is None:
        raise SchemaError(f"{path}: CSV input needs --endowment")
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows or [c.strip() for c in rows[0]] != ["position", "prize"]:
        raise SchemaError(f"{path}: line 1: expected header 'position,prize'")
    prizes: dict[int, float] = {}
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise SchemaError(f"{path}: line {line_no}: expected 2 columns, got {len(row)}")
        try:
            position = int(row[0])
            prize = float(row[1])
        except ValueError as exc:
            raise NonNumeric(f"{path}: line {line_no}: {exc}") from exc
        if position in prizes:
            raise SchemaError(f"{path}: line {line_no}: duplicate position {position}")
        prizes[position] = prize
    if sorted(prizes) != list(range(1, len(prizes) + 1)):
        raise SchemaError(f"{path}: positions must be 1..{len(prizes)} without gaps")
    table = PrizeTable(
        name=path,
        endowment=endowment,
        prizes=tuple(prizes[k] for k in sorted(prizes)),
    )
    return EventSet(events=(table,))


# ---------------------------------------------------------------------------
# Bundled rule set for the axiom matrix


def bundled_rules() -> tuple[RuleSpec, ...]:
    """The rule set the matrix command checks by default: one representative
    per family plus the named counterexample rules."""
    return (
        ED(),
        WTA(),
        WTS(1.0),
        step_rule(),
        Geometric(0.5),
        arithmetic_rule(),
        hyperarithmetic_rule(),
        Proportional((18.0, 10.9, 6.9, 4.9, 4.1)),
        Counterexample("lowest-takes-all"),
        Counterexample("threshold-switch"),
        Counterexample("pair-favoritism", i="p", j="q"),
        Counterexample("late-dollar"),
        Counterexample("ed2wta3"),
    )


# ---------------------------------------------------------------------------
# Human-readable reports


def _witness_lines(w: Witness) -> list[str]:
    return [
        f"witness ({w.axiom}" + (f", {w.mode}" if w.mode else "") + "):",
        *(f"  competition: {' > '.join(comp.ranking.by_position)} | E = {_fmt(comp.endowment)}"
          for comp in w.competitions),
        *([f"  subset: {{{', '.join(w.subset)}}}"] if w.subset else []),
        f"  violated at competitor {w.competitor} (position {w.position}): {w.relation}",
        f"  lhs = {w.lhs!r}, rhs = {w.rhs!r}, margin = {w.margin!r}",
    ]


# ---------------------------------------------------------------------------
# Command implementations: each returns (exit code, JSON report, human lines)


def _parse_endowments(spec: str) -> list[float]:
    """Either 'start:stop:step' (inclusive of stop) or comma-separated values."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise SchemaError(f"endowment range must be start:stop:step, got {spec!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise NonNumeric(f"endowment range {spec!r}: {exc}") from exc
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise SchemaError(f"endowment range {spec!r} must have finite bounds")
        if not 0 < step < math.inf:  # also rejects a NaN step
            raise SchemaError("endowment range step must be finite and > 0")
        out = []
        k = 0
        while True:
            e = start + k * step
            if e > stop + 1e-9 * max(1.0, abs(stop)):
                break
            if len(out) == MAX_RANGE_ROWS:
                raise SchemaError(f"endowment range {spec!r} has more than {MAX_RANGE_ROWS} rows")
            out.append(e)
            k += 1
        if not out:
            raise SchemaError(f"endowment range {spec!r} has no rows: start is above stop")
        return out
    try:
        return [float(p) for p in spec.split(",")]
    except ValueError as exc:
        raise NonNumeric(f"endowment list {spec!r}: {exc}") from exc


# Largest --n that allocate, table and path accept.  At this size one
# allocation takes 1-1.5 s for the costliest bundled families (sp:pwl,
# sp:cap, param:hyperarithmetic); without a cap a mistyped --n hangs.
MAX_ALLOCATION_N = 100_000


def _rows(args, endowments: Callable[[], list[float]]):
    """The rule ``--rule`` and, per E of ``endowments()``, what it pays the field
    c1..cn (n = ``--n``) out of E in position order; checked in that order."""
    rule = parse_rule_spec(args.rule)
    if not 1 <= args.n <= MAX_ALLOCATION_N:
        bound = "least 1" if args.n < 1 else f"most {MAX_ALLOCATION_N}"
        raise SchemaError(f"--n must be at {bound}, got {args.n}")
    return rule, [(e, allocate(rule, comp := standard_competition(args.n, e))
                   .by_position(comp.ranking)) for e in endowments()]


def _cmd_allocate(args):
    rule, [(_, vec)] = _rows(args, lambda: [args.endowment])
    report = {"command": "allocate", "rule": describe(rule), "n": args.n,
              "endowment": args.endowment, "prizes": list(vec)}
    return 0, report, [" ".join(map(_fmt, vec))]


def _cmd_table(args):
    rule, rows = _rows(args, lambda: _parse_endowments(args.endowments))
    report = {"command": "table", "rule": describe(rule), "n": args.n,
              "rows": [{"endowment": e, "prizes": list(v)} for e, v in rows]}
    return 0, report, [_fmt(e) + " | " + " ".join(map(_fmt, v)) for e, v in rows]


def _cmd_path(args):
    """CSV lines; every cell is a ``_fmt`` number, which needs no quoting."""
    _, rows = _rows(args, lambda: path_endowments(args.endowment, args.step))
    header = ",".join(["endowment", *(f"prize_{k}" for k in range(1, args.n + 1))])
    return 0, None, [header, *(",".join(map(_fmt, (e, *v))) for e, v in rows)]


def _cmd_check(args):
    rule = parse_rule_spec(args.rule)
    budget = SampleBudget(max_n=args.samples, rng_seed=args.seed)
    verdict = run_cell(rule, args.axiom, args.mode, budget, args.tol)
    report = {"command": "check", "rule": describe(rule), "seed": args.seed,
              "verdict": verdict.to_dict()}
    label = verdict.axiom + (f" ({verdict.mode})" if verdict.mode else "")
    lines = [f"{label}: {verdict.outcome.upper()} "
             f"[{verdict.samples_checked} samples, {verdict.budget}]"]
    if verdict.passed:
        return 0, report, lines
    return 1, report, lines + _witness_lines(verdict.witness)


def _cmd_matrix(args):
    rules = (bundled_rules() if args.rules is None
             else tuple(parse_rule_spec(spec) for spec in args.rules.split()))
    if not rules:
        raise SchemaError("--rules names no rule spec")
    budget = SampleBudget(max_n=args.samples, rng_seed=args.seed)
    matrix = run_axiom_matrix(rules, budget, args.tol)
    report = {
        "command": "matrix",
        "seed": args.seed,
        "budget": budget.describe(),
        "cells": {rule_name: {key: v and v.to_dict() for key, v in row.items()}
                  for rule_name, row in matrix.items()},
    }
    keys = [cell_key(a, m) for a, m in MATRIX_CELLS]
    width = max(len(describe(r)) for r in rules)
    lines = [" " * width + "  " + " ".join(f"{i:>2d}" for i in range(len(keys)))]
    lines += [f"{'':{width}}  # {idx}: {key}" for idx, key in enumerate(keys)]
    # a row's cells are in MATRIX_CELLS order, as ``keys`` are
    for rule_name, row in matrix.items():
        marks = ["-" if v is None else "P" if v.passed else "F" for v in row.values()]
        lines.append(f"{rule_name:{width}} " + " ".join(m.rjust(2) for m in marks))
    failed = [(rule_name, key, v.witness) for rule_name, row in matrix.items()
              for key, v in row.items() if v and not v.passed]
    for rule_name, key, witness in failed:
        lines += [f"-- {rule_name} / {key}", *_witness_lines(witness)]
    return (1 if failed else 0), report, lines


def _cmd_fit(args):
    events = load_prize_data(args.data, args.format, args.endowment)
    fit = fit_family(events, args.family, args.tol, args.slack)
    params = ", ".join(f"{k}={_fmt(val) if isinstance(val, float) else val}"
                       for k, val in fit.parameters.items())
    lines = [
        f"{fit.family} fit: {'OK' if fit.verdict else 'NO FIT'} "
        f"(max relative deviation {fit.max_rel_dev:.6g} at tolerance {fit.tolerance:g})",
        f"parameters: {params}",
        *(f"warning: {w}" for w in fit.warnings),
    ]
    return 0, {"command": "fit", "data": args.data, "fit": fit.to_dict()}, lines


def _cmd_classify(args):
    events = load_prize_data(args.data, args.format, args.endowment)
    result = classify(events, args.tol, args.slack)
    report = {"command": "classify", "data": args.data, **result.to_dict()}
    report["cross_event_scale"] = report.pop("scale_invariant_across_events")
    lines = [
        f"tier: {result.tier}",
        f"order preserved: {'yes' if result.order_preserved else 'no'}",
        f"geometric: {'OK' if result.geometric.verdict else 'no'} "
        f"(dev {result.geometric.max_rel_dev:.6g})",
        f"proportional: {'OK' if result.proportional.verdict else 'no'} "
        f"(dev {result.proportional.max_rel_dev:.6g})",
        f"interval pattern: {'OK' if result.interval_pattern.verdict else 'no'}",
    ]
    return 0, report, lines


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prizealloc",
        description="Prize allocation rules: allocate, check axioms, fit data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(*parents):
        return argparse.ArgumentParser(add_help=False, parents=parents)

    rule = shared()
    rule.add_argument("--rule", required=True, help="rule spec, e.g. geometric:lambda=0.5")
    field = shared(rule)
    field.add_argument("--n", type=int, required=True)
    budget = shared()
    budget.add_argument("--samples", type=int, default=5, help="maximum field size")
    budget.add_argument("--seed", type=int, default=0)
    budget.add_argument("--tol", type=float, default=TAU_EQ)
    data = shared()
    data.add_argument("--data", required=True, help="path or bundled dataset name")
    data.add_argument("--format", choices=("csv", "json"))
    data.add_argument("--endowment", type=float, help="endowment for CSV input")
    data.add_argument("--tol", type=float, default=TAU_FIT)
    data.add_argument("--slack", type=float, default=0.0,
                      help="absolute rounding slack per prize")

    p = sub.add_parser("allocate", help="allocate one endowment", parents=[field])
    p.add_argument("--endowment", type=float, required=True)

    p = sub.add_parser("table", help="allocations over an endowment range", parents=[field])
    p.add_argument("--endowments", required=True,
                   help="start:stop:step range or comma-separated list")

    p = sub.add_parser("path", help="allocation path as CSV", parents=[field])
    p.add_argument("--endowment", type=float, required=True, help="maximum endowment")
    p.add_argument("--step", type=float)

    p = sub.add_parser("check", help="check one axiom for a rule", parents=[rule, budget])
    p.add_argument("--axiom", required=True, choices=dict(MATRIX_CELLS))
    p.add_argument("--mode", choices=sorted({m for _, m in MATRIX_CELLS} - {None}))

    p = sub.add_parser("matrix", help="axiom matrix over a rule set", parents=[budget])
    p.add_argument("--rules", help="space-separated rule specs (default: bundled set)")

    p = sub.add_parser("fit", help="fit one family to observed prizes", parents=[data])
    p.add_argument("--family", required=True, choices=FIT_FAMILIES)

    sub.add_parser("classify", help="fit all families and assign a tier", parents=[data])

    for name, p in sub.choices.items():
        if name != "path":  # CSV is already machine-readable
            p.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def run(argv: Sequence[str] | None = None, out=None, err=None) -> int:
    """Parse and execute one command; returns the process exit code.  This
    is the one place that writes a report: the command's JSON report under
    ``--json``, else its human lines, ``--help`` to ``out`` and any error to ``err``."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:  # argparse writes its usage errors and --help to sys.stderr and sys.stdout
        with redirect_stdout(out), redirect_stderr(err):
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0) and 2
    try:
        code, report, lines = globals()[f"_cmd_{args.command}"](args)
    except PrizeAllocError as exc:
        print(f"error: {exc}", file=err)
        return 2
    if getattr(args, "json", False):
        print(json.dumps(report, sort_keys=True), file=out)
    else:
        print(*lines, sep="\n", file=out)
    return code


def main() -> None:
    try:
        code = run()
    except BrokenPipeError:  # the reader closed stdout early: no traceback
        # the final flush would raise again: let it write to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
