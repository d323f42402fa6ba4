"""Command-line interface: rule-spec parsing, data ingestion, and reports.

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
given --seed; --json switches to a machine-readable report that parses
back losslessly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from importlib import resources
from typing import Sequence

from .core import (
    TAU_EQ,
    EventSet,
    PrizeAllocError,
    PrizeTable,
    standard_competition,
)
from .rules import (
    ED,
    WTA,
    WTS,
    Counterexample,
    Geometric,
    Interval,
    IntervalList,
    MonotoneFn,
    Proportional,
    RuleSpec,
    SingleParametric,
    allocate,
    arithmetic_rule,
    describe,
    hyperarithmetic_rule,
    step_rule,
    _fmt,
)
from .solver import trace_path
from .axioms import (
    CONSISTENCY_MODES,
    MATRIX_CELLS,
    MONOTONICITY_MODES,
    ORDER_MODES,
    SampleBudget,
    Verdict,
    Witness,
    _CELLS,
    _Memo,
    cell_key,
    run_axiom_matrix,
)
from .analysis import (
    TAU_FIT,
    classify,
    detect_interval_pattern,
    fit_geometric,
    fit_proportional,
)


class ParseError(PrizeAllocError):
    """Rule-spec syntax error, with position and expected tokens."""

    def __init__(self, text: str, position: int, expected: str):
        self.text = text
        self.position = position
        self.expected = expected
        super().__init__(
            f"cannot parse rule spec {text!r} at position {position}: expected {expected}"
        )


class SchemaError(PrizeAllocError):
    pass


class NonNumeric(SchemaError):
    pass


class IoError(PrizeAllocError):
    pass


# ---------------------------------------------------------------------------
# Rule-spec mini-language


def _parse_float(text: str, token: str, offset: int, expected: str) -> float:
    if token == "inf":
        return math.inf
    try:
        return float(token)
    except ValueError:
        raise ParseError(text, offset, expected) from None


def parse_rule_spec(text: str) -> RuleSpec:
    """Parse the rule mini-language (the inverse of ``describe``).

    Grammar:
      ed | wta
      wts:a=<value|inf>
      interval:[a,b];[a,b];...          (only the last b may be inf)
      geometric:lambda=<value>
      proportional:<w1>,<w2>,...
      sp:arithmetic | sp:linear=<s> | sp:cap=<a> | sp:pwl=<x>:<y>,<x>:<y>,...
      param:hyperarithmetic
      cx:<name> | cx:pair-favoritism=<i>,<j>
    """
    head, sep, rest = text.partition(":")
    body_at = len(head) + 1
    if head == "ed":
        if sep:
            raise ParseError(text, body_at, "no arguments after 'ed'")
        return ED()
    if head == "wta":
        if sep:
            raise ParseError(text, body_at, "no arguments after 'wta'")
        return WTA()
    if head == "wts":
        if not rest.startswith("a="):
            raise ParseError(text, body_at, "'a=<value>'")
        return WTS(_parse_float(text, rest[2:], body_at + 2, "a number or 'inf'"))
    if head == "interval":
        if not rest:
            raise ParseError(text, body_at, "at least one '[a,b]' interval")
        pairs = []
        pos = body_at
        for part in rest.split(";"):
            if not (part.startswith("[") and part.endswith("]")):
                raise ParseError(text, pos, "'[a,b]'")
            inner = part[1:-1].split(",")
            if len(inner) != 2:
                raise ParseError(text, pos + 1, "two comma-separated endpoints")
            a = _parse_float(text, inner[0], pos + 1, "a number")
            b = _parse_float(text, inner[1], pos + 2 + len(inner[0]), "a number or 'inf'")
            pairs.append((a, b))
            pos += len(part) + 1
        return Interval(IntervalList(tuple(pairs)))
    if head == "geometric":
        if not rest.startswith("lambda="):
            raise ParseError(text, body_at, "'lambda=<value>'")
        return Geometric(_parse_float(text, rest[7:], body_at + 7, "a number in [0, 1]"))
    if head == "proportional":
        if not rest:
            raise ParseError(text, body_at, "comma-separated weights")
        pos = body_at
        weights = []
        for part in rest.split(","):
            weights.append(_parse_float(text, part, pos, "a number"))
            pos += len(part) + 1
        return Proportional(tuple(weights))
    if head == "sp":
        if rest == "arithmetic":
            return arithmetic_rule()
        if rest.startswith("linear="):
            return SingleParametric(
                MonotoneFn.linear(
                    _parse_float(text, rest[7:], body_at + 7, "a slope in [0, 1]"))
            )
        if rest.startswith("cap="):
            return SingleParametric(
                MonotoneFn.cap(_parse_float(text, rest[4:], body_at + 4, "a cap >= 0"))
            )
        if rest.startswith("pwl="):
            points = []
            pos = body_at + 4
            for part in rest[4:].split(","):
                xy = part.split(":")
                if len(xy) != 2:
                    raise ParseError(text, pos, "'<x>:<y>' breakpoint")
                x = _parse_float(text, xy[0], pos, "a number")
                y = _parse_float(text, xy[1], pos + len(xy[0]) + 1, "a number")
                points.append((x, y))
                pos += len(part) + 1
            return SingleParametric(MonotoneFn.piecewise(points))
        raise ParseError(text, body_at, "'arithmetic', 'linear=', 'cap=', or 'pwl='")
    if head == "param":
        if rest == "hyperarithmetic":
            return hyperarithmetic_rule()
        raise ParseError(text, body_at, "'hyperarithmetic'")
    if head == "cx":
        name, _, args = rest.partition("=")
        if name == "pair-favoritism":
            ids = args.split(",") if args else []
            if len(ids) != 2 or not all(ids):
                raise ParseError(
                    text, body_at + len(name) + 1, "two comma-separated competitor ids")
            return Counterexample(name, i=ids[0], j=ids[1])
        if args:
            raise ParseError(text, body_at + len(name), "no '=' arguments for this rule")
        return Counterexample(name)
    raise ParseError(
        text, 0,
        "one of ed, wta, wts, interval, geometric, proportional, sp, param, cx",
    )


# ---------------------------------------------------------------------------
# Data ingestion


DATA_PACKAGE = "prizealloc.data"
BUNDLED_DATASETS = ("wcoop2019.json", "pga2019.json")


def load_prize_data(
    path: str, fmt: str | None = None, endowment: float | None = None, name: str | None = None
) -> EventSet:
    """Load an event set from a JSON or CSV file.

    JSON schema: {"events": [{"name": ..., "endowment": ..., "prizes": [...]}]}.
    CSV schema: header ``position,prize``, one event per file; the endowment
    comes from the ``endowment`` argument (CLI flag --endowment).

    Bundled dataset names (wcoop2019.json, pga2019.json) resolve to the
    packaged copies when no such file exists on disk.
    """
    if fmt is None:
        fmt = "csv" if path.lower().endswith(".csv") else "json"
    try:
        text = _read_data_text(path)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if fmt == "json":
        return _parse_json_events(path, text)
    if fmt == "csv":
        return _parse_csv_event(path, text, endowment, name)
    raise SchemaError(f"unknown data format {fmt!r}; expected 'csv' or 'json'")


def _read_data_text(path: str) -> str:
    import os
    if not os.path.exists(path) and path in BUNDLED_DATASETS:
        return resources.files(DATA_PACKAGE).joinpath(path).read_text()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_json_events(path: str, text: str) -> EventSet:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or "events" not in doc:
        raise SchemaError(f"{path}: top-level object must contain an 'events' array")
    events = []
    for idx, ev in enumerate(doc["events"]):
        if not isinstance(ev, dict):
            raise SchemaError(f"{path}: events[{idx}] must be an object")
        missing = {"name", "endowment", "prizes"} - set(ev)
        if missing:
            raise SchemaError(f"{path}: events[{idx}] missing fields {sorted(missing)}")
        try:
            endowment = float(ev["endowment"])
            prizes = tuple(float(p) for p in ev["prizes"])
        except (TypeError, ValueError) as exc:
            raise NonNumeric(f"{path}: events[{idx}]: {exc}") from exc
        events.append(PrizeTable(name=str(ev["name"]), endowment=endowment, prizes=prizes))
    return EventSet(events=tuple(events))


def _parse_csv_event(
    path: str, text: str, endowment: float | None, name: str | None
) -> EventSet:
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
        name=name or path,
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
# Serialization


def witness_to_dict(w: Witness) -> dict:
    return {
        "axiom": w.axiom,
        "mode": w.mode,
        "competitions": [
            {"ranking": list(c.ranking.by_position), "endowment": c.endowment}
            for c in w.competitions
        ],
        "subset": list(w.subset) if w.subset is not None else None,
        "competitor": w.competitor,
        "position": w.position,
        "lhs": w.lhs,
        "rhs": w.rhs,
        "relation": w.relation,
        "margin": w.margin,
    }


def verdict_to_dict(v: Verdict) -> dict:
    return {
        "axiom": v.axiom,
        "mode": v.mode,
        "outcome": v.outcome,
        "samples_checked": v.samples_checked,
        "tolerance": v.tolerance,
        "budget": v.budget,
        "witness": witness_to_dict(v.witness) if v.witness else None,
    }


def _fit_to_dict(report) -> dict:
    params = {
        k: (list(val) if isinstance(val, tuple) else val)
        for k, val in report.parameters.items()
    }
    return {
        "family": report.family,
        "parameters": params,
        "max_rel_dev": report.max_rel_dev,
        "verdict": report.verdict,
        "tolerance": report.tolerance,
        "warnings": list(report.warnings),
    }


def _print_witness(w: Witness, out) -> None:
    print(f"witness ({w.axiom}" + (f", {w.mode}" if w.mode else "") + "):", file=out)
    for comp in w.competitions:
        ranking = " > ".join(comp.ranking.by_position)
        print(f"  competition: {ranking} | E = {_fmt(comp.endowment)}", file=out)
    if w.subset:
        print(f"  subset: {{{', '.join(w.subset)}}}", file=out)
    where = f"competitor {w.competitor} (position {w.position})"
    print(f"  violated at {where}: {w.relation}", file=out)
    print(f"  lhs = {w.lhs!r}, rhs = {w.rhs!r}, margin = {w.margin!r}", file=out)


# ---------------------------------------------------------------------------
# Command implementations


MAX_RANGE_ROWS = 100_000


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
        return out
    try:
        return [float(p) for p in spec.split(",")]
    except ValueError as exc:
        raise NonNumeric(f"endowment list {spec!r}: {exc}") from exc


def _budget_from_args(args) -> SampleBudget:
    return SampleBudget(max_n=args.samples, rng_seed=args.seed)


def _emit(report: dict, as_json: bool, out, human_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True), file=out)
    else:
        for line in human_lines:
            print(line, file=out)


def _cmd_allocate(args, out) -> int:
    rule = parse_rule_spec(args.rule)
    comp = standard_competition(args.n, args.endowment)
    vec = allocate(rule, comp).by_position(comp.ranking)
    report = {
        "command": "allocate",
        "rule": describe(rule),
        "n": args.n,
        "endowment": args.endowment,
        "prizes": list(vec),
    }
    _emit(report, args.json, out, [" ".join(_fmt(p) for p in vec)])
    return 0


def _cmd_table(args, out) -> int:
    rule = parse_rule_spec(args.rule)
    endowments = _parse_endowments(args.endowments)
    rows = []
    for e in endowments:
        comp = standard_competition(args.n, e)
        rows.append((e, allocate(rule, comp).by_position(comp.ranking)))
    report = {
        "command": "table",
        "rule": describe(rule),
        "n": args.n,
        "rows": [{"endowment": e, "prizes": list(v)} for e, v in rows],
    }
    lines = [
        _fmt(e) + " | " + " ".join(_fmt(p) for p in vec) for e, vec in rows
    ]
    _emit(report, args.json, out, lines)
    return 0


def _cmd_path(args, out) -> int:
    rule = parse_rule_spec(args.rule)
    trace = trace_path(rule, args.n, args.endowment, args.step)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["endowment"] + [f"prize_{k}" for k in range(1, args.n + 1)])
    for e, alloc in trace.samples:
        ranking = standard_competition(args.n, e).ranking
        writer.writerow([_fmt(e)] + [_fmt(p) for p in alloc.by_position(ranking)])
    return 0


AXIOM_NAMES = tuple(dict.fromkeys(axiom for axiom, _ in MATRIX_CELLS))


def _run_check(rule: RuleSpec, axiom: str, mode: str | None, budget: SampleBudget,
               tol: float) -> Verdict:
    """One matrix cell on a fresh memo.  The first mode MATRIX_CELLS lists
    for an axiom is its default; an axiom without modes ignores --mode."""
    modes = [m for a, m in MATRIX_CELLS if a == axiom]
    key = axiom if modes[0] is None else cell_key(axiom, mode or modes[0])
    if key not in _CELLS:
        raise SchemaError(f"axiom {axiom!r} has no mode {mode!r}; expected one of {modes}")
    return _CELLS[key](rule, budget, tol, _Memo(rule))


def _cmd_check(args, out) -> int:
    rule = parse_rule_spec(args.rule)
    budget = _budget_from_args(args)
    verdict = _run_check(rule, args.axiom, args.mode, budget, args.tol)
    report = {
        "command": "check",
        "rule": describe(rule),
        "seed": args.seed,
        "verdict": verdict_to_dict(verdict),
    }
    label = verdict.axiom + (f" ({verdict.mode})" if verdict.mode else "")
    lines = [
        f"{label}: {verdict.outcome.upper()} "
        f"[{verdict.samples_checked} samples, {verdict.budget}]"
    ]
    _emit(report, args.json, out, lines)
    if not args.json and verdict.witness is not None:
        _print_witness(verdict.witness, out)
    return 0 if verdict.passed else 1


def _cmd_matrix(args, out) -> int:
    if args.rules:
        rules = tuple(parse_rule_spec(spec) for spec in args.rules.split())
    else:
        rules = bundled_rules()
    budget = _budget_from_args(args)
    matrix = run_axiom_matrix(rules, budget, args.tol)
    report = {
        "command": "matrix",
        "seed": args.seed,
        "budget": budget.describe(),
        "cells": {
            rule_name: {
                key: (verdict_to_dict(v) if v is not None else None)
                for key, v in row.items()
            }
            for rule_name, row in matrix.items()
        },
    }
    lines = []
    keys = [cell_key(a, m) for a, m in MATRIX_CELLS]
    width = max(len(describe(r)) for r in rules)
    lines.append(" " * width + "  " + " ".join(f"{i:>2d}" for i in range(len(keys))))
    for idx, key in enumerate(keys):
        lines.append(f"{'':{width}}  # {idx}: {key}")
    any_fail = False
    for rule_name, row in matrix.items():
        marks = []
        for key in keys:
            v = row[key]
            if v is None:
                marks.append(" -")
            elif v.passed:
                marks.append(" P")
            else:
                marks.append(" F")
                any_fail = True
        lines.append(f"{rule_name:{width}} " + " ".join(m.strip().rjust(2) for m in marks))
    _emit(report, args.json, out, lines)
    if not args.json:
        for rule_name, row in matrix.items():
            for key in keys:
                v = row[key]
                if v is not None and not v.passed and v.witness is not None:
                    print(f"-- {rule_name} / {key}", file=out)
                    _print_witness(v.witness, out)
    return 1 if any_fail else 0


def _cmd_fit(args, out) -> int:
    events = load_prize_data(args.data, args.format, args.endowment)
    if args.family == "geometric":
        fit = fit_geometric(events.events[0], args.tol, args.slack)
    elif args.family == "proportional":
        fit = fit_proportional(events, args.tol, args.slack)
    elif args.family == "interval":
        fit = detect_interval_pattern(events.events[0], args.tol, args.slack)
    else:
        raise SchemaError(f"unknown fit family {args.family!r}")
    report = {"command": "fit", "data": args.data, "fit": _fit_to_dict(fit)}
    params = ", ".join(
        f"{k}={_fmt(val) if isinstance(val, float) else val}"
        for k, val in fit.parameters.items()
    )
    lines = [
        f"{fit.family} fit: {'OK' if fit.verdict else 'NO FIT'} "
        f"(max relative deviation {fit.max_rel_dev:.6g} at tolerance {fit.tolerance:g})",
        f"parameters: {params}",
    ]
    lines.extend(f"warning: {w}" for w in fit.warnings)
    _emit(report, args.json, out, lines)
    return 0


def _cmd_classify(args, out) -> int:
    events = load_prize_data(args.data, args.format, args.endowment)
    result = classify(events, args.tol, args.slack)
    report = {
        "command": "classify",
        "data": args.data,
        "order_preserved": result.order_preserved,
        "tier": result.tier,
        "geometric": _fit_to_dict(result.geometric),
        "proportional": _fit_to_dict(result.proportional),
        "interval_pattern": _fit_to_dict(result.interval_pattern),
        "cross_event_scale": (
            _fit_to_dict(result.scale_invariant_across_events)
            if result.scale_invariant_across_events is not None else None
        ),
    }
    lines = [
        f"tier: {result.tier}",
        f"order preserved: {'yes' if result.order_preserved else 'no'}",
        f"geometric: {'OK' if result.geometric.verdict else 'no'} "
        f"(dev {result.geometric.max_rel_dev:.6g})",
        f"proportional: {'OK' if result.proportional.verdict else 'no'} "
        f"(dev {result.proportional.max_rel_dev:.6g})",
        f"interval pattern: {'OK' if result.interval_pattern.verdict else 'no'}",
    ]
    _emit(report, args.json, out, lines)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prizealloc",
        description="Prize allocation rules: allocate, check axioms, fit data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_rule(p):
        p.add_argument("--rule", required=True, help="rule spec, e.g. geometric:lambda=0.5")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("allocate", help="allocate one endowment")
    common_rule(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--endowment", type=float, required=True)

    p = sub.add_parser("table", help="allocations over an endowment range")
    common_rule(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--endowments", required=True,
                   help="start:stop:step range or comma-separated list")

    p = sub.add_parser("path", help="allocation path as CSV")
    p.add_argument("--rule", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--endowment", type=float, required=True, help="maximum endowment")
    p.add_argument("--step", type=float, default=None)

    p = sub.add_parser("check", help="check one axiom for a rule")
    common_rule(p)
    p.add_argument("--axiom", required=True, choices=AXIOM_NAMES)
    p.add_argument("--mode", default=None,
                   choices=sorted(set(ORDER_MODES) | set(MONOTONICITY_MODES)
                                  | set(CONSISTENCY_MODES)))
    p.add_argument("--samples", type=int, default=5, help="maximum field size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=TAU_EQ)

    p = sub.add_parser("matrix", help="axiom matrix over a rule set")
    p.add_argument("--rules", default=None,
                   help="space-separated rule specs (default: bundled set)")
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=TAU_EQ)
    p.add_argument("--json", action="store_true")

    def common_data(p):
        p.add_argument("--data", required=True, help="path or bundled dataset name")
        p.add_argument("--format", default=None, choices=("csv", "json"))
        p.add_argument("--endowment", type=float, default=None,
                       help="endowment for CSV input")
        p.add_argument("--tol", type=float, default=TAU_FIT)
        p.add_argument("--slack", type=float, default=0.0,
                       help="absolute rounding slack per prize")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("fit", help="fit one family to observed prizes")
    p.add_argument("--family", required=True, choices=("geometric", "proportional", "interval"))
    common_data(p)

    p = sub.add_parser("classify", help="fit all families and assign a tier")
    common_data(p)

    return parser


_DISPATCH = {
    "allocate": _cmd_allocate,
    "table": _cmd_table,
    "path": _cmd_path,
    "check": _cmd_check,
    "matrix": _cmd_matrix,
    "fit": _cmd_fit,
    "classify": _cmd_classify,
}


def run(argv: Sequence[str] | None = None, out=None, err=None) -> int:
    """Parse and execute one command; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0) and 2
    try:
        return _DISPATCH[args.command](args, out)
    except PrizeAllocError as exc:
        print(f"error: {exc}", file=err)
        return 2


def main() -> None:
    sys.exit(run())
