"""Seeded input generation for the three workloads.

Everything here is a pure function of the workload seed, so the same seed
gives the same op list.  The program under test only ever sees the
generated rule specs, field sizes, endowments and argv lists.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Round-robin order of the `tables` rule specs.  The heads are fixed; the
# numeric parameters are drawn per op.
TABLE_HEADS = (
    "ed", "wta", "wts", "step64", "geometric", "proportional",
    "sp:arithmetic", "sp:linear", "sp:cap", "sp:pwl",
    "param:hyperarithmetic", "cx:late-dollar", "cx:lowest-takes-all",
)
STEP64_SPEC = "interval:" + ";".join(f"[{k - 1},{k}]" for k in range(1, 65))
TABLE_N_MIN, TABLE_N_MAX = 2, 120
ENDOWMENTS_PER_OP = 8


@dataclass(frozen=True)
class TableOp:
    spec: str
    n: int
    endowments: tuple[float, ...]


def _num(x: float) -> str:
    """Short decimal text that parses back to the value that is checked."""
    return f"{x:.4f}".rstrip("0").rstrip(".")


def _pwl_spec(rng: random.Random) -> str:
    # Breakpoints (0,0), (x1,y1), (x2,y2) with both slopes inside (0, 1), so
    # f(x) <= x holds everywhere and the final slope stays in [0, 1].
    x1 = round(rng.uniform(0.5, 3.0), 3)
    y1 = round(x1 * rng.uniform(0.2, 0.9), 3)
    x2 = round(x1 + rng.uniform(1.0, 6.0), 3)
    y2 = round(y1 + (x2 - x1) * rng.uniform(0.1, 0.9), 3)
    return f"sp:pwl=0:0,{_num(x1)}:{_num(y1)},{_num(x2)}:{_num(y2)}"


def table_spec(head: str, n: int, rng: random.Random) -> str:
    """One rule spec for the given head, with parameters drawn from rng."""
    if head == "wts":
        return f"wts:a={_num(rng.uniform(0.25, 4.0))}"
    if head == "step64":
        return STEP64_SPEC
    if head == "geometric":
        return f"geometric:lambda={_num(rng.uniform(0.3, 0.95))}"
    if head == "proportional":
        weights = sorted((rng.uniform(0.1, 10.0) for _ in range(n)), reverse=True)
        return "proportional:" + ",".join(_num(w) for w in weights)
    if head == "sp:linear":
        return f"sp:linear={_num(rng.uniform(0.3, 0.95))}"
    if head == "sp:cap":
        return f"sp:cap={_num(rng.uniform(0.5, 5.0))}"
    if head == "sp:pwl":
        return _pwl_spec(rng)
    return head


def log_grid_sizes(count: int) -> list[int]:
    """`count` field sizes at the midpoints of equal-width strata of log n
    on [TABLE_N_MIN, TABLE_N_MAX]: a fixed log-uniform sample."""
    lo, hi = math.log(TABLE_N_MIN), math.log(TABLE_N_MAX)
    return [round(math.exp(lo + (k + 0.5) / count * (hi - lo))) for k in range(count)]


def table_ops(seed: int, per_head: int) -> list[TableOp]:
    """`per_head` ops for each of the 13 heads, interleaved round-robin.

    The single-parametric solves at the largest n set wall_s and op_p90_ms,
    and their cost depends on n and on the rule parameters, so a seeded n or
    sp: parameter moved those metrics from seed to seed by more than a
    regression worth catching.  Every seed therefore gets the same field
    sizes, and the sp: heads the same parameters at each size (drawn once
    from a fixed stream); the seed draws the endowments, the parameters of
    the other heads and the op order.  The solver's cost barely depends on E.
    """
    rng = random.Random(f"tables-{seed}")
    fixed = random.Random("tables-sp-parameters")
    slots = {}
    for head in TABLE_HEADS:
        sizes = log_grid_sizes(per_head)
        if head.startswith("sp:"):
            slots[head] = [(n, table_spec(head, n, fixed)) for n in sizes]
        else:
            slots[head] = [(n, None) for n in sizes]
        rng.shuffle(slots[head])
    ops = []
    for k in range(per_head):
        for head in TABLE_HEADS:
            n, spec = slots[head][k]
            spec = spec or table_spec(head, n, rng)
            endowments = tuple(rng.uniform(0.0, 5.0 * n) for _ in range(ENDOWMENTS_PER_OP))
            ops.append(TableOp(spec, n, endowments))
    return ops


# ---------------------------------------------------------------------------
# cli


@dataclass(frozen=True)
class CliOp:
    kind: str               # allocate, table, path, fit, classify, check, matrix, malformed
    argv: tuple[str, ...]   # arguments after the program name
    expect_exit: int
    spec: str | None = None     # rule spec, when the op has one
    dataset: str | None = None


DATASETS = ("wcoop2019.json", "pga2019.json")
FIT_FAMILIES = ("geometric", "proportional", "interval")
# Short rule specs for the whole-process ops; the long ones (64 steps, n
# proportional weights) belong to `tables`.
CLI_HEADS = (
    "ed", "wta", "wts", "geometric", "sp:arithmetic", "sp:linear", "sp:cap",
    "sp:pwl", "param:hyperarithmetic", "cx:late-dollar", "cx:lowest-takes-all",
)
# Bundled rules for the single-rule `matrix --rules` ops: rows that cost well
# under a second (the heavy rows are the `matrix` workload's job).  The set
# is fixed, not seeded: these ops sit near p90, so a seeded pick among rows
# of 0.15-0.5 s moved op_p90_ms from seed to seed.
CLI_MATRIX_RULES = ("cx:late-dollar", "wta", "geometric:lambda=0.5")
BAD_CSV = "bad_header.csv"
CHECK_DIAGONALS = (0, 6)


def _cli_spec(rng: random.Random, n: int) -> str:
    return table_spec(rng.choice(CLI_HEADS), n, rng)


def _malformed(rng: random.Random, k: int) -> tuple[str, ...]:
    """The k-th malformed input template, with random values filled in.
    Every template exits 2 with a message at the seed commit."""
    n = str(rng.randint(2, 9))
    e = _num(rng.uniform(0.5, 50.0))
    templates = (
        ("allocate", "--rule", "bogus" + str(rng.randint(0, 99)), "--n", n, "--endowment", e),
        ("allocate", "--rule", f"geometric:lambda={_num(rng.uniform(1.5, 9.0))}",
         "--n", n, "--endowment", e),
        ("allocate", "--rule", "ed", "--n", n, "--endowment", "-" + e),
        ("allocate", "--rule", "ed", "--n", "0", "--endowment", e),
        ("allocate", "--rule", f"wts:a=-{_num(rng.uniform(0.1, 5.0))}", "--n", n,
         "--endowment", e),
        ("allocate", "--rule", f"proportional:1,{_num(rng.uniform(1.5, 9.0))}",
         "--n", "2", "--endowment", e),
        ("allocate", "--rule", "sp:pwl=0:0,1:" + _num(rng.uniform(1.5, 9.0)),
         "--n", n, "--endowment", e),
        ("allocate", "--rule", "ed", "--n", "x" + n, "--endowment", e),
        ("table", "--rule", "ed", "--n", n, "--endowments", f"0:{e}"),
        ("table", "--rule", "ed", "--n", n, "--endowments", f"0:{e}:0"),
        ("table", "--rule", "ed", "--n", n, "--endowments", f"1,{e},x"),
        ("fit", "--family", "geometric", "--data", f"missing-{rng.randint(0, 99)}/prizes.json"),
        ("fit", "--family", "geometric", "--data", BAD_CSV, "--endowment", e),
        ("check", "--rule", "ed", "--axiom", "fairness"),
        ("classify", "--data", rng.choice(DATASETS), "--format", "xml"),
        ("matrix", "--rules", "ed wta:x"),
    )
    return templates[k % len(templates)]


def cli_ops(seed: int, golden: dict, bundled_specs: tuple[str, ...],
            cells: tuple[tuple[str, str | None], ...], tiny: bool = False) -> list[CliOp]:
    """The whole-process op mix: 100 invocations (10 when tiny).

    `golden` maps a bundled spec to its expected matrix marks, `cells` is
    the ordered list of matrix cells.  Check ops take the default budget so
    their exit code can be read off `golden`.
    """
    rng = random.Random(f"cli-{seed}")
    counts = dict(allocate=26, table=10, path=6, fit=10, classify=6, malformed=13,
                  check=26, matrix=3)
    if tiny:
        counts = dict(allocate=2, table=1, path=1, fit=1, classify=1, malformed=2,
                      check=1, matrix=1)
    ops: list[CliOp] = []
    for _ in range(counts["allocate"]):
        n = round(math.exp(rng.uniform(math.log(2), math.log(30))))
        spec = _cli_spec(rng, n)
        e = _num(rng.uniform(0.0, 5.0 * n))
        ops.append(CliOp("allocate", ("allocate", "--rule", spec, "--n", str(n),
                                      "--endowment", e, "--json"), 0, spec))
    for _ in range(counts["table"]):
        n = rng.randint(2, 10)
        spec = _cli_spec(rng, n)
        step = _num(rng.uniform(0.25, 2.0))
        stop = _num(rng.uniform(1.0, 20.0))
        ops.append(CliOp("table", ("table", "--rule", spec, "--n", str(n),
                                   "--endowments", f"0:{stop}:{step}", "--json"), 0, spec))
    for _ in range(counts["path"]):
        n = rng.randint(2, 6)
        spec = _cli_spec(rng, n)
        e = rng.uniform(1.0, 20.0)
        ops.append(CliOp("path", ("path", "--rule", spec, "--n", str(n), "--endowment",
                                  _num(e), "--step", _num(e / 20)), 0, spec))
    for _ in range(counts["fit"]):
        data = rng.choice(DATASETS)
        family = rng.choice(FIT_FAMILIES)
        slack = rng.choice(("0", "1"))
        ops.append(CliOp("fit", ("fit", "--family", family, "--data", data, "--slack", slack,
                                 "--json"), 0, dataset=data))
    for _ in range(counts["classify"]):
        data = rng.choice(DATASETS)
        slack = rng.choice(("0", "1"))
        ops.append(CliOp("classify", ("classify", "--data", data, "--slack", slack, "--json"),
                         0, dataset=data))
    # Two checks per matrix cell, along two fixed diagonals of the rule x
    # cell matrix: every cell meets two rules and every rule two cells.  The
    # set is the same for every seed because the single-cell costs span
    # 0-900 ms and a seeded pick would move op_p90_ms from seed to seed.
    pairs = [(offset, j) for offset in CHECK_DIAGONALS for j in range(len(cells))]
    for offset, j in pairs[:counts["check"]]:
        axiom, mode = cells[j]
        spec = bundled_specs[(j + offset) % len(bundled_specs)]
        mark = golden[spec][j]
        argv = ("check", "--rule", spec, "--axiom", axiom, "--json")
        if mode is not None:
            argv += ("--mode", mode)
        # '-' is the Lipschitz cell of a rule failing weak monotonicity:
        # `check` then reports that failing precondition.
        ops.append(CliOp("check", argv, 0 if mark == "P" else 1, spec))
    for spec in CLI_MATRIX_RULES[:counts["matrix"]]:
        ops.append(CliOp("matrix", ("matrix", "--rules", spec, "--json"),
                         1 if "F" in golden[spec] else 0, spec))
    start = rng.randrange(16)
    for k in range(counts["malformed"]):
        ops.append(CliOp("malformed", _malformed(rng, start + k), 2))
    rng.shuffle(ops)
    return ops
