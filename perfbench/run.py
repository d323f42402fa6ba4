"""Benchmark for prizealloc: what a rule pays, which axioms it satisfies,
and how the command line answers both.

    python3 perfbench/run.py --workload {tables,matrix,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src and
the golden axiom matrix is read from ./tests/golden.py.  Inputs are a pure
function of --seed.  Every op's output is checked outside the timed
region, and the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  The fixed op
list of the workload is run round and round for --seconds, at least once
through, and an op's latency is the median of its runs.  wall_s is the
sum of the ops' latencies, op_p50_ms / op_p90_ms are taken over the ops,
and setup_s is the median of several fresh processes, each timed from
its start until its inputs are ready.  Every one of these times is
reported at the host's reference speed (see REFERENCE_S below); the
times as measured are printed above the result.

--trace 1 reports the per-layer metrics: one untraced and one traced pass
over the op list (the cli workload runs its argv list in-process through
prizealloc.cli.run), with the spans written to .perfbench_out/.

Why each workload exists, which end-to-end metric each layer metric should
move, the inputs left out on purpose and the baseline numbers are in
perfbench/manifest.json.  The harness tests itself with
`python3 perfbench/selftest.py`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import checks
import inputs
from layers import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("tables", "matrix", "cli")
SETUP_PROBES = 9
# Every end-to-end time is reported at the host's reference speed.  The
# host is shared: for stretches of seconds to minutes other tenants slowed
# this process by up to 2x, and raw times spread by 12-35% of their median
# (first to third quartile over ten runs) against a bound of 25%.  A fixed
# loop timed between ops slows with the program, so each op's latency is
# scaled by REFERENCE_S / (the loop's time around the op); that brought the
# spread of wall_s down to 2-6%.  The raw times are printed above the result.
REFERENCE_LOOPS = 10_000
# The loop's undisturbed time (5th percentile over 10 s) on a 2-vCPU Intel
# Xeon at 2.1 GHz under CPython 3.11.  It only sets the scale; it cancels
# in every comparison between two runs.
REFERENCE_S = 0.75e-3
REFERENCE_SHARE = 0.02
RUN_LIMIT_S = 150.0      # every run stops measuring by then, whatever --seconds says
CLI_OP_TIMEOUT_S = 30.0
TINY_MATRIX_RULES = ("cx:late-dollar", "cx:threshold-switch")


class ProgramMissing(Exception):
    pass


class OpTimeout(Exception):
    pass


def load_program() -> SimpleNamespace:
    """Import prizealloc from ./src and the golden matrix from ./tests."""
    src = ROOT / "src"
    golden_path = ROOT / "tests" / "golden.py"
    if not (src / "prizealloc" / "__init__.py").is_file():
        raise ProgramMissing(f"no prizealloc package under {src}")
    if not golden_path.is_file():
        raise ProgramMissing(f"no golden matrix at {golden_path}")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"prizealloc.{name}")
               for name in ("core", "rules", "solver", "axioms", "analysis", "cli")}
    if Path(modules["core"].__file__).resolve().parent != (src / "prizealloc").resolve():
        raise ProgramMissing(f"prizealloc was imported from {modules['core'].__file__}")
    spec = importlib.util.spec_from_file_location("golden", golden_path)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    core, rules, axioms, cli = (modules[k] for k in ("core", "rules", "axioms", "cli"))
    return SimpleNamespace(
        **modules, golden=golden,
        Competition=core.Competition, Ranking=core.Ranking, Witness=axioms.Witness,
        validate_allocation=core.validate_allocation, describe=rules.describe,
        parse_rule_spec=cli.parse_rule_spec,
    )


@contextlib.contextmanager
def op_deadline(deadline: float):
    """Raise OpTimeout in the running op once perf_counter passes `deadline`."""
    def expire(signum, frame):
        raise OpTimeout()

    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise OpTimeout()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, remaining)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    latency_s: float
    failure: str | None = None
    timed_out: bool = False


@dataclass
class Workload:
    """An op list plus how to run and check one op."""

    ops: list
    run_op: object            # (op, ctx, deadline) -> Outcome
    peak_rss_kb: object       # () -> int
    child_rss_kb: list = field(default_factory=list)
    check_args: tuple = ()


def golden_rows(pa, rules) -> dict[str, str]:
    return {pa.describe(r): pa.golden.GOLDEN_MATRIX[pa.golden.matrix_key(pa.describe(r))]
            for r in rules}


def self_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# tables


def setup_tables(pa, seed: int, tiny: bool) -> Workload:
    ops = inputs.table_ops(seed, per_head=1 if tiny else 16)
    parsed = {op.spec: pa.parse_rule_spec(op.spec) for op in ops}

    def run_op(op, ctx, deadline):
        rule = parsed[op.spec]
        allocate, competition = pa.rules.allocate, pa.core.standard_competition
        t0 = time.perf_counter()
        try:
            with op_deadline(deadline):
                t0 = time.perf_counter()
                with ctx():
                    results = []
                    for e in op.endowments:
                        comp = competition(op.n, e)
                        results.append((comp, allocate(rule, comp)))
                latency = time.perf_counter() - t0
        except OpTimeout:
            return Outcome(time.perf_counter() - t0, "timed out", timed_out=True)
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            return Outcome(time.perf_counter() - t0, f"{op.spec[:40]} n={op.n}: {exc!r}")
        return Outcome(latency, checks.check_table_op(pa, op, results))

    return Workload(ops, run_op, self_rss_kb)


# ---------------------------------------------------------------------------
# matrix


def setup_matrix(pa, seed: int, tiny: bool) -> Workload:
    """One op is one row of the matrix: run_axiom_matrix([rule], budget).

    A whole matrix takes 5-10 s, so a run holds only a few and the host's
    speed is sampled only between them.  Rows share no work (each check is
    of one rule), so the 13 rows add up to the matrix, and their latencies
    give op_p50_ms and op_p90_ms a meaning.
    """
    rules = pa.cli.bundled_rules()
    if tiny:
        rules = tuple(r for r in rules if pa.describe(r) in TINY_MATRIX_RULES)
    budget = pa.axioms.SampleBudget(rng_seed=seed)
    golden = golden_rows(pa, rules)
    keys = [pa.axioms.cell_key(a, m) for a, m in pa.axioms.MATRIX_CELLS]

    def run_op(rule, ctx, deadline):
        t0 = time.perf_counter()
        try:
            with op_deadline(deadline):
                t0 = time.perf_counter()
                with ctx():
                    matrix = pa.axioms.run_axiom_matrix([rule], budget)
                latency = time.perf_counter() - t0
        except OpTimeout:
            return Outcome(time.perf_counter() - t0, "timed out", timed_out=True)
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            return Outcome(time.perf_counter() - t0, f"run_axiom_matrix: {exc!r}")
        name = pa.describe(rule)
        return Outcome(latency, checks.check_matrix(pa, [rule], matrix, {name: golden[name]}, keys))

    return Workload(list(rules), run_op, self_rss_kb)


# ---------------------------------------------------------------------------
# cli


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], timeout: float, cwd: Path) -> tuple[int | None, str, str, float, int]:
    """Run one child to completion: (exit code or None on timeout, stdout,
    stderr, wall seconds, peak RSS in KB).  os.wait4 gives this child's own
    rusage; its output goes to files so a chatty child cannot block."""
    with open(OUT_DIR / "child.out", "w+b") as out, open(OUT_DIR / "child.err", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=child_env(), cwd=cwd)
        killer = _Killer(proc, timeout)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: kill() is now a no-op
        killer.cancel()
        out.seek(0)
        err.seek(0)
        code = None if killer.fired else proc.returncode
        return (code, out.read().decode("utf-8", "replace"),
                err.read().decode("utf-8", "replace"), wall, usage.ru_maxrss)


class _Killer:
    """Kills a child that outlives its timeout."""

    def __init__(self, proc, timeout: float):
        self.fired = False

        def fire():
            self.fired = True
            proc.kill()

        self._timer = threading.Timer(timeout, fire)
        self._timer.start()

    def cancel(self) -> None:
        self._timer.cancel()
        self._timer.join()


CLI_PREFIX = ("-c", "from prizealloc.cli import main; main()")


def setup_cli(pa, seed: int, tiny: bool) -> Workload:
    bundled = pa.cli.bundled_rules()
    golden = golden_rows(pa, bundled)
    cells = tuple(pa.axioms.MATRIX_CELLS)
    keys = [pa.axioms.cell_key(a, m) for a, m in cells]
    ops = inputs.cli_ops(seed, golden, tuple(golden), cells, tiny)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / inputs.BAD_CSV).write_text("place,prize\n1,10\n")
    workload = Workload(ops, None, lambda: max(workload.child_rss_kb, default=0))

    def run_op(op, ctx, deadline):
        timeout = min(CLI_OP_TIMEOUT_S, deadline - time.perf_counter())
        if timeout <= 0:
            return Outcome(0.0, "timed out", timed_out=True)
        code, out, err, wall, rss = run_child(
            [sys.executable, *CLI_PREFIX, *op.argv], timeout, OUT_DIR)
        workload.child_rss_kb.append(rss)
        return Outcome(wall, checks.check_cli_op(pa, op, code, out, err, golden, keys),
                       timed_out=code is None)

    workload.run_op = run_op
    workload.check_args = (golden, keys)
    return workload


def run_cli_in_process(pa, workload: Workload):
    """The cli op list run through prizealloc.cli.run inside this process."""
    golden, keys = workload.check_args

    def run_op(op, ctx, deadline):
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        t0 = time.perf_counter()
        try:
            os.chdir(OUT_DIR)
            with op_deadline(deadline), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                with ctx():
                    code = pa.cli.run(list(op.argv), out=out, err=err)
                latency = time.perf_counter() - t0
        except OpTimeout:
            return Outcome(time.perf_counter() - t0, "timed out", timed_out=True)
        except Exception as exc:  # an uncaught error is exit 1 in a real process
            code, latency = 1, time.perf_counter() - t0
            err.write(repr(exc))
        finally:
            os.chdir(cwd)
        return Outcome(latency, checks.check_cli_op(pa, op, code, out.getvalue(),
                                                    err.getvalue(), golden, keys))
    return run_op


SETUPS = {"tables": setup_tables, "matrix": setup_matrix, "cli": setup_cli}


# ---------------------------------------------------------------------------
# measuring


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def add(self, outcome: Outcome) -> None:
        self.attempted += 1
        if outcome.failure is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(outcome.failure)


def reference_s(near_s: float = 0.0) -> float:
    """Seconds REFERENCE_LOOPS turns of the reference loop take now.

    The loop runs for about REFERENCE_SHARE of `near_s`, the length of the
    op just measured (at least REFERENCE_LOOPS turns), so a long op is
    compared with the host's speed over a longer stretch.  It does float
    arithmetic only: it allocates nothing the cyclic garbage collector
    tracks, and its time follows the host's speed, not the program's heap.
    """
    loops = max(REFERENCE_LOOPS, round(REFERENCE_LOOPS * REFERENCE_SHARE * near_s / REFERENCE_S))
    t0 = time.perf_counter()
    x = 0.0
    for i in range(loops):
        x += (i * 0.5) ** 0.5
    return (time.perf_counter() - t0) * REFERENCE_LOOPS / loops


def run_pass(workload: Workload, run_op, tally: Tally, deadline: float,
             ctx=contextlib.nullcontext) -> tuple[list[float], bool]:
    """Latency of each op in list order, and whether the pass completed:
    a timed-out op ends the pass and the run."""
    latencies = []
    for op in workload.ops:
        outcome = run_op(op, ctx, deadline)
        tally.add(outcome)
        latencies.append(outcome.latency_s)
        if outcome.timed_out:
            return latencies, False
    return latencies, True


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def time_setup(workload: str, seed: int, tiny: bool) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh process to its inputs being ready, as
    measured and at reference speed."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    raw, scaled = [], []
    before = reference_s()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                                cwd=ROOT)
        line = proc.stdout.readline()
        raw.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        after = reference_s(raw[-1])
        scaled.append(raw[-1] * 2 * REFERENCE_S / (before + after))
        before = after
    return raw, scaled


def measure_end_to_end(pa, args) -> tuple[Tally, dict, list[str]]:
    """Run the op list round and round for --seconds (at least once through),
    with the reference loop timed between ops, and stop at an op boundary."""
    setup_raw, setup_times = time_setup(args.workload, args.seed, args.tiny)
    workload = SETUPS[args.workload](pa, args.seed, args.tiny)
    n = len(workload.ops)
    raw: list[list[float]] = [[] for _ in range(n)]
    scaled: list[list[float]] = [[] for _ in range(n)]
    refs: list[float] = []
    tally = Tally()
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    before = reference_s()
    k = 0
    while k < n or time.perf_counter() < start + args.seconds:
        outcome = workload.run_op(workload.ops[k % n], contextlib.nullcontext, deadline)
        after = reference_s(outcome.latency_s)
        tally.add(outcome)
        raw[k % n].append(outcome.latency_s)
        scaled[k % n].append(outcome.latency_s * 2 * REFERENCE_S / (before + after))
        refs.append(after)
        before = after
        k += 1
        if outcome.timed_out:
            break
    per_op = [statistics.median(s) for s in scaled if s]
    raw_per_op = [statistics.median(s) for s in raw if s]
    m = len(per_op)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (math.fsum(per_op), "s"),
        "op_p50_ms": (percentile(per_op, 0.5) * 1e3, "ms"),
        "op_p90_ms": (percentile(per_op, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (workload.peak_rss_kb() / 1024, "MB"),
    }
    notes = [
        f"{k} op runs over {n} ops ({k / n:.2f} passes); an op's latency is the median "
        "of its runs, at reference speed",
        f"as measured: wall_s {math.fsum(raw_per_op):.4g} s, op_p50_ms "
        f"{percentile(raw_per_op, 0.5) * 1e3:.4g}, op_p90_ms "
        f"{percentile(raw_per_op, 0.9) * 1e3:.4g}, setup_s {statistics.median(setup_raw):.4g} s",
        f"the host ran at {REFERENCE_S / statistics.median(refs):.2f}x reference speed "
        "(median over the run)",
        f"setup_s: median of {len(setup_times)} fresh processes",
        f"op_p50_ms, op_p90_ms: over {m} ops ({m - math.ceil(0.9 * m)} above p90)",
        f"failed_frac = {tally.failed}/{tally.attempted} = "
        f"{tally.failed / max(1, tally.attempted):.4f}",
    ]
    return tally, metrics, notes


def probe_ms(code: str, repeats: int = 5) -> float:
    """Median wall ms of a fresh `python -c code` child."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                       stdin=subprocess.DEVNULL, cwd=ROOT)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def import_ms(repeats: int = 5) -> float:
    """Median ms to import prizealloc.cli, timed inside fresh children."""
    code = ("import time; t = time.perf_counter(); import prizealloc.cli; "
            "print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                                  capture_output=True, text=True, cwd=ROOT).stdout) * 1e3
             for _ in range(repeats)]
    return statistics.median(times)


def measure_layers(pa, args) -> tuple[Tally, dict, list[str]]:
    workload = SETUPS[args.workload](pa, args.seed, args.tiny)
    run_op = run_cli_in_process(pa, workload) if args.workload == "cli" else workload.run_op
    tally = Tally()
    deadline = time.perf_counter() + RUN_LIMIT_S
    untraced, complete = run_pass(workload, run_op, tally, deadline)
    tracer = Tracer()
    traced = []
    if complete:
        with tracer.patched(pa):
            traced, _ = run_pass(workload, run_op, tally, deadline,
                                 ctx=lambda: tracer.op(args.workload))
    metrics = tracer.metrics(list(pa.axioms.MATRIX_CELLS))
    metrics["cli.interp_ms"] = (probe_ms("pass"), "ms")
    metrics["cli.import_ms"] = (import_ms(), "ms")
    untraced_s = math.fsum(untraced)
    traced_s = math.fsum(traced)
    metrics["trace.untraced_wall_s"] = (untraced_s, "s")
    metrics["trace.traced_wall_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    span_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.csv"
    tracer.write(span_file)
    notes = [f"one untraced and one traced pass over {len(workload.ops)} ops"
             + (" in-process through prizealloc.cli.run" if args.workload == "cli" else ""),
             f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}"]
    if tracer.missing:
        notes.append("names no longer bound, their metrics read 0: " + ", ".join(tracer.missing))
    return tally, metrics, notes


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="a few ops per workload, for the harness self-test")
    p.add_argument("--probe-setup", action="store_true",
                   help="set up the workload, print 'ready' and exit (times setup_s)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pa = load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.probe_setup:
        SETUPS[args.workload](pa, args.seed, args.tiny)
        print("ready", flush=True)
        return 0
    OUT_DIR.mkdir(exist_ok=True)
    measure = measure_layers if args.trace else measure_end_to_end
    tally, metrics, notes = measure(pa, args)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for reason in tally.reasons:
        print(f"  FAILED: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value if isinstance(value, int) else format(value, '.6g')} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
