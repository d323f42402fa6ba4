"""Outside-in layer tracing for a traced benchmark run.

The tracer replaces the names that one prizealloc module binds for
another module's public functions (``axioms.allocate``,
``rules.solve_level``, ``cli.check_consistency``, ...) with wrappers that
record spans and counts, and puts the originals back on exit.  The
program's source is not touched, so a later change can move spans inside
the program without changing what these metrics mean.

Spans and counts are kept only while an op runs (``Tracer.op``); the
benchmark's own output checks run outside ops, so their ``allocate``
calls do not inflate the op counts.  The exception is ``verify_witness``,
which only the checks call and which is timed wherever it runs.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

FAMILIES = {
    "ED": "ed", "WTA": "wta", "WTS": "wts", "Interval": "interval",
    "Geometric": "geometric", "Proportional": "proportional",
    "SingleParametric": "single_parametric", "Parametric": "parametric",
    "Counterexample": "counterexample",
}
CHECKERS = {
    "check_anonymity": "anonymity",
    "check_order_preservation": "order_preservation",
    "check_endowment_monotonicity": "endowment_monotonicity",
    "check_lipschitz": "lipschitz",
    "check_scale_invariance": "scale_invariance",
    "check_consistency": "consistency",
}
ANALYSIS = ("fit_geometric", "fit_proportional", "detect_interval_pattern", "classify",
            "check_data_top_consistency")


def cell_name(axiom: str, mode: str | None) -> str:
    return axiom if mode is None else f"{axiom}.{mode}"


class Tracer:
    """Spans (id, parent id, name, start ns, end ns) and counters, in memory."""

    def __init__(self) -> None:
        self.recording = False
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self.unique_allocs: set = set()
        self.cell_samples: Counter = Counter()
        self.worst_residual = 0.0
        self.iterations: list[float] = []
        self.missing: list[str] = []
        self._stack: list[int] = [0]
        self._next_id = 1
        self._in_analysis = False

    # -- spans

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, t0: int) -> None:
        self.spans.append((sid, parent, name, t0, time.perf_counter_ns()))
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid, parent = self._open()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, parent, name, t0)

    @contextmanager
    def op(self, name: str):
        """One workload op: the root span under which counts are kept."""
        self.recording = True
        try:
            with self.span(name):
                yield
        finally:
            self.recording = False

    # -- wrappers

    def _timed(self, name: str, fn, always: bool = False):
        def wrapper(*args, **kwargs):
            if not (self.recording or always):
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _allocate(self, fn):
        def allocate(rule, competition, *args, **kwargs):
            if not self.recording:
                return fn(rule, competition, *args, **kwargs)
            family = FAMILIES.get(type(rule).__name__, "other")
            self.counts["rules.allocate.calls"] += 1
            self.counts[f"rules.allocate.{family}.calls"] += 1
            self.unique_allocs.add((rule, competition.ranking.by_position, competition.endowment))
            with self.span(f"rules.allocate.{family}"):
                return fn(rule, competition, *args, **kwargs)
        return allocate

    def _solve_level(self, fn):
        def solve_level(fs, n, endowment, *args, **kwargs):
            if not self.recording:
                return fn(fs, n, endowment, *args, **kwargs)
            evals = 0

            def counted(f):
                def level(x):
                    nonlocal evals
                    evals += 1
                    return f(x)
                return level

            self.counts["solver.solve_level.calls"] += 1
            try:
                with self.span("solver.solve_level"):
                    x = fn([counted(f) for f in fs], n, endowment, *args, **kwargs)
            except Exception:
                self.counts["solver.failures"] += 1
                raise
            finally:
                self.counts["solver.level_evals"] += evals
            self.iterations.append(evals / n)
            residual = abs(sum(f(x) for f in fs[:n]) - endowment) / max(1.0, endowment)
            self.worst_residual = max(self.worst_residual, residual)
            return x
        return solve_level

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if self.recording:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _checker(self, axiom: str, fn):
        sig = inspect.signature(fn)

        def check(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            cell = cell_name(axiom, bound.arguments.get("mode"))
            with self.span(f"axioms.{cell}"):
                verdict = fn(*args, **kwargs)
            self.cell_samples[cell] += verdict.samples_checked
            return verdict
        return check

    def _analysis(self, fn):
        """Only the outermost analysis call is a boundary crossing: classify
        calls the fit functions through the same wrapped names."""
        inner = self._timed("analysis", fn)

        def wrapper(*args, **kwargs):
            if self.recording and not self._in_analysis:
                self._in_analysis = True
                try:
                    return inner(*args, **kwargs)
                finally:
                    self._in_analysis = False
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def patched(self, pa):
        """Install the wrappers on the prizealloc modules in `pa`.

        A name that a module no longer binds is listed in `missing`, and the
        metrics it feeds read 0.
        """
        allocate = self._allocate(pa.rules.allocate)  # one wrapper for every binding
        plan = [(m, "allocate", lambda fn: allocate)
                for m in (pa.rules, pa.axioms, pa.cli, pa.analysis)]
        plan += [
            (pa.rules, "solve_level", self._solve_level),
            (pa.rules, "interval_locate",
             lambda fn: self._counted("solver.interval_locate.calls", fn)),
            (pa.axioms, "Competition", lambda fn: self._counted("axioms.competitions_built", fn)),
            (pa.axioms, "verify_witness",
             lambda fn: self._timed("axioms.verify_witness", fn, always=True)),
            (pa.cli, "parse_rule_spec", lambda fn: self._timed("cli.parse_rule_spec", fn)),
            (pa.cli, "run", lambda fn: self._timed("cli.run", fn)),
        ]
        for fn_name, axiom in CHECKERS.items():
            plan += [(m, fn_name, lambda fn, a=axiom: self._checker(a, fn))
                     for m in (pa.axioms, pa.cli)]
        plan += [(pa.analysis, fn_name, self._analysis) for fn_name in ANALYSIS]
        # cli imports every analysis entry point except check_data_top_consistency
        plan += [(pa.cli, fn_name, self._analysis) for fn_name in ANALYSIS[:4]]
        saved = []
        for module, name, make in plan:
            if not hasattr(module, name):
                self.missing.append(f"{module.__name__}.{name}")
                continue
            original = getattr(module, name)
            saved.append((module, name, original))
            setattr(module, name, make(original))
        try:
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    # -- results

    def busy_s(self) -> dict[str, float]:
        busy: dict[str, float] = defaultdict(float)
        for _, _, name, t0, t1 in self.spans:
            busy[name] += (t1 - t0) / 1e9
        return busy

    def child_s(self) -> dict[int, float]:
        """Seconds each span spends in its direct child spans."""
        child: dict[int, float] = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            child[parent] += (t1 - t0) / 1e9
        return child

    def metrics(self, cells: list[tuple[str, str | None]]) -> dict[str, tuple[float, str]]:
        busy = self.busy_s()
        child = self.child_s()
        c = self.counts
        out: dict[str, tuple[float, str]] = {}
        run_self = sum((t1 - t0) / 1e9 - child[sid]
                       for sid, _, name, t0, t1 in self.spans if name == "cli.run")
        out["cli.run.calls"] = (sum(1 for s in self.spans if s[2] == "cli.run"), "count")
        out["cli.run.self_s"] = (run_self, "s")
        out["cli.parse_rule_spec.busy_s"] = (busy["cli.parse_rule_spec"], "s")
        out["analysis.calls"] = (sum(1 for s in self.spans if s[2] == "analysis"), "count")
        out["analysis.busy_s"] = (busy["analysis"], "s")
        check_self = 0.0
        cell_names = {f"axioms.{cell_name(a, m)}" for a, m in cells}
        for sid, _, name, t0, t1 in self.spans:
            if name in cell_names:
                check_self += (t1 - t0) / 1e9 - child[sid]
        for axiom, mode in cells:
            cell = cell_name(axiom, mode)
            out[f"axioms.{cell}.busy_s"] = (busy[f"axioms.{cell}"], "s")
            out[f"axioms.{cell}.samples"] = (self.cell_samples[cell], "count")
        out["axioms.self_s"] = (check_self, "s")
        out["axioms.competitions_built"] = (c["axioms.competitions_built"], "count")
        out["axioms.verify_witness.busy_s"] = (busy["axioms.verify_witness"], "s")
        calls = c["rules.allocate.calls"]
        unique = len(self.unique_allocs)
        out["rules.allocate.calls"] = (calls, "count")
        out["rules.allocate.unique"] = (unique, "count")
        out["rules.allocate.reuse_ratio"] = (1 - unique / calls if calls else 0.0, "ratio")
        out["rules.allocate.busy_s"] = (
            sum(busy[f"rules.allocate.{f}"] for f in (*FAMILIES.values(), "other")), "s")
        for family in FAMILIES.values():
            out[f"rules.allocate.{family}.calls"] = (c[f"rules.allocate.{family}.calls"], "count")
            out[f"rules.allocate.{family}.busy_s"] = (busy[f"rules.allocate.{family}"], "s")
        out["solver.solve_level.calls"] = (c["solver.solve_level.calls"], "count")
        out["solver.solve_level.busy_s"] = (busy["solver.solve_level"], "s")
        out["solver.level_evals"] = (c["solver.level_evals"], "count")
        out["solver.iterations_mean"] = (
            sum(self.iterations) / len(self.iterations) if self.iterations else 0.0, "count")
        out["solver.worst_rel_residual"] = (self.worst_residual, "ratio")
        out["solver.failures"] = (c["solver.failures"], "count")
        out["solver.interval_locate.calls"] = (c["solver.interval_locate.calls"], "count")
        return out

    def write(self, path: Path) -> None:
        """All spans as CSV: id, parent, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            fh.writelines(f"{s},{p},{n},{a},{b}\n" for s, p, n, a, b in self.spans)
