"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at its tiny size with tracing off and on, and checks
that each metric BENCHMARK.json names is printed with its unit.  Then it
corrupts one output per workload inside the harness's own checker and
checks that the run counts it as a failed op.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import checks
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "0", "--seconds", "1",
                         "--trace", str(trace), "--tiny"])
    assert code == 0, f"{workload}: exit {code}"
    return json.loads(out.getvalue().strip().splitlines()[-1])


def assert_metrics(result: dict, declared: list[dict], label: str) -> None:
    expected = {m["name"]: m["unit"] for m in declared}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected, f"{label}: printed {sorted(set(printed) ^ set(expected))} differ"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{label}: {name} is {m['value']!r}"


@contextlib.contextmanager
def patched(module, name, make):
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def corrupt_table(check):
    def corrupted(pa, op, results):
        comp, alloc = results[0]
        winner = comp.ranking.by_position[0]
        alloc.prizes[winner] += 1.0
        return check(pa, op, results)
    return corrupted


def corrupt_matrix(check):
    def corrupted(pa, rules, matrix, golden, keys):
        row = matrix[next(iter(matrix))]
        verdict = row[keys[0]]
        row[keys[0]] = dataclasses.replace(verdict, passed=not verdict.passed)
        return check(pa, rules, matrix, golden, keys)
    return corrupted


def corrupt_cli(check):
    def corrupted(pa, op, code, out, err, golden, keys):
        if op.kind == "allocate":
            doc = json.loads(out)
            doc["prizes"][0] += 1.0
            out = json.dumps(doc)
        return check(pa, op, code, out, err, golden, keys)
    return corrupted


CORRUPTIONS = {
    "tables": ("check_table_op", corrupt_table),
    "matrix": ("check_matrix", corrupt_matrix),
    "cli": ("check_cli_op", corrupt_cli),
}


def main() -> int:
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(workload, trace)
            label = f"{workload} --trace {trace}"
            assert result["correct"] and result["failed"] == 0, f"{label}: {result['failed']} failed"
            assert result["attempted"] >= 1, label
            assert_metrics(result, SPEC[key], label)
            print(f"ok  {label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} ops")
        name, make = CORRUPTIONS[workload]
        with patched(checks, name, make):
            result = bench(workload, 0)
        failed_frac = result["failed"] / result["attempted"]
        assert not result["correct"] and failed_frac > 0, f"{workload}: corruption not counted"
        print(f"ok  {workload} with a corrupted output: failed_frac = {failed_frac:.3f}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
