import argparse
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from prizealloc.cli import (
    MAX_ALLOCATION_N,
    MAX_RANGE_ROWS,
    IoError,
    NonNumeric,
    ParseError,
    SchemaError,
    _build_parser,
    _parse_endowments,
    bundled_rules,
    load_prize_data,
    parse_rule_spec,
    run,
)
from prizealloc.rules import (
    ED,
    WTS,
    Counterexample,
    Geometric,
    describe,
)


FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestParseRuleSpec:
    @pytest.mark.parametrize(
        "text",
        [
            "ed", "wta", "wts:a=1.5", "wts:a=inf",
            "interval:[0,1];[1,2]", "interval:[1,2.5];[2.5,3];[3.5,inf]",
            "geometric:lambda=0.713", "proportional:18,10.9,6.9",
            "sp:arithmetic", "sp:linear=0.5", "sp:cap=2", "sp:pwl=0:0,2:1,4:1",
            "param:hyperarithmetic",
            "cx:lowest-takes-all", "cx:pair-favoritism=p,q",
        ],
    )
    def test_round_trip_through_describe(self, text):
        rule = parse_rule_spec(text)
        assert parse_rule_spec(describe(rule)) == rule

    def test_types(self):
        assert parse_rule_spec("ed") == ED()
        assert parse_rule_spec("wts:a=inf") == WTS(math.inf)
        assert parse_rule_spec("geometric:lambda=0.713") == Geometric(0.713)
        assert parse_rule_spec("cx:pair-favoritism=a,b") == Counterexample(
            "pair-favoritism", i="a", j="b")

    @pytest.mark.parametrize(
        "text,position",
        [
            ("nope", 0),
            ("wts:b=1", 4),
            ("wts:a=abc", 6),
            ("geometric:mu=0.5", 10),
            ("interval:", 9),
            ("interval:(1,2)", 9),
            ("sp:unknown", 3),
            ("cx:pair-favoritism=onlyone", 19),
            ("ed:extra", 3),
        ],
    )
    def test_errors_carry_position_and_expectation(self, text, position):
        with pytest.raises(ParseError) as exc:
            parse_rule_spec(text)
        assert exc.value.position == position
        assert exc.value.expected

    def test_unknown_counterexample_name(self):
        with pytest.raises(Exception):
            parse_rule_spec("cx:bogus")


class TestLoadPrizeData:
    def test_bundled_datasets(self):
        poker = load_prize_data("wcoop2019.json")
        assert len(poker.events) == 1
        assert poker.events[0].endowment == 11180
        assert poker.events[0].prizes[0] == 1666
        golf = load_prize_data("pga2019.json")
        assert [ev.endowment for ev in golf.events] == [9300, 6600]

    def test_missing_file(self):
        with pytest.raises(IoError):
            load_prize_data("/nonexistent/file.json")

    @pytest.mark.parametrize("path", ["pga2019.json", "/nonexistent/file.json"])
    def test_unknown_format_refused_before_reading(self, path):
        with pytest.raises(SchemaError, match="unknown data format 'xml'"):
            load_prize_data(path, fmt="xml")

    def test_json_schema_errors(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("[1, 2]")
        with pytest.raises(SchemaError):
            load_prize_data(str(p))
        p.write_text('{"events": [{"name": "x"}]}')
        with pytest.raises(SchemaError, match="missing fields"):
            load_prize_data(str(p))
        p.write_text('{"events": [{"name": "x", "endowment": "abc", "prizes": []}]}')
        with pytest.raises(NonNumeric):
            load_prize_data(str(p))

    @pytest.mark.parametrize("fields", ['"endowment": 1%s, "prizes": [1]',
                                        '"endowment": 5, "prizes": [1%s]'])
    def test_json_number_beyond_the_float_range(self, tmp_path, fields):
        p = tmp_path / "huge.json"
        p.write_text('{"events": [{"name": "x", %s}]}' % (fields % ("0" * 400)))
        with pytest.raises(NonNumeric, match="too large"):
            load_prize_data(str(p))

    def test_csv_event(self, tmp_path):
        p = tmp_path / "event.csv"
        p.write_text("position,prize\n1,5\n2,3\n")
        events = load_prize_data(str(p), endowment=10.0)
        assert events.events[0].prizes == (5.0, 3.0)

    def test_csv_missing_header(self, tmp_path):
        p = tmp_path / "event.csv"
        p.write_text("rank,money\n1,5\n")
        with pytest.raises(SchemaError, match="line 1"):
            load_prize_data(str(p), endowment=10.0)

    def test_csv_needs_endowment(self, tmp_path):
        p = tmp_path / "event.csv"
        p.write_text("position,prize\n1,5\n")
        with pytest.raises(SchemaError, match="endowment"):
            load_prize_data(str(p))

    def test_csv_non_numeric(self, tmp_path):
        p = tmp_path / "event.csv"
        p.write_text("position,prize\n1,abc\n")
        with pytest.raises(NonNumeric, match="line 2"):
            load_prize_data(str(p), endowment=10.0)

    @pytest.mark.parametrize("rows,message", [
        ("1,5\n2,3,1\n", "line 3: expected 2 columns, got 3"),
        ("1,5\n2,3\n1,2\n", "line 4: duplicate position 1"),
    ])
    def test_csv_bad_row_exits_2(self, tmp_path, rows, message):
        p = tmp_path / "event.csv"
        p.write_text("position,prize\n" + rows)
        code, out, err = run_cli("fit", "--family", "geometric", "--data", str(p),
                                 "--endowment", "10")
        assert (code, out) == (2, "")
        assert err == f"error: {p}: {message}\n"

    @pytest.mark.parametrize("text,message", [
        ('{"events": [', "invalid JSON at line 1"),
        ('{"events": [1]}', "events[0] must be an object"),
    ])
    def test_json_bad_events_exit_2(self, tmp_path, text, message):
        p = tmp_path / "events.json"
        p.write_text(text)
        code, out, err = run_cli("classify", "--data", str(p))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {p}: {message}")

    def test_csv_gapped_positions(self, tmp_path):
        p = tmp_path / "event.csv"
        p.write_text("position,prize\n1,5\n3,1\n")
        with pytest.raises(SchemaError, match="without gaps"):
            load_prize_data(str(p), endowment=10.0)


class TestAllocateCommand:
    def test_known_vector(self):
        code, out, _ = run_cli("allocate", "--rule", "cx:late-dollar",
                               "--n", "4", "--endowment", "7")
        assert code == 0
        assert out.strip() == "3 2 1 1"

    def test_json_report_round_trips(self):
        code, out, _ = run_cli("allocate", "--rule", "ed", "--n", "2",
                               "--endowment", "5", "--json")
        assert code == 0
        report = json.loads(out)
        assert report == json.loads(json.dumps(report))
        assert report["prizes"] == [2.5, 2.5]
        assert report["rule"] == "ed"

    def test_bad_rule_spec_exits_2(self):
        code, out, err = run_cli("allocate", "--rule", "nope", "--n", "2",
                                 "--endowment", "5")
        assert code == 2
        assert "error:" in err

    def test_pwl_with_breakpoints_near_the_largest_float(self):
        # f is the identity on [0, 1.7e308]; (y1 - y0) * (x - x0) overflows there
        code, out, err = run_cli("allocate", "--rule", "sp:pwl=0:0,1e308:1e308,1.7e308:1.7e308",
                                 "--n", "4", "--endowment", "10", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["prizes"] == [2.5, 2.5, 2.5, 2.5]

    def test_proportional_weights_whose_sum_overflows(self):
        code, out, err = run_cli("allocate", "--rule", "proportional:1e308,1e308",
                                 "--n", "2", "--endowment", "1")
        assert (code, out, err) == (0, "0.5 0.5\n", "")


class TestNegativeZeroInSpecs:
    """The spec language reads -0 as 0, so no rule pays or prints -0."""

    @pytest.mark.parametrize("spec", ["geometric:lambda=-0", "wts:a=-0", "proportional:1,-0,-0",
                                      "sp:linear=-0", "sp:cap=-0"])
    def test_allocate(self, spec):
        code, out, err = run_cli("allocate", "--rule", spec, "--n", "3", "--endowment", "5")
        assert (code, out, err) == (0, "5 0 0\n", "")

    def test_interval_table(self):
        code, out, err = run_cli("table", "--rule", "interval:[-0,1]", "--n", "2",
                                 "--endowments", "0")
        assert (code, out, err) == (0, "0 | 0 0\n", "")

    def test_zero_and_negative_zero_are_one_matrix_row(self):
        assert parse_rule_spec("sp:linear=-0") == parse_rule_spec("sp:linear=0")
        code, out, err = run_cli("matrix", "--rules", "sp:linear=0 sp:linear=-0")
        assert (code, out) == (2, "")
        assert "two rules describe as 'sp:linear=0'" in err


class TestTableCommand:
    def test_golden_output_is_stable(self):
        args = ("table", "--rule", "sp:arithmetic", "--n", "3",
                "--endowments", "1:8:1")
        code, first, _ = run_cli(*args)
        _, second, _ = run_cli(*args)
        assert code == 0
        assert first == second
        lines = first.splitlines()
        assert lines[0] == "1 | 1 0 0"
        assert lines[3] == "4 | 2.333333 1.333333 0.333333"
        assert len(lines) == 8

    def test_comma_list(self):
        code, out, _ = run_cli("table", "--rule", "ed", "--n", "2",
                               "--endowments", "1,3")
        assert out.splitlines() == ["1 | 0.5 0.5", "3 | 1.5 1.5"]

    def test_bad_range_exits_2(self):
        code, _, err = run_cli("table", "--rule", "ed", "--n", "2",
                               "--endowments", "1:2")
        assert code == 2

    @pytest.mark.parametrize("spec,kind", [("a,b", "list"), ("0:x:1", "range")])
    def test_non_numeric_endowments_exit_2(self, spec, kind):
        code, out, err = run_cli("table", "--rule", "ed", "--n", "2", "--endowments", spec)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: endowment {kind} {spec!r}: could not convert")
        with pytest.raises(NonNumeric):
            _parse_endowments(spec)

    def test_reversed_range_exits_2(self):
        code, out, err = run_cli("table", "--rule", "ed", "--n", "3",
                                 "--endowments", "1:0:0.5", "--json")
        assert (code, out) == (2, "")
        assert err == "error: endowment range '1:0:0.5' has no rows: start is above stop\n"
        with pytest.raises(SchemaError):
            _parse_endowments("1:0:0.5")
        assert _parse_endowments("1:1:0.5") == [1.0]


class TestPathCommand:
    def test_csv_shape(self):
        code, out, _ = run_cli("path", "--rule", "ed", "--n", "2",
                               "--endowment", "1", "--step", "0.5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "endowment,prize_1,prize_2"
        assert lines[1:] == ["0,0,0", "0.5,0.25,0.25", "1,0.5,0.5"]


def test_huge_numbers_print_short_and_parse_back():
    """From 1e16 on, a human table or path number is no longer every digit of
    its six-decimal form (about 300 near 1e308) but short, within 1e-6 of the
    JSON report's value."""
    args = ("--rule", "ed", "--n", "2")
    _, report, _ = run_cli("table", *args, "--endowments", "0:1e308:1e307", "--json")
    rows = [[row["endowment"], *row["prizes"]] for row in json.loads(report)["rows"]]
    _, table, _ = run_cli("table", *args, "--endowments", "0:1e308:1e307")
    _, path, _ = run_cli("path", *args, "--endowment", "1e308", "--step", "1e307")
    printed = ([line.replace(" | ", " ").split() for line in table.splitlines()],
               [line.split(",") for line in path.splitlines()[1:]])
    for lines in printed:
        assert len(lines) == len(rows) == 11
        for line, row in zip(lines, rows):
            assert [len(text) <= 20 for text in line] == [True] * 3, line
            assert all(math.isclose(float(text), value, rel_tol=1e-6)
                       for text, value in zip(line, row, strict=True)), (line, row)


class TestCheckCommand:
    def test_pass_exits_0(self):
        code, out, _ = run_cli("check", "--rule", "ed", "--axiom",
                               "order_preservation", "--samples", "3")
        assert code == 0
        assert "PASS" in out

    def test_fail_exits_1_with_witness(self):
        code, out, _ = run_cli("check", "--rule", "geometric:lambda=0.5",
                               "--axiom", "consistency", "--mode", "full",
                               "--samples", "3")
        assert code == 1
        assert "FAIL" in out
        assert "witness" in out

    def test_json_verdict_round_trips(self):
        code, out, _ = run_cli("check", "--rule", "wts:a=1", "--axiom",
                               "scale_invariance", "--samples", "3", "--json")
        assert code == 1
        report = json.loads(out)
        assert report["verdict"]["outcome"] == "fail"
        assert report["verdict"]["witness"]["margin"] > 1e-9
        assert report == json.loads(json.dumps(report))

    def test_lipschitz_skips_to_monotonicity_failure(self):
        code, out, _ = run_cli("check", "--rule", "cx:threshold-switch",
                               "--axiom", "lipschitz", "--samples", "3", "--json")
        assert code == 1
        assert json.loads(out)["verdict"]["axiom"] == "endowment_monotonicity"


class TestMatrixCommand:
    def test_small_matrix_json(self):
        code, out, _ = run_cli("matrix", "--rules", "ed wta", "--samples", "3",
                               "--json")
        # both rules fail at least one strict cell, so the exit code is 1
        assert code == 1
        report = json.loads(out)
        assert set(report["cells"]) == {"ed", "wta"}
        assert report["cells"]["ed"]["anonymity"]["outcome"] == "pass"
        assert report == json.loads(json.dumps(report))

    def test_determinism(self):
        args = ("matrix", "--rules", "ed", "--samples", "3", "--seed", "1", "--json")
        assert run_cli(*args) == run_cli(*args)

    def test_rules_that_once_shared_a_description_get_two_rows(self):
        code, out, _ = run_cli("matrix", "--rules",
                               "geometric:lambda=0.5 geometric:lambda=0.5000001",
                               "--samples", "2", "--json")
        assert code == 0
        assert list(json.loads(out)["cells"]) == [
            "geometric:lambda=0.5", "geometric:lambda=0.5000001"]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_parity_fixture(self, seed):
        # Fixtures hold the pre-optimisation output of the unrestricted matrix.
        fixture = FIXTURES / f"matrix_seed{seed}.json"
        code, out, _ = run_cli("matrix", "--json", "--seed", str(seed))
        assert code == 1
        assert out == fixture.read_text()


def test_table_matches_parity_fixture():
    # `table --json` output of the rules as they were before each rule owned
    # its allocation and spec
    for entry in json.loads((FIXTURES / "table_parity.json").read_text()):
        code, out, _ = run_cli("table", "--rule", entry["rule"], "--n", str(entry["n"]),
                               "--endowments", "0:10:0.5", "--json")
        assert (code, out) == (entry["exit"], entry["stdout"]), (entry["rule"], entry["n"])


class TestMalformedInputExits2:
    @pytest.mark.parametrize("argv", [
        ("allocate", "--rule", "ed", "--n", "3", "--endowment", "nan"),
        ("allocate", "--rule", "interval:[0,1]", "--n", "3", "--endowment", "inf"),
        ("table", "--rule", "ed", "--n", "2", "--endowments", "0:1:nan"),
        ("table", "--rule", "ed", "--n", "2", "--endowments", "nan:1:0.5"),
        ("table", "--rule", "ed", "--n", "2", "--endowments", "0:inf:1"),
        ("table", "--rule", "ed", "--n", "2", "--endowments", "0:1:inf"),
        ("table", "--rule", "ed", "--n", "2", "--endowments", "0,nan"),
    ])
    def test_non_finite_numbers(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ("allocate", "--rule", "cx:pair-favoritism=a,a", "--n", "3", "--endowment", "1"),
        ("check", "--rule", "cx:pair-favoritism=a,a", "--axiom", "anonymity"),
    ])
    def test_pair_favoritism_with_one_id_twice(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "i='a', j='a'" in err

    @pytest.mark.parametrize("rule", [
        "geometric:lambda=nan", "wts:a=nan", "proportional:1,nan", "sp:cap=nan",
        "sp:shift=nan", "sp:pwl=0:0,nan:1",
    ])
    def test_nan_rule_parameters(self, rule):
        code, out, err = run_cli("allocate", "--rule", rule, "--n", "3", "--endowment", "6")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command,event", [
        (("fit", "--family", "proportional"),
         {"name": "a", "endowment": math.inf, "prizes": [1.0, 0.5]}),
        (("classify",), {"name": "a", "endowment": 10.0, "prizes": [5.0, math.nan]}),
    ])
    def test_non_finite_prize_tables(self, tmp_path, command, event):
        data = tmp_path / "events.json"
        data.write_text(json.dumps({"events": [event]}))  # writes Infinity / NaN
        code, out, err = run_cli(*command, "--data", str(data))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_path_is_capped(self):
        code, out, err = run_cli("path", "--rule", "ed", "--n", "2",
                                 "--endowment", "1000000", "--step", "0.000001")
        assert code == 2
        assert out == ""
        assert f"more than {MAX_RANGE_ROWS} rows" in err

    def test_range_is_capped(self):
        assert len(_parse_endowments("0:99999:1")) == MAX_RANGE_ROWS
        code, _, err = run_cli("table", "--rule", "ed", "--n", "1",
                               "--endowments", "0:100000:1")
        assert code == 2
        assert "100000 rows" in err

    @pytest.mark.parametrize("command", [
        ("check", "--rule", "ed", "--axiom", "anonymity"),
        ("matrix", "--rules", "ed"),
    ])
    @pytest.mark.parametrize("samples", ["1", "0"])
    def test_samples_below_2(self, command, samples):
        code, out, err = run_cli(*command, "--samples", samples)
        assert code == 2
        assert out == ""
        assert "max_n must be >= 2" in err

    @pytest.mark.parametrize("argv", [
        ("path", "--rule", "ed", "--n", "2", "--endowment", "-1"),
        ("path", "--rule", "ed", "--n", "2", "--endowment", "1", "--step", "nan"),
        ("path", "--rule", "ed", "--n", "2", "--endowment", "1", "--step", "inf"),
    ])
    def test_bad_path_arguments(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("rules", [" ", ""])
    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_matrix_of_no_rules(self, rules, json_flag):
        code, out, err = run_cli("matrix", "--rules", rules, *json_flag)
        assert code == 2
        assert out == ""
        assert err == "error: --rules names no rule spec\n"

    @pytest.mark.parametrize("command", [("fit", "--family", "geometric"), ("classify",)])
    @pytest.mark.parametrize("events", ["5", '{"name": "x"}', "null", '"abc"'])
    def test_events_that_are_not_an_array(self, tmp_path, command, events):
        data = tmp_path / "events.json"
        data.write_text('{"events": %s}' % events)
        code, out, err = run_cli(*command, "--data", str(data))
        assert code == 2
        assert out == ""
        assert err.endswith("top-level object must contain an 'events' array\n")

    @pytest.mark.parametrize("command", [("fit", "--family", "geometric"), ("classify",)])
    @pytest.mark.parametrize("prizes", ['"5321"', '{"1": 5, "2": 3}'])
    def test_prizes_that_are_not_an_array(self, tmp_path, command, prizes):
        # a string read as its digits, an object as its keys
        data = tmp_path / "events.json"
        data.write_text('{"events": [{"name": "x", "endowment": 20, "prizes": %s}]}' % prizes)
        code, out, err = run_cli(*command, "--data", str(data))
        assert (code, out) == (2, "")
        assert err.endswith("events[0]: 'prizes' must be an array\n")

    def test_duplicate_matrix_rows(self):
        # two spellings of one rule both describe as geometric:lambda=0.5,
        # so they would share a row
        code, out, err = run_cli("matrix", "--rules",
                                 "geometric:lambda=0.5 geometric:lambda=0.50")
        assert code == 2
        assert out == ""
        assert "'geometric:lambda=0.5'" in err

    def test_samples_above_cap(self):
        # refused when the budget is built, before any sample is drawn
        code, out, err = run_cli("check", "--rule", "ed", "--axiom", "anonymity",
                                 "--samples", "100000000")
        assert code == 2
        assert out == ""
        assert "max_n must be <= 12" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize("argv", [
        ("matrix", "--rules", "cx:ed2wta3", "--samples", "3"),
        ("check", "--rule", "cx:lowest-takes-all", "--axiom", "order_preservation"),
    ])
    def test_unusable_tolerance(self, argv, tol):
        code, out, err = run_cli(*argv, f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert "tolerance must be finite and >= 0" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize("argv,flag", [
        (("fit", "--family", "geometric", "--data", "wcoop2019.json"), "tol"),
        (("fit", "--family", "interval", "--data", "pga2019.json"), "slack"),
        (("classify", "--data", "pga2019.json"), "tol"),
        (("classify", "--data", "pga2019.json"), "slack"),
    ])
    def test_unusable_fit_tolerance_or_slack(self, argv, flag, value):
        code, out, err = run_cli(*argv, f"--{flag}={value}")
        assert code == 2
        assert out == ""
        name = "tolerance" if flag == "tol" else "slack"
        assert f"{name} must be finite and >= 0" in err

    @pytest.mark.parametrize("argv", [
        ("allocate", "--rule", "sp:arithmetic", "--endowment", "1"),
        ("table", "--rule", "ed", "--endowments", "1,2"),
        ("path", "--rule", "ed", "--endowment", "1"),
    ])
    @pytest.mark.parametrize("n", [MAX_ALLOCATION_N + 1, 3_000_000])
    def test_field_size_is_capped(self, argv, n):
        code, out, err = run_cli(*argv, "--n", str(n))
        assert code == 2
        assert out == ""
        assert f"--n must be at most {MAX_ALLOCATION_N}, got {n}" in err

    @pytest.mark.parametrize("argv", [
        ("allocate", "--rule", "sp:arithmetic", "--endowment", "1"),
        ("table", "--rule", "ed", "--endowments", "1,2"),
        ("path", "--rule", "ed", "--endowment", "1"),
    ])
    @pytest.mark.parametrize("n", [0, -3])
    def test_field_size_below_one_names_the_flag(self, argv, n):
        code, out, err = run_cli(*argv, "--n", str(n))
        assert code == 2
        assert out == ""
        assert f"--n must be at least 1, got {n}" in err

    def test_field_size_at_the_cap_is_legal(self):
        code, out, err = run_cli("allocate", "--rule", "wta", "--n", str(MAX_ALLOCATION_N),
                                 "--endowment", "1", "--json")
        assert code == 0, err
        assert len(json.loads(out)["prizes"]) == MAX_ALLOCATION_N

    def test_zero_tolerance_is_legal(self):
        code, _, err = run_cli("check", "--rule", "ed", "--axiom", "anonymity",
                               "--samples", "3", "--tol", "0")
        assert code == 0, err

    def test_check_of_no_samples(self):
        # consistency compares a field of three or more with a reduced field
        code, out, err = run_cli("check", "--rule", "ed", "--axiom", "consistency",
                                 "--samples", "2")
        assert code == 2
        assert out == ""
        assert "consistency:full checks no samples at max_n=2" in err
        assert "max_n >= 3" in err

    def test_unknown_mode_for_axiom(self):
        code, out, err = run_cli("check", "--rule", "ed", "--axiom",
                                 "order_preservation", "--mode", "full")
        assert code == 2
        assert out == ""
        assert "has no mode 'full'" in err

    @pytest.mark.parametrize("argv,spec,n", [
        # the bundled proportional rule defines 5 weights
        (("matrix", "--samples", "6"), "proportional:18,10.9,6.9,4.9,4.1", 6),
        (("check", "--rule", "proportional:1,0.5", "--axiom", "anonymity", "--samples", "3"),
         "proportional:1,0.5", 3),
    ])
    def test_rule_parameter_error_names_rule_n_and_endowment(self, argv, spec, n):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {spec} at n={n}, E=0.0: proportional rule defines")


# ---------------------------------------------------------------------------
# Every float flag against nan, inf, -inf and -1


def _float_flags() -> set[tuple[str, str]]:
    """(command, flag) for every option the parser reads as a float."""
    commands = next(a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return {(name, flag) for name, sub in commands.items() for a in sub._actions
            if a.type is float for flag in a.option_strings}


# The other arguments of a command that runs, per float flag; "{csv}" stands
# for a CSV prize table, the one input --endowment applies to.
FLOAT_FLAG_COMMANDS = {
    ("allocate", "--endowment"): ("allocate", "--rule", "ed", "--n", "3"),
    ("path", "--endowment"): ("path", "--rule", "ed", "--n", "3"),
    ("path", "--step"): ("path", "--rule", "ed", "--n", "3", "--endowment", "2"),
    ("check", "--tol"): ("check", "--rule", "ed", "--axiom", "anonymity", "--samples", "2"),
    ("matrix", "--tol"): ("matrix", "--rules", "ed", "--samples", "2"),
    ("fit", "--endowment"): ("fit", "--family", "geometric", "--data", "{csv}"),
    ("fit", "--tol"): ("fit", "--family", "geometric", "--data", "{csv}", "--endowment", "1"),
    ("fit", "--slack"): ("fit", "--family", "geometric", "--data", "{csv}", "--endowment", "1"),
    ("classify", "--endowment"): ("classify", "--data", "{csv}"),
    ("classify", "--tol"): ("classify", "--data", "{csv}", "--endowment", "1"),
    ("classify", "--slack"): ("classify", "--data", "{csv}", "--endowment", "1"),
}

UNUSABLE_FLOATS = ("nan", "inf", "-inf", "-1")


def test_every_float_flag_is_covered():
    assert _float_flags() == set(FLOAT_FLAG_COMMANDS)


@pytest.mark.parametrize("value", UNUSABLE_FLOATS)
@pytest.mark.parametrize("command,flag", sorted(FLOAT_FLAG_COMMANDS))
def test_unusable_float_flag_exits_2(tmp_path, command, flag, value):
    csv = tmp_path / "table.csv"
    csv.write_text("position,prize\n1,0.5\n2,0.3\n3,0.2\n")
    argv = [str(csv) if a == "{csv}" else a for a in FLOAT_FLAG_COMMANDS[command, flag]]
    code, _, err = run_cli(*argv, f"{flag}=1")
    assert code in (0, 1), err  # the command runs with a usable value
    code, out, err = run_cli(*argv, f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "must be finite" in err


# The allow-list: a float flag whose unusable value has a documented meaning.
@pytest.mark.parametrize("value", UNUSABLE_FLOATS)
@pytest.mark.parametrize("argv", [
    ("fit", "--family", "geometric", "--data", "pga2019.json"),
    ("classify", "--data", "wcoop2019.json"),
])
def test_endowment_flag_is_ignored_for_json_data(argv, value):
    # JSON events state their own endowments; --endowment is for CSV input
    assert run_cli(*argv, f"--endowment={value}") == run_cli(*argv)


@pytest.mark.parametrize("argv,code", [(("allocate", "--n", "3"), 2), (("--help",), 0)])
def test_argparse_exit_becomes_the_return_code(capsys, argv, code):
    assert run(list(argv)) == code
    if code:
        assert "the following arguments are required: --rule" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("check", "--rule", "ed"), ("allocate", "--n", "3"),
                                  ("bogus",), ()])
def test_usage_errors_go_to_the_err_stream_run_is_given(capsys, argv):
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "") and err.startswith("usage: prizealloc")
    assert "error: " in err
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv", [("--help",), ("check", "--help")])
def test_help_goes_to_the_out_stream_run_is_given(capsys, argv):
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "") and out.startswith("usage: prizealloc")
    assert capsys.readouterr() == ("", "")


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        # -B: the env below drops PYTHONDONTWRITEBYTECODE, and src/ stays free of bytecode
        [sys.executable, "-B", "-m", "prizealloc", "allocate", "--rule", "ed",
         "--n", "2", "--endowment", "3"],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert proc.stdout == "1.5 1.5\n"


def test_a_reader_that_closes_early_gets_no_traceback():
    """`prizealloc table ... | head -c 10`: the command stops at the broken
    pipe with exit 1 and nothing on stderr."""
    src = Path(__file__).resolve().parent.parent / "src"
    with subprocess.Popen(
        # 20,001 rows: far more than a pipe holds, so a write meets the closed end
        [sys.executable, "-B", "-m", "prizealloc", "table", "--rule", "ed", "--n", "3",
         "--endowments", "0:20000:1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={"PYTHONPATH": str(src)},
    ) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert code == 1 and len(head) == 10 and err == b""


def test_late_dollar_allocates_the_largest_field_promptly():
    """The staircase of cx:late-dollar is batched: at the CLI's largest n
    its 5 * 10**9 steps take one pass over the field, not one per dollar."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "prizealloc", "allocate", "--rule", "cx:late-dollar",
         "--n", str(MAX_ALLOCATION_N), "--endowment", "1e9"],
        capture_output=True, text=True, timeout=10,
        env={"PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    prizes = [float(p) for p in proc.stdout.split()]
    assert len(prizes) == MAX_ALLOCATION_N and sum(prizes) == 1e9


class TestFitAndClassifyCommands:
    def test_fit_geometric_bundled(self):
        code, out, _ = run_cli("fit", "--family", "geometric",
                               "--data", "wcoop2019.json", "--json")
        assert code == 0
        report = json.loads(out)
        assert 0.708 <= report["fit"]["parameters"]["lam"] <= 0.718
        assert report["fit"]["verdict"] is True

    def test_classify_golf(self):
        code, out, _ = run_cli("classify", "--data", "pga2019.json",
                               "--slack", "1", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["tier"] == "top-consistent"
        assert report["geometric"]["verdict"] is False
        assert report["proportional"]["verdict"] is True

    def test_human_output(self):
        code, out, _ = run_cli("classify", "--data", "wcoop2019.json")
        assert code == 0
        assert "tier: locally-consistent" in out

    @pytest.mark.parametrize("data", ["pga2019.json", "wcoop2019.json"])
    @pytest.mark.parametrize("family, key", [("geometric", "geometric"),
                                             ("interval", "interval_pattern")])
    def test_fit_combines_every_event_as_classify_does(self, data, family, key):
        code, fit, _ = run_cli("fit", "--family", family, "--data", data, "--json")
        assert code == 0
        code, classified, _ = run_cli("classify", "--data", data, "--json")
        assert code == 0
        assert json.loads(fit)["fit"] == json.loads(classified)[key]


class TestBundledRules:
    def test_count_and_uniqueness(self):
        rules = bundled_rules()
        assert len(rules) == 13
        assert len({describe(r) for r in rules}) == 13
