import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from prizealloc.cli import (
    MAX_RANGE_ROWS,
    IoError,
    NonNumeric,
    ParseError,
    SchemaError,
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


class TestPathCommand:
    def test_csv_shape(self):
        code, out, _ = run_cli("path", "--rule", "ed", "--n", "2",
                               "--endowment", "1", "--step", "0.5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "endowment,prize_1,prize_2"
        assert lines[1:] == ["0,0,0", "0.5,0.25,0.25", "1,0.5,0.5"]


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

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_parity_fixture(self, seed):
        # Fixtures hold the pre-optimisation output of the unrestricted matrix.
        fixture = FIXTURES / f"matrix_seed{seed}.json"
        code, out, _ = run_cli("matrix", "--json", "--seed", str(seed))
        assert code == 1
        assert out == fixture.read_text()


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

    def test_duplicate_matrix_rows(self):
        # both rules describe as geometric:lambda=0.5, so they would share a row
        code, out, err = run_cli("matrix", "--rules",
                                 "geometric:lambda=0.5 geometric:lambda=0.5000001")
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

    def test_unknown_mode_for_axiom(self):
        code, out, err = run_cli("check", "--rule", "ed", "--axiom",
                                 "order_preservation", "--mode", "full")
        assert code == 2
        assert out == ""
        assert "has no mode 'full'" in err


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "prizealloc", "allocate", "--rule", "ed",
         "--n", "2", "--endowment", "3"],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert proc.stdout == "1.5 1.5\n"


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


class TestBundledRules:
    def test_count_and_uniqueness(self):
        rules = bundled_rules()
        assert len(rules) == 13
        assert len({describe(r) for r in rules}) == 13
