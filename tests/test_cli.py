"""Command-line interface: content, formats, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

import hilbertdepth.cli as cli
from hilbertdepth.cli import main, parse_range
from hilbertdepth.identities import Counterexample, VerificationResult


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseRange:
    def test_single_value(self):
        assert parse_range("5") == (5, 5)

    def test_range(self):
        assert parse_range("1..20") == (1, 20)

    def test_rejects_inverted_or_nonpositive(self):
        with pytest.raises(ValueError):
            parse_range("5..3")
        with pytest.raises(ValueError):
            parse_range("0..3")


class TestSeriesCommand:
    def test_spec_example_json(self, capsys):
        code, out, _ = run_cli(["series", "--ideal", "veronese", "--n", "3",
                                "--d", "2", "--upto", "5", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "series"
        assert doc["numerator"] == [0, 0, 3, -2]
        assert doc["den_pow"] == 3
        assert doc["coefficients"] == [0, 0, 3, 7, 12, 18]

    def test_plain_contains_same_numbers(self, capsys):
        code, out, _ = run_cli(["series", "--ideal", "veronese", "--n", "3",
                                "--d", "2", "--upto", "5"], capsys)
        assert code == 0
        assert "numerator: [0, 0, 3, -2]" in out
        assert "den_pow: 3" in out
        assert "coefficients: [0, 0, 3, 7, 12, 18]" in out

    def test_csv_carries_identical_content(self, capsys):
        code, out, _ = run_cli(["series", "--ideal", "veronese", "--n", "3",
                                "--d", "2", "--upto", "5", "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["field", "index", "value"]
        numer = [int(r[2]) for r in rows[1:] if r[0] == "numer"]
        coeffs = [int(r[2]) for r in rows[1:] if r[0] == "coefficient"]
        den = [int(r[2]) for r in rows[1:] if r[0] == "den_pow"]
        assert numer == [0, 0, 3, -2] and coeffs == [0, 0, 3, 7, 12, 18] and den == [3]

    def test_big_integers_emitted_as_strings(self, capsys):
        code, out, _ = run_cli(["series", "--ideal", "max-power", "--n", "40",
                                "--s", "30", "--upto", "2", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        big = [v for v in doc["numerator"] if isinstance(v, str)]
        assert big, "expected some numerator entries beyond 2^53"
        assert all(int(v) for v in big)

    def test_missing_family_parameter(self, capsys):
        code, _, err = run_cli(["series", "--ideal", "veronese", "--n", "3"], capsys)
        assert code == 2
        assert "requires --d" in err


class TestDepthCommand:
    def test_spec_example_json(self, capsys):
        code, out, _ = run_cli(["depth", "--ideal", "veronese", "--n", "6",
                                "--d", "2", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["depth"] == 3 and doc["closed_form"] == 3 and doc["agree"] is True

    def test_max_power_example(self, capsys):
        code, out, _ = run_cli(["depth", "--ideal", "max-power", "--n", "3",
                                "--s", "2", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["depth"] == 1 and doc["closed_form"] == 1 and doc["agree"] is True

    def test_hat_families_supported(self, capsys):
        code, out, _ = run_cli(["depth", "--ideal", "generated-hat-power", "--n", "5",
                                "--t", "2", "--s", "2", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["agree"] is True

    def test_formats_carry_identical_numbers(self, capsys):
        _, json_out, _ = run_cli(["depth", "--ideal", "veronese", "--n", "6",
                                  "--d", "2", "--format", "json"], capsys)
        _, csv_out, _ = run_cli(["depth", "--ideal", "veronese", "--n", "6",
                                 "--d", "2", "--format", "csv"], capsys)
        _, plain_out, _ = run_cli(["depth", "--ideal", "veronese", "--n", "6",
                                   "--d", "2", "--quiet"], capsys)
        doc = json.loads(json_out)["results"][0]
        rows = list(csv.reader(io.StringIO(csv_out)))
        by_col = dict(zip(rows[0], rows[1]))
        assert int(by_col["depth"]) == doc["depth"] == 3
        assert int(by_col["closed_form"]) == doc["closed_form"] == 3
        assert "depth: 3" in plain_out and "closed_form: 3" in plain_out


class TestVerifyCommand:
    def test_pass_summary(self, capsys):
        code, out, _ = run_cli(["verify", "theorem-1.4", "--n-max", "12"], capsys)
        assert code == 0
        assert "PASS theorem_1_4" in out

    def test_every_identity_runs(self, capsys):
        for name in ["lemma-2.2", "prop-2.3", "lemma-4.1", "eq-chain",
                     "theorem-1.4", "theorem-1.3"]:
            code, out, _ = run_cli(["verify", name, "--n-max", "5",
                                    "--format", "json"], capsys)
            assert code == 0, name
            doc = json.loads(out)
            assert doc["pass"] is True and doc["results"][0]["passed"] is True

    def test_failure_exit_code(self, capsys, monkeypatch):
        broken = VerificationResult(
            "theorem_1_4", "n=2 d=1", False, Counterexample(("depth",), 1, 2))
        monkeypatch.setattr(cli, "verify_theorem_1_4", lambda n, d: broken)
        code, out, _ = run_cli(["verify", "theorem-1.4", "--n-max", "3",
                                "--format", "json"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["pass"] is False
        assert doc["results"][0]["counterexample"]["lhs"] == 1

    def test_unknown_identity_rejected(self, capsys):
        code, _, _ = run_cli(["verify", "lemma-9.9"], capsys)
        assert code == 2

    def test_negative_k_max_rejected(self, capsys):
        code, out, err = run_cli(["verify", "lemma-4.1", "--n-max", "3",
                                  "--k-max", "-5"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: --k-max must be non-negative\n"


class TestTableCommand:
    def test_csv_schema(self, capsys):
        code, out, _ = run_cli(["table", "--ideal", "veronese", "--n", "1..6",
                                "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["family", "n", "param", "numer_degree", "den_pow",
                           "depth", "closed_form", "agree"]
        assert len(rows) - 1 == sum(n for n in range(1, 7))
        assert all(r[7] == "True" for r in rows[1:])

    def test_param_range_clipped_per_n(self, capsys):
        code, out, _ = run_cli(["table", "--ideal", "veronese", "--n", "1..4",
                                "--d", "2..5", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        pairs = [(r["n"], r["param"]) for r in doc["results"]]
        assert pairs == [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4)]

    def test_max_power_table(self, capsys):
        code, out, _ = run_cli(["table", "--ideal", "max-power", "--n", "3",
                                "--s", "1..5", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert [r["param"] for r in doc["results"]] == [1, 2, 3, 4, 5]
        assert all(r["agree"] for r in doc["results"])


class TestOracleCommand:
    def test_defaults_pass(self, capsys):
        code, out, _ = run_cli(["oracle", "--n-max", "3", "--k-max", "6",
                                "--s-max", "3", "--box", "2", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        checks = {(r["check"], r["family"]) for r in doc["results"]}
        assert ("coarse", "veronese") in checks and ("fine", "max-power") in checks

    def test_guard_violation_is_usage_error(self, capsys):
        code, _, err = run_cli(["oracle", "--n-max", "8", "--box", "2"], capsys)
        assert code == 2
        assert "error" in err


class TestContract:
    def test_malformed_arguments_exit_2(self, capsys):
        assert run_cli(["depth", "--ideal", "veronese"], capsys)[0] == 2
        assert run_cli(["nonsense"], capsys)[0] == 2
        assert run_cli([], capsys)[0] == 2

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run_cli(["depth", "--ideal", "veronese", "--n", "3",
                                "--d", "9"], capsys)
        assert code == 2
        assert "1 <= d <= n" in err

    def test_byte_determinism(self, capsys):
        args = ["table", "--ideal", "veronese", "--n", "1..5", "--format", "csv"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    def test_quiet_suppresses_banner(self, capsys):
        _, loud, _ = run_cli(["depth", "--ideal", "veronese", "--n", "3", "--d", "2"], capsys)
        _, quiet, _ = run_cli(["depth", "--ideal", "veronese", "--n", "3",
                               "--d", "2", "--quiet"], capsys)
        assert loud.startswith("#")
        assert not quiet.startswith("#")
        assert quiet in loud

    def test_module_entry_point(self):
        # the child imports the package under test, installed or not
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "hilbertdepth", "depth", "--ideal", "veronese",
             "--n", "3", "--d", "2", "--format", "json"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["depth"] == 2
