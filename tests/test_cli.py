"""Command-line interface: content, formats, exit codes, determinism."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hilbertdepth.cli as cli
import hilbertdepth.identities as identities
import hilbertdepth.multigrade as multigrade
from hilbertdepth.cli import main, parse_range
from hilbertdepth.identities import Counterexample, VerificationResult
from reference import build_parser, reference_main


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

    @pytest.mark.parametrize("text", ["1..", "x", "1...3", "..4"])
    def test_malformed_text_named(self, text):
        with pytest.raises(ValueError, match=re.escape(f"invalid range {text!r}")):
            parse_range(text)


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
                                "--s", "30", "--upto", "31", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        big = [v for v in doc["numerator"] if isinstance(v, str)]
        assert big, "expected some numerator entries beyond 2^53"
        assert all(int(v) for v in big)
        # every monomial of degree k >= 30 is in the ideal: C(k + 39, 39)
        # of them, beyond 2^53, in both lists of the coefficients
        assert doc["coefficients"] == [0] * 30 + [str(math.comb(k + 39, 39)) for k in (30, 31)]
        assert [r["coefficient"] for r in doc["results"]] == doc["coefficients"]

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

    @pytest.mark.parametrize("args, flag", [
        (["--ideal", "veronese", "--n", "3", "--d", "2", "--t", "5"], "veronese does not take --t"),
        (["--ideal", "max-power", "--n", "3", "--s", "2", "--d", "1"], "max-power does not take --d"),
        (["--ideal", "hat-power", "--n", "3", "--t", "1", "--s", "2", "--d", "1"],
         "hat-power does not take --d"),
    ], ids=["veronese-t", "max-power-d", "hat-power-d"])
    def test_flag_of_other_family_rejected(self, capsys, args, flag):
        for command in ("depth", "series"):
            code, out, err = run_cli([command, *args], capsys)
            assert (code, out, err) == (2, "", f"error: {flag}\n")


class TestVerifyCommand:
    def test_pass_summary(self, capsys):
        code, out, _ = run_cli(["verify", "theorem-1.4", "--n-max", "12"], capsys)
        assert code == 0
        assert "PASS theorem_1_4" in out

    def test_every_identity_runs(self, capsys):
        for name in cli._IDENTITIES:
            code, out, _ = run_cli(["verify", name, "--n-max", "5",
                                    "--format", "json"], capsys)
            assert code == 0, name
            doc = json.loads(out)
            assert doc["pass"] is True and doc["results"][0]["passed"] is True

    def test_identities_name_exactly_the_catalog(self):
        # the parser's list, kept apart so that it loads no catalog, has one
        # name per verifier that identities exports, and sweep runs each
        verifiers = {name[len("verify_"):] for name in identities.__all__
                     if name.startswith("verify_")}
        rows = [identities.sweep(name, 1) for name in cli._IDENTITIES]
        assert all(row["passed"] for row in rows)
        assert sorted(row["identity"] for row in rows) == sorted(verifiers)

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_failure_exit_code(self, capsys, monkeypatch, fmt):
        broken = VerificationResult(
            "theorem_1_4", "n=2 d=1", Counterexample(("depth", 4), 1, 2))
        monkeypatch.setattr(identities, "verify_theorem_1_4", lambda n, d: broken)
        code, out, _ = run_cli(["verify", "theorem-1.4", "--n-max", "3",
                                "--format", fmt], capsys)
        assert code == 1
        if fmt == "plain":
            assert out.splitlines()[1:] == [
                "FAIL theorem_1_4: first counterexample at n=2 d=1 "
                "point=('depth', 4) lhs=1 rhs=2"]
        elif fmt == "csv":
            rows = list(csv.DictReader(io.StringIO(out)))
            assert len(rows) == 1 and rows[0]["passed"] == "False"
            assert {k: v for k, v in rows[0].items() if k.startswith("ce_")} == {
                "ce_at": "n=2 d=1", "ce_point": "depth;4", "ce_lhs": "1", "ce_rhs": "2"}
        else:
            doc = json.loads(out)
            assert doc["pass"] is False
            assert doc["results"][0]["counterexample"] == {
                "at": "n=2 d=1", "point": ["depth", 4], "lhs": 1, "rhs": 2}

    def test_unknown_identity_rejected(self, capsys):
        code, _, _ = run_cli(["verify", "lemma-9.9"], capsys)
        assert code == 2

    def test_negative_k_max_rejected(self, capsys):
        code, out, err = run_cli(["verify", "lemma-4.1", "--n-max", "3",
                                  "--k-max", "-5"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: --k-max must be non-negative\n"

    @pytest.mark.parametrize("identity", ["lemma-2.2", "prop-2.3", "theorem-1.4",
                                          "theorem-1.3"])
    def test_k_max_rejected_without_window(self, capsys, identity):
        code, out, err = run_cli(["verify", identity, "--n-max", "3",
                                  "--k-max", "5"], capsys)
        assert (code, out, err) == (2, "", f"error: {identity} does not take --k-max\n")

    @pytest.mark.parametrize("identity", ["lemma-4.1", "eq-chain"])
    def test_k_max_window_applied(self, capsys, monkeypatch, identity):
        name = "verify_" + identity.replace("-", "_").replace(".", "_")
        verify, windows = getattr(identities, name), []
        monkeypatch.setattr(identities, name,
                            lambda n, d, k: windows.append(k) or verify(n, d, k))
        code, _, _ = run_cli(["verify", identity, "--n-max", "3", "--k-max", "5"], capsys)
        assert code == 0 and windows == [5] * 6

    def test_sweep_stops_at_first_failure(self, capsys, monkeypatch):
        # the sweep makes no call past the failing pair (2, 2), yet the case
        # count still covers every pair of the range
        verify, calls = identities.verify_theorem_1_4, []

        def failing_at_2_2(n, d):
            calls.append((n, d))
            if (n, d) != (2, 2):
                return verify(n, d)
            return VerificationResult("theorem_1_4", "n=2 d=2",
                                      Counterexample(("depth",), 1, 2))

        monkeypatch.setattr(identities, "verify_theorem_1_4", failing_at_2_2)
        args = ["verify", "theorem-1.4", "--n-max", "3", "--format"]
        code, out, _ = run_cli(args + ["csv"], capsys)
        assert code == 1 and calls == [(1, 1), (2, 1), (2, 2)]
        row = next(csv.DictReader(io.StringIO(out)))
        assert (row["cases"], row["passed"], row["ce_at"]) == ("6", "False", "n=2 d=2")
        code, out, _ = run_cli(args + ["json"], capsys)
        result = json.loads(out)["results"][0]
        assert code == 1 and (result["cases"], result["passed"]) == (6, False)


    @pytest.mark.parametrize("fmt", ["plain", "csv"])
    def test_k_max_window_shown(self, capsys, fmt):
        args = ["verify", "lemma-4.1", "--n-max", "4", "--format", fmt]
        scopes = []
        for window in (["--k-max", "0"], ["--k-max", "5"], []):
            out = run_cli(args + window, capsys)[1]
            if fmt == "plain":
                scopes.append(out.splitlines()[1].split(" cases over ")[1])
            else:
                scopes.append(next(csv.DictReader(io.StringIO(out)))["params"])
        assert scopes == ["1 <= d <= n <= 4, k <= 0", "1 <= d <= n <= 4, k <= 5",
                          "1 <= d <= n <= 4"]

    def test_scope_without_window_unchanged(self, capsys):
        code, out, err = run_cli(["verify", "lemma-4.1", "--n-max", "4"], capsys)
        assert (code, out, err) == (0, "# verify lemma-4.1 n_max=4\n"
                                       "PASS lemma_4_1: 10 cases over 1 <= d <= n <= 4\n", "")


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

    @pytest.mark.parametrize("args, message", [
        (["--ideal", "max-power", "--n", "1..4", "--d", "2..3"], "max-power does not take --d"),
        (["--ideal", "veronese", "--n", "1..4", "--s", "2"], "veronese does not take --s"),
        (["--ideal", "veronese", "--n", "1.."], "invalid range '1..': need N or LO..HI"),
    ], ids=["max-power-d", "veronese-s", "open-range"])
    def test_bad_arguments_rejected_by_name(self, capsys, args, message):
        code, out, err = run_cli(["table", *args], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_empty_grid_rejected_before_work(self, capsys, monkeypatch, fmt):
        # d <= n clips 5..6 away for every n in 1..3: no row, so no verdict
        def no_work(spec):
            raise AssertionError("depth computed for an empty grid")
        monkeypatch.setattr(cli, "depth_report", no_work)
        code, out, err = run_cli(["table", "--ideal", "veronese", "--n", "1..3",
                                  "--d", "5..6", "--format", fmt], capsys)
        assert (code, out) == (2, "")
        assert err == "error: --d 5..6 holds no value <= n for any n in 1..3\n"


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

    def test_huge_k_max_rejected_up_front(self, capsys, statistics_points):
        # degree 10^12 alone has C(10^12 + 4, 4) compositions in 5 variables;
        # the sweep guard counts them, and more, before any pass
        code, out, err = run_cli(["oracle", "--n-max", "5", "--k-max", str(10**12)], capsys)
        assert (code, out, statistics_points) == (2, "", [])
        assert re.fullmatch(r"error: the sweep would make \d+ membership tests, more than "
                            r"10000000; lower --s-max, --k-max or --box\n", err)

    @pytest.mark.parametrize("excess, code", [(1, 2), (0, 0)])
    def test_sweep_guard_checked_up_front(self, capsys, monkeypatch, statistics_points,
                                          excess, code):
        # n_max 2 holds Veronese(1, 1), (2, 1), (2, 2) and, for each s, two
        # max-power, three hat-power and three generated-hat-power specs; a
        # spec in r variables tests each of the C(3 + r, r) compositions of
        # degree <= 3 and each of the 2^r box points once.  The pass
        # computes each such point's statistics once per ring, for all its
        # specs.
        tests = {1: 4 + 2, 2: 10 + 4}
        ambients = [1, 2, 2] + 2 * ([1, 2] + [1, 2, 1] + [1, 2, 2])
        limit = sum(tests[r] for r in ambients)
        assert limit == 194
        monkeypatch.setattr(multigrade, "MAX_MEMBER_TESTS", limit - excess)
        got, out, err = run_cli(["oracle", "--n-max", "2", "--k-max", "3",
                                 "--s-max", "2", "--box", "1"], capsys)
        assert got == code
        if code == 2:
            assert (out, statistics_points) == ("", [])
            assert err == ("error: the sweep would make 194 membership tests, more "
                           "than 193; lower --s-max, --k-max or --box\n")
        else:
            assert out.endswith("OVERALL PASS\n")
            assert len(statistics_points) == sum(tests.values())

    @pytest.mark.parametrize("args, message", [
        (["--n-max", "6"], "fine series limited to 5 variables; lower --n-max"),
        (["--n-max", "3", "--box", "7"], "box bound must lie in 0..6; set --box within it"),
    ])
    def test_fine_guard_names_its_flag(self, capsys, statistics_points, args, message):
        code, out, err = run_cli(["oracle", *args], capsys)
        assert (code, out, err, statistics_points) == (2, "", f"error: {message}\n", [])

    def test_bounds_rejected_by_name(self, capsys):
        code, out, err = run_cli(["oracle", "--n-max", "3", "--k-max", "-1"], capsys)
        assert (code, out, err) == (2, "", "error: --k-max must be non-negative\n")
        code, out, _ = run_cli(["oracle", "--n-max", "2", "--k-max", "0",
                                "--box", "0", "--quiet"], capsys)
        assert code == 0 and out.endswith("OVERALL PASS\n")


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

    def test_closed_pipe_exits_141(self):
        assert closed_pipe_run(["-m", "hilbertdepth"]) == (141, b"")

    def test_console_script_closed_pipe_exits_141(self):
        # the call the installed `hilbertdepth` script makes, past __main__.py
        entry = "import sys; from hilbertdepth.cli import main; sys.exit(main())"
        assert closed_pipe_run(["-c", entry]) == (141, b"")

    @pytest.mark.parametrize("argv", [["-h"], ["--he"], ["depth", "-h"], ["verify", "--help"],
                                      ["table", "-hh"], ["oracle", "--n-max", "2", "--h"]])
    def test_help_lists_every_argument(self, capsys, argv):
        # the commands, or each argument of the command, one name a row
        code, out, err = run_cli(argv, capsys)
        command = argv[0] if argv[0] in cli._COMMANDS else None
        names = cli._COMMANDS[command][2] if command else cli._COMMANDS
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == f"usage: hilbertdepth {command or 'COMMAND'} [arguments]"
        assert [line.split()[0] for line in out.splitlines()[1::2]] == list(names)


def closed_pipe_run(entry):
    """Status and stderr of `python ENTRY series ... --format json` whose
    reader closes the pipe after one line of about 180 KB of JSON, more
    than a pipe holds: 141, the status a shell reports for a writer that
    SIGPIPE ended, and no traceback."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    with subprocess.Popen(
            [sys.executable, *entry, "series", "--ideal", "max-power",
             "--n", "1", "--s", "1", "--upto", "3000", "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src}) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
    return proc.returncode, err


def parse_outcome(parse, argv):
    """"error", "help", or the arguments `parse` reads from argv, with the
    handler they name; the parser's own output is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = parse(list(argv))
        except ValueError:
            return "error"
        except SystemExit as exc:
            return "error" if exc.code else "help"
    return "help" if args.handler is cli._help else vars(args)


def reference_parse(argv):
    return build_parser().parse_args(argv)


def argv_id(argv):
    return " ".join(argv) or "(no words)"


# Cheap argvs of every source the parser must read as argparse did: this
# module, the README's CLI block, one case of each perfbench/workloads.py
# shape at small sizes, and per command the base run below in the forms
# argparse accepted or refused.
BASES = {
    "series": ["series", "--ideal", "veronese", "--n", "3", "--d", "2", "--upto", "5"],
    "depth": ["depth", "--ideal", "generated-hat-power", "--n", "5", "--t", "2", "--s", "2"],
    "verify": ["verify", "eq-chain", "--n-max", "3", "--k-max", "4"],
    "table": ["table", "--ideal", "max-power", "--n", "1..3", "--s", "1..2"],
    "oracle": ["oracle", "--n-max", "2", "--k-max", "2", "--s-max", "2", "--box", "1"],
}
# a repeated flag, whose last value wins; an int flag; a required pair
REPEATS = {"series": ["--upto", "2"], "depth": ["--n", "6"], "verify": ["--n-max", "2"],
           "table": ["--n", "2"], "oracle": ["--box", "0"]}
INT_FLAGS = {"series": "--n", "depth": "--t", "verify": "--n-max", "table": None,
             "oracle": "--box"}
REQUIRED = {"series": ["--ideal", "veronese"], "depth": ["--n", "5"],
            "verify": ["eq-chain"], "table": ["--n", "1..3"], "oracle": None}


def command_forms(command):
    base = BASES[command]
    yield base
    yield [w[:3] if w.startswith("--") else w for w in base]  # shortest unique prefixes
    # the last two flags as --flag=value, moved to the front
    yield [command] + [f"{w}={v}" for w, v in zip(base[-4::2], base[-3::2])] + base[1:-4]
    yield base + REPEATS[command]
    yield base + REPEATS[command][:1]  # no value
    yield base + ["--format", "csv", "--f=json", "--q"]
    yield from (base + extra for extra in (
        ["--bogus"], ["--bogus", "1"], ["extra"], ["--format", "xml"], ["--format"],
        ["--quiet=x"], ["--help=x"], ["--"], ["-"], ["-x"], ["---"], ["--=x"], ["-h=x"],
        ["-h"], ["-hh"], ["--he"]))
    if INT_FLAGS[command]:
        flag = INT_FLAGS[command]
        yield [w if v != flag else "x" for v, w in zip([None] + base, base)]
        yield [w if v != flag else "-1" for v, w in zip([None] + base, base)]
        yield base + [flag + "=", "3"]
    if REQUIRED[command]:
        start = base.index(REQUIRED[command][0])
        yield base[:start] + base[start + len(REQUIRED[command]):]


RUNS = [
    # no command, an unknown one, a command's prefix, and top-level flags
    [], ["nonsense"], ["dep"], ["--n", "3"], ["--bogus", "depth"], ["-h"], ["--help"],
    ["--he"], ["-", "depth"], ["--", "depth", "--ideal", "veronese", "--n", "3", "--d", "2"],
    # the positional anywhere, once, and after --
    ["verify", "--n-max", "2", "eq-chain"], ["verify", "--n-max", "2", "--", "eq-chain"],
    ["verify", "--", "eq-chain", "--n-max", "2"], ["verify", "eq-chain", "--", "prop-2.3"],
    ["verify", "eq-chain", "prop-2.3"], ["verify", "lemma-9.9"], ["verify"],
    ["verify", "-5"], ["verify", "eq-chain", "--k-max", "-5"],
    ["verify", "eq-chain", "--k-max", "--n-max", "3"], ["verify", "theorem-1.4", "--k-max", "2"],
    ["verify", "eq-chain", "--"], ["verify", "--quiet", "eq-chain", "--", "--n-max", "2"],
    ["table", "--ideal", "veronese", "--n", "3", "--d="],
    ["table", "--ideal", "hat-power", "--n", "3"],
    ["depth", "--ideal", "veronese", "--n", " 3", "--d", "+2"],
    ["depth", "--ideal", "veronese", "--n", "6", "--d", "2", "--ideal", "max-power", "--s", "2"],
    # this module's runs
    ["series", "--ideal", "veronese", "--n", "3", "--d", "2", "--upto", "5", "--format", "json"],
    ["series", "--ideal", "max-power", "--n", "40", "--s", "30", "--upto", "31",
     "--format", "json"],
    ["series", "--ideal", "veronese", "--n", "3"],
    ["series", "--ideal", "hat-power", "--n", "6", "--t", "2", "--s", "3"],
    ["depth", "--ideal", "max-power", "--n", "40", "--s", "3"],
    ["depth", "--ideal", "veronese", "--n", "3", "--d", "9"], ["depth", "--ideal", "veronese"],
    ["depth", "--ideal", "veronese", "--n", "6", "--d", "2", "--quiet"],
    ["depth", "--ideal", "veronese", "--n", "3", "--d", "2", "--t", "5"],
    ["verify", "theorem-1.4", "--n-max", "3", "--format", "csv"],
    ["verify", "lemma-4.1", "--n-max", "4", "--k-max", "0", "--format", "plain"],
    ["table", "--ideal", "veronese", "--n", "1..4", "--d", "2..5", "--format", "json"],
    ["table", "--ideal", "veronese", "--n", "1..3", "--d", "5..6"],
    ["table", "--ideal", "veronese", "--n", "1.."],
    ["oracle", "--n-max", "8", "--box", "2"], ["oracle", "--n-max", "3", "--box", "7"],
    ["oracle", "--n-max", "3", "--k-max", "-1"],
    ["oracle", "--n-max", "2", "--k-max", "0", "--box", "0", "--quiet"],
    # the README's CLI block
    ["series", "--ideal", "veronese", "--n", "3", "--d", "2", "--upto", "5"],
    ["depth", "--ideal", "veronese", "--n", "6", "--d", "2", "--format", "json"],
    ["verify", "theorem-1.4", "--n-max", "20"],
    ["table", "--ideal", "max-power", "--n", "1..10", "--format", "csv"],
    ["oracle", "--n-max", "4", "--k-max", "10", "--box", "2"],
    # perfbench/workloads.py's case shapes
    ["depth", "--ideal", "hat-power", "--n", "23", "--t", "2", "--s", "3", "--format", "csv"],
    ["verify", "theorem-1.3", "--n-max", "4"], ["table", "--ideal", "veronese", "--n", "1..5"],
    ["oracle", "--n-max", "2", "--k-max", "3", "--s-max", "2", "--box", "1"],
    ["series", "--ideal", "generated-hat-power", "--n", "4", "--t", "2", "--s", "3",
     "--upto", "20", "--format", "json"],
] + [argv for command in BASES for argv in command_forms(command)]

# The CI steps' argvs and perfbench's at full size, too slow to run twice
# here: only what each parser reads from them is compared.
PARSE_ONLY = [line.split() for line in """\
depth --ideal veronese --n 800 --d 2
depth --ideal max-power --n 800 --s 795
depth --ideal generated-hat-power --n 800 --t 2 --s 795
oracle --n-max 3 --k-max 0 --s-max 300 --box 1
oracle --n-max 5 --k-max 12 --box 6
oracle --n-max 5 --k-max 0 --s-max 40 --box 6
oracle --n-max 1 --k-max 200000 --s-max 1 --box 0
oracle --n-max 5 --k-max 1000000000000
oracle --n-max 2 --s-max 1000000000000
verify eq-chain --n-max 100
verify theorem-1.4 --n-max 100
verify prop-2.3 --n-max 150
verify lemma-2.2 --n-max 250
series --ideal max-power --n 1 --s 1 --upto 3000 --format json
depth --ideal max-power --n 240 --s 3
depth --ideal veronese --n 198 --d 3 --format json
depth --ideal generated-hat-power --n 398 --t 3 --s 390
verify theorem-1.3 --n-max 32
table --ideal max-power --n 1..29 --format csv
oracle --n-max 5 --k-max 8 --s-max 4 --box 3
series --ideal veronese --n 30 --d 4 --upto 3000 --format json""".splitlines()]


class TestReferenceParser:
    """cli.main against the argparse parser it replaced (tests/reference.py)."""

    @pytest.mark.parametrize("argv", RUNS, ids=argv_id)
    def test_run_matches_reference(self, capsys, argv):
        code, out, _ = run_cli(list(argv), capsys)
        ref_code = reference_main(list(argv))
        ref_out = capsys.readouterr().out
        assert code == ref_code
        if parse_outcome(reference_parse, argv) != "help":  # help texts differ
            assert out == ref_out

    @pytest.mark.parametrize("argv", RUNS + PARSE_ONLY, ids=argv_id)
    def test_reads_what_reference_reads(self, argv):
        assert parse_outcome(cli._parse, argv) == parse_outcome(reference_parse, argv)

    # Words of every kind the parser tells apart, bar -h and --help: argparse
    # reported an unrecognized word only once it had read every word, so
    # help after one still printed, where _parse stops at the word.
    WORDS = ["series", "depth", "verify", "table", "oracle", "eq-chain", "theorem-1.3",
             "lemma-9.9", "veronese", "max-power", "hat-power", "plain", "json", "xml",
             "3", "0", "-5", "-1.5", "x", "1..3", "", "-", "--", "---", "-x", "--bogus",
             "--=3", "--ideal", "--i", "--n", "--n=4", "--n-max", "--n-", "--k", "--k-max=2",
             "--d", "--s", "--s=", "--t", "--upto", "--u=3", "--format", "--f=csv",
             "--quiet", "--q", "--quiet=", "--box", "--b", "--s-max"]

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(WORDS), max_size=9))
    def test_any_words_read_as_reference(self, argv):
        assert parse_outcome(cli._parse, argv) == parse_outcome(reference_parse, argv)


# Standard modules no command needs on its start-up path.  dataclasses
# brings inspect, ast, dis and tokenize; fractions brings decimal and
# numbers; json and csv serve only their own output formats; argparse
# brings gettext, and locale on its first message.
HEAVY_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions",
                 "decimal", "numbers", "json", "csv", "argparse", "gettext", "locale"}

CROSS_CHECK_MODULES = {"hilbertdepth.identities", "hilbertdepth.multigrade"}

PLAIN_RUNS = [
    ["depth", "--ideal", "max-power", "--n", "40", "--s", "3"],
    ["series", "--ideal", "hat-power", "--n", "6", "--t", "2", "--s", "3"],
    ["verify", "eq-chain", "--n-max", "4"],
    ["table", "--ideal", "veronese", "--n", "1..4"],
    ["oracle", "--n-max", "2", "--k-max", "3"],
]


def run_child(args):
    """Run `python ARGS` in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})


def imported_modules(importtime_log):
    """Module names listed by a `python -X importtime` stderr log."""
    return {line.rsplit("|", 1)[1].strip() for line in importtime_log.splitlines()
            if line.startswith("import time:") and "|" in line}


@pytest.fixture(scope="module")
def bare_imports():
    """Modules a bare interpreter imports at start-up."""
    return imported_modules(run_child(["-X", "importtime", "-c", "pass"]).stderr)


class TestImportFootprint:
    def test_import_loads_no_heavy_module(self):
        proc = run_child(["-c", "import sys; before = set(sys.modules); "
                                "import hilbertdepth.cli; "
                                "print(*sorted(set(sys.modules) - before))"])
        assert proc.returncode == 0, proc.stderr
        added = set(proc.stdout.split())
        assert "hilbertdepth.cli" in added
        assert not added & HEAVY_MODULES

    @pytest.mark.parametrize("argv", PLAIN_RUNS, ids=[a[0] for a in PLAIN_RUNS])
    def test_plain_run_loads_no_heavy_module(self, argv, bare_imports):
        # -X importtime logs every module the run imports
        proc = run_child(["-X", "importtime", "-m", "hilbertdepth", *argv,
                          "--format", "plain"])
        assert proc.returncode == 0
        added = imported_modules(proc.stderr) - bare_imports
        assert "hilbertdepth.cli" in added
        assert not added & HEAVY_MODULES
        # each cross-check module is loaded only by the command that calls it
        assert added & CROSS_CHECK_MODULES == {
            "verify": {"hilbertdepth.identities"},
            "oracle": {"hilbertdepth.multigrade"}}.get(argv[0], set())
        assert proc.stdout.startswith(f"# {argv[0]} ")

    def test_package_loads_cross_checks_on_first_use(self):
        # the library path (series, depth) compiles neither cross-check
        # module; each exported name still resolves to its module's object
        proc = run_child(["-c", "import sys, hilbertdepth as hd; "
                                "mods = ('hilbertdepth.identities', 'hilbertdepth.multigrade'); "
                                "print(*[m in sys.modules for m in mods]); "
                                "from hilbertdepth import identities, multigrade; "
                                "print(all(getattr(hd, n) is getattr(m, n) for n, m in ("
                                "('verify_eq_chain', identities), ('Counterexample', identities), "
                                "('MultiSeries', multigrade), "
                                "('fine_series_formula', multigrade))))"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False", "True"]
        proc = run_child(["-X", "importtime", "-m", "hilbertdepth", *PLAIN_RUNS[0]])
        assert "hilbertdepth.multigrade" not in imported_modules(proc.stderr)

    def test_json_and_csv_still_work(self):
        argv = ["-m", "hilbertdepth", "depth", "--ideal", "veronese", "--n", "6",
                "--d", "2", "--format"]
        doc = json.loads(run_child([*argv, "json"]).stdout)
        assert doc["depth"] == doc["closed_form"] == 3
        rows = list(csv.reader(io.StringIO(run_child([*argv, "csv"]).stdout)))
        assert rows[0][0] == "family" and rows[1][:2] == ["veronese", "6"]
