"""CLI contract: commands, formats, exit codes, round trips, b-files."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import cobweb
from cobweb import cli, verify, verify_command
from cobweb.cli import FORMATS, GRID_CENSUS_LIMIT, main
from cobweb.sequences import SEQUENCE_NAMES, FSequence, f_binomial_rows, make_sequence

SRC = str(Path(cobweb.__file__).resolve().parent.parent)  # for child processes


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def numeric_tokens(text):
    tokens = []
    for line in text.splitlines():
        for token in line.replace(",", " ").split():
            if token.lstrip("-").isdigit():
                tokens.append(token)
    return tokens


def csv_module_text(text):
    """What csv.writer writes for the rows csv.reader reads back from text."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(csv.reader(io.StringIO(text)))
    return out.getvalue()


SEQ_COMMANDS = ("seq", "fbinom", "pnf", "export")


def seq_command(command, seq_options, tmp_path):
    """argv for a --seq subcommand whose other options are valid."""
    rest = {
        "seq": ["--count", "4"],
        "fbinom": ["--rows", "4"],
        "pnf": ["--n", "4"],
        "export": ["--what", "bell", "--count", "4", "--bfile", str(tmp_path / "b")],
    }[command]
    return [command, *seq_options, *rest]


def usage_error(argv, capsys, tmp_path):
    """Run argv, expecting exit 2 with nothing written; return the last stderr line."""
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert not any(tmp_path.iterdir())
    return err.splitlines()[-1]


class TestSeqCommand:
    def test_fibonacci_values(self, capsys):
        code, out, _ = run_cli(["seq", "--seq", "fib", "--count", "6"], capsys)
        assert code == 0
        assert out.split() == ["1", "1", "2", "3", "5", "8"]

    def test_gauss_values(self, capsys):
        code, out, _ = run_cli(
            ["seq", "--seq", "gauss", "--q", "2", "--count", "4"], capsys
        )
        assert code == 0
        assert out.split() == ["1", "3", "7", "15"]

    def test_gauss_without_q_is_usage_error(self, capsys, tmp_path):
        expected = "cobweb: error: sequence 'gauss' requires the base parameter q"
        for command in SEQ_COMMANDS:
            argv = seq_command(command, ["--seq", "gauss"], tmp_path)
            assert usage_error(argv, capsys, tmp_path) == expected, command

    def test_q_with_other_sequence_is_usage_error(self, capsys, tmp_path):
        expected = "cobweb: error: sequence 'fib' does not take a base parameter q"
        for command in SEQ_COMMANDS:
            argv = seq_command(command, ["--seq", "fib", "--q", "2"], tmp_path)
            assert usage_error(argv, capsys, tmp_path) == expected, command

    def test_gauss_base_below_2_is_usage_error(self, capsys, tmp_path):
        expected = "cobweb: error: gaussian base must be an integer >= 2, got 1"
        for command in SEQ_COMMANDS:
            argv = seq_command(command, ["--seq", "gauss", "--q", "1"], tmp_path)
            assert usage_error(argv, capsys, tmp_path) == expected, command

    def test_unknown_sequence_is_usage_error(self, capsys, tmp_path):
        for command in SEQ_COMMANDS:
            argv = seq_command(command, ["--seq", "tribonacci"], tmp_path)
            assert usage_error(argv, capsys, tmp_path).startswith(
                f"cobweb {command}: error: argument --seq: invalid choice: 'tribonacci'"
            )

    def test_nonpositive_count_is_usage_error(self, capsys):
        code, _, _ = run_cli(["seq", "--seq", "fib", "--count", "0"], capsys)
        assert code == 2


class TestFbinomCommand:
    def test_fibonomial_triangle(self, capsys):
        code, out, _ = run_cli(["fbinom", "--seq", "fib", "--rows", "5"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["1"]
        assert lines[5].split() == ["1", "5", "15", "15", "5", "1"]

    def test_pascal_row(self, capsys):
        code, out, _ = run_cli(
            ["fbinom", "--seq", "naturals", "--rows", "4", "--format", "csv"], capsys
        )
        assert code == 0
        assert out.splitlines()[4] == "1,4,6,4,1"

    def test_negative_rows_is_usage_error(self, capsys):
        code, _, _ = run_cli(["fbinom", "--seq", "fib", "--rows", "-1"], capsys)
        assert code == 2

    def test_non_integral_lucas_triangle_is_clean_error(self, capsys):
        code, out, _ = run_cli(["fbinom", "--seq", "lucas", "--rows", "3"], capsys)
        assert code == 0
        assert out.splitlines()[3].split() == ["1", "4", "4", "1"]
        code, _, err = run_cli(["fbinom", "--seq", "lucas", "--rows", "5"], capsys)
        assert code == 2
        assert "not an integer" in err

    def test_lucas_error_text_is_stable(self, capsys):
        # every row is computed once before the first row is written
        for fmt in ("table", "csv", "json"):
            code, out, err = run_cli(
                ["fbinom", "--seq", "lucas", "--rows", "5", "--format", fmt], capsys
            )
            assert (code, out) == (2, "")
            assert err == (
                "usage: cobweb [-h] command ...\n"
                "cobweb: error: (4 choose 2)_F is not an integer for F = lucas: "
                "step 2 leaves remainder 1 after dividing by F_2 = 3\n"
            )

    def test_table_pads_every_column(self, capsys):
        code, out, _ = run_cli(["fbinom", "--seq", "fib", "--rows", "6"], capsys)
        assert code == 0
        assert out == (
            "1\n"
            "1 1\n"
            "1 1  1\n"
            "1 2  2  1\n"
            "1 3  6  3  1\n"
            "1 5 15 15  5 1\n"
            "1 8 40 60 40 8 1\n"
        )

    @pytest.mark.parametrize("rows", [0, 1, 30])
    @pytest.mark.parametrize("seq", ["fib", "naturals", "gauss2"])
    def test_json_is_json_dumps_of_the_document(self, seq, rows, capsys):
        name, q = ("gauss", 2) if seq == "gauss2" else (seq, None)
        params = {"seq": name} | ({"q": str(q)} if q else {}) | {"rows": str(rows)}
        code, out, _ = run_cli(
            ["fbinom", *(f"--{key}={value}" for key, value in params.items()),
             "--format", "json"],
            capsys,
        )
        triangle = f_binomial_rows(make_sequence(name, q), rows)
        values = [[str(x) for x in row] for row in triangle]
        doc = {"object": "fbinom", "params": params, "values": values}
        assert (code, out) == (0, json.dumps(doc) + "\n")

    def test_peak_memory_is_one_row_not_the_document_in_every_format(self, monkeypatch):
        # table and json once held several copies of the document, and every
        # format once held the whole triangle as text before its first write
        argv = ["fbinom", "--seq", "fib", "--rows", "120", "--format"]
        peaks, sizes = {}, {}
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            for fmt in FORMATS:  # first use (json's import) is not the document
                main(argv + [fmt])
            for fmt in FORMATS:
                tracemalloc.start()
                try:
                    main(argv + [fmt])
                    peaks[fmt] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            for fmt in FORMATS:
                text = io.StringIO()
                monkeypatch.setattr(sys, "stdout", text)
                main(argv + [fmt])
                sizes[fmt] = len(text.getvalue())
        assert peaks["table"] <= 1.1 * peaks["csv"]
        assert peaks["json"] <= 1.1 * peaks["csv"]
        assert all(peaks[fmt] < sizes[fmt] / 4 for fmt in FORMATS), (peaks, sizes)


class TestFbinomSinglePass:
    """Every shipped sequence but lucas is GCD-morphic, so its F-binomials are
    integers and ``fbinom`` writes each row as the row engine yields it."""

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("name", SEQUENCE_NAMES)
    def test_row_engine_runs_once_but_for_lucas(self, name, fmt, capsys, monkeypatch):
        engine, calls = cobweb.sequences.f_binomial_rows, []

        def counted(*args):
            calls.append(args[1:])
            return engine(*args)

        monkeypatch.setattr("cobweb.sequences.f_binomial_rows", counted)
        base = ["--q", "3"] if name == "gauss" else []
        for rows in (3, 9):  # lucas's rows 0..3 are integral, row 4 is not
            calls.clear()
            argv = ["fbinom", "--seq", name, *base, "--rows", str(rows), "--format", fmt]
            code, out, err = run_cli(argv, capsys)
            if name == "lucas" and rows > 3:  # the check pass raises
                assert (calls, code, out) == ([(rows,)], 2, "")
                assert "(4 choose 2)_F is not an integer for F = lucas" in err
                continue
            # lucas alone runs a check pass, then the written one
            assert calls == [(rows,)] * (2 if name == "lucas" else 1)
            assert (code, err) == (0, "")
            assert len(out.splitlines()) == (1 if fmt == "json" else rows + 1)

    def test_non_integral_entry_under_a_name_that_skips_the_check_ends_mid_document(
        self, capsys, monkeypatch
    ):
        # a sequence that is not GCD-morphic under a name that skips the
        # check pass: the rows before its first non-integral entry are
        # written, then the error, exit 2 (its last row is integral)
        skipped = FSequence("skipped", lambda n: 2 if n % 3 == 2 else 1)
        monkeypatch.setattr("cobweb.sequences.make_sequence", lambda name, q: skipped)
        written = {
            "table": "1\n1 1\n1 2 1\n1 1 1 1\n",
            "csv": "1\n1,1\n1,2,1\n1,1,1,1\n",
            "json": '{"object": "fbinom", "params": {"seq": "naturals", "rows": "5"}, '
            '"values": [["1"], ["1", "1"], ["1", "2", "1"], ["1", "1", "1", "1"]',
        }
        for fmt in FORMATS:
            argv = ["fbinom", "--seq", "naturals", "--rows", "5", "--format", fmt]
            assert run_cli(argv, capsys) == (
                2,
                written[fmt],
                "usage: cobweb [-h] command ...\n"
                "cobweb: error: (4 choose 2)_F is not an integer for F = skipped: "
                "step 2 leaves remainder 1 after dividing by F_2 = 2\n",
            )


class TestGridCommand:
    def test_whitney(self, capsys):
        code, out, _ = run_cli(
            ["grid", "--k", "2", "--n", "3", "--show", "whitney"], capsys
        )
        assert code == 0
        assert out.split() == ["1", "1", "2", "1", "1"]

    def test_chain_poset(self, capsys):
        code, out, _ = run_cli(
            ["grid", "--k", "0", "--n", "4", "--show", "chains"], capsys
        )
        assert code == 0
        assert out.strip() == "1"

    def test_show_all_is_labeled(self, capsys):
        code, out, _ = run_cli(["grid", "--k", "2", "--n", "3"], capsys)
        assert code == 0
        lines = dict(line.split(None, 1) for line in out.splitlines())
        assert lines["size"].strip() == "6"
        assert lines["whitney"].split() == ["1", "1", "2", "1", "1"]
        assert lines["bell"].strip() == "6"
        assert lines["chains"].strip() == "2"

    def test_main_calls_the_module_bindings_at_call_time(self, capsys, monkeypatch):
        # the benchmark's tracer wraps functions by rebinding them in their modules
        from cobweb import cli, gridposet

        calls = []

        def wrap(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        wrap(cli, "cmd_grid")
        wrap(gridposet, "grid_whitney")
        code, out, _ = run_cli(["grid", "--k", "2", "--n", "5", "--show", "whitney"], capsys)
        assert (code, out, calls) == (0, "1 1 2 2 3 2 1\n", ["cmd_grid", "grid_whitney"])

    def test_invalid_bounds_is_usage_error(self, capsys):
        code, _, err = run_cli(["grid", "--k", "3", "--n", "2", "--show", "size"], capsys)
        assert code == 2
        assert "0 <= k < n" in err

    @pytest.mark.parametrize("show", ["size", "whitney", "bell", "chains", "all"])
    def test_large_grid_never_enumerates(self, show, capsys, monkeypatch):
        def refuse(k, n):
            raise AssertionError(f"grid_elements({k}, {n}) called")

        monkeypatch.setattr("cobweb.gridposet.grid_elements", refuse)
        code, out, _ = run_cli(
            ["grid", "--k", "2000", "--n", "4000", "--show", show], capsys
        )
        assert code == 0
        if show == "size":
            assert out == "6003000\n"

    @pytest.mark.parametrize("show", ["whitney", "bell", "chains", "all"])
    def test_census_over_the_limit_is_usage_error(self, show, capsys):
        k, n = 1, GRID_CENSUS_LIMIT
        argv = ["grid", "--k", str(k), "--n", str(n), "--show", show]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert f"k + n = {k + n}" in err
        assert f"limit of {GRID_CENSUS_LIMIT}" in err
        assert "only --show size has no limit" in err

    def test_census_at_the_limit_is_answered(self, capsys):
        k, n = 1, GRID_CENSUS_LIMIT - 1
        argv = ["grid", "--k", str(k), "--n", str(n), "--show", "bell"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out == f"{2 * n - 1}\n"

    def test_only_size_has_no_limit(self, capsys):
        code, out, _ = run_cli(
            ["grid", "--k", "100000000", "--n", "200000000", "--show", "size"], capsys
        )
        assert (code, out) == (0, "15000000150000000\n")
        k, n = 1, GRID_CENSUS_LIMIT - 1
        code, out, _ = run_cli(
            ["grid", "--k", str(k), "--n", str(n), "--show", "chains"], capsys
        )
        assert (code, out) == (0, f"{n - 1}\n")


class TestPnfCommand:
    def test_bell(self, capsys):
        code, out, _ = run_cli(
            ["pnf", "--seq", "naturals", "--n", "4", "--show", "bell"], capsys
        )
        assert code == 0
        assert out.strip() == "5"

    def test_bell_excluding_degenerate_level(self, capsys):
        code, out, _ = run_cli(
            [
                "pnf", "--seq", "naturals", "--n", "4", "--show", "bell",
                "--degenerate", "exclude",
            ],
            capsys,
        )
        assert code == 0
        assert out.strip() == "4"

    def test_whitney(self, capsys):
        code, out, _ = run_cli(
            ["pnf", "--seq", "fib", "--n", "6", "--show", "whitney"], capsys
        )
        assert code == 0
        assert out.split() == ["1", "5", "6", "1"]

    def test_nonpositive_n_is_usage_error(self, capsys):
        code, _, _ = run_cli(["pnf", "--seq", "fib", "--n", "0"], capsys)
        assert code == 2

    def test_bell_beyond_the_int_to_str_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(
            ["pnf", "--seq", "fib", "--n", "450", "--show", "bell"], capsys
        )
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        # independent value: fibonomial Pascal rule on the rows B_450 needs
        fib = [0, 1]
        while len(fib) < 452:
            fib.append(fib[-1] + fib[-2])
        rows = [[1]]
        for m in range(1, 451):
            prev = rows[-1] + [0]
            width = min(m, 450 - m)
            rows.append(
                [1] + [fib[k - 1] * prev[k] + fib[m - k + 1] * prev[k - 1]
                       for k in range(1, width + 1)]
            )
        expected = sum(rows[450 - k][k] for k in range(226))
        digits = out.strip()
        assert digits.isdigit() and len(digits) > 4300
        sys.set_int_max_str_digits(0)
        try:
            assert digits == str(expected)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_digit_limit_is_restored_after_a_usage_error(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, _, _ = run_cli(["fbinom", "--seq", "lucas", "--rows", "5"], capsys)
        assert code == 2
        assert sys.get_int_max_str_digits() == limit

    def test_command_line_integers_keep_the_digit_limit(self, capsys):
        code, _, err = run_cli(["fbinom", "--seq", "fib", "--rows", "9" * 5000], capsys)
        assert code == 2
        assert "invalid int value" in err


class TestVerifyCommand:
    def test_desk_scale_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--max-n", "10"], capsys)
        assert code == 0
        assert "failures 0" in out

    def test_scale_precondition(self, capsys):
        code, _, _ = run_cli(["verify", "--max-n", "1"], capsys)
        assert code == 2

    def test_injected_fault_exits_1_citing_0_2(self, capsys, monkeypatch):
        from math import comb

        def broken(k, n):
            quotient, remainder = divmod((n + 1 - k) * comb(n + k, n), n)
            if remainder:
                raise ArithmeticError(f"non-integral chain count at ({k}, {n})")
            return quotient

        monkeypatch.setattr("cobweb.gridposet.grid_chain_count", broken)
        code, out, _ = run_cli(["verify", "--max-n", "6"], capsys)
        assert code == 1
        first_fail = next(line for line in out.splitlines() if line.startswith("FAIL"))
        assert "(0, 2)" in first_fail

    def test_seq_subset(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--max-n", "6", "--seq", "naturals,gauss3"], capsys
        )
        assert code == 0

    def test_unknown_seq_token_is_usage_error(self, capsys):
        code, _, _ = run_cli(["verify", "--max-n", "6", "--seq", "lucas"], capsys)
        assert code == 2

    def test_repeated_seq_token_is_usage_error(self, capsys):
        argv = ["verify", "--max-n", "6", "--seq", "fib,fib,fib"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "'fib' is given more than once" in err

    def test_empty_seq_is_usage_error_naming_the_empty_token(self, capsys):
        for tokens in ("", "fib,,naturals"):
            code, out, err = run_cli(["verify", "--max-n", "6", "--seq", tokens], capsys)
            assert code == 2
            assert out == ""
            assert "unknown verify sequence ''" in err

    def test_max_n_over_the_limit_is_usage_error_naming_both_numbers(self, capsys):
        limit = verify_command.VERIFY_MAX_N_LIMIT
        code, out, err = run_cli(["verify", "--max-n", str(limit + 1)], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == (
            f"cobweb: error: --max-n {limit + 1} exceeds the limit of {limit}"
        )

    def test_scale_limit_variable_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("COBWEB_SCALE_LIMIT", "8")
        code, out, _ = run_cli(["verify", "--max-n", "10"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "failures 0"


class TestExportCommand:
    def test_bell_bfile(self, tmp_path, capsys):
        path = tmp_path / "b.txt"
        code, _, _ = run_cli(
            [
                "export", "--what", "bell", "--seq", "naturals",
                "--count", "5", "--bfile", str(path),
            ],
            capsys,
        )
        assert code == 0
        assert path.read_bytes() == b"1 1\n2 2\n3 3\n4 5\n5 8\n"

    def test_single_term(self, tmp_path, capsys):
        path = tmp_path / "b.txt"
        code, _, _ = run_cli(
            [
                "export", "--what", "bell", "--seq", "naturals",
                "--count", "1", "--bfile", str(path),
            ],
            capsys,
        )
        assert code == 0
        assert path.read_bytes() == b"1 1\n"

    def test_fbinom_diagonal(self, tmp_path, capsys):
        path = tmp_path / "b.txt"
        code, _, _ = run_cli(
            [
                "export", "--what", "fbinom-diagonal", "--seq", "naturals",
                "--count", "4", "--bfile", str(path),
            ],
            capsys,
        )
        assert code == 0
        # central binomials C(2n, n)
        assert path.read_text() == "1 2\n2 6\n3 20\n4 70\n"

    def test_unwritable_path_exits_3(self, tmp_path, capsys):
        path = tmp_path / "missing-dir" / "b.txt"
        code, _, err = run_cli(
            [
                "export", "--what", "bell", "--seq", "naturals",
                "--count", "5", "--bfile", str(path),
            ],
            capsys,
        )
        assert code == 3
        assert "cannot write" in err


class TestFormats:
    ROUND_TRIP_COMMANDS = [
        ["seq", "--seq", "fib", "--count", "10"],
        ["seq", "--seq", "gauss", "--q", "3", "--count", "6"],
        ["fbinom", "--seq", "fib", "--rows", "6"],
        ["grid", "--k", "3", "--n", "5", "--show", "whitney"],
        ["grid", "--k", "2", "--n", "4", "--show", "all"],
        ["pnf", "--seq", "gauss", "--q", "2", "--n", "8", "--show", "whitney"],
        ["pnf", "--seq", "naturals", "--n", "9", "--show", "bell"],
        # options out of declared order: params keep the declared order
        ["seq", "--count", "5", "--q", "2", "--seq", "gauss"],
        ["fbinom", "--rows", "4", "--seq", "naturals"],
        ["pnf", "--degenerate", "exclude", "--n", "6", "--q", "2", "--seq", "gauss",
         "--show", "whitney"],
    ]

    @staticmethod
    def argv_from_doc(doc):
        argv = [doc["object"]]
        for key, value in doc["params"].items():  # every key names an option
            argv += ["--" + key.replace("_", "-"), value]
        return argv + ["--format", "json"]

    @pytest.mark.parametrize("argv", ROUND_TRIP_COMMANDS, ids=" ".join)
    def test_json_round_trip_reproduces_bytes(self, argv, capsys):
        code, first, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0
        doc = json.loads(first)
        code, second, _ = run_cli(self.argv_from_doc(doc), capsys)
        assert code == 0
        assert second == first

    @pytest.mark.parametrize("argv", ROUND_TRIP_COMMANDS, ids=" ".join)
    def test_formats_carry_the_same_values(self, argv, capsys):
        outputs = {}
        for fmt in ("table", "csv", "json"):
            code, out, _ = run_cli(argv + ["--format", fmt], capsys)
            assert code == 0
            outputs[fmt] = out
        doc = json.loads(outputs["json"])
        values = doc["values"]
        flat = [v for row in values for v in row] if isinstance(values[0], list) else values
        assert sorted(numeric_tokens(outputs["table"])) == sorted(flat)
        assert sorted(numeric_tokens(outputs["csv"])) == sorted(flat)
        assert outputs["csv"] == csv_module_text(outputs["csv"])

    def test_verify_formats_agree(self, capsys):
        code, table, _ = run_cli(["verify", "--max-n", "6"], capsys)
        assert code == 0
        code, as_json, _ = run_cli(["verify", "--max-n", "6", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(as_json)
        checks = next(l.split()[1] for l in table.splitlines() if l.startswith("checks"))
        failures = next(l.split()[1] for l in table.splitlines() if l.startswith("failures"))
        assert doc["values"] == [checks, failures]

    def test_verify_skips_are_visible_in_every_format(self, capsys, monkeypatch):
        suites = verify.run_verify(4)  # run the suites once, render three times
        suites[0].skipped = 3  # no suite skips on its own; the renderers still report it
        monkeypatch.setattr(verify, "run_verify", lambda max_n, tokens: suites)
        outputs = {}
        for fmt in ("table", "csv", "json"):
            code, outputs[fmt], _ = run_cli(
                ["verify", "--max-n", "4", "--format", fmt], capsys
            )
            assert code == 0
        table_skips = sum(
            int(count) for count in re.findall(r"(\d+) skipped", outputs["table"])
        )
        assert table_skips == 3
        doc = json.loads(outputs["json"])
        assert sum(int(suite["skipped"]) for suite in doc["suites"]) == table_skips
        assert [suite["name"] for suite in doc["suites"]] == [s.name for s in suites]
        totals, *rows = csv.reader(io.StringIO(outputs["csv"]))
        assert totals == doc["values"]
        assert sum(int(skipped) for *_, skipped in rows) == table_skips
        assert rows == [list(suite.values()) for suite in doc["suites"]]

    def test_verify_reports_suite_seconds_in_every_format(self, capsys):
        outputs = {}
        for fmt in ("table", "csv", "json"):
            code, outputs[fmt], _ = run_cli(
                ["verify", "--max-n", "6", "--format", fmt], capsys
            )
            assert code == 0
        doc = json.loads(outputs["json"])
        suite_lines = outputs["table"].splitlines()[: len(doc["suites"])]
        assert all(re.search(r" in \d+\.\d\d s$", line) for line in suite_lines)
        assert [list(suite) for suite in doc["suites"]] == [
            ["name", "cases", "failed", "seconds", "skipped"]
        ] * len(doc["suites"])
        assert all(float(suite["seconds"]) >= 0 for suite in doc["suites"])
        _, *rows = csv.reader(io.StringIO(outputs["csv"]))
        assert [len(row) for row in rows] == [5] * len(doc["suites"])
        assert all(float(row[3]) >= 0 for row in rows)

    @pytest.mark.parametrize(
        "argv",
        [
            ["grid", "--k", "3", "--n", "5", "--show", "all"],
            ["seq", "--seq", "fib", "--count", "12"],
            ["pnf", "--seq", "naturals", "--n", "7", "--show", "whitney"],
            ["pnf", "--seq", "fib", "--n", "9", "--show", "bell"],
            ["verify", "--max-n", "4"],
        ],
        ids=" ".join,
    )
    def test_json_is_json_dumps_of_what_it_holds(self, argv, capsys):
        code, out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0
        assert out == json.dumps(json.loads(out)) + "\n"

    def test_verify_csv_is_one_line_per_row(self, capsys, monkeypatch):
        suites = verify.run_verify(4)  # the same suite seconds in both formats
        monkeypatch.setattr(verify, "run_verify", lambda max_n, tokens: suites)
        code, as_json, _ = run_cli(["verify", "--max-n", "4", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(as_json)
        rows = [doc["values"], *(list(suite.values()) for suite in doc["suites"])]
        code, as_csv, _ = run_cli(["verify", "--max-n", "4", "--format", "csv"], capsys)
        assert (code, as_csv) == (0, "".join(",".join(row) + "\n" for row in rows))
        assert as_csv == csv_module_text(as_csv)  # the suite names need no quoting

    def test_values_are_decimal_strings_at_any_magnitude(self, capsys):
        code, out, _ = run_cli(
            ["fbinom", "--seq", "fib", "--rows", "40", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        middle = doc["values"][40][20]
        assert isinstance(middle, str)
        assert int(middle) > 2**64  # far beyond machine words, still exact


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cobweb", "seq", "--seq", "fib", "--count", "5"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert proc.returncode == 0
        assert proc.stdout.split() == ["1", "1", "2", "3", "5"]

    @pytest.mark.parametrize(
        "argv, lines_read",
        [
            (["fbinom", "--seq", "naturals", "--rows", "400", "--format", "csv"], 1),
            (["verify", "--max-n", "12"], 0),  # its lines reach the pipe in one write
        ],
        ids=["fbinom", "verify"],
    )
    def test_closed_pipe_exits_3_without_traceback(self, argv, lines_read):
        proc = subprocess.Popen(
            [sys.executable, "-m", "cobweb", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        for _ in range(lines_read):
            proc.stdout.readline()
        proc.stdout.close()  # as `| head -n 1` does once it has its line
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (3, b"")

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--max-n", "4"], ["seq", "--seq", "fib", "--count", "3"]],
        ids=["verify", "seq"],
    )
    def test_stdout_closed_at_start_exits_3_without_traceback(self, argv):
        proc = subprocess.run(  # as `cobweb ... >&-` does
            [sys.executable, "-m", "cobweb", *argv],
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=SRC),
            preexec_fn=lambda: os.close(1),
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (3, b"")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_closed_pipe_leaves_no_descriptor_open(self, monkeypatch):
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        before = open_fds()
        for _ in range(2):
            reader, writer = os.pipe()
            os.close(reader)  # no reader: the first flush raises BrokenPipeError
            with open(writer, "w") as stdout:
                monkeypatch.setattr(sys, "stdout", stdout)
                assert main(["seq", "--seq", "fib", "--count", "5"]) == 3
        assert open_fds() == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["fbinom", "--seq", "fib", "--rows", "6"],
            ["grid", "--k", "2", "--n", "4", "--show", "all"],
            ["verify", "--max-n", "4"],
        ],
        ids=" ".join,
    )
    def test_stdout_needs_only_write_and_flush(self, argv, capsys, monkeypatch):
        class Sink:  # what a caller that counts bytes may install as sys.stdout
            def __init__(self):
                self.parts = []

            def write(self, text):
                self.parts.append(text)
                return len(text)

            def flush(self):
                pass

        suites = verify.run_verify(4)  # the same suite seconds in every run
        monkeypatch.setattr(verify, "run_verify", lambda max_n, tokens: suites)
        for fmt in FORMATS:
            code, expected, _ = run_cli(argv + ["--format", fmt], capsys)
            sink = Sink()
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", sink)
                assert main(argv + ["--format", fmt]) == code == 0
            assert "".join(sink.parts) == expected

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 2


def argparse_items(argv):
    """The items of argparse's namespace for argv, in order; None where it exits."""
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return list(vars(cli._parser(command).parse_args(argv)).items())
        except SystemExit:  # help, or a usage error
            return None


# values at the edge of argparse's grammar and of int()
ODD_VALUES = ("-5", "-", "--", "", "1_0", "+2", "0x3", "\u0663")
STRAY_TOKENS = (*cli.SUBCOMMANDS, "-h", "--help", "--", "-5", "--bogus", "fib", "3")


@st.composite
def perturbed_argvs(draw):
    """A command's declared options in any order, then, one time in two, perturbed."""
    command = draw(st.sampled_from(list(cli.SUBCOMMANDS)))
    perturbed = draw(st.booleans())
    options = draw(st.permutations(cli.SUBCOMMANDS[command][1]()))
    pairs = []
    for flag, keywords in options:
        if draw(st.integers(0, 7)) >= (7 if keywords.get("required") else 4):
            continue  # a required option is left out 1 time in 8, any other one in 2
        valid = keywords.get("choices") or (
            ("0", "1", "4", "12") if keywords.get("type") is int else ("fib,ones", "b.txt")
        )
        odd = perturbed and draw(st.integers(0, 3)) == 3
        pairs.append([flag, draw(st.sampled_from(ODD_VALUES if odd else valid))])
    for _ in range(draw(st.integers(0, 2)) if perturbed else 0):
        if not pairs:
            break
        pair = draw(st.sampled_from(pairs))
        how = draw(st.sampled_from(("repeat", "drop", "abbreviate", "equals")))
        if how == "repeat":
            pairs.insert(draw(st.integers(0, len(pairs))), list(pair))
        elif how == "drop":
            del pair[1:]
        elif how == "abbreviate" and len(pair[0]) > 3:
            pair[0] = pair[0][: draw(st.integers(3, len(pair[0]) - 1))]
        elif how == "equals" and len(pair) == 2:
            pair[:] = [f"{pair[0]}={pair[1]}"]
    argv = [command, *(token for pair in pairs for token in pair)]
    for _ in range(draw(st.integers(0, 2)) if perturbed else 0):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(STRAY_TOKENS)))
    return argv


class TestReader:
    """cli._read against argparse, the reference it must agree with."""

    @given(perturbed_argvs())
    @example(["-5", "--seq", "verify", "--max-n", "4"])  # the command is an option's value
    @settings(max_examples=400, deadline=None)
    def test_a_read_argv_is_what_argparse_parses(self, argv):
        command = next((arg for arg in argv if not arg.startswith("-")), None)
        read = cli._read(command, argv)
        event("declined" if read is None else "read")
        if read is not None:
            assert list(vars(read).items()) == argparse_items(argv)

    # corpus argvs that argparse parses although _read declines their shape:
    # an abbreviation, the --flag=value form, a repeated flag, a value with a dash
    OUT_OF_SHAPE = {
        "seq --seq fib --cou 3",
        "seq --seq=fib --count=3",
        "seq --seq fib --count 3 --count 4",
        "fbinom --seq fib --rows -1",
    }

    def test_read_accepts_every_corpus_argv_of_plain_shape(self):
        corpus = json.loads(Path(__file__).with_name("cli_corpus.json").read_text())
        declined = set()
        for key in corpus:
            argv = key.split(" ")
            if argv[0] not in cli.SUBCOMMANDS:
                continue  # no command first, or a child process
            read, parsed = cli._read(argv[0], argv), argparse_items(argv)
            if read is not None:
                assert list(vars(read).items()) == parsed, key
            elif parsed is not None:
                declined.add(key)
        assert declined == self.OUT_OF_SHAPE
