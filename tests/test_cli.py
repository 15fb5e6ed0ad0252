"""Tests for the interactive SQL shell."""

import io
import os
import subprocess
import sys

import pytest

from repro.cli import Shell, format_table, main


def run_shell(lines, db=None):
    out = io.StringIO()
    shell = Shell(db=db, out=out)
    shell.run(lines)
    return shell, out.getvalue()


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["A", "LONGNAME"], [(1, "x"), (22, "yy")])
        lines = text.splitlines()
        assert lines[0] == "A  | LONGNAME"
        assert lines[2] == "1  | x       "

    def test_null_rendering(self):
        text = format_table(["A"], [(None,)])
        assert "NULL" in text

    def test_row_limit(self):
        text = format_table(["A"], [(i,) for i in range(150)], limit=100)
        assert "(50 more rows)" in text


class TestStatements:
    def test_full_session(self):
        __, output = run_shell(
            [
                "CREATE TABLE T (A INTEGER, B VARCHAR(8));",
                "INSERT INTO T VALUES (1, 'one'), (2, 'two');",
                "SELECT * FROM T;",
            ]
        )
        assert "CREATE TABLE: ok" in output
        assert "INSERT: 2 row(s)" in output
        assert "one" in output
        assert "(2 row(s))" in output

    def test_multiline_statement(self):
        __, output = run_shell(
            [
                "CREATE TABLE T (A INTEGER);",
                "SELECT *",
                "FROM T",
                "WHERE A = 1;",
            ]
        )
        assert "(0 row(s))" in output

    def test_error_reported_not_raised(self):
        __, output = run_shell(["SELECT * FROM NOPE;"])
        assert "error:" in output

    def test_explain(self):
        __, output = run_shell(
            [
                "CREATE TABLE T (A INTEGER);",
                "EXPLAIN SELECT * FROM T;",
            ]
        )
        assert "estimated cost" in output
        assert "segment scan" in output

    def test_timing_toggle(self):
        __, output = run_shell(
            [
                "\\timing",
                "CREATE TABLE T (A INTEGER);",
                "SELECT * FROM T;",
            ]
        )
        assert "timing on" in output
        assert "page fetches" in output


class TestMetaCommands:
    def test_quit(self):
        shell, __ = run_shell(["\\q", "SELECT * FROM NOPE;"])
        assert shell.finished

    def test_list_tables_empty(self):
        __, output = run_shell(["\\d"])
        assert "(no tables)" in output

    def test_list_and_describe(self):
        __, output = run_shell(
            [
                "CREATE TABLE T (A INTEGER, B VARCHAR(4));",
                "CREATE INDEX T_A ON T (A);",
                "\\d",
                "\\d T",
            ]
        )
        assert "table T:" in output
        assert "A INTEGER" in output
        assert "T_A" in output

    def test_describe_unknown(self):
        __, output = run_shell(["\\d NOPE"])
        assert "error:" in output

    def test_unknown_command(self):
        __, output = run_shell(["\\frobnicate"])
        assert "unknown command" in output

    def test_input_file(self, tmp_path):
        script = tmp_path / "setup.sql"
        script.write_text(
            "CREATE TABLE T (A INTEGER);\nINSERT INTO T VALUES (7);\n"
        )
        __, output = run_shell([f"\\i {script}", "SELECT A FROM T;"])
        assert "7" in output

    def test_input_file_missing(self):
        __, output = run_shell(["\\i /no/such/file.sql"])
        assert "error:" in output


class TestMain:
    """``python -m repro`` argument handling: usage, never a traceback."""

    def test_help_prints_usage_and_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: python -m repro")
        for subcommand in ("check", "bench", "stress"):
            assert subcommand in out

    def test_unknown_flag_exits_two_with_usage(self, capsys):
        assert main(["--frobnicate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: python -m repro")
        assert "unrecognized arguments: --frobnicate" in err

    def test_db_without_path_is_a_usage_error(self, capsys):
        assert main(["--db"]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_missing_script_is_a_one_line_error(self, capsys, tmp_path):
        missing = tmp_path / "nope.sql"
        assert main([str(missing)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert "nope.sql" in lines[0] and "No such file" in lines[0]
        assert "Traceback" not in captured.err

    def test_scripts_run_before_the_prompt(self, capsys, tmp_path, monkeypatch):
        script = tmp_path / "setup.sql"
        script.write_text("CREATE TABLE T (A INTEGER);\nINSERT INTO T VALUES (7);\n")
        query = tmp_path / "query.sql"
        query.write_text("SELECT A FROM T;\n")
        monkeypatch.setattr("builtins.input", _eof)
        assert main([str(script), str(query)]) == 0
        out = capsys.readouterr().out
        assert "INSERT: 1 row(s)" in out and "(1 row(s))" in out

    def test_module_entry_point_help(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            timeout=60,
        )
        assert completed.returncode == 0
        assert completed.stdout.startswith("usage:")
        assert completed.stderr == ""


def _eof(prompt: str = "") -> str:
    raise EOFError
