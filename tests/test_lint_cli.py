"""Tests for the ``repro lint`` CLI subcommand."""

import json


from repro import cli
from repro.lint.registry import rule_ids
from tests.lint_corpus import broken_two_bit_cell


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLintCommand:
    def test_cells_clean_exit_zero(self, capsys):
        code, out, _err = run_cli(capsys, "lint", "cells")
        assert code == 0
        assert "std1b" in out and "prop2b" in out
        assert "0 error(s)" in out

    def test_single_benchmark_target(self, capsys):
        code, out, _err = run_cli(capsys, "lint", "s344")
        assert code == 0
        assert "s344" in out

    def test_json_output_parses(self, capsys):
        code, out, _err = run_cli(capsys, "lint", "--json", "std1b")
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["target"] == "std1b"
        assert reports[0]["errors"] == 0
        for diag in reports[0]["diagnostics"]:
            assert {"rule", "severity", "location", "message"} <= set(diag)

    def test_list_rules(self, capsys):
        code, out, _err = run_cli(capsys, "lint", "--list-rules")
        assert code == 0
        assert "spice.floating-node" in out
        assert "gates.comb-loop" in out
        assert len(out.splitlines()) == len(rule_ids())

    def test_unknown_target_suggests(self, capsys):
        code, _out, err = run_cli(capsys, "lint", "benchmark")
        assert code == 2
        assert "did you mean" in err and "benchmarks" in err

    def test_errors_drive_nonzero_exit(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "_lint_cell_builders",
            lambda: {"bad2b": broken_two_bit_cell})
        code, out, _err = run_cli(capsys, "lint", "bad2b")
        assert code == 1
        assert "spice.store-path-shared" in out

    def test_min_severity_filters_text(self, capsys):
        _code, default_out, _err = run_cli(capsys, "lint", "std1b")
        _code, info_out, _err = run_cli(
            capsys, "lint", "--min-severity", "info", "std1b")
        assert "spice.self-loop" not in default_out
        assert "spice.self-loop" in info_out
