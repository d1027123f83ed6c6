"""CLI surface of the dev rules: ``repro devlint`` exit codes, output
modes and manifest, and the dev rows of ``repro lint --list-rules``."""

import json
import os
import shutil
import textwrap

import pytest

from repro.cli import main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_REPRO = os.path.join(REPO, "src", "repro")


class TestDevlintCommand:
    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "dev.unseeded-rng" in out
        assert "dev.fingerprint-missing-field" in out

    @pytest.mark.parametrize("argv", [
        ["devlint", "--self-test"],
        ["devlint", "--list-rules"],
        ["lint", "--self-test"],
        ["recovery", "smoke"],
    ], ids=["--self-test", "--list-rules", "lint-self-test",
            "recovery-smoke"])
    def test_registry_flags_are_not_devlint_options(self, argv, capsys):
        """Removed flags and subcommands exit 2.  ``--list-rules`` lives
        on ``repro lint``; the corpus checks ``--self-test`` and
        ``recovery smoke`` ran are tier-1 tests."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "invalid choice" in err

    def test_clean_tree_exits_zero(self, capsys):
        assert main(["devlint", SRC_REPRO]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_violation_exits_one_and_names_the_rule(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(textwrap.dedent("""
            import numpy as np

            def noise(n):
                return np.random.normal(size=n)
            """))
        assert main(["devlint", str(bad)]) == 1
        assert "dev.unseeded-rng" in capsys.readouterr().out

    def test_json_output_shape(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        assert main(["devlint", "--json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 1
        report = payload[0]
        assert report["errors"] >= 1
        rules = {d["rule"] for d in report["diagnostics"]}
        assert "dev.unseeded-rng" in rules

    def test_update_schema_manifest_is_idempotent(self, tmp_path,
                                                  monkeypatch, capsys):
        from repro.devlint import rules_serialization

        committed = os.path.join(SRC_REPRO, "devlint", "schema_manifest.json")
        before = open(committed).read()
        copy = tmp_path / "schema_manifest.json"
        shutil.copyfile(committed, copy)
        monkeypatch.setattr(rules_serialization, "_manifest_path",
                            lambda: str(copy))
        monkeypatch.chdir(REPO)
        assert main(["devlint", "--update-schema-manifest"]) == 0
        assert copy.read_text() == before
        assert open(committed).read() == before
        assert "schema manifest updated" in capsys.readouterr().out
