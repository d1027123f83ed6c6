"""Devlint analyzer: rule behaviour, marker semantics, report round-trips.

The ``dev`` entries of the lint corpus (``tests/lint_corpus.py`` over the
``tests/devlint_corpus`` fixtures) guard false negatives; the whole-tree
test guards false positives; the synthetic-project tests
pin the marker semantics and the cache-key-completeness contract —
including the headline scenario: deleting a fingerprint field from a
copy of the real ``cache/keys.py`` must be caught, with the field named.
"""

import os
import shutil
import textwrap

import pytest

from repro.devlint import (
    LintReport,
    Severity,
    lint_paths,
)
from repro.devlint.model import load_project
from repro.devlint.rules_cachekey import fingerprint_bindings
from repro.devlint.rules_serialization import compute_manifest
from repro.errors import AnalysisError
from repro.lint.registry import rule_ids
from tests.lint_corpus import DEV_CORPUS

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "repro")


def lint_source(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return lint_paths([str(path)], target=name, root=str(tmp_path))


class TestRegistry:
    def test_eleven_rules_registered_with_dev_prefix(self):
        ids = rule_ids("dev")
        assert len(ids) == 11
        assert all(rule_id.startswith("dev.") for rule_id in ids)


class TestSelfTest:
    def test_corpus_self_test_passes(self):
        for entry in DEV_CORPUS:
            fired = set(entry.lint().rule_ids())
            assert entry.expected_rules <= fired, (
                f"{entry.name} fired {sorted(fired)}")

    def test_corpus_covers_every_rule(self):
        expected = set()
        for entry in DEV_CORPUS:
            expected |= entry.expected_rules
        assert expected == set(rule_ids("dev"))

    def test_unparseable_file_raises_naming_the_line(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n    return 1\n")
        with pytest.raises(AnalysisError, match="broken.py: line 1"):
            lint_paths([str(tmp_path)], root=str(tmp_path))


class TestDeterminismRules:
    def test_seeded_rng_is_clean(self, tmp_path):
        report = lint_source(tmp_path, """
            import numpy as np

            def noise(seed, n):
                return np.random.default_rng(seed).normal(size=n)
            """)
        assert "dev.unseeded-rng" not in report.rule_ids()

    def test_unseeded_rng_fires_through_alias(self, tmp_path):
        report = lint_source(tmp_path, """
            import numpy.random as nprand

            def noise(n):
                return nprand.normal(size=n)
            """)
        assert "dev.unseeded-rng" in report.rule_ids()

    def test_wallclock_ignored_off_the_keyed_path(self, tmp_path):
        report = lint_source(tmp_path, """
            import time

            def stamp():
                return time.time()
            """)
        assert "dev.wallclock-dependence" not in report.rule_ids()

    def test_sorted_iteration_is_clean(self, tmp_path):
        report = lint_source(tmp_path, """
            from repro.serialize import stable_digest

            def key(config):
                return stable_digest(
                    {"pairs": [[k, v] for k, v in sorted(config.items())]})
            """)
        assert "dev.unsorted-digest-iteration" not in report.rule_ids()

    def test_unsorted_items_in_digest_caller_fires(self, tmp_path):
        report = lint_source(tmp_path, """
            from repro.serialize import stable_digest

            def key(config):
                return stable_digest(
                    {"pairs": [[k, v] for k, v in config.items()]})
            """)
        assert "dev.unsorted-digest-iteration" in report.rule_ids()


class TestCacheKeyRules:
    def test_real_tree_bindings_present(self):
        project = load_project([SRC], root=REPO)
        bound = {cls for _rel, cls, _fields in fingerprint_bindings(project)}
        assert {"MOSFETModel", "MTJParameters"} <= bound

    def test_removing_a_fingerprint_field_is_caught(self, tmp_path):
        """Strip 'temperature' from a copy of the real keys.py tuple:
        the completeness rule must fail naming exactly that field."""
        keys_src = open(os.path.join(SRC, "cache", "keys.py")).read()
        assert '"temperature",' in keys_src
        broken = keys_src.replace('"temperature",', "")
        assert broken != keys_src
        cache_dir = tmp_path / "repro" / "cache"
        cache_dir.mkdir(parents=True)
        (cache_dir / "keys.py").write_text(broken)
        shutil.copy(os.path.join(SRC, "spice", "devices", "mosfet.py"),
                    tmp_path / "mosfet.py")

        report = lint_paths([str(tmp_path)], root=str(tmp_path))
        hits = [d for d in report.diagnostics
                if d.rule == "dev.fingerprint-missing-field"
                and d.severity >= Severity.ERROR]
        assert any("temperature" in d.message for d in hits), \
            report.render_text()

    def test_marker_for_unknown_class_warns_not_errors(self, tmp_path):
        report = lint_source(tmp_path, """
            _FIELDS = ("a",)  # devlint: fingerprint-fields NoSuchClass
            """)
        hits = [d for d in report.diagnostics
                if d.rule == "dev.fingerprint-missing-field"]
        assert hits and all(d.severity == Severity.WARN for d in hits)

    def test_not_keyed_marker_exempts_constant(self, tmp_path):
        report = lint_source(tmp_path, """
            TOL = 1e-9
            LABEL = "x"  # devlint: not-keyed

            def my_config_fingerprint():
                return {"tol": TOL}
            """)
        assert "dev.config-constant-unfingerprinted" not in report.rule_ids()

    def test_real_sparse_module_constants_all_fingerprinted(self):
        path = os.path.join(SRC, "spice", "analysis", "sparse.py")
        report = lint_paths([path], root=REPO)
        assert "dev.config-constant-unfingerprinted" not in report.rule_ids()


class TestSerializationRules:
    def test_manifest_matches_the_tree(self):
        """The committed schema manifest must be regenerable bit-for-bit
        (CI enforces this with --update-schema-manifest + git diff)."""
        from repro.devlint.rules_serialization import load_manifest

        project = load_project([SRC], root=REPO)
        assert compute_manifest(project) == load_manifest()

    def test_payload_drift_without_bump_fires(self, tmp_path):
        report = lint_source(tmp_path, """
            from repro.serialize import Serializable

            class Fake(Serializable):
                SCHEMA_NAME = "LintReport"
                SCHEMA_VERSION = 2

                def payload(self):
                    return {"target": 1, "diagnostics": [], "extra": 2}

                @classmethod
                def from_payload(cls, data):
                    return cls()
            """)
        hits = [d for d in report.diagnostics
                if d.rule == "dev.schema-version-unbumped"]
        assert hits and "bump SCHEMA_VERSION" in hits[0].hint

    def test_payload_drift_with_bump_asks_for_refresh(self, tmp_path):
        report = lint_source(tmp_path, """
            from repro.serialize import Serializable

            class Fake(Serializable):
                SCHEMA_NAME = "LintReport"
                SCHEMA_VERSION = 3

                def payload(self):
                    return {"target": 1, "diagnostics": [], "extra": 2}

                @classmethod
                def from_payload(cls, data):
                    return cls()
            """)
        hits = [d for d in report.diagnostics
                if d.rule == "dev.schema-version-unbumped"]
        assert hits and "stale" in hits[0].message

    def test_module_level_task_function_is_clean(self, tmp_path):
        report = lint_source(tmp_path, """
            from repro.parallel import parallel_map

            def work(item):
                return item

            def run(items):
                return parallel_map(work, items, processes=2)
            """)
        assert "dev.unpicklable-task" not in report.rule_ids()

    def test_lambda_build_for_monte_carlo_ensemble_fires(self, tmp_path):
        report = lint_source(tmp_path, """
            from repro.mtj.variation import monte_carlo_ensemble

            def study(params, extract):
                return monte_carlo_ensemble(lambda p: p, extract, params,
                                            stop_time=1e-9, dt=1e-12)
            """)
        hits = [d for d in report.diagnostics
                if d.rule == "dev.unpicklable-task"]
        assert hits and "monte_carlo_ensemble()" in hits[0].message

    def test_every_shipped_argument_is_audited(self):
        """A shipped callable past the first argument, or passed by
        keyword, fires too: ``extract`` of ``monte_carlo_ensemble`` and
        ``fn=`` of ``parallel_map`` in the corpus fixture."""
        [entry] = [e for e in DEV_CORPUS if e.name == "bad_unpicklable.py"]
        messages = {d.location.rsplit(":", 1)[1]: d.message
                    for d in entry.lint().diagnostics}
        assert sorted(messages) == ["L15", "L16", "L26", "L28"]
        assert "monte_carlo_ensemble()" in messages["L26"]
        assert "parallel_map()" in messages["L28"]


class TestObsRules:
    def test_assign_then_with_is_clean(self, tmp_path):
        report = lint_source(tmp_path, """
            from repro.obs import span

            def solve(system):
                outer = span("solve")
                stats = object()
                with outer:
                    return system.solve(stats)
            """)
        assert "dev.span-without-with" not in report.rule_ids()

    def test_error_subclass_with_super_is_clean(self, tmp_path):
        report = lint_source(tmp_path, """
            from repro.errors import ReproError

            class MyError(ReproError):
                def __init__(self, message, extra):
                    super().__init__(message)
                    self.extra = extra
            """)
        assert "dev.error-super-init" not in report.rule_ids()


class TestRecoveryRules:
    def test_retry_through_a_local_helper_fires(self, tmp_path):
        report = lint_source(tmp_path, """
            from repro.errors import ConvergenceError
            from repro.spice.analysis.transient import run_transient

            def rerun_alone(circuit):
                return run_transient(circuit, 1e-9, 1e-12, engine="fast")

            def run(circuit, solver):
                try:
                    return solver.solve()
                except ConvergenceError:
                    return rerun_alone(circuit)
            """)
        [diagnostic] = [d for d in report.diagnostics
                        if d.rule == "dev.bare-convergence-retry"]
        assert "rerun_alone(), which calls run_transient()" in (
            diagnostic.message)

    def test_helper_without_a_solver_call_is_clean(self, tmp_path):
        report = lint_source(tmp_path, """
            from repro.errors import ConvergenceError

            def describe(exc):
                return f"failed: {exc}"

            def run(solver):
                try:
                    return solver.solve()
                except ConvergenceError as exc:
                    raise RuntimeError(describe(exc)) from exc
            """)
        assert "dev.bare-convergence-retry" not in report.rule_ids()


class TestReportRoundTrip:
    def test_json_round_trip_preserves_diagnostics(self, tmp_path):
        report = lint_source(tmp_path, """
            import numpy as np

            def noise(n):
                return np.random.normal(size=n)
            """)
        assert report.diagnostics
        restored = LintReport.from_json(report.to_json())
        assert restored.diagnostics == report.diagnostics
        assert report.as_json_obj()["errors"] == len(report.errors)


class TestWholeTree:
    def test_src_repro_is_devlint_clean(self):
        report = lint_paths([SRC], root=REPO)
        assert not report.has_errors, report.render_text()

    def test_corpus_excluded_when_run_from_inside_devlint(self, monkeypatch):
        monkeypatch.chdir(os.path.join(SRC, "devlint"))
        rels = [module.rel for module in load_project(["."])]
        assert "model.py" in rels
        assert not [rel for rel in rels if rel.startswith("corpus/")]
