"""Tests for the SPICE ERC rule pack and the analysis pre-flight."""

from functools import partial

import pytest

from repro.cells.nvlatch_1bit import build_standard_latch
from repro.cells.nvlatch_1bit_mirrored import build_mirrored_latch
from repro.cells.nvlatch_2bit import build_proposed_latch
from repro.errors import AnalysisError, NetlistError, suggest_names
from repro.lint import assert_lint_clean, lint_circuit, preflight
from repro.lint.diagnostics import Severity
from repro.lint.registry import KINDS, all_rules, rule, rule_ids, run_rules
from repro.spice.analysis.dc import solve_dc
from repro.spice.analysis.transient import run_transient
from repro.spice.netlist import GROUND, Circuit
from repro.spice.waveforms import Pulse
from tests.lint_corpus import CORPUS, SPICE_CORPUS, broken_two_bit_cell


class TestCorpus:
    @pytest.mark.parametrize("entry", SPICE_CORPUS, ids=lambda e: e.name)
    def test_entry_fires_expected_rules(self, entry):
        report = entry.lint()
        assert entry.expected_rules <= set(report.rule_ids()), (
            f"{entry.name} fired {sorted(report.rule_ids())}"
        )

    def test_corpus_covers_at_least_eight_distinct_rules(self):
        fired = set()
        for entry in SPICE_CORPUS:
            fired |= set(entry.lint().rule_ids())
        assert len(fired) >= 8

    def test_self_test_passes(self):
        """The corpus of all four packs: every entry fires its expected
        rules, and every registered rule of each kind fires on some
        entry of that kind."""
        import repro.devlint  # noqa: F401  (registers the dev pack)

        fired = {kind: set() for kind in KINDS}
        for entry in CORPUS:
            got = set(entry.lint().rule_ids())
            assert entry.expected_rules <= got, (entry.name, sorted(got))
            fired[entry.kind] |= got
        for kind in KINDS:
            never_fired = set(rule_ids(kind)) - fired[kind]
            assert not never_fired, (kind, sorted(never_fired))

    def test_registry_knows_every_fired_rule(self):
        """Each expected rule is a registered rule of its entry's kind,
        so a misspelled expectation cannot pass unchecked."""
        import repro.devlint  # noqa: F401  (registers the dev pack)

        for entry in CORPUS:
            assert entry.expected_rules <= set(rule_ids(entry.kind)), (
                entry.name)


class TestShippedCellsClean:
    """Zero false positives (error/warn) on every shipped cell, on every
    NV backend of the builders that take one.  The builders run no lint
    of their own: the analyses' pre-flight is the ERC gate."""

    @pytest.mark.parametrize("build", [
        partial(build_standard_latch, backend="mtj"),
        build_mirrored_latch,
        partial(build_proposed_latch, backend="mtj"),
        partial(build_standard_latch, backend="nandspin"),
        partial(build_proposed_latch, backend="nandspin"),
    ], ids=["std1b", "mir1b", "prop2b", "std1b-nandspin", "prop2b-nandspin"])
    def test_cell_clean_at_warn_level(self, build):
        report = lint_circuit(build().circuit)
        noisy = report.at_least(Severity.WARN)
        assert not noisy, "\n".join(d.one_line() for d in noisy)

    def test_parasitic_cap_self_loops_are_info_only(self):
        report = lint_circuit(build_standard_latch().circuit)
        loops = [d for d in report.diagnostics if d.rule == "spice.self-loop"]
        assert loops, "expected degenerate junction-cap self-loops"
        assert all(d.severity is Severity.INFO for d in loops)


class TestStorePathIsolation:
    def test_broken_two_bit_cell_flagged(self):
        report = lint_circuit(broken_two_bit_cell())
        shared = [d for d in report.diagnostics
                  if d.rule == "spice.store-path-shared"]
        assert shared and all(d.severity is Severity.ERROR for d in shared)

    def test_shipped_two_bit_cell_paths_disjoint(self):
        report = lint_circuit(build_proposed_latch().circuit)
        assert not any(d.rule == "spice.store-path-shared"
                       for d in report.diagnostics)


def _floating_circuit() -> Circuit:
    c = Circuit("floating")
    c.add_vsource("v", "vdd", GROUND, 1.0)
    c.add_resistor("r", "vdd", GROUND, 1e3)
    c.add_resistor("r_island", "x", "y", 1e3)  # no path to anything
    return c


class TestPreflight:
    def test_transient_reports_erc_not_convergence(self):
        """The acceptance case: a floating node surfaces as a named ERC
        diagnostic, not a downstream Newton non-convergence."""
        with pytest.raises(NetlistError) as excinfo:
            run_transient(_floating_circuit(), 1e-10, 1e-12)
        assert "spice.floating-node" in str(excinfo.value)
        assert any(d.rule == "spice.floating-node"
                   for d in excinfo.value.diagnostics)

    def test_solve_dc_preflights_too(self):
        with pytest.raises(NetlistError) as excinfo:
            solve_dc(_floating_circuit())
        assert excinfo.value.diagnostics

    def test_off_mode_skips(self):
        preflight(_floating_circuit(), "off")  # must not raise

    def test_unknown_mode_rejected(self):
        for mode in ("strict", "warn"):
            with pytest.raises(AnalysisError):
                preflight(_floating_circuit(), mode)

    def test_series_cap_divider_is_transient_legal(self):
        """A DC-floating but capacitively grounded node warns, not errors,
        so pure transient runs keep working."""
        c = Circuit("divider")
        c.add_vsource("v", "a", GROUND,
                      Pulse(0.0, 1.0, delay=10e-12, rise=1e-12, width=1.0))
        c.add_resistor("r", "a", "top", 1e3)
        c.add_capacitor("c1", "top", "mid", 1e-15)
        c.add_capacitor("c2", "mid", GROUND, 1e-15)
        report = lint_circuit(c)
        assert not report.has_errors
        assert any(d.rule == "spice.dc-floating" for d in report.diagnostics)
        result = run_transient(c, 1e-10, 1e-12)  # default lint="error"
        assert result.final_voltage("mid") == pytest.approx(0.5, abs=0.05)

    def test_assert_lint_clean_attaches_diagnostics(self):
        with pytest.raises(NetlistError) as excinfo:
            assert_lint_clean(_floating_circuit())
        assert excinfo.value.diagnostics
        assert_lint_clean(build_standard_latch().circuit)  # clean passes


class TestDiagnosticsPlumbing:
    def test_report_renders_text_and_json(self):
        report = lint_circuit(_floating_circuit())
        text = report.render_text()
        assert "spice.floating-node" in text
        obj = report.as_json_obj()
        assert obj["errors"] >= 1
        assert {"rule", "severity", "location", "message"} <= set(
            obj["diagnostics"][0])

    def test_every_rule_has_description_and_kind(self):
        for lint_rule in all_rules():
            assert lint_rule.description
            assert lint_rule.kind in KINDS
            assert lint_rule.rule_id.startswith(lint_rule.kind + ".")

    def test_rule_id_must_start_with_its_kind(self):
        before = all_rules()
        with pytest.raises(AnalysisError, match="must start with"):
            rule("gates.misfiled", "spice", Severity.ERROR, "misfiled")
        assert all_rules() == before

    def test_run_rules_rejects_an_unknown_kind(self):
        # A misspelled kind would otherwise run no rule and read clean.
        with pytest.raises(AnalysisError, match="unknown rule kind 'spcie'"):
            run_rules("spcie", _floating_circuit(), "x")

    def test_severity_parse_and_order(self):
        assert Severity.parse("warn") is Severity.WARN
        assert Severity.INFO < Severity.WARN < Severity.ERROR
        with pytest.raises(ValueError):
            Severity.parse("fatal")


class TestNameSuggestions:
    def test_suggest_names_close_match(self):
        hint = suggest_names("vddd", ["vdd", "out", "outb"])
        assert "vdd" in hint and "did you mean" in hint

    def test_suggest_names_no_match(self):
        assert suggest_names("zzz9", ["vdd", "out"]) == ""

    def test_circuit_node_suggests(self):
        latch = build_standard_latch()
        latch.circuit.finalize()
        with pytest.raises(NetlistError, match="did you mean.*'out'"):
            latch.circuit.node("ot")

    def test_circuit_device_suggests(self):
        latch = build_standard_latch()
        with pytest.raises(NetlistError, match="did you mean.*'mtj1'"):
            latch.circuit.device("mtj11")

    def test_transient_voltage_suggests(self):
        c = Circuit("rc")
        c.add_vsource("v", "in", GROUND, 1.0)
        c.add_resistor("r", "in", "out", 1e3)
        c.add_capacitor("cl", "out", GROUND, 1e-15)
        result = run_transient(c, 1e-11, 1e-12)
        with pytest.raises(AnalysisError, match="did you mean.*'out'"):
            result.voltage("outt")
