"""Tests for the gate-netlist lint pack and GateNetlist.validate."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro

from repro.cells.library import build_default_library
from repro.errors import NetlistError
from repro.lint import assert_lint_clean, lint_gate_netlist
from repro.lint.diagnostics import Severity
from repro.lint.gate_rules import pin_roles
from repro.physd.benchmarks import BENCHMARKS, generate_benchmark
from repro.physd.netlist import GateNetlist
from tests.lint_corpus import GATE_CORPUS


@pytest.fixture(scope="module")
def library():
    return build_default_library()


class TestCorpus:
    @pytest.mark.parametrize("entry", GATE_CORPUS, ids=lambda e: e.name)
    def test_entry_fires_expected_rules(self, entry):
        report = entry.lint()
        assert entry.expected_rules <= set(report.rule_ids()), (
            f"{entry.name} fired {sorted(report.rule_ids())}"
        )


class TestBenchmarksClean:
    """The generated benchmark netlists must produce zero error/warn
    findings — undriven enable nets, unused primary inputs and dead
    logic cones are all legal there and classified info."""

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_benchmark_clean_at_warn_level(self, name):
        report = lint_gate_netlist(generate_benchmark(name))
        noisy = report.at_least(Severity.WARN)
        assert not noisy, "\n".join(d.one_line() for d in noisy)


class TestPinRoles:
    def test_combinational_drives_last_net(self, library):
        nl = GateNetlist("t", library)
        inst = nl.add_instance("g0", "NAND2_X1", ["a", "b", "y"])
        driven, data, control = pin_roles(inst)
        assert driven == ["y"]
        assert data == ["a", "b"]
        assert control == []

    def test_dff_control_pins_not_data(self, library):
        nl = GateNetlist("t", library)
        inst = nl.add_instance("ff0", "DFF_X1", ["d", "clk", "q"])
        driven, data, control = pin_roles(inst)
        assert driven == ["q"]
        assert data == ["d"]
        assert "clk" in control

    def test_undriven_clock_net_is_not_an_error(self, library):
        """Control nets read only by sequential pins (the benchmark
        'reg_en' pattern) must not fire gates.undriven-net."""
        nl = GateNetlist("t", library)
        nl.add_net("d", is_port=True)
        nl.add_net("q", is_port=True)
        nl.add_instance("ff0", "DFF_X1", ["d", "clk", "q"])
        report = lint_gate_netlist(nl)
        assert not any(d.rule == "gates.undriven-net"
                       for d in report.at_least(Severity.ERROR))


class TestValidateCollectsAll:
    def test_all_broken_nets_in_one_message(self, library):
        nl = GateNetlist("t", library)
        nl.add_instance("g0", "INV_X1", ["a", "y"])
        nl.nets["a"].instances.append("ghost1")
        nl.nets["y"].instances.append("ghost2")
        with pytest.raises(NetlistError) as excinfo:
            nl.validate()
        message = str(excinfo.value)
        assert "ghost1" in message and "ghost2" in message
        assert "2 broken net(s)" in message

    def test_validate_lint_hook(self, library):
        nl = GateNetlist("t", library)
        nl.add_instance("u1", "INV_X1", ["a", "b"])
        nl.add_instance("u2", "INV_X1", ["b", "a"])  # combinational loop
        nl.validate()  # structurally fine
        with pytest.raises(NetlistError) as excinfo:
            assert_lint_clean(nl)
        assert any(d.rule == "gates.comb-loop"
                   for d in excinfo.value.diagnostics)

    def test_assert_lint_clean_dispatches_on_netlist(self, library):
        nl = GateNetlist("t", library)
        nl.add_net("a", is_port=True)
        nl.add_net("y", is_port=True)
        nl.add_instance("g0", "INV_X1", ["a", "y"])
        assert_lint_clean(nl)

    def test_instance_lookup_suggests(self, library):
        nl = GateNetlist("t", library)
        nl.add_instance("ff_main", "DFF_X1", ["d", "clk", "q"])
        with pytest.raises(NetlistError, match="did you mean.*'ff_main'"):
            nl.instance("ff_man")


def _probe_output(probe: str) -> str:
    """stdout of ``python -c probe`` in a fresh interpreter."""
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                 if p])
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestImportCost:
    def test_importing_lint_leaves_physd_unloaded(self):
        # The SPICE pre-flight imports repro.lint; the gate pack names
        # GateNetlist only in annotations, so the physical-design package
        # (placement, clock tree, scipy.spatial) must stay unloaded.
        probe = ("import sys, repro.lint; "
                 "print(sorted(m for m in sys.modules "
                 "if m == 'repro.physd' or m.startswith('repro.physd.')))")
        assert _probe_output(probe) == "[]"

    def test_preflighted_transient_leaves_dev_pack_unloaded(self):
        # The dev rules share the registry but register only when
        # repro.devlint is imported, which no simulation does.
        probe = (
            "import sys\n"
            "from repro.cells.nvlatch_1bit import build_standard_latch\n"
            "from repro.spice.analysis.transient import run_transient\n"
            "run_transient(build_standard_latch().circuit, 2e-11, 2e-12)\n"
            "from repro.lint.registry import rule_ids\n"
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.devlint')))\n"
            "print(sorted({r.split('.')[0] for r in rule_ids()}))\n")
        assert _probe_output(probe).splitlines() == [
            "[]", "['faults', 'gates', 'spice']"]
