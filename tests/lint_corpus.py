"""Crafted bad-design corpus of every lint rule kind.

Each entry builds a deliberately broken subject of one rule kind (a
circuit, a gate netlist, a fault plan, or a ``tests/devlint_corpus``
source fixture) and names the rule ids it must trigger.  The tests check
that every entry fires its expected rules, that each expected rule is
registered for the entry's kind, that the entries of each kind cover all
of its rules, and that the shipped cell builders stay clean.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, FrozenSet, Tuple

from repro.cells.library import CellLibrary, CellType, build_default_library
from repro.lint.diagnostics import LintReport
from repro.lint.registry import run_rules
from repro.physd.netlist import GateNetlist
from repro.spice.netlist import GROUND, Circuit
from repro.spice.devices.mosfet import NMOS_40LP, PMOS_40LP


@dataclass(frozen=True)
class CorpusEntry:
    """One deliberately broken design and the rules it must trip."""

    name: str
    kind: str  # one of repro.lint.registry.KINDS
    build: Callable
    expected_rules: FrozenSet[str]

    def lint(self) -> LintReport:
        return run_rules(self.kind, self.build(), self.name)


# -- SPICE entries ----------------------------------------------------------


def _floating_node() -> Circuit:
    c = Circuit("bad-floating")
    c.add_vsource("v", "vdd", GROUND, 1.0)
    c.add_resistor("r", "vdd", "a", 1e3)
    # A resistor island with no connection to the rest of the circuit:
    # singular in every analysis, capacitor stamps or not.
    c.add_resistor("r_island", "island1", "island2", 1e3)
    return c


def _dc_floating() -> Circuit:
    c = Circuit("bad-dc-floating")
    c.add_vsource("v", "vdd", GROUND, 1.0)
    c.add_resistor("r", "vdd", "a", 1e3)
    c.add_capacitor("c", "a", "island", 1e-15)  # capacitive path only
    return c


def _no_ground() -> Circuit:
    c = Circuit("bad-no-ground")
    c.add_vsource("v", "a", "b", 1.0)
    c.add_resistor("r", "a", "b", 1e3)
    return c


def _undriven_gate() -> Circuit:
    c = Circuit("bad-undriven-gate")
    c.add_vsource("v", "vdd", GROUND, 1.1)
    c.add_nmos("mn", "vdd", "float_gate", GROUND, NMOS_40LP)
    return c


def _bad_bulk() -> Circuit:
    c = Circuit("bad-bulk")
    c.add_vsource("v", "vdd", GROUND, 1.1)
    c.add_resistor("rl", "vdd", "out", 10e3)
    c.add_mosfet("mn", "out", "vdd", GROUND, "vdd", NMOS_40LP)  # bulk at VDD
    c.add_mosfet("mp", "out", "vdd", "vdd", GROUND, PMOS_40LP)  # n-well at GND
    return c


def _supply_loop() -> Circuit:
    c = Circuit("bad-supply-loop")
    c.add_vsource("v1", "a", GROUND, 1.0)
    c.add_vsource("v2", "a", GROUND, 1.2)  # parallel with v1 — loop
    c.add_vsource("v3", "b", "b", 0.5)     # shorted onto one node
    c.add_resistor("r", "a", "b", 1e3)
    return c


def _bad_passive() -> Circuit:
    c = Circuit("bad-passive")
    c.add_vsource("v", "a", GROUND, 1.0)
    r = c.add_resistor("r", "a", GROUND, 1e3)
    r.resistance = -5.0  # mutated behind the constructor's back
    cap = c.add_capacitor("c", "a", GROUND, 1e-15)
    cap.capacitance = 0.0
    return c


def _self_loop() -> Circuit:
    c = Circuit("bad-self-loop")
    c.add_vsource("v", "a", GROUND, 1.0)
    c.add_resistor("rload", "a", GROUND, 1e3)
    c.add_resistor("rloop", "a", "a", 1e3)
    return c


def broken_two_bit_cell() -> Circuit:
    """A mis-wired 2-bit NV cell skeleton: both MTJ pairs exist, but an
    NMOS bridges the write rails of bit 0 and bit 1, so the two store
    paths share a device — the exact violation of the paper's per-bit
    write-path-separation invariant that ``spice.store-path-shared``
    exists to catch (used by the README lint demo)."""
    c = Circuit("bad2b")
    c.add_vsource("vdd", "vdd", GROUND, 1.1)
    c.add_vsource("src_en", "en", GROUND, 0.0)
    # Lower pair (bit D0) between write rails w1/w2 over center lc.
    c.add_mtj("mtj3", "w1", "lc", dynamic=False)
    c.add_mtj("mtj4", "w2", "lc", dynamic=False)
    c.add_nmos("n3", "lc", "en", GROUND, NMOS_40LP)
    # Upper pair (bit D1) between write rails w3/w4 over center uc.
    c.add_mtj("mtj1", "w3", "uc", dynamic=False)
    c.add_mtj("mtj2", "w4", "uc", dynamic=False)
    c.add_pmos("p3", "uc", "en", "vdd", "vdd", PMOS_40LP)
    # Write rails nominally driven from the rails...
    for rail in ("w1", "w2", "w3", "w4"):
        c.add_resistor(f"rdrv_{rail}", rail, "vdd", 5e3)
    # ...but a stray bridge device couples the two bits' store paths.
    c.add_nmos("bridge", "w2", "en", "w3", NMOS_40LP)
    return c


SPICE_CORPUS: Tuple[CorpusEntry, ...] = (
    CorpusEntry("floating-node", "spice", _floating_node,
                frozenset({"spice.floating-node"})),
    CorpusEntry("dc-floating", "spice", _dc_floating,
                frozenset({"spice.dc-floating"})),
    CorpusEntry("no-ground", "spice", _no_ground,
                frozenset({"spice.no-ground"})),
    CorpusEntry("undriven-gate", "spice", _undriven_gate,
                frozenset({"spice.undriven-gate"})),
    CorpusEntry("bad-bulk", "spice", _bad_bulk,
                frozenset({"spice.bulk-orientation"})),
    CorpusEntry("supply-loop", "spice", _supply_loop,
                frozenset({"spice.supply-loop"})),
    CorpusEntry("bad-passive", "spice", _bad_passive,
                frozenset({"spice.nonpositive-passive"})),
    CorpusEntry("self-loop", "spice", _self_loop,
                frozenset({"spice.self-loop"})),
    CorpusEntry("shared-store-path", "spice", broken_two_bit_cell,
                frozenset({"spice.store-path-shared"})),
)


# -- gate-netlist entries ---------------------------------------------------


def _lib() -> CellLibrary:
    return build_default_library()


def _undriven_data_net() -> GateNetlist:
    nl = GateNetlist("bad-undriven-net", _lib())
    nl.add_net("y", is_port=True)
    nl.add_instance("g0", "INV_X1", ["phantom", "y"])  # 'phantom' undriven
    return nl


def _multi_driven_net() -> GateNetlist:
    nl = GateNetlist("bad-multi-driven", _lib())
    nl.add_net("a", is_port=True)
    nl.add_net("y", is_port=True)
    nl.add_instance("g0", "INV_X1", ["a", "y"])
    nl.add_instance("g1", "BUF_X1", ["a", "y"])  # second driver on y
    return nl


def _dangling_port() -> GateNetlist:
    nl = GateNetlist("bad-dangling-port", _lib())
    nl.add_net("a", is_port=True)
    nl.add_net("y", is_port=True)
    nl.add_net("unused_pi", is_port=True)  # no instance touches it
    nl.add_instance("g0", "INV_X1", ["a", "y"])
    return nl


def _comb_loop() -> GateNetlist:
    nl = GateNetlist("bad-comb-loop", _lib())
    nl.add_instance("u1", "INV_X1", ["a", "b"])
    nl.add_instance("u2", "INV_X1", ["b", "a"])  # closes the cycle
    return nl


def _unknown_cell() -> GateNetlist:
    cells = [CellType("MYSTERY_X1", 1e-6, 1e-6, 2)]
    nl = GateNetlist("bad-unknown-cell", CellLibrary(cells))
    nl.add_net("a", is_port=True)
    nl.add_net("y", is_port=True)
    nl.add_instance("g0", "MYSTERY_X1", ["a", "y"])
    return nl


def _unreachable() -> GateNetlist:
    nl = GateNetlist("bad-unreachable", _lib())
    nl.add_net("a", is_port=True)
    nl.add_net("o", is_port=True)
    nl.add_instance("live", "INV_X1", ["a", "o"])
    nl.add_instance("dead1", "INV_X1", ["a", "t1"])
    nl.add_instance("dead2", "INV_X1", ["t1", "t2"])  # cone ends nowhere
    return nl


def _missing_instance() -> GateNetlist:
    nl = GateNetlist("bad-missing-instance", _lib())
    nl.add_net("a", is_port=True)
    nl.add_net("y", is_port=True)
    nl.add_instance("g0", "INV_X1", ["a", "y"])
    nl.nets["a"].instances.append("ghost")  # stale reference
    return nl


def _empty() -> GateNetlist:
    return GateNetlist("bad-empty", _lib())


GATE_CORPUS: Tuple[CorpusEntry, ...] = (
    CorpusEntry("undriven-net", "gates", _undriven_data_net,
                frozenset({"gates.undriven-net"})),
    CorpusEntry("multi-driven-net", "gates", _multi_driven_net,
                frozenset({"gates.multi-driven-net"})),
    CorpusEntry("dangling-port", "gates", _dangling_port,
                frozenset({"gates.dangling-port"})),
    CorpusEntry("comb-loop", "gates", _comb_loop,
                frozenset({"gates.comb-loop"})),
    CorpusEntry("unknown-cell", "gates", _unknown_cell,
                frozenset({"gates.unknown-cell"})),
    CorpusEntry("unreachable-instance", "gates", _unreachable,
                frozenset({"gates.unreachable-instance"})),
    CorpusEntry("missing-instance", "gates", _missing_instance,
                frozenset({"gates.missing-instance"})),
    CorpusEntry("empty-netlist", "gates", _empty,
                frozenset({"gates.empty-netlist"})),
)

# -- fault-injection-plan entries -------------------------------------------


def _unreachable_injection():
    """A fault plan aimed at MTJs the circuit does not have: the 2-bit
    lower-pair names (mtj3/mtj4) applied to the 1-bit cell, plus one
    model typo — both silent-no-op hazards ``faults.unreachable-injection``
    exists to catch before a campaign wastes hours on healthy cells."""
    from repro.cells.nvlatch_1bit import build_standard_latch
    from repro.faults.inject import InjectionPlan
    from repro.faults.models import FaultSpec

    latch = build_standard_latch()
    return InjectionPlan(
        circuit=latch.circuit,
        specs=(FaultSpec("mtj.stuck", 1.0, target="mtj3,mtj4"),
               FaultSpec("mos.outlier", 3.0)),  # no target, no default
        name="bad-unreachable-injection",
    )


FAULT_CORPUS: Tuple[CorpusEntry, ...] = (
    CorpusEntry("unreachable-injection", "faults", _unreachable_injection,
                frozenset({"faults.unreachable-injection"})),
)

# -- Python-source entries ---------------------------------------------------


def _load_dev_fixture(filename: str):
    """One ``tests/devlint_corpus`` fixture as a one-file ``Project``."""
    from repro.devlint.model import load_project

    corpus_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "devlint_corpus")
    return load_project([os.path.join(corpus_dir, filename)],
                        root=corpus_dir)


def _dev_entry(filename: str, *expected: str) -> CorpusEntry:
    return CorpusEntry(filename, "dev", partial(_load_dev_fixture, filename),
                       frozenset(expected))


DEV_CORPUS: Tuple[CorpusEntry, ...] = (
    _dev_entry("bad_bare_retry.py", "dev.bare-convergence-retry"),
    _dev_entry("bad_config_constant.py", "dev.config-constant-unfingerprinted"),
    _dev_entry("bad_digest_sort.py", "dev.unsorted-digest-iteration"),
    _dev_entry("bad_error_class.py", "dev.error-super-init"),
    _dev_entry("bad_fingerprint_fields.py", "dev.fingerprint-missing-field"),
    _dev_entry("bad_serializable.py", "dev.serializable-incomplete",
               "dev.schema-version-unbumped"),
    _dev_entry("bad_span.py", "dev.span-without-with"),
    _dev_entry("bad_unpicklable.py", "dev.unpicklable-task"),
    _dev_entry("bad_unseeded_rng.py", "dev.unseeded-rng"),
    _dev_entry("bad_wallclock.py", "dev.wallclock-dependence"),
)

CORPUS: Tuple[CorpusEntry, ...] = (SPICE_CORPUS + GATE_CORPUS + FAULT_CORPUS
                                   + DEV_CORPUS)

