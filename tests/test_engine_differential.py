"""Cross-engine differential harness: fast and sparse vs the naive oracle.

Every circuit here is generated from a seeded random *spec* — a flat
list of section descriptors — then simulated by both engines and by the
full-restamp reference transient (:func:`naive_transient`).  Any pair of
the three disagreeing by more than 1 µV on any node at any timepoint is
a failure; before failing, the harness *shrinks* the spec
(greedily dropping sections while the disagreement reproduces) and
prints the minimal failing netlist, so a regression arrives as a small
reproducible circuit instead of a 30-device haystack.

Spec-level generation is what makes shrinking sound: a spec is data, so
dropping a section and rebuilding yields a well-formed circuit (the
builder re-derives node wiring), which mutating a built ``Circuit``
would not.
"""

import numpy as np
import pytest

from repro.mtj.device import MTJState
from repro.spice import Circuit, Pulse
from repro.spice.analysis import run_transient
from repro.spice.analysis.transient import ENGINES
from tests.test_engine_equivalence import naive_transient

WAVEFORM_TOL = 1e-6  # 1 µV
STOP_TIME = 0.5e-9
DT = 2e-12
#: Number of seeded random circuits (ISSUE floor: >= 25).
NUM_CIRCUITS = 27


# ---------------------------------------------------------------------------
# Spec generation: a circuit is a list of section descriptors
# ---------------------------------------------------------------------------


def random_spec(rng: np.random.Generator):
    """A random mixed-technology circuit spec.

    Sections chain off a pulse-driven input rail; each section is one of
    ``rc`` (series R, shunt C), ``nmos`` (access transistor to a loaded
    node), or ``mtj`` (junction from the section node to ground), so one
    spec can mix every device class the engines must agree on —
    including enough FETs/MTJs to cross both vectorisation thresholds.
    """
    kinds = ("rc", "nmos", "mtj")
    sections = []
    for _ in range(int(rng.integers(3, 9))):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        sections.append({
            "kind": kind,
            "r": float(rng.uniform(1e3, 12e3)),
            "c": float(rng.uniform(0.1e-15, 2e-15)),
            "w": float(rng.uniform(150e-9, 500e-9)),
            "ap": bool(rng.integers(0, 2)),
        })
    return {
        "rise": float(rng.uniform(5e-12, 30e-12)),
        "delay": float(rng.uniform(0.02e-9, 0.15e-9)),
        "sections": sections,
    }


def build_spec(spec) -> Circuit:
    c = Circuit("differential")
    c.add_vsource("vin", "in", "0",
                  Pulse(0.0, 1.1, delay=spec["delay"], rise=spec["rise"],
                        width=5e-9))
    c.add_vsource("ven", "en", "0",
                  Pulse(0.0, 1.1, delay=2 * spec["delay"], rise=20e-12,
                        width=5e-9))
    prev = "in"
    for i, sec in enumerate(spec["sections"]):
        node = f"n{i}"
        if sec["kind"] == "rc":
            c.add_resistor(f"r{i}", prev, node, sec["r"])
            c.add_capacitor(f"c{i}", node, "0", sec["c"])
        elif sec["kind"] == "nmos":
            c.add_nmos(f"m{i}", prev, "en", node, width=sec["w"])
            c.add_resistor(f"rl{i}", node, "0", sec["r"])
            c.add_capacitor(f"cl{i}", node, "0", sec["c"])
        else:  # mtj
            c.add_resistor(f"rs{i}", prev, node, sec["r"])
            c.add_mtj(f"x{i}", node, "0",
                      state=(MTJState.ANTIPARALLEL if sec["ap"]
                             else MTJState.PARALLEL))
        prev = node
    return c


# ---------------------------------------------------------------------------
# Differential oracle + shrinker
# ---------------------------------------------------------------------------


def max_disagreement(spec):
    """Worst pairwise node-voltage deviation across the oracle and the
    engines, or None when any of them fails to simulate the spec."""
    waves = []
    for engine in ("oracle",) + ENGINES:
        try:
            result = (naive_transient(build_spec(spec), STOP_TIME, DT)
                      if engine == "oracle" else
                      run_transient(build_spec(spec), STOP_TIME, DT,
                                    engine=engine, lint="off"))
        except Exception:
            return None
        waves.append(result.node_voltages)
    return max(
        float(np.max(np.abs(waves[i] - waves[j])))
        for i in range(len(waves))
        for j in range(i + 1, len(waves)))


def shrink(spec):
    """Greedy section removal to a locally-minimal failing spec,
    delegating to the shared shrinker in :mod:`repro.recovery.shrink`."""
    from repro.recovery.shrink import greedy_shrink

    def still_fails(sections):
        candidate = dict(spec)
        candidate["sections"] = list(sections)
        # Resolve the oracle through the module namespace at call time
        # so tests can swap in a fake disagreement function.
        diff = globals()["max_disagreement"](candidate)
        return diff is not None and diff > WAVEFORM_TOL

    minimal = dict(spec)
    minimal["sections"] = greedy_shrink(spec["sections"], still_fails)
    return minimal


def format_netlist(spec) -> str:
    circuit = build_spec(spec)
    lines = [f"* {circuit.name}: minimal failing netlist "
             f"(stop={STOP_TIME:g}s dt={DT:g}s)"]
    for device in circuit.devices:
        nodes = " ".join(circuit.node_name(n) for n in device.node_indices())
        lines.append(f"{type(device).__name__:<14} {device.name:<6} {nodes}"
                     f"  {device!r}")
    return "\n".join(lines)


@pytest.mark.parametrize("seed", range(NUM_CIRCUITS))
def test_engines_agree_on_random_circuit(seed):
    spec = random_spec(np.random.default_rng(900 + seed))
    diff = max_disagreement(spec)
    assert diff is not None, "a differential circuit failed to simulate"
    if diff > WAVEFORM_TOL:
        minimal = shrink(spec)
        pytest.fail(
            f"engines disagree by {max_disagreement(minimal):g} V "
            f"(> {WAVEFORM_TOL:g} V) on seed {seed}; minimal "
            f"reproduction:\n{format_netlist(minimal)}")


def test_shrinker_reduces_an_injected_failure():
    # The shrinker itself must work when a disagreement exists: fake the
    # oracle so only specs still containing an 'mtj' section "fail" and
    # check the survivor is a single-section spec.
    spec = random_spec(np.random.default_rng(4))
    spec["sections"] = [
        {"kind": "rc", "r": 1e3, "c": 1e-15, "w": 2e-7, "ap": False},
        {"kind": "mtj", "r": 2e3, "c": 1e-15, "w": 2e-7, "ap": True},
        {"kind": "rc", "r": 3e3, "c": 1e-15, "w": 2e-7, "ap": False},
    ]
    real_oracle = globals()["max_disagreement"]
    try:
        globals()["max_disagreement"] = lambda s: (
            1.0 if any(x["kind"] == "mtj" for x in s["sections"]) else 0.0)
        minimal = shrink(spec)
    finally:
        globals()["max_disagreement"] = real_oracle
    assert [s["kind"] for s in minimal["sections"]] == ["mtj"]


def test_differential_netlists_are_printable():
    spec = random_spec(np.random.default_rng(1))
    listing = format_netlist(spec)
    assert "minimal failing netlist" in listing
    assert all(f"n{i}" in listing
               for i in range(len(spec["sections"])))
