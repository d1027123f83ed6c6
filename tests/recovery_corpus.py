"""Pathological-circuit corpus for the recovery ladder.

Each entry is a small circuit *plus* the run configuration under which
it is pathological, tuned so that:

* with recovery disabled the run hard-fails
  (:class:`~repro.errors.ConvergenceError`) on every engine, and
* with recovery on the ladder rescues it deterministically —
  the same rungs fire the same number of times on fast and sparse,
  and the recovered waveforms agree across the two engines;

except for the entries marked otherwise (``near-singular-divider``
completes healthily but trips condition warnings;
``ladder-exhaustion`` fails *through* the whole ladder, producing a
forensics bundle).

``tests/test_recovery.py`` runs every entry on both engines with
recovery off and on, and the forensics walkthrough in EXPERIMENTS.md
reads the ``ladder-exhaustion`` entry's bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.spice.netlist import Circuit


def _razor_sense() -> Circuit:
    """Razor-edge sense node: a near-floating node (10 GΩ leak, about
    0.5 fF of gate capacitance) is precharged to about −10.8 V by a slow
    current, left floating, then hit by a charge-injection current step.
    At the floor gmin the step asks each 0.1 µs timestep to move the
    node about 2 V, more than the damped Newton (0.4 V an iteration)
    traverses in the entry's four-iteration budget; the floating node's
    history predicts no such move, so the predicted start fails, and the
    retry from the last point too.  At that bias a 1 nS gmin draws
    about the current the step injects, so the gmin rung converges in
    two iterations and holds the node: the natural rescue."""
    from repro.spice.waveforms import Pulse

    c = Circuit("razor-sense")
    c.add_vsource("vdd", "vdd", "0", 1.1)
    c.add_isource("ipre", "0", "sense",
                  Pulse(0.0, 8e-9, delay=0.2e-6, rise=0.2e-6, width=0.6e-6,
                        fall=0.02e-6))
    c.add_isource("iinj", "0", "sense",
                  Pulse(0.0, 1.1e-8, delay=1.3e-6, rise=0.02e-6,
                        width=0.5e-6, fall=0.02e-6))
    c.add_resistor("rleak", "sense", "0", 1e10)
    c.add_nmos("m1", "out", "sense", "0", width=400e-9)
    c.add_resistor("rl", "vdd", "out", 20e3)
    c.add_capacitor("cl", "out", "0", 1e-15)
    return c


def _sharp_edge() -> Circuit:
    """Stiff RC + MOSFET behind a fast input edge: the edge rises in a
    fraction of the timestep, so the step straddling it asks Newton to
    traverse the full swing in one go.  Substepping (the timestep-cut
    rung) splits the swing into tractable pieces; gmin and damping
    cannot."""
    from repro.spice.waveforms import Pulse

    c = Circuit("sharp-edge")
    c.add_vsource("vdd", "vdd", "0", 1.1)
    c.add_vsource("vin", "in", "0",
                  Pulse(0.0, 1.1, delay=20e-12, rise=6e-12, width=5e-9))
    c.add_nmos("m1", "vdd", "in", "out", width=400e-9)
    c.add_resistor("rl", "out", "0", 10e3)
    c.add_capacitor("cl", "out", "0", 1e-15)
    return c


def _near_singular_divider() -> Circuit:
    """MTJ divider with a nano-ohm strap against a tera-ohm tail: nine
    decades of conductance spread push the stamped matrix's 1-norm
    condition estimate past the warn threshold while the run itself
    stays convergent — the health guards must *observe*, not
    intervene."""
    from repro.mtj.device import MTJState
    from repro.spice.waveforms import Pulse

    c = Circuit("near-singular-divider")
    c.add_vsource("vs", "in", "0",
                  Pulse(0.0, 0.8, delay=10e-12, rise=10e-12, width=5e-9))
    c.add_resistor("rtiny", "in", "mid", 1e-9)
    c.add_mtj("x1", "mid", "tail", state=MTJState.PARALLEL)
    c.add_resistor("rbig", "tail", "0", 1e12)
    return c


def _instant_edge() -> Circuit:
    """Like :func:`_sharp_edge` but with an effectively instantaneous
    ESD-scale edge (11 V in 0.1 ps against a 10 ps step): substepping
    cannot reduce the per-step swing, and the swing itself is beyond
    every rung's damped-iteration budget, so the ladder exhausts — the
    corpus's forensics producer."""
    from repro.spice.waveforms import Pulse

    c = Circuit("instant-edge")
    c.add_vsource("vdd", "vdd", "0", 1.1)
    c.add_vsource("vin", "in", "0",
                  Pulse(0.0, 11.0, delay=20e-12, rise=0.1e-12, width=5e-9))
    c.add_nmos("m1", "vdd", "in", "out", width=400e-9)
    c.add_resistor("rl", "out", "0", 10e3)
    c.add_capacitor("cl", "out", "0", 1e-15)
    return c


@dataclass(frozen=True)
class CorpusEntry:
    """One pathological circuit and the configuration that makes it so.

    ``expect_rungs`` names the rungs whose counters must be non-zero
    after a recovered run; ``expect_failure`` marks the entries whose
    *recovered* run still raises (ladder exhaustion).
    """

    name: str
    builder: Callable[[], Circuit]
    stop_time: float
    dt: float
    max_iterations: int
    integrator: str = "be"
    expect_rungs: Tuple[str, ...] = ()
    expect_condition_warnings: bool = False
    expect_failure: bool = False

    def build(self) -> Circuit:
        return self.builder()

    def run_options(self) -> Dict[str, Any]:
        """Keyword arguments for
        :func:`~repro.spice.analysis.transient.run_transient` (minus
        the circuit, the engine and the recovery switch)."""
        return {
            "stop_time": self.stop_time,
            "dt": self.dt,
            "integrator": self.integrator,
            "max_iterations": self.max_iterations,
            "lint": "off",
        }

    def run(self, engine: str = "fast", recovery: bool = True):
        """Run the entry under ``engine``; returns the
        :class:`~repro.spice.analysis.transient.TransientResult`."""
        from repro.spice.analysis.transient import run_transient

        return run_transient(self.build(), engine=engine, recovery=recovery,
                             **self.run_options())


def corpus_entries() -> Tuple[CorpusEntry, ...]:
    """The tuned pathological corpus, in documentation order."""
    return (
        CorpusEntry(
            name="razor-sense",
            builder=_razor_sense,
            stop_time=2e-6, dt=0.1e-6, max_iterations=4,
            expect_rungs=("gmin",),
        ),
        CorpusEntry(
            name="sharp-edge",
            builder=_sharp_edge,
            stop_time=0.2e-9, dt=10e-12, max_iterations=4,
            expect_rungs=("timestep-cut",),
        ),
        CorpusEntry(
            name="near-singular-divider",
            builder=_near_singular_divider,
            stop_time=0.1e-9, dt=5e-12, max_iterations=50,
            expect_condition_warnings=True,
        ),
        CorpusEntry(
            name="ladder-exhaustion",
            builder=_instant_edge,
            stop_time=0.2e-9, dt=10e-12, max_iterations=4,
            expect_failure=True,
        ),
    )


def corpus_entry(name: str) -> CorpusEntry:
    """Look up one corpus entry by name (:class:`KeyError` when absent)."""
    for entry in corpus_entries():
        if entry.name == name:
            return entry
    raise KeyError(f"no corpus entry named {name!r}")
