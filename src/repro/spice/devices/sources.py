"""Independent voltage and current sources."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.spice.devices.base import EvalContext, TwoTerminal
from repro.spice.waveforms import DC, Waveform

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spice.analysis.mna import MNAStamper


@dataclass
class VoltageSource(TwoTerminal):
    """Ideal independent voltage source (one MNA branch unknown).

    The branch current is defined flowing from the positive terminal
    through the source to the negative terminal; a positive supply
    sourcing current into the circuit therefore reports a *negative*
    branch current (standard SPICE convention).
    """

    waveform: Waveform = field(default_factory=DC)
    nonlinear = False
    branch_index: int = field(default=-1, init=False)

    def num_branches(self) -> int:
        return 1

    def assign_branches(self, first_index: int) -> None:
        self.branch_index = first_index

    def voltage_at(self, time: float) -> float:
        return self.waveform.value(time)

    def stamp_static(self, stamper: "MNAStamper", ctx: EvalContext) -> None:
        # Branch incidence only; the time-dependent source value goes on
        # the RHS in stamp_step.
        stamper.add_voltage_source(
            self.branch_index, self.positive, self.negative, 0.0
        )

    def stamp_step(self, stamper: "MNAStamper", ctx: EvalContext) -> None:
        stamper.rhs[stamper.branch_row(self.branch_index)] += (
            self.voltage_at(ctx.time))

    def stamp(self, stamper: "MNAStamper", ctx: EvalContext) -> None:
        self.stamp_static(stamper, ctx)
        self.stamp_step(stamper, ctx)


@dataclass
class CurrentSource(TwoTerminal):
    """Ideal independent current source; positive value pushes current out
    of the positive terminal, through the external circuit, into the
    negative terminal (i.e. it *sources* current into the node attached to
    ``positive``... note: SPICE convention is the opposite; here we choose
    the intuitive one and document it: current flows from ``negative`` to
    ``positive`` inside the source, so the ``positive`` node receives
    current)."""

    waveform: Waveform = field(default_factory=DC)
    nonlinear = False

    def current_at(self, time: float) -> float:
        return self.waveform.value(time)

    def stamp_step(self, stamper: "MNAStamper", ctx: EvalContext) -> None:
        value = self.current_at(ctx.time)
        stamper.add_current(self.positive, value)
        stamper.add_current(self.negative, -value)

    def stamp(self, stamper: "MNAStamper", ctx: EvalContext) -> None:
        self.stamp_step(stamper, ctx)
