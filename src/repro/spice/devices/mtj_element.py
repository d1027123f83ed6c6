"""Circuit-level MTJ element: couples the device physics of
:mod:`repro.mtj` into the MNA solver.

Electrically the junction is a voltage-dependent resistor whose
conductance depends on the magnetisation state (P/AP) and, in the AP
state, on the bias through the TMR roll-off.  During transient analysis
the element also integrates the STT switching model with the junction
current after every accepted timestep, so write operations driven by the
latch's tristate inverters actually flip the stored state — no scripted
"write happened here" shortcuts.

Terminal convention matches :mod:`repro.mtj.dynamics`: ``free`` is the
free-layer terminal, ``ref`` the reference-layer terminal, and positive
device current (free → ref) drives toward antiparallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

from repro.mtj.device import MTJDevice, MTJState
from repro.mtj.dynamics import SwitchingModel
from repro.spice.devices.base import Device, EvalContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spice.analysis.mna import MNAStamper


@dataclass
class MTJElement(Device):
    """One MTJ between two circuit nodes."""

    nonlinear = True  # conductance depends on the bias iterate

    free: int = -1
    ref: int = -1
    device: MTJDevice = field(default_factory=MTJDevice)
    #: Optional switching dynamics; None freezes the state (read-only use).
    switching: Optional[SwitchingModel] = None
    name: str = ""
    _initial_state: MTJState = field(init=False)

    def __post_init__(self) -> None:
        self._initial_state = self.device.state

    def node_indices(self) -> Tuple[int, int]:
        return (self.free, self.ref)

    def reset_state(self) -> None:
        """Restore the magnetisation captured at construction time and clear
        accumulated switching progress and events."""
        self.device.state = self._initial_state
        if self.switching is not None:
            self.switching.progress = 0.0
            self.switching.events.clear()

    def set_initial_state(self, state: MTJState) -> None:
        """Pin both the live and the reset state (used when programming the
        latch before a restore simulation)."""
        self.device.state = state
        self._initial_state = state
        if self.switching is not None:
            self.switching.progress = 0.0

    # -- electrical view -------------------------------------------------------

    def bias(self, ctx: EvalContext) -> float:
        """Voltage across the junction, free − ref [V]."""
        return ctx.v(self.free) - ctx.v(self.ref)

    def current(self, ctx: EvalContext) -> float:
        """Device current free → ref at the iterate [A]."""
        v = self.bias(ctx)
        return self.device.conductance(abs(v)) * v

    def stamp(self, stamper: "MNAStamper", ctx: EvalContext) -> None:
        v = self.bias(ctx)
        g = self.device.conductance(abs(v))
        # i(v) = G(|v|) v  →  di/dv = G + v dG/d|v| · sign(v) = G + |v| dG/d|v|.
        dg = self.device.conductance_derivative(abs(v))
        g_eff = g + abs(v) * dg
        # Guard against a non-positive small-signal conductance at very high
        # bias of the roll-off model (never reached in these circuits, but a
        # property test probes it).
        g_eff = max(g_eff, 0.1 * g)
        i0 = g * v
        const = i0 - g_eff * v
        stamper.add_conductance(self.free, self.ref, g_eff)
        stamper.add_current(self.free, -const)
        stamper.add_current(self.ref, const)

    # -- magnetisation dynamics --------------------------------------------------

    def update_state(self, ctx: EvalContext) -> None:
        if self.switching is None or not ctx.is_transient:
            return
        self.switching.step(self.current(ctx), ctx.dt, now=ctx.time)
