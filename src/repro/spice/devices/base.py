"""Device protocol for the MNA solver.

Every element stamps its linearised companion model into an
:class:`~repro.spice.analysis.mna.MNAStamper` at each Newton iteration.
The contract:

* ``stamp(stamper, ctx)`` adds conductances / currents / branch relations
  for the element, linearised around the voltages in ``ctx``.
* ``update_state(ctx)`` is called once per *accepted* transient timepoint
  (after Newton convergence) so stateful devices (capacitor charge
  history, MTJ magnetisation) can advance.

Node handles are integer indices assigned by the :class:`Circuit`; index
``-1`` denotes ground (stamps to ground rows/columns are dropped by the
stamper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spice.analysis.mna import MNAStamper


@dataclass
class EvalContext:
    """Operating-point information handed to device stamps.

    ``voltages`` is the current Newton iterate (node voltages only);
    ``prev_voltages`` the last accepted timepoint (transient) or ``None``
    (DC).  ``dt`` is ``None`` for DC analyses.  ``gmin`` is the current
    homotopy conductance added from every node to ground.
    """

    voltages: np.ndarray
    prev_voltages: Optional[np.ndarray]
    time: float
    dt: Optional[float]
    gmin: float = 0.0
    #: 'be' (backward Euler) or 'trap' (trapezoidal) for capacitor companions.
    integrator: str = "be"

    def v(self, node: int) -> float:
        """Voltage of a node index (ground reads as 0 V)."""
        return 0.0 if node < 0 else float(self.voltages[node])

    def v_prev(self, node: int) -> float:
        """Previous-timepoint voltage of a node index."""
        if self.prev_voltages is None or node < 0:
            return 0.0
        return float(self.prev_voltages[node])

    @property
    def is_transient(self) -> bool:
        return self.dt is not None


class Device:
    """Base class of all circuit elements.

    Stamping contract (used by both solver paths):

    * ``stamp(stamper, ctx)`` — the full linearised companion model.  The
      DC Newton calls this on every device, every Newton iteration.
    * ``nonlinear`` — class attribute.  ``True`` (the safe default) means
      the stamp depends on the Newton iterate and must be re-applied every
      iteration.  ``False`` declares the *linear-device split* below, which
      the fast engine (:mod:`repro.spice.analysis.engine`) exploits:

      - ``stamp_static(stamper, ctx)`` writes only **matrix** entries and
        may depend on ``ctx.dt`` / ``ctx.integrator`` but on neither the
        iterate, the time, nor the previous timepoint.  It is applied once
        per analysis and cached.
      - ``stamp_step(stamper, ctx)`` writes only **RHS** entries and may
        depend on ``ctx.time`` and ``ctx.prev_voltages`` but not on the
        iterate.  It is applied once per timepoint.

      For a linear device ``stamp`` must equal ``stamp_static`` followed by
      ``stamp_step`` — the equivalence tests enforce this to 1e-12.
    """

    #: Unique name within the circuit (assigned by :class:`Circuit`).
    name: str = ""
    #: Whether the stamp depends on the Newton iterate (see class docstring).
    nonlinear: bool = True

    def node_indices(self) -> Sequence[int]:
        """Indices of all nodes this device touches (for connectivity checks)."""
        raise NotImplementedError

    def num_branches(self) -> int:
        """How many extra MNA branch-current unknowns this device needs."""
        return 0

    def assign_branches(self, first_index: int) -> None:
        """Receive the indices of this device's branch unknowns."""

    def stamp(self, stamper: "MNAStamper", ctx: EvalContext) -> None:
        """Stamp the linearised model at the given iterate."""
        raise NotImplementedError

    def stamp_static(self, stamper: "MNAStamper", ctx: EvalContext) -> None:
        """Iterate/time-invariant matrix stamps (linear devices only)."""

    def stamp_step(self, stamper: "MNAStamper", ctx: EvalContext) -> None:
        """Per-timepoint RHS stamps (linear devices only)."""

    def update_state(self, ctx: EvalContext) -> None:
        """Advance internal state after an accepted timestep (default: none)."""

    def reset_state(self) -> None:
        """Reset internal dynamic state before a fresh analysis (default: none)."""


@dataclass
class TwoTerminal(Device):
    """Convenience base for two-terminal elements."""

    positive: int = -1
    negative: int = -1
    name: str = ""

    def node_indices(self) -> Tuple[int, int]:
        return (self.positive, self.negative)

    def branch_voltage(self, ctx: EvalContext) -> float:
        """Voltage from the positive to the negative terminal."""
        return ctx.v(self.positive) - ctx.v(self.negative)
