"""Failure forensics: everything needed to diagnose an exhausted
recovery ladder without re-running the campaign that hit it.

A :class:`ForensicsBundle` travels on the
:class:`~repro.errors.ConvergenceError` (``exc.forensics``), survives
the worker→parent process boundary as plain JSON, and is dumped to disk
by the campaign runner (``run_campaign(forensics_dir=...)``).  It
carries:

* the rung history — every rung the ladder climbed, with outcomes;
* the last Newton state (full MNA solution vector);
* a SHA-256 digest of the offending timestep's stamped matrix, so two
  failures can be compared for "same system?" without shipping O(n²)
  of floats;
* the failing circuit's constructive fingerprint, plus — when the
  policy allows — a *minimal reproducing netlist* found by the greedy
  shrinker (:mod:`repro.recovery.shrink`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.serialize import stable_digest


def stamped_matrix_digest(matrix: np.ndarray) -> str:
    """SHA-256 of a stamped MNA matrix's exact bytes (shape-tagged, so
    a 4×4 and a 2×8 system never collide)."""
    h = hashlib.sha256()
    h.update(repr(matrix.shape).encode("ascii"))
    h.update(np.ascontiguousarray(matrix).tobytes())
    return h.hexdigest()


@dataclass
class ForensicsBundle:
    """Structured post-mortem of one ladder exhaustion."""

    #: ``"transient"`` or ``"dc"``.
    analysis: str
    circuit_name: str
    engine: str
    #: Simulated time of the offending step [s] (0.0 for DC).
    time: float
    message: str
    #: ``[{"rung": ..., "detail": ..., "outcome": ...}, ...]`` in the
    #: order the ladder climbed.
    rung_history: List[Dict[str, Any]] = field(default_factory=list)
    #: Last Newton iterate (full MNA solution vector), or None.
    last_state: Optional[List[float]] = None
    #: SHA-256 of the stamped matrix at the last iterate, or None when
    #: the system could not be assembled.
    matrix_digest: Optional[str] = None
    #: Constructive circuit fingerprint (``cache.keys`` schema), or
    #: None for circuits the cache cannot describe.
    circuit: Optional[Dict[str, Any]] = None
    #: Minimal reproducing netlist from the greedy shrinker (same
    #: fingerprint schema), or None when shrinking was disabled,
    #: budget-exhausted, or not applicable.
    minimal_circuit: Optional[Dict[str, Any]] = None
    #: Device counts before/after shrinking (equal when no shrink ran).
    devices_before: int = 0
    devices_after: int = 0
    #: Solver record (:meth:`SolverStats.to_json
    #: <repro.spice.analysis.engine.SolverStats.to_json>`) at the moment
    #: of exhaustion: counts only, so the same traced or not.
    stats: Optional[Dict[str, Any]] = None

    def note_rung(self, rung: str, detail: str, outcome: str) -> None:
        self.rung_history.append(
            {"rung": rung, "detail": detail, "outcome": outcome})

    def digest(self) -> str:
        """Content digest of the bundle (stable across workers and
        tracing)."""
        return stable_digest(self.to_json())

    def summary(self) -> str:
        """One-paragraph human rendering (CLI and campaign notes)."""
        lines = [f"{self.analysis} ladder exhausted on "
                 f"{self.circuit_name!r} (engine={self.engine}, "
                 f"t={self.time:g} s): {self.message}"]
        for entry in self.rung_history:
            lines.append(f"  rung {entry['rung']:<18} {entry['detail']:<28} "
                         f"-> {entry['outcome']}")
        if self.matrix_digest:
            lines.append(f"  stamped matrix sha256: {self.matrix_digest}")
        if self.minimal_circuit is not None:
            lines.append(
                f"  minimal reproducer: {self.devices_after} of "
                f"{self.devices_before} devices "
                f"({len(self.minimal_circuit.get('nodes', []))} nodes)")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        return {
            "analysis": self.analysis,
            "circuit_name": self.circuit_name,
            "engine": self.engine,
            "time": self.time,
            "message": self.message,
            "rung_history": list(self.rung_history),
            "last_state": self.last_state,
            "matrix_digest": self.matrix_digest,
            "circuit": self.circuit,
            "minimal_circuit": self.minimal_circuit,
            "devices_before": self.devices_before,
            "devices_after": self.devices_after,
            "stats": self.stats,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ForensicsBundle":
        return cls(
            analysis=str(data["analysis"]),
            circuit_name=str(data["circuit_name"]),
            engine=str(data["engine"]),
            time=float(data["time"]),
            message=str(data["message"]),
            rung_history=[dict(e) for e in data.get("rung_history", [])],
            last_state=(None if data.get("last_state") is None
                        else [float(v) for v in data["last_state"]]),
            matrix_digest=data.get("matrix_digest"),
            circuit=data.get("circuit"),
            minimal_circuit=data.get("minimal_circuit"),
            devices_before=int(data.get("devices_before", 0)),
            devices_after=int(data.get("devices_after", 0)),
            stats=data.get("stats"),
        )
