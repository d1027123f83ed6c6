"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError` so
applications can catch library failures with a single handler while still
distinguishing the subsystem that failed.

Errors may carry structured lint findings: when a failure was predicted
or explained by the static-analysis subsystem (:mod:`repro.lint`), the
raiser attaches the relevant :class:`~repro.lint.diagnostics.Diagnostic`
records via the ``diagnostics`` keyword, so tooling can show the
root-cause ERC report instead of a bare solver message.

Errors also carry observability context: while a tracing session is
active (:mod:`repro.obs`), every :class:`ReproError` captures the span
stack open at construction time (``span_stack``) and a snapshot of the
metrics registry (``metrics_snapshot``) — a Newton non-convergence deep
inside a Table II characterisation then reports *which* phase of *which*
flow it died in, with the last solver counters attached.  With
observability off (the default), both fields are empty and the capture
costs one cached import plus one boolean test.
"""

from __future__ import annotations

import difflib
from typing import Iterable, Optional, Sequence, Tuple


def _observability_context() -> Tuple[Tuple[str, ...], Optional[dict]]:
    """Active span stack + metrics snapshot, or ``((), None)`` when
    observability is off or not importable (partial installs)."""
    try:
        from repro.obs import error_context
    except ImportError:  # pragma: no cover - obs is part of the package
        return (), None
    return error_context()


def suggest_names(name: str, candidates: Iterable[str], limit: int = 3) -> str:
    """A '; did you mean ...?' suffix naming close matches of ``name``
    among ``candidates`` (empty string when nothing is close) — appended
    to lookup-failure messages so typos are one glance to fix."""
    matches = difflib.get_close_matches(name, list(candidates), n=limit)
    if not matches:
        return ""
    return "; did you mean " + ", ".join(repr(m) for m in matches) + "?"


class ReproError(Exception):
    """Base class for all library errors.

    ``diagnostics`` optionally carries the lint findings that explain or
    predicted the failure (a tuple of
    :class:`~repro.lint.diagnostics.Diagnostic`).

    ``span_stack`` / ``metrics_snapshot`` are captured automatically at
    construction while an observability session is active: the names of
    the spans the raiser was inside (outermost first) and the metrics
    registry at the moment of failure.
    """

    def __init__(self, *args, diagnostics: Sequence = ()):
        super().__init__(*args)
        self.diagnostics: Tuple = tuple(diagnostics)
        self.span_stack, self.metrics_snapshot = _observability_context()

    def context_report(self) -> str:
        """Human-readable 'where did this die' summary from the captured
        observability context; empty string when none was captured."""
        if not self.span_stack and self.metrics_snapshot is None:
            return ""
        lines = []
        if self.span_stack:
            lines.append("span stack: " + " > ".join(self.span_stack))
        if self.metrics_snapshot:
            counters = self.metrics_snapshot.get("counters", {})
            if counters:
                lines.append("counters at failure: " + ", ".join(
                    f"{name}={value:g}" for name, value in counters.items()))
        return "\n".join(lines)


class DeviceModelError(ReproError):
    """Invalid device parameters or an operating point outside model validity."""


class NetlistError(ReproError):
    """Malformed circuit description (unknown node, duplicate element, ...)."""


class ConvergenceError(ReproError):
    """The nonlinear solver failed to converge.

    ``state`` optionally carries the last Newton iterate (the full MNA
    solution vector) so wall-clock-timeout aborts hand the caller the
    point the solver was stuck at instead of discarding it.

    ``forensics`` optionally carries a
    :class:`~repro.recovery.forensics.ForensicsBundle` when the failure
    exhausted the recovery ladder — the rung history, last Newton state,
    stamped-matrix digest and (when available) a minimal reproducing
    netlist.
    """

    def __init__(self, message: str, iterations: int = 0,
                 residual: float = float("nan"), state=None,
                 forensics=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.state = state
        self.forensics = forensics


class AnalysisError(ReproError):
    """An analysis was configured inconsistently or produced no usable result."""


class LayoutError(ReproError):
    """Design-rule violation or an unrealisable cell plan."""


class PlacementError(ReproError):
    """Placement failure: core overflow, unlegalisable design, ..."""


class DefFormatError(ReproError):
    """Malformed DEF content encountered while parsing."""


class MergeError(ReproError):
    """Invalid multi-bit merge request (unknown cell, conflicting pairs, ...)."""


class FaultInjectionError(ReproError):
    """Invalid fault specification (unknown model, unreachable target, ...)."""


class CampaignError(ReproError):
    """A reliability campaign could not be set up or resumed (bad
    checkpoint, mismatched configuration, ...)."""


class SerializationError(ReproError):
    """A result object could not be serialised or rebuilt (schema
    mismatch, malformed payload, non-canonical value, ...)."""


class CacheError(ReproError):
    """The simulation result cache could not derive a key or service a
    request (uncacheable device, unusable cache directory, ...)."""
