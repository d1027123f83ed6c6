"""Canonical flow parameters — one vocabulary, one validation path.

Every surface that launches a flow — :class:`repro.api.Session` methods
and the CLI subcommands — accepts the *same* canonical keyword
arguments, declared here once per flow:

* ``backend=`` — the NV storage technology (:mod:`repro.nv`);
* ``engine=`` — the solver engine, one of :data:`ENGINES`;
* ``design=`` — the latch design (``"standard"``/``"proposed"``);
* plus the flow's own knobs (``corners=``, ``benchmarks=``,
  ``samples=``, ...).

:func:`validate_flow_params` is the single gate: unknown flows and
unknown parameter names are rejected with difflib suggestions.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from repro.errors import AnalysisError, suggest_names

__all__ = [
    "ENGINES",
    "FLOW_PARAMS",
    "validate_flow_params",
]

#: The solver engines ``engine=`` accepts (checked by
#: :func:`~repro.spice.analysis.transient.run_transient`).  Declared in
#: this dependency-free module so the CLI parser can list them without
#: importing the solver.
ENGINES = ("fast", "sparse")

#: Canonical parameter names per flow (the Python-level surface:
#: ``Session.table2(**params)`` etc.).  ``workers`` is accepted
#: everywhere a flow fans out.
FLOW_PARAMS: Dict[str, Tuple[str, ...]] = {
    "table2": ("backend", "engine", "workers",
               "sizing", "corners", "dt", "include_write"),
    "table3": ("backend", "engine", "workers",
               "benchmarks", "config"),
    "campaign": ("backend", "engine", "workers",
                 "design", "specs", "samples", "seed", "vdd", "dt",
                 "timeout", "retries", "checkpoint", "forensics_dir"),
    "compare": ("backends", "engine", "workers",
                "quick", "benchmarks", "samples", "dt"),
}


def validate_flow_params(flow: str, params: Mapping[str, Any]) -> None:
    """Reject an unknown flow or unknown parameter names, with
    suggestions.  Values are not checked here — each flow's builder owns
    its own value validation (designs, backends, corner names, ...)."""
    allowed = FLOW_PARAMS.get(flow)
    if allowed is None:
        raise AnalysisError(
            f"unknown flow {flow!r}" + suggest_names(flow, FLOW_PARAMS))
    for key in params:
        if key not in allowed:
            raise AnalysisError(
                f"flow {flow!r} does not accept parameter {key!r}"
                + suggest_names(str(key), allowed)
                + f"; allowed: {', '.join(sorted(allowed))}")
