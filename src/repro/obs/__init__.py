"""Observability: solver tracing, metrics, and profiling flows.

The subsystem has four pieces:

* :mod:`repro.obs.tracer` — span-based wall-clock tracing with a
  contextvar-nested stack, a free disabled path, and Chrome
  ``trace_event`` export (``about://tracing`` / Perfetto);
* :mod:`repro.obs.metrics` — a registry of counters and maxima with
  exact cross-process merging;
* :mod:`repro.obs.worker` — per-task delta collection that rides worker
  results back through :func:`repro.parallel.parallel_map`;
* :mod:`repro.obs.profile` — the ``repro profile`` flows: run a named
  workload self-traced, print a self-time breakdown, emit
  ``profile.json`` + ``trace.json``.

Instrumented layers: the MNA engines (Newton iterations, Jacobian
factorisations vs reuses), the DC/transient analyses, cell
characterisation phases, system benchmark evaluation and the
fault-campaign runner.  Each fact has one sink: the registry holds
counts (and the largest condition estimate), spans hold time.  Instrumentation is **off by default**:
:func:`span` returns a shared no-op and hot loops keep local counters
that are only flushed into the registry while a session is active, so
the untraced simulator pays a few branch tests per Newton solve.  The
cost of tracing itself is the benchmark's ``obs.trace_overhead_pct``
(``bench/README.md``).

Quick start::

    from repro import obs

    tracer = obs.enable_tracing()
    with obs.span("my-experiment", category="user"):
        run_workload()
    obs.disable_tracing()
    tracer.dump_chrome("trace.json")          # -> about://tracing
    print(obs.metrics().snapshot()["counters"])

Errors raised inside spans carry the stack: every
:class:`repro.errors.ReproError` captures :func:`current_span_stack` and
a metrics snapshot at construction time (``exc.span_stack``,
``exc.metrics_snapshot``), so a failed Newton solve reports *where in
the flow* it died.
"""

from __future__ import annotations

from repro.obs.export import (
    SpanAggregate,
    aggregate_spans,
    render_breakdown,
    validate_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry, metrics
from repro.obs.tracer import (
    NULL_SPAN,
    SpanRecord,
    Tracer,
    current_span_stack,
    disable_tracing,
    enable_tracing,
    get_tracer,
    is_active,
    span,
)

__all__ = [
    "NULL_SPAN",
    "SpanRecord",
    "Tracer",
    "span",
    "enable_tracing",
    "disable_tracing",
    "get_tracer",
    "is_active",
    "current_span_stack",
    "MetricsRegistry",
    "metrics",
    "SpanAggregate",
    "aggregate_spans",
    "render_breakdown",
    "validate_chrome_trace",
    "error_context",
]


def error_context():
    """``(span_stack, metrics_snapshot)`` for error construction.

    Returns ``((), None)`` while observability is inactive so the error
    classes can call this unconditionally at near-zero cost.
    """
    if not is_active():
        return (), None
    return current_span_stack(), metrics().snapshot()
