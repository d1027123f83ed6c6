"""Span-based tracer with a near-zero-cost disabled path.

The tracer answers "where does wall-clock go?" for every layer of the
reproduction: analyses, the fast engine, cell characterisation, system
evaluation and fault campaigns all open :func:`span` blocks around their
phases.  Design constraints, in order of importance:

1. **Disabled means free.**  Tracing is off by default; :func:`span`
   then returns one shared :data:`NULL_SPAN` singleton — no object
   allocation, no clock read, no contextvar write.  The instrumented
   code paths pay one module-global load and one ``is None`` test.
   (``tests/test_obs_tracer.py`` bounds the disabled call; the
   benchmark's ``obs.trace_overhead_pct``, see ``bench/README.md``,
   measures what enabling tracing costs.)
2. **Nesting is ambient.**  The active span stack lives in a
   :class:`contextvars.ContextVar`, so nested calls — a characterisation
   phase that runs a transient that runs Newton solves — compose without
   threading a context object through every signature, and concurrent
   threads/``asyncio`` tasks each see their own stack.
3. **Exportable.**  Finished spans serialise to plain JSON and to the
   Chrome ``trace_event`` format (``"ph": "X"`` complete events), so a
   ``trace.json`` from ``repro profile`` loads directly in
   ``about://tracing`` or https://ui.perfetto.dev.

Timestamps are microseconds of :func:`time.perf_counter` relative to the
tracer's epoch; each process has its own epoch (the wall-clock epoch is
recorded in the export metadata), so cross-process alignment in a merged
trace is per-``pid``, not global — good enough to read a per-worker
timeline, which is what the parallel runners produce.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "SpanRecord",
    "Tracer",
    "NULL_SPAN",
    "span",
    "enable_tracing",
    "disable_tracing",
    "get_tracer",
    "is_active",
    "current_span_stack",
]


@dataclass
class SpanRecord:
    """One finished span (immutable once recorded)."""

    name: str
    category: str
    #: Start, microseconds since the owning tracer's epoch.
    ts_us: float
    #: Duration, microseconds.
    dur_us: float
    pid: int
    tid: int
    #: Nesting depth at entry (0 = top level) — lets exporters rebuild
    #: the flame shape without re-deriving containment.
    depth: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name, "category": self.category,
            "ts_us": self.ts_us, "dur_us": self.dur_us,
            "pid": self.pid, "tid": self.tid, "depth": self.depth,
            "attrs": self.attrs,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "SpanRecord":
        return cls(
            name=str(data["name"]), category=str(data["category"]),
            ts_us=float(data["ts_us"]), dur_us=float(data["dur_us"]),
            pid=int(data["pid"]), tid=int(data["tid"]),
            depth=int(data["depth"]), attrs=dict(data.get("attrs") or {}),
        )


#: Ambient span-name stack (per thread / async task).  Tuples, not lists:
#: contextvar values must be treated as immutable so resets are exact.
_stack: ContextVar[Tuple[str, ...]] = ContextVar("repro_obs_stack",
                                                 default=())


class Tracer:
    """Collects finished :class:`SpanRecord`\\ s for one session."""

    def __init__(self) -> None:
        self.records: List[SpanRecord] = []
        self.epoch = time.perf_counter()
        #: Wall-clock instant of the epoch, for humans reading exports.
        self.wall_epoch = time.time()
        self.pid = os.getpid()
        self._lock = threading.Lock()

    def record(self, record: SpanRecord) -> None:
        with self._lock:
            self.records.append(record)

    def add_records(self, records: List[SpanRecord]) -> None:
        """Merge spans collected elsewhere (worker processes).  The caller
        controls ordering — merging in task order keeps traces
        deterministic regardless of pool scheduling."""
        with self._lock:
            self.records.extend(records)

    def drain(self) -> List[SpanRecord]:
        """Remove and return every record collected so far (the worker
        -side per-task collection primitive)."""
        with self._lock:
            drained = self.records
            self.records = []
        return drained

    # -- export ------------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """Plain-JSON form: metadata + the span list in record order."""
        return {
            "kind": "repro-trace",
            "wall_epoch": self.wall_epoch,
            "pid": self.pid,
            "spans": [r.to_json() for r in self.records],
        }

    def to_chrome(self) -> Dict[str, Any]:
        """Chrome ``trace_event`` JSON object format (complete events).

        Loadable in ``about://tracing`` and Perfetto.  Every event is a
        ``"ph": "X"`` complete event with microsecond ``ts``/``dur``;
        worker-process spans keep their own ``pid`` so each worker gets
        its own track.
        """
        events = [
            {
                "name": r.name,
                "cat": r.category or "repro",
                "ph": "X",
                "ts": r.ts_us,
                "dur": r.dur_us,
                "pid": r.pid,
                "tid": r.tid,
                "args": r.attrs,
            }
            for r in self.records
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "tool": "repro.obs",
                "wall_epoch": self.wall_epoch,
                "note": "timestamps are per-pid perf_counter offsets",
            },
        }

    def dump_chrome(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome(), handle, indent=1)
            handle.write("\n")


class _Span:
    """Active span context manager (only exists while tracing is on)."""

    __slots__ = ("_tracer", "name", "category", "attrs",
                 "_start", "_token", "_depth")

    def __init__(self, tracer: Tracer, name: str, category: str,
                 attrs: Optional[Dict[str, Any]]):
        self._tracer = tracer
        self.name = name
        self.category = category
        self.attrs = dict(attrs) if attrs else {}

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the span after entry (e.g. counters known
        only at the end of the traced block)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        stack = _stack.get()
        self._depth = len(stack)
        self._token = _stack.set(stack + (self.name,))
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        _stack.reset(self._token)
        tracer = self._tracer
        tracer.record(SpanRecord(
            name=self.name,
            category=self.category,
            ts_us=(self._start - tracer.epoch) * 1e6,
            dur_us=(end - self._start) * 1e6,
            pid=os.getpid(),
            tid=threading.get_ident(),
            depth=self._depth,
            attrs=self.attrs,
        ))
        return False


class _NullSpan:
    """The disabled-path span: a shared, reentrant no-op.

    One module-level instance serves every ``span()`` call while tracing
    is off, so the disabled fast path allocates nothing (asserted by
    ``tests/test_obs_tracer.py``).
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs: Any) -> None:
        pass


NULL_SPAN = _NullSpan()

#: The active tracer, or None when tracing is disabled (the default).
_tracer: Optional[Tracer] = None


def span(name: str, category: str = "",
         attrs: Optional[Dict[str, Any]] = None):
    """A context manager timing the enclosed block as one span.

    With tracing disabled this returns the shared :data:`NULL_SPAN` — the
    call costs one global load and one comparison.  ``attrs`` (a dict,
    deliberately not ``**kwargs`` so the disabled path allocates nothing)
    is copied into the span at entry; more can be attached with
    :meth:`annotate`.
    """
    tracer = _tracer
    if tracer is None:
        return NULL_SPAN
    return _Span(tracer, name, category, attrs)


def enable_tracing(fresh: bool = True) -> Tracer:
    """Turn tracing on and return the active tracer.

    ``fresh=True`` (default) installs a new empty tracer and clears the
    ambient span stack — important in forked worker processes, which
    inherit the parent's tracer state and must not re-export its spans.
    ``fresh=False`` keeps an already-active tracer (idempotent enable).
    """
    global _tracer
    if _tracer is None or fresh:
        _tracer = Tracer()
        _stack.set(())
    return _tracer


def disable_tracing() -> Optional[Tracer]:
    """Turn tracing off; returns the tracer (with its records) so callers
    can export what was collected."""
    global _tracer
    tracer = _tracer
    _tracer = None
    return tracer


def get_tracer() -> Optional[Tracer]:
    """The active tracer, or None when tracing is disabled."""
    return _tracer


def is_active() -> bool:
    """True while tracing is enabled."""
    return _tracer is not None


def current_span_stack() -> Tuple[str, ...]:
    """Names of the spans currently open in this context, outermost
    first.  Empty when tracing is disabled or no span is open — the
    error-context hook in :mod:`repro.errors` relies on this being safe
    to call unconditionally."""
    if _tracer is None:
        return ()
    return _stack.get()
