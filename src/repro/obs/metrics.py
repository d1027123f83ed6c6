"""Metrics registry: counters, gauges and histograms.

The registry is the *aggregate* half of the observability subsystem: the
tracer answers "where did the time go", the registry answers "how many /
how much" — Newton iterations, Jacobian refactorisations vs reuses, gmin
retries, campaign attempts, per-device-class stamp seconds.

Properties the rest of the stack relies on:

* **Always importable, cheap when idle.**  The global registry exists
  unconditionally; hot loops keep *local* plain-int counters and flush
  once per solve/run, guarded by :func:`repro.obs.is_active`, so the
  disabled path never touches a dict.
* **Mergeable.**  :meth:`MetricsRegistry.snapshot` produces a plain-JSON
  dict and :meth:`MetricsRegistry.merge` folds such a snapshot back in
  (sums for counters and histogram moments, last-write for gauges).
  This is how worker-process metrics return to the parent through
  :func:`repro.parallel.parallel_map` — merge order does not change any
  aggregate, so pooled runs stay deterministic.
* **Deterministic serialisation.**  Snapshots sort keys, so two runs of
  the same workload produce byte-identical ``profile.json`` metric
  sections.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict

__all__ = ["Histogram", "MetricsRegistry", "metrics"]


@dataclass
class Histogram:
    """Streaming summary of an observed distribution (count/sum/min/max).

    Deliberately moment-based rather than bucketed: moments merge exactly
    across worker processes, which is what the parallel collection needs;
    percentile detail belongs in the trace, not the registry.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def to_json(self) -> Dict[str, Any]:
        return {"count": self.count, "total": self.total,
                "min": self.minimum if self.count else None,
                "max": self.maximum if self.count else None}

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Histogram":
        h = cls(count=int(data["count"]), total=float(data["total"]))
        if h.count:
            h.minimum = float(data["min"])
            h.maximum = float(data["max"])
        return h


class MetricsRegistry:
    """Named counters, gauges and histograms.

    Thread-safe: recording and aggregation hold an internal lock, so
    concurrent callers never lose an increment to the
    read-modify-write race.  The lock is re-entrant because
    :meth:`merge` folds through :meth:`inc`/:meth:`set_gauge`.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._lock = threading.RLock()

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Record the most recent value of gauge ``name``."""
        with self._lock:
            self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Feed one observation into histogram ``name``."""
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.observe(value)

    def counter(self, name: str) -> float:
        """Current value of a counter (0 when never incremented)."""
        with self._lock:
            return self.counters.get(name, 0)

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Clear everything (worker per-task delta collection)."""
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()

    def snapshot(self) -> Dict[str, Any]:
        """Plain-JSON dict of the current state, keys sorted."""
        with self._lock:
            return {
                "counters": {k: self.counters[k]
                             for k in sorted(self.counters)},
                "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
                "histograms": {k: self.histograms[k].to_json()
                               for k in sorted(self.histograms)},
            }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) back in:
        counters add, histograms merge moments, gauges take the incoming
        value (last write wins)."""
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self.inc(name, value)
            for name, value in snapshot.get("gauges", {}).items():
                self.set_gauge(name, value)
            for name, data in snapshot.get("histograms", {}).items():
                incoming = Histogram.from_json(data)
                hist = self.histograms.get(name)
                if hist is None:
                    self.histograms[name] = incoming
                else:
                    hist.merge(incoming)


#: The process-global registry.  Hot paths gate their flushes on
#: :func:`repro.obs.is_active`; everything else may record freely.
_registry = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-global :class:`MetricsRegistry`."""
    return _registry
