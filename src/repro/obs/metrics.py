"""Metrics registry: counters and maxima.

The registry is the *aggregate* half of the observability subsystem: the
tracer answers "where did the time go", the registry answers "how many"
— Newton iterations, Jacobian refactorisations vs reuses, gmin retries,
campaign attempts — and "how bad at worst" (the largest condition
estimate a solve probed).  Counters hold integer counts only; time
belongs to spans.

Properties the rest of the stack relies on:

* **Always importable, cheap when idle.**  The global registry exists
  unconditionally; hot loops keep *local* plain-int counters and flush
  once per solve/run, guarded by :func:`repro.obs.is_active`, so the
  disabled path never touches a dict.
* **Mergeable.**  :meth:`MetricsRegistry.snapshot` produces a plain-JSON
  dict and :meth:`MetricsRegistry.merge` folds such a snapshot back in
  (counters add, maxima keep the larger value).  This is how
  worker-process metrics return to the parent through
  :func:`repro.parallel.parallel_map` — merge order does not change any
  aggregate, so pooled runs stay deterministic.
* **Deterministic serialisation.**  Snapshots sort keys, so two runs of
  the same workload produce byte-identical ``profile.json`` metric
  sections.
"""

from __future__ import annotations

import threading
from typing import Any, Dict

__all__ = ["MetricsRegistry", "metrics"]


class MetricsRegistry:
    """Named counters and maxima.

    Thread-safe: recording and aggregation hold an internal lock, so
    concurrent callers never lose an increment to the
    read-modify-write race.  The lock is re-entrant because
    :meth:`merge` folds through :meth:`inc`/:meth:`set_max`.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.maxima: Dict[str, float] = {}
        self._lock = threading.RLock()

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def set_max(self, name: str, value: float) -> None:
        """Raise maximum ``name`` to ``value`` if it is larger."""
        with self._lock:
            value = float(value)
            if value > self.maxima.get(name, float("-inf")):
                self.maxima[name] = value

    def counter(self, name: str) -> int:
        """Current value of a counter (0 when never incremented)."""
        with self._lock:
            return self.counters.get(name, 0)

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Clear everything (worker per-task delta collection)."""
        with self._lock:
            self.counters.clear()
            self.maxima.clear()

    def snapshot(self) -> Dict[str, Any]:
        """Plain-JSON dict of the current state, keys sorted."""
        with self._lock:
            return {
                "counters": {k: self.counters[k]
                             for k in sorted(self.counters)},
                "maxima": {k: self.maxima[k] for k in sorted(self.maxima)},
            }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) back in:
        counters add, maxima keep the larger value."""
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self.inc(name, value)
            for name, value in snapshot.get("maxima", {}).items():
                self.set_max(name, value)


#: The process-global registry.  Hot paths gate their flushes on
#: :func:`repro.obs.is_active`; everything else may record freely.
_registry = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-global :class:`MetricsRegistry`."""
    return _registry
