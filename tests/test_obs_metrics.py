"""Metrics registry: recording semantics, deterministic snapshots, and
exact cross-process merging.

The merge contract matters most: worker processes ship snapshots back to
the parent, and folding them in must be order-independent for counters
and histogram moments — that is what keeps pooled observability runs
deterministic.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry, metrics


@pytest.fixture(autouse=True)
def _clean_registry():
    metrics().reset()
    yield
    metrics().reset()


# ---------------------------------------------------------------------------
# Histogram
# ---------------------------------------------------------------------------


def test_histogram_observe_and_moments():
    h = Histogram()
    for v in (1.0, 3.0, 2.0):
        h.observe(v)
    assert h.count == 3
    assert h.total == 6.0
    assert h.minimum == 1.0
    assert h.maximum == 3.0
    assert h.mean == 2.0


def test_empty_histogram_mean_is_nan_and_json_uses_null():
    h = Histogram()
    assert math.isnan(h.mean)
    data = h.to_json()
    assert data == {"count": 0, "total": 0.0, "min": None, "max": None}
    assert Histogram.from_json(data).count == 0


def test_histogram_merge_is_exact():
    """Merging two histograms equals observing all values in one — the
    property that lets worker moments fold into the parent exactly."""
    values_a = [0.5, 2.5, 1.0]
    values_b = [4.0, 0.25]
    combined = Histogram()
    for v in values_a + values_b:
        combined.observe(v)
    a, b = Histogram(), Histogram()
    for v in values_a:
        a.observe(v)
    for v in values_b:
        b.observe(v)
    a.merge(b)
    assert a == combined


def test_histogram_json_round_trip():
    h = Histogram()
    h.observe(1.5)
    h.observe(-2.0)
    assert Histogram.from_json(json.loads(json.dumps(h.to_json()))) == h


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_counters_gauges_histograms():
    reg = MetricsRegistry()
    reg.inc("n.iterations")
    reg.inc("n.iterations", 4)
    reg.set_gauge("gmin", 1e-12)
    reg.set_gauge("gmin", 1e-9)
    reg.observe("step.seconds", 0.25)
    assert reg.counter("n.iterations") == 5
    assert reg.counter("never.touched") == 0
    assert reg.gauges["gmin"] == 1e-9
    assert reg.histograms["step.seconds"].count == 1


def test_snapshot_keys_sorted_and_json_stable():
    reg = MetricsRegistry()
    reg.inc("zeta")
    reg.inc("alpha")
    reg.observe("mid", 1.0)
    snap = reg.snapshot()
    assert list(snap["counters"]) == ["alpha", "zeta"]
    # Two identical workloads → byte-identical serialisation.
    twin = MetricsRegistry()
    twin.inc("alpha")
    twin.inc("zeta")
    twin.observe("mid", 1.0)
    assert json.dumps(snap, sort_keys=True) == \
        json.dumps(twin.snapshot(), sort_keys=True)


def test_reset_clears_everything():
    reg = MetricsRegistry()
    reg.inc("c")
    reg.set_gauge("g", 1.0)
    reg.observe("h", 1.0)
    reg.reset()
    assert reg.snapshot() == {"counters": {}, "gauges": {},
                              "histograms": {}}


def test_merge_semantics():
    parent = MetricsRegistry()
    parent.inc("shared", 2)
    parent.observe("seconds", 1.0)
    parent.set_gauge("last", 1.0)

    worker = MetricsRegistry()
    worker.inc("shared", 3)
    worker.inc("worker.only", 1)
    worker.observe("seconds", 3.0)
    worker.set_gauge("last", 7.0)

    parent.merge(worker.snapshot())
    assert parent.counter("shared") == 5
    assert parent.counter("worker.only") == 1
    assert parent.gauges["last"] == 7.0
    assert parent.histograms["seconds"].count == 2
    assert parent.histograms["seconds"].maximum == 3.0


def test_merge_order_independent_for_counters_and_histograms():
    snaps = []
    for values in ([1.0], [2.0, 3.0], [0.5]):
        w = MetricsRegistry()
        for v in values:
            w.inc("count", len(values))
            w.observe("h", v)
        snaps.append(w.snapshot())

    forward, backward = MetricsRegistry(), MetricsRegistry()
    for s in snaps:
        forward.merge(s)
    for s in reversed(snaps):
        backward.merge(s)
    assert forward.counters == backward.counters
    assert forward.histograms == backward.histograms


def test_global_registry_is_shared():
    metrics().inc("probe")
    assert metrics().counter("probe") == 1


def test_concurrent_increments_are_not_lost():
    """inc()/observe() are read-modify-write; under threaded callers
    the registry lock must make the totals exact."""
    import threading

    registry = MetricsRegistry()
    threads_n, per_thread = 8, 2000
    barrier = threading.Barrier(threads_n)

    def hammer():
        barrier.wait(timeout=10)
        for _ in range(per_thread):
            registry.inc("hits")
            registry.observe("latency", 1.0)

    threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert registry.counter("hits") == threads_n * per_thread
    assert registry.histograms["latency"].count == threads_n * per_thread
    assert registry.histograms["latency"].total == threads_n * per_thread
