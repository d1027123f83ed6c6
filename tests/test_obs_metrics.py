"""Metrics registry: recording semantics, deterministic snapshots, and
exact cross-process merging.

The merge contract matters most: worker processes ship snapshots back to
the parent, and folding them in must be order-independent for counters
and maxima — that is what keeps pooled observability runs
deterministic.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import MetricsRegistry, metrics


@pytest.fixture(autouse=True)
def _clean_registry():
    metrics().reset()
    yield
    metrics().reset()


def test_counters_and_maxima():
    reg = MetricsRegistry()
    reg.inc("n.iterations")
    reg.inc("n.iterations", 4)
    reg.set_max("kappa", 1e9)
    reg.set_max("kappa", 1e3)
    assert reg.counter("n.iterations") == 5
    assert reg.counter("never.touched") == 0
    assert reg.maxima["kappa"] == 1e9


def test_snapshot_keys_sorted_and_json_stable():
    reg = MetricsRegistry()
    reg.inc("zeta")
    reg.inc("alpha")
    reg.set_max("mid", 1.0)
    snap = reg.snapshot()
    assert list(snap["counters"]) == ["alpha", "zeta"]
    # Two identical workloads → byte-identical serialisation.
    twin = MetricsRegistry()
    twin.inc("alpha")
    twin.inc("zeta")
    twin.set_max("mid", 1.0)
    assert json.dumps(snap, sort_keys=True) == \
        json.dumps(twin.snapshot(), sort_keys=True)


def test_reset_clears_everything():
    reg = MetricsRegistry()
    reg.inc("c")
    reg.set_max("m", 1.0)
    reg.reset()
    assert reg.snapshot() == {"counters": {}, "maxima": {}}


def test_merge_semantics():
    parent = MetricsRegistry()
    parent.inc("shared", 2)
    parent.set_max("worst", 7.0)
    parent.set_max("parent.only", 1.0)

    worker = MetricsRegistry()
    worker.inc("shared", 3)
    worker.inc("worker.only", 1)
    worker.set_max("worst", 3.0)

    parent.merge(worker.snapshot())
    assert parent.counter("shared") == 5
    assert parent.counter("worker.only") == 1
    assert parent.maxima == {"parent.only": 1.0, "worst": 7.0}


def test_merge_order_independent_for_counters_and_maxima():
    snaps = []
    for values in ([1.0], [2.0, 3.0], [0.5]):
        w = MetricsRegistry()
        for v in values:
            w.inc("count", len(values))
            w.set_max("m", v)
        snaps.append(w.snapshot())

    forward, backward = MetricsRegistry(), MetricsRegistry()
    for s in snaps:
        forward.merge(s)
    for s in reversed(snaps):
        backward.merge(s)
    assert forward.counters == backward.counters
    assert forward.maxima == backward.maxima == {"m": 3.0}


def test_global_registry_is_shared():
    metrics().inc("probe")
    assert metrics().counter("probe") == 1


def test_concurrent_increments_are_not_lost():
    """inc()/set_max() are read-modify-write; under threaded callers
    the registry lock must make the totals exact."""
    import threading

    registry = MetricsRegistry()
    threads_n, per_thread = 8, 2000
    barrier = threading.Barrier(threads_n)

    def hammer():
        barrier.wait(timeout=10)
        for i in range(per_thread):
            registry.inc("hits")
            registry.set_max("largest", i)

    threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert registry.counter("hits") == threads_n * per_thread
    assert registry.maxima["largest"] == per_thread - 1
