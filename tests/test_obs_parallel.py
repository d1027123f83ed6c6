"""Observability across the process-pool boundary.

The invariant under test: with tracing on, ``parallel_map`` returns the
same results as the serial path AND the merged spans/metrics are
deterministic — same shape for any worker count, merged in item order
regardless of pool scheduling.  Environments without process pools fall
back serially (with a RuntimeWarning); spans then land in the parent
tracer directly, so every assertion here holds on both paths.
"""

from __future__ import annotations

import warnings

import pytest

from repro.obs import disable_tracing, enable_tracing, metrics, span
from repro.parallel import parallel_map


@pytest.fixture(autouse=True)
def _clean_obs_state():
    disable_tracing()
    metrics().reset()
    yield
    disable_tracing()
    metrics().reset()


def traced_square(x):
    """Module-level (picklable) worker that spans and counts."""
    with span("task.square", category="test", attrs={"x": x}):
        metrics().inc("test.calls")
        metrics().inc("test.input", x)
        metrics().set_max("test.largest", x)
        return x * x


def _traced_run(items, workers):
    """One pooled run under tracing; returns (results, span keys, counters)."""
    tracer = enable_tracing(fresh=True)
    metrics().reset()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # pool fallback ok
        results = parallel_map(traced_square, items, workers=workers)
    snapshot = metrics().snapshot()
    spans = [(r.name, r.category, r.attrs.get("x")) for r in tracer.records
             if r.name == "task.square"]
    disable_tracing()
    return results, spans, snapshot


def test_results_match_serial_under_tracing():
    items = list(range(8))
    serial = [traced_square(x) for x in items]
    metrics().reset()
    results, _, _ = _traced_run(items, workers=2)
    assert results == serial


def test_worker_spans_merge_in_item_order():
    items = [3, 1, 4, 1, 5]
    _, spans, _ = _traced_run(items, workers=2)
    assert [x for (_, _, x) in spans] == items
    assert all(name == "task.square" and cat == "test"
               for (name, cat, _) in spans)


def test_worker_metrics_merge_exactly():
    items = list(range(6))
    _, _, snapshot = _traced_run(items, workers=3)
    assert snapshot["counters"]["test.calls"] == len(items)
    assert snapshot["counters"]["test.input"] == sum(items)
    assert snapshot["maxima"]["test.largest"] == 5.0


def test_merged_observability_is_deterministic_across_runs():
    """Two identical pooled runs produce identical span lists and metric
    snapshots — pool scheduling must not leak into the merged view."""
    items = list(range(7))
    first = _traced_run(items, workers=2)
    second = _traced_run(items, workers=2)
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[2] == second[2]


def test_worker_count_does_not_change_merged_shape():
    items = list(range(5))
    pooled = _traced_run(items, workers=2)
    serial = _traced_run(items, workers=1)
    assert pooled[0] == serial[0]
    assert pooled[1] == serial[1]
    assert pooled[2]["counters"] == serial[2]["counters"]
    assert pooled[2]["maxima"] == serial[2]["maxima"]


def test_tracing_off_keeps_plain_pool_path():
    items = list(range(4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        results = parallel_map(traced_square, items, workers=2)
    assert results == [x * x for x in items]
    # Parent-side registry untouched: tracing was off, so worker-side
    # increments (if a pool ran) died with the workers.
    assert metrics().counter("test.calls") in (0, len(items))
