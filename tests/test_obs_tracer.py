"""Tracer contract: free when disabled, correct nesting when enabled,
Chrome-loadable exports.

The load-bearing guarantees:

* the disabled path returns one shared null span — no allocation, no
  record, and a per-call cost small enough that always-on
  instrumentation in the Newton loop is acceptable;
* nested spans carry the right depths and the ambient stack unwinds
  exactly, including on the exception path;
* the Chrome ``trace_event`` export round-trips through ``json`` and
  passes the same schema validator the CI gate uses.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.obs import (
    NULL_SPAN,
    current_span_stack,
    disable_tracing,
    enable_tracing,
    is_active,
    metrics,
    span,
)
from repro.obs.export import validate_chrome_trace
from repro.obs.tracer import SpanRecord


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with observability off and empty."""
    disable_tracing()
    metrics().reset()
    yield
    disable_tracing()
    metrics().reset()


# ---------------------------------------------------------------------------
# Disabled fast path
# ---------------------------------------------------------------------------


def test_disabled_span_is_shared_null_object():
    assert not is_active()
    assert span("a") is NULL_SPAN
    assert span("b", category="engine", attrs={"k": 1}) is NULL_SPAN


def test_disabled_span_records_nothing_and_annotate_is_noop():
    with span("outer") as outer:
        outer.annotate(anything=123)
        with span("inner"):
            pass
    assert current_span_stack() == ()
    tracer = enable_tracing()
    assert tracer.records == []
    disable_tracing()


def test_disabled_span_overhead_is_small():
    """The disabled call must stay cheap enough for hot-loop use.  The
    bound is deliberately generous (loaded CI machines); the cost of
    tracing itself is the ledger's ``obs.trace_overhead_pct`` (see
    ``bench/README.md``)."""
    calls = 50_000
    start = time.perf_counter()
    for _ in range(calls):
        with span("bench"):
            pass
    per_call = (time.perf_counter() - start) / calls
    assert per_call < 20e-6, f"disabled span costs {per_call * 1e9:.0f} ns"


def test_current_span_stack_empty_when_disabled():
    assert current_span_stack() == ()


# ---------------------------------------------------------------------------
# Enabled path
# ---------------------------------------------------------------------------


def test_nested_spans_depths_and_stack():
    tracer = enable_tracing()
    with span("a", category="x"):
        assert current_span_stack() == ("a",)
        with span("b", category="y"):
            assert current_span_stack() == ("a", "b")
            with span("c"):
                assert current_span_stack() == ("a", "b", "c")
    assert current_span_stack() == ()
    # Exit order: innermost completes first.
    names = [(r.name, r.depth) for r in tracer.records]
    assert names == [("c", 2), ("b", 1), ("a", 0)]
    # Children are contained within their parents.
    by_name = {r.name: r for r in tracer.records}
    assert by_name["a"].ts_us <= by_name["b"].ts_us
    assert (by_name["b"].ts_us + by_name["b"].dur_us
            <= by_name["a"].ts_us + by_name["a"].dur_us + 1.0)


def test_span_attrs_and_annotate():
    tracer = enable_tracing()
    with span("work", category="engine", attrs={"k": 1}) as sp:
        sp.annotate(iterations=42)
    record = tracer.records[0]
    assert record.attrs == {"k": 1, "iterations": 42}
    assert record.category == "engine"


def test_span_records_on_exception_and_stack_unwinds():
    tracer = enable_tracing()
    with pytest.raises(ValueError):
        with span("doomed"):
            assert current_span_stack() == ("doomed",)
            raise ValueError("boom")
    assert current_span_stack() == ()
    assert [r.name for r in tracer.records] == ["doomed"]


def test_enable_fresh_clears_previous_session():
    tracer = enable_tracing()
    with span("old"):
        pass
    assert len(tracer.records) == 1
    fresh = enable_tracing(fresh=True)
    assert fresh is not tracer
    assert fresh.records == []
    # Idempotent keep-alive: fresh=False preserves the session.
    assert enable_tracing(fresh=False) is fresh


def test_disable_returns_tracer_with_records():
    enable_tracing()
    with span("kept"):
        pass
    tracer = disable_tracing()
    assert [r.name for r in tracer.records] == ["kept"]
    assert not is_active()
    assert disable_tracing() is None


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def test_chrome_export_round_trips_through_json():
    tracer = enable_tracing()
    with span("outer", category="analysis", attrs={"circuit": "rc"}):
        with span("inner", category="engine"):
            pass
    trace = json.loads(json.dumps(tracer.to_chrome()))
    assert validate_chrome_trace(trace) == 2
    events = trace["traceEvents"]
    for event in events:
        assert event["ph"] == "X"
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
    assert {e["name"] for e in events} == {"outer", "inner"}
    assert {e["cat"] for e in events} == {"analysis", "engine"}
    assert trace["displayTimeUnit"] == "ms"


def test_chrome_export_defaults_empty_category():
    tracer = enable_tracing()
    with span("uncategorised"):
        pass
    event = tracer.to_chrome()["traceEvents"][0]
    assert event["cat"] == "repro"


def test_dump_chrome_writes_loadable_file(tmp_path):
    tracer = enable_tracing()
    with span("persisted", category="test"):
        pass
    path = tmp_path / "trace.json"
    tracer.dump_chrome(str(path))
    with open(path, encoding="utf-8") as handle:
        assert validate_chrome_trace(json.load(handle)) == 1


def test_span_record_json_round_trip():
    record = SpanRecord(name="n", category="c", ts_us=1.5, dur_us=2.5,
                        pid=7, tid=9, depth=2, attrs={"a": 1})
    assert SpanRecord.from_json(record.to_json()) == record


def test_validate_chrome_trace_rejects_malformed():
    with pytest.raises(ValueError, match="traceEvents"):
        validate_chrome_trace({})
    with pytest.raises(ValueError, match="lacks 'pid'"):
        validate_chrome_trace({"traceEvents": [
            {"name": "x", "cat": "c", "ph": "X", "ts": 0, "dur": 1,
             "tid": 1}]})
    with pytest.raises(ValueError, match="complete events"):
        validate_chrome_trace({"traceEvents": [
            {"name": "x", "cat": "c", "ph": "B", "ts": 0, "dur": 1,
             "pid": 1, "tid": 1}]})
    with pytest.raises(ValueError, match="negative"):
        validate_chrome_trace({"traceEvents": [
            {"name": "x", "cat": "c", "ph": "X", "ts": -1, "dur": 1,
             "pid": 1, "tid": 1}]})
