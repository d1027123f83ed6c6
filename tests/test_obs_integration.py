"""Observability wired through the real stack.

The acceptance contracts of the subsystem, end to end:

* the metrics registry reports exactly the engine's own
  :class:`SolverStats` totals (Newton iterations, Jacobian
  factorisations vs reuses, timesteps) — on both engines;
* errors raised inside traced flows carry the active span stack and a
  metrics snapshot;
* the campaign runner records per-task wall-clock and attempt counts
  that survive the JSONL checkpoint round-trip (including checkpoints
  written before timing existed);
* ``run_profile`` emits a Chrome-valid ``trace.json`` and a
  ``profile.json`` whose solver self-check passes.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConvergenceError, NetlistError
from repro.faults.campaign import (
    CampaignReport,
    TaskRecord,
    _checkpoint_header,
    run_campaign,
)
from repro.obs import disable_tracing, enable_tracing, metrics, span
from repro.obs.export import validate_chrome_trace
from repro.spice.netlist import Circuit
from repro.spice.analysis.dc import solve_dc
from repro.spice.analysis.ensemble import run_ensemble_transient
from repro.spice.analysis.transient import run_transient


@pytest.fixture(autouse=True)
def _clean_obs_state():
    disable_tracing()
    metrics().reset()
    yield
    disable_tracing()
    metrics().reset()


def _rc_circuit() -> Circuit:
    circuit = Circuit("rc")
    circuit.add_vsource("vs", "in", "0", 1.0)
    circuit.add_resistor("r1", "in", "out", 1e3)
    circuit.add_capacitor("c1", "out", "0", 1e-12)
    return circuit


# ---------------------------------------------------------------------------
# Registry counters == engine's own totals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["fast", "naive", "ensemble"])
def test_registry_matches_solver_stats(engine):
    enable_tracing()
    before = metrics().snapshot()["counters"]
    if engine == "ensemble":
        # One batched run of three samples: the registry must hold the
        # per-sample stats summed over the samples.
        results = run_ensemble_transient(
            [_rc_circuit() for _ in range(3)], stop_time=100e-12,
            dt=1e-12, initial_voltages={"in": 1.0})
    else:
        results = [run_transient(_rc_circuit(), stop_time=100e-12,
                                 dt=1e-12, engine=engine,
                                 initial_voltages={"in": 1.0})]
    after = metrics().snapshot()["counters"]

    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    def total(field):
        return sum(getattr(result.stats, field) for result in results)

    assert all(result.stats.timesteps == 100 for result in results)
    assert delta("engine.newton_iterations") == total("iterations")
    assert delta("engine.jacobian_factorizations") == total("factorizations")
    assert delta("engine.jacobian_reuses") == total("reuses")
    assert delta("engine.timesteps") == total("timesteps")
    assert delta("engine.solves") == total("solves")
    assert delta("engine.gmin_retries") == total("gmin_retries")
    if engine == "ensemble":
        assert delta("analysis.ensemble_transients") == 1
    else:
        assert delta("analysis.transients") == 1


def test_solver_stats_attached_even_when_disabled():
    """Stats ride on TransientResult regardless of tracing — only the
    registry flush is gated."""
    result = run_transient(_rc_circuit(), stop_time=10e-12, dt=1e-12,
                           initial_voltages={"in": 1.0})
    assert result.stats.timesteps == 10
    assert result.stats.iterations >= 10
    assert metrics().counter("engine.newton_iterations") == 0


def test_dc_iterations_match_registry():
    enable_tracing()
    dc = solve_dc(_rc_circuit())
    assert metrics().counter("engine.newton_iterations") == dc.iterations
    assert metrics().counter("engine.dc_solves") == 1


def test_stamp_seconds_recorded_per_device_class():
    enable_tracing()
    run_transient(_rc_circuit(), stop_time=10e-12, dt=1e-12,
                  initial_voltages={"in": 1.0})
    counters = metrics().snapshot()["counters"]
    stamp_keys = [k for k in counters if k.startswith("engine.stamp_seconds.")]
    assert "engine.stamp_seconds.static_copy" in stamp_keys


# ---------------------------------------------------------------------------
# Error context capture
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("options", [{}, {"engine": "sparse",
                                          "adaptive": True}],
                         ids=["fixed", "adaptive"])
def test_convergence_error_carries_span_stack(options):
    enable_tracing()
    metrics().inc("engine.newton_iterations", 7)
    with pytest.raises(ConvergenceError) as excinfo:
        run_transient(_rc_circuit(), stop_time=1.0, dt=1e-3,
                      initial_voltages={"in": 1.0}, timeout=1e-9, **options)
    err = excinfo.value
    assert "analysis.transient" in err.span_stack
    assert "engine.timestep_loop" in err.span_stack
    assert err.metrics_snapshot["counters"]["engine.newton_iterations"] == 7
    report = err.context_report()
    assert "analysis.transient > engine.timestep_loop" in report
    assert "engine.newton_iterations=7" in report


def test_netlist_error_carries_span_stack():
    broken = Circuit("floating")
    broken.add_vsource("v", "vdd", "0", 1.0)
    broken.add_resistor("r", "vdd", "0", 1e3)
    broken.add_resistor("r_island", "x", "y", 1e3)
    enable_tracing()
    with pytest.raises(NetlistError) as excinfo:
        with span("characterize.read", category="characterize"):
            solve_dc(broken)
    assert excinfo.value.span_stack == ("characterize.read",)
    assert excinfo.value.metrics_snapshot is not None


def test_error_context_empty_when_disabled():
    err = ConvergenceError("plain failure")
    assert err.span_stack == ()
    assert err.metrics_snapshot is None
    assert err.context_report() == ""


# ---------------------------------------------------------------------------
# Campaign timing (satellite: per-task wall-clock + attempts)
# ---------------------------------------------------------------------------


def _slowish_task(item, rng):
    if item == "bad":
        raise ValueError("always fails")
    return {"item": item}


def test_campaign_records_elapsed_and_attempts(tmp_path):
    checkpoint = str(tmp_path / "cp.jsonl")
    report = run_campaign(_slowish_task, ["a", "bad", "b"], name="timed",
                          workers=1, retries=1, checkpoint=checkpoint)
    assert report.completed == 2 and report.failed == 1
    assert report.attempts_total == 4  # 1 + 2 + 1
    assert all(r.elapsed >= 0.0 for r in report.records)
    assert report.elapsed_total == sum(r.elapsed for r in report.records)
    slowest = report.slowest(2)
    assert len(slowest) <= 2
    assert all(r.elapsed > 0.0 for r in slowest)
    summary = report.summary()
    assert "task wall-clock" in summary
    assert "attempt(s)" in summary
    data = report.to_json()
    assert data["elapsed_total"] == report.elapsed_total
    assert data["attempts_total"] == 4

    # Resume: skipped records keep the elapsed from the checkpoint.
    resumed = run_campaign(_slowish_task, ["a", "bad", "b"], name="timed",
                           workers=1, retries=1, checkpoint=checkpoint)
    skipped = [r for r in resumed.records if r.status == "skipped"]
    original = {r.index: r for r in report.records}
    assert skipped, "completed tasks should be skipped on resume"
    for record in skipped:
        assert record.elapsed == original[record.index].elapsed
        assert record.attempts == original[record.index].attempts


def test_old_checkpoint_without_elapsed_still_loads(tmp_path):
    """Checkpoints written before per-task timing existed lack the
    'elapsed' field; they must load with elapsed = 0.0, not crash."""
    path = tmp_path / "old.jsonl"
    lines = [json.dumps(_checkpoint_header("legacy", 2018, 2))]
    lines.append(json.dumps({"index": 0, "status": "completed",
                             "attempts": 1, "result": {"item": "a"},
                             "error": ""}))  # no 'elapsed'
    path.write_text("\n".join(lines) + "\n")
    report = run_campaign(_slowish_task, ["a", "b"], name="legacy",
                          seed=2018, workers=1, checkpoint=str(path))
    loaded = report.records[0]
    assert loaded.status == "skipped"
    assert loaded.elapsed == 0.0
    assert report.completed == 1 and report.skipped == 1


def test_campaign_counters_flushed_under_tracing():
    enable_tracing()
    report = run_campaign(_slowish_task, ["a", "bad"], name="traced",
                          workers=1, retries=1)
    assert metrics().counter("campaign.runs") == 1
    assert metrics().counter("campaign.attempts") == report.attempts_total
    assert metrics().counter("campaign.completed") == 1
    assert metrics().counter("campaign.failures") == 1
    tracer = disable_tracing()
    names = [r.name for r in tracer.records]
    assert "campaign.run" in names
    assert names.count("campaign.attempt") == report.attempts_total


def test_campaign_report_tolerates_legacy_json_records():
    """Aggregates work on records loaded from any checkpoint era."""
    records = (TaskRecord(index=0, status="completed", attempts=1,
                          result=1, elapsed=0.0),
               TaskRecord(index=1, status="completed", attempts=2,
                          result=2, elapsed=1.5))
    report = CampaignReport(name="n", seed=1, total=2, records=records)
    assert report.elapsed_total == 1.5
    assert report.attempts_total == 3
    assert [r.index for r in report.slowest()] == [1]


# ---------------------------------------------------------------------------
# Profile flow
# ---------------------------------------------------------------------------


def test_run_profile_campaign_smoke(tmp_path):
    from repro.obs.profile import run_profile

    result = run_profile("campaign", fast=True, out_dir=str(tmp_path))
    assert result.self_check["ok"], result.self_check
    assert {"engine", "analysis", "campaign"} <= set(result.categories)
    with open(result.trace_path, encoding="utf-8") as handle:
        assert validate_chrome_trace(json.load(handle)) > 0
    with open(result.profile_path, encoding="utf-8") as handle:
        profile = json.load(handle)
    assert profile["flow"] == "campaign"
    assert profile["self_check"]["ok"]
    assert profile["counters"]["engine.newton_iterations"] > 0
    assert result.breakdown.startswith("profile: campaign")
    # Tracing is off again after the profile run.
    from repro.obs import is_active
    assert not is_active()


def test_run_profile_table3_opens_physd_spans(tmp_path):
    from repro.obs.profile import run_profile

    result = run_profile("table3", fast=True, out_dir=str(tmp_path))
    with open(result.trace_path, encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    physd = {}
    for event in events:
        if event["cat"] == "physd":
            physd.setdefault(event["name"], []).append(event["args"])
    assert sorted(physd) == ["physd.generate_benchmark",
                             "physd.global_place", "physd.legalize"]
    for spans in physd.values():
        assert len(spans) == 2  # one per benchmark of the fast flow
        assert all(attrs["cells"] > 0 for attrs in spans)
    assert all(attrs["rows"] > 0 for attrs in physd["physd.legalize"])
    for attrs in physd["physd.global_place"]:
        assert attrs["cg_iterations_x"] > 0
        assert attrs["cg_iterations_y"] > 0


def test_run_profile_rejects_unknown_flow(tmp_path):
    from repro.errors import AnalysisError
    from repro.obs.profile import run_profile

    with pytest.raises(AnalysisError, match="unknown profile flow"):
        run_profile("nope", out_dir=str(tmp_path))


def test_cli_parses_profile_and_bench():
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["profile", "table2", "--fast",
                              "--out-dir", "/tmp/x", "--workers", "2"])
    assert args.flow == "table2" and args.fast and args.workers == 2
    # `bench` is no longer a subcommand: the timing harness is bench/run.py.
    with pytest.raises(SystemExit):
        parser.parse_args(["bench", "obs"])
