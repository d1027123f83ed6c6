"""Resilience tests for the campaign runner.

Worker functions live at module level so the process-pool path can
pickle them; the deliberately-crashing one uses ``os._exit`` to kill its
worker without giving the pool a chance to report — the pathology the
isolation machinery exists for.
"""

import json
import os
import time

import pytest

from repro.errors import CampaignError
from repro.faults import load_checkpoint, run_campaign, task_rng


def _square(item, rng):
    return {"value": item * item, "noise": float(rng.random())}


def _crash_if_marked(item, rng):
    if item == "crash":
        os._exit(13)  # kill the worker, not just the task
    return {"value": item}


def _sleep_if_marked(item, rng):
    if item == "sleep":
        time.sleep(30.0)
    return {"value": item}


def _fail_until_marker(item, rng):
    """Fails until a marker file exists, creating it on the way down —
    deterministic flakiness: attempt 1 fails, attempt 2 succeeds."""
    marker = item
    if os.path.exists(marker):
        return {"value": "recovered"}
    with open(marker, "w") as handle:
        handle.write("seen")
    raise RuntimeError("transient failure (first attempt)")


def _always_raise(item, rng):
    raise ValueError(f"task {item} is broken for good")


class TestTaskRng:
    def test_pure_function_of_seed_index_attempt(self):
        a = task_rng(2018, 3, 1).random(4)
        b = task_rng(2018, 3, 1).random(4)
        assert (a == b).all()

    def test_attempts_get_fresh_streams(self):
        first = task_rng(2018, 3, 1).random(4)
        retry = task_rng(2018, 3, 2).random(4)
        assert (first != retry).any()


class TestValidation:
    def test_negative_retries_rejected(self):
        with pytest.raises(CampaignError):
            run_campaign(_square, [1], retries=-1)

    def test_non_positive_timeout_rejected(self):
        with pytest.raises(CampaignError):
            run_campaign(_square, [1], timeout=0.0)


class TestSerialAndParallelAgree:
    def test_results_bit_identical(self):
        serial = run_campaign(_square, [1, 2, 3, 4], workers=1)
        pooled = run_campaign(_square, [1, 2, 3, 4], workers=4)
        assert serial.results() == pooled.results()
        assert serial.completed == pooled.completed == 4


class TestFailureModes:
    def test_always_failing_task_ends_failed_after_retries(self):
        report = run_campaign(_always_raise, ["a"], workers=1, retries=2)
        (record,) = report.records
        assert record.status == "failed"
        assert record.attempts == 3  # retries + 1
        assert "broken for good" in record.error
        assert report.results() == [None]

    def test_crashed_worker_is_isolated_from_siblings(self):
        report = run_campaign(_crash_if_marked,
                              ["ok1", "crash", "ok2", "ok3"],
                              workers=2, retries=1)
        by_index = {r.index: r for r in report.records}
        assert by_index[1].status == "failed"
        assert "died" in by_index[1].error
        survivors = [r for i, r in by_index.items() if i != 1]
        assert all(r.status == "completed" for r in survivors)
        assert any("quarantined" in note for note in report.notes)

    def test_timeout_fails_the_task_not_the_campaign(self):
        report = run_campaign(_sleep_if_marked, ["sleep", "quick"],
                              workers=2, timeout=0.5, retries=0)
        by_index = {r.index: r for r in report.records}
        assert by_index[0].status == "failed"
        assert "timeout" in by_index[0].error
        assert by_index[1].status == "completed"

    def test_flaky_task_recovers_on_retry(self, tmp_path):
        marker = str(tmp_path / "flaky-marker")
        report = run_campaign(_fail_until_marker, [marker],
                              workers=1, retries=2)
        (record,) = report.records
        assert record.status == "completed"
        assert record.attempts == 2
        assert report.retried == 1


class TestCheckpointResume:
    def test_interrupted_resume_is_bit_identical(self, tmp_path):
        items = [1, 2, 3, 4, 5]
        uninterrupted = run_campaign(_square, items, workers=1)

        path = str(tmp_path / "campaign.jsonl")
        run_campaign(_square, items, workers=1, checkpoint=path)
        # Emulate a kill: keep header + 2 records, then a torn final line.
        lines = open(path).read().splitlines()
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:3]) + "\n")
            handle.write('{"index": 2, "status": "comp')  # torn write
        resumed = run_campaign(_square, items, workers=1, checkpoint=path)

        assert resumed.results() == uninterrupted.results()
        assert resumed.skipped == 2
        assert resumed.completed == 3
        assert any("truncated final line" in n for n in resumed.notes)
        assert any("resumed from" in n for n in resumed.notes)

    def test_failed_tasks_rerun_on_resume(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        marker = str(tmp_path / "flaky-marker")
        first = run_campaign(_fail_until_marker, [marker], workers=1,
                             retries=0, checkpoint=path)
        assert first.failed == 1
        second = run_campaign(_fail_until_marker, [marker], workers=1,
                              retries=0, checkpoint=path)
        assert second.failed == 0
        assert second.completed == 1

    def test_header_mismatch_refuses_to_mix(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        run_campaign(_square, [1, 2], workers=1, checkpoint=path,
                     name="alpha")
        with pytest.raises(CampaignError, match="different campaign"):
            run_campaign(_square, [1, 2], workers=1, checkpoint=path,
                         name="beta")
        with pytest.raises(CampaignError, match="different campaign"):
            run_campaign(_square, [1, 2, 3], workers=1, checkpoint=path,
                         name="alpha")  # different total

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        run_campaign(_square, [1, 2, 3], workers=1, checkpoint=path)
        lines = open(path).read().splitlines()
        lines[2] = "not json at all"
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(CampaignError, match="corrupt"):
            load_checkpoint(path, "campaign", 2018, 3)

    @pytest.mark.parametrize("line", [
        '{"index": 1}',
        '[1, 2]',
        '{"index": "one", "status": "completed", "attempts": 1}',
    ])
    def test_malformed_record_names_its_line(self, tmp_path, line):
        path = str(tmp_path / "campaign.jsonl")
        run_campaign(_square, [1, 2, 3], workers=1, checkpoint=path)
        lines = open(path).read().splitlines()
        lines[2] = line
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(CampaignError, match="line 3 is malformed"):
            load_checkpoint(path, "campaign", 2018, 3)

    def test_empty_checkpoint_starts_fresh(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        open(path, "w").close()
        report = run_campaign(_square, [1, 2], workers=1, checkpoint=path)
        assert report.completed == 2
        assert any("empty" in note for note in report.notes)


class TestSerialFallback:
    def test_pool_failure_warns_and_notes(self, monkeypatch):
        from repro.faults import campaign as campaign_module

        def broken_pool(*args, **kwargs):
            raise OSError("no semaphores here")

        monkeypatch.setattr(campaign_module, "ProcessPoolExecutor",
                            broken_pool)
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            report = run_campaign(_square, [1, 2, 3], workers=4)
        assert report.completed == 3
        assert any("running serially" in note for note in report.notes)


class TestReport:
    def test_summary_names_failures_and_notes(self):
        report = run_campaign(_always_raise, ["x"], workers=1, retries=0)
        text = report.summary()
        assert "FAILED" in text and "1 attempt" in text

    def test_to_json_round_trips_through_json(self):
        report = run_campaign(_square, [1, 2], workers=1)
        data = json.loads(json.dumps(report.to_json()))
        assert data["completed"] == 2
        assert data["records"][0]["result"] == report.results()[0]
