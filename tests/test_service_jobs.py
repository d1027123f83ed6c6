"""The async job manager: queueing, coalescing, quotas, recovery.

Most tests run a cheap in-process ``echo`` flow (registered through the
public :func:`~repro.service.jobs.flow_runner` hook) so the queue
mechanics are tested in milliseconds; the real paper flows get their
end-to-end run in ``test_service_http.py``.  Determinism trick
throughout: :meth:`JobManager.pause` holds queued jobs, so tests can
build exact queue states before letting the workers loose.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import AnalysisError, QuotaError, ServiceError
from repro.obs import metrics
from repro.serialize import stable_digest
from repro.service import (
    FLOWS,
    JobManager,
    ServiceConfig,
    flow_runner,
)
from repro.service.jobs import _error_payload, validate_submission


def _counters():
    return dict(metrics().counters)


def _delta(before, after):
    return {k: v - before.get(k, 0)
            for k, v in after.items() if v != before.get(k, 0)}


@pytest.fixture()
def echo_calls():
    """Register a cheap 'echo' flow; yields its call log."""
    calls = []

    @flow_runner("echo", allowed_params=("value", "sleep", "boom"),
                 replace=True)
    def _echo(session, params):
        calls.append(dict(params))
        if params.get("sleep"):
            time.sleep(float(params["sleep"]))
        if params.get("boom"):
            raise AnalysisError(f"boom: {params['boom']}")
        return {"flow": "echo", "value": params.get("value")}

    yield calls
    FLOWS.pop("echo", None)


@pytest.fixture()
def manager(tmp_path, echo_calls):
    manager = JobManager(str(tmp_path / "jobs.sqlite"),
                         ServiceConfig(worker_threads=1))
    yield manager
    manager.close()


class TestValidation:
    def test_unknown_flow_suggests_names(self, manager):
        with pytest.raises(ServiceError, match="unknown flow 'table_2'"):
            validate_submission("table_2", {})

    def test_unknown_param_lists_allowed(self, echo_calls):
        with pytest.raises(ServiceError,
                           match=r"\['valeu'\].*allowed.*value"):
            validate_submission("echo", {"valeu": 1})

    def test_uncanonical_params_rejected_at_submit(self, manager):
        with pytest.raises(ServiceError, match="not canonically"):
            manager.submit("echo", {"value": {1, 2}})

    def test_duplicate_flow_registration_rejected(self, echo_calls):
        with pytest.raises(ServiceError, match="duplicate flow"):
            flow_runner("echo")(lambda session, params: {})

    def test_worker_threads_must_be_positive(self, tmp_path):
        with pytest.raises(ServiceError, match="worker_threads"):
            JobManager(str(tmp_path / "j.sqlite"),
                       ServiceConfig(worker_threads=0))


class TestQueueAndCoalescing:
    def test_identical_submissions_coalesce_to_one_execution(
            self, manager, echo_calls):
        before = _counters()
        manager.pause()
        a = manager.submit("echo", {"value": 7})
        b = manager.submit("echo", {"value": 7})
        c = manager.submit("echo", {"value": 8})
        assert a.state == "queued"
        assert b.state == "coalesced" and b.leader == a.job_id
        assert c.state == "queued"
        assert a.job_key == b.job_key != c.job_key
        manager.resume()
        done_a = manager.result(a.job_id, wait=True, timeout=30)
        done_b = manager.result(b.job_id, wait=True, timeout=30)
        assert done_a.state == done_b.state == "done"
        assert done_b.job_id == a.job_id  # resolved through the leader
        assert done_a.result == {"flow": "echo", "value": 7}
        assert len([c_ for c_ in echo_calls if c_.get("value") == 7]) == 1
        # The single worker may not have claimed job c yet; wait for it so
        # the counter snapshot sees both executions.
        manager.result(c.job_id, wait=True, timeout=30)
        delta = _delta(before, _counters())
        assert delta["service.submit"] == 3
        assert delta["service.coalesced"] == 1
        assert delta["service.job.run"] == 2
        assert delta["service.job.done"] == 2

    def test_tenant_and_priority_do_not_split_the_flight(self, manager):
        manager.pause()
        a = manager.submit("echo", {"value": 1}, tenant="alice", priority=0)
        b = manager.submit("echo", {"value": 1}, tenant="bob", priority=9)
        assert b.state == "coalesced" and b.leader == a.job_id

    def test_result_digest_matches_payload(self, manager):
        record = manager.submit("echo", {"value": 3})
        done = manager.result(record.job_id, wait=True, timeout=30)
        assert done.result_digest == stable_digest(done.result)

    def test_priority_orders_execution(self, manager, echo_calls):
        manager.pause()
        manager.submit("echo", {"value": "low"})
        manager.submit("echo", {"value": "high"}, priority=5)
        manager.submit("echo", {"value": "mid"}, priority=1)
        manager.resume()
        deadline = time.monotonic() + 30
        while len(echo_calls) < 3 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert [c["value"] for c in echo_calls] == ["high", "mid", "low"]

    def test_completed_key_does_not_coalesce_later_submission(
            self, manager, echo_calls):
        first = manager.submit("echo", {"value": 2})
        assert manager.result(first.job_id, wait=True,
                              timeout=30).state == "done"
        again = manager.submit("echo", {"value": 2})
        assert again.state == "queued"  # the flight is over; a new one
        assert manager.result(again.job_id, wait=True,
                              timeout=30).state == "done"
        assert len(echo_calls) == 2

    def test_result_wait_timeout_returns_nonterminal(self, manager):
        manager.pause()
        record = manager.submit("echo", {"value": 1})
        got = manager.result(record.job_id, wait=True, timeout=0.2)
        assert got.state == "queued"

    def test_status_unknown_job(self, manager):
        with pytest.raises(ServiceError, match="unknown job 'nope'"):
            manager.status("nope")

    def test_submit_after_stop_rejected(self, manager):
        manager.stop()
        with pytest.raises(ServiceError, match="shutting down"):
            manager.submit("echo", {"value": 1})


class TestQuota:
    def test_quota_blocks_then_frees(self, tmp_path, echo_calls):
        manager = JobManager(str(tmp_path / "q.sqlite"),
                             ServiceConfig(worker_threads=1, quota=2))
        try:
            manager.pause()
            manager.submit("echo", {"value": 1}, tenant="t")
            manager.submit("echo", {"value": 2}, tenant="t")
            with pytest.raises(QuotaError, match="quota exhausted"):
                manager.submit("echo", {"value": 3}, tenant="t")
            # Another tenant is unaffected; coalesced followers are not
            # "active" so they never count against the quota.
            manager.submit("echo", {"value": 1}, tenant="other")
            follower = manager.submit("echo", {"value": 1}, tenant="t")
            assert follower.state == "coalesced"
            manager.resume()
            manager.result(follower.job_id, wait=True, timeout=30)
            record = manager.submit("echo", {"value": 3}, tenant="t")
            assert manager.result(record.job_id, wait=True,
                                  timeout=30).state == "done"
        finally:
            manager.close()

    def test_quota_zero_disables(self, tmp_path, echo_calls):
        manager = JobManager(str(tmp_path / "q0.sqlite"),
                             ServiceConfig(worker_threads=1, quota=0))
        try:
            manager.pause()
            for value in range(40):
                manager.submit("echo", {"value": value})
        finally:
            manager.close()


class TestCancel:
    def test_cancel_queued_job(self, manager):
        before = _counters()
        manager.pause()
        record = manager.submit("echo", {"value": 1})
        cancelled = manager.cancel(record.job_id)
        assert cancelled.state == "cancelled"
        assert cancelled.finished is not None
        assert _delta(before, _counters())["service.cancelled"] == 1

    def test_cancel_follower_leaves_leader_running(self, manager,
                                                   echo_calls):
        manager.pause()
        leader = manager.submit("echo", {"value": 1})
        follower = manager.submit("echo", {"value": 1})
        assert manager.cancel(follower.job_id).state == "cancelled"
        manager.resume()
        assert manager.result(leader.job_id, wait=True,
                              timeout=30).state == "done"
        assert len(echo_calls) == 1

    def test_cancel_leader_promotes_first_follower(self, manager,
                                                   echo_calls):
        manager.pause()
        leader = manager.submit("echo", {"value": 1})
        f1 = manager.submit("echo", {"value": 1})
        f2 = manager.submit("echo", {"value": 1})
        manager.cancel(leader.job_id)
        promoted = manager.status(f1.job_id)
        assert promoted.state == "queued" and promoted.leader is None
        assert manager.status(f2.job_id).leader == f1.job_id
        manager.resume()
        done = manager.result(f2.job_id, wait=True, timeout=30)
        assert done.state == "done" and done.job_id == f1.job_id
        assert len(echo_calls) == 1

    def test_cancel_running_or_terminal_rejected(self, manager):
        record = manager.submit("echo", {"sleep": 1.5})
        deadline = time.monotonic() + 10
        while (manager.status(record.job_id).state != "running"
               and time.monotonic() < deadline):
            time.sleep(0.02)
        with pytest.raises(ServiceError, match="is running"):
            manager.cancel(record.job_id)
        done = manager.result(record.job_id, wait=True, timeout=30)
        assert done.state == "done"
        with pytest.raises(ServiceError, match="is done"):
            manager.cancel(record.job_id)


class TestFailures:
    def test_flow_failure_lands_structured_error(self, manager):
        before = _counters()
        record = manager.submit("echo", {"boom": "bad bias"})
        failed = manager.result(record.job_id, wait=True, timeout=30)
        assert failed.state == "failed"
        assert failed.error["type"] == "AnalysisError"
        assert "bad bias" in failed.error["message"]
        assert failed.result is None
        assert _delta(before, _counters())["service.job.failed"] == 1

    def test_error_payload_carries_forensics_bundle(self):
        class _Bundle:
            def to_json(self):
                return {"ladder": ["gmin=1e-9"], "residual": 1e-3}

        exc = AnalysisError("solver died")
        exc.forensics = _Bundle()
        payload = _error_payload(exc)
        assert payload["type"] == "AnalysisError"
        assert payload["forensics"]["ladder"] == ["gmin=1e-9"]

    def test_failed_leader_propagates_to_followers(self, manager):
        manager.pause()
        leader = manager.submit("echo", {"boom": "x"})
        follower = manager.submit("echo", {"boom": "x"})
        manager.resume()
        resolved = manager.result(follower.job_id, wait=True, timeout=30)
        assert resolved.state == "failed"
        assert resolved.job_id == leader.job_id


class TestRestartRecovery:
    def test_queued_jobs_resume_after_restart(self, tmp_path, echo_calls):
        db = str(tmp_path / "jobs.sqlite")
        first = JobManager(db, ServiceConfig(worker_threads=1),
                           autostart=False)
        a = first.submit("echo", {"value": 1})
        b = first.submit("echo", {"value": 1})   # coalesced follower
        c = first.submit("echo", {"value": 2})
        first.close()
        assert echo_calls == []                  # nothing ran

        before = _counters()
        second = JobManager(db, ServiceConfig(worker_threads=1))
        try:
            assert _delta(before, _counters())["service.resumed"] == 2
            done_b = second.result(b.job_id, wait=True, timeout=30)
            done_c = second.result(c.job_id, wait=True, timeout=30)
            assert done_b.state == done_c.state == "done"
            assert done_b.job_id == a.job_id
            assert done_b.result == {"flow": "echo", "value": 1}
            assert len(echo_calls) == 2
        finally:
            second.close()

    def test_mid_flight_running_job_requeues(self, tmp_path, echo_calls):
        db = str(tmp_path / "jobs.sqlite")
        first = JobManager(db, ServiceConfig(worker_threads=1),
                           autostart=False)
        record = first.submit("echo", {"value": 5})
        # Simulate a kill mid-execution: the store says "running" but the
        # process died before any result landed.
        record.state = "running"
        record.started = time.time()
        record.attempts = 1
        first.store.save(record)
        first.stop()
        first.store.close()

        second = JobManager(db, ServiceConfig(worker_threads=1))
        try:
            done = second.result(record.job_id, wait=True, timeout=30)
            assert done.state == "done"
            assert done.attempts == 2            # original try + re-run
            assert done.result == {"flow": "echo", "value": 5}
        finally:
            second.close()

    def test_coalescer_rebuilds_so_new_submissions_still_coalesce(
            self, tmp_path, echo_calls):
        db = str(tmp_path / "jobs.sqlite")
        first = JobManager(db, ServiceConfig(worker_threads=1),
                           autostart=False)
        leader = first.submit("echo", {"value": 9})
        first.close()

        second = JobManager(db, ServiceConfig(worker_threads=1),
                            autostart=False)
        try:
            second.pause()
            follower = second.submit("echo", {"value": 9})
            assert follower.state == "coalesced"
            assert follower.leader == leader.job_id
        finally:
            second.close()


class TestConcurrentSubmitters:
    def test_many_threads_one_execution(self, tmp_path, echo_calls):
        manager = JobManager(str(tmp_path / "c.sqlite"),
                             ServiceConfig(worker_threads=2, quota=0))
        try:
            manager.pause()
            n = 12
            barrier = threading.Barrier(n)
            records, errors = [None] * n, []

            def submit(slot):
                try:
                    barrier.wait(timeout=10)
                    records[slot] = manager.submit("echo", {"value": 42})
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not errors
            leaders = [r for r in records if r.state == "queued"]
            followers = [r for r in records if r.state == "coalesced"]
            assert len(leaders) == 1 and len(followers) == n - 1
            assert {f.leader for f in followers} == {leaders[0].job_id}
            manager.resume()
            resolved = [manager.result(r.job_id, wait=True, timeout=30)
                        for r in records]
            assert {r.state for r in resolved} == {"done"}
            assert {r.result_digest for r in resolved} == {
                leaders[0].job_id and resolved[0].result_digest}
            assert len(echo_calls) == 1
        finally:
            manager.close()
