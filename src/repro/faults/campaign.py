"""Resilient Monte-Carlo campaign runner.

:func:`run_campaign` layers reliability-engineering machinery on top of
the deterministic pool mapping of :mod:`repro.parallel`:

* **per-task wall-clock timeout** — enforced cooperatively inside the
  worker via ``SIGALRM``/``setitimer``, so a pathological injected
  circuit aborts promptly and the pool stays healthy;
* **bounded retry with a reseeded RNG** — attempt *k* of task *i* draws
  from ``SeedSequence(seed, spawn_key=(i, k))``: independent of every
  other (task, attempt) stream yet a pure function of ``(seed, i, k)``,
  so reruns are bit-reproducible;
* **crashed-worker isolation** — a task that kills its worker process
  (segfault, ``os._exit``) breaks a :class:`ProcessPoolExecutor`
  irrecoverably and takes every in-flight sibling's future with it; the
  runner then *quarantines* the affected tasks, retrying each inside its
  own fresh single-worker executor, so one poisoned sample can only
  break its own sandbox while the rest of the 10k-point campaign
  completes;
* **JSONL checkpointing** — every finished task appends one line
  (flushed) to the checkpoint file; an interrupted campaign resumed from
  the same file re-runs only the missing tasks and produces **bit
  -identical aggregates** to the uninterrupted run (results are
  canonicalised through a JSON round-trip on *every* path, and Python's
  repr-based float serialisation round-trips exactly);
* **structured reporting** — :class:`CampaignReport` counts completed /
  retried / failed / skipped tasks and records degradations (serial
  fallback, pool breaks) as human-readable notes instead of losing them
  in a log.

Task functions must be picklable module-level callables with signature
``fn(item, rng) -> result`` where ``result`` is JSON-serialisable (plain
dicts/lists/numbers — convert numpy scalars with ``float()``).
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CampaignError
from repro.mtj.variation import DEFAULT_SEED
from repro.serialize import Serializable
from repro.obs import is_active as _obs_active
from repro.obs import metrics as _obs_metrics
from repro.obs import span as _obs_span

#: Checkpoint format version (header field; bumped on incompatible change).
CHECKPOINT_VERSION = 1
#: Default bounded-retry count (max_attempts = retries + 1).
DEFAULT_RETRIES = 2


def task_rng(seed: int, index: int, attempt: int) -> np.random.Generator:
    """The RNG stream of attempt ``attempt`` of task ``index``.

    A pure function of ``(seed, index, attempt)`` — the reseeding
    contract that makes retried campaigns reproducible: a retry sees a
    *fresh* stream (a transient numerical freak does not repeat
    deterministically) while a rerun of the same attempt sees the *same*
    stream.
    """
    ss = np.random.SeedSequence(seed, spawn_key=(index, attempt))
    return np.random.Generator(np.random.PCG64(ss))


class _TaskTimeout(Exception):
    """Internal: raised inside a worker when the task alarm fires."""


class _alarm:
    """Cooperative wall-clock limit via ``setitimer`` (no-op when the
    platform lacks it or we are not on the main thread)."""

    def __init__(self, seconds: Optional[float]):
        self.seconds = seconds
        self.active = (
            seconds is not None
            and hasattr(signal, "setitimer")
            and threading.current_thread() is threading.main_thread()
        )
        self._previous: Any = None

    def __enter__(self) -> "_alarm":
        if self.active:
            def _on_alarm(signum, frame):
                raise _TaskTimeout()

            self._previous = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)


def _execute_task(payload: Tuple) -> Dict[str, Any]:
    """Run one attempt of one task; never raises (crashes excepted).

    Executed in a worker process (or inline on the serial path).  The
    returned dict is the attempt outcome: ``status`` is ``"ok"``,
    ``"error"`` or ``"timeout"``; ``result`` is already canonicalised
    through a JSON round-trip so in-memory and resumed-from-checkpoint
    campaigns see identical values.
    """
    fn, item, seed, index, attempt, timeout = payload
    start = time.monotonic()
    # Real span on the serial/in-process path; NULL_SPAN (free) inside a
    # campaign worker process, where tracing is not initialised.
    span = _obs_span("campaign.attempt", category="campaign",
                     attrs={"task": index, "attempt": attempt})
    with span:
        try:
            with _alarm(timeout):
                result = fn(item, task_rng(seed, index, attempt))
            result = json.loads(json.dumps(result))
        except _TaskTimeout:
            span.annotate(status="timeout")
            return {"status": "timeout", "result": None,
                    "error": f"task {index} exceeded its {timeout:g} s "
                             f"timeout (attempt {attempt})",
                    "elapsed": time.monotonic() - start}
        except BaseException as exc:  # noqa: BLE001 — the pool must survive
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            span.annotate(status="error")
            outcome = {"status": "error", "result": None,
                       "error": f"{type(exc).__name__}: {exc}",
                       "elapsed": time.monotonic() - start}
            # Solver exhaustion carries a ForensicsBundle (see
            # repro.recovery.forensics); ship its JSON form across the
            # process boundary so the runner can dump it to disk.
            bundle = getattr(exc, "forensics", None)
            if bundle is not None and hasattr(bundle, "to_json"):
                outcome["forensics"] = bundle.to_json()
            return outcome
        span.annotate(status="ok")
        return {"status": "ok", "result": result, "error": "",
                "elapsed": time.monotonic() - start}


@dataclass
class TaskRecord:
    """Final outcome of one campaign task."""

    index: int
    #: ``"completed"`` | ``"failed"`` | ``"skipped"`` (loaded from checkpoint).
    status: str
    attempts: int
    result: Any = None
    error: str = ""
    elapsed: float = 0.0
    #: Path of the forensics-bundle dump for a failed task, when the
    #: campaign ran with ``forensics_dir`` and the failure carried one.
    forensics: Optional[str] = None

    def to_json(self) -> Dict[str, Any]:
        return {"index": self.index, "status": self.status,
                "attempts": self.attempts, "result": self.result,
                "error": self.error, "elapsed": self.elapsed,
                "forensics": self.forensics}

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "TaskRecord":
        return cls(index=int(data["index"]), status=str(data["status"]),
                   attempts=int(data["attempts"]),
                   result=data.get("result"),
                   error=str(data.get("error", "")),
                   elapsed=float(data.get("elapsed", 0.0)),
                   forensics=data.get("forensics"))


@dataclass
class CampaignReport(Serializable):
    """Structured outcome of one :func:`run_campaign` invocation.

    ``to_json``/``from_json`` follow the shared
    :class:`~repro.serialize.Serializable` protocol (versioned
    ``"schema"`` field, tolerated when absent); the derived counters
    (``completed``, ``failed``, ...) appear in the payload for human
    consumption but are recomputed from the records on load.
    """

    SCHEMA_NAME = "CampaignReport"
    SCHEMA_VERSION = 1

    name: str
    seed: int
    total: int
    records: Tuple[TaskRecord, ...]
    #: Degradations and resume events, human readable.
    notes: Tuple[str, ...] = ()
    checkpoint: Optional[str] = None

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.status == "completed")

    @property
    def skipped(self) -> int:
        """Tasks satisfied from the checkpoint instead of being re-run."""
        return sum(1 for r in self.records if r.status == "skipped")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.status == "failed")

    @property
    def retried(self) -> int:
        """Tasks that needed more than one attempt (whatever the outcome)."""
        return sum(1 for r in self.records if r.attempts > 1)

    @property
    def elapsed_total(self) -> float:
        """Summed per-task wall-clock [s] of the final attempts (skipped
        tasks contribute the time recorded in the checkpoint they were
        loaded from; records from pre-timing checkpoints contribute 0)."""
        return sum(r.elapsed for r in self.records)

    @property
    def attempts_total(self) -> int:
        """Attempts consumed across all tasks (skipped tasks count the
        attempts recorded when they originally completed)."""
        return sum(r.attempts for r in self.records)

    def slowest(self, n: int = 3) -> List[TaskRecord]:
        """The ``n`` tasks with the longest final-attempt wall-clock,
        slowest first (ties broken by task index for determinism)."""
        timed = sorted(self.records, key=lambda r: (-r.elapsed, r.index))
        return [r for r in timed[:n] if r.elapsed > 0.0]

    def results(self) -> List[Any]:
        """Per-task results in item order (``None`` for failed tasks).

        Skipped (checkpoint-loaded) and freshly-computed results are both
        JSON-canonical, so aggregates over this list are bit-identical
        between interrupted-and-resumed and uninterrupted campaigns.
        """
        return [r.result if r.status in ("completed", "skipped") else None
                for r in self.records]

    def failures(self) -> List[TaskRecord]:
        return [r for r in self.records if r.status == "failed"]

    def summary(self) -> str:
        lines = [
            f"campaign {self.name!r}: {self.total} task(s), seed {self.seed}",
            f"  completed {self.completed}  skipped {self.skipped}  "
            f"retried {self.retried}  failed {self.failed}",
            f"  task wall-clock {self.elapsed_total:.3f} s over "
            f"{self.attempts_total} attempt(s)",
        ]
        slow = self.slowest()
        if slow:
            lines.append("  slowest: " + ", ".join(
                f"task {r.index} ({r.elapsed:.3f} s)" for r in slow))
        for record in self.failures():
            lines.append(f"  task {record.index} FAILED after "
                         f"{record.attempts} attempt(s): {record.error}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        if self.checkpoint:
            lines.append(f"  checkpoint: {self.checkpoint}")
        return "\n".join(lines)

    def payload(self) -> Dict[str, Any]:
        return {
            "name": self.name, "seed": self.seed, "total": self.total,
            "completed": self.completed, "skipped": self.skipped,
            "retried": self.retried, "failed": self.failed,
            "elapsed_total": self.elapsed_total,
            "attempts_total": self.attempts_total,
            "notes": list(self.notes),
            "checkpoint": self.checkpoint,
            "records": [r.to_json() for r in self.records],
        }

    @classmethod
    def from_payload(cls, data: Dict[str, Any]) -> "CampaignReport":
        try:
            return cls(
                name=str(data["name"]), seed=int(data["seed"]),
                total=int(data["total"]),
                records=tuple(TaskRecord.from_json(r)
                              for r in data["records"]),
                notes=tuple(str(n) for n in data.get("notes", ())),
                checkpoint=data.get("checkpoint"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CampaignError(
                f"malformed CampaignReport record: {exc}") from exc


# ---------------------------------------------------------------------------
# Checkpoint I/O
# ---------------------------------------------------------------------------


def _checkpoint_header(name: str, seed: int, total: int) -> Dict[str, Any]:
    return {"kind": "campaign", "version": CHECKPOINT_VERSION,
            "name": name, "seed": seed, "total": total}


def load_checkpoint(
    path: str, name: str, seed: int, total: int
) -> Tuple[Dict[int, TaskRecord], List[str]]:
    """Read a checkpoint file back into per-task records.

    Returns ``(records, notes)`` where ``records`` maps task index to the
    *last* record written for it (a resumed campaign appends; later lines
    win).  A truncated final line — the signature of a killed process —
    is tolerated and noted; corruption anywhere else, or a header that
    does not match this campaign's identity, raises
    :class:`~repro.errors.CampaignError`.
    """
    notes: List[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    lines = [line for line in lines if line.strip()]
    if not lines:
        return {}, [f"checkpoint {path} was empty; starting fresh"]

    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CampaignError(
            f"checkpoint {path} has an unreadable header line: {exc}") from exc
    expected = _checkpoint_header(name, seed, total)
    if header != expected:
        raise CampaignError(
            f"checkpoint {path} belongs to a different campaign: header "
            f"{header!r} does not match {expected!r} — refusing to mix "
            f"results (delete the file or change the checkpoint path)")

    records: Dict[int, TaskRecord] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines):
                notes.append(
                    f"checkpoint {path}: discarded truncated final line "
                    f"(interrupted write)")
                break
            raise CampaignError(
                f"checkpoint {path} is corrupt at line {lineno} (not valid "
                f"JSON, and not the final line)") from None
        try:
            record = TaskRecord.from_json(entry)
        except (KeyError, TypeError, ValueError) as exc:
            raise CampaignError(
                f"checkpoint {path} line {lineno} is malformed: {exc}") from exc
        if not 0 <= record.index < total:
            raise CampaignError(
                f"checkpoint {path} line {lineno} names task {record.index}, "
                f"outside this campaign's 0..{total - 1}")
        records[record.index] = record
    return records, notes


class _CheckpointWriter:
    """Append-only JSONL writer, flushing after every record so a killed
    process loses at most the line it was writing."""

    def __init__(self, path: str, name: str, seed: int, total: int,
                 fresh: bool):
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "w" if fresh else "a", encoding="utf-8")
        if fresh:
            self._write(_checkpoint_header(name, seed, total))

    def _write(self, obj: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(obj) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def record(self, record: TaskRecord) -> None:
        self._write(record.to_json())

    def close(self) -> None:
        self._handle.close()


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


def run_campaign(
    fn: Callable[[Any, np.random.Generator], Any],
    items: Sequence[Any],
    name: str = "campaign",
    seed: int = DEFAULT_SEED,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = DEFAULT_RETRIES,
    checkpoint: Optional[str] = None,
    forensics_dir: Optional[str] = None,
) -> CampaignReport:
    """Run ``fn(item, rng)`` over every item, resiliently.

    * ``workers`` — as in :func:`repro.parallel.parallel_map`; ``<= 1``
      forces the serial path.
    * ``timeout`` — per-attempt wall-clock limit [s], enforced inside the
      worker; a timed-out attempt counts against the retry budget.
    * ``retries`` — extra attempts per task (``max_attempts = retries +
      1``); each attempt reseeds via :func:`task_rng`.
    * ``checkpoint`` — JSONL path; an existing compatible file is
      resumed: its completed tasks come back as ``skipped`` and its
      previously-failed tasks are re-run from attempt 1.
    * ``forensics_dir`` — directory for failure forensics: when a task's
      final attempt died on a solver exhaustion that carries a
      :class:`~repro.recovery.forensics.ForensicsBundle`, its JSON form
      is written to ``<forensics_dir>/task-<index>.json`` and the path
      is recorded on the task's :class:`TaskRecord`.

    Never raises for task-level trouble — errors, timeouts and even
    worker-process crashes end up as ``failed`` records in the returned
    :class:`CampaignReport`.  Configuration problems (bad checkpoint,
    negative retries, ...) raise :class:`~repro.errors.CampaignError`.
    """
    from repro.parallel import default_workers

    items = list(items)
    total = len(items)
    if retries < 0:
        raise CampaignError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0.0:
        raise CampaignError(f"timeout must be positive, got {timeout}")
    max_attempts = retries + 1
    if workers is None:
        workers = default_workers()

    records: Dict[int, TaskRecord] = {}
    notes: List[str] = []
    writer: Optional[_CheckpointWriter] = None
    if checkpoint is not None:
        fresh = True
        if os.path.exists(checkpoint):
            loaded, load_notes = load_checkpoint(checkpoint, name, seed, total)
            notes.extend(load_notes)
            done = {i: r for i, r in loaded.items() if r.status == "completed"}
            refailed = [i for i, r in loaded.items() if r.status == "failed"]
            for index, record in done.items():
                records[index] = TaskRecord(
                    index=index, status="skipped", attempts=record.attempts,
                    result=record.result, elapsed=record.elapsed)
            if done or refailed:
                fresh = False
                notes.append(
                    f"resumed from {checkpoint}: {len(done)} task(s) loaded, "
                    f"{len(refailed)} previously-failed task(s) re-run")
        writer = _CheckpointWriter(checkpoint, name, seed, total, fresh=fresh)

    todo = [i for i in range(total) if i not in records]
    attempts: Dict[int, int] = {i: 0 for i in todo}

    run_span = _obs_span("campaign.run", category="campaign",
                         attrs={"name": name, "total": total,
                                "workers": workers})

    def dump_forensics(index: int, outcome: Dict[str, Any]) -> Optional[str]:
        """Write a failed task's forensics bundle; returns the path."""
        bundle = outcome.get("forensics")
        if bundle is None or forensics_dir is None:
            return None
        os.makedirs(forensics_dir, exist_ok=True)
        path = os.path.join(forensics_dir, f"task-{index}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(bundle, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    def finish(index: int, status: str, outcome: Dict[str, Any]) -> None:
        forensics_path = None
        if status == "failed":
            forensics_path = dump_forensics(index, outcome)
        record = TaskRecord(
            index=index, status=status, attempts=attempts[index],
            result=outcome["result"] if status == "completed" else None,
            error=outcome.get("error", ""),
            elapsed=float(outcome.get("elapsed", 0.0)),
            forensics=forensics_path)
        records[index] = record
        if writer is not None:
            writer.record(record)

    def settle(index: int, outcome: Dict[str, Any]) -> bool:
        """Record a finished attempt; True when the task is done for good."""
        if outcome["status"] == "ok":
            finish(index, "completed", outcome)
            return True
        if attempts[index] >= max_attempts:
            finish(index, "failed", outcome)
            return True
        return False

    def payload(index: int) -> Tuple:
        return (fn, items[index], seed, index, attempts[index], timeout)

    serial = workers <= 1 or len(todo) <= 1
    isolated: List[int] = []

    with run_span:
        try:
            if not serial and todo:
                pool_broken = False
                while todo and not pool_broken:
                    round_items = list(todo)
                    retry_round: List[int] = []
                    try:
                        pool = ProcessPoolExecutor(
                            max_workers=min(workers, len(round_items)))
                    except (OSError, ImportError) as exc:
                        # No process pools in this environment at all: run
                        # everything serially (no attempts were consumed).
                        reason = (f"process pool unavailable "
                                  f"({type(exc).__name__}: {exc}); running "
                                  f"serially")
                        warnings.warn(reason, RuntimeWarning, stacklevel=2)
                        notes.append(reason)
                        serial = True
                        break
                    with pool:
                        future_to_index = {}
                        try:
                            for index in round_items:
                                attempts[index] += 1
                                future = pool.submit(_execute_task, payload(index))
                                future_to_index[future] = index
                        except BrokenExecutor:
                            pool_broken = True  # died while we were submitting
                        for future in as_completed(future_to_index):
                            index = future_to_index[future]
                            try:
                                outcome = future.result()
                            except BrokenExecutor as exc:
                                # The pool is gone and cannot say which task
                                # killed it: quarantine every unresolved task.
                                pool_broken = True
                                if attempts[index] >= max_attempts:
                                    finish(index, "failed", {
                                        "result": None,
                                        "error": f"worker process died "
                                                 f"({type(exc).__name__})"})
                                else:
                                    isolated.append(index)
                                continue
                            if not settle(index, outcome):
                                retry_round.append(index)
                    if pool_broken:
                        # Sweep up everything from this round that has no final
                        # record yet (includes would-be retries and tasks whose
                        # submission the break pre-empted).
                        isolated.extend(i for i in round_items
                                        if i not in records and i not in isolated)
                        notes.append(
                            f"worker pool broke; quarantined {len(isolated)} "
                            f"task(s) into single-worker isolation")
                        todo = []
                    else:
                        todo = retry_round

            for index in isolated:
                while index not in records:
                    attempts[index] += 1
                    try:
                        with ProcessPoolExecutor(max_workers=1) as solo:
                            outcome = solo.submit(
                                _execute_task, payload(index)).result()
                    except BrokenExecutor as exc:
                        outcome = {"status": "error", "result": None,
                                   "error": f"worker process died "
                                            f"({type(exc).__name__})"}
                    except (OSError, ImportError):
                        outcome = _execute_task(payload(index))
                    settle(index, outcome)

            if serial:
                for index in list(todo):
                    while index not in records:
                        attempts[index] += 1
                        settle(index, _execute_task(payload(index)))
                todo = []

            ordered = tuple(records[i] for i in sorted(records))
            assert len(ordered) == total, "campaign bookkeeping lost a task"
            dumped_count = sum(1 for r in ordered if r.forensics is not None)
            if dumped_count:
                notes.append(f"forensics: {dumped_count} bundle(s) written "
                             f"to {forensics_dir}")
            report = CampaignReport(name=name, seed=seed, total=total,
                                    records=ordered, notes=tuple(notes),
                                    checkpoint=checkpoint)
            if _obs_active():
                run_span.annotate(completed=report.completed,
                                  failed=report.failed, skipped=report.skipped,
                                  retried=report.retried)
                registry = _obs_metrics()
                registry.inc("campaign.runs", 1)
                registry.inc("campaign.tasks", total)
                registry.inc("campaign.attempts", report.attempts_total)
                registry.inc("campaign.completed", report.completed)
                if report.failed:
                    registry.inc("campaign.failures", report.failed)
                if report.retried:
                    registry.inc("campaign.retries", report.retried)
                timeouts = sum(1 for r in report.records
                               if r.status == "failed" and "timeout" in r.error)
                if timeouts:
                    registry.inc("campaign.timeouts", timeouts)
                dumped = sum(1 for r in report.records
                             if r.forensics is not None)
                if dumped:
                    registry.inc("campaign.forensics_dumps", dumped)
        finally:
            if writer is not None:
                writer.close()

    return report
