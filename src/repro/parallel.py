"""Deterministic process-pool map for corner sweeps, Table III and Monte-Carlo.

The value-pure fan-out of every flow goes through this module: Table
II's process corners (:func:`repro.spice.corners._sweep_corners`), Table
III's benchmark circuits (:func:`repro.core.evaluate.evaluate_benchmarks`)
and the Monte-Carlo ensemble chunks
(:func:`repro.mtj.variation.monte_carlo_ensemble`).  Seeded trials that
need timeouts, retries or a checkpoint go through
:func:`repro.faults.campaign.run_campaign` instead.

* :func:`parallel_map` — ``map(fn, items)`` over a process pool, with the
  result order always matching the item order and an automatic serial
  fallback (single core, single item, or an environment where process
  pools cannot start — e.g. restricted sandboxes).  Because the work is
  partitioned by *item* and every task is self-contained, the result is
  **independent of the worker count** — ``workers=8`` and ``workers=1``
  return bit-identical lists.
* :func:`spawn_rngs` — per-task random generators derived from one root
  seed through :class:`numpy.random.SeedSequence` spawning.  Task *i*
  always receives the same stream no matter which process executes it or
  in what order, which is what makes seeded parallel Monte-Carlo
  reproducible (see ``tests/test_parallel.py``).

Functions submitted to :func:`parallel_map` must be picklable: module
level functions, optionally wrapped in :func:`functools.partial` to bind
configuration (the idiom all three callers use).
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

import numpy as np

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Workers used when ``workers=None``: every core, capped to keep a
#: pathological container cpu_count from oversubscribing the pool.
MAX_DEFAULT_WORKERS = 16


def default_workers() -> int:
    """Worker count used by ``workers=None``: ``os.cpu_count()`` capped at
    :data:`MAX_DEFAULT_WORKERS` (never less than 1)."""
    return max(1, min(os.cpu_count() or 1, MAX_DEFAULT_WORKERS))


def spawn_rngs(seed: int, count: int) -> List[np.random.Generator]:
    """``count`` independent generators spawned from one root ``seed``.

    Uses ``SeedSequence.spawn``, the numpy-recommended construction for
    parallel streams: child streams are statistically independent and the
    i-th stream is a pure function of ``(seed, i)`` — stable across runs,
    worker counts, and chunk boundaries.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return [np.random.Generator(np.random.PCG64(child))
            for child in np.random.SeedSequence(seed).spawn(count)]


def parallel_map(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    workers: Optional[int] = None,
) -> List[_R]:
    """``[fn(item) for item in items]`` over a process pool.

    * ``workers=None`` — use :func:`default_workers`; ``workers <= 1``
      forces the serial path (no pool, no pickling requirements).
    * Results are returned in item order regardless of completion order.
    * If the pool cannot be created or a worker dies on startup (common in
      sandboxed environments), the computation re-runs serially — the
      answer is the same either way, which is the whole point of the
      per-item partitioning.  The degradation is *not* silent: a
      :class:`RuntimeWarning` names the pool failure so slow runs can be
      traced to the fallback (and campaign runners can record it — see
      :func:`repro.faults.campaign.run_campaign`).
    * While an observability session is active
      (:func:`repro.obs.is_active`), workers run their own tracer/metrics
      session and every task ships its span and metric deltas back with
      its result; the parent merges them **in item order**, so traces and
      aggregates are deterministic for any worker count — and identical
      in shape to the serial path, where spans land in the parent tracer
      directly.
    """
    from repro import obs

    items = list(items)
    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    try:
        if obs.is_active():
            from repro.obs.worker import ObsTask, merge_payload, worker_init

            with ProcessPoolExecutor(max_workers=min(workers, len(items)),
                                     initializer=worker_init) as pool:
                payloads = list(pool.map(ObsTask(fn), items))
            return [merge_payload(p) for p in payloads]
        with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
            return list(pool.map(fn, items))
    except (OSError, BrokenExecutor, ImportError) as exc:
        # No usable process pool here (restricted sandbox, missing
        # semaphores, ...): fall back to the serial path — loudly.
        # The fallback performs no seeding of its own: any randomness
        # must already be bound into the items (spawn_rngs per-item
        # streams), so serial re-execution is bit-identical to the pool
        # path.  tests/test_parallel.py pins this for the batched
        # Monte-Carlo ensemble (workers=1 vs workers=4).
        warnings.warn(
            f"process pool unavailable ({type(exc).__name__}: {exc}); "
            f"re-running {len(items)} task(s) serially",
            RuntimeWarning, stacklevel=2)
        return [fn(item) for item in items]
