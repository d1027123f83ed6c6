"""Unified session facade — the single documented entry point for the
high-level reproduction flows.

::

    from repro.api import Session

    with Session(cache="~/.cache/repro", workers=4) as session:
        data = session.table2()
        rows = session.table3(["s344"])
        outcome = session.campaign("standard", [])
        report = session.compare(quick=True)     # mtj vs nandspin

A :class:`Session` binds, once:

* ``cache`` — a result-cache directory (:mod:`repro.cache`); analyses
  run inside the session hit the persistent store automatically.
* ``engine`` — the solver engine (``"fast"``/``"sparse"``),
  applied via
  :func:`~repro.spice.analysis.transient.set_default_engine` so it
  reaches every transient without threading ``engine=`` through five
  layers.
* ``workers`` — the default parallelism of every flow method (an
  explicit ``workers=`` on a call still wins).
* ``obs`` — when true, a fresh tracing session for the lifetime of the
  Session (:func:`repro.obs.enable_tracing`).

Settings apply on construction and are restored by :meth:`close` (or
leaving the ``with`` block): the previous default engine comes back, the
cache is deactivated if this session activated it, tracing is stopped if
this session started it.

Every flow method speaks the canonical parameter vocabulary of
:mod:`repro.flow_params` — the same ``backend=``, ``engine=``,
``design=`` keywords the CLI's flow options accept, validated by the
same code path.  A per-call ``engine=``
overrides the session's engine for that flow only.
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Dict, Iterator, Optional, Sequence, Union

from repro.errors import AnalysisError, CacheError

__all__ = ["Session"]


@contextlib.contextmanager
def _engine_override(engine: Optional[str]) -> Iterator[None]:
    """Temporarily switch the default solver engine (no-op on None)."""
    if engine is None:
        yield
        return
    from repro.spice.analysis.transient import set_default_engine

    previous = set_default_engine(engine)
    try:
        yield
    finally:
        set_default_engine(previous)


class Session:
    """Configured entry point for the high-level reproduction flows."""

    def __init__(
        self,
        cache: Optional[Union[str, "os.PathLike[str]"]] = None,
        engine: Optional[str] = None,
        workers: Optional[int] = None,
        obs: bool = False,
    ) -> None:
        from repro.cache import store as cache_store

        if cache is not None and not isinstance(cache, (str, os.PathLike)):
            raise CacheError(
                "Session cache must be a directory path (str or "
                f"os.PathLike) or None, got {cache!r}")
        self.workers = workers
        self._closed = False
        self._cache = None
        self._owns_cache = False
        self._previous_engine: Optional[str] = None
        self._tracer = None

        # Settings apply incrementally; if a later step raises (e.g.
        # obs=True while another tracing session is active), roll back
        # whatever was already applied so a failed constructor leaves no
        # global state behind.
        try:
            if cache is not None:
                already = cache_store.get_active_cache()
                self._cache = cache_store.enable(
                    os.path.expanduser(os.fspath(cache)))
                # Only deactivate on close if caching was off before us
                # (or pointed elsewhere) — an outer session keeps its
                # cache.
                self._owns_cache = (already is None
                                    or already.root != self._cache.root)
            else:
                self._cache = cache_store.get_active_cache()

            if engine is not None:
                from repro.spice.analysis.transient import (
                    set_default_engine,
                )

                self._previous_engine = set_default_engine(engine)

            if obs:
                from repro.obs import enable_tracing, is_active

                if is_active():
                    raise AnalysisError(
                        "a tracing session is already active; "
                        "Session(obs=True) cannot own a second one")
                self._tracer = enable_tracing(fresh=True)
        except BaseException:
            self.close()
            raise

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Restore every setting this session applied (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._tracer is not None:
            from repro.obs import disable_tracing

            disable_tracing()
            self._tracer = None
        if self._previous_engine is not None:
            from repro.spice.analysis.transient import set_default_engine

            set_default_engine(self._previous_engine)
            self._previous_engine = None
        if self._owns_cache:
            from repro.cache import store as cache_store

            cache_store.disable()
            self._owns_cache = False

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise AnalysisError("this Session is closed")

    def _workers(self, workers: Optional[int]) -> Optional[int]:
        return self.workers if workers is None else workers

    # -- flows -------------------------------------------------------------

    def table2(self, workers: Optional[int] = None,
               engine: Optional[str] = None, **kwargs: Any):
        """Paper Table II: characterise both latch designs across process
        corners.  Canonical kwargs (:mod:`repro.flow_params`):
        ``backend=``, ``sizing=``, ``corners=``, ``dt=``,
        ``include_write=``."""
        from repro.analysis.tables import _build_table2
        from repro.flow_params import validate_flow_params

        validate_flow_params("table2", kwargs)
        self._check_open()
        with _engine_override(engine):
            return _build_table2(workers=self._workers(workers), **kwargs)

    def table3(self, benchmarks: Optional[Sequence[str]] = None,
               workers: Optional[int] = None,
               engine: Optional[str] = None, **kwargs: Any):
        """Paper Table III: the per-benchmark system flow.  Canonical
        kwargs: ``backend=`` (selects the cell costs), ``config=``."""
        from repro.analysis.tables import _build_table3
        from repro.flow_params import validate_flow_params

        validate_flow_params("table3", kwargs)
        self._check_open()
        with _engine_override(engine):
            return _build_table3(benchmarks=benchmarks,
                                 workers=self._workers(workers), **kwargs)

    def campaign(self, design: str, specs: Sequence[Any] = (),
                 workers: Optional[int] = None,
                 engine: Optional[str] = None, **kwargs: Any):
        """Monte-Carlo restore-failure campaign of one latch design under
        a fault-spec list.  Canonical kwargs: ``backend=``, ``samples=``,
        ``seed=``, ``vdd=``, ``dt=``, ``timeout=``, ``retries=``,
        ``checkpoint=``, ``forensics_dir=``."""
        from repro.faults.analyses import _restore_failure_rate
        from repro.flow_params import validate_flow_params

        validate_flow_params("campaign", kwargs)
        self._check_open()
        with _engine_override(engine):
            return _restore_failure_rate(design, specs,
                                         workers=self._workers(workers),
                                         **kwargs)

    def compare(self, backends: Optional[Sequence[Any]] = None,
                workers: Optional[int] = None,
                engine: Optional[str] = None, **kwargs: Any):
        """Cross-technology comparison: run the Table II/III metrics and
        a reliability campaign per NV backend and collect them into a
        :class:`~repro.analysis.compare.CompareReport`.  Canonical
        kwargs: ``quick=``, ``benchmarks=``, ``samples=``, ``dt=``."""
        from repro.analysis.compare import build_compare
        from repro.flow_params import validate_flow_params

        validate_flow_params("compare", kwargs)
        self._check_open()
        with _engine_override(engine):
            return build_compare(backends=backends,
                                 workers=self._workers(workers), **kwargs)

    # -- cache -------------------------------------------------------------

    def cache_stats(self) -> Optional[Dict[str, Any]]:
        """Entry count / byte total of this session's result cache, or
        ``None`` when the session runs uncached."""
        return None if self._cache is None else self._cache.stats()
