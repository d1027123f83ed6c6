"""The ``repro.api.Session`` facade — the single documented entry point.

A Session binds cache/engine/workers/obs once, drives every high-level
flow, and restores whatever it changed on close.  The PR-5 deprecated
free functions (``build_table2``/``build_table3``/``sweep_corners``/
``restore_failure_rate``) are gone; these tests pin their removal and
the canonical-parameter validation shared with the CLI.
"""

import pytest

from repro.api import Session
from repro.cache import store as cache_store
from repro.errors import AnalysisError, CacheError
from repro.spice.analysis.transient import get_default_engine


#: Coarse, typical-corner-only settings that keep the flows seconds-scale.
FAST_TABLE2 = dict(corners=["typical"], dt=4e-12, include_write=False)


def _table2_metrics(data):
    """Every measured field of every corner as one nested dict, so a
    comparison covers the full Table II surface, not a sample."""
    import dataclasses

    return {f"{design}/{corner}": dataclasses.asdict(latch_metrics)
            for design in ("standard", "proposed")
            for corner, latch_metrics in sorted(getattr(data, design).items())}


def _bit_identical(a, b):
    """Recursive exact equality where float NaN equals NaN (skipped write
    metrics are NaN in fast mode; two NaNs of the same provenance count
    as identical)."""
    import math

    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return (a.keys() == b.keys()
                and all(_bit_identical(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return (len(a) == len(b)
                and all(_bit_identical(x, y) for x, y in zip(a, b)))
    return type(a) is type(b) and a == b


@pytest.fixture(autouse=True)
def _no_leaked_cache():
    yield
    cache_store.disable()


class TestSessionLifecycle:
    def test_close_restores_engine_and_cache(self, tmp_path):
        previous = get_default_engine()
        session = Session(cache=str(tmp_path / "c"), engine="sparse")
        assert get_default_engine() == "sparse"
        assert cache_store.get_active_cache() is not None
        session.close()
        assert get_default_engine() == previous
        assert cache_store.get_active_cache() is None
        session.close()  # idempotent

    def test_context_manager_closes(self, tmp_path):
        with Session(cache=str(tmp_path / "c")) as session:
            assert session.cache_stats()["entries"] == 0
        assert cache_store.get_active_cache() is None

    def test_nested_session_does_not_steal_the_outer_cache(self, tmp_path):
        with Session(cache=str(tmp_path / "c")) as outer:
            with Session(cache=str(tmp_path / "c")):
                pass
            # Inner session shared the root, so it must not deactivate it.
            assert cache_store.get_active_cache() is not None
            assert outer.cache_stats() is not None

    def test_closed_session_rejects_flow_calls(self):
        session = Session()
        session.close()
        with pytest.raises(AnalysisError, match="closed"):
            session.table2(**FAST_TABLE2)

    def test_obs_session_owns_tracing(self):
        from repro.obs import is_active

        with Session(obs=True):
            assert is_active()
            with pytest.raises(AnalysisError, match="already active"):
                Session(obs=True)
        assert not is_active()

    def test_double_close_and_exit_after_close_are_noops(self, tmp_path):
        previous = get_default_engine()
        session = Session(cache=str(tmp_path / "c"), engine="sparse")
        session.close()
        session.close()
        session.__exit__(None, None, None)  # with-block after manual close
        assert get_default_engine() == previous
        assert cache_store.get_active_cache() is None

    def test_failed_init_rolls_back_engine_and_cache(self, tmp_path):
        """A constructor that raises part-way (obs=True while tracing is
        already active) must not leak the engine/cache it already set."""
        previous = get_default_engine()
        assert previous != "sparse"
        with Session(obs=True):
            with pytest.raises(AnalysisError, match="already active"):
                Session(cache=str(tmp_path / "c"), engine="sparse",
                        obs=True)
            assert get_default_engine() == previous
            assert cache_store.get_active_cache() is None

    def test_uncached_session_reports_no_stats(self):
        with Session() as session:
            assert session.cache_stats() is None

    @pytest.mark.parametrize("bogus", [False, True, 0, b"cache"])
    def test_non_path_cache_is_rejected(self, bogus, tmp_path,
                                        monkeypatch):
        # Regression: str(False) used to become a cache directory named
        # "False" in the working directory, with caching switched on.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(CacheError, match=repr(bogus)):
            Session(cache=bogus)
        assert cache_store.get_active_cache() is None
        assert list(tmp_path.iterdir()) == []

    def test_pathlike_cache_is_accepted(self, tmp_path):
        with Session(cache=tmp_path / "c") as session:
            assert session.cache_stats() is not None
            assert cache_store.get_active_cache().root == str(tmp_path / "c")


class TestSessionFlows:
    def test_table2_populates_the_session_cache(self, tmp_path):
        with Session(cache=str(tmp_path / "c"), workers=1) as session:
            data = session.table2(**FAST_TABLE2)
            stats = session.cache_stats()
        assert set(data.standard) == {"typical"}
        assert stats["entries"] > 0

    def test_table2_warm_run_matches_cold_bit_for_bit(self, tmp_path):
        # workers=1 keeps every solve in this process, where the metrics
        # registry counts it; engine counters flush only under tracing.
        from repro.obs import metrics

        def measured(session):
            names = ("engine.solves", "engine.dc_solves", "cache.hit",
                     "cache.miss", "cache.store")
            before = {name: metrics().counter(name) for name in names}
            data = session.table2(**FAST_TABLE2)
            return data, {name: metrics().counter(name) - before[name]
                          for name in names}

        with Session(cache=str(tmp_path / "c"), workers=1,
                     obs=True) as session:
            cold, cold_counts = measured(session)
            warm, warm_counts = measured(session)
        assert _bit_identical(_table2_metrics(cold), _table2_metrics(warm))
        assert cold_counts["engine.solves"] > 0
        assert cold_counts["cache.store"] > 0
        assert warm_counts["engine.solves"] == 0
        assert warm_counts["engine.dc_solves"] == 0
        assert warm_counts["cache.hit"] == cold_counts["cache.store"]
        assert warm_counts["cache.miss"] == 0

    def test_table3_and_campaign_run_end_to_end(self, tmp_path):
        from repro.physd.benchmarks import BENCHMARKS

        name = list(BENCHMARKS)[0]
        with Session(cache=str(tmp_path / "c"), workers=1) as session:
            rows = session.table3([name])
            outcome = session.campaign("standard", [], samples=2, dt=4e-12)
        assert len(rows) == 1
        assert rows[0][0].benchmark == name
        assert outcome.report.completed == 2


class TestWrappersRemoved:
    """Deprecated wrappers and fan-out entry points no flow called are
    deleted, not kept."""

    def test_deprecated_free_functions_are_gone(self):
        import importlib.util

        import repro.analysis.tables as tables
        import repro.cache as cache
        import repro.core.evaluate as evaluate
        import repro.faults as faults
        import repro.mtj.variation as variation
        import repro.spice.corners as corners

        assert not hasattr(tables, "build_table2")
        assert not hasattr(tables, "build_table3")
        assert not hasattr(corners, "sweep_corners")
        assert not hasattr(faults, "restore_failure_rate")
        assert importlib.util.find_spec("repro.cache.scheduler") is None
        assert not hasattr(cache, "dedup_map")
        assert not hasattr(corners, "sweep_corners_resilient")
        assert not hasattr(evaluate, "evaluate_benchmarks_resilient")
        assert not hasattr(evaluate, "_flow_result_record")
        assert not hasattr(variation, "monte_carlo_map")
        assert not hasattr(variation, "monte_carlo_campaign")
        assert not hasattr(Session, "sweep")

    def test_api_all_is_the_session_surface(self):
        import repro.api

        assert repro.api.__all__ == ["Session"]


class TestCanonicalParams:
    """Session methods validate kwargs against ``repro.flow_params`` —
    the same vocabulary the CLI's flow options use."""

    def test_unknown_kwarg_is_rejected_with_suggestion(self):
        with Session(workers=1) as session:
            with pytest.raises(AnalysisError, match="did you mean"):
                session.table2(backened="mtj")

    def test_unknown_backend_is_rejected_with_suggestion(self):
        with Session(workers=1) as session:
            with pytest.raises(AnalysisError, match="nandspin"):
                session.table2(backend="nand-spin", **FAST_TABLE2)

    def test_per_call_engine_override_is_scoped(self):
        from repro.spice.analysis.transient import get_default_engine

        previous = get_default_engine()
        with Session(workers=1) as session:
            session.table3(["s344"], engine="sparse")
            assert get_default_engine() == previous
