"""Determinism of the parallel runner and the Monte-Carlo plumbing.

The contract under test: for any ``workers`` setting, the parallel map
returns *bit-identical* results to the serial loop — parallelism is an
execution detail, never a source of nondeterminism.  This requires both
order-preserving result collection (``parallel_map``) and per-task RNG
spawning (``spawn_rngs`` / ``monte_carlo_parameters``) instead of slicing
one shared stream.
"""

import numpy as np
import pytest

from repro.errors import DeviceModelError
from repro.mtj.parameters import PAPER_TABLE_I
from repro.mtj.variation import (
    DEFAULT_SEED,
    MTJVariation,
    monte_carlo_parameters,
    sample_parameters,
)
from repro.parallel import default_workers, parallel_map, spawn_rngs


def square(x):
    """Module-level (hence picklable) worker for the pool path."""
    return x * x


def resistance_pair(params):
    """Picklable Monte-Carlo payload: the two junction resistances."""
    return (params.resistance_p, params.resistance_ap)


class TestParallelMap:
    def test_matches_serial_map(self):
        items = list(range(23))
        expected = [square(x) for x in items]
        assert parallel_map(square, items, workers=1) == expected
        assert parallel_map(square, items, workers=4) == expected

    def test_preserves_item_order(self):
        items = [5, 3, 9, 1, 1, 7]
        assert parallel_map(square, items, workers=3) == [25, 9, 81, 1, 1, 49]

    def test_empty_and_single_item(self):
        assert parallel_map(square, [], workers=4) == []
        assert parallel_map(square, [6], workers=4) == [36]

    def test_default_workers_at_least_one(self):
        assert default_workers() >= 1

    def test_serial_path_accepts_lambdas(self):
        # workers<=1 never pickles, so closures are fine there.
        assert parallel_map(lambda x: x + 1, [1, 2], workers=1) == [2, 3]


class TestSpawnRngs:
    def test_streams_are_reproducible(self):
        a = [rng.standard_normal(4) for rng in spawn_rngs(123, 5)]
        b = [rng.standard_normal(4) for rng in spawn_rngs(123, 5)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_stream_i_independent_of_count(self):
        # Task i's stream is a function of (seed, i) only: growing the
        # population must not reshuffle existing samples.
        short = [rng.standard_normal() for rng in spawn_rngs(9, 3)]
        long = [rng.standard_normal() for rng in spawn_rngs(9, 8)]
        assert short == long[:3]

    def test_streams_differ_between_tasks_and_seeds(self):
        draws = [rng.standard_normal() for rng in spawn_rngs(1, 4)]
        assert len(set(draws)) == 4
        other = [rng.standard_normal() for rng in spawn_rngs(2, 4)]
        assert draws != other

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestMonteCarloDeterminism:
    def test_default_rng_is_seeded(self):
        # Regression: rng=None used to mean an *unseeded* generator, so two
        # "identical" default runs disagreed.
        first = sample_parameters(PAPER_TABLE_I, count=4)
        second = sample_parameters(PAPER_TABLE_I, count=4)
        assert first == second

    def test_explicit_rng_still_honoured(self):
        rng = np.random.default_rng(77)
        with_rng = sample_parameters(PAPER_TABLE_I, count=2, rng=rng)
        default = sample_parameters(PAPER_TABLE_I, count=2)
        assert with_rng != default

    def test_population_reproducible(self):
        a = monte_carlo_parameters(PAPER_TABLE_I, count=8, seed=5)
        b = monte_carlo_parameters(PAPER_TABLE_I, count=8, seed=5)
        assert a == b
        assert a != monte_carlo_parameters(PAPER_TABLE_I, count=8, seed=6)

    def test_sample_i_stable_under_population_growth(self):
        small = monte_carlo_parameters(PAPER_TABLE_I, count=3, seed=5)
        large = monte_carlo_parameters(PAPER_TABLE_I, count=12, seed=5)
        assert small == large[:3]

    def test_parallel_mc_bit_identical_to_serial(self):
        def population(workers):
            samples = monte_carlo_parameters(PAPER_TABLE_I, count=16,
                                             seed=DEFAULT_SEED)
            return parallel_map(resistance_pair, samples, workers=workers)

        serial = population(1)
        for workers in (2, 5):
            assert population(workers) == serial  # bit-identical, not approx

    def test_variation_and_clip_respected(self):
        tight = MTJVariation(sigma_ra=0.0, sigma_tmr=0.0, sigma_ic=0.0)
        for params in monte_carlo_parameters(PAPER_TABLE_I, tight,
                                             count=5, seed=1):
            assert params.resistance_p == PAPER_TABLE_I.resistance_p

    def test_rejects_bad_count(self):
        with pytest.raises(DeviceModelError):
            monte_carlo_parameters(PAPER_TABLE_I, count=0)


class TestSweepAndBenchmarkRunners:
    def test_sweep_corners_order_and_content(self):
        from repro.spice.corners import CORNER_ORDER, _sweep_corners

        out = _sweep_corners(corner_name, corners=CORNER_ORDER, workers=2)
        assert list(out) == list(CORNER_ORDER)
        assert all(out[name] == name for name in out)

    def test_evaluate_benchmarks_matches_direct_flow(self):
        from repro.core.evaluate import evaluate_benchmarks
        from repro.core.flow import run_system_flow

        direct = run_system_flow("s344").result
        (via_runner,) = evaluate_benchmarks(["s344"], workers=2)
        assert via_runner == direct


def corner_name(corner):
    """Picklable corner payload."""
    return corner.name


def mc_bitline(params):
    """Picklable ensemble builder: one MTJ read bit line per sample."""
    from repro.spice import Circuit, Pulse

    circuit = Circuit("mc-bitline")
    circuit.add_vsource("vrd", "rd", "0",
                        Pulse(0.0, 0.3, delay=20e-12, rise=10e-12,
                              width=5e-9))
    circuit.add_resistor("rs", "rd", "bl", 2e3)
    circuit.add_mtj("x0", "bl", "0", params=params)
    circuit.add_capacitor("cb", "bl", "0", 1e-15)
    return circuit


def bitline_waveform(result):
    """Picklable ensemble extractor: the raw bit-line samples."""
    return result.voltage("bl").tobytes()


class TestEnsembleWorkerIndependence:
    def test_ensemble_mc_bit_identical_across_worker_counts(self):
        # Regression for the serial-fallback contract: the pool performs
        # no seeding of its own, chunking depends only on (count, chunk),
        # so workers=1 (the serial path — also what the pool falls back
        # to) and workers=4 must return *bit-identical* waveforms.
        from repro.mtj.variation import monte_carlo_ensemble

        kwargs = dict(params=PAPER_TABLE_I, stop_time=0.2e-9, dt=4e-12,
                      count=6, seed=DEFAULT_SEED, chunk=2)
        serial = monte_carlo_ensemble(mc_bitline, bitline_waveform,
                                      workers=1, **kwargs)
        pooled = monte_carlo_ensemble(mc_bitline, bitline_waveform,
                                      workers=4, **kwargs)
        assert len(serial) == 6
        assert pooled == serial  # bytes-level equality, not approx

    def test_ensemble_mc_bit_identical_across_chunk_sizes(self):
        # Every Newton decision of the batched solver (LU refresh,
        # damping, convergence, freezing) is taken per sample, so a
        # sample's bits cannot depend on which batch it shares.  A
        # batch-wide convergence check breaks this; the bit line's
        # samples refresh their LUs in lockstep, so the batch-wide
        # refresh case is pinned in tests/test_sparse_engine.py.
        from repro.mtj.variation import monte_carlo_ensemble

        kwargs = dict(params=PAPER_TABLE_I, stop_time=0.2e-9, dt=4e-12,
                      count=6, seed=DEFAULT_SEED, workers=1)
        pairs = monte_carlo_ensemble(mc_bitline, bitline_waveform,
                                     chunk=2, **kwargs)
        whole = monte_carlo_ensemble(mc_bitline, bitline_waveform,
                                     chunk=6, **kwargs)
        assert len(whole) == 6
        assert pairs == whole  # bytes-level equality, not approx

    def test_trailing_single_sample_runs_batched(self, monkeypatch):
        # With count=3 and chunk=2 the third sample would be a one-sample
        # chunk, i.e. a scalar run that rounds differently from a batch:
        # it joins the chunk before it instead.
        import repro.spice.analysis.transient as transient
        from repro.mtj.variation import monte_carlo_ensemble

        scalar_runs = []
        scalar = transient.run_transient

        def counting(*args, **kwargs):
            scalar_runs.append(args[0].name)
            return scalar(*args, **kwargs)

        monkeypatch.setattr(transient, "run_transient", counting)
        kwargs = dict(params=PAPER_TABLE_I, stop_time=0.2e-9, dt=4e-12,
                      count=3, seed=DEFAULT_SEED, workers=1)
        folded = monte_carlo_ensemble(mc_bitline, bitline_waveform,
                                      chunk=2, **kwargs)
        assert scalar_runs == []
        whole = monte_carlo_ensemble(mc_bitline, bitline_waveform,
                                     chunk=3, **kwargs)
        assert len(folded) == 3
        assert folded == whole  # bytes-level equality, not approx

    def test_ensemble_mc_chunking_stays_inside_accuracy_contract(self):
        # A one-sample chunk runs the scalar fast engine, so chunk=1 is
        # not bit-identical to a batch, but it must stay inside the 1 µV
        # engine-accuracy contract — batching is a performance detail,
        # never a physics change.
        from repro.mtj.variation import monte_carlo_ensemble

        kwargs = dict(params=PAPER_TABLE_I, stop_time=0.2e-9, dt=4e-12,
                      count=5, seed=DEFAULT_SEED, workers=1)
        singles = monte_carlo_ensemble(mc_bitline, bitline_waveform,
                                       chunk=1, **kwargs)
        batched = monte_carlo_ensemble(mc_bitline, bitline_waveform,
                                       chunk=5, **kwargs)
        for a, b in zip(singles, batched):
            wave_a = np.frombuffer(a, dtype=np.float64)
            wave_b = np.frombuffer(b, dtype=np.float64)
            assert float(np.max(np.abs(wave_a - wave_b))) <= 1e-6


class TestSerialFallbackWarning:
    def test_pool_failure_warns_but_answers(self, monkeypatch):
        import repro.parallel as parallel_module

        def broken_pool(*args, **kwargs):
            raise OSError("no process pools in this sandbox")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor",
                            broken_pool)
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            out = parallel_module.parallel_map(square, [1, 2, 3], workers=4)
        assert out == [1, 4, 9]
