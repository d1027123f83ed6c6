"""Process variation for MTJ devices: ±3σ corners and Monte-Carlo sampling.

The paper's corner analysis considers ±3σ variations of the
resistance-area product (RA), the TMR ratio, and the switching current.
We model each as a relative (lognormal-free, plain Gaussian) deviation
with a configurable per-parameter sigma; the named corners used by
Table II pin each parameter at its +3σ or −3σ extreme in the direction
that makes the metric of interest worst/best (see DESIGN.md §5):

* ``worst``  — RA −3σ (low resistance → high read current/energy),
  TMR −3σ (small sensing margin → slow resolve), I_c +3σ (hard writes).
* ``typical`` — all nominal.
* ``best``   — RA +3σ, TMR +3σ, I_c −3σ.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import DeviceModelError
from repro.mtj.parameters import MTJParameters
from repro.parallel import parallel_map, spawn_rngs

#: Root seed used whenever a caller does not pass one: Monte-Carlo results
#: are reproducible *by default* (the DATE year of the paper, for flavour).
DEFAULT_SEED = 2018


@dataclass(frozen=True)
class MTJVariation:
    """Relative 1σ deviations of the varied MTJ parameters."""

    sigma_ra: float = 0.05
    sigma_tmr: float = 0.05
    sigma_ic: float = 0.05

    def __post_init__(self) -> None:
        for name, value in (
            ("sigma_ra", self.sigma_ra),
            ("sigma_tmr", self.sigma_tmr),
            ("sigma_ic", self.sigma_ic),
        ):
            if not 0.0 <= value < 1.0 / 3.0:
                raise DeviceModelError(
                    f"{name} must lie in [0, 1/3) so that -3 sigma keeps the "
                    f"parameter positive, got {value}"
                )


class MTJCorner(enum.Enum):
    """Named ±3σ corner of the MTJ parameter space."""

    WORST = "worst"
    TYPICAL = "typical"
    BEST = "best"

    def apply(
        self, params: MTJParameters, variation: Optional[MTJVariation] = None
    ) -> MTJParameters:
        """Return the parameter set pinned at this corner."""
        variation = variation or MTJVariation()
        if self is MTJCorner.TYPICAL:
            return params
        sign = -1.0 if self is MTJCorner.WORST else 1.0
        return params.scaled(
            ra_scale=1.0 + sign * 3.0 * variation.sigma_ra,
            tmr_scale=1.0 + sign * 3.0 * variation.sigma_tmr,
            ic_scale=1.0 - sign * 3.0 * variation.sigma_ic,
        )


def sample_parameters(
    params: MTJParameters,
    variation: Optional[MTJVariation] = None,
    count: int = 1,
    rng: Optional[np.random.Generator] = None,
    clip_sigma: float = 3.0,
) -> List[MTJParameters]:
    """Draw ``count`` Monte-Carlo parameter sets.

    Each varied parameter gets an independent Gaussian relative deviation,
    truncated at ``clip_sigma`` standard deviations (matching the paper's
    ±3σ analysis window).

    ``rng=None`` draws from a generator seeded with :data:`DEFAULT_SEED`
    (it used to mean an *unseeded* generator, which made default runs
    irreproducible — see ``tests/test_parallel.py``).
    """
    if count < 1:
        raise DeviceModelError(f"count must be >= 1, got {count}")
    if clip_sigma <= 0.0:
        raise DeviceModelError(f"clip_sigma must be positive, got {clip_sigma}")
    variation = variation or MTJVariation()
    rng = rng or np.random.default_rng(DEFAULT_SEED)

    deviates = rng.standard_normal(size=(count, 3))
    deviates = np.clip(deviates, -clip_sigma, clip_sigma)
    sigmas = np.array([variation.sigma_ra, variation.sigma_tmr, variation.sigma_ic])
    scales = 1.0 + deviates * sigmas

    return [
        params.scaled(ra_scale=float(row[0]), tmr_scale=float(row[1]), ic_scale=float(row[2]))
        for row in scales
    ]


def monte_carlo_parameters(
    params: MTJParameters,
    variation: Optional[MTJVariation] = None,
    count: int = 1,
    seed: int = DEFAULT_SEED,
    clip_sigma: float = 3.0,
) -> List[MTJParameters]:
    """``count`` Monte-Carlo parameter sets with per-sample spawned streams.

    Sample *i* is drawn from its own generator, spawned as child ``i`` of
    ``SeedSequence(seed)`` — a pure function of ``(seed, i)``.  A parallel
    evaluation of these samples is therefore bit-identical to the serial
    one regardless of worker count or scheduling (unlike slicing one
    shared stream, where the draw an index sees depends on the partition).
    """
    if count < 1:
        raise DeviceModelError(f"count must be >= 1, got {count}")
    return [
        sample_parameters(params, variation, count=1, rng=rng,
                          clip_sigma=clip_sigma)[0]
        for rng in spawn_rngs(seed, count)
    ]


def _ensemble_chunk_task(build, extract, stop_time, dt, integrator,
                         initial_voltages, max_iterations, vtol, damping,
                         chunk):
    """Evaluate one fixed chunk of Monte-Carlo samples batched.

    Module-level so :func:`repro.parallel.parallel_map` can pickle it;
    the chunk is the unit of batching *and* of parallel distribution."""
    from repro.spice.analysis.ensemble import run_ensemble_transient

    circuits = [build(sample) for sample in chunk]
    results = run_ensemble_transient(
        circuits, stop_time, dt, integrator=integrator,
        initial_voltages=initial_voltages, max_iterations=max_iterations,
        vtol=vtol, damping=damping)
    return [extract(result) for result in results]


def monte_carlo_ensemble(
    build,
    extract,
    params: MTJParameters,
    *,
    stop_time: float,
    dt: float,
    variation: Optional[MTJVariation] = None,
    count: int = 1,
    seed: int = DEFAULT_SEED,
    clip_sigma: float = 3.0,
    integrator: str = "be",
    initial_voltages=None,
    max_iterations: Optional[int] = None,
    vtol: Optional[float] = None,
    damping: Optional[float] = None,
    workers: Optional[int] = None,
    chunk: Optional[int] = None,
) -> List:
    """Monte-Carlo transient study through the batched ensemble engine.

    ``build(sample_params) -> Circuit`` constructs one sample's circuit
    (every sample must share the topology — only parameter values may
    differ); ``extract(TransientResult) -> R`` reduces each sample's
    waveforms to the quantity under study.  Both must be picklable
    (module-level callables or ``functools.partial``) for the worker-pool
    path to engage.

    Samples are drawn with :func:`monte_carlo_parameters` (per-sample
    spawned streams — a pure function of ``(seed, i)``) and partitioned
    into **fixed-size chunks** that depend only on ``count`` and
    ``chunk`` — never on ``workers`` — then each chunk is advanced as one
    batched transient
    (:func:`repro.spice.analysis.ensemble.run_ensemble_transient`): its
    samples are stamped together as one block-diagonal system, and each
    sample's Newton update is solved against that sample's own LU.  A
    trailing single sample joins the chunk before it, so with ``chunk``
    of at least 2 every sample of a ``count`` of at least 2 runs batched;
    ``chunk=1`` runs each sample through the scalar engine.  A sample
    whose step fails leaves its chunk and reruns alone as a scalar run
    through the recovery ladder.
    Because the chunking and the per-chunk math are both independent of
    the pool, the returned list is bit-identical for every ``workers``
    setting (``tests/test_parallel.py`` pins ``workers=1`` against
    ``workers=4``).

    A batched result's waveforms are views of its chunk's sample-major
    block (see :func:`~repro.spice.analysis.ensemble.run_ensemble_transient`).
    An ``extract`` that returns the result or one of its waveform arrays
    keeps the whole block alive until every value returned from that
    chunk is dropped; return a copy to keep one sample's waveform alone.
    """
    import functools

    from repro.spice.analysis.dc import (
        DEFAULT_DAMPING,
        DEFAULT_MAX_ITERATIONS,
        DEFAULT_VTOL,
    )
    from repro.spice.analysis.ensemble import ENSEMBLE_CHUNK

    if chunk is None:
        chunk = ENSEMBLE_CHUNK
    if chunk < 1:
        raise DeviceModelError(f"chunk must be >= 1, got {chunk}")
    samples = monte_carlo_parameters(params, variation, count=count,
                                     seed=seed, clip_sigma=clip_sigma)
    chunks = [samples[i:i + chunk] for i in range(0, len(samples), chunk)]
    if chunk > 1 and len(chunks) > 1 and len(chunks[-1]) == 1:
        # A one-sample batch is a scalar run, which rounds differently
        # below the scalar engine's grouping thresholds.
        chunks[-2:] = [chunks[-2] + chunks[-1]]
    task = functools.partial(
        _ensemble_chunk_task, build, extract, stop_time, dt, integrator,
        initial_voltages,
        DEFAULT_MAX_ITERATIONS if max_iterations is None else max_iterations,
        DEFAULT_VTOL if vtol is None else vtol,
        DEFAULT_DAMPING if damping is None else damping)
    chunk_results = parallel_map(task, chunks, workers=workers)
    return [value for chunk_result in chunk_results
            for value in chunk_result]

