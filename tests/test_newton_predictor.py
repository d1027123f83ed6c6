"""The predicted Newton start of fixed-step transients.

Every fixed step's Newton solve starts at a polynomial extrapolation
through the last accepted timepoints (``_FixedSteps.predict``, up to
:data:`~repro.spice.analysis.engine.PREDICTOR_ORDER`), while the
capacitor history and the recovery ladder keep the last accepted point.
A solve that fails from the prediction is retried once from that point,
on the factors the previous step left, before any rung, and counts one
``predictor_fallbacks``.  The contracts: the prediction is exact on
polynomials of its order and elementwise (a batched row has the bits of
its scalar run's), the Table II read takes far fewer Newton iterations
per timestep at unchanged waveforms, and the paper's flows never fall
back.
"""

import numpy as np
import pytest

from repro.api import Session
from repro.cells.characterize import _cold_start_voltages, _proposed_read
from repro.cells.miniarray import build_mini_array
from repro.cells.nvlatch_2bit import build_proposed_latch
from repro.cells.sizing import DEFAULT_SIZING
from repro.nv.base import get_backend
from repro.obs import disable_tracing, enable_tracing, metrics
from repro.spice.analysis.engine import PREDICTOR_ORDER
from repro.spice.analysis.transient import ENGINES, _FixedSteps, run_transient
from repro.spice.corners import CORNERS
from tests.recovery_corpus import corpus_entry
from tests.test_engine_equivalence import naive_transient

VDD = 1.1
READ_DT = 2e-12
#: Newton iterations per timestep of the Table II proposed read at 2 ps:
#: 2.85 from the last accepted point, about 2.03 with a quadratic
#: prediction and 1.55 with the cubic one.
READ_ITERATIONS_PER_STEP = 1.8
#: Largest node-voltage distance from the full-restamp oracle [V]: the
#: Newton tolerance.
ORACLE_TOL = 1e-7


def _steps(history):
    """A scalar step control that accepted ``history`` (oldest first)."""
    control = _FixedSteps(np.asarray(history[0], dtype=float), 1.0,
                          len(history) + 2, 1)
    for k, point in enumerate(history[1:], start=1):
        control.record(float(k), np.asarray(point, dtype=float))
    return control


class TestPrediction:
    def test_step_one_starts_at_the_accepted_point(self):
        assert _steps([[0.3, 1e-6]]).predict() is None

    @pytest.mark.parametrize("order", range(1, PREDICTOR_ORDER + 1))
    def test_each_order_extrapolates_its_polynomials_exactly(self, order):
        # Small integers keep every product and sum exact.
        def poly(k):
            return [float((k + 1) ** order - 2 * k), float(3 - k ** order)]

        control = _steps([poly(k) for k in range(order + 1)])
        assert control.predict().tolist() == poly(order + 1)

    def test_order_stops_at_the_predictor_order(self):
        points = PREDICTOR_ORDER + 2
        control = _steps([[float(k ** (PREDICTOR_ORDER + 1))]
                          for k in range(points)])
        extrapolated = control.predict()[0]
        assert extrapolated != float(points ** (PREDICTOR_ORDER + 1))
        # The polynomial through the last PREDICTOR_ORDER + 1 points only.
        last = _steps([[float(k ** (PREDICTOR_ORDER + 1))]
                       for k in range(1, points)]).predict()[0]
        assert extrapolated == last

    def test_a_batched_row_has_the_bits_of_its_scalar_run(self):
        rng = np.random.default_rng(5)
        history = rng.uniform(-1.2, 1.2, size=(PREDICTOR_ORDER + 3, 6, 9))
        batch = _FixedSteps(history[0], 1e-12, len(history), 5)
        for k, stack in enumerate(history[1:], start=1):
            batch.record(k * 1e-12, stack)
        predicted = batch.predict()
        for row in range(history.shape[1]):
            scalar = _FixedSteps(history[0, row], 1e-12, len(history), 5)
            for k, stack in enumerate(history[1:], start=1):
                scalar.record(k * 1e-12, stack[row])
            assert predicted[row].tobytes() == scalar.predict().tobytes()


def test_table2_read_converges_in_fewer_iterations_on_the_oracle():
    """The proposed latch's Table II read (typical corner, 2 ps, cold
    start): under the pinned iterations per timestep, no fallback, and
    within the Newton tolerance of the full-restamp oracle."""
    bits = (1, 0)
    *_, result = _proposed_read(bits, CORNERS["typical"], DEFAULT_SIZING,
                                VDD, READ_DT)
    stats = result.stats
    assert stats.iterations / stats.timesteps < READ_ITERATIONS_PER_STEP
    assert stats.predictor_fallbacks == 0

    nv = get_backend("mtj")
    schedule = nv.restore_schedule("proposed", bits=bits, simplified=True,
                                   vdd=VDD, cycles=2)
    latch = build_proposed_latch(schedule, CORNERS["typical"],
                                 DEFAULT_SIZING, stored_bits=bits, vdd=VDD,
                                 backend=nv)
    oracle = naive_transient(latch.circuit, schedule.stop_time, READ_DT,
                             initial_voltages=_cold_start_voltages(VDD))
    drift = float(np.max(np.abs(result.node_voltages
                                - oracle.node_voltages)))
    assert drift <= ORACLE_TOL, f"read drifts {drift:g} V from the oracle"


@pytest.mark.parametrize("engine", ENGINES)
def test_a_failed_prediction_retries_from_the_accepted_point(engine):
    """The sharp-edge corpus entry's predictions fail at the input edge;
    each failed step solves again from the accepted point, so the ladder
    climbs exactly the rungs it climbs without a prediction."""
    stats = corpus_entry("sharp-edge").run(engine=engine).stats
    assert stats.predictor_fallbacks > 0
    assert stats.rung_counts == {"timestep-cut": 1, "damping": 1}


def test_the_paper_flows_never_fall_back():
    """Table II on both backends (both latches, read, write and leakage)
    and the 32×32 array: every prediction converges."""
    names = ("engine.timesteps", "engine.predictor_fallbacks")
    enable_tracing(fresh=True)
    try:
        before = metrics().snapshot()["counters"]
        with Session(workers=1) as session:
            for backend in ("mtj", "nandspin"):
                session.table2(corners=["typical"], dt=READ_DT,
                               include_write=True, backend=backend,
                               engine="fast")
        array = run_transient(build_mini_array(rows=32, cols=32), 2.5e-9,
                              2.5e-12, engine="sparse")
        after = metrics().snapshot()["counters"]
    finally:
        disable_tracing()
    added = {name: after.get(name, 0) - before.get(name, 0)
             for name in names}
    assert added == {"engine.timesteps": 24000 + array.stats.timesteps,
                     "engine.predictor_fallbacks": 0}
    assert array.stats.predictor_fallbacks == 0


def test_the_retry_is_the_solve_an_unpredicted_step_makes(monkeypatch):
    """Every prediction of a latch restore fails (a NaN start): each step
    then solves from the accepted point on the factors the previous step
    left, so the waveforms are bit for bit those of a run that predicts
    nothing."""
    from repro.cells.nvlatch_1bit import build_standard_latch

    def restore():
        nv = get_backend("mtj")
        schedule = nv.restore_schedule("standard", bit=1, vdd=VDD, cycles=1)
        latch = build_standard_latch(schedule, stored_bit=1, vdd=VDD,
                                     backend=nv)
        return run_transient(latch.circuit, schedule.stop_time, READ_DT,
                             initial_voltages=_cold_start_voltages(VDD),
                             engine="fast")

    monkeypatch.setattr(_FixedSteps, "predict", lambda self: None)
    unpredicted = restore()
    monkeypatch.setattr(_FixedSteps, "predict",
                        lambda self: np.full_like(self._history[0], np.nan))
    with np.errstate(invalid="ignore"):
        failing = restore()
    assert failing.stats.predictor_fallbacks == failing.stats.timesteps
    assert failing.stats.rung_counts == {}
    assert (failing.node_voltages.tobytes()
            == unpredicted.node_voltages.tobytes())
    assert (failing.branch_currents.tobytes()
            == unpredicted.branch_currents.tobytes())
