"""Bit-for-bit pin of the three SPICE engines.

``tests/golden/engine_digests.json`` holds, for each run below, one
sha256 over its waveforms and, in plain text next to it, its
:class:`SolverStats` work counters:

* ``fast/<backend>/<design>`` — a one-cycle restore of each Table II
  latch (MTJ and NAND-SPIN backends, standard 1-bit and proposed 2-bit
  designs) on ``engine="fast"`` at dt 2 ps, with junctions stored in
  both P and AP;
* ``sparse/mini_array`` — a 4×4 1T-1MTJ array on ``engine="sparse"``,
  with vectorised MOSFET and MTJ groups;
* ``ensemble/mc<i>`` — four Monte-Carlo samples of the 2-bit latch
  advanced as one batched transient (``run_ensemble_transient``).

Every float enters the hash as ``float.hex``, times first, then node
voltages and branch currents row by row, so a digest moves when any
stamp, Newton update or step decision changes by one ulp.  The tests
check the counters before the hash: a change that moves waveform bits
but no Newton decision fails on the hash alone, with the counters shown
unchanged.  The faults baseline pins the MTJ fast path through Table
II's metrics; this file pins the waveforms of every engine the paper's
flows use.  The digests read the same with 1 and 2 BLAS threads.
Regenerate only for an intentional change that moves engine bits, with
a note in the commit message:

    PYTHONPATH=src python -c "import tests.test_golden_engine_bits as t; t.regenerate()"
"""

import hashlib
import json
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List

import pytest

from repro.cells.characterize import _cold_start_voltages
from repro.cells.miniarray import build_mini_array
from repro.cells.nvlatch_1bit import build_standard_latch
from repro.cells.nvlatch_2bit import build_proposed_latch
from repro.mtj.parameters import PAPER_TABLE_I
from repro.mtj.variation import monte_carlo_parameters
from repro.nv.base import get_backend
from repro.spice.analysis.ensemble import run_ensemble_transient
from repro.spice.analysis.transient import TransientResult, run_transient

GOLDEN_PATH = Path(__file__).parent / "golden" / "engine_digests.json"

VDD = 1.1
LATCH_DT = 2e-12
ENSEMBLE_DT = 4e-12
ENSEMBLE_SAMPLES = 4
ARRAY_STOP = 1.5e-9
ARRAY_DT = 2.5e-12
#: The integer counters of :meth:`SolverStats.to_json` this golden pins.
COUNTERS = ("solves", "iterations", "factorizations", "reuses",
            "singular_retries", "gmin_retries", "timesteps",
            "lte_rejects", "recovered_steps")


def waveform_digest(result: TransientResult) -> str:
    """sha256 of a run's times, node voltages and branch currents."""
    digest = hashlib.sha256()
    for name in ("times", "node_voltages", "branch_currents"):
        values = getattr(result, name).ravel().tolist()
        digest.update(f"{name}:{len(values)}\n".encode())
        digest.update(",".join(v.hex() for v in values).encode())
    return digest.hexdigest()


def counters(result: TransientResult) -> Dict[str, int]:
    """A run's solver work counters by name."""
    recorded = result.stats.to_json()
    return {name: recorded[name] for name in COUNTERS}


def pin(result: TransientResult) -> Dict[str, object]:
    """The golden entry of a run: its counters and its waveform digest."""
    return {"counters": counters(result),
            "waveforms": waveform_digest(result)}


def check_pin(key: str, result: TransientResult,
              golden: Dict[str, Dict[str, object]]) -> None:
    assert counters(result) == golden[key]["counters"], (
        f"{key}: solver counters moved")
    assert waveform_digest(result) == golden[key]["waveforms"], (
        f"{key}: waveforms moved")


def _latch_run(backend: str, design: str) -> TransientResult:
    nv = get_backend(backend)
    if design == "standard":
        schedule = nv.restore_schedule("standard", bit=1, vdd=VDD, cycles=1)
        latch = build_standard_latch(schedule, stored_bit=1, vdd=VDD,
                                     backend=nv)
    else:
        schedule = nv.restore_schedule("proposed", bits=(1, 0), vdd=VDD,
                                       cycles=1)
        latch = build_proposed_latch(schedule, stored_bits=(1, 0), vdd=VDD,
                                     backend=nv)
    return run_transient(latch.circuit, schedule.stop_time, LATCH_DT,
                         initial_voltages=_cold_start_voltages(VDD),
                         engine="fast")


def _array_run() -> TransientResult:
    return run_transient(build_mini_array(rows=4, cols=4), ARRAY_STOP,
                         ARRAY_DT, engine="sparse")


def _ensemble_runs() -> List[TransientResult]:
    nv = get_backend("mtj")
    schedule = nv.restore_schedule("proposed", bits=(1, 0), vdd=VDD,
                                   cycles=1)
    circuits = [build_proposed_latch(schedule, mtj_params=params,
                                     stored_bits=(1, 0), vdd=VDD).circuit
                for params in monte_carlo_parameters(
                    PAPER_TABLE_I, count=ENSEMBLE_SAMPLES, seed=1)]
    return run_ensemble_transient(circuits, schedule.stop_time, ENSEMBLE_DT,
                                  initial_voltages={"vdd": VDD})


#: Golden key -> the run (or runs) it digests.
RUNS: Dict[str, Callable[[], TransientResult]] = {
    f"fast/{backend}/{design}": partial(_latch_run, backend, design)
    for backend in ("mtj", "nandspin") for design in ("standard", "proposed")
}
RUNS["sparse/mini_array"] = _array_run


def compute_pins() -> Dict[str, Dict[str, object]]:
    pins = {key: pin(run()) for key, run in RUNS.items()}
    for i, result in enumerate(_ensemble_runs()):
        pins[f"ensemble/mc{i}"] = pin(result)
    return pins


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as f:
        return json.load(f)["runs"]


@pytest.mark.parametrize("key", sorted(RUNS))
def test_scalar_engine_bits_unchanged(golden, key):
    check_pin(key, RUNS[key](), golden)


def test_batched_engine_bits_unchanged(golden):
    for i, result in enumerate(_ensemble_runs()):
        check_pin(f"ensemble/mc{i}", result, golden)


def regenerate() -> None:  # pragma: no cover - maintenance helper
    """Rewrite the golden file from fresh runs (see module docs)."""
    golden = {
        "note": "solver counters and sha256 of engine waveforms; see "
                "tests/test_golden_engine_bits.py.",
        "runs": compute_pins(),
    }
    with GOLDEN_PATH.open("w") as f:
        json.dump(golden, f, indent=2)
        f.write("\n")
