"""Golden-metric regression suite for the Table II characterisation.

``tests/golden/table2.json`` freezes the seed-state metrics of both latch
designs (typical corner, dt = 2 ps), recorded by the full-restamp engine
the package once shipped as ``"naive"`` (its ``"engine"`` field).  Any
engine change — stamp caching, Jacobian reuse, vectorised device models —
must reproduce these numbers to 0.1 %; a larger drift means the
"optimisation" changed the physics.  Regenerate the golden file only for
an *intentional* model change, with a note in the commit message; it
records from the default engine and names it in the file:

    PYTHONPATH=src python -c "import tests.test_golden_table2 as t; t.regenerate()"
"""

import json
import math
from pathlib import Path

import pytest

from repro.cells.characterize import characterize_proposed, characterize_standard
from repro.spice.corners import CORNERS

GOLDEN_PATH = Path(__file__).parent / "golden" / "table2.json"
#: Maximum relative drift tolerated on any frozen metric.
RELATIVE_TOL = 1e-3

FLOAT_METRICS = ("read_energy", "read_delay", "leakage",
                 "write_energy", "write_latency")


def load_golden() -> dict:
    with GOLDEN_PATH.open() as f:
        return json.load(f)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.fixture(scope="module")
def measured(golden):
    corner = CORNERS[golden["corner"]]
    dt = golden["dt"]
    return {
        "standard": characterize_standard(corner, dt=dt),
        "proposed": characterize_proposed(corner, dt=dt),
    }


@pytest.mark.parametrize("design", ["standard", "proposed"])
@pytest.mark.parametrize("metric", FLOAT_METRICS)
def test_metric_within_golden_tolerance(golden, measured, design, metric):
    reference = golden[design][metric]
    value = getattr(measured[design], metric)
    assert math.isfinite(value), f"{design}.{metric} is not finite"
    assert value == pytest.approx(reference, rel=RELATIVE_TOL), (
        f"{design}.{metric} drifted {abs(value / reference - 1):.2%} "
        f"from the golden value (allowed {RELATIVE_TOL:.1%})"
    )


@pytest.mark.parametrize("design", ["standard", "proposed"])
def test_structural_metrics_exact(golden, measured, design):
    assert measured[design].transistor_count == golden[design]["transistor_count"]
    assert measured[design].read_values_ok == golden[design]["read_values_ok"]


def regenerate() -> None:  # pragma: no cover - maintenance helper
    """Rewrite the golden file from a default-engine run (see module
    docs)."""
    from repro.spice.analysis.transient import get_default_engine

    corner = CORNERS["typical"]
    golden = {"dt": 2e-12, "corner": "typical",
              "engine": get_default_engine(),
              "note": "Seed-state Table II metrics (typical corner, "
                      "dt=2ps); see tests/test_golden_table2.py."}
    for key, metrics in (
        ("standard", characterize_standard(corner, dt=2e-12)),
        ("proposed", characterize_proposed(corner, dt=2e-12)),
    ):
        golden[key] = {name: getattr(metrics, name)
                       for name in FLOAT_METRICS}
        golden[key]["transistor_count"] = metrics.transistor_count
        golden[key]["read_values_ok"] = metrics.read_values_ok
    with GOLDEN_PATH.open("w") as f:
        json.dump(golden, f, indent=2)
        f.write("\n")
