"""Tests for the energy-breakdown API and the read's response to sizing."""

import dataclasses

import pytest

from repro.cells.characterize import (
    characterize_standard,
    proposed_energy_breakdown,
)
from repro.cells.sizing import DEFAULT_SIZING


class TestEnergyBreakdown:
    @pytest.fixture(scope="class")
    def breakdown(self):
        return proposed_energy_breakdown(dt=2e-12)

    def test_phases_present(self, breakdown):
        assert set(breakdown) == {"precharge_vdd", "evaluate_lower",
                                  "precharge_gnd", "evaluate_upper", "total"}

    def test_total_is_sum_of_phases(self, breakdown):
        phases = sum(v for k, v in breakdown.items() if k != "total")
        assert breakdown["total"] == pytest.approx(phases)

    def test_gnd_precharge_recovers_charge(self, breakdown):
        """The structural source of the energy win: pre-charging to GND
        costs nothing — it even returns charge to the supply."""
        assert breakdown["precharge_gnd"] <= 0.0

    def test_total_matches_characterisation_scale(self, breakdown):
        assert 5e-15 < breakdown["total"] < 40e-15


class TestSizingSweep:
    def test_output_load_slows_the_read(self):
        delays = []
        for load in (0.6e-15, 2.4e-15):
            metrics = characterize_standard(
                sizing=dataclasses.replace(DEFAULT_SIZING, output_load=load),
                bits=(1,), include_write=False, dt=2e-12)
            assert metrics.read_values_ok
            delays.append(metrics.read_delay)
        assert delays[1] > delays[0]
