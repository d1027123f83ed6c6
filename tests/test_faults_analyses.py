"""Reliability analyses: the paper's architectural trade-off, quantified.

The claims pinned here (see EXPERIMENTS.md for the full sweeps):

* the proposed 2-bit cell — one sense amplifier shared between two MTJ
  pairs — loses restore margin *faster* under injected SA offset than
  the standard 1-bit cell (it fails outright around 50 mV where the
  standard cell still restores at 80 mV);
* because each bit keeps its own tristate write path, degrading the D0
  drivers leaves the D1 store WER untouched, and the fault-free per-bit
  WERs match the standard cell's.

These run full (coarse-step) transients, so the sweeps are kept minimal.
"""

import pytest

from repro.api import Session
from repro.faults import (
    FaultSpec,
    margin_slopes,
    sense_margin_degradation,
    store_write_error_rates,
    write_path_isolation,
)


class TestSenseMarginDegradation:
    @pytest.fixture(scope="class")
    def curves(self):
        return sense_margin_degradation(offsets=(0.0, 0.06))

    def test_standard_cell_tolerates_the_offset(self, curves):
        margins = [p["margin"] for p in curves["standard"]]
        assert all(m > 0.9 for m in margins)

    def test_proposed_cell_fails_at_the_same_offset(self, curves):
        assert curves["proposed"][0]["margin"] > 0.9  # fault-free: fine
        assert curves["proposed"][1]["margin"] < 0.0  # 60 mV: wrong data

    def test_proposed_margin_degrades_faster(self, curves):
        slopes = margin_slopes(curves)
        assert slopes["proposed"] < slopes["standard"] < 0.5

    def test_slope_needs_two_points(self):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            margin_slopes({"standard": [{"offset": 0.0, "margin": 1.0}]})


class TestWritePathIsolation:
    @pytest.fixture(scope="class")
    def isolation(self):
        return write_path_isolation(dt=20e-12)

    def test_d0_wer_degrades_under_its_driver_outlier(self, isolation):
        assert isolation["d0_degradation"] > 0.0
        assert isolation["faulty"]["d0"] > 2.0 * isolation["baseline"]["d0"]

    def test_d1_wer_untouched_by_the_d0_fault(self, isolation):
        assert isolation["d1_shift"] <= 1e-12 * isolation["baseline"]["d1"]

    def test_store_wer_matches_standard_cell(self, isolation):
        reference = isolation["standard_bit"]
        for bit in ("d0", "d1"):
            assert isolation["baseline"][bit] == pytest.approx(reference,
                                                               rel=0.2)

    def test_wers_are_probabilities(self, isolation):
        for rates in (isolation["baseline"], isolation["faulty"]):
            assert all(0.0 < rates[bit] < 1.0 for bit in ("d0", "d1"))


class TestStoreWriteErrorRates:
    def test_unknown_design_rejected(self):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            store_write_error_rates("mystery")


class TestRestoreFailureRate:
    def test_stuck_mtj_flips_restored_ones(self):
        # mtj1 pinned AP makes every stored-1 sample restore as 0; the
        # failure rate is the fraction of 1-bits in the sampled stream.
        with Session() as session:
            outcome = session.campaign(
                "standard", [FaultSpec("mtj.stuck", 1.0, target="mtj1")],
                samples=4, workers=2, retries=0)
        assert outcome.samples == 4
        assert outcome.report.failed == 0  # simulations all converged
        assert 0.0 < outcome.failure_rate <= 1.0
        assert "failure rate" in outcome.summary()

    def test_fault_free_cell_never_fails(self):
        with Session() as session:
            outcome = session.campaign("standard", [], samples=2,
                                       workers=1, retries=0)
        assert outcome.failure_rate == 0.0
        assert outcome.mean_margin > 0.9

    def test_unknown_model_fails_before_the_campaign_starts(self):
        from repro.errors import FaultInjectionError

        with pytest.raises(FaultInjectionError, match="bogus.model"):
            with Session() as session:
                session.campaign("standard",
                                 [FaultSpec("bogus.model", 1.0)], samples=1)
