"""Tests for the behavioural shadow architecture, the power-gating
protocol, the k-bit cost model, and the end-to-end system flow."""

import gc

import pytest
from hypothesis import given, strategies as st

from repro.core import flow
from repro.core.flow import FlowConfig, run_system_flow
from repro.core.multibit import KBitCostModel, kbit_transistor_count, plan_kbit
from repro.core.shadow import (
    MultiBitShadowGroup,
    NVBitCell,
    PowerGatingController,
    PowerState,
    ShadowFlipFlop,
)
from repro.errors import AnalysisError, MergeError, PlacementError


class TestNVBitCell:
    @given(st.integers(min_value=0, max_value=1))
    def test_store_restore_roundtrip(self, bit):
        cell = NVBitCell()
        cell.store(bit)
        assert cell.restore() == bit

    def test_invalid_pair_raises(self):
        cell = NVBitCell()
        cell.store(1)
        cell.corrupt("comp")
        with pytest.raises(AnalysisError):
            cell.restore()

    def test_corrupt_true_junction_flips_the_bit(self):
        cell = NVBitCell()
        cell.store(1)
        cell.corrupt("true")
        cell.corrupt("comp")
        # Both flipped: still valid but now encodes the wrong value.
        assert cell.is_valid()
        assert cell.restore() == 0

    def test_corrupt_unknown_junction(self):
        with pytest.raises(AnalysisError):
            NVBitCell().corrupt("middle")


class TestShadowFlipFlop:
    def test_normal_operation(self):
        ff = ShadowFlipFlop()
        assert ff.clock(1) == 1
        assert ff.clock(0) == 0

    def test_power_cycle_restores_state(self):
        ff = ShadowFlipFlop()
        ff.clock(1)
        ff.store()
        ff.power_down()
        assert ff.power is PowerState.OFF
        restored = ff.power_up_and_restore()
        assert restored == 1 and ff.q == 1

    def test_power_down_without_store_loses_data(self):
        ff = ShadowFlipFlop()
        ff.clock(1)
        ff.power_down()
        ff.power = PowerState.ON
        assert ff.flop.q == 0  # invalidated

    def test_clock_while_off_raises(self):
        ff = ShadowFlipFlop()
        ff.power_down()
        with pytest.raises(AnalysisError):
            ff.clock(1)

    def test_q_while_off_raises(self):
        ff = ShadowFlipFlop()
        ff.power_down()
        with pytest.raises(AnalysisError):
            _ = ff.q

    def test_store_while_off_raises(self):
        ff = ShadowFlipFlop()
        ff.power_down()
        with pytest.raises(AnalysisError):
            ff.store()


class TestMultiBitShadowGroup:
    @given(st.integers(min_value=0, max_value=1),
           st.integers(min_value=0, max_value=1))
    def test_power_cycle_roundtrip(self, d0, d1):
        group = MultiBitShadowGroup()
        group.clock(d0, d1)
        group.store()
        group.power_down()
        assert group.power_up_and_restore() == (d0, d1)

    def test_restore_is_sequential_lower_first(self):
        group = MultiBitShadowGroup()
        group.clock(1, 0)
        group.store()
        group.power_down()
        group.power_up_and_restore()
        assert group.restore_order == [0, 1]

    def test_corrupted_bit_detected_on_restore(self):
        group = MultiBitShadowGroup()
        group.clock(1, 1)
        group.store()
        group.bits[1].corrupt("true")
        group.power_down()
        with pytest.raises(AnalysisError):
            group.power_up_and_restore()


class TestPowerGatingController:
    def _controller(self, n_singles=3, n_groups=2):
        return PowerGatingController(
            singles=[ShadowFlipFlop() for _ in range(n_singles)],
            groups=[MultiBitShadowGroup() for _ in range(n_groups)],
        )

    def test_full_standby_cycle(self):
        ctl = self._controller()
        ctl.singles[0].clock(1)
        ctl.groups[0].clock(1, 1)
        ctl.enter_standby()
        assert ctl.pd
        latency = ctl.wake_up()
        assert not ctl.pd
        assert ctl.singles[0].q == 1
        assert ctl.groups[0].flops[0].q == 1
        assert latency <= ctl.wakeup_budget

    def test_group_restore_dominates_latency(self):
        ctl = self._controller()
        ctl.enter_standby()
        assert ctl.wake_up() == pytest.approx(ctl.group_restore_time)

    def test_double_standby_rejected(self):
        ctl = self._controller()
        ctl.enter_standby()
        with pytest.raises(AnalysisError):
            ctl.enter_standby()

    def test_wake_without_standby_rejected(self):
        with pytest.raises(AnalysisError):
            self._controller().wake_up()

    def test_budget_violation_raises(self):
        ctl = self._controller()
        ctl.wakeup_budget = 0.1e-9
        ctl.enter_standby()
        with pytest.raises(AnalysisError):
            ctl.wake_up()


class TestKBitModel:
    def test_transistor_counts_anchor_points(self):
        assert kbit_transistor_count(1) == 11  # standard latch
        assert kbit_transistor_count(2) == 16  # paper's proposed design

    def test_transistors_per_bit_decrease(self):
        per_bit = [kbit_transistor_count(k) / k for k in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(per_bit, per_bit[1:]))

    def test_rejects_bad_k(self):
        with pytest.raises(MergeError):
            kbit_transistor_count(0)

    def test_plan_k2_matches_proposed_area(self):
        from repro.layout.cell_layout import plan_proposed_2bit

        assert plan_kbit(2).area == pytest.approx(plan_proposed_2bit().area,
                                                  rel=0.02)

    def test_plan_k1_is_standard(self):
        from repro.layout.cell_layout import plan_standard_1bit

        assert plan_kbit(1).area == plan_standard_1bit().area

    def test_area_per_bit_decreases_with_k(self):
        model = KBitCostModel(energy_1bit=3e-15, energy_2bit=5e-15,
                              delay_per_bit=0.3e-9)
        per_bit = [model.area(k) / k for k in (2, 4, 6)]
        assert all(a > b for a, b in zip(per_bit, per_bit[1:]))

    def test_energy_fit_anchors(self):
        model = KBitCostModel(energy_1bit=3e-15, energy_2bit=5e-15,
                              delay_per_bit=0.3e-9)
        assert model.read_energy(1) == 3e-15
        assert model.read_energy(2) == 5e-15

    def test_delay_linear_in_k(self):
        model = KBitCostModel(energy_1bit=3e-15, energy_2bit=5e-15,
                              delay_per_bit=0.3e-9)
        assert model.read_delay(4) == pytest.approx(4 * 0.3e-9)

    def test_summary_fields(self):
        model = KBitCostModel(energy_1bit=3e-15, energy_2bit=5e-15,
                              delay_per_bit=0.3e-9)
        summary = model.per_bit_summary(4)
        assert summary["k"] == 4
        assert summary["transistors_per_bit"] == pytest.approx(22 / 4)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(MergeError):
            KBitCostModel(energy_1bit=0.0, energy_2bit=1.0, delay_per_bit=1.0)


class TestSystemFlow:
    def test_s344_flow_outcome(self, s344_flow_outcome):
        outcome = s344_flow_outcome
        assert outcome.result.total_flip_flops == 15
        assert outcome.result.merged_pairs >= 4
        assert 0.0 < outcome.result.area_improvement < 0.34
        assert 0.0 < outcome.result.energy_improvement < 0.20

    def test_flow_components_consistent(self, s344_flow_outcome):
        outcome = s344_flow_outcome
        assert outcome.merge.total_flip_flops == outcome.netlist.num_flip_flops
        assert outcome.replacement.num_2bit == len(outcome.merge.pairs)

    def test_flow_is_deterministic(self, s344_flow_outcome):
        again = run_system_flow("s344")
        assert again.result.merged_pairs == s344_flow_outcome.result.merged_pairs

    def test_flow_seed_changes_outcome_details(self):
        default = run_system_flow("s344")
        other = run_system_flow("s344", FlowConfig(seed=99))
        # Same scale of result, not necessarily identical pairing.
        assert abs(other.result.merged_pairs - default.result.merged_pairs) <= 3

    def test_area_improvement_bounded_by_cell_gain(self, s344_flow_outcome):
        from repro.core.evaluate import PAPER_COSTS

        cell_gain = 1 - PAPER_COSTS.area_2bit / (2 * PAPER_COSTS.area_1bit)
        assert s344_flow_outcome.result.area_improvement <= cell_gain + 1e-12


class TestCollectorPause:
    """``run_system_flow`` and the Table III row worker pause the cyclic
    collector for the whole flow and hand the caller's state back."""

    def test_flow_builds_no_reference_cycles(self, s344_flow_outcome):
        # The pause's premise: reference counting alone frees a dropped
        # outcome, so a collection afterwards finds nothing unreachable.
        # (The shared s344 run has already imported what the flow loads.)
        gc.collect()
        gc.disable()
        try:
            run_system_flow("s5378")
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_collector_is_off_from_generation_to_evaluation(self,
                                                            monkeypatch):
        seen = []

        def recording(step):
            def wrapped(*args, **kwargs):
                seen.append((step.__name__, gc.isenabled()))
                return step(*args, **kwargs)
            return wrapped

        for name in ("generate_benchmark", "place_design",
                     "evaluate_system"):
            monkeypatch.setattr(flow, name, recording(getattr(flow, name)))
        run_system_flow("s344")
        assert seen == [("generate_benchmark", False),
                        ("place_design", False), ("evaluate_system", False)]

    def test_collector_is_back_on_after_return_and_raise(self):
        assert gc.isenabled()
        run_system_flow("s344")
        assert gc.isenabled()
        with pytest.raises(PlacementError):
            run_system_flow("s344", FlowConfig(utilization=0.99))
        assert gc.isenabled()

    def test_a_table3_row_drops_the_artefacts_before_resuming(self):
        # The row worker holds the pause until the flow's outcome is
        # dropped, so the collection that follows the flow scans a handful
        # of young objects, not the ~15,000 of s5378's live artefacts.
        from repro.core.evaluate import _flow_result

        young = []

        def record(phase, info):
            if phase == "start":
                young.append(len(gc.get_objects(generation=0)))

        gc.collect()  # no collection is due on entry to the worker
        gc.callbacks.append(record)
        try:
            _flow_result("s5378")
        finally:
            gc.callbacks.remove(record)
        assert gc.isenabled()
        assert all(size < 1000 for size in young), young

    def test_a_caller_that_disabled_the_collector_keeps_it_off(self):
        gc.disable()
        try:
            run_system_flow("s344")
            assert not gc.isenabled()
            with pytest.raises(PlacementError):
                run_system_flow("s344", FlowConfig(utilization=0.99))
            assert not gc.isenabled()
        finally:
            gc.enable()
