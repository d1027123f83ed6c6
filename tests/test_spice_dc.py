"""Tests for DC operating-point analysis."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AnalysisError, ConvergenceError
from repro.spice import Circuit, solve_dc


class TestLinearCircuits:
    def test_resistor_divider(self):
        c = Circuit()
        c.add_vsource("v", "in", "0", 1.0)
        c.add_resistor("r1", "in", "mid", 1e3)
        c.add_resistor("r2", "mid", "0", 3e3)
        result = solve_dc(c)
        assert result.voltage("mid") == pytest.approx(0.75, rel=1e-6)

    def test_source_current_sign(self):
        # A sourcing supply reports negative branch current (SPICE style).
        c = Circuit()
        c.add_vsource("v", "a", "0", 1.0)
        c.add_resistor("r", "a", "0", 100.0)
        result = solve_dc(c)
        assert result.source_current("v") == pytest.approx(-0.01, rel=1e-6)

    def test_supply_power_positive_when_sourcing(self):
        c = Circuit()
        c.add_vsource("v", "a", "0", 2.0)
        c.add_resistor("r", "a", "0", 1e3)
        result = solve_dc(c)
        assert result.supply_power("v") == pytest.approx(4e-3, rel=1e-6)

    def test_current_source_into_resistor(self):
        c = Circuit()
        c.add_isource("i", "a", "0", 1e-3)
        c.add_resistor("r", "a", "0", 1e3)
        result = solve_dc(c)
        assert result.voltage("a") == pytest.approx(1.0, rel=1e-5)

    def test_two_sources_superposition(self):
        c = Circuit()
        c.add_vsource("v1", "a", "0", 1.0)
        c.add_vsource("v2", "b", "0", 2.0)
        c.add_resistor("r1", "a", "mid", 1e3)
        c.add_resistor("r2", "b", "mid", 1e3)
        result = solve_dc(c)
        assert result.voltage("mid") == pytest.approx(1.5, rel=1e-6)

    def test_floating_node_pulled_by_gmin(self):
        c = Circuit()
        c.add_vsource("v", "a", "0", 1.0)
        c.add_resistor("r", "a", "b", 1e3)
        # Node b floats except through gmin: should sit at ~1 V (no drop).
        result = solve_dc(c)
        assert result.voltage("b") == pytest.approx(1.0, rel=1e-3)

    @given(st.floats(min_value=10.0, max_value=1e6),
           st.floats(min_value=10.0, max_value=1e6))
    @settings(max_examples=25)
    def test_divider_formula(self, r1, r2):
        c = Circuit()
        c.add_vsource("v", "in", "0", 1.0)
        c.add_resistor("r1", "in", "mid", r1)
        c.add_resistor("r2", "mid", "0", r2)
        result = solve_dc(c)
        assert result.voltage("mid") == pytest.approx(r2 / (r1 + r2), rel=1e-4)


class TestNonlinearCircuits:
    def _inverter(self, vin: float) -> float:
        c = Circuit()
        c.add_vsource("vdd", "vdd", "0", 1.1)
        c.add_vsource("vin", "in", "0", vin)
        c.add_pmos("mp", "out", "in", "vdd", "vdd")
        c.add_nmos("mn", "out", "in", "0")
        return solve_dc(c).voltage("out")

    def test_inverter_low_input(self):
        assert self._inverter(0.0) == pytest.approx(1.1, abs=0.01)

    def test_inverter_high_input(self):
        assert self._inverter(1.1) == pytest.approx(0.0, abs=0.01)

    def test_inverter_transfer_is_decreasing(self):
        outputs = [self._inverter(v) for v in (0.0, 0.3, 0.55, 0.8, 1.1)]
        assert all(a >= b - 1e-9 for a, b in zip(outputs, outputs[1:]))

    def test_diode_connected_nmos(self):
        c = Circuit()
        c.add_vsource("vdd", "vdd", "0", 1.1)
        c.add_resistor("r", "vdd", "d", 10e3)
        c.add_nmos("m", "d", "d", "0", width=1e-6)
        v = solve_dc(c).voltage("d")
        # Diode-connected: a threshold-ish drop, well below the rail.
        assert 0.3 < v < 0.8

    def test_bistable_latch_follows_seed(self):
        def build():
            c = Circuit()
            c.add_vsource("vdd", "vdd", "0", 1.1)
            c.add_pmos("p1", "a", "b", "vdd", "vdd")
            c.add_nmos("n1", "a", "b", "0")
            c.add_pmos("p2", "b", "a", "vdd", "vdd")
            c.add_nmos("n2", "b", "a", "0")
            return c

        high_a = solve_dc(build(), initial_guess={"a": 1.1, "b": 0.0})
        assert high_a.voltage("a") > 1.0 and high_a.voltage("b") < 0.1
        high_b = solve_dc(build(), initial_guess={"a": 0.0, "b": 1.1})
        assert high_b.voltage("b") > 1.0 and high_b.voltage("a") < 0.1

    def test_mtj_divider(self):
        from repro.mtj.device import MTJState

        c = Circuit()
        c.add_vsource("v", "top", "0", 1.1)
        c.add_mtj("mp", "top", "mid", state=MTJState.PARALLEL, dynamic=False)
        c.add_mtj("map", "mid", "0", state=MTJState.ANTIPARALLEL, dynamic=False)
        v_mid = solve_dc(c).voltage("mid")
        # AP (≈11 kΩ, with roll-off) below P (5 kΩ): mid well above half.
        assert v_mid > 0.6


class TestKCL:
    def test_branch_currents_satisfy_kcl(self):
        c = Circuit()
        c.add_vsource("v", "a", "0", 1.0)
        c.add_resistor("r1", "a", "b", 1e3)
        c.add_resistor("r2", "b", "0", 2e3)
        c.add_resistor("r3", "b", "0", 2e3)
        result = solve_dc(c)
        i_in = (result.voltage("a") - result.voltage("b")) / 1e3
        i_out = result.voltage("b") / 2e3 * 2
        assert i_in == pytest.approx(i_out, rel=1e-6)


class TestDiagnostics:
    def test_result_reports_iterations(self):
        c = Circuit()
        c.add_vsource("v", "a", "0", 1.0)
        c.add_resistor("r", "a", "0", 1e3)
        result = solve_dc(c)
        assert result.iterations >= 1

    def test_source_current_requires_vsource(self):
        c = Circuit()
        c.add_vsource("v", "a", "0", 1.0)
        c.add_resistor("r", "a", "0", 1e3)
        result = solve_dc(c)
        with pytest.raises(ConvergenceError):
            result.source_current("r")


class TestWallClockTimeout:
    def _divider(self):
        c = Circuit()
        c.add_vsource("v", "in", "0", 1.0)
        c.add_resistor("r1", "in", "mid", 1e3)
        c.add_resistor("r2", "mid", "0", 3e3)
        return c

    def test_timeout_raises_with_last_newton_state(self):
        with pytest.raises(ConvergenceError, match="timeout") as ei:
            solve_dc(self._divider(), timeout=1e-12)
        assert ei.value.state is not None

    def test_generous_timeout_is_invisible(self):
        limited = solve_dc(self._divider(), timeout=60.0)
        free = solve_dc(self._divider())
        assert limited.voltage("mid") == free.voltage("mid")

    def test_non_positive_timeout_rejected(self):
        # An argument error, raised before the ERC pre-flight (as
        # run_transient does), not a solver failure.
        with pytest.raises(AnalysisError, match="positive"):
            solve_dc(self._divider(), timeout=-1.0)
        floating = self._divider()
        floating.add_resistor("r3", "a", "b", 1e3)  # fails the pre-flight
        with pytest.raises(AnalysisError, match="positive"):
            solve_dc(floating, timeout=0.0)
