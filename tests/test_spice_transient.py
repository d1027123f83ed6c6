"""Tests for transient analysis."""

import math

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.spice import Circuit, DC, Pulse, run_transient


def rc_circuit(tau_r=1e3, tau_c=1e-12, delay=0.1e-9):
    c = Circuit()
    c.add_vsource("vin", "a", "0",
                  Pulse(0.0, 1.0, delay=delay, rise=1e-12, width=50e-9))
    c.add_resistor("r", "a", "b", tau_r)
    c.add_capacitor("cl", "b", "0", tau_c)
    return c


class TestRCAccuracy:
    def test_be_one_tau(self):
        c = rc_circuit()
        result = run_transient(c, 3e-9, 1e-12, integrator="be")
        assert result.sample("b", 0.1e-9 + 1e-9) == pytest.approx(
            1 - math.exp(-1), rel=5e-3)

    def test_trap_one_tau_tighter(self):
        c = rc_circuit()
        result = run_transient(c, 3e-9, 1e-12, integrator="trap")
        assert result.sample("b", 0.1e-9 + 1e-9) == pytest.approx(
            1 - math.exp(-1), rel=1e-3)

    def test_trap_beats_be_at_coarse_step(self):
        # With the input ramp resolved by the coarse grid, the
        # second-order trapezoidal rule must beat backward Euler.  The
        # reference is a fine-step run.
        def build():
            c = Circuit()
            c.add_vsource("vin", "a", "0",
                          Pulse(0.0, 1.0, delay=0.1e-9, rise=100e-12,
                                width=50e-9))
            c.add_resistor("r", "a", "b", 1e3)
            c.add_capacitor("cl", "b", "0", 1e-12)
            return c

        reference = run_transient(build(), 3e-9, 1e-12, integrator="trap")
        errors = {}
        for integ in ("be", "trap"):
            result = run_transient(build(), 3e-9, 25e-12, integrator=integ)
            ref_samples = np.interp(result.times, reference.times,
                                    reference.voltage("b"))
            errors[integ] = float(np.sqrt(np.mean(
                (result.voltage("b") - ref_samples) ** 2)))
        assert errors["trap"] < errors["be"]

    def test_final_value_settles_to_input(self):
        c = rc_circuit()
        result = run_transient(c, 8e-9, 2e-12)
        assert result.final_voltage("b") == pytest.approx(1.0, abs=1e-3)

    def test_capacitor_divider_charge_sharing(self):
        # Two series caps divide a step by the capacitance ratio.
        c = Circuit()
        c.add_vsource("vin", "a", "0", Pulse(0.0, 1.0, delay=0.05e-9, rise=1e-12))
        c.add_capacitor("c1", "a", "mid", 2e-15)
        c.add_capacitor("c2", "mid", "0", 2e-15)
        result = run_transient(c, 0.5e-9, 1e-12)
        assert result.final_voltage("mid") == pytest.approx(0.5, abs=0.02)


class TestIntegratorOrder:
    """Convergence-order check: halving dt must halve the backward-Euler
    error (first order) and quarter the trapezoidal error (second order).

    The stimulus edges land exactly on every tested grid (delay and rise
    are multiples of the coarsest dt) so the measured ratios reflect the
    integrator truncation error, not stimulus aliasing.  Errors are RMS
    against a 32×-finer reference run of the same integrator; Newton
    tolerance is tightened well below the truncation errors compared.
    """

    DTS = (16e-12, 8e-12, 4e-12)
    STOP = 512e-12

    def _errors(self, integrator):
        def build():
            c = Circuit()
            c.add_vsource("vin", "a", "0",
                          Pulse(0.0, 1.0, delay=32e-12, rise=32e-12,
                                width=10e-9))
            c.add_resistor("r", "a", "b", 1e3)
            c.add_capacitor("cl", "b", "0", 0.1e-12)
            return c

        reference = run_transient(build(), self.STOP, 0.5e-12,
                                  integrator=integrator, vtol=1e-10)
        errors = []
        for dt in self.DTS:
            result = run_transient(build(), self.STOP, dt,
                                   integrator=integrator, vtol=1e-10)
            ref = np.interp(result.times, reference.times,
                            reference.voltage("b"))
            errors.append(float(np.sqrt(np.mean(
                (result.voltage("b") - ref) ** 2))))
        return errors

    def test_backward_euler_is_first_order(self):
        errors = self._errors("be")
        for coarse, fine in zip(errors, errors[1:]):
            assert 1.6 < coarse / fine < 2.6, (
                f"BE error ratio {coarse / fine:.2f} not ~2: {errors}")

    def test_trapezoidal_is_second_order(self):
        errors = self._errors("trap")
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.2 < coarse / fine < 5.0, (
                f"trap error ratio {coarse / fine:.2f} not ~4: {errors}")


class TestInitialConditions:
    def test_dc_start_by_default(self):
        # With a constant source, the transient must start at the DC point.
        c = Circuit()
        c.add_vsource("v", "a", "0", DC(1.0))
        c.add_resistor("r", "a", "b", 1e3)
        c.add_capacitor("cl", "b", "0", 1e-15)
        result = run_transient(c, 0.2e-9, 1e-12)
        assert result.voltage("b")[0] == pytest.approx(1.0, rel=1e-3)

    def test_cold_start_with_initial_voltages(self):
        c = Circuit()
        c.add_vsource("v", "a", "0", DC(1.0))
        c.add_resistor("r", "a", "b", 1e3)
        c.add_capacitor("cl", "b", "0", 1e-12)
        result = run_transient(c, 0.1e-9, 1e-12, initial_voltages={})
        assert result.voltage("b")[0] == pytest.approx(0.0, abs=1e-6)
        assert result.final_voltage("b") > 0.05

    def test_dc_seed_selects_latch_branch(self):
        c = Circuit()
        c.add_vsource("vdd", "vdd", "0", 1.1)
        c.add_pmos("p1", "a", "b", "vdd", "vdd")
        c.add_nmos("n1", "a", "b", "0")
        c.add_pmos("p2", "b", "a", "vdd", "vdd")
        c.add_nmos("n2", "b", "a", "0")
        result = run_transient(c, 0.1e-9, 1e-12, dc_seed={"a": 1.1, "b": 0.0})
        assert result.final_voltage("a") > 1.0

    def test_rerun_starts_with_an_empty_switching_log(self):
        # Each run resets the junction to its initial state, so the
        # switching events it leaves are that run's alone.
        from repro.mtj.device import MTJState

        c = Circuit("write")
        c.add_vsource("vw", "drv", "0",
                      Pulse(0.0, 1.1, delay=0.05e-9, rise=10e-12,
                            width=8e-9))
        c.add_resistor("rs", "drv", "top", 1.5e3)
        c.add_mtj("bit", "top", "0", state=MTJState.PARALLEL, dynamic=True)
        c.add_capacitor("cl", "top", "0", 0.2e-15)
        for _ in range(2):
            run_transient(c, 6e-9, 5e-12)
        assert len(c.device("bit").switching.events) == 1


class TestResultAccessors:
    @pytest.fixture
    def result(self):
        return run_transient(rc_circuit(), 1e-9, 1e-12)

    def test_times_shape(self, result):
        assert len(result.times) == 1001
        assert result.times[0] == 0.0
        assert result.times[-1] == pytest.approx(1e-9)

    def test_voltage_of_ground_is_zero(self, result):
        assert np.all(result.voltage("0") == 0.0)

    def test_voltage_of_ground_alias_is_zero(self, result):
        assert np.all(result.voltage("gnd") == 0.0)

    def test_misspelled_node_raises(self, result):
        # A typo used to silently read as a zero waveform, making broken
        # measurements look like a stuck node.
        with pytest.raises(AnalysisError, match="no node named 'bb'"):
            result.voltage("bb")
        with pytest.raises(AnalysisError):
            result.sample("out_typo", 0.5e-9)

    def test_source_current_waveform(self, result):
        current = result.source_current("vin")
        assert len(current) == len(result.times)
        # After the edge the source drives the charging current (negative).
        idx = np.searchsorted(result.times, 0.12e-9)
        assert current[idx] < 0.0

    def test_sample_interpolates(self, result):
        v1 = result.sample("b", 0.5e-9)
        v2 = result.sample("b", 0.5001e-9)
        assert abs(v1 - v2) < 0.01

    def test_window_mask(self, result):
        mask = result.window(0.2e-9, 0.4e-9)
        assert mask.sum() == pytest.approx(201, abs=2)

    def test_window_rejects_inverted(self, result):
        with pytest.raises(AnalysisError):
            result.window(0.4e-9, 0.2e-9)

    def test_source_current_requires_vsource(self, result):
        with pytest.raises(AnalysisError):
            result.source_current("r")


class TestValidation:
    def test_rejects_nonpositive_times(self):
        with pytest.raises(AnalysisError):
            run_transient(rc_circuit(), -1e-9, 1e-12)
        with pytest.raises(AnalysisError):
            run_transient(rc_circuit(), 1e-9, 0.0)

    def test_rejects_dt_longer_than_stop(self):
        with pytest.raises(AnalysisError):
            run_transient(rc_circuit(), 1e-12, 1e-9)

    def test_rejects_unknown_integrator(self):
        with pytest.raises(AnalysisError):
            run_transient(rc_circuit(), 1e-9, 1e-12, integrator="euler")


class TestEnergyConservation:
    def test_supply_energy_equals_dissipation_plus_storage(self):
        # Charge a capacitor through a resistor to completion: the source
        # delivers C·V², half stored, half dissipated.
        from repro.spice.analysis.measure import integrate_supply_energy

        c = Circuit()
        c.add_vsource("v", "a", "0", Pulse(0.0, 1.0, delay=0.01e-9, rise=1e-12))
        c.add_resistor("r", "a", "b", 1e3)
        c.add_capacitor("cl", "b", "0", 1e-15)
        result = run_transient(c, 0.05e-9 + 10e-12 * 1000, 1e-12,
                               integrator="trap")
        energy = integrate_supply_energy(result, "v")
        assert energy == pytest.approx(1e-15, rel=0.02)  # C·V²


class TestWallClockTimeout:
    def test_timeout_raises_with_last_state(self):
        from repro.errors import ConvergenceError

        with pytest.raises(ConvergenceError, match="wall-clock timeout") as ei:
            run_transient(rc_circuit(), 1e-6, 1e-12, timeout=1e-9)
        assert ei.value.state is not None
        assert np.isfinite(ei.value.state).all()

    def test_generous_timeout_is_invisible(self):
        with_limit = run_transient(rc_circuit(), 0.1e-9, 1e-12, timeout=60.0)
        without = run_transient(rc_circuit(), 0.1e-9, 1e-12)
        assert (with_limit.node_voltages == without.node_voltages).all()

    def test_non_positive_timeout_rejected(self):
        with pytest.raises(AnalysisError, match="timeout"):
            run_transient(rc_circuit(), 1e-9, 1e-12, timeout=0.0)
