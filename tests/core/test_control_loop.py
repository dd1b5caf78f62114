"""Tests for the regulator, the control policies and the windowed controller."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.lookup_table import VoltageGrid
from repro.core.error_detection import WindowMeasurement
from repro.core.policies import BangBangPolicy, ProportionalPolicy
from repro.core.regulator import (
    VoltageRegulator,
    ramp_delay_cycles_for_step,
)
from repro.core.voltage_controller import WindowedVoltageController


@pytest.fixture()
def grid() -> VoltageGrid:
    return VoltageGrid(v_min=0.7, v_max=1.2, step=0.02)


@pytest.fixture()
def regulator(grid) -> VoltageRegulator:
    return VoltageRegulator(
        grid=grid, v_min=0.9, v_max=1.2, initial_voltage=1.2, ramp_delay_cycles=3000
    )


def _window(start: int, cycles: int, errors: int) -> WindowMeasurement:
    return WindowMeasurement(start_cycle=start, n_cycles=cycles, n_errors=errors)


class TestBangBangPolicy:
    def test_lowers_below_band(self):
        assert BangBangPolicy().decide(0.005) == pytest.approx(-0.02)

    def test_raises_above_band(self):
        assert BangBangPolicy().decide(0.05) == pytest.approx(+0.02)

    def test_holds_inside_band(self):
        assert BangBangPolicy().decide(0.015) == 0.0

    def test_band_boundaries_hold(self):
        policy = BangBangPolicy()
        assert policy.decide(0.01) == 0.0
        assert policy.decide(0.02) == 0.0

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError):
            BangBangPolicy(low_threshold=0.05, high_threshold=0.01)

    @given(rate=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_decision_is_one_of_three_values(self, rate):
        decision = BangBangPolicy().decide(rate)
        assert decision in (-0.02, 0.0, +0.02)


class TestProportionalPolicy:
    def test_steps_towards_target(self):
        policy = ProportionalPolicy(target_error_rate=0.015, gain=2.0)
        assert policy.decide(0.10) > 0.0
        assert policy.decide(0.0) < 0.0

    def test_clamped_to_max_steps(self):
        policy = ProportionalPolicy(target_error_rate=0.01, gain=10.0, max_steps=2)
        assert policy.decide(1.0) == pytest.approx(2 * policy.step)
        assert policy.decide(0.0) == pytest.approx(-2 * policy.step)

    def test_quantised_to_step(self):
        policy = ProportionalPolicy()
        decision = policy.decide(0.2)
        n_steps = round(decision / policy.step)
        assert decision == pytest.approx(n_steps * policy.step)

    def test_invalid_max_steps_rejected(self):
        with pytest.raises(ValueError):
            ProportionalPolicy(max_steps=0)


class TestVoltageRegulator:
    def test_initial_voltage_snapped_and_clamped(self, grid):
        regulator = VoltageRegulator(grid, v_min=0.9, v_max=1.2, initial_voltage=1.35)
        assert regulator.current_voltage == pytest.approx(1.2)

    def test_change_applied_after_ramp_delay(self, regulator):
        event = regulator.request_change(-0.02, decision_cycle=10_000)
        assert event is not None and event.cycle == 13_000
        assert regulator.current_voltage == pytest.approx(1.2)
        regulator.apply_until(12_999)
        assert regulator.current_voltage == pytest.approx(1.2)
        regulator.apply_until(13_000)
        assert regulator.current_voltage == pytest.approx(1.18)

    def test_floor_respected(self, grid):
        regulator = VoltageRegulator(grid, v_min=1.18, v_max=1.2, initial_voltage=1.2)
        event = regulator.request_change(-0.06, decision_cycle=0)
        regulator.apply_until(event.cycle)
        assert regulator.current_voltage == pytest.approx(1.18)
        assert regulator.request_change(-0.02, decision_cycle=20_000) is None

    def test_ceiling_respected(self, regulator):
        assert regulator.request_change(+0.02, decision_cycle=0) is None

    def test_pending_change_blocks_new_requests(self, regulator):
        regulator.request_change(-0.02, decision_cycle=0)
        with pytest.raises(RuntimeError):
            regulator.request_change(-0.02, decision_cycle=100)

    def test_voltage_breakpoints_cover_run(self, regulator):
        event = regulator.request_change(-0.02, decision_cycle=10_000)
        regulator.apply_until(event.cycle)
        segments = regulator.voltage_breakpoints(20_000)
        assert segments[0] == (0, 13_000, pytest.approx(1.2))
        assert segments[-1] == (13_000, 20_000, pytest.approx(1.18))
        total = sum(end - start for start, end, _ in segments)
        assert total == 20_000

    def test_invalid_bounds_rejected(self, grid):
        with pytest.raises(ValueError):
            VoltageRegulator(grid, v_min=1.3, v_max=1.2, initial_voltage=1.2)

    def test_paper_ramp_delay_is_3000_cycles(self):
        assert ramp_delay_cycles_for_step(0.020, 1.5e9) == 3000

    def test_ramp_delay_scales_with_step(self):
        assert ramp_delay_cycles_for_step(0.040, 1.5e9) == 6000


class TestWindowedVoltageController:
    def test_window_shorter_than_ramp_rejected(self, regulator):
        with pytest.raises(ValueError):
            WindowedVoltageController(regulator, window_cycles=1000)

    def test_window_equal_to_ramp_rejected(self, regulator):
        # A change decided at the end of one window would land exactly when
        # the next decision comes due, before it is applied.
        with pytest.raises(ValueError, match="longer than the regulator ramp"):
            WindowedVoltageController(regulator, window_cycles=3000)

    def test_low_error_rate_schedules_step_down(self, regulator):
        controller = WindowedVoltageController(regulator, window_cycles=10_000)
        decision = controller.on_window(_window(0, 10_000, 0))
        assert decision.requested_delta == pytest.approx(-0.02)
        assert decision.scheduled_event is not None
        assert decision.scheduled_event.cycle == 13_000

    def test_in_band_error_rate_holds(self, regulator):
        controller = WindowedVoltageController(regulator, window_cycles=10_000)
        decision = controller.on_window(_window(0, 10_000, 150))
        assert decision.requested_delta == 0.0
        assert decision.scheduled_event is None

    def test_high_error_rate_schedules_step_up(self, grid):
        regulator = VoltageRegulator(grid, v_min=0.9, v_max=1.2, initial_voltage=1.0)
        controller = WindowedVoltageController(regulator, window_cycles=10_000)
        decision = controller.on_window(_window(0, 10_000, 500))
        assert decision.requested_delta == pytest.approx(+0.02)

    def test_decisions_are_recorded(self, regulator):
        controller = WindowedVoltageController(regulator, window_cycles=10_000)
        controller.on_window(_window(0, 10_000, 0))
        assert len(controller.decisions) == 1
