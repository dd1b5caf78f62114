"""Tests for the fixed-VS baseline, the oracle and the closed-loop DVS system."""

import numpy as np
import pytest

from repro.bus.bus_model import analyze_trace_statistics
from repro.core.dvs_system import DVSBusSystem
from repro.core.fixed_vs import evaluate_fixed_scaling, fixed_scaling_voltage
from repro.core.oracle import min_error_free_voltage_per_cycle, oracle_voltage_schedule
from repro.core.policies import BangBangPolicy, ProportionalPolicy


class TestFixedScaling:
    def test_worst_corner_gives_no_gain(self, worst_corner_bus, crafty_trace):
        stats = analyze_trace_statistics(crafty_trace, worst_corner_bus.design.topology)
        result = evaluate_fixed_scaling(worst_corner_bus, stats)
        assert result.voltage == pytest.approx(1.2)
        assert result.energy_gain_percent == pytest.approx(0.0, abs=0.2)
        assert result.error_rate == 0.0

    def test_typical_corner_gains_from_process_knowledge(self, typical_corner_bus, crafty_stats):
        result = evaluate_fixed_scaling(typical_corner_bus, crafty_stats)
        # The paper reports 17 %; the reproduction lands near 19 %.
        assert 12.0 < result.energy_gain_percent < 25.0
        assert result.error_rate == 0.0

    def test_fixed_voltage_keeps_margin_above_actual_zero_error_voltage(
        self, typical_corner_bus
    ):
        fixed = fixed_scaling_voltage(typical_corner_bus)
        assert fixed > typical_corner_bus.zero_error_voltage()


class TestOracle:
    def test_min_error_free_voltage_monotone_in_coupling(self, typical_corner_bus, crafty_stats):
        voltages = min_error_free_voltage_per_cycle(typical_corner_bus, crafty_stats)
        assert voltages.shape == (crafty_stats.n_cycles,)
        order = np.argsort(crafty_stats.worst_coupling)
        assert np.all(np.diff(voltages[order]) >= -1e-12)

    def test_zero_target_gives_zero_errors(self, typical_corner_bus, crafty_stats):
        schedule = oracle_voltage_schedule(
            typical_corner_bus, crafty_stats, target_error_rate=0.0, window_cycles=5000
        )
        assert schedule.average_error_rate == 0.0

    def test_higher_target_allows_lower_voltages(self, typical_corner_bus, crafty_stats):
        tight = oracle_voltage_schedule(typical_corner_bus, crafty_stats, 0.0, 5000)
        loose = oracle_voltage_schedule(typical_corner_bus, crafty_stats, 0.05, 5000)
        assert loose.window_voltages.mean() <= tight.window_voltages.mean()
        assert loose.energy_gain_percent >= tight.energy_gain_percent

    def test_window_error_rates_respect_target(self, typical_corner_bus, crafty_stats):
        target = 0.02
        schedule = oracle_voltage_schedule(typical_corner_bus, crafty_stats, target, 5000)
        assert np.all(schedule.window_error_rates <= target + 1e-9)

    def test_residency_sums_to_one(self, typical_corner_bus, crafty_stats):
        schedule = oracle_voltage_schedule(typical_corner_bus, crafty_stats, 0.02, 5000)
        assert sum(schedule.voltage_residency().values()) == pytest.approx(1.0)

    def test_statistics_without_cycles_give_an_empty_schedule(
        self, typical_corner_bus, crafty_stats
    ):
        schedule = oracle_voltage_schedule(typical_corner_bus, crafty_stats.slice(0, 0), 0.02)
        assert schedule.n_windows == 0
        assert schedule.energy.total_with_recovery == 0.0
        assert schedule.reference_energy.total_with_recovery == 0.0

    def test_voltages_respect_floor(self, typical_corner_bus, crafty_stats):
        floor = 1.0
        schedule = oracle_voltage_schedule(
            typical_corner_bus, crafty_stats, 0.05, 5000, v_floor=floor
        )
        assert np.all(schedule.window_voltages >= floor - 1e-12)


def _fast_system(bus, **kwargs):
    """A DVS system with a proportionally scaled-down control loop.

    The shared test traces are tens of thousands of cycles long, so the
    paper's 10 000-cycle window would never reach steady state; shrinking the
    window and ramp delay together preserves the loop dynamics.
    """
    return DVSBusSystem(bus, window_cycles=1000, ramp_delay_cycles=300, **kwargs)


class TestDVSBusSystem:
    def test_no_failures_and_voltage_between_floor_and_nominal(
        self, typical_corner_bus, crafty_trace
    ):
        system = DVSBusSystem(typical_corner_bus)
        result = system.run(crafty_trace)
        assert result.failures == 0
        assert result.minimum_voltage_reached >= system.v_floor - 1e-12
        assert result.final_voltage <= 1.2 + 1e-12

    def test_controller_scales_down_at_typical_corner(self, typical_corner_bus, crafty_trace):
        result = _fast_system(typical_corner_bus).run(crafty_trace)
        assert result.minimum_voltage_reached < typical_corner_bus.zero_error_voltage() + 1e-12
        assert result.energy_gain_percent > 10.0

    def test_dvs_beats_fixed_scaling_at_typical_corner(self, typical_corner_bus, crafty_trace):
        stats = analyze_trace_statistics(crafty_trace, typical_corner_bus.design.topology)
        fixed = evaluate_fixed_scaling(typical_corner_bus, stats)
        dvs = _fast_system(typical_corner_bus).run(stats, warmup_cycles=15_000)
        assert dvs.energy_gain_percent > fixed.energy_gain_percent

    def test_worst_corner_still_gains_from_program_activity(
        self, worst_corner_bus, crafty_trace
    ):
        stats = analyze_trace_statistics(crafty_trace, worst_corner_bus.design.topology)
        result = _fast_system(worst_corner_bus).run(stats, warmup_cycles=10_000)
        assert result.energy_gain_percent > 0.0
        assert result.minimum_voltage_reached < 1.2

    def test_error_rate_near_band_in_steady_state(self, typical_corner_bus, crafty_trace):
        stats = analyze_trace_statistics(crafty_trace, typical_corner_bus.design.topology)
        result = _fast_system(typical_corner_bus).run(stats, warmup_cycles=15_000)
        # Long-run average stays in the low single digits (the paper's band is 1-2 %).
        assert result.average_error_rate < 0.06

    def test_window_series_lengths_match(self, typical_corner_bus, crafty_trace):
        result = DVSBusSystem(typical_corner_bus).run(crafty_trace)
        assert len(result.window_error_rates) == len(result.window_start_cycles)
        assert len(result.window_voltages) == len(result.window_error_rates)
        assert result.window_error_rates.max() <= 1.0

    def test_keep_cycle_voltage_option(self, typical_corner_bus, crafty_trace):
        result = DVSBusSystem(typical_corner_bus).run(crafty_trace, keep_cycle_voltage=True)
        assert result.per_cycle_voltage is not None
        assert len(result.per_cycle_voltage) == crafty_trace.n_cycles

    def test_warmup_validation(self, typical_corner_bus, crafty_trace):
        system = DVSBusSystem(typical_corner_bus)
        with pytest.raises(ValueError):
            system.run(crafty_trace, warmup_cycles=crafty_trace.n_cycles + 1)

    def test_initial_voltage_override(self, typical_corner_bus, crafty_trace):
        target = typical_corner_bus.zero_error_voltage()
        result = DVSBusSystem(typical_corner_bus).run(crafty_trace, initial_voltage=target)
        assert result.voltage_events[0].voltage == pytest.approx(target)

    def test_explicit_floor_respected(self, typical_corner_bus, crafty_trace):
        floor = 1.0
        system = DVSBusSystem(typical_corner_bus, v_floor=floor)
        result = system.run(crafty_trace)
        assert result.minimum_voltage_reached >= floor - 1e-12

    def test_proportional_policy_also_converges(self, typical_corner_bus, crafty_trace):
        stats = analyze_trace_statistics(crafty_trace, typical_corner_bus.design.topology)
        bang = _fast_system(typical_corner_bus, policy=BangBangPolicy()).run(
            stats, warmup_cycles=15_000
        )
        proportional = _fast_system(typical_corner_bus, policy=ProportionalPolicy()).run(
            stats, warmup_cycles=15_000
        )
        assert proportional.failures == 0
        # Both policies should land in the same gain ballpark (paper's argument
        # that the simple policy is adequate).
        assert abs(proportional.energy_gain_percent - bang.energy_gain_percent) < 15.0

    def test_performance_penalty_equals_error_rate(self, typical_corner_bus, crafty_trace):
        result = DVSBusSystem(typical_corner_bus).run(crafty_trace)
        assert result.performance_penalty == pytest.approx(result.average_error_rate)
