"""Tests for the canary and triple-latch baselines and the shared helpers."""

import pytest

from repro.baselines import (
    CanaryVoltageScaling,
    TripleLatchMonitor,
    evaluate_static_scheme,
    worst_case_cycle_energy,
)
from repro.circuit.pvt import BEST_CASE_CORNER, TYPICAL_CORNER, WORST_CASE_CORNER
from repro.core.fixed_vs import fixed_scaling_voltage


class TestWorstCaseCycleEnergy:
    def test_positive_and_scales_with_voltage_squared(self, typical_corner_bus):
        low = worst_case_cycle_energy(typical_corner_bus, 1.0)
        high = worst_case_cycle_energy(typical_corner_bus, 1.2)
        assert low > 0.0
        assert high / low == pytest.approx((1.2 / 1.0) ** 2, rel=1e-6)

    def test_exceeds_any_real_trace_cycle(self, typical_corner_bus, crafty_stats):
        worst = worst_case_cycle_energy(typical_corner_bus, 1.2)
        per_cycle = typical_corner_bus.table.dynamic_energy(
            1.2, crafty_stats.toggles, crafty_stats.coupling_weights
        )
        assert per_cycle.max() <= worst + 1e-18


class TestEvaluateStaticScheme:
    def test_nominal_voltage_gives_zero_gain(self, typical_corner_bus, crafty_summary):
        result = evaluate_static_scheme(typical_corner_bus, crafty_summary, 1.2, scheme="ref")
        assert result.energy_gain_percent == pytest.approx(0.0, abs=1e-9)
        assert result.is_error_free

    def test_overhead_is_added_and_reported(self, typical_corner_bus, crafty_summary):
        plain = evaluate_static_scheme(typical_corner_bus, crafty_summary, 1.1, scheme="plain")
        loaded = evaluate_static_scheme(
            typical_corner_bus, crafty_summary, 1.1, scheme="loaded", overhead_energy=1e-9
        )
        assert loaded.overhead_energy == pytest.approx(1e-9)
        assert loaded.energy.total_with_recovery == pytest.approx(
            plain.energy.total_with_recovery + 1e-9
        )
        assert loaded.energy_gain_percent < plain.energy_gain_percent

    def test_negative_overhead_rejected(self, typical_corner_bus, crafty_summary):
        with pytest.raises(ValueError):
            evaluate_static_scheme(
                typical_corner_bus, crafty_summary, 1.1, scheme="bad", overhead_energy=-1.0
            )


class TestCanaryVoltageScaling:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CanaryVoltageScaling(guard_steps=-1)
        with pytest.raises(ValueError):
            CanaryVoltageScaling(assumed_ir_drop=1.5)

    def test_observable_corner_keeps_process_and_temperature(self):
        observable = CanaryVoltageScaling().observable_corner(TYPICAL_CORNER)
        assert observable.process == TYPICAL_CORNER.process
        assert observable.temperature_c == TYPICAL_CORNER.temperature_c
        assert observable.ir_drop == pytest.approx(0.10)

    def test_never_scales_below_the_fixed_vs_voltage_plus_temperature_slack(
        self, typical_corner_bus
    ):
        # The canary tracks temperature, so it can only do as well or better
        # than fixed VS (which assumes worst-case temperature), never worse
        # than its own guard band above it.
        canary_voltage = CanaryVoltageScaling(guard_steps=0).select_voltage(typical_corner_bus)
        fixed_voltage = fixed_scaling_voltage(typical_corner_bus)
        assert canary_voltage <= fixed_voltage + 1e-12

    def test_guard_band_raises_the_voltage(self, typical_corner_bus):
        without = CanaryVoltageScaling(guard_steps=0).select_voltage(typical_corner_bus)
        with_guard = CanaryVoltageScaling(guard_steps=2).select_voltage(typical_corner_bus)
        assert with_guard == pytest.approx(without + 2 * typical_corner_bus.grid.step)

    def test_error_free_on_every_standard_corner(self, paper_design, crafty_trace):
        from repro.bus.bus_model import CharacterizedBus

        scheme = CanaryVoltageScaling()
        for corner in (WORST_CASE_CORNER, TYPICAL_CORNER, BEST_CASE_CORNER):
            bus = CharacterizedBus(paper_design, corner)
            result = scheme.evaluate(bus, bus.summarize(crafty_trace))
            assert result.is_error_free, corner.label

    def test_gain_grows_at_faster_corners(self, paper_design, crafty_trace):
        from repro.bus.bus_model import CharacterizedBus

        scheme = CanaryVoltageScaling()
        gains = []
        for corner in (WORST_CASE_CORNER, TYPICAL_CORNER, BEST_CASE_CORNER):
            bus = CharacterizedBus(paper_design, corner)
            gains.append(scheme.evaluate(bus, bus.summarize(crafty_trace)).energy_gain_percent)
        assert gains[0] <= gains[1] <= gains[2]


class TestTripleLatchMonitor:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TripleLatchMonitor(test_interval_cycles=0)
        with pytest.raises(ValueError):
            TripleLatchMonitor(vectors_per_test=0)
        with pytest.raises(ValueError):
            TripleLatchMonitor(guard_steps=-1)

    def test_selects_at_or_below_the_canary_voltage(self, typical_corner_bus):
        # The monitor sees the true corner (including the absence of IR drop),
        # so it can settle at least as low as the canary scheme.
        monitor_voltage = TripleLatchMonitor(guard_steps=1).select_voltage(typical_corner_bus)
        canary_voltage = CanaryVoltageScaling(guard_steps=1).select_voltage(typical_corner_bus)
        assert monitor_voltage <= canary_voltage + 1e-12

    def test_overhead_energy_scales_with_run_length(self, typical_corner_bus):
        monitor = TripleLatchMonitor(test_interval_cycles=1_000, vectors_per_test=8)
        short = monitor.test_overhead_energy(typical_corner_bus, 10_000, 1.0)
        long = monitor.test_overhead_energy(typical_corner_bus, 100_000, 1.0)
        assert long == pytest.approx(10 * short)
        assert monitor.test_overhead_energy(typical_corner_bus, 0, 1.0) == 0.0

    def test_evaluation_is_error_free_and_charges_overhead(
        self, typical_corner_bus, crafty_summary
    ):
        monitor = TripleLatchMonitor(test_interval_cycles=2_000, vectors_per_test=32)
        result = monitor.evaluate(typical_corner_bus, crafty_summary)
        assert result.is_error_free
        assert result.overhead_energy > 0.0
        assert result.energy_gain_percent > 0.0

    def test_more_frequent_testing_costs_more_energy(self, typical_corner_bus, crafty_summary):
        frequent = TripleLatchMonitor(test_interval_cycles=1_000).evaluate(
            typical_corner_bus, crafty_summary
        )
        rare = TripleLatchMonitor(test_interval_cycles=10_000).evaluate(
            typical_corner_bus, crafty_summary
        )
        assert frequent.overhead_energy > rare.overhead_energy
        assert frequent.energy_gain_percent <= rare.energy_gain_percent
