"""Tests for the controller/receiver parameter sensitivity sweeps."""

import pytest

from repro.analysis.sensitivity import (
    format_sensitivity_study,
    run_error_band_sensitivity,
    run_ramp_delay_sensitivity,
    run_shadow_delay_sensitivity,
    run_window_length_sensitivity,
)
from repro.bus.bus_model import analyze_trace_statistics
from repro.circuit.pvt import TYPICAL_CORNER
from repro.trace import generate_benchmark_trace

N_CYCLES = 20_000
SEED = 31


@pytest.fixture(scope="module")
def vortex_trace():
    return generate_benchmark_trace("vortex", n_cycles=N_CYCLES, seed=SEED)


@pytest.fixture(scope="module")
def vortex_stats(typical_corner_bus, vortex_trace):
    return analyze_trace_statistics(vortex_trace, typical_corner_bus.design.topology)


class TestWindowLengthSensitivity:
    def test_one_point_per_window_length(self, typical_corner_bus, vortex_stats):
        study = run_window_length_sensitivity(
            typical_corner_bus, vortex_stats, window_lengths=(500, 1_000, 2_000)
        )
        assert [point.value for point in study.points] == [500.0, 1_000.0, 2_000.0]
        assert study.parameter == "error window (cycles)"

    def test_all_points_report_substantial_gains(self, typical_corner_bus, vortex_stats):
        study = run_window_length_sensitivity(
            typical_corner_bus, vortex_stats, window_lengths=(500, 2_000)
        )
        for point in study.points:
            assert point.energy_gain_percent > 15.0
            assert point.average_error_rate < 0.05
            assert point.minimum_voltage < 1.2


class TestRampDelaySensitivity:
    def test_ramps_longer_than_the_window_are_dropped(self, typical_corner_bus, vortex_stats):
        study = run_ramp_delay_sensitivity(
            typical_corner_bus,
            vortex_stats,
            ramp_delays=(300, 600, 5_000),
            window_cycles=2_000,
        )
        assert [point.value for point in study.points] == [300.0, 600.0]

    def test_slower_regulators_do_not_improve_the_gain(self, typical_corner_bus, vortex_stats):
        study = run_ramp_delay_sensitivity(
            typical_corner_bus, vortex_stats, ramp_delays=(150, 1_800), window_cycles=2_000
        )
        fast, slow = study.points
        assert slow.energy_gain_percent <= fast.energy_gain_percent + 1.0


class TestErrorBandSensitivity:
    def test_looser_bands_allow_lower_voltages(self, typical_corner_bus, vortex_stats):
        study = run_error_band_sensitivity(
            typical_corner_bus,
            vortex_stats,
            bands=((0.0, 0.005), (0.01, 0.02), (0.02, 0.05)),
        )
        voltages = [point.minimum_voltage for point in study.points]
        assert voltages[0] >= voltages[-1] - 1e-12
        gains = [point.energy_gain_percent for point in study.points]
        assert gains[-1] >= gains[0] - 0.5

    def test_invalid_band_rejected(self, typical_corner_bus, vortex_stats):
        with pytest.raises(ValueError):
            run_error_band_sensitivity(
                typical_corner_bus, vortex_stats, bands=((0.0, 1.5),)
            )

    def test_best_gain_helper(self, typical_corner_bus, vortex_stats):
        study = run_error_band_sensitivity(
            typical_corner_bus, vortex_stats, bands=((0.0, 0.005), (0.01, 0.02))
        )
        best = study.best_gain()
        assert best.energy_gain_percent == max(p.energy_gain_percent for p in study.points)


class TestShadowDelaySensitivity:
    def test_longer_shadow_delay_lowers_the_floor(self, paper_design, vortex_trace):
        study = run_shadow_delay_sensitivity(
            paper_design,
            vortex_trace,
            corner=TYPICAL_CORNER,
            shadow_fractions=(0.10, 0.33),
        )
        short, long = study.points
        # A later shadow deadline can only relax the regulator floor.
        assert long.minimum_voltage <= short.minimum_voltage + 1e-12
        assert long.energy_gain_percent >= short.energy_gain_percent - 0.5


class TestFormatting:
    def test_report_contains_every_row(self, typical_corner_bus, vortex_stats):
        study = run_window_length_sensitivity(
            typical_corner_bus, vortex_stats, window_lengths=(500, 1_000)
        )
        text = format_sensitivity_study(study)
        assert "window=500" in text and "window=1000" in text
        assert len(text.splitlines()) == 3 + len(study.points)
