"""Tests for the experiment drivers and reporting (small, fast configurations)."""

import numpy as np
import pytest

from repro.analysis import (
    EXPERIMENTS,
    reporting,
    run_corner_gain_study,
    run_experiment,
    run_fig8,
    run_modified_bus_study,
    run_oracle_residency,
    run_static_voltage_sweep,
    run_table1,
    run_technology_scaling_study,
)
from repro.analysis.static_scaling import combine_summaries
from repro.circuit.pvt import TYPICAL_CORNER, WORST_CASE_CORNER
from repro.trace import generate_suite

N_CYCLES = 30_000
SEED = 11


@pytest.fixture(scope="module")
def small_suite():
    return generate_suite(n_cycles=N_CYCLES, seed=SEED)


@pytest.fixture(scope="module")
def mini_suite():
    return generate_suite(names=("crafty", "vortex", "mgrid"), n_cycles=N_CYCLES, seed=SEED)


class TestStaticScalingSweep:
    def test_sweep_starts_at_nominal_with_no_errors(self, typical_corner_bus, mini_suite):
        sweep = run_static_voltage_sweep(typical_corner_bus, mini_suite)
        assert sweep.points[0].vdd == pytest.approx(1.2)
        assert sweep.points[0].error_rate == 0.0
        assert sweep.points[0].normalized_total_energy == pytest.approx(1.0)

    def test_energy_decreases_and_errors_increase(self, typical_corner_bus, mini_suite):
        sweep = run_static_voltage_sweep(typical_corner_bus, mini_suite)
        energies = sweep.normalized_energies
        errors = sweep.error_rates
        assert np.all(np.diff(sweep.voltages) < 0)
        assert energies[-1] < energies[0]
        assert errors[-1] >= errors[0]

    def test_recovery_overhead_increases_total_energy(self, typical_corner_bus, mini_suite):
        sweep = run_static_voltage_sweep(typical_corner_bus, mini_suite)
        for point in sweep.points:
            assert point.normalized_total_energy >= point.normalized_bus_energy - 1e-12

    def test_lowest_voltage_for_error_rate(self, typical_corner_bus, mini_suite):
        sweep = run_static_voltage_sweep(typical_corner_bus, mini_suite)
        zero = sweep.lowest_voltage_for_error_rate(0.0)
        loose = sweep.lowest_voltage_for_error_rate(0.05)
        assert loose <= zero

    def test_combined_summary_length(self, typical_corner_bus, mini_suite):
        summary = combine_summaries(typical_corner_bus, mini_suite)
        assert summary.n_cycles == sum(trace.n_cycles for trace in mini_suite.values())


class TestCornerGainStudy:
    def test_gains_increase_for_faster_corners(self, paper_design, mini_suite):
        study = run_corner_gain_study(paper_design, mini_suite, targets=(0.0, 0.02))
        gains = study.gains_for_target(0.02)
        assert all(b >= a - 1e-9 for a, b in zip(gains, gains[1:]))
        delays = study.delays_ps()
        assert all(b <= a for a, b in zip(delays, delays[1:]))

    def test_worst_corner_has_little_zero_error_gain(self, paper_design, mini_suite):
        study = run_corner_gain_study(paper_design, mini_suite, targets=(0.0,))
        assert study.gains_for_target(0.0)[0] < 8.0

    def test_typical_corner_gain_in_paper_range(self, paper_design, mini_suite):
        study = run_corner_gain_study(paper_design, mini_suite, targets=(0.02,))
        typical_gain = study.points[2].gains_percent[0.02]
        assert 25.0 < typical_gain < 50.0


class TestOracleResidencyStudy:
    def test_entries_cover_benchmarks_and_targets(self, paper_design, mini_suite):
        study = run_oracle_residency(paper_design, mini_suite)
        assert len(study.entries) == 3 * 2
        entry = study.entry("crafty", 0.02)
        assert sum(entry.residency.values()) == pytest.approx(1.0)

    def test_crafty_runs_at_or_below_mgrid_voltage(self, paper_design, mini_suite):
        study = run_oracle_residency(paper_design, mini_suite)
        dominant = study.dominant_voltages(0.02)
        assert dominant["crafty"] <= dominant["mgrid"] + 1e-12

    def test_missing_benchmark_raises(self, paper_design, mini_suite):
        with pytest.raises(KeyError):
            run_oracle_residency(paper_design, mini_suite, benchmarks=("swim",))


class TestTable1:
    @pytest.fixture(scope="class")
    def table1(self, small_suite):
        return run_table1(
            workloads=small_suite,
            n_cycles=N_CYCLES,
            seed=SEED,
            window_cycles=1000,
            ramp_delay_cycles=300,
        )

    def test_has_two_corners_and_ten_rows(self, table1):
        assert len(table1.corners) == 2
        for corner_result in table1.corners:
            assert len(corner_result.rows) == 10

    def test_fixed_vs_gains_zero_at_worst_corner(self, table1):
        worst = table1.corner_result(WORST_CASE_CORNER)
        for row in worst.rows:
            assert row.fixed_vs_gain_percent == pytest.approx(0.0, abs=0.5)

    def test_dvs_beats_fixed_at_typical_corner(self, table1):
        typical = table1.corner_result(TYPICAL_CORNER)
        assert typical.total_dvs_gain_percent > typical.total_fixed_vs_gain_percent
        for row in typical.rows:
            assert row.dvs_gain_percent > row.fixed_vs_gain_percent

    def test_integer_benchmarks_gain_more_than_fp_at_worst_corner(self, table1):
        worst = table1.corner_result(WORST_CASE_CORNER)
        assert worst.row("crafty").dvs_gain_percent > worst.row("mgrid").dvs_gain_percent
        assert worst.row("mcf").dvs_gain_percent > worst.row("swim").dvs_gain_percent

    def test_total_error_rate_is_low(self, table1):
        typical = table1.corner_result(TYPICAL_CORNER)
        assert typical.total_dvs_error_rate < 0.05

    def test_report_formatting(self, table1):
        text = reporting.format_table1(table1)
        assert "crafty" in text and "Total" in text and "Proposed DVS" in text


class TestFig8:
    @pytest.fixture(scope="class")
    def fig8(self, mini_suite):
        return run_fig8(
            workloads=mini_suite,
            n_cycles=N_CYCLES,
            seed=SEED,
            benchmark_order=("crafty", "vortex", "mgrid"),
        )

    def test_starts_at_nominal_and_descends(self, fig8):
        assert fig8.voltage_event_values[0] == pytest.approx(1.2)
        vmin, vmax = fig8.voltage_range()
        assert vmax == pytest.approx(1.2)
        assert vmin < 1.2

    def test_boundaries_match_trace_lengths(self, fig8):
        assert fig8.benchmark_boundaries[-1] == 3 * N_CYCLES
        assert fig8.n_cycles >= 3 * N_CYCLES

    def test_no_shadow_failures(self, fig8):
        assert fig8.run.failures == 0

    def test_instantaneous_rates_can_exceed_band(self, fig8):
        # The regulator lag lets single windows overshoot the 2 % band even
        # though the long-run average stays low (the paper observes up to ~6 %).
        assert fig8.max_instantaneous_error_rate() <= 0.6
        assert fig8.run.average_error_rate < 0.06

    def test_report_formatting(self, fig8):
        text = reporting.format_fig8(fig8)
        assert "supply range" in text and "crafty" in text


class TestModifiedBusAndScaling:
    def test_modified_bus_improves_nonzero_error_gains(self, paper_design, mini_suite):
        study = run_modified_bus_study(
            design=paper_design,
            workloads=mini_suite,
            targets=(0.0, 0.02),
            n_cycles=N_CYCLES,
            window_cycles=1000,
            ramp_delay_cycles=300,
        )
        improvements = study.gain_improvement_percent(0.02)
        assert max(improvements.values()) >= -1.0  # never meaningfully worse
        text = reporting.format_modified_bus_study(study)
        assert "modified bus" in text

    def test_technology_scaling_trend_increases(self):
        study = run_technology_scaling_study()
        assert study.monotonically_increasing
        assert study.normalized_spread["130nm"] == pytest.approx(1.0)
        assert study.normalized_spread["45nm"] > 2.0
        text = reporting.format_technology_scaling(study)
        assert "45nm" in text


class TestExperimentRegistry:
    def test_all_paper_artifacts_registered(self):
        paper_ids = {
            "fig4a",
            "fig4b",
            "fig5",
            "fig6",
            "table1",
            "fig8",
            "fig10",
            "scaling",
        }
        extension_ids = {
            "baselines",
            "encoding",
            "ipc",
            "shielding",
            "sensitivity",
            "table1_kernels",
        }
        assert set(EXPERIMENTS) == paper_ids | extension_ids

    def test_extension_experiments_run_and_format(self):
        # The heavyweight extension studies have their own test modules and
        # benches; here we only exercise the cheapest registry entry end to
        # end so the CLI path over extensions stays covered.
        study, text = run_experiment("shielding")
        assert study.by_group(4).feasible
        assert "shields every" in text

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_scaling_experiment_runs_quickly(self):
        result, text = run_experiment("scaling")
        assert result.monotonically_increasing
        assert "Normalised" in text

    def test_fig4a_experiment_smoke(self):
        result, text = run_experiment("fig4a", n_cycles=5_000, seed=3)
        assert "Error rate" in text
        assert result.points[0].vdd == pytest.approx(1.2)


class TestReportingHelpers:
    def test_format_table_alignment(self):
        text = reporting.format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_static_sweep(self, typical_corner_bus, mini_suite):
        sweep = run_static_voltage_sweep(typical_corner_bus, mini_suite)
        text = reporting.format_static_sweep(sweep)
        assert "1200" in text and "Error rate" in text

    def test_format_corner_gain_study(self, paper_design, mini_suite):
        study = run_corner_gain_study(paper_design, mini_suite, targets=(0.0,))
        text = reporting.format_corner_gain_study(study)
        assert "Delay @1.2V" in text

    def test_format_oracle_residency(self, paper_design, mini_suite):
        study = run_oracle_residency(paper_design, mini_suite, targets=(0.02,))
        text = reporting.format_oracle_residency(study)
        assert "crafty" in text and "Supply (mV)" in text
