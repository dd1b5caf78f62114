"""Tests for the bus design, characterisation and cycle-level model."""

import numpy as np
import pytest

from repro.bus import BusDesign, CharacterizedBus, characterize_bus, default_voltage_grid
from repro.bus.bus_model import analyze_trace_statistics
from repro.circuit.pvt import (
    BEST_CASE_CORNER,
    STANDARD_CORNERS,
    TYPICAL_CORNER,
    WORST_CASE_CORNER,
    ProcessCorner,
    PVTCorner,
)
from repro.clocking import PAPER_CLOCKING


class TestPaperBusConstruction:
    def test_structural_parameters_match_paper(self, paper_design):
        assert paper_design.n_bits == 32
        assert paper_design.length == pytest.approx(6e-3)
        assert paper_design.n_segments == 4
        assert paper_design.segment_length == pytest.approx(1.5e-3)
        assert paper_design.nominal_vdd == pytest.approx(1.2)
        assert paper_design.clocking.frequency == pytest.approx(1.5e9)

    def test_repeaters_meet_worst_case_target(self, paper_design):
        bus = CharacterizedBus(paper_design, WORST_CASE_CORNER)
        worst = bus.table.worst_delay(1.2, paper_design.topology.max_coupling_factor)
        assert worst <= PAPER_CLOCKING.main_deadline
        assert worst >= 0.97 * PAPER_CLOCKING.main_deadline

    def test_design_corner_is_worst_case(self, paper_design):
        assert paper_design.design_corner == WORST_CASE_CORNER

    def test_wire_self_capacitance_includes_repeaters(self, paper_design):
        wire_only = paper_design.parasitics.ground_cap_per_meter * paper_design.length
        assert paper_design.wire_self_capacitance() > wire_only

    def test_pair_coupling_capacitance_scales_with_length(self, paper_design):
        expected = paper_design.parasitics.coupling_cap_per_meter * paper_design.length
        assert paper_design.pair_coupling_capacitance() == pytest.approx(expected)

    def test_modified_coupling_keeps_repeaters_and_worst_load(self, paper_design):
        modified = paper_design.with_modified_coupling(1.95)
        assert modified.repeaters.size == paper_design.repeaters.size
        lam = paper_design.topology.max_coupling_factor

        def worst_load(parasitics):
            return parasitics.ground_cap_per_meter + lam * parasitics.coupling_cap_per_meter

        assert worst_load(modified.parasitics) == pytest.approx(
            worst_load(paper_design.parasitics)
        )
        assert modified.parasitics.coupling_to_ground_ratio == pytest.approx(
            1.95 * paper_design.parasitics.coupling_to_ground_ratio
        )

    def test_topology_width_must_match(self, paper_design):
        with pytest.raises(ValueError):
            BusDesign(
                technology=paper_design.technology,
                n_bits=16,
                length=paper_design.length,
                n_segments=4,
                parasitics=paper_design.parasitics,
                topology=paper_design.topology,  # 32-wire topology
                repeaters=paper_design.repeaters,
                clocking=paper_design.clocking,
                design_corner=paper_design.design_corner,
            )


class TestCharacterization:
    def test_default_grid_spans_to_nominal(self, paper_design):
        grid = default_voltage_grid(paper_design)
        assert grid.v_max == pytest.approx(1.2)
        assert grid.step == pytest.approx(0.02)

    def test_delay_monotone_decreasing_in_voltage(self, worst_corner_bus):
        table = worst_corner_bus.table
        worst = table.base_delay + 4.0 * table.coupling_delay
        assert np.all(np.diff(worst) <= 0.0)

    def test_leakage_power_increases_with_voltage(self, worst_corner_bus):
        assert np.all(np.diff(worst_corner_bus.table.leakage_power) > 0.0)

    def test_corner_ordering_of_delays(self, paper_design):
        delays = {}
        for index, corner in STANDARD_CORNERS.items():
            table = characterize_bus(paper_design, corner)
            delays[index] = table.worst_delay(1.2, paper_design.topology.max_coupling_factor)
        assert delays[1] > delays[2] > delays[3] > delays[4] > delays[5]

    def test_metadata_records_corner(self, typical_corner_bus):
        assert "Typical" in typical_corner_bus.table.metadata["corner"]


class TestZeroErrorVoltages:
    """The calibration targets that anchor the reproduction to the paper."""

    def test_worst_corner_has_no_slack_at_nominal(self, worst_corner_bus):
        assert worst_corner_bus.zero_error_voltage() == pytest.approx(1.2)

    def test_typical_corner_scales_to_about_980mv(self, typical_corner_bus):
        voltage = typical_corner_bus.zero_error_voltage()
        assert 0.94 <= voltage <= 1.02

    def test_shadow_floor_below_zero_error_voltage(self, typical_corner_bus):
        assert typical_corner_bus.minimum_safe_voltage() < typical_corner_bus.zero_error_voltage()

    def test_floor_uses_assumed_corner_margins(self, typical_corner_bus):
        assumed = PVTCorner(ProcessCorner.TYPICAL, 100.0, 0.10)
        conservative = typical_corner_bus.minimum_safe_voltage(assumed)
        optimistic = typical_corner_bus.minimum_safe_voltage()
        assert conservative >= optimistic

    def test_floor_table_follows_the_active_chardb(self, paper_design):
        # Two stand-in databases that serve different surfaces for every
        # lookup: the floor must come from whichever one is active, and each
        # database is asked once per corner, however often the bus is used.
        from repro.chardb import use_chardb

        bus = CharacterizedBus(paper_design, TYPICAL_CORNER)
        assumed = PVTCorner(ProcessCorner.TYPICAL, 100.0, 0.10)
        shadow = paper_design.clocking.shadow_deadline
        worst_class = paper_design.topology.max_coupling_factor

        class StandIn:
            def __init__(self, corner):
                self.table = characterize_bus(paper_design, corner, bus.grid)
                self.lookups = 0

            def find_table(self, design, corner, grid):
                self.lookups += 1
                return self.table

            def floor(self):
                return self.table.min_voltage_meeting(shadow, worst_class)

        slow, fast = StandIn(WORST_CASE_CORNER), StandIn(BEST_CASE_CORNER)
        assert slow.floor() != fast.floor()
        for database in (slow, fast, slow, slow, fast):
            with use_chardb(database):
                assert bus.minimum_safe_voltage(assumed) == database.floor()
        assert (slow.lookups, fast.lookups) == (2, 2)
        with use_chardb(None):
            live = characterize_bus(paper_design, assumed, bus.grid)
            assert bus.minimum_safe_voltage(assumed) == live.min_voltage_meeting(
                shadow, worst_class
            )


class TestCycleLevelModel:
    def test_analyze_shapes(self, typical_corner_bus, crafty_trace):
        stats = analyze_trace_statistics(crafty_trace, typical_corner_bus.design.topology)
        assert stats.n_cycles == crafty_trace.n_cycles
        assert stats.worst_coupling.shape == (stats.n_cycles,)

    def test_no_errors_at_nominal_supply(self, typical_corner_bus, crafty_summary):
        assert typical_corner_bus.error_rate(crafty_summary, 1.2) == 0.0

    def test_error_rate_monotone_as_voltage_drops(self, typical_corner_bus, crafty_summary):
        rates = [
            typical_corner_bus.error_rate(crafty_summary, v)
            for v in (1.2, 1.1, 1.0, 0.95, 0.9)
        ]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_mgrid_sees_more_errors_than_crafty(self, typical_corner_bus, crafty_trace, mgrid_trace):
        crafty_summary = typical_corner_bus.summarize(crafty_trace)
        mgrid_summary = typical_corner_bus.summarize(mgrid_trace)
        voltage = 0.90
        assert typical_corner_bus.error_rate(mgrid_summary, voltage) > (
            typical_corner_bus.error_rate(crafty_summary, voltage)
        )

    def test_failure_mask_empty_above_shadow_floor(self, typical_corner_bus, crafty_summary):
        floor = typical_corner_bus.minimum_safe_voltage()
        thresholds = typical_corner_bus.table.failing_coupling_factors(
            typical_corner_bus.design.clocking.shadow_deadline
        )
        assert crafty_summary.error_count(thresholds[typical_corner_bus.grid.index_of(floor)]) == 0

    def test_per_cycle_voltage_array_accepted(self, typical_corner_bus, crafty_stats, crafty_summary):
        n = crafty_stats.n_cycles
        voltages = np.full(n, 1.2)
        voltages[n // 2 :] = 0.9
        mixed = np.count_nonzero(typical_corner_bus.error_mask(crafty_stats, voltages)) / n
        low = typical_corner_bus.error_rate(crafty_summary, 0.9)
        assert 0.0 <= mixed <= low

    def test_energy_breakdown_components(self, typical_corner_bus, crafty_summary):
        breakdown = typical_corner_bus.energy_breakdown(crafty_summary, 1.2, n_errors=0)
        assert breakdown.bus_dynamic > 0.0
        assert breakdown.leakage > 0.0
        assert breakdown.flipflop_clocking > 0.0
        assert breakdown.recovery_overhead == 0.0

    def test_energy_drops_quadratically_with_voltage(self, typical_corner_bus, crafty_summary):
        nominal = typical_corner_bus.energy_breakdown(crafty_summary, 1.2, n_errors=0)
        scaled = typical_corner_bus.energy_breakdown(crafty_summary, 0.9, n_errors=0)
        ratio = scaled.bus_dynamic / nominal.bus_dynamic
        assert ratio == pytest.approx((0.9 / 1.2) ** 2, rel=1e-6)

    def test_recovery_overhead_small_compared_to_savings(self, typical_corner_bus, crafty_summary):
        """Paper Fig. 4: the recovery-overhead curve hugs the bus-energy curve."""
        nominal = typical_corner_bus.nominal_energy(crafty_summary)
        voltage = 0.92
        errors = typical_corner_bus.error_count(crafty_summary, voltage)
        with_recovery = typical_corner_bus.energy_breakdown(crafty_summary, voltage, errors)
        savings = nominal.total_with_recovery - with_recovery.bus_energy
        assert with_recovery.recovery_overhead < 0.25 * savings

    def test_statistics_slice_and_concatenate(self, crafty_stats):
        first = crafty_stats.slice(0, 1000)
        second = crafty_stats.slice(1000, 2000)
        combined = first.concatenate(second)
        assert combined.n_cycles == 2000
        assert np.allclose(combined.worst_coupling, crafty_stats.worst_coupling[:2000])
