"""End-to-end checks of the paper's headline claims (shape, not exact numbers).

These tests exercise the full stack -- trace generation, bus characterisation,
the double-sampling receiver abstraction, the closed-loop controller and the
energy accounting -- and assert the qualitative results the reproduction is
required to preserve (see DESIGN.md section 4).
"""

import numpy as np
import pytest

from repro import (
    CharacterizedBus,
    DVSBusSystem,
    TYPICAL_CORNER,
    WORST_CASE_CORNER,
    evaluate_fixed_scaling,
)
from repro.bus.bus_model import analyze_trace_statistics
from repro.core.double_sampling_ff import FlipFlopBank
from repro.trace import generate_benchmark_trace, generate_suite


@pytest.fixture(scope="module")
def suite():
    return generate_suite(names=("crafty", "mcf", "mgrid", "swim"), n_cycles=40_000, seed=21)


class TestCornerCalibration:
    """The PVT slack structure that every paper figure rests on."""

    def test_zero_error_voltage_ordering_across_corners(self, paper_design):
        worst = CharacterizedBus(paper_design, WORST_CASE_CORNER).zero_error_voltage()
        typical = CharacterizedBus(paper_design, TYPICAL_CORNER).zero_error_voltage()
        assert worst == pytest.approx(1.2)
        assert typical < worst

    def test_typical_corner_slack_is_about_a_third_of_energy(self, paper_design):
        typical = CharacterizedBus(paper_design, TYPICAL_CORNER).zero_error_voltage()
        gain = 1.0 - (typical / 1.2) ** 2
        assert 0.25 < gain < 0.45  # paper: ~35 %


class TestTable1Claims:
    def test_worst_corner_gains_come_only_from_switching_activity(self, paper_design, suite):
        bus = CharacterizedBus(paper_design, WORST_CASE_CORNER)
        system = DVSBusSystem(bus, window_cycles=1000, ramp_delay_cycles=300)
        for name in ("crafty", "mgrid"):
            fixed = evaluate_fixed_scaling(bus, suite[name])
            dvs = system.run(suite[name], warmup_cycles=20_000)
            assert fixed.energy_gain_percent == pytest.approx(0.0, abs=0.5)
            assert dvs.energy_gain_percent > fixed.energy_gain_percent

    def test_typical_corner_dvs_gain_in_paper_band(self, paper_design, suite):
        bus = CharacterizedBus(paper_design, TYPICAL_CORNER)
        system = DVSBusSystem(bus, window_cycles=1000, ramp_delay_cycles=300)
        dvs = system.run(suite["crafty"], warmup_cycles=20_000)
        assert 28.0 < dvs.energy_gain_percent < 50.0  # paper: 35-45 %

    def test_program_dependence_crafty_vs_mgrid(self, paper_design, suite):
        bus = CharacterizedBus(paper_design, WORST_CASE_CORNER)
        system = DVSBusSystem(bus, window_cycles=1000, ramp_delay_cycles=300)
        crafty = system.run(suite["crafty"], warmup_cycles=20_000)
        mgrid = system.run(suite["mgrid"], warmup_cycles=20_000)
        assert crafty.energy_gain_percent > mgrid.energy_gain_percent
        assert crafty.minimum_voltage_reached <= mgrid.minimum_voltage_reached


class TestErrorRecoveryConsistency:
    """The vectorised error model must agree with the behavioural flip-flop bank."""

    def test_bank_and_vectorised_model_agree_on_error_cycles(self, paper_design):
        bus = CharacterizedBus(paper_design, TYPICAL_CORNER)
        trace = generate_benchmark_trace("vortex", n_cycles=300, seed=5)
        stats = analyze_trace_statistics(trace, paper_design.topology)
        voltage = 0.92

        # Vectorised model.
        vector_errors = bus.error_mask(stats, voltage)

        # Behavioural bank: compute each cycle's per-wire arrival time from the
        # same delay table and feed the flip-flops directly.
        from repro.interconnect.crosstalk import (
            effective_coupling_factors,
            transitions_from_values,
        )

        values = trace.values
        transitions = transitions_from_values(values)
        factors = effective_coupling_factors(transitions, paper_design.topology)
        bank = FlipFlopBank(paper_design.n_bits, paper_design.clocking)
        bank.reset(values[0])
        bank_errors = []
        for cycle in range(trace.n_cycles):
            arrivals = bus.table.delays(voltage, factors[cycle])
            # Quiet wires hold their value; model them as arriving instantly.
            arrivals = np.where(transitions[cycle] == 0, 0.0, arrivals)
            result = bank.capture_word(values[cycle + 1], arrivals)
            bank_errors.append(result.error)
        assert list(vector_errors) == bank_errors

    def test_recovered_data_is_always_correct(self, paper_design):
        bus = CharacterizedBus(paper_design, TYPICAL_CORNER)
        trace = generate_benchmark_trace("swim", n_cycles=200, seed=9)
        from repro.interconnect.crosstalk import (
            effective_coupling_factors,
            transitions_from_values,
        )

        values = trace.values
        transitions = transitions_from_values(values)
        factors = effective_coupling_factors(transitions, paper_design.topology)
        bank = FlipFlopBank(paper_design.n_bits, paper_design.clocking)
        bank.reset(values[0])
        voltage = bus.minimum_safe_voltage()
        for cycle in range(trace.n_cycles):
            arrivals = bus.table.delays(voltage, factors[cycle])
            arrivals = np.where(transitions[cycle] == 0, 0.0, arrivals)
            result = bank.capture_word(values[cycle + 1], arrivals)
            assert np.array_equal(result.corrected_word, values[cycle + 1])


class TestModifiedBusClaim:
    def test_modified_bus_never_hurts_the_worst_case(self, paper_design):
        modified = paper_design.with_modified_coupling(1.95)
        original_bus = CharacterizedBus(paper_design, WORST_CASE_CORNER)
        modified_bus = CharacterizedBus(modified, WORST_CASE_CORNER)
        # The load of the attainable worst-case pattern is preserved exactly;
        # the canonical Cg + 4 Cc pattern shifts by a fraction of a percent,
        # well inside one voltage step.
        lam = paper_design.topology.max_coupling_factor
        assert modified_bus.table.worst_delay(1.2, lam) == pytest.approx(
            original_bus.table.worst_delay(1.2, lam), rel=1e-9
        )
        assert modified_bus.table.worst_delay(1.2, 4.0) == pytest.approx(
            original_bus.table.worst_delay(1.2, 4.0), rel=0.01
        )

    def test_modified_bus_speeds_up_typical_patterns(self, paper_design):
        modified = paper_design.with_modified_coupling(1.95)
        original_bus = CharacterizedBus(paper_design, TYPICAL_CORNER)
        modified_bus = CharacterizedBus(modified, TYPICAL_CORNER)
        # With only one quiet neighbour's worth of coupling, the modified wire
        # is faster (its ground capacitance is smaller at constant worst case).
        assert modified_bus.table.delay(1.0, 2.0) < original_bus.table.delay(1.0, 2.0)


class TestRegulatorSafety:
    def test_closed_loop_never_needs_more_than_shadow_latch(self, paper_design, suite):
        for corner in (WORST_CASE_CORNER, TYPICAL_CORNER):
            bus = CharacterizedBus(paper_design, corner)
            system = DVSBusSystem(bus)
            result = system.run(suite["swim"])
            assert result.failures == 0

    def test_floor_meets_shadow_deadline_under_assumed_margins(self, paper_design):
        bus = CharacterizedBus(paper_design, TYPICAL_CORNER)
        system = DVSBusSystem(bus)
        from repro.circuit.pvt import ProcessCorner, PVTCorner
        from repro.bus.characterization import characterize_bus

        assumed = PVTCorner(ProcessCorner.TYPICAL, 100.0, 0.10)
        table = characterize_bus(paper_design, assumed, bus.grid)
        delay = table.worst_delay(system.v_floor, paper_design.topology.max_coupling_factor)
        assert delay <= paper_design.clocking.shadow_deadline + 1e-15
