"""Cross-cutting invariants checked with property-based tests.

These tests tie several subsystems together on randomly generated inputs:
whatever trace the workload substrate produces and however the controller is
driven, the physical invariants of the design (grid-snapped voltages inside
the regulator's range, bounded coupling factors, monotone error rates) must
hold.  They complement the example-driven tests, which check specific
numbers, by checking the *shape* of the model everywhere hypothesis cares to
look.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.bus_model import analyze_trace_statistics
from repro.circuit.lookup_table import VoltageGrid
from repro.core import DVSBusSystem, VoltageRegulator
from repro.trace.trace import BusTrace


def _random_trace(data: st.DataObject, n_cycles: int, n_bits: int = 32) -> BusTrace:
    words = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << n_bits) - 1),
            min_size=n_cycles + 1,
            max_size=n_cycles + 1,
        )
    )
    return BusTrace.from_words(words, n_bits=n_bits, name="random")


class TestTraceStatisticsInvariants:
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_statistics_are_physically_bounded(self, data, typical_corner_bus):
        trace = _random_trace(data, n_cycles=40)
        topology = typical_corner_bus.design.topology
        stats = analyze_trace_statistics(trace, topology)
        assert np.all(stats.toggles >= 0)
        assert np.all(stats.toggles <= typical_corner_bus.design.n_bits)
        assert np.all(stats.worst_coupling >= 0.0)
        assert np.all(stats.worst_coupling <= topology.max_coupling_factor + 1e-12)
        assert np.all(stats.coupling_weights >= 0.0)

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_error_rate_is_monotone_in_the_supply(self, data, typical_corner_bus):
        trace = _random_trace(data, n_cycles=60)
        summary = typical_corner_bus.summarize(trace)
        voltages = typical_corner_bus.grid.voltages
        rates = [typical_corner_bus.error_rate(summary, float(v)) for v in voltages]
        # Lower supply -> never fewer errors.
        assert all(low >= high - 1e-12 for low, high in zip(rates, rates[1:]))

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_dynamic_energy_scales_quadratically_with_supply(self, data, typical_corner_bus):
        trace = _random_trace(data, n_cycles=30)
        summary = typical_corner_bus.summarize(trace)
        low = typical_corner_bus.energy_breakdown(summary, 1.0, n_errors=0).bus_dynamic
        high = typical_corner_bus.energy_breakdown(summary, 1.2, n_errors=0).bus_dynamic
        if low > 0:
            assert high / low == pytest.approx(1.44, rel=1e-9)


class TestRegulatorInvariants:
    @given(
        deltas=st.lists(
            st.sampled_from([-0.02, 0.0, 0.02, -0.06, 0.06]), min_size=1, max_size=30
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_voltage_stays_on_grid_and_inside_range(self, deltas):
        grid = VoltageGrid(v_min=0.7, v_max=1.2, step=0.02)
        regulator = VoltageRegulator(
            grid=grid, v_min=0.9, v_max=1.2, initial_voltage=1.2, ramp_delay_cycles=10
        )
        cycle = 0
        for delta in deltas:
            cycle += 100
            regulator.apply_until(cycle)
            if regulator.pending_change is None:
                regulator.request_change(delta, cycle)
        regulator.apply_until(cycle + 1_000)
        for event in regulator.events:
            assert 0.9 - 1e-12 <= event.voltage <= 1.2 + 1e-12
            assert abs(grid.snap(event.voltage) - event.voltage) < 1e-12
        # Events are strictly ordered in time.
        cycles = [event.cycle for event in regulator.events]
        assert cycles == sorted(cycles)


class TestClosedLoopInvariants:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=5, deadline=None)
    def test_dvs_run_respects_floor_ceiling_and_accounting(self, seed, typical_corner_bus):
        from repro.trace import generate_benchmark_trace

        trace = generate_benchmark_trace("vortex", n_cycles=4_000, seed=seed)
        system = DVSBusSystem(typical_corner_bus, window_cycles=500, ramp_delay_cycles=150)
        result = system.run(trace, keep_cycle_voltage=True)

        assert result.failures == 0
        assert system.v_floor - 1e-12 <= result.minimum_voltage_reached
        assert result.per_cycle_voltage.max() <= typical_corner_bus.design.nominal_vdd + 1e-12
        assert 0.0 <= result.average_error_rate <= 1.0
        assert result.energy.total_with_recovery > 0.0
        assert result.reference_energy.total_with_recovery > 0.0
        # The scaled run can never use more *bus* energy than the nominal
        # reference: every cycle runs at or below the nominal supply.
        assert result.energy.bus_energy <= result.reference_energy.bus_energy + 1e-18
