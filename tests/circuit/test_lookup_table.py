"""Tests for the voltage grid and delay/energy tables."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus import CharacterizedBus
from repro.circuit.lookup_table import DelayEnergyTable, VoltageGrid
from repro.circuit.pvt import BEST_CASE_CORNER, TYPICAL_CORNER, WORST_CASE_CORNER


@pytest.fixture()
def grid() -> VoltageGrid:
    return VoltageGrid(v_min=0.9, v_max=1.2, step=0.02)


@pytest.fixture()
def table(grid: VoltageGrid) -> DelayEnergyTable:
    voltages = grid.voltages
    # Simple synthetic but physically shaped data: delay falls with voltage.
    base = 500e-12 * (1.2 / voltages) ** 1.5
    coupling = 30e-12 * (1.2 / voltages) ** 1.5
    leakage = 1e-4 * voltages
    return DelayEnergyTable(
        grid=grid,
        corner=TYPICAL_CORNER,
        base_delay=base,
        coupling_delay=coupling,
        leakage_power=leakage,
        self_capacitance_per_wire=1e-12,
        coupling_capacitance_per_pair=0.5e-12,
    )


class TestVoltageGrid:
    def test_voltages_computed_once_and_read_only(self, grid):
        voltages = grid.voltages
        assert grid.voltages is voltages
        assert not voltages.flags.writeable
        with pytest.raises(ValueError):
            voltages[0] = 0.0

    def test_voltage_cache_stays_out_of_equality_hash_and_pickle(self, grid):
        fresh = VoltageGrid(v_min=0.9, v_max=1.2, step=0.02)
        _ = grid.voltages
        assert grid == fresh and hash(grid) == hash(fresh)
        assert pickle.dumps(grid) == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(grid))
        assert restored == grid
        np.testing.assert_array_equal(restored.voltages, grid.voltages)

    def test_grid_has_20mv_steps(self, grid):
        assert len(grid) == 16
        assert np.allclose(np.diff(grid.voltages), 0.02)

    def test_index_of_exact_and_nearest(self, grid):
        assert grid.index_of(0.9) == 0
        assert grid.index_of(1.2) == len(grid) - 1
        assert grid.index_of(1.101) == grid.index_of(1.10)

    def test_index_of_off_grid_rejected(self, grid):
        with pytest.raises(ValueError):
            grid.index_of(1.5)

    def test_snap_and_clamp(self, grid):
        assert grid.snap(1.011) == pytest.approx(1.02)
        assert grid.clamp(2.0) == pytest.approx(1.2)
        assert grid.clamp(0.1) == pytest.approx(0.9)

    def test_indices_of_vectorised(self, grid):
        voltages = np.array([0.9, 1.0, 1.2])
        assert list(grid.indices_of(voltages)) == [0, 5, 15]

    def test_indices_of_rejects_outside(self, grid):
        with pytest.raises(ValueError):
            grid.indices_of(np.array([0.5]))

    def test_iteration_matches_voltages(self, grid):
        assert list(grid) == pytest.approx(list(grid.voltages))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            VoltageGrid(v_min=1.2, v_max=1.0)

    @given(step_count=st.integers(min_value=0, max_value=15))
    @settings(max_examples=20, deadline=None)
    def test_snap_is_idempotent(self, step_count):
        grid = VoltageGrid(0.9, 1.2, 0.02)
        voltage = 0.9 + 0.02 * step_count
        assert grid.snap(grid.snap(voltage)) == pytest.approx(grid.snap(voltage))


class TestDelayEnergyTable:
    def test_delay_is_affine_in_coupling_factor(self, table):
        d0 = table.delay(1.2, 0.0)
        d4 = table.delay(1.2, 4.0)
        d2 = table.delay(1.2, 2.0)
        assert d2 == pytest.approx((d0 + d4) / 2.0)

    def test_delay_increases_as_voltage_drops(self, table):
        assert table.delay(0.9, 4.0) > table.delay(1.2, 4.0)

    def test_delays_vectorised_matches_scalar(self, table):
        factors = np.array([0.0, 2.0, 4.0])
        vector = table.delays(1.1, factors)
        scalars = [table.delay(1.1, factor) for factor in factors]
        assert np.allclose(vector, scalars)

    def test_failing_coupling_factor_monotone_in_voltage(self, table):
        deadline = 600e-12
        thresholds = [table.failing_coupling_factor(v, deadline) for v in table.grid.voltages]
        assert all(b >= a for a, b in zip(thresholds, thresholds[1:]))

    def test_failing_coupling_factor_zero_when_base_delay_too_slow(self, table):
        assert table.failing_coupling_factor(0.9, 100e-12) == 0.0

    @pytest.mark.parametrize("deadline", [100e-12, 560e-12, 600e-12, 1e-9])
    def test_failing_coupling_factors_match_scalar(self, table, deadline):
        scalars = [table.failing_coupling_factor(v, deadline) for v in table.grid.voltages]
        vector = table.failing_coupling_factors(deadline)
        assert vector.dtype == np.float64
        assert vector.tobytes() == np.array(scalars).tobytes()

    def test_failing_coupling_factors_cover_every_branch(self, grid):
        # d1 <= 0 with a late and an on-time base delay, a negative
        # threshold (clamped to 0), an exact hit (0) and a positive one.
        n = len(grid)
        base = np.full(n, 100e-12)
        coupling = np.full(n, 10e-12)
        base[0], coupling[0] = 300e-12, 0.0
        base[1], coupling[1] = 100e-12, 0.0
        base[2], coupling[2] = 100e-12, -5e-12
        base[3] = 300e-12
        base[4] = 200e-12
        table = DelayEnergyTable(grid=grid, corner=TYPICAL_CORNER, base_delay=base,
                                 coupling_delay=coupling, leakage_power=np.ones(n),
                                 self_capacitance_per_wire=1e-12,
                                 coupling_capacitance_per_pair=1e-12)
        deadline = 200e-12
        vector = table.failing_coupling_factors(deadline)
        assert list(vector[:5]) == [0.0, np.inf, np.inf, 0.0, 0.0]
        assert vector[5] == pytest.approx(10.0)
        scalars = [table.failing_coupling_factor(v, deadline) for v in grid.voltages]
        assert vector.tobytes() == np.array(scalars).tobytes()

    def test_min_voltage_meeting_deadline(self, table):
        voltage = table.min_voltage_meeting(table.delay(1.1, 4.0) + 1e-15, 4.0)
        assert voltage <= 1.1 + 1e-12

    def test_min_voltage_unreachable_deadline_raises(self, table):
        with pytest.raises(ValueError):
            table.min_voltage_meeting(1e-12, 4.0)

    def test_leakage_energy_per_cycle(self, table):
        energy = table.leakage_energy_per_cycle(1.2, 1.0 / 1.5e9)
        assert energy == pytest.approx(1e-4 * 1.2 / 1.5e9)

    def test_dynamic_energy_combines_self_and_coupling(self, table):
        energy = table.dynamic_energy(1.0, switched_self_caps=2.0, coupling_weight=4.0)
        expected = (0.5 * 1e-12 * 2.0 + 0.5 * 0.5e-12 * 4.0) * 1.0
        assert energy == pytest.approx(expected)

    def test_shape_mismatch_rejected(self, grid):
        with pytest.raises(ValueError):
            DelayEnergyTable(
                grid=grid,
                corner=TYPICAL_CORNER,
                base_delay=np.zeros(3),
                coupling_delay=np.zeros(len(grid)),
                leakage_power=np.zeros(len(grid)),
                self_capacitance_per_wire=1e-12,
                coupling_capacitance_per_pair=1e-12,
            )


@pytest.mark.parametrize(
    "corner",
    [WORST_CASE_CORNER, TYPICAL_CORNER, BEST_CASE_CORNER],
    ids=["worst", "typical", "best"],
)
def test_failing_coupling_factors_equal_scalar_on_every_corner(paper_design, corner):
    bus = CharacterizedBus(paper_design, corner)
    clocking = paper_design.clocking
    for deadline in (
        clocking.main_deadline,
        clocking.shadow_deadline,
        0.5 * clocking.main_deadline,
        clocking.cycle_time,
    ):
        scalars = [bus.table.failing_coupling_factor(v, deadline) for v in bus.grid.voltages]
        vector = bus.table.failing_coupling_factors(deadline)
        assert vector.tobytes() == np.array(scalars, dtype=np.float64).tobytes()
