"""Oracle (future-knowledge) per-window voltage selection.

Section 5 of the paper first examines "the optimal supply voltage selection
(with the knowledge of future program switching behavior) over time while
maintaining a fixed error rate" (Fig. 6).  This module implements that
oracle: for every measurement window it picks the lowest grid voltage whose
error rate within the window does not exceed the target, ignoring regulator
ramp delays and feedback lag.

The oracle is useful both to reproduce Fig. 6 (the distribution of time spent
at each voltage per program) and as an upper bound on what the closed-loop
controller can achieve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bus.bus_model import CharacterizedBus, TraceStatistics
from repro.core.error_detection import DEFAULT_WINDOW_CYCLES
from repro.energy.accounting import EnergyBreakdown
from repro.energy.gains import breakdown_gain_percent
from repro.trace.stream import TraceSource
from repro.trace.trace import BusTrace
from repro.utils.validation import check_fraction


@dataclass(frozen=True)
class OracleSchedule:
    """Per-window oracle voltage schedule and its realised statistics.

    Attributes
    ----------
    window_cycles:
        Length of each scheduling window.
    window_voltages:
        Chosen supply voltage of every window.
    window_error_rates:
        Realised error rate of every window at its chosen voltage.
    target_error_rate:
        The error budget the oracle enforced per window.
    energy / reference_energy:
        Energy of the schedule and of the nominal-supply reference.
    """

    window_cycles: int
    window_voltages: np.ndarray
    window_error_rates: np.ndarray
    target_error_rate: float
    energy: EnergyBreakdown
    reference_energy: EnergyBreakdown

    @property
    def n_windows(self) -> int:
        """Number of scheduled windows."""
        return len(self.window_voltages)

    @property
    def average_error_rate(self) -> float:
        """Cycle-weighted average error rate over the schedule."""
        if self.n_windows == 0:
            return 0.0
        return float(np.mean(self.window_error_rates))

    @property
    def energy_gain_percent(self) -> float:
        """Energy gain of the schedule versus the nominal supply, in percent."""
        return breakdown_gain_percent(self.reference_energy, self.energy)

    def voltage_residency(self) -> dict[float, float]:
        """Fraction of execution time spent at each supply voltage (Fig. 6)."""
        voltages, counts = np.unique(np.round(self.window_voltages, 6), return_counts=True)
        total = counts.sum()
        return {float(v): float(c) / total for v, c in zip(voltages, counts)}


def min_error_free_voltage_per_cycle(
    bus: CharacterizedBus, stats: TraceStatistics
) -> np.ndarray:
    """Lowest grid voltage at which each cycle individually would be error-free.

    For every grid voltage the table gives the largest coupling factor that
    still meets the main deadline; because that threshold is monotonically
    non-decreasing in the supply, a single ``searchsorted`` per trace maps
    every cycle's worst coupling factor to its minimum safe voltage.
    """
    grid = bus.grid
    deadline = bus.design.clocking.main_deadline
    thresholds = bus.table.failing_coupling_factors(deadline)
    # A cycle with worst coupling factor c is safe at voltage index i iff
    # c <= thresholds[i]; find the first such index for every cycle.
    indices = np.searchsorted(thresholds, stats.worst_coupling, side="left")
    indices = np.clip(indices, 0, len(grid) - 1)
    return grid.voltages[indices]


def _resolve_floor(bus: CharacterizedBus, v_floor: float | None) -> float:
    """The oracle's voltage floor, defaulting to the regulator safety floor."""
    if v_floor is None:
        from repro.circuit.pvt import PVTCorner  # local import to avoid cycle at module load

        assumed = PVTCorner(bus.corner.process, 100.0, 0.10)
        v_floor = bus.minimum_safe_voltage(assumed)
    return bus.grid.snap(max(v_floor, bus.grid.v_min))


def oracle_voltage_schedule(
    bus: CharacterizedBus,
    workload: BusTrace | TraceSource | TraceStatistics,
    target_error_rate: float,
    window_cycles: int = DEFAULT_WINDOW_CYCLES,
    v_floor: float | None = None,
    jobs: int | None = None,
) -> OracleSchedule:
    """Choose the optimal per-window voltages for a target error rate.

    The statistics pass reduces each scheduling window to an exact
    :class:`~repro.bus.bus_model.TraceSummary` (the segmenter splits at
    window starts only -- the oracle has no regulator state), in O(chunk)
    memory for a streamed workload.  Per window the oracle only needs *how
    many* cycles demand each grid voltage, so it scatters each summary's
    worst-coupling histogram onto grid indices; the budgeted choice and the
    realised error count are exact tail sums of that histogram, and energy
    accumulates per grid-voltage level.  The schedule is therefore the same
    for any chunk length, kernel and worker count.

    Parameters
    ----------
    bus:
        Characterised bus at the corner of interest.
    workload:
        A trace, a :class:`~repro.trace.stream.TraceSource` or pre-computed
        trace statistics.
    target_error_rate:
        Maximum tolerated fraction of error cycles per window (0 gives the
        zero-error schedule).
    window_cycles:
        Window granularity of the schedule (the paper uses 10 000 cycles).
    v_floor:
        Minimum allowed voltage; defaults to the regulator safety floor for
        the bus's process corner (shadow-latch setup under assumed worst-case
        temperature and IR drop).
    jobs:
        Worker processes for the statistics pass; results are bit-identical
        for any value.
    """
    check_fraction("target_error_rate", target_error_rate)
    if window_cycles <= 0:
        raise ValueError(f"window_cycles must be positive, got {window_cycles}")
    from repro.runtime.parallel import ChunkSegmenter, statistics_pass

    floor_index = bus.grid.index_of(_resolve_floor(bus, v_floor))
    summaries = (
        statistics_pass(
            [(workload, ChunkSegmenter(n_cycles=workload.n_cycles, window_cycles=window_cycles))],
            bus.design.topology,
            jobs=jobs,
        )[0]
        if workload.n_cycles
        else []
    )

    grid = bus.grid
    n_grid = len(grid)
    deadline = bus.design.clocking.main_deadline
    thresholds = bus.table.failing_coupling_factors(deadline)

    window_voltages: list[float] = []
    window_error_rates: list[float] = []
    level_cycles = np.zeros(n_grid, dtype=np.int64)
    level_toggles = np.zeros(n_grid)
    level_weights = np.zeros(n_grid)
    total_errors = 0

    for summary in summaries:
        window_fill = summary.n_cycles
        # histogram[i] counts cycles whose minimum safe voltage is grid index
        # i; bin n_grid holds cycles unsafe even at the top grid voltage.  The
        # voltage *selection* treats those as satisfied at v_max -- matching
        # the clipped requirement of :func:`min_error_free_voltage_per_cycle`
        # -- but the realised error counts include them, exactly as
        # ``bus.error_mask`` does.
        histogram = np.zeros(n_grid + 1, dtype=np.int64)
        indices = np.searchsorted(thresholds, summary.worst_coupling_values, side="left")
        np.add.at(histogram, indices, summary.worst_coupling_counts)
        # tail[i] = cycles whose minimum safe voltage exceeds grid voltage i.
        tail = (histogram[::-1].cumsum()[::-1] - histogram)[:n_grid]
        selection_tail = tail.copy()
        selection_tail[-1] = 0
        budget = int(np.floor(target_error_rate * window_fill))
        chosen_index = max(int(np.nonzero(selection_tail <= budget)[0][0]), floor_index)
        errors = int(tail[chosen_index])
        window_voltages.append(float(grid.voltages[chosen_index]))
        window_error_rates.append(errors / window_fill)
        level_cycles[chosen_index] += window_fill
        level_toggles[chosen_index] += summary.toggles_total
        level_weights[chosen_index] += summary.coupling_weights_total
        total_errors += errors

    energy = bus.energy_from_voltage_totals(
        level_cycles, level_toggles, level_weights, total_errors
    )
    reference = bus.energy_at_constant_supply(
        bus.design.nominal_vdd,
        int(level_cycles.sum()),
        float(level_toggles.sum()),
        float(level_weights.sum()),
    )
    return OracleSchedule(
        window_cycles=window_cycles,
        window_voltages=np.array(window_voltages),
        window_error_rates=np.array(window_error_rates),
        target_error_rate=target_error_rate,
        energy=energy,
        reference_energy=reference,
    )
