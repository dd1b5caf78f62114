"""Closed-loop DVS bus system: the paper's proposed scheme, end to end.

:class:`DVSBusSystem` ties together the characterised bus, the windowed error
counter, the control policy and the voltage regulator into the feedback loop
of the paper's Fig. 7:

1. the flip-flop bank's error signal is counted over 10 000-cycle windows,
2. at the end of each window the policy requests a voltage change
   (lower by 20 mV below 1 % errors, raise by 20 mV above 2 %),
3. the regulator applies the change 3 000 cycles later (its ramp delay) and
   never goes below the conservative shadow-latch safety floor.

The supply can only change at window starts and regulator ramp
applications -- cycles fixed by the configuration, never by the data -- so a
run is two steps.  The statistics pass
(:func:`repro.runtime.parallel.statistics_pass`) streams the workload -- a
trace, pre-computed statistics, or a
:class:`~repro.trace.stream.TraceSource` -- chunk by chunk and reduces it to
one exact :class:`~repro.bus.bus_model.TraceSummary` per segment between two
such boundaries.  :class:`DVSRunState` then replays the regulator,
controller and error counter over those summaries, with exact
per-grid-voltage energy accumulators.

Because the control trajectory is a deterministic function of integer
per-window error counts, and the energy accumulators are exact integer
totals contracted in fixed grid order, a run is **bit-identical** for any
chunk size, kernel and worker count -- a guarantee the streaming-equivalence
tests enforce, and the flip-flop-level reference simulator checks
independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING
from collections.abc import Callable, Sequence

import numpy as np

from repro.bus.bus_model import CharacterizedBus, TraceStatistics, TraceSummary
from repro.circuit.pvt import PVTCorner
from repro.core.error_detection import DEFAULT_WINDOW_CYCLES, ErrorCounter
from repro.core.policies import BangBangPolicy, ControlPolicy
from repro.core.regulator import VoltageEvent, VoltageRegulator
from repro.core.voltage_controller import WindowedVoltageController
from repro.energy.accounting import EnergyBreakdown
from repro.energy.gains import breakdown_gain_percent
from repro.trace.stream import TraceSource
from repro.trace.trace import BusTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.runtime.parallel import ChunkSegmenter

#: A per-chunk progress callback: ``callback(done_cycles, total_cycles)``.
ProgressCallback = Callable[[int, int], None]


@dataclass(frozen=True)
class DVSRunResult:
    """Everything measured during one closed-loop DVS run.

    Attributes
    ----------
    n_cycles:
        Simulated cycles.
    total_errors:
        Corrected timing errors (each costs one recovery cycle).
    failures:
        Cycles that would have missed even the shadow-latch deadline; the
        regulator floor guarantees this is zero, and the simulator checks it.
    window_error_rates / window_start_cycles:
        Instantaneous error rate of each completed 10 000-cycle window (the
        dots of Fig. 8).
    window_voltages:
        Supply voltage at the *start* of each completed window.
    voltage_events:
        The piecewise-constant supply trajectory (cycle, voltage).
    energy / reference_energy:
        Energy breakdown of the run and of the same workload at nominal
        supply with no errors.
    minimum_voltage_reached / final_voltage:
        Diagnostics of how far the controller scaled the rail.
    per_cycle_voltage:
        Optional full per-cycle voltage array (kept only when requested).
    """

    n_cycles: int
    total_errors: int
    failures: int
    window_error_rates: np.ndarray
    window_start_cycles: np.ndarray
    window_voltages: np.ndarray
    voltage_events: list[VoltageEvent]
    energy: EnergyBreakdown
    reference_energy: EnergyBreakdown
    minimum_voltage_reached: float
    final_voltage: float
    per_cycle_voltage: np.ndarray | None = field(default=None, repr=False)

    @property
    def average_error_rate(self) -> float:
        """Errors per cycle over the whole run."""
        if self.n_cycles == 0:
            return 0.0
        return self.total_errors / self.n_cycles

    @property
    def energy_gain_percent(self) -> float:
        """Energy gain versus the nominal supply, in percent (Table 1 metric)."""
        return breakdown_gain_percent(self.reference_energy, self.energy)

    @property
    def performance_penalty(self) -> float:
        """Fractional IPC loss under the paper's 1-cycle-per-error assumption."""
        return self.average_error_rate


class DVSRunState:
    """The closed loop mid-run: feed segment summaries, then finish.

    Created by :meth:`DVSBusSystem.stream`; :meth:`DVSBusSystem.replay`
    feeds each segment's :class:`TraceSummary` in order with
    :meth:`feed_summary` and collects the :class:`DVSRunResult` from
    :meth:`finish`.
    """

    def __init__(
        self,
        system: DVSBusSystem,
        n_cycles: int,
        initial_voltage: float | None,
        keep_cycle_voltage: bool,
        warmup_cycles: int,
    ) -> None:
        if warmup_cycles < 0 or warmup_cycles >= n_cycles:
            raise ValueError(
                f"warmup_cycles must be in [0, {n_cycles}), got {warmup_cycles}"
            )
        self._system = system
        bus = system.bus
        self._n_cycles = n_cycles
        self._warmup = warmup_cycles
        nominal = bus.design.nominal_vdd
        start_voltage = nominal if initial_voltage is None else initial_voltage

        self._regulator = VoltageRegulator(
            grid=bus.grid,
            v_min=system.v_floor,
            v_max=nominal,
            initial_voltage=start_voltage,
            ramp_delay_cycles=system.ramp_delay_cycles,
        )
        self._controller = WindowedVoltageController(
            regulator=self._regulator,
            policy=system.policy,
            window_cycles=system.window_cycles,
        )
        self._counter = ErrorCounter(system.window_cycles)

        # Error thresholds per grid-voltage index (the replay only ever
        # sees on-grid voltages, so both deadlines tabulate once).
        deadline = bus.design.clocking.main_deadline
        shadow = bus.design.clocking.shadow_deadline
        self._thr_main = bus.table.failing_coupling_factors(deadline)
        self._thr_shadow = bus.table.failing_coupling_factors(shadow)
        self._grid_index: dict[float, int] = {}  # voltage -> grid index, filled lazily

        # Exact per-grid-voltage accumulators over the measured (post-warm-up)
        # region; these make the final energy independent of chunking.
        n_grid = len(bus.grid)
        self._meas_cycles = np.zeros(n_grid, dtype=np.int64)
        self._meas_toggles = np.zeros(n_grid)
        self._meas_weights = np.zeros(n_grid)
        self._meas_errors = 0

        self._window_voltages: list[float] = []
        self._next_window_start = 0
        self._failures = 0
        self._min_voltage = float("inf")
        self._cursor = 0  # next global cycle expected by feed_summary()
        self._voltage_per_cycle = np.empty(n_cycles) if keep_cycle_voltage else None

    @property
    def n_cycles(self) -> int:
        """Total cycles this run will cover."""
        return self._n_cycles

    def feed_summary(self, summary: TraceSummary) -> None:
        """Advance the closed loop over one *constant-state segment* summary.

        The summary must cover exactly the next segment between two control
        boundaries (window starts, ramp applications, the warm-up edge --
        see :meth:`DVSBusSystem.control_segmenter`), over which the supply
        voltage and the accounting regime are provably constant: the
        segment's errors are its cycles whose worst coupling factor exceeds
        the threshold at that voltage, and its energy follows from its
        exact totals.  Raises if the segment would straddle a boundary (a
        summary cannot be split after the fact).
        """
        n = summary.n_cycles
        start = self._cursor
        end = start + n
        if end > self._n_cycles:
            raise ValueError(
                f"segment of {n} cycles overruns the declared run length "
                f"({start} + {n} > {self._n_cycles})"
            )
        if n == 0:
            return
        regulator = self._regulator
        grid = self._system.bus.grid
        window_cycles = self._system.window_cycles
        cycle = start
        if cycle == self._next_window_start:
            # The window voltage is sampled before any change landing
            # exactly on the window boundary is applied.
            self._window_voltages.append(regulator.current_voltage)
            self._next_window_start += window_cycles
        regulator.apply_until(cycle)
        voltage = regulator.current_voltage
        v_index = self._grid_index.get(voltage)
        if v_index is None:
            v_index = self._grid_index[voltage] = grid.index_of(voltage)

        window_end = (cycle // window_cycles + 1) * window_cycles
        boundary = min(window_end, self._n_cycles)
        pending = regulator.pending_change
        if pending is not None and cycle < pending.cycle < boundary:
            boundary = pending.cycle
        if end > boundary:
            raise ValueError(
                f"segment [{start}, {end}) straddles a control boundary at "
                f"{boundary}; re-segment the run with control_segmenter()"
            )
        if cycle < self._warmup < end:
            raise ValueError(
                f"segment [{start}, {end}) straddles the warm-up boundary at "
                f"{self._warmup}; re-segment the run with control_segmenter()"
            )

        block_errors = summary.error_count(float(self._thr_main[v_index]))
        self._failures += summary.error_count(float(self._thr_shadow[v_index]))
        if self._voltage_per_cycle is not None:
            self._voltage_per_cycle[cycle:end] = voltage
        self._min_voltage = min(self._min_voltage, voltage)

        if cycle >= self._warmup:
            self._meas_cycles[v_index] += n
            self._meas_toggles[v_index] += summary.toggles_total
            self._meas_weights[v_index] += summary.coupling_weights_total
            self._meas_errors += block_errors

        for measurement in self._counter.record(n, block_errors):
            self._controller.on_window(measurement)
        self._cursor = end

    def finish(self) -> DVSRunResult:
        """Close the run and assemble the :class:`DVSRunResult`."""
        if self._cursor != self._n_cycles:
            raise ValueError(
                f"run was declared for {self._n_cycles} cycles but only "
                f"{self._cursor} were fed"
            )
        self._counter.flush()
        if self._failures:
            raise RuntimeError(
                f"{self._failures} cycle(s) missed the shadow-latch deadline; the "
                "regulator floor is not conservative enough for this corner"
            )
        bus = self._system.bus
        energy = bus.energy_from_voltage_totals(
            self._meas_cycles, self._meas_toggles, self._meas_weights, self._meas_errors
        )
        reference = bus.energy_at_constant_supply(
            bus.design.nominal_vdd,
            int(self._meas_cycles.sum()),
            float(self._meas_toggles.sum()),
            float(self._meas_weights.sum()),
        )

        windows = self._counter.completed_windows
        result = DVSRunResult(
            n_cycles=self._n_cycles - self._warmup,
            total_errors=self._meas_errors,
            failures=self._failures,
            window_error_rates=np.array([w.error_rate for w in windows]),
            window_start_cycles=np.array([w.start_cycle for w in windows]),
            window_voltages=np.array(self._window_voltages[: len(windows)]),
            voltage_events=self._regulator.events,
            energy=energy,
            reference_energy=reference,
            minimum_voltage_reached=self._min_voltage,
            final_voltage=self._regulator.current_voltage,
            per_cycle_voltage=self._voltage_per_cycle,
        )
        from repro.telemetry import get_telemetry

        telemetry = get_telemetry()
        if telemetry.enabled:
            # Controller-side accounting for the end-of-run summary: how much
            # was simulated, how hard the closed loop worked, and how often
            # the regulator actually moved the rail.
            telemetry.count("dvs.cycles_simulated", result.n_cycles)
            telemetry.count("dvs.errors_corrected", result.total_errors)
            telemetry.count("dvs.windows_measured", len(result.window_error_rates))
            telemetry.count("dvs.voltage_transitions", len(result.voltage_events))
            telemetry.gauge("dvs.final_voltage_v", result.final_voltage)
            telemetry.gauge("dvs.min_voltage_v", result.minimum_voltage_reached)
        return result


class DVSBusSystem:
    """The proposed DVS scheme: error-correcting bus plus closed-loop control.

    The workload itself only enters at :meth:`run` / :meth:`stream` time and
    is always consumed chunk by chunk; constructing the system is cheap and
    workload-free.

    Parameters
    ----------
    bus:
        Characterised bus at the PVT corner being simulated (either live or
        loaded via :meth:`CharacterizedBus.from_database` -- the two are
        bit-identical).
    policy:
        Voltage-control policy; defaults to the paper's 1 %/2 % bang-bang
        policy with 20 mV steps.
    window_cycles:
        Error-measurement window (10 000 cycles in the paper).
    ramp_delay_cycles:
        Regulator ramp delay between decision and application (3 000 cycles).
    v_floor:
        Regulator safety floor; by default it is derived from the shadow-latch
        deadline assuming worst-case temperature and IR drop for the bus's
        *process* corner, which is the only corner attribute the paper allows
        the floor to be tuned with.  The derivation probes
        :meth:`CharacterizedBus.minimum_safe_voltage` at (process, 100 C,
        10 % IR drop); the standard characterization database bakes these
        floor corners in, so ``--chardb`` runs never re-enter the circuit
        models here either.
    """

    def __init__(
        self,
        bus: CharacterizedBus,
        policy: ControlPolicy | None = None,
        window_cycles: int = DEFAULT_WINDOW_CYCLES,
        ramp_delay_cycles: int = 3000,
        v_floor: float | None = None,
    ) -> None:
        self.bus = bus
        self.policy = policy if policy is not None else BangBangPolicy()
        self.window_cycles = window_cycles
        self.ramp_delay_cycles = ramp_delay_cycles
        if v_floor is None:
            assumed = PVTCorner(bus.corner.process, 100.0, 0.10)
            v_floor = bus.minimum_safe_voltage(assumed)
        self.v_floor = bus.grid.snap(max(v_floor, bus.grid.v_min))

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def stream(
        self,
        n_cycles: int,
        initial_voltage: float | None = None,
        keep_cycle_voltage: bool = False,
        warmup_cycles: int = 0,
    ) -> DVSRunState:
        """Open a segment-by-segment run of ``n_cycles`` cycles.

        Use this to feed summaries one at a time; :meth:`replay` feeds a
        whole pass's summaries, and :meth:`run` makes the pass and replays it.
        """
        return DVSRunState(self, n_cycles, initial_voltage, keep_cycle_voltage, warmup_cycles)

    def control_segmenter(self, n_cycles: int, warmup_cycles: int = 0) -> ChunkSegmenter:
        """Segment boundaries over which this system's control state is constant.

        The supply voltage can only change at window starts and regulator
        ramp applications -- cycles fixed by the configuration, never by the
        data -- and the accounting regime flips once at the warm-up edge.
        The statistics pass reduces each such segment to an exact summary,
        which :meth:`DVSRunState.feed_summary` replays.
        """
        from repro.runtime.parallel import ChunkSegmenter

        return ChunkSegmenter(
            n_cycles=n_cycles,
            window_cycles=self.window_cycles,
            ramp_delay_cycles=self.ramp_delay_cycles,
            warmup_cycles=warmup_cycles,
        )

    def run(
        self,
        workload: BusTrace | TraceStatistics | TraceSource,
        initial_voltage: float | None = None,
        keep_cycle_voltage: bool = False,
        warmup_cycles: int = 0,
        progress: ProgressCallback | None = None,
        jobs: int | None = None,
    ) -> DVSRunResult:
        """Simulate the closed loop over a workload.

        Parameters
        ----------
        workload:
            A raw :class:`BusTrace`, pre-computed :class:`TraceStatistics`
            (useful when the same trace is evaluated under several
            configurations), or a :class:`~repro.trace.stream.TraceSource`
            streamed chunk by chunk in O(chunk) memory.
        initial_voltage:
            Supply at cycle 0; defaults to the nominal supply, as in Fig. 8.
        keep_cycle_voltage:
            Keep the full per-cycle voltage array in the result (costs one
            float per cycle of memory -- the one deliberately O(n) option).
        warmup_cycles:
            Number of leading cycles excluded from the energy and error-rate
            accounting (the controller still runs through them).  The paper's
            10-million-cycle runs make the initial descent from the nominal
            supply negligible; shorter reproduction runs use a warm-up so the
            reported gain reflects steady-state behaviour rather than the
            start-up transient.  The voltage/error time series always cover
            the whole run.
        progress:
            Optional ``callback(done_cycles, total_cycles)`` invoked after
            every chunk (see :class:`repro.runtime.progress.ChunkProgress`).
        jobs:
            Worker processes for the statistics pass; ``None`` or 1 runs it
            inline.  Results are bit-identical for any value.
        """
        if not isinstance(workload, (TraceStatistics, BusTrace, TraceSource)):
            raise TypeError(f"cannot simulate a workload of type {type(workload).__name__}")
        from repro.runtime.parallel import statistics_pass
        from repro.telemetry import get_telemetry

        total = workload.n_cycles
        with get_telemetry().span(
            "dvs.run", workload=getattr(workload, "name", ""), cycles=total
        ):
            summaries = statistics_pass(
                workload,
                self.control_segmenter(total, warmup_cycles=warmup_cycles),
                self.bus.design.topology,
                jobs=jobs,
                progress=progress,
            )
            return self.replay(
                summaries,
                initial_voltage=initial_voltage,
                keep_cycle_voltage=keep_cycle_voltage,
                warmup_cycles=warmup_cycles,
            )

    def replay(
        self,
        summaries: Sequence[TraceSummary],
        initial_voltage: float | None = None,
        keep_cycle_voltage: bool = False,
        warmup_cycles: int = 0,
    ) -> DVSRunResult:
        """Run the closed loop over the segment summaries of a statistics pass.

        ``summaries`` must tile the run along :meth:`control_segmenter`'s
        boundaries for the same ``warmup_cycles`` (:meth:`run` makes that
        pass).  Summaries depend only on the workload, the wiring and that
        segmentation, never on the corner, so one pass can replay into any
        number of systems; the other parameters are those of :meth:`run`.
        """
        from repro.telemetry import get_telemetry

        state = self.stream(
            sum(summary.n_cycles for summary in summaries),
            initial_voltage=initial_voltage,
            keep_cycle_voltage=keep_cycle_voltage,
            warmup_cycles=warmup_cycles,
        )
        with get_telemetry().span("dvs.replay", segments=len(summaries)):
            for summary in summaries:
                state.feed_summary(summary)
        return state.finish()
