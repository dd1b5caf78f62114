"""Cycle-by-cycle behavioural reference simulation of the DVS bus.

The production simulator (:class:`~repro.core.dvs_system.DVSBusSystem`) is
vectorised: it reduces every cycle to its worst effective coupling factor and
evaluates whole blocks of cycles with a handful of numpy comparisons.  That
is what makes million-cycle runs cheap, but it is also a shortcut whose
correctness deserves an independent check.

:class:`BehavioralDVSSimulator` is that check.  It drives an actual
:class:`~repro.core.double_sampling_ff.FlipFlopBank` one cycle at a time with
per-wire arrival times, counts bank error signals through the same
:class:`~repro.core.error_detection.ErrorCounter`, and commands the same
controller and regulator.  It is orders of magnitude slower (a Python loop
per cycle, a flip-flop object per wire) and is therefore used on short traces
only -- in the test suite, where it must agree with the vectorised simulator
error for error and voltage step for voltage step, and in the examples, where
its explicitness is the point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bus.bus_model import CharacterizedBus
from repro.circuit.pvt import PVTCorner
from repro.core.double_sampling_ff import FlipFlopBank
from repro.core.error_detection import DEFAULT_WINDOW_CYCLES, ErrorCounter, WindowMeasurement
from repro.core.policies import BangBangPolicy, ControlPolicy
from repro.core.regulator import VoltageEvent, VoltageRegulator
from repro.core.voltage_controller import WindowedVoltageController
from repro.interconnect.crosstalk import effective_coupling_factors, transitions_from_values
from repro.trace.trace import BusTrace


@dataclass(frozen=True)
class BehavioralRunResult:
    """Everything the behavioural reference simulation records.

    Attributes
    ----------
    n_cycles:
        Simulated cycles.
    total_errors:
        Cycles in which the bank error signal was asserted.
    error_mask:
        Per-cycle bank error flags.
    corrected_words:
        The word stored in the bank after each cycle's recovery; always equal
        to the transmitted data word (the recovery guarantee).
    windows:
        Completed error-measurement windows.
    voltage_events:
        Supply changes applied by the regulator (cycle, voltage).
    per_cycle_voltage:
        Supply voltage of every cycle.
    final_voltage:
        Supply voltage after the last cycle.
    """

    n_cycles: int
    total_errors: int
    error_mask: np.ndarray
    corrected_words: np.ndarray
    windows: list[WindowMeasurement]
    voltage_events: list[VoltageEvent]
    per_cycle_voltage: np.ndarray
    final_voltage: float

    @property
    def average_error_rate(self) -> float:
        """Errors per cycle over the whole run."""
        if self.n_cycles == 0:
            return 0.0
        return self.total_errors / self.n_cycles


class BehavioralDVSSimulator:
    """Flip-flop-level closed-loop DVS simulation (the reference behaviour).

    The constructor mirrors :class:`~repro.core.dvs_system.DVSBusSystem` so a
    configuration can be handed to either simulator unchanged.
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

    def run(
        self,
        trace: BusTrace,
        initial_voltage: float | None = None,
        max_cycles: int | None = 50_000,
    ) -> BehavioralRunResult:
        """Simulate the closed loop one cycle at a time.

        ``max_cycles`` guards against accidentally feeding this simulator a
        workload sized for the vectorised one; pass ``None`` to lift the
        guard deliberately.
        """
        n_cycles = trace.n_cycles
        if max_cycles is not None and n_cycles > max_cycles:
            raise ValueError(
                f"behavioural simulation of {n_cycles} cycles would be very slow; "
                f"raise max_cycles (currently {max_cycles}) explicitly if you mean it"
            )
        design = self.bus.design
        nominal = design.nominal_vdd
        start_voltage = nominal if initial_voltage is None else initial_voltage

        regulator = VoltageRegulator(
            grid=self.bus.grid,
            v_min=self.v_floor,
            v_max=nominal,
            initial_voltage=start_voltage,
            ramp_delay_cycles=self.ramp_delay_cycles,
        )
        controller = WindowedVoltageController(
            regulator=regulator, policy=self.policy, window_cycles=self.window_cycles
        )
        counter = ErrorCounter(self.window_cycles)
        bank = FlipFlopBank(design.n_bits, design.clocking)
        # One unpack for the whole run: `trace.values` unpacks on every access.
        values = trace.values
        bank.reset(values[0])

        transitions = transitions_from_values(values)
        factors = effective_coupling_factors(transitions, design.topology)

        error_mask = np.zeros(n_cycles, dtype=bool)
        corrected = np.empty((n_cycles, design.n_bits), dtype=np.uint8)
        per_cycle_voltage = np.empty(n_cycles)

        for cycle in range(n_cycles):
            regulator.apply_until(cycle)
            vdd = regulator.current_voltage
            per_cycle_voltage[cycle] = vdd
            arrivals = self.bus.table.delays(vdd, factors[cycle])
            result = bank.capture_word(values[cycle + 1], arrivals)
            error_mask[cycle] = result.error
            corrected[cycle] = result.corrected_word
            for measurement in counter.record_cycle(result.error):
                controller.on_window(measurement)
        counter.flush()

        return BehavioralRunResult(
            n_cycles=n_cycles,
            total_errors=int(np.count_nonzero(error_mask)),
            error_mask=error_mask,
            corrected_words=corrected,
            windows=counter.completed_windows,
            voltage_events=regulator.events,
            per_cycle_voltage=per_cycle_voltage,
            final_voltage=regulator.current_voltage,
        )
