"""The windowed voltage controller of the paper's Fig. 7.

The controller polls the bank error counter every ``window_cycles`` cycles
and asks its policy for a voltage change, which it forwards to the regulator.
It is deliberately small: all the intelligence is in the policy
(:mod:`repro.core.policies`) and all the physical behaviour (step size,
ramp delay, safety floor) is in the regulator (:mod:`repro.core.regulator`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.error_detection import DEFAULT_WINDOW_CYCLES, WindowMeasurement
from repro.core.policies import BangBangPolicy, ControlPolicy
from repro.core.regulator import VoltageEvent, VoltageRegulator


@dataclass(frozen=True)
class ControlDecision:
    """Record of one controller decision (for analysis and plotting)."""

    window: WindowMeasurement
    requested_delta: float
    scheduled_event: VoltageEvent | None


@dataclass
class WindowedVoltageController:
    """Polls window error rates and drives the regulator.

    Parameters
    ----------
    regulator:
        The voltage regulator to command.
    policy:
        Control policy mapping window error rate to a requested change; the
        default is the paper's 1 %/2 % bang-bang policy.
    window_cycles:
        Decision interval in cycles (10 000 in the paper).
    """

    regulator: VoltageRegulator
    policy: ControlPolicy = field(default_factory=BangBangPolicy)
    window_cycles: int = DEFAULT_WINDOW_CYCLES
    decisions: list[ControlDecision] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.window_cycles <= 0:
            raise ValueError(f"window_cycles must be positive, got {self.window_cycles}")
        if self.window_cycles <= self.regulator.ramp_delay_cycles:
            raise ValueError(
                "the decision window must be longer than the regulator ramp delay "
                f"({self.window_cycles} <= {self.regulator.ramp_delay_cycles}); "
                "otherwise a decision would come due while the previous change is "
                "still pending (a change lands after the window boundary it ends on)"
            )

    def on_window(self, measurement: WindowMeasurement) -> ControlDecision:
        """Handle one completed measurement window.

        The policy's requested change is forwarded to the regulator, which
        clamps it to the grid and its floor/ceiling and schedules it after the
        ramp delay.
        """
        delta = self.policy.decide(measurement.error_rate)
        decision_cycle = measurement.start_cycle + measurement.n_cycles
        event: VoltageEvent | None = None
        if delta != 0.0:
            event = self.regulator.request_change(delta, decision_cycle)
        decision = ControlDecision(
            window=measurement, requested_delta=delta, scheduled_event=event
        )
        self.decisions.append(decision)
        return decision
