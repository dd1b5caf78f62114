"""Voltage-control policies.

The paper uses a deliberately simple bang-bang policy: if the error rate of
the last window is below 1 % the supply is lowered by 20 mV, if it is above
2 % the supply is raised by 20 mV, otherwise it is left alone.  The paper
notes that a proportional controller could be used instead but argues the
simple policy works well without the hardware overhead; both are provided
here so that claim can be examined (see the control-policy ablation in
``tests/integration/test_paper_figures.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.utils.validation import check_fraction, check_positive

#: The paper's voltage step (20 mV).
DEFAULT_VOLTAGE_STEP = 0.020


class ControlPolicy(Protocol):
    """Protocol of a voltage-control policy.

    A policy maps the error rate measured over the last window to a requested
    supply-voltage change in volts (negative = scale down).
    """

    def decide(self, window_error_rate: float) -> float:
        """Requested voltage change for the observed window error rate."""
        ...


@dataclass(frozen=True)
class BangBangPolicy:
    """The paper's threshold policy: +/- one step, or hold.

    Attributes
    ----------
    low_threshold:
        Error rate below which the voltage is lowered (1 % in the paper).
    high_threshold:
        Error rate above which the voltage is raised (2 % in the paper).
    step:
        Voltage step magnitude in volts (20 mV in the paper).
    """

    low_threshold: float = 0.01
    high_threshold: float = 0.02
    step: float = DEFAULT_VOLTAGE_STEP

    def __post_init__(self) -> None:
        check_fraction("low_threshold", self.low_threshold)
        check_fraction("high_threshold", self.high_threshold)
        check_positive("step", self.step)
        if self.low_threshold > self.high_threshold:
            raise ValueError(
                f"low_threshold ({self.low_threshold}) must be <= "
                f"high_threshold ({self.high_threshold})"
            )

    def decide(self, window_error_rate: float) -> float:
        """Lower below the band, raise above it, hold inside it."""
        check_fraction("window_error_rate", window_error_rate)
        if window_error_rate < self.low_threshold:
            return -self.step
        if window_error_rate > self.high_threshold:
            return +self.step
        return 0.0


@dataclass(frozen=True)
class ProportionalPolicy:
    """A proportional policy quantised to multiples of the voltage step.

    The requested change is proportional to the difference between the
    observed error rate and the target rate, quantised to whole 20 mV steps
    and clamped to ``max_steps`` per decision.  The paper dismisses this as
    hard to tune (the bus error rate is a strongly non-linear function of the
    supply); it is provided for the ablation study.

    Attributes
    ----------
    target_error_rate:
        Error rate the controller steers towards.
    gain:
        Voltage change per unit of error-rate difference (volts per 100 %).
    step:
        Quantisation step in volts.
    max_steps:
        Maximum number of steps per decision.
    """

    target_error_rate: float = 0.015
    gain: float = 1.0
    step: float = DEFAULT_VOLTAGE_STEP
    max_steps: int = 3

    def __post_init__(self) -> None:
        check_fraction("target_error_rate", self.target_error_rate)
        check_positive("gain", self.gain)
        check_positive("step", self.step)
        if self.max_steps <= 0:
            raise ValueError(f"max_steps must be positive, got {self.max_steps}")

    def decide(self, window_error_rate: float) -> float:
        """Move towards the target error rate, in whole quantised steps."""
        check_fraction("window_error_rate", window_error_rate)
        raw = self.gain * (window_error_rate - self.target_error_rate)
        n_steps = int(round(raw / self.step))
        n_steps = max(-self.max_steps, min(self.max_steps, n_steps))
        return n_steps * self.step
