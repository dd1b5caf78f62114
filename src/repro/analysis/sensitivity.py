"""Sensitivity of the closed-loop DVS system to its design parameters.

The paper fixes the control parameters by argument rather than by sweep: a
10 000-cycle error window, a 1 %-2 % target band, 20 mV steps applied after a
3 000-cycle regulator ramp, and a shadow-latch clock delayed by 33 % of the
cycle (the most the short-path constraint allows).  DESIGN.md lists these as
the design choices worth ablating; this module provides the sweeps, each
returning the same small result structure so reports stay uniform:

* :func:`run_window_length_sensitivity` -- error-measurement window,
* :func:`run_ramp_delay_sensitivity` -- regulator ramp delay,
* :func:`run_error_band_sensitivity` -- the policy's lower/upper thresholds,
* :func:`run_shadow_delay_sensitivity` -- the shadow-latch clock delay, which
  sets the regulator's safety floor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Callable, Sequence

from repro.bus.bus_design import BusDesign
from repro.bus.bus_model import CharacterizedBus, TraceStatistics
from repro.circuit.pvt import TYPICAL_CORNER, PVTCorner
from repro.core.dvs_system import DVSBusSystem
from repro.core.policies import BangBangPolicy
from repro.trace.trace import BusTrace
from repro.utils.validation import check_fraction


@dataclass(frozen=True)
class SensitivityPoint:
    """Outcome of one parameter value in a sensitivity sweep.

    Attributes
    ----------
    label:
        Human-readable parameter value ("window=2000", "band=1-2%", ...).
    value:
        The numeric parameter value (for plotting; the band sweep stores the
        upper threshold).
    energy_gain_percent / average_error_rate / minimum_voltage:
        Steady-state metrics of the closed-loop run at this value.
    """

    label: str
    value: float
    energy_gain_percent: float
    average_error_rate: float
    minimum_voltage: float

    def as_dict(self) -> dict:
        """Stable JSON-able view of one swept point."""
        return {
            "label": self.label,
            "value": float(self.value),
            "energy_gain_percent": round(self.energy_gain_percent, 2),
            "average_error_rate_percent": round(self.average_error_rate * 100.0, 3),
            "minimum_voltage_mv": round(self.minimum_voltage * 1000.0, 1),
        }


@dataclass(frozen=True)
class SensitivityStudy:
    """One parameter sweep of the closed-loop DVS system."""

    parameter: str
    corner: PVTCorner
    workload_name: str
    points: tuple[SensitivityPoint, ...]

    def best_gain(self) -> SensitivityPoint:
        """The point with the highest energy gain."""
        return max(self.points, key=lambda point: point.energy_gain_percent)

    def as_dict(self) -> dict:
        """Stable JSON-able view of the whole sweep."""
        return {
            "parameter": self.parameter,
            "corner": self.corner.label,
            "workload": self.workload_name,
            "points": [point.as_dict() for point in self.points],
        }


def format_sensitivity_study(study: SensitivityStudy) -> str:
    """Text table of a sensitivity sweep (one row per parameter value)."""
    title = (
        f"Sensitivity to {study.parameter} -- workload {study.workload_name!r}, "
        f"corner {study.corner.label}"
    )
    header = f"{'value':<16} {'gain %':>7} {'err %':>6} {'min Vdd (mV)':>13}"
    lines = [title, header, "-" * len(header)]
    for point in study.points:
        lines.append(
            f"{point.label:<16} {point.energy_gain_percent:>7.1f} "
            f"{point.average_error_rate * 100:>6.2f} {point.minimum_voltage * 1000:>13.0f}"
        )
    return "\n".join(lines)


def _steady_state_metrics(
    system: DVSBusSystem, workload: BusTrace | TraceStatistics, warmup_fraction: float
) -> tuple[float, float, float]:
    warmup = int(warmup_fraction * workload.n_cycles)
    result = system.run(workload, warmup_cycles=warmup)
    return (
        result.energy_gain_percent,
        result.average_error_rate,
        result.minimum_voltage_reached,
    )


def _sweep(
    parameter: str,
    bus: CharacterizedBus,
    workload: BusTrace | TraceStatistics,
    entries: Sequence[tuple[str, float, Callable[[], DVSBusSystem]]],
    warmup_fraction: float,
) -> SensitivityStudy:
    points = []
    for label, value, factory in entries:
        gain, error_rate, minimum = _steady_state_metrics(factory(), workload, warmup_fraction)
        points.append(
            SensitivityPoint(
                label=label,
                value=value,
                energy_gain_percent=gain,
                average_error_rate=error_rate,
                minimum_voltage=minimum,
            )
        )
    workload_name = workload.name if isinstance(workload, BusTrace) else "workload"
    return SensitivityStudy(
        parameter=parameter, corner=bus.corner, workload_name=workload_name, points=tuple(points)
    )


def run_window_length_sensitivity(
    bus: CharacterizedBus,
    workload: BusTrace | TraceStatistics,
    window_lengths: Sequence[int] = (500, 1_000, 2_000, 5_000, 10_000),
    ramp_fraction: float = 0.3,
    warmup_fraction: float = 0.5,
) -> SensitivityStudy:
    """Sweep the error-measurement window (the paper uses 10 000 cycles).

    The regulator ramp is kept at a fixed fraction of the window so the
    controller's relative reaction speed is comparable across points.
    """
    entries = [
        (
            f"window={window}",
            float(window),
            lambda window=window: DVSBusSystem(
                bus,
                window_cycles=window,
                ramp_delay_cycles=max(1, int(ramp_fraction * window)),
            ),
        )
        for window in window_lengths
    ]
    return _sweep("error window (cycles)", bus, workload, entries, warmup_fraction)


def run_ramp_delay_sensitivity(
    bus: CharacterizedBus,
    workload: BusTrace | TraceStatistics,
    ramp_delays: Sequence[int] = (150, 300, 600, 1_200, 1_800),
    window_cycles: int = 2_000,
    warmup_fraction: float = 0.5,
) -> SensitivityStudy:
    """Sweep the regulator ramp delay (3 000 cycles for the paper's regulator)."""
    entries = [
        (
            f"ramp={ramp}",
            float(ramp),
            lambda ramp=ramp: DVSBusSystem(
                bus, window_cycles=window_cycles, ramp_delay_cycles=ramp
            ),
        )
        for ramp in ramp_delays
        if ramp < window_cycles
    ]
    return _sweep("regulator ramp delay (cycles)", bus, workload, entries, warmup_fraction)


def run_error_band_sensitivity(
    bus: CharacterizedBus,
    workload: BusTrace | TraceStatistics,
    bands: Sequence[tuple[float, float]] = ((0.0, 0.005), (0.005, 0.01), (0.01, 0.02), (0.02, 0.05)),
    window_cycles: int = 2_000,
    ramp_delay_cycles: int = 600,
    warmup_fraction: float = 0.5,
) -> SensitivityStudy:
    """Sweep the bang-bang policy's error band (the paper steers for 1 %-2 %)."""
    for low, high in bands:
        check_fraction("band lower edge", low)
        check_fraction("band upper edge", high)
    entries = [
        (
            f"band={low * 100:g}-{high * 100:g}%",
            high,
            lambda low=low, high=high: DVSBusSystem(
                bus,
                policy=BangBangPolicy(low_threshold=low, high_threshold=high),
                window_cycles=window_cycles,
                ramp_delay_cycles=ramp_delay_cycles,
            ),
        )
        for low, high in bands
    ]
    return _sweep("target error band", bus, workload, entries, warmup_fraction)


def run_shadow_delay_sensitivity(
    design: BusDesign,
    workload: BusTrace,
    corner: PVTCorner = TYPICAL_CORNER,
    shadow_fractions: Sequence[float] = (0.10, 0.20, 0.33, 0.45),
    window_cycles: int = 2_000,
    ramp_delay_cycles: int = 600,
    warmup_fraction: float = 0.5,
) -> SensitivityStudy:
    """Sweep the shadow-latch clock delay (33 % of the cycle in the paper).

    A larger delay moves the shadow deadline later, which lowers the
    regulator's safety floor and therefore raises the attainable gain -- up
    to the point where the short-path (hold) constraint of Section 2 would be
    violated, which is why the paper stops at 33 %.
    """
    points = []
    workload_name = workload.name
    for fraction in shadow_fractions:
        check_fraction("shadow delay fraction", fraction)
        clocking = replace(design.clocking, shadow_delay_fraction=fraction)
        bus = CharacterizedBus(design.with_clocking(clocking), corner)
        system = DVSBusSystem(
            bus, window_cycles=window_cycles, ramp_delay_cycles=ramp_delay_cycles
        )
        gain, error_rate, minimum = _steady_state_metrics(system, workload, warmup_fraction)
        points.append(
            SensitivityPoint(
                label=f"shadow delay={fraction * 100:.0f}%",
                value=fraction,
                energy_gain_percent=gain,
                average_error_rate=error_rate,
                minimum_voltage=minimum,
            )
        )
    return SensitivityStudy(
        parameter="shadow-latch clock delay",
        corner=corner,
        workload_name=workload_name,
        points=tuple(points),
    )
