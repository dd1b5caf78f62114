"""Static voltage-scaling experiments (paper Fig. 4 and Fig. 5).

Two studies live here:

* :func:`run_static_voltage_sweep` reproduces Fig. 4: for one PVT corner,
  sweep the supply from nominal down to the shadow-latch limit and report the
  combined error rate and normalised energy (bus energy, and bus energy plus
  recovery overhead) of the whole benchmark suite at each grid voltage.
* :func:`run_corner_gain_study` reproduces Fig. 5 (and, applied to the
  modified bus, Fig. 10): for each PVT corner and each target error rate,
  find the lowest static supply that does not exceed the target and report
  the energy gain, plotted against the corner's nominal-voltage delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

from repro.bus.bus_design import BusDesign
from repro.bus.bus_model import CharacterizedBus, TraceStatistics, TraceSummary, merge_summaries
from repro.circuit.pvt import STANDARD_CORNERS, PVTCorner
from repro.energy.gains import breakdown_gain_percent, normalized_energy
from repro.trace.stream import TraceSource
from repro.trace.trace import BusTrace
from repro.utils.validation import check_fraction

#: Workload forms the static studies accept: per-benchmark traces/sources,
#: or already-reduced statistics.
WorkloadsLike = Mapping[str, BusTrace | TraceSource] | TraceStatistics | TraceSummary


@dataclass(frozen=True)
class StaticScalingPoint:
    """One point of the Fig. 4 sweep: a grid voltage and its metrics."""

    vdd: float
    error_rate: float
    normalized_bus_energy: float
    normalized_total_energy: float

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view (for tabular reporting and serialisation)."""
        return {
            "vdd_mV": round(self.vdd * 1000.0, 1),
            "error_rate_percent": self.error_rate * 100.0,
            "normalized_bus_energy": self.normalized_bus_energy,
            "normalized_total_energy": self.normalized_total_energy,
        }


@dataclass(frozen=True)
class StaticScalingSweep:
    """Result of a Fig. 4 style sweep at one corner."""

    corner: PVTCorner
    points: tuple[StaticScalingPoint, ...]

    @property
    def voltages(self) -> np.ndarray:
        """Swept grid voltages, descending from nominal."""
        return np.array([p.vdd for p in self.points])

    @property
    def error_rates(self) -> np.ndarray:
        """Combined error rate at each swept voltage."""
        return np.array([p.error_rate for p in self.points])

    @property
    def normalized_energies(self) -> np.ndarray:
        """Normalised bus+recovery energy at each swept voltage."""
        return np.array([p.normalized_total_energy for p in self.points])

    def lowest_voltage_for_error_rate(self, target: float) -> float:
        """Lowest swept voltage whose error rate does not exceed ``target``."""
        check_fraction("target", target)
        eligible = [p.vdd for p in self.points if p.error_rate <= target]
        if not eligible:
            raise ValueError(f"no swept voltage meets an error-rate target of {target}")
        return min(eligible)

    def as_dict(self) -> dict[str, object]:
        """Stable JSON-able view: the swept points plus derived Fig. 4 metrics."""
        return {
            "corner": self.corner.label,
            "lowest_error_free_mv": round(
                self.lowest_voltage_for_error_rate(0.0) * 1000.0, 1
            ),
            "points": [point.as_dict() for point in self.points],
        }


def combine_summaries(
    bus: CharacterizedBus,
    workloads: Mapping[str, BusTrace | TraceSource],
) -> TraceSummary:
    """Reduce a suite of traces/sources to one :class:`TraceSummary` (paper Fig. 4 setup).

    The per-benchmark summaries are merged exactly, with no transition
    between one benchmark's last word and the next one's first, so every
    static-scaling quantity -- error rates and energies at constant grid
    voltages -- covers exactly the benchmarks' own cycles while paper-scale
    suites sweep in O(chunk) memory.
    """
    if not workloads:
        raise ValueError("workloads must contain at least one trace")
    return merge_summaries([bus.summarize(workload) for workload in workloads.values()])


def resolve_workload_statistics(bus: CharacterizedBus, workloads: WorkloadsLike) -> TraceSummary:
    """Reduce a static-study workload argument to one :class:`TraceSummary`.

    A summary passes through, per-cycle statistics are summarised, and a
    mapping of traces and sources is merged by :func:`combine_summaries`.
    """
    if isinstance(workloads, TraceSummary):
        return workloads
    if isinstance(workloads, TraceStatistics):
        return workloads.summarize()
    return combine_summaries(bus, workloads)


def run_static_voltage_sweep(
    bus: CharacterizedBus,
    workloads: WorkloadsLike,
    v_stop: float | None = None,
) -> StaticScalingSweep:
    """Sweep the static supply at one corner and measure error rate and energy.

    Parameters
    ----------
    bus:
        Characterised bus at the corner of interest.
    workloads:
        Either a mapping of benchmark traces / trace sources (combined, as in
        the paper) or pre-combined :class:`TraceStatistics` /
        :class:`TraceSummary`.  Either way the sweep evaluates one
        :class:`TraceSummary`; sources are reduced in O(chunk) memory, which
        is how the sweep runs at paper-scale trace lengths.
    v_stop:
        Lowest voltage to sweep; defaults to the lowest grid voltage at which
        the worst-case pattern still meets the *shadow-latch* deadline at this
        corner (the paper's sweep stop condition).
    """
    summary = resolve_workload_statistics(bus, workloads)
    if v_stop is None:
        v_stop = bus.table.min_voltage_meeting(
            bus.design.clocking.shadow_deadline, bus.design.topology.max_coupling_factor
        )
    reference = bus.nominal_energy(summary)

    points: list[StaticScalingPoint] = []
    for vdd in reversed(bus.grid.voltages.tolist()):
        if vdd < v_stop - 1e-12:
            break
        error_rate = bus.error_rate(summary, vdd)
        energy = bus.energy_breakdown(summary, vdd)
        bus_only = bus.energy_breakdown(summary, vdd, n_errors=0)
        points.append(
            StaticScalingPoint(
                vdd=float(vdd),
                error_rate=error_rate,
                normalized_bus_energy=normalized_energy(reference, bus_only),
                normalized_total_energy=normalized_energy(reference, energy),
            )
        )
    return StaticScalingSweep(corner=bus.corner, points=tuple(points))


def gain_metric_key(target_percent: float) -> str:
    """Serialisation key of one error-rate target's gain column.

    The single definition both :meth:`CornerGainPoint.as_dict` (writing) and
    the report renderer (reading, via the serialised ``targets_percent``)
    use, so keys stay distinct and consistent for any target -- including
    sub-1 % targets and percentages that are not exactly representable.

    >>> gain_metric_key(2.0), gain_metric_key(0.5), gain_metric_key(29.0)
    ('gain_percent_at_2pct_errors', 'gain_percent_at_0.5pct_errors', 'gain_percent_at_29pct_errors')
    """
    return f"gain_percent_at_{target_percent:g}pct_errors"


def _target_percent(target: float) -> float:
    """A target error-rate fraction as its serialised percentage."""
    return round(target * 100.0, 2)


@dataclass(frozen=True)
class CornerGainPoint:
    """One corner's entry in Fig. 5 / Fig. 10."""

    corner_index: int
    corner: PVTCorner
    nominal_delay: float
    gains_percent: dict[float, float]
    voltages: dict[float, float]

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view for reporting."""
        return {
            "corner": self.corner.label,
            "delay_ps_at_nominal": round(self.nominal_delay * 1e12, 1),
            **{
                gain_metric_key(_target_percent(target)): round(gain, 2)
                for target, gain in self.gains_percent.items()
            },
        }


@dataclass(frozen=True)
class CornerGainStudy:
    """Fig. 5 / Fig. 10: energy gains vs corner delay for several error targets."""

    design_label: str
    targets: tuple[float, ...]
    points: tuple[CornerGainPoint, ...]

    def gains_for_target(self, target: float) -> list[float]:
        """Energy gains (percent) of every corner for one error-rate target."""
        return [point.gains_percent[target] for point in self.points]

    def delays_ps(self) -> list[float]:
        """Nominal-voltage worst-case delays (ps) of every corner (the X axis)."""
        return [point.nominal_delay * 1e12 for point in self.points]

    def as_dict(self) -> dict[str, object]:
        """Stable JSON-able view: targets plus one entry per corner."""
        return {
            "design_label": self.design_label,
            "targets_percent": [_target_percent(target) for target in self.targets],
            "points": [point.as_dict() for point in self.points],
        }


def run_corner_gain_study(
    design: BusDesign,
    workloads: Mapping[str, BusTrace | TraceSource],
    targets: Sequence[float] = (0.0, 0.02, 0.05),
    corners: Mapping[int, PVTCorner] | None = None,
    design_label: str = "original bus",
) -> CornerGainStudy:
    """Reproduce Fig. 5 (or Fig. 10 when given the modified bus design).

    For every corner the bus is characterised, the benchmark suite's combined
    summary is evaluated over the voltage grid, and for each target error
    rate the lowest admissible static voltage (subject to the shadow-latch
    limit) determines the reported energy gain.  The suite is reduced once,
    in O(chunk) memory: every corner shares the design's topology, and with
    it the summary.
    """
    for target in targets:
        check_fraction("target", target)
    if corners is None:
        corners = STANDARD_CORNERS

    points: list[CornerGainPoint] = []
    summary: TraceSummary | None = None
    for index in sorted(corners):
        corner = corners[index]
        bus = CharacterizedBus(design, corner)
        if summary is None:
            summary = resolve_workload_statistics(bus, workloads)
        sweep = run_static_voltage_sweep(bus, summary)
        reference = bus.nominal_energy(summary)
        nominal_delay = bus.table.worst_delay(
            design.nominal_vdd, design.topology.max_coupling_factor
        )

        gains: dict[float, float] = {}
        voltages: dict[float, float] = {}
        for target in targets:
            voltage = sweep.lowest_voltage_for_error_rate(target)
            energy = bus.energy_breakdown(summary, voltage)
            gains[target] = breakdown_gain_percent(reference, energy)
            voltages[target] = voltage
        points.append(
            CornerGainPoint(
                corner_index=index,
                corner=corner,
                nominal_delay=nominal_delay,
                gains_percent=gains,
                voltages=voltages,
            )
        )
    return CornerGainStudy(
        design_label=design_label, targets=tuple(targets), points=tuple(points)
    )
