"""Interconnect-architecture and technology-scaling studies (paper Section 6).

Two studies:

* :func:`run_modified_bus_study` reproduces Fig. 10 and the accompanying
  Table 1 delta: the bus's wire parasitics are re-balanced so that Cc/Cg is
  1.95x the original at constant worst-case load, the Fig. 5 corner/gain
  study is repeated on the modified bus, and the closed-loop controller is
  re-run at the worst-case corner to show the average gain improving (the
  paper reports 6.3 % -> 8.2 %).
* :func:`run_technology_scaling_study` quantifies the Section 6 argument that
  the delay spread between worst-case and typical switching patterns (the
  ``R x Cc`` term) grows with technology scaling, so the approach becomes more
  attractive at smaller nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.analysis.dynamic_dvs import WorkloadMapping, _run_suite_streamed
from repro.analysis.static_scaling import CornerGainStudy, run_corner_gain_study
from repro.bus.bus_design import BusDesign
from repro.bus.bus_model import CharacterizedBus, merge_summaries
from repro.circuit.pvt import WORST_CASE_CORNER, PVTCorner
from repro.core.dvs_system import DVSBusSystem, DVSRunResult
from repro.interconnect.scaling import delay_spread_metric, scaled_node_series
from repro.trace.generator import DEFAULT_CYCLES_PER_BENCHMARK, generate_suite

#: The coupling-ratio multiplier of the paper's modified bus.
PAPER_COUPLING_RATIO_MULTIPLIER = 1.95


@dataclass(frozen=True)
class ModifiedBusStudy:
    """Fig. 10 plus the closed-loop comparison at the worst corner."""

    ratio_multiplier: float
    original_study: CornerGainStudy
    modified_study: CornerGainStudy
    original_worst_corner_dvs_gain: float
    modified_worst_corner_dvs_gain: float
    original_worst_corner_error_rate: float
    modified_worst_corner_error_rate: float

    def gain_improvement_percent(self, target: float) -> dict[int, float]:
        """Per-corner gain improvement (modified minus original) at one target."""
        improvements: dict[int, float] = {}
        for original, modified in zip(self.original_study.points, self.modified_study.points):
            improvements[original.corner_index] = (
                modified.gains_percent[target] - original.gains_percent[target]
            )
        return improvements

    def as_dict(self) -> dict[str, object]:
        """Stable JSON-able view: both corner studies plus the closed-loop delta."""
        return {
            "ratio_multiplier": float(self.ratio_multiplier),
            "original_study": self.original_study.as_dict(),
            "modified_study": self.modified_study.as_dict(),
            "closed_loop_worst_corner": {
                "original_gain_percent": round(self.original_worst_corner_dvs_gain, 2),
                "modified_gain_percent": round(self.modified_worst_corner_dvs_gain, 2),
                "original_error_rate_percent": round(
                    self.original_worst_corner_error_rate * 100.0, 3
                ),
                "modified_error_rate_percent": round(
                    self.modified_worst_corner_error_rate * 100.0, 3
                ),
            },
        }


def run_modified_bus_study(
    design: BusDesign | None = None,
    workloads: WorkloadMapping | None = None,
    ratio_multiplier: float = PAPER_COUPLING_RATIO_MULTIPLIER,
    targets: Sequence[float] = (0.0, 0.02, 0.05),
    n_cycles: int = DEFAULT_CYCLES_PER_BENCHMARK,
    seed: int = 2005,
    closed_loop_corner: PVTCorner = WORST_CASE_CORNER,
    warmup_fraction: float = 0.5,
    window_cycles: int = 10_000,
    ramp_delay_cycles: int = 3000,
) -> ModifiedBusStudy:
    """Reproduce Fig. 10 and the modified-bus closed-loop comparison.

    The modified design shares the original's repeater sizing (the worst-case
    delay is unchanged by construction), so any gain difference comes purely
    from the larger delay gap between worst-case and typical patterns.  It
    also shares the wiring topology (only the parasitics change), so one
    statistics pass per benchmark feeds both closed loops and both corner
    studies.
    """
    if design is None:
        design = BusDesign.paper_bus()
    if workloads is None:
        workloads = generate_suite(n_cycles=n_cycles, seed=seed)
    modified_design = design.with_modified_coupling(ratio_multiplier)
    systems = [
        DVSBusSystem(
            CharacterizedBus(bus_design, closed_loop_corner),
            window_cycles=window_cycles,
            ramp_delay_cycles=ramp_delay_cycles,
        )
        for bus_design in (design, modified_design)
    ]
    passes = _run_suite_streamed(systems, list(workloads.values()), warmup_fraction, None, None)
    suite = merge_summaries([summary for summary, _ in passes])

    original_study = run_corner_gain_study(
        design, suite, targets=targets, design_label="original bus"
    )
    modified_study = run_corner_gain_study(
        modified_design, suite, targets=targets, design_label="modified bus"
    )

    def closed_loop_gain(system_runs: Sequence[DVSRunResult]) -> tuple[float, float]:
        total_energy = sum(run.energy.total_with_recovery for run in system_runs)
        total_reference = sum(run.reference_energy.total_with_recovery for run in system_runs)
        total_errors = sum(run.total_errors for run in system_runs)
        total_cycles = sum(run.n_cycles for run in system_runs)
        gain = 100.0 * (1.0 - total_energy / total_reference)
        error_rate = total_errors / total_cycles if total_cycles else 0.0
        return gain, error_rate

    # One tuple of benchmark runs per system.
    runs = zip(*(dvs_runs for _, dvs_runs in passes))
    (original_gain, original_error), (modified_gain, modified_error) = map(closed_loop_gain, runs)

    return ModifiedBusStudy(
        ratio_multiplier=ratio_multiplier,
        original_study=original_study,
        modified_study=modified_study,
        original_worst_corner_dvs_gain=original_gain,
        modified_worst_corner_dvs_gain=modified_gain,
        original_worst_corner_error_rate=original_error,
        modified_worst_corner_error_rate=modified_error,
    )


@dataclass(frozen=True)
class TechnologyScalingStudy:
    """Section 6 trend: delay-spread figure of merit across technology nodes."""

    segment_length: float
    spread_by_node: dict[str, float]
    normalized_spread: dict[str, float]

    @property
    def monotonically_increasing(self) -> bool:
        """Whether the delay spread grows monotonically as the node shrinks."""
        values = list(self.spread_by_node.values())
        return all(later >= earlier for earlier, later in zip(values, values[1:]))

    def as_dict(self) -> dict[str, object]:
        """Stable JSON-able view: per-node spread, largest node first."""
        return {
            "segment_length_mm": round(self.segment_length * 1e3, 3),
            "monotonically_increasing": bool(self.monotonically_increasing),
            "nodes": [
                {
                    "node": name,
                    "spread_ps": round(self.spread_by_node[name] * 1e12, 3),
                    "normalized": round(self.normalized_spread[name], 3),
                }
                for name in self.spread_by_node
            ],
        }


def run_technology_scaling_study(
    feature_sizes: Sequence[float] = (130e-9, 90e-9, 65e-9, 45e-9),
    segment_length: float = 1.5e-3,
) -> TechnologyScalingStudy:
    """Quantify the growth of the ``R x Cc`` delay spread with scaling.

    The wire cross-section shrinks with the node (raising resistance) while
    the coupling capacitance per unit length stays roughly constant, so the
    worst-vs-typical delay spread of a fixed-length global segment grows --
    the paper's argument for why the error-tolerant DVS bus scales well.
    """
    nodes = scaled_node_series(feature_sizes)
    spread = {
        name: delay_spread_metric(node, segment_length) for name, node in nodes.items()
    }
    first = next(iter(spread.values()))
    normalized = {name: value / first for name, value in spread.items()}
    return TechnologyScalingStudy(
        segment_length=segment_length,
        spread_by_node=spread,
        normalized_spread=normalized,
    )
