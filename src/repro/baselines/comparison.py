"""Head-to-head comparison of supply-scaling schemes on one workload.

The comparison runs, with identical energy accounting:

1. the fixed voltage-scaling baseline of Table 1 (process corner only,
   worst-case temperature/IR margins),
2. the canary delay-line scheme (adds temperature tracking),
3. the triple-latch monitor (tests the real path, pays test energy), and
4. the paper's proposed error-correcting closed-loop DVS.

Each baseline recovers exactly the margin it can observe: fixed VS only the
process corner, the canary additionally the temperature (so it only pulls
ahead of fixed VS when the die is cooler than the 100 C worst case, and its
replica-mismatch guard band costs it a step otherwise), the triple-latch
monitor additionally the true IR-drop state of the tested path.  Only the
proposed DVS exploits the data-dependent slack, which is the quantitative
version of the argument the paper makes qualitatively in Section 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from repro.baselines.canary import CanaryVoltageScaling
from repro.baselines.scheme import SchemeResult
from repro.baselines.triple_latch import TripleLatchMonitor
from repro.bus.bus_design import BusDesign
from repro.bus.bus_model import CharacterizedBus, TraceStatistics, analyze_trace_statistics
from repro.circuit.pvt import PVTCorner
from repro.core.dvs_system import DVSBusSystem
from repro.core.fixed_vs import evaluate_fixed_scaling
from repro.trace.trace import BusTrace


@dataclass(frozen=True)
class SchemeComparison:
    """Results of every scheme on one workload at one corner."""

    corner: PVTCorner
    workload_name: str
    n_cycles: int
    results: tuple[SchemeResult, ...]

    def by_scheme(self, scheme: str) -> SchemeResult:
        """Look up one scheme's result by name."""
        for result in self.results:
            if result.scheme == scheme:
                return result
        known = ", ".join(result.scheme for result in self.results)
        raise KeyError(f"no result for scheme {scheme!r}; known: {known}")

    @property
    def proposed(self) -> SchemeResult:
        """The proposed error-correcting DVS row."""
        return self.by_scheme("proposed DVS")

    def gains_percent(self) -> Mapping[str, float]:
        """Scheme name to energy gain (percent), in evaluation order."""
        return {result.scheme: result.energy_gain_percent for result in self.results}

    def as_dict(self) -> dict:
        """Stable JSON-able view: one row per scheme, evaluation order."""
        return {
            "corner": self.corner.label,
            "workload": self.workload_name,
            "n_cycles": int(self.n_cycles),
            "schemes": [result.as_dict() for result in self.results],
        }


def _combine(bus: CharacterizedBus, traces: Sequence[BusTrace]) -> TraceStatistics:
    """Per-cycle statistics of the traces run back to back, with no junction cycles."""
    combined: TraceStatistics | None = None
    for trace in traces:
        stats = analyze_trace_statistics(trace, bus.design.topology)
        combined = stats if combined is None else combined.concatenate(stats)
    if combined is None:
        raise ValueError("need at least one trace to compare schemes on")
    return combined


def run_scheme_comparison(
    design: BusDesign,
    traces: Sequence[BusTrace],
    corner: PVTCorner,
    *,
    canary: CanaryVoltageScaling | None = None,
    triple_latch: TripleLatchMonitor | None = None,
    window_cycles: int = 2_000,
    ramp_delay_cycles: int = 600,
    warmup_fraction: float = 0.5,
    workload_name: str = "suite",
) -> SchemeComparison:
    """Evaluate all four schemes on a workload at one corner.

    Parameters
    ----------
    design:
        The bus design (normally :meth:`BusDesign.paper_bus`).
    traces:
        Workload traces, evaluated back to back.
    corner:
        The corner that actually prevails during execution.
    canary / triple_latch:
        Baseline configurations; defaults use their standard guard bands.
    window_cycles / ramp_delay_cycles / warmup_fraction:
        Control-loop parameters of the proposed DVS run (scaled-down defaults
        for short traces).
    """
    if canary is None:
        canary = CanaryVoltageScaling()
    if triple_latch is None:
        triple_latch = TripleLatchMonitor(test_interval_cycles=window_cycles * 5)

    bus = CharacterizedBus(design, corner)
    stats = _combine(bus, traces)
    summary = stats.summarize()

    fixed = evaluate_fixed_scaling(bus, summary)
    results = [
        SchemeResult(
            scheme="fixed VS",
            voltage=fixed.voltage,
            energy=fixed.energy,
            reference_energy=fixed.reference_energy,
            error_rate=fixed.error_rate,
            notes="process corner only; worst-case temperature and IR margins",
        ),
        canary.evaluate(bus, summary),
        triple_latch.evaluate(bus, summary),
    ]

    system = DVSBusSystem(
        bus, window_cycles=window_cycles, ramp_delay_cycles=ramp_delay_cycles
    )
    warmup = int(warmup_fraction * stats.n_cycles)
    dvs = system.run(stats, warmup_cycles=warmup)
    results.append(
        SchemeResult(
            scheme="proposed DVS",
            voltage=dvs.minimum_voltage_reached,
            energy=dvs.energy,
            reference_energy=dvs.reference_energy,
            error_rate=dvs.average_error_rate,
            notes="closed loop on corrected errors; no margins (voltage shown is the minimum reached)",
        )
    )
    return SchemeComparison(
        corner=corner,
        workload_name=workload_name,
        n_cycles=stats.n_cycles,
        results=tuple(results),
    )


def format_scheme_comparison(comparison: SchemeComparison) -> str:
    """Text table of a scheme comparison (one row per scheme)."""
    title = (
        f"Supply-scaling schemes -- workload {comparison.workload_name!r}, "
        f"corner {comparison.corner.label}, {comparison.n_cycles} cycles"
    )
    header = f"{'scheme':<22} {'Vdd (mV)':>9} {'gain %':>7} {'err %':>6}  notes"
    lines = [title, header, "-" * len(header)]
    for result in comparison.results:
        lines.append(
            f"{result.scheme:<22} {result.voltage * 1000:>9.0f} "
            f"{result.energy_gain_percent:>7.1f} {result.error_rate * 100:>6.2f}  {result.notes}"
        )
    return "\n".join(lines)
