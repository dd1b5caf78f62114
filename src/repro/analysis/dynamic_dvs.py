"""Closed-loop DVS experiments (paper Table 1 and Fig. 8).

* :func:`run_table1` runs every benchmark through both the fixed
  voltage-scaling baseline and the proposed closed-loop DVS system at the two
  corners of Table 1 and reports per-benchmark energy gains and average error
  rates, plus the suite-wide totals.
* :func:`run_fig8` runs the ten benchmarks back to back (starting at the
  nominal supply) and returns the supply-voltage and instantaneous error-rate
  time series of Fig. 8, together with the benchmark region boundaries.

Both drivers are *streamed*: the statistics pass
(:mod:`repro.runtime.parallel`) walks workloads chunk by chunk, so peak
memory stays O(chunk) regardless of trace length.  That is what makes the
paper's 10 M cycles per benchmark -- now the default -- practical: a full
Table 1 at paper scale needs tens of MB, not tens of GB.  Table 1 walks each
benchmark once: the segment summaries depend only on the data, the wiring
and the control timing, so each is replayed into every corner's closed loop
and merged into the one fixed-VS summary all corners share.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

from repro.bus.bus_design import BusDesign
from repro.bus.bus_model import CharacterizedBus, TraceSummary, merge_summaries
from repro.circuit.pvt import TYPICAL_CORNER, WORST_CASE_CORNER, PVTCorner
from repro.core.dvs_system import DVSBusSystem, DVSRunResult
from repro.core.fixed_vs import evaluate_fixed_scaling
from repro.core.policies import ControlPolicy
from repro.energy.gains import energy_gain_percent
from repro.trace.benchmarks import TABLE1_ORDER
from repro.trace.generator import PAPER_CYCLES_PER_BENCHMARK, suite_sources
from repro.trace.stream import ConcatenatedTraceSource, TraceSource, as_trace_source
from repro.trace.trace import BusTrace

#: Default fraction of each benchmark run treated as controller warm-up.  The
#: paper's runs are 10 M cycles, where the descent from the nominal supply is
#: negligible; shorter runs exclude the descent so the reported gain reflects
#: steady-state operation.
DEFAULT_WARMUP_FRACTION = 0.5

WorkloadMapping = Mapping[str, BusTrace | TraceSource]


def _auto_progress(total_cycles: int, label: str):
    """A :class:`~repro.runtime.progress.ChunkProgress` for long interactive
    runs, else ``None`` (short runs, non-TTY stderr)."""
    # Imported lazily: repro.runtime's package init reaches back into the
    # analysis registry, so a module-level import would be circular.
    from repro.runtime.progress import auto_chunk_progress

    return auto_chunk_progress(total_cycles, label)


@dataclass(frozen=True)
class Table1Row:
    """One benchmark's entry for one corner of Table 1."""

    benchmark: str
    fixed_vs_gain_percent: float
    dvs_gain_percent: float
    dvs_average_error_rate: float
    fixed_vs_voltage: float
    dvs_minimum_voltage: float

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view mirroring the paper's column layout."""
        return {
            "benchmark": self.benchmark,
            "fixed_vs_gain_percent": round(self.fixed_vs_gain_percent, 1),
            "dvs_gain_percent": round(self.dvs_gain_percent, 1),
            "dvs_average_error_rate_percent": round(self.dvs_average_error_rate * 100.0, 2),
        }


@dataclass(frozen=True)
class Table1CornerResult:
    """All rows plus the totals line for one corner of Table 1."""

    corner: PVTCorner
    rows: tuple[Table1Row, ...]
    total_fixed_vs_gain_percent: float
    total_dvs_gain_percent: float
    total_dvs_error_rate: float

    def row(self, benchmark: str) -> Table1Row:
        """Look up one benchmark's row."""
        for candidate in self.rows:
            if candidate.benchmark == benchmark:
                return candidate
        raise KeyError(f"no row for benchmark {benchmark!r}")

    def as_dict(self) -> dict[str, object]:
        """Stable JSON-able view: rows plus the totals line of one corner."""
        return {
            "corner": self.corner.label,
            "rows": [row.as_dict() for row in self.rows],
            "totals": {
                "fixed_vs_gain_percent": round(self.total_fixed_vs_gain_percent, 2),
                "dvs_gain_percent": round(self.total_dvs_gain_percent, 2),
                "dvs_average_error_rate_percent": round(self.total_dvs_error_rate * 100.0, 3),
            },
        }


@dataclass(frozen=True)
class Table1Result:
    """The full Table 1 reproduction: one result per corner."""

    corners: tuple[Table1CornerResult, ...]
    n_cycles_per_benchmark: int

    def corner_result(self, corner: PVTCorner) -> Table1CornerResult:
        """Look up the result of one corner."""
        for candidate in self.corners:
            if candidate.corner == corner:
                return candidate
        raise KeyError(f"no result for corner {corner.label}")

    def as_dict(self) -> dict[str, object]:
        """Stable JSON-able view of the whole table (one entry per corner).

        This is the serialisation contract ``repro.report`` renders and the
        runtime cache persists: plain types only, percentages rounded to a
        fixed precision so re-rendering a cached record is byte-stable.
        """
        return {
            "n_cycles_per_benchmark": int(self.n_cycles_per_benchmark),
            "corners": [corner.as_dict() for corner in self.corners],
        }


def _run_suite_streamed(
    systems: Sequence[DVSBusSystem],
    workloads: Sequence[BusTrace | TraceSource],
    warmup_fraction: float,
    jobs: int | None,
    progress,
) -> list[tuple[TraceSummary, list[DVSRunResult]]]:
    """One statistics pass over a suite, replayed into every system's closed loop.

    Segment summaries depend only on the data, the wiring and the control
    timing the systems share, never on the corner or the parasitics, so each
    benchmark is analysed once: its summaries replay every system's closed
    loop and merge into the one summary the static studies evaluate (the
    Table 1 fixed-VS baselines, the Fig. 10 corner studies).  The whole
    suite is one batch of the pass, so with ``jobs > 1`` each benchmark is a
    task of its own.  Returns, per workload, that summary and one run per
    system.
    """
    # Imported lazily, like the progress reporter: repro.runtime circles back.
    from repro.runtime.parallel import statistics_pass

    warmups = [int(warmup_fraction * workload.n_cycles) for workload in workloads]
    runs = []
    for workload, warmup in zip(workloads, warmups):
        segmenter = systems[0].control_segmenter(workload.n_cycles, warmup_cycles=warmup)
        if any(
            s.control_segmenter(workload.n_cycles, warmup_cycles=warmup) != segmenter
            for s in systems
        ):
            raise ValueError("systems sharing one pass must agree on window, ramp and warm-up")
        runs.append((workload, segmenter))
    passes = statistics_pass(runs, systems[0].bus.design.topology, jobs=jobs, progress=progress)
    return [
        (
            merge_summaries(summaries),
            [system.replay(summaries, warmup_cycles=warmup) for system in systems],
        )
        for summaries, warmup in zip(passes, warmups)
    ]


def run_table1(
    design: BusDesign | None = None,
    workloads: WorkloadMapping | None = None,
    corners: Sequence[PVTCorner] = (WORST_CASE_CORNER, TYPICAL_CORNER),
    n_cycles: int | None = None,
    seed: int = 2005,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    policy: ControlPolicy | None = None,
    window_cycles: int = 10_000,
    ramp_delay_cycles: int = 3000,
    jobs: int | None = None,
    order: Sequence[str] | None = None,
) -> Table1Result:
    """Reproduce Table 1: fixed VS vs the proposed DVS, per benchmark and corner.

    Parameters
    ----------
    design:
        Bus design; defaults to the paper's bus.
    workloads:
        Benchmark traces or trace sources; when omitted, streamed synthetic
        sources at the paper's scale are used.  Any registry workload works
        here -- the cross-workload ``table1_kernels`` experiment passes CPU
        kernel sources next to the synthetic suite.
    corners:
        Corners to evaluate (the paper's Table 1 uses the worst-case and the
        typical corner).
    n_cycles:
        Cycles per benchmark when workloads are generated here; defaults to
        the paper's 10 M (:data:`~repro.trace.generator.PAPER_CYCLES_PER_BENCHMARK`),
        streamed in O(chunk) memory.
    seed:
        Trace-generation seed.
    warmup_fraction:
        Fraction of each run excluded from the energy/error accounting while
        the controller descends from the nominal supply.
    policy:
        Optional control-policy override.
    window_cycles / ramp_delay_cycles:
        Control-loop timing; the paper's values (10 000 and 3 000 cycles) by
        default.  Short test runs scale both down proportionally so the loop
        still reaches steady state.
    jobs:
        Worker processes for the statistics pass (inline for ``None`` or 1).
        The whole suite is one batch of the pass: each benchmark is analysed
        once, as its own task on one worker pool, and all corners share it.
    order:
        Row order of the table; defaults to the paper's
        :data:`~repro.trace.benchmarks.TABLE1_ORDER` (names absent from
        ``workloads`` are skipped either way).
    """
    if design is None:
        design = BusDesign.paper_bus()
    if n_cycles is None:
        n_cycles = PAPER_CYCLES_PER_BENCHMARK
    if workloads is None:
        workloads = suite_sources(n_cycles=n_cycles, seed=seed)
    if order is None:
        order = TABLE1_ORDER

    systems = [
        DVSBusSystem(
            CharacterizedBus(design, corner),
            policy=policy,
            window_cycles=window_cycles,
            ramp_delay_cycles=ramp_delay_cycles,
        )
        for corner in corners
    ]
    names = [name for name in order if name in workloads]
    suite = [workloads[name] for name in names]
    progress = _auto_progress(sum(workload.n_cycles for workload in suite), label="table1")
    passes = _run_suite_streamed(systems, suite, warmup_fraction, jobs, progress) if systems else []
    corner_results: list[Table1CornerResult] = []
    for position, (corner, system) in enumerate(zip(corners, systems)):
        rows: list[Table1Row] = []
        fixed_energy_total = 0.0
        fixed_reference_total = 0.0
        dvs_energy_total = 0.0
        dvs_reference_total = 0.0
        error_cycles_total = 0
        cycles_total = 0
        for name, (summary, dvs_runs) in zip(names, passes):
            fixed = evaluate_fixed_scaling(system.bus, summary)
            dvs = dvs_runs[position]
            rows.append(
                Table1Row(
                    benchmark=name,
                    fixed_vs_gain_percent=fixed.energy_gain_percent,
                    dvs_gain_percent=dvs.energy_gain_percent,
                    dvs_average_error_rate=dvs.average_error_rate,
                    fixed_vs_voltage=fixed.voltage,
                    dvs_minimum_voltage=dvs.minimum_voltage_reached,
                )
            )
            fixed_energy_total += fixed.energy.total_with_recovery
            fixed_reference_total += fixed.reference_energy.total_with_recovery
            dvs_energy_total += dvs.energy.total_with_recovery
            dvs_reference_total += dvs.reference_energy.total_with_recovery
            error_cycles_total += dvs.total_errors
            cycles_total += dvs.n_cycles
        corner_results.append(
            Table1CornerResult(
                corner=corner,
                rows=tuple(rows),
                total_fixed_vs_gain_percent=energy_gain_percent(
                    fixed_reference_total, fixed_energy_total
                ),
                total_dvs_gain_percent=energy_gain_percent(
                    dvs_reference_total, dvs_energy_total
                ),
                total_dvs_error_rate=(error_cycles_total / cycles_total) if cycles_total else 0.0,
            )
        )
    return Table1Result(corners=tuple(corner_results), n_cycles_per_benchmark=n_cycles)


@dataclass(frozen=True)
class Fig8Result:
    """Supply-voltage and instantaneous error-rate time series of Fig. 8."""

    corner: PVTCorner
    benchmark_order: tuple[str, ...]
    benchmark_boundaries: tuple[int, ...]
    voltage_event_cycles: np.ndarray
    voltage_event_values: np.ndarray
    window_start_cycles: np.ndarray
    window_error_rates: np.ndarray
    run: DVSRunResult

    @property
    def n_cycles(self) -> int:
        """Total simulated cycles across the concatenated suite."""
        return self.run.n_cycles

    def max_instantaneous_error_rate(self) -> float:
        """Largest per-window error rate observed (the paper reports ~6 %)."""
        if len(self.window_error_rates) == 0:
            return 0.0
        return float(np.max(self.window_error_rates))

    def voltage_range(self) -> tuple[float, float]:
        """(min, max) supply voltage reached during the run."""
        return float(np.min(self.voltage_event_values)), float(
            np.max(self.voltage_event_values)
        )

    def as_dict(self) -> dict[str, object]:
        """Stable JSON-able view: summary scalars plus both time series.

        The voltage trajectory is event-encoded (cycle of each regulator
        step), so even a paper-scale 100 M-cycle run serialises to a few
        thousand points, not per-cycle arrays.
        """
        vmin, vmax = self.voltage_range()
        return {
            "corner": self.corner.label,
            "benchmark_order": list(self.benchmark_order),
            "benchmark_boundaries": [int(b) for b in self.benchmark_boundaries],
            "n_cycles": int(self.n_cycles),
            "total_errors": int(self.run.total_errors),
            "average_error_rate_percent": round(self.run.average_error_rate * 100.0, 3),
            "max_instantaneous_error_rate_percent": round(
                self.max_instantaneous_error_rate() * 100.0, 3
            ),
            "energy_gain_percent": round(self.run.energy_gain_percent, 2),
            "supply_min_mv": round(vmin * 1000.0, 1),
            "supply_max_mv": round(vmax * 1000.0, 1),
            "voltage_events": {
                "cycles": [int(c) for c in self.voltage_event_cycles],
                "mv": [round(float(v) * 1000.0, 1) for v in self.voltage_event_values],
            },
            "windows": {
                "start_cycles": [int(c) for c in self.window_start_cycles],
                "error_rate_percent": [
                    round(float(r) * 100.0, 3) for r in self.window_error_rates
                ],
            },
        }


def run_fig8(
    design: BusDesign | None = None,
    workloads: WorkloadMapping | None = None,
    corner: PVTCorner = TYPICAL_CORNER,
    n_cycles: int | None = None,
    seed: int = 2005,
    benchmark_order: Sequence[str] = TABLE1_ORDER,
    policy: ControlPolicy | None = None,
    window_cycles: int = 10_000,
    ramp_delay_cycles: int = 3000,
    jobs: int | None = None,
) -> Fig8Result:
    """Reproduce Fig. 8: the suite run back-to-back under closed-loop DVS.

    The supply starts at the nominal 1.2 V and the controller adapts to each
    program's switching activity; the returned time series shows the supply
    trajectory and the 10 000-cycle instantaneous error rates, with the
    benchmark region boundaries for annotation.  The concatenated suite is
    streamed program by program, chunk by chunk, so the paper-scale
    (10 benchmarks x 10 M cycles) run never materialises a trace.
    """
    if design is None:
        design = BusDesign.paper_bus()
    if n_cycles is None:
        n_cycles = PAPER_CYCLES_PER_BENCHMARK
    if workloads is None:
        workloads = suite_sources(names=benchmark_order, n_cycles=n_cycles, seed=seed)

    suite = ConcatenatedTraceSource(
        [as_trace_source(workloads[name]) for name in benchmark_order], name="fig8-suite"
    )
    boundaries = suite.boundaries()

    bus = CharacterizedBus(design, corner)
    system = DVSBusSystem(
        bus, policy=policy, window_cycles=window_cycles, ramp_delay_cycles=ramp_delay_cycles
    )
    run = system.run(
        suite,
        initial_voltage=design.nominal_vdd,
        progress=_auto_progress(suite.n_cycles, label=f"fig8@{corner.label}"),
        jobs=jobs,
    )

    events = run.voltage_events
    return Fig8Result(
        corner=corner,
        benchmark_order=tuple(benchmark_order),
        benchmark_boundaries=tuple(boundaries),
        voltage_event_cycles=np.array([event.cycle for event in events]),
        voltage_event_values=np.array([event.voltage for event in events]),
        window_start_cycles=run.window_start_cycles,
        window_error_rates=run.window_error_rates,
        run=run,
    )
