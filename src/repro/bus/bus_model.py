"""Cycle-level behavioural model of the characterised bus.

The expensive per-cycle work -- classifying every wire's switching pattern and
summing the coupling-energy weights -- depends only on the data trace, not on
the supply voltage.  :class:`TraceStatistics` holds those per-cycle arrays in
the form the lane kernels emit them: each cycle's worst coupling factor as a
small integer code into a value table, plus the toggle counts and
coupling-energy weights.  :class:`CharacterizedBus` evaluates timing errors
and energy at a constant supply from a :class:`TraceSummary` alone.

Simulations never hold a whole run's per-cycle arrays.  The statistics pass
(:func:`repro.runtime.parallel.statistics_pass`) analyses one chunk at a time
with :func:`analyze_trace_statistics`, and :meth:`TraceStatistics.summaries`
reduces each chunk to one :class:`TraceSummary` per control segment it
touches: exact totals plus the (tiny, discrete) distribution of worst
coupling factors, from which error rates and energies at any *constant*
supply follow exactly, independent of how the trace was chunked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING
from collections.abc import Sequence

import numpy as np

from repro.bus.bus_design import BusDesign
from repro.bus.characterization import default_voltage_grid
from repro.circuit.energy_model import FlipFlopEnergyParams
from repro.circuit.lookup_table import DelayEnergyTable, VoltageGrid
from repro.circuit.pvt import PVTCorner
from repro.energy.accounting import EnergyBreakdown
from repro.interconnect.block_kernels import block_statistics_codes, lanes_supported
from repro.interconnect.crosstalk import (
    NeighborTopology,
    coupling_energy_weights,
    toggle_counts,
    transitions_from_values,
    worst_coupling_factor_per_cycle,
)
from repro.telemetry import get_telemetry
from repro.trace.stream import DEFAULT_CHUNK_CYCLES, TraceSource
from repro.trace.trace import BusTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.chardb.database import CharacterizationDatabase

VoltageLike = float | np.ndarray

#: Most distinct worst-coupling values :meth:`TraceStatistics.from_arrays`
#: codes with one compare pass per value (uint8 codes, and past this the
#: per-cycle binary search is cheaper).
_COMPARE_CODING_MAX_VALUES = 48


@dataclass(frozen=True)
class TraceStatistics:
    """Voltage-independent per-cycle statistics of a data trace on a bus.

    All arrays have one entry per *transition* (i.e. ``n_values - 1``): the
    first bus word only establishes the initial state.  The worst coupling
    factor is stored as the lane kernels emit it: cycle ``i``'s factor is
    ``values[codes[i]]`` (see
    :func:`repro.interconnect.block_kernels.block_statistics_codes`), so the
    statistics pass histograms small integers and never builds a float
    worst-coupling array.  :meth:`from_arrays` codes float factors.

    Attributes
    ----------
    codes:
        Per-cycle index into ``values``.
    values:
        Non-decreasing table of worst coupling factors; several codes may
        share one value.
    toggles:
        Number of switching wires per cycle.
    coupling_weights:
        Sum over adjacent pairs of the squared relative swing (in Vdd units)
        per cycle, for coupling-energy accounting.

    >>> stats = TraceStatistics.from_arrays([2.15, 0.0, 2.15], [3.0, 0.0, 2.0], [4.0, 0.0, 2.0])
    >>> stats.worst_coupling.tolist()
    [2.15, 0.0, 2.15]
    >>> stats.summarize().worst_coupling_counts.tolist()
    [1, 2]
    """

    codes: np.ndarray
    values: np.ndarray
    toggles: np.ndarray
    coupling_weights: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.codes)
        for name in ("codes", "toggles", "coupling_weights"):
            shape = np.shape(getattr(self, name))
            if shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {shape}")
        if np.ndim(self.values) != 1:
            raise ValueError(f"values must be 1-D, got shape {np.shape(self.values)}")

    @classmethod
    def from_arrays(
        cls, worst_coupling: np.ndarray, toggles: np.ndarray, coupling_weights: np.ndarray
    ) -> TraceStatistics:
        """Statistics of float per-cycle arrays, coded by their distinct factors.

        The codes are what ``np.unique(..., return_inverse=True)`` returns.
        Kernel output only holds a handful of distinct factors, so a cycle's
        code is counted as the number of distinct values above the smallest
        that it reaches: one vectorised compare per value, several times
        faster than a binary search per cycle (``searchsorted``, kept for
        statistics with many distinct values).
        """
        worst = np.asarray(worst_coupling, dtype=float)
        values = np.unique(worst)
        if len(values) > _COMPARE_CODING_MAX_VALUES:
            codes = np.searchsorted(values, worst)
        else:
            codes = np.zeros(len(worst), dtype=np.uint8)
            for value in values[1:]:
                np.add(codes, worst >= value, out=codes, casting="unsafe")
        return cls(
            codes,
            values,
            np.asarray(toggles, dtype=float),
            np.asarray(coupling_weights, dtype=float),
        )

    @property
    def worst_coupling(self) -> np.ndarray:
        """Per-cycle worst effective Miller coupling factor, ``values[codes]``.

        The largest factor among the cycle's switching wires (0 when no wire
        switches), decoded into a new float64 array on every access.
        """
        return self.values[self.codes]

    @property
    def n_cycles(self) -> int:
        """Number of simulated cycles (transitions)."""
        return len(self.codes)

    def slice(self, start: int, stop: int) -> TraceStatistics:
        """Statistics of a contiguous sub-interval of cycles (same value table)."""
        return TraceStatistics(
            codes=self.codes[start:stop],
            values=self.values,
            toggles=self.toggles[start:stop],
            coupling_weights=self.coupling_weights[start:stop],
        )

    def concatenate(self, other: TraceStatistics) -> TraceStatistics:
        """Concatenate two runs of statistics (back-to-back program execution).

        Statistics sharing a value table (every lane analysis of one
        topology) join their codes; otherwise the decoded factors are coded
        again.
        """
        toggles = np.concatenate([self.toggles, other.toggles])
        weights = np.concatenate([self.coupling_weights, other.coupling_weights])
        if np.array_equal(self.values, other.values):
            codes = np.concatenate([self.codes, other.codes])
            return TraceStatistics(codes, self.values, toggles, weights)
        worst = np.concatenate([self.worst_coupling, other.worst_coupling])
        return TraceStatistics.from_arrays(worst, toggles, weights)

    @property
    def mean_toggle_rate(self) -> float:
        """Average number of switching wires per cycle (diagnostic)."""
        if self.n_cycles == 0:
            return 0.0
        return float(np.sum(self.toggles)) / self.n_cycles

    def summarize(self) -> TraceSummary:
        """Reduce these per-cycle arrays to a :class:`TraceSummary`."""
        if self.n_cycles == 0:
            return TraceSummary.empty()
        return self.summaries([0])[0]

    def summaries(self, offsets: Sequence[int] | np.ndarray) -> list[TraceSummary]:
        """One exact :class:`TraceSummary` per piece of these cycles.

        Piece ``k`` covers ``[offsets[k], offsets[k + 1])`` and the last piece
        ends at :attr:`n_cycles`; ``offsets`` must start at 0 and increase
        strictly.  Each piece's histogram is one row of a single bincount
        over ``piece * n_codes + code``, and its toggle and weight totals
        come from one ``np.add.reduceat`` each.  All of them are exact
        integer totals, so the summaries do not depend on how cycles were
        grouped into chunks or pieces.  Codes that share a value are folded
        into one bin, since summary values must be distinct.
        """
        offsets = np.asarray(offsets, dtype=np.intp)
        lengths = np.diff(offsets, append=self.n_cycles)
        if len(offsets) == 0 or offsets[0] != 0 or np.any(lengths <= 0):
            raise ValueError(
                f"piece offsets must start at 0 and increase strictly below "
                f"{self.n_cycles}, got {offsets.tolist()}"
            )
        n_pieces, n_codes = len(offsets), len(self.values)
        if n_pieces == 1:
            histograms = np.bincount(self.codes, minlength=n_codes)[None, :]
        else:
            binned = np.repeat(np.arange(0, n_pieces * n_codes, n_codes), lengths)
            binned += self.codes
            histograms = np.bincount(binned, minlength=n_pieces * n_codes).reshape(
                n_pieces, n_codes
            )
        values = self.values
        distinct = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
        if len(distinct) < n_codes:
            histograms = np.add.reduceat(histograms, distinct, axis=1)
            values = values[distinct]
        # The occupied bins of every piece, row after row, so each summary
        # takes a slice instead of masking its own row.
        seen = histograms > 0
        counts = histograms[seen]
        seen_values = np.broadcast_to(values, histograms.shape)[seen]
        ends = np.cumsum(np.count_nonzero(seen, axis=1)).tolist()
        toggles = np.add.reduceat(self.toggles, offsets).tolist()
        weights = np.add.reduceat(self.coupling_weights, offsets).tolist()
        summaries = []
        start = 0
        for length, end, toggle_total, weight_total in zip(
            lengths.tolist(), ends, toggles, weights
        ):
            summaries.append(
                TraceSummary(
                    n_cycles=length,
                    toggles_total=toggle_total,
                    coupling_weights_total=weight_total,
                    worst_coupling_values=seen_values[start:end],
                    worst_coupling_counts=counts[start:end],
                )
            )
            start = end
        return summaries


@dataclass(frozen=True)
class TraceSummary:
    """Exact reductions of per-cycle trace statistics, O(1) in trace length.

    Toggle and coupling-weight totals are sums of small integers (exact in
    float64 far beyond any realistic trace length), and the per-cycle worst
    coupling factor only takes a handful of distinct values (the canonical
    Miller classes spread by the discrete secondary correction), so the
    summary preserves *everything* needed to evaluate error rates and
    energies at any constant supply -- with results independent of how the
    trace was chunked during accumulation.

    Attributes
    ----------
    n_cycles:
        Total transitions accumulated.
    toggles_total:
        Sum of per-cycle toggling-wire counts.
    coupling_weights_total:
        Sum of per-cycle coupling-energy weights.
    worst_coupling_values / worst_coupling_counts:
        The distinct per-cycle worst coupling factors (ascending) and how
        many cycles saw each.
    """

    n_cycles: int
    toggles_total: float
    coupling_weights_total: float
    worst_coupling_values: np.ndarray
    worst_coupling_counts: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.worst_coupling_values, dtype=float)
        counts = np.asarray(self.worst_coupling_counts, dtype=np.int64)
        if values.shape != counts.shape or values.ndim != 1:
            raise ValueError("worst-coupling values and counts must be matching 1-D arrays")
        if int(counts.sum()) != self.n_cycles:
            raise ValueError(
                f"worst-coupling counts sum to {int(counts.sum())}, expected {self.n_cycles}"
            )
        object.__setattr__(self, "worst_coupling_values", values)
        object.__setattr__(self, "worst_coupling_counts", counts)

    @classmethod
    def empty(cls) -> TraceSummary:
        """The summary of zero cycles."""
        return cls(0, 0.0, 0.0, np.empty(0), np.empty(0, dtype=np.int64))

    @property
    def mean_toggle_rate(self) -> float:
        """Average number of switching wires per cycle (diagnostic)."""
        if self.n_cycles == 0:
            return 0.0
        return self.toggles_total / self.n_cycles

    def error_count(self, coupling_threshold: float) -> int:
        """Cycles whose worst coupling factor exceeds ``coupling_threshold``."""
        mask = self.worst_coupling_values > coupling_threshold
        return int(self.worst_coupling_counts[mask].sum())


class TraceStatisticsAccumulator:
    """Ordered merge of :class:`TraceSummary` pieces into one summary.

    Every field is an exact integer (or small dyadic) total and the
    worst-coupling histogram is discrete, so the merged summary is
    bit-identical for any grouping of the pieces.
    """

    def __init__(self) -> None:
        self._n_cycles = 0
        self._toggles = 0.0
        self._weights = 0.0
        self._histogram: dict[float, int] = {}

    def merge_summary(self, summary: TraceSummary) -> TraceStatisticsAccumulator:
        """Fold one :class:`TraceSummary` into the reduction."""
        self._n_cycles += summary.n_cycles
        self._toggles += summary.toggles_total
        self._weights += summary.coupling_weights_total
        for value, count in zip(
            summary.worst_coupling_values.tolist(),
            summary.worst_coupling_counts.tolist(),
        ):
            self._histogram[value] = self._histogram.get(value, 0) + int(count)
        return self

    def summary(self) -> TraceSummary:
        """The reduction accumulated so far, as an immutable summary."""
        values = np.array(sorted(self._histogram), dtype=float)
        counts = np.array([self._histogram[v] for v in values.tolist()], dtype=np.int64)
        return TraceSummary(
            n_cycles=self._n_cycles,
            toggles_total=self._toggles,
            coupling_weights_total=self._weights,
            worst_coupling_values=values,
            worst_coupling_counts=counts,
        )


def merge_summaries(summaries: Sequence[TraceSummary]) -> TraceSummary:
    """Fold summaries, in order, into one (see :class:`TraceStatisticsAccumulator`)."""
    if not summaries:
        raise ValueError("cannot merge zero summaries")
    if len(summaries) == 1:
        # Most segments lie inside one chunk: skip rebuilding the summary.
        return summaries[0]
    accumulator = TraceStatisticsAccumulator()
    for summary in summaries:
        accumulator.merge_summary(summary)
    return accumulator.summary()


#: Anything the bus model can evaluate a workload from.
WorkloadLike = BusTrace | TraceSource | TraceStatistics


def _check_width(trace: BusTrace, topology: NeighborTopology) -> None:
    if trace.n_bits != topology.n_wires:
        raise ValueError(
            f"transition width {trace.n_bits} does not match topology "
            f"({topology.n_wires})"
        )


#: Chunk length of the statistics pass on the lane kernels.  They touch ~50
#: bytes per cycle and want chunks big enough to amortise per-call numpy
#: overhead; the scalar kernels allocate ~1.5 kB of float temporaries per
#: cycle and keep :data:`~repro.trace.stream.DEFAULT_CHUNK_CYCLES` so those
#: stay cache resident.  Results are bit-identical for any chunk length.
LANE_CHUNK_CYCLES = 262_144


def kernel_plan(n_bits: int) -> tuple[bool, int]:
    """``(lanes, chunk_cycles)`` of the statistics pass for an ``n_bits``-wide bus.

    The one place the kernel and the chunk length are chosen: the
    integer-lane kernels run exactly when
    :func:`~repro.interconnect.block_kernels.lanes_supported`, the per-wire
    reference (:func:`scalar_trace_statistics`) otherwise -- buses wider
    than 64 wires and big-endian hosts.  Every choice gives bit-identical
    results.
    """
    if lanes_supported(n_bits):
        return True, LANE_CHUNK_CYCLES
    return False, DEFAULT_CHUNK_CYCLES


def analyze_trace_statistics(trace: BusTrace, topology: NeighborTopology) -> TraceStatistics:
    """Per-cycle statistics of a trace over a wiring topology.

    The one analysis entry point: the statistics pass runs it on every chunk
    and reduces the result with :meth:`TraceStatistics.summaries`, and
    callers that need per-cycle arrays (an IPC error mask, the reference
    tests) read them from it.  Where :func:`kernel_plan` picks the lanes,
    the integer-lane block kernels run straight off the packed words and
    hand over their uint8 worst-coupling codes with the matching value
    table; elsewhere the per-wire reference runs and its factors are coded
    by their distinct values.  The decoded statistics are **bit-identical**
    either way.
    """
    _check_width(trace, topology)
    lanes, _ = kernel_plan(trace.n_bits)
    if not lanes:
        return scalar_trace_statistics(trace, topology)
    telemetry = get_telemetry()
    with telemetry.span("kernel.block_statistics", cycles=trace.n_cycles):
        stats = TraceStatistics(*block_statistics_codes(trace.packed_values, topology))
    telemetry.count("kernel.invocations.vectorized")
    return stats


def scalar_trace_statistics(trace: BusTrace, topology: NeighborTopology) -> TraceStatistics:
    """The per-wire reference kernels over a trace's 0/1 words.

    The executable model the lane kernels are held bit-identical to, and the
    kernels :func:`kernel_plan` picks where the lanes cannot run.  A packed
    trace is unpacked once here.
    """
    telemetry = get_telemetry()
    telemetry.count("kernel.invocations.scalar")
    with telemetry.span("kernel.scalar_statistics", cycles=trace.n_cycles):
        transitions = transitions_from_values(trace.values)
        return TraceStatistics.from_arrays(
            worst_coupling_factor_per_cycle(transitions, topology),
            toggle_counts(transitions),
            coupling_energy_weights(transitions, topology),
        )


class CharacterizedBus:
    """A bus design characterised at one PVT corner, ready for simulation.

    Parameters
    ----------
    design:
        The structural bus design.
    corner:
        PVT corner to characterise and simulate at.
    grid:
        Optional supply-voltage grid; defaults to 20 mV steps up to nominal.
    flipflop_energy:
        Energy parameters of the receiving double-sampling flip-flop bank.
    table:
        Optional pre-built delay/energy table for exactly this (design,
        corner, grid).  When omitted, the table is resolved through the
        active characterization database first (see :mod:`repro.chardb`) and
        falls back to live characterization — the two are bit-identical by
        construction, so callers never observe which path ran.
    """

    def __init__(
        self,
        design: BusDesign,
        corner: PVTCorner,
        grid: VoltageGrid | None = None,
        flipflop_energy: FlipFlopEnergyParams | None = None,
        table: DelayEnergyTable | None = None,
    ) -> None:
        self.design = design
        self.corner = corner
        self.grid = grid if grid is not None else default_voltage_grid(design)
        if table is not None:
            if table.grid != self.grid:
                raise ValueError(
                    f"supplied table is sampled on {table.grid}, not the bus grid {self.grid}"
                )
            self.table: DelayEnergyTable = table
        else:
            self.table = self._resolve_table(corner)
        self.flipflop_energy = (
            flipflop_energy if flipflop_energy is not None else FlipFlopEnergyParams()
        )
        #: Tables at other corners: corner -> (the chardb active when it
        #: was resolved, table).
        self._other_tables: dict[PVTCorner, tuple[object, DelayEnergyTable]] = {}

    def _resolve_table(self, corner: PVTCorner) -> DelayEnergyTable:
        """Surfaces for this design at ``corner``: active chardb first, else live."""
        from repro.chardb.active import resolve_table

        return resolve_table(self.design, corner, self.grid)

    def _other_table(self, corner: PVTCorner) -> DelayEnergyTable:
        """:meth:`_resolve_table`, resolved once per corner and active chardb.

        Every closed-loop system built on this bus asks for the same floor
        corner; the table only changes when another database is activated.
        """
        from repro.chardb.active import get_active_chardb

        database = get_active_chardb()
        cached = self._other_tables.get(corner)
        if cached is None or cached[0] is not database:
            cached = (database, self._resolve_table(corner))
            self._other_tables[corner] = cached
        return cached[1]

    @classmethod
    def from_database(
        cls,
        database: CharacterizationDatabase,
        corner: PVTCorner,
        n_bits: int = 32,
        coupling_scale: float = 1.0,
        flipflop_energy: FlipFlopEnergyParams | None = None,
    ) -> CharacterizedBus:
        """A ready-to-simulate bus assembled purely from stored surfaces.

        Both the design (including its already-sized repeater chain) and the
        delay/energy table come out of the database — the circuit models and
        the repeater sizing flow are never invoked.  The equivalence suite
        (``tests/chardb``) holds the result bit-identical to live
        characterization.
        """
        return database.bus(
            corner, n_bits=n_bits, coupling_scale=coupling_scale, flipflop_energy=flipflop_energy
        )

    # ------------------------------------------------------------------ #
    # Trace analysis
    # ------------------------------------------------------------------ #
    def summarize(self, workload: WorkloadLike, jobs: int | None = None) -> TraceSummary:
        """Reduce a workload to one :class:`TraceSummary` in O(chunk) memory.

        This is the statistics pass with the whole run as one segment;
        ``jobs > 1`` fans its kernel work out to worker processes, with
        bit-identical results.
        """
        if isinstance(workload, TraceStatistics):
            return workload.summarize()
        if workload.n_cycles == 0:
            return TraceSummary.empty()
        from repro.runtime.parallel import ChunkSegmenter, statistics_pass

        (summary,) = statistics_pass(
            workload,
            ChunkSegmenter(n_cycles=workload.n_cycles),
            self.design.topology,
            jobs=jobs,
        )
        return summary

    # ------------------------------------------------------------------ #
    # Timing queries
    # ------------------------------------------------------------------ #
    def error_mask(self, stats: TraceStatistics, vdd: VoltageLike) -> np.ndarray:
        """Boolean mask of cycles whose worst wire misses the main deadline.

        ``vdd`` is a per-cycle array (the supply trajectory of a closed-loop
        run, as in IPC studies) or a scalar.  Voltages must lie on the
        characterisation grid.
        """
        thresholds = self.table.failing_coupling_factors(self.design.clocking.main_deadline)
        return stats.worst_coupling > thresholds[self.grid.indices_of(np.asarray(vdd))]

    def error_count(self, summary: TraceSummary, vdd: float) -> int:
        """Cycles of a summarised workload with a corrected timing error at ``vdd``."""
        thresholds = self.table.failing_coupling_factors(self.design.clocking.main_deadline)
        return summary.error_count(thresholds[self.grid.index_of(float(vdd))])

    def error_rate(self, summary: TraceSummary, vdd: float) -> float:
        """Fraction of cycles with a corrected timing error at a constant supply."""
        if summary.n_cycles == 0:
            return 0.0
        return self.error_count(summary, vdd) / summary.n_cycles

    def zero_error_voltage(self, deadline: float | None = None) -> float:
        """Lowest grid voltage at which the worst-case pattern meets the deadline.

        This is the voltage a conventional (error-intolerant) scheme could
        scale to at this corner; with the default deadline it defines the
        "0 % error rate" operating points of Fig. 5.
        """
        if deadline is None:
            deadline = self.design.clocking.main_deadline
        return self.table.min_voltage_meeting(
            deadline, self.design.topology.max_coupling_factor
        )

    def minimum_safe_voltage(self, assumed_corner: PVTCorner | None = None) -> float:
        """Regulator floor: lowest voltage that still meets the shadow-latch deadline.

        The paper sets this floor using only the (time-invariant) process
        corner while conservatively assuming worst-case temperature and IR
        drop; pass ``assumed_corner`` to reproduce that policy, otherwise the
        characterised corner itself is used.  A different assumed corner is
        resolved like the main table: active chardb first, live fallback.
        """
        if assumed_corner is None or assumed_corner == self.corner:
            table = self.table
        else:
            table = self._other_table(assumed_corner)
        return table.min_voltage_meeting(
            self.design.clocking.shadow_deadline, self.design.topology.max_coupling_factor
        )

    # ------------------------------------------------------------------ #
    # Energy queries
    # ------------------------------------------------------------------ #
    def energy_from_voltage_totals(
        self,
        cycle_counts: np.ndarray,
        toggle_totals: np.ndarray,
        weight_totals: np.ndarray,
        n_errors: int,
    ) -> EnergyBreakdown:
        """Assemble an energy breakdown from per-grid-voltage totals.

        This is the streaming pipeline's energy reduction: ``cycle_counts``,
        ``toggle_totals`` and ``weight_totals`` hold, per grid-voltage index,
        the cycles spent at that supply and the toggles / coupling weights
        switched there.  Because the inputs are exact integer totals and the
        final contraction runs in fixed grid order, the result is independent
        of how the run was chunked.
        """
        voltages = self.grid.voltages
        cycle_time = self.design.clocking.cycle_time
        self_term = 0.5 * self.table.self_capacitance_per_wire * np.asarray(toggle_totals)
        coupling_term = (
            0.5 * self.table.coupling_capacitance_per_pair * np.asarray(weight_totals)
        )
        dynamic = float(np.sum((self_term + coupling_term) * voltages * voltages))
        leakage = float(np.sum(self.table.leakage_power * np.asarray(cycle_counts))) * cycle_time
        n_cycles = int(np.sum(cycle_counts))
        ff_params = self.flipflop_energy
        clocking = ff_params.bank_clock_energy(self.design.n_bits) * n_cycles
        recovery = float(ff_params.recovery_energy(self.design.n_bits, n_errors))
        return EnergyBreakdown(
            bus_dynamic=dynamic,
            leakage=leakage,
            flipflop_clocking=clocking,
            recovery_overhead=recovery,
        )

    def energy_at_constant_supply(
        self,
        vdd: float,
        n_cycles: int,
        toggles_total: float,
        weights_total: float,
        n_errors: int = 0,
    ) -> EnergyBreakdown:
        """Energy of aggregate totals spent entirely at one grid supply.

        The scalar companion to :meth:`energy_from_voltage_totals`; it is also
        how the streaming paths build their nominal-supply references (all
        cycles scattered into the nominal grid index).
        """
        index = self.grid.index_of(float(vdd))
        counts = np.zeros(len(self.grid))
        toggles = np.zeros(len(self.grid))
        weights = np.zeros(len(self.grid))
        counts[index] = n_cycles
        toggles[index] = toggles_total
        weights[index] = weights_total
        return self.energy_from_voltage_totals(counts, toggles, weights, n_errors)

    def energy_breakdown(
        self, summary: TraceSummary, vdd: float, n_errors: int | None = None
    ) -> EnergyBreakdown:
        """Energy of a summarised workload at the constant supply ``vdd``.

        ``n_errors`` recoveries are charged; when it is not given it is the
        workload's error count at the same supply.
        """
        if n_errors is None:
            n_errors = self.error_count(summary, vdd)
        return self.energy_at_constant_supply(
            vdd, summary.n_cycles, summary.toggles_total, summary.coupling_weights_total, n_errors
        )

    def nominal_energy(self, summary: TraceSummary) -> EnergyBreakdown:
        """Energy of the workload at the nominal supply with no errors.

        This is the reference against which all energy gains are reported.
        """
        return self.energy_breakdown(summary, self.design.nominal_vdd, n_errors=0)
