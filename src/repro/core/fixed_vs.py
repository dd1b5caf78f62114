"""The fixed voltage-scaling (fixed VS) baseline of Table 1.

The baseline represents conventional adaptive-supply schemes (correlating
VCOs, delay-line speed detectors, triple-latch monitors): they can observe the
*global process corner* but, because they cannot tolerate timing errors, they
must keep enough margin for worst-case temperature, worst-case IR drop and the
worst-case switching pattern at all times.  The fixed VS voltage is therefore
the lowest supply at which the worst-case pattern still meets the main
flip-flop deadline assuming 100 C and a 10 % supply droop for the known
process corner -- regardless of the conditions that actually prevail.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bus.bus_model import CharacterizedBus, TraceStatistics, TraceSummary
from repro.circuit.lookup_table import VoltageGrid
from repro.circuit.pvt import ProcessCorner, PVTCorner
from repro.energy.accounting import EnergyBreakdown
from repro.energy.gains import breakdown_gain_percent
from repro.trace.stream import TraceSource
from repro.trace.trace import BusTrace

#: Margins a conventional scheme must keep: worst-case temperature and IR drop.
ASSUMED_WORST_TEMPERATURE_C = 100.0
ASSUMED_WORST_IR_DROP = 0.10


@dataclass(frozen=True)
class FixedScalingResult:
    """Outcome of the fixed VS baseline on one workload at one corner."""

    voltage: float
    energy: EnergyBreakdown
    reference_energy: EnergyBreakdown
    error_rate: float

    @property
    def energy_gain_percent(self) -> float:
        """Energy gain versus running at the nominal supply, in percent."""
        return breakdown_gain_percent(self.reference_energy, self.energy)


def fixed_scaling_voltage(
    bus: CharacterizedBus,
    process_corner: ProcessCorner | None = None,
    grid: VoltageGrid | None = None,
) -> float:
    """The supply a conventional error-intolerant scheme would choose.

    Parameters
    ----------
    bus:
        The characterised bus (its design and grid are reused).
    process_corner:
        The global process corner the scheme has identified; defaults to the
        corner the bus is actually operating at.
    grid:
        Optional override of the voltage grid.
    """
    if process_corner is None:
        process_corner = bus.corner.process
    assumed_corner = PVTCorner(
        process_corner, ASSUMED_WORST_TEMPERATURE_C, ASSUMED_WORST_IR_DROP
    )
    # Db-first like every other surface lookup: the assumed-margin corner is
    # part of the standard database grid, so --chardb runs never re-enter the
    # circuit models here either.  (Imported lazily: repro.chardb pulls in
    # repro.runtime, which circles back into the analysis layer.)
    from repro.chardb.active import resolve_table

    table = resolve_table(bus.design, assumed_corner, grid if grid is not None else bus.grid)
    return table.min_voltage_meeting(
        bus.design.clocking.main_deadline, bus.design.topology.max_coupling_factor
    )


def evaluate_fixed_scaling(
    bus: CharacterizedBus,
    stats: TraceStatistics | TraceSummary | BusTrace | TraceSource,
    process_corner: ProcessCorner | None = None,
    jobs: int | None = None,
) -> FixedScalingResult:
    """Run the fixed VS baseline on a workload and report its energy gain.

    The workload is evaluated at the *actual* corner of ``bus`` while the
    voltage choice only uses the assumed margins, exactly like the baseline
    column of Table 1.  The resulting error rate is reported as a sanity
    check: it must be zero whenever the actual corner is no worse than the
    assumed margins.

    The baseline runs at one constant voltage, so reduced
    :class:`TraceSummary` statistics are fully sufficient; traces and
    :class:`~repro.trace.stream.TraceSource` workloads are reduced on the
    fly in O(chunk) memory, which is what makes the 10 M-cycle Table 1
    baseline column feasible.  With ``jobs > 1`` that reduction fans out
    over worker processes -- the exact merge makes the result bit-identical
    either way.
    """
    summary = stats if isinstance(stats, TraceSummary) else bus.summarize(stats, jobs=jobs)
    voltage = fixed_scaling_voltage(bus, process_corner)
    error_rate = bus.error_rate(summary, voltage)
    energy = bus.energy_breakdown(summary, voltage)
    reference = bus.nominal_energy(summary)
    return FixedScalingResult(
        voltage=voltage,
        energy=energy,
        reference_energy=reference,
        error_rate=error_rate,
    )
