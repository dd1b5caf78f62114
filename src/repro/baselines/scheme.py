"""Shared result container and helpers for supply-scaling schemes.

Every baseline in this package ultimately picks a *static* supply voltage for
the operating corner it can observe (possibly with a guard band) and may pay
some measurement overhead.  :func:`evaluate_static_scheme` evaluates such a
choice on a workload with exactly the same energy accounting as the rest of
the library, so baselines and the proposed DVS system are directly
comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.bus.bus_model import CharacterizedBus, TraceSummary
from repro.energy.accounting import EnergyBreakdown
from repro.energy.gains import breakdown_gain_percent
from repro.trace.trace import BusTrace


@dataclass(frozen=True)
class SchemeResult:
    """Outcome of one supply-scaling scheme on one workload at one corner.

    Attributes
    ----------
    scheme:
        Human-readable scheme name.
    voltage:
        The static supply the scheme selected (for adaptive schemes this is
        the minimum voltage reached; see the scheme's own result object for
        the full trajectory).
    energy:
        Energy of the workload under the scheme, including any measurement
        overhead the scheme pays (test vectors, replica circuits).
    reference_energy:
        Energy of the same workload at the nominal supply with no errors.
    error_rate:
        Fraction of cycles with corrected timing errors (zero for
        error-intolerant schemes unless their margin was insufficient).
    overhead_energy:
        The measurement overhead included in ``energy`` (joules), reported
        separately so its share is visible.
    notes:
        Short description of the margins/assumptions behind the choice.
    """

    scheme: str
    voltage: float
    energy: EnergyBreakdown
    reference_energy: EnergyBreakdown
    error_rate: float
    overhead_energy: float = 0.0
    notes: str = ""

    @property
    def energy_gain_percent(self) -> float:
        """Energy gain versus the nominal supply, in percent."""
        return breakdown_gain_percent(self.reference_energy, self.energy)

    @property
    def is_error_free(self) -> bool:
        """Whether the scheme met its error-free guarantee on this workload."""
        return self.error_rate == 0.0

    def as_dict(self) -> dict:
        """Stable JSON-able view of one scheme's row."""
        return {
            "scheme": self.scheme,
            "voltage_mv": round(self.voltage * 1000.0, 1),
            "energy_gain_percent": round(self.energy_gain_percent, 2),
            "error_rate_percent": round(self.error_rate * 100.0, 3),
            "overhead_energy_percent_of_total": round(
                100.0 * self.overhead_energy / self.energy.total_with_recovery, 3
            )
            if self.energy.total_with_recovery
            else 0.0,
            "notes": self.notes,
        }


def worst_case_cycle_energy(bus: CharacterizedBus, vdd: float) -> float:
    """Dynamic energy of one worst-case switching cycle on the whole bus.

    The worst case has every signal wire toggling with its neighbours moving
    in the opposite direction, which is exactly the pattern a latency test
    vector must exercise.  The energy is obtained by summarising a two-word
    alternating checkerboard trace on the bus and pricing it with the bus's
    own energy table rather than re-deriving coefficients here.
    """
    n_bits = bus.design.n_bits
    checkerboard = np.zeros((2, n_bits), dtype=np.uint8)
    checkerboard[0, 0::2] = 1
    checkerboard[1, 1::2] = 1
    summary = bus.summarize(BusTrace(values=checkerboard))
    return bus.table.dynamic_energy(vdd, summary.toggles_total, summary.coupling_weights_total)


def evaluate_static_scheme(
    bus: CharacterizedBus,
    summary: TraceSummary,
    voltage: float,
    scheme: str,
    overhead_energy: float = 0.0,
    notes: str = "",
) -> SchemeResult:
    """Evaluate a scheme that runs the whole workload at one supply voltage.

    ``overhead_energy`` is added to the bus dynamic energy (it is energy the
    scheme spends on the bus wires or their replicas to make its decision).
    """
    if overhead_energy < 0.0:
        raise ValueError(f"overhead_energy must be >= 0, got {overhead_energy}")
    voltage = bus.grid.snap(voltage)
    error_rate = bus.error_rate(summary, voltage)
    energy = bus.energy_breakdown(summary, voltage)
    if overhead_energy:
        energy = replace(energy, bus_dynamic=energy.bus_dynamic + overhead_energy)
    return SchemeResult(
        scheme=scheme,
        voltage=voltage,
        energy=energy,
        reference_energy=bus.nominal_energy(summary),
        error_rate=error_rate,
        overhead_energy=overhead_energy,
        notes=notes,
    )
