"""Oracle voltage-residency study (paper Fig. 6).

Fig. 6 shows, for three programs (crafty, vortex, mgrid) at the typical
corner, the percentage of execution time the bus would spend at each supply
voltage if an oracle chose the optimal voltage per 10 000-cycle window while
keeping the window error rate at or below a target (2 % and 5 %).  The study
illustrates that the exploitable slack differs widely between programs --
which is exactly what the closed-loop controller later harvests.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from repro.bus.bus_design import BusDesign
from repro.bus.bus_model import CharacterizedBus, analyze_trace_statistics
from repro.circuit.pvt import TYPICAL_CORNER, PVTCorner
from repro.core.error_detection import DEFAULT_WINDOW_CYCLES
from repro.core.oracle import OracleSchedule, oracle_voltage_schedule
from repro.trace.trace import BusTrace

#: The three programs the paper plots in Fig. 6.
FIG6_BENCHMARKS: tuple[str, ...] = ("crafty", "vortex", "mgrid")

#: The two error-rate targets of Fig. 6.
FIG6_TARGETS: tuple[float, ...] = (0.02, 0.05)


@dataclass(frozen=True)
class ResidencyEntry:
    """Oracle result for one (benchmark, target error rate) pair."""

    benchmark: str
    target_error_rate: float
    residency: dict[float, float]
    schedule: OracleSchedule

    @property
    def dominant_voltage(self) -> float:
        """Voltage at which the program spends the largest share of its time."""
        return max(self.residency, key=self.residency.get)

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view for reporting: residency keyed by millivolts."""
        return {
            "benchmark": self.benchmark,
            "target_error_rate_percent": self.target_error_rate * 100.0,
            "energy_gain_percent": round(self.schedule.energy_gain_percent, 2),
            "average_error_rate_percent": round(self.schedule.average_error_rate * 100.0, 3),
            "residency_percent": {
                f"{voltage * 1000:.0f}mV": round(share * 100.0, 1)
                for voltage, share in sorted(self.residency.items())
            },
        }


@dataclass(frozen=True)
class OracleResidencyStudy:
    """Fig. 6: per-benchmark, per-target oracle voltage residencies."""

    corner: PVTCorner
    window_cycles: int
    entries: tuple[ResidencyEntry, ...]

    def entry(self, benchmark: str, target: float) -> ResidencyEntry:
        """Look up the entry of one (benchmark, target) pair."""
        for candidate in self.entries:
            if candidate.benchmark == benchmark and abs(
                candidate.target_error_rate - target
            ) < 1e-12:
                return candidate
        raise KeyError(f"no entry for benchmark={benchmark!r}, target={target}")

    def dominant_voltages(self, target: float) -> dict[str, float]:
        """Dominant residency voltage per benchmark at one target rate."""
        return {
            entry.benchmark: entry.dominant_voltage
            for entry in self.entries
            if abs(entry.target_error_rate - target) < 1e-12
        }

    def as_dict(self) -> dict[str, object]:
        """Stable JSON-able view: one residency entry per (benchmark, target)."""
        return {
            "corner": self.corner.label,
            "window_cycles": int(self.window_cycles),
            "entries": [entry.as_dict() for entry in self.entries],
        }


def run_oracle_residency(
    design: BusDesign,
    workloads: Mapping[str, BusTrace],
    benchmarks: Sequence[str] = FIG6_BENCHMARKS,
    targets: Sequence[float] = FIG6_TARGETS,
    corner: PVTCorner = TYPICAL_CORNER,
    window_cycles: int = DEFAULT_WINDOW_CYCLES,
    bus: CharacterizedBus | None = None,
) -> OracleResidencyStudy:
    """Reproduce Fig. 6: oracle voltage residency per program and error target.

    Parameters
    ----------
    design:
        The bus design (original paper bus by default).
    workloads:
        Benchmark traces keyed by name; must contain every requested benchmark.
    benchmarks:
        Benchmarks to include (the paper plots crafty, vortex and mgrid).
    targets:
        Window error-rate targets (the paper plots 2 % and 5 %).
    corner:
        PVT corner (the paper uses typical process, 100 C, no IR drop).
    window_cycles:
        Oracle scheduling window (10 000 cycles in the paper).
    bus:
        Optional pre-characterised bus to reuse.
    """
    if bus is None:
        bus = CharacterizedBus(design, corner)
    entries = []
    for name in benchmarks:
        if name not in workloads:
            raise KeyError(f"workloads is missing a trace for benchmark {name!r}")
        # One kernel pass per program; every target reduces the same statistics.
        stats = analyze_trace_statistics(workloads[name], bus.design.topology)
        for target in targets:
            schedule = oracle_voltage_schedule(
                bus, stats, target_error_rate=target, window_cycles=window_cycles
            )
            entries.append(
                ResidencyEntry(
                    benchmark=name,
                    target_error_rate=target,
                    residency=schedule.voltage_residency(),
                    schedule=schedule,
                )
            )
    return OracleResidencyStudy(
        corner=corner, window_cycles=window_cycles, entries=tuple(entries)
    )
