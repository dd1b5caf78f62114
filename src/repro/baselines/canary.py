"""Replica-path ("canary") voltage scaling: correlating VCO / delay-line schemes.

References [9-11] of the paper tune the supply against a circuit that mimics
the critical path.  For a bus the replica cannot be the bus itself (the paper
notes duplicating a bus is prohibitively expensive), so it is a delay line
calibrated to the bus's worst-case delay at design time.  The replica sits on
the same die, so it *does* track:

* the global process corner, and
* the operating temperature.

It does *not* see:

* the data-dependent IR drop at the bus repeaters (the replica draws its own,
  much smaller current), and
* the neighbour switching pattern of the actual data (the replica has fixed
  neighbours).

The controller therefore picks the lowest supply at which the replica --
i.e. the bus at the observable part of the corner, with worst-case IR drop
and worst-case coupling assumed -- still meets the main flip-flop deadline,
and adds a small guard band for replica-to-bus mismatch.  Correct operation
is guaranteed by construction; the cost is that none of the data-dependent
slack is ever recovered.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.scheme import SchemeResult, evaluate_static_scheme
from repro.bus.bus_model import CharacterizedBus, TraceSummary
from repro.circuit.pvt import PVTCorner
from repro.core.fixed_vs import ASSUMED_WORST_IR_DROP


@dataclass(frozen=True)
class CanaryVoltageScaling:
    """Closed-loop replica-path supply scaling (always error-free).

    Parameters
    ----------
    guard_steps:
        Number of 20 mV grid steps added above the replica-derived minimum to
        cover replica-to-bus mismatch (process gradients across the die,
        replica calibration error).  One step is a typical allowance.
    assumed_ir_drop:
        IR-drop margin the scheme must keep because the replica cannot
        observe the bus repeaters' supply droop; the paper's worst case is
        10 %.
    """

    guard_steps: int = 1
    assumed_ir_drop: float = ASSUMED_WORST_IR_DROP

    def __post_init__(self) -> None:
        if self.guard_steps < 0:
            raise ValueError(f"guard_steps must be >= 0, got {self.guard_steps}")
        if not 0.0 <= self.assumed_ir_drop < 1.0:
            raise ValueError(f"assumed_ir_drop must be in [0, 1), got {self.assumed_ir_drop}")

    @property
    def name(self) -> str:
        """Scheme name used in comparison reports."""
        return "canary delay-line"

    def observable_corner(self, actual: PVTCorner) -> PVTCorner:
        """The part of the operating corner the replica can observe.

        Process and temperature are tracked; the IR drop is replaced by the
        scheme's worst-case assumption.
        """
        return PVTCorner(actual.process, actual.temperature_c, self.assumed_ir_drop)

    def select_voltage(self, bus: CharacterizedBus) -> float:
        """Lowest grid supply the replica-based controller would settle at."""
        observable = self.observable_corner(bus.corner)
        # Db-first, live fallback (lazy import: repro.chardb -> repro.runtime
        # -> analysis would otherwise circle back into the baselines).
        from repro.chardb.active import resolve_table

        table = resolve_table(bus.design, observable, bus.grid)
        minimum = table.min_voltage_meeting(
            bus.design.clocking.main_deadline, bus.design.topology.max_coupling_factor
        )
        guarded = minimum + self.guard_steps * bus.grid.step
        return bus.grid.clamp(guarded)

    def evaluate(self, bus: CharacterizedBus, summary: TraceSummary) -> SchemeResult:
        """Run the workload at the replica-selected supply and report the gain.

        The replica delay line's own power (a handful of inverters against a
        heavily repeated 6 mm bus) is negligible and not charged.
        """
        voltage = self.select_voltage(bus)
        return evaluate_static_scheme(
            bus,
            summary,
            voltage,
            scheme=self.name,
            notes=(
                f"tracks process+temperature, assumes {self.assumed_ir_drop * 100:.0f}% IR drop "
                f"and worst-case coupling, +{self.guard_steps} step guard band"
            ),
        )
