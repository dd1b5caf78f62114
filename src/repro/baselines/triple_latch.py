"""Triple-latch monitor: periodic worst-case latency-vector testing.

Reference [12] of the paper (Kehl's hardware self-tuning) periodically tests
the actual circuit with worst-case latency vectors captured by three latches
clocked slightly apart: if even the "early" latch captures the right value
there is margin to lower the supply, if only the "late" latch does the supply
must rise.  Applied to a bus the scheme:

* observes the real path, so it tracks process, temperature *and* whatever IR
  drop the test vector itself produces,
* cannot exploit typical data -- the test vector is the worst-case pattern by
  construction,
* cannot see the data-dependent IR drop of the *actual traffic* (the paper's
  specific criticism), so a guard band must remain, and
* pays for propagating the worst-case vectors through the heavily loaded bus
  at every test interval.

The model here reflects exactly those four properties: the selected voltage
is the zero-error voltage of the true corner plus a guard band, and the test
energy (worst-case switching of the whole bus for ``vectors_per_test``
cycles, every ``test_interval_cycles``) is charged to the scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.scheme import (
    SchemeResult,
    evaluate_static_scheme,
    worst_case_cycle_energy,
)
from repro.bus.bus_model import CharacterizedBus, TraceSummary
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class TripleLatchMonitor:
    """Periodic worst-case-vector self-tuning (always error-free).

    Parameters
    ----------
    test_interval_cycles:
        How often the monitor interrupts normal traffic to run a test
        (10 000 cycles by default, matching the paper's control-window
        granularity so the comparison is like-for-like).
    vectors_per_test:
        Worst-case latency vectors propagated per test.  Each vector costs a
        full worst-case switching cycle of the bus.
    guard_steps:
        Grid steps kept above the measured failure point to cover the
        traffic-dependent IR drop the test vector cannot reproduce.
    """

    test_interval_cycles: int = 10_000
    vectors_per_test: int = 32
    guard_steps: int = 1

    def __post_init__(self) -> None:
        check_positive("test_interval_cycles", self.test_interval_cycles)
        check_positive("vectors_per_test", self.vectors_per_test)
        if self.guard_steps < 0:
            raise ValueError(f"guard_steps must be >= 0, got {self.guard_steps}")

    @property
    def name(self) -> str:
        """Scheme name used in comparison reports."""
        return "triple-latch monitor"

    def select_voltage(self, bus: CharacterizedBus) -> float:
        """Lowest grid supply the monitor settles at for the bus's true corner."""
        minimum = bus.zero_error_voltage()
        guarded = minimum + self.guard_steps * bus.grid.step
        return bus.grid.clamp(guarded)

    def test_overhead_energy(self, bus: CharacterizedBus, n_cycles: int, vdd: float) -> float:
        """Energy spent on test vectors over ``n_cycles`` of program execution."""
        if n_cycles <= 0:
            return 0.0
        n_tests = n_cycles // self.test_interval_cycles
        per_vector = worst_case_cycle_energy(bus, vdd)
        return n_tests * self.vectors_per_test * per_vector

    def evaluate(self, bus: CharacterizedBus, summary: TraceSummary) -> SchemeResult:
        """Run the workload at the monitor-selected supply, charging test energy."""
        voltage = self.select_voltage(bus)
        overhead = self.test_overhead_energy(bus, summary.n_cycles, voltage)
        return evaluate_static_scheme(
            bus,
            summary,
            voltage,
            scheme=self.name,
            overhead_energy=overhead,
            notes=(
                f"tests the real path every {self.test_interval_cycles} cycles with "
                f"{self.vectors_per_test} worst-case vectors, +{self.guard_steps} step guard band"
            ),
        )
