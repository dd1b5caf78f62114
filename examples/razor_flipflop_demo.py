"""Double-sampling flip-flop demo: watch an error being detected and corrected.

This example drives the behavioural double-sampling flip-flop bank directly
with per-bit arrival times computed from the characterised bus, showing how a
late transition is caught by the shadow latch, flagged on ``Error_L``, and
recovered in the next cycle -- without retransmitting anything on the bus.

Run with:  python -m examples.razor_flipflop_demo
"""

from __future__ import annotations

import numpy as np

from repro import BusDesign, CharacterizedBus, TYPICAL_CORNER
from repro.core import FlipFlopBank
from repro.interconnect import effective_coupling_factors, transitions_from_values
from repro.trace import generate_benchmark_trace


def main() -> None:
    design = BusDesign.paper_bus()
    bus = CharacterizedBus(design, TYPICAL_CORNER)
    clocking = design.clocking
    print(
        f"Main flip-flop deadline: {clocking.main_deadline * 1e12:.0f} ps, "
        f"shadow-latch deadline: {clocking.shadow_deadline * 1e12:.0f} ps"
    )

    # An aggressively scaled supply: below the error-free point but above the
    # shadow-latch floor, so every error is correctable.
    supply = bus.grid.snap(bus.minimum_safe_voltage() + 0.04)
    print(f"Operating the bus at {supply * 1000:.0f} mV (error-free would need "
          f"{bus.zero_error_voltage() * 1000:.0f} mV)\n")

    trace = generate_benchmark_trace("vortex", n_cycles=2_000, seed=3)
    values = trace.values  # unpacked once; `trace.values` unpacks on every access
    transitions = transitions_from_values(values)
    factors = effective_coupling_factors(transitions, design.topology)

    bank = FlipFlopBank(design.n_bits, clocking)
    bank.reset(values[0])

    shown = 0
    for cycle in range(trace.n_cycles):
        arrivals = bus.table.delays(supply, factors[cycle])
        arrivals = np.where(transitions[cycle] == 0, 0.0, arrivals)
        result = bank.capture_word(values[cycle + 1], arrivals)
        if result.error and shown < 5:
            late_bits = np.nonzero(result.bit_errors)[0]
            worst_arrival = arrivals.max() * 1e12
            print(
                f"cycle {cycle:5d}: Error_L asserted on bit(s) {late_bits.tolist()} "
                f"(worst arrival {worst_arrival:.0f} ps > "
                f"{clocking.main_deadline * 1e12:.0f} ps deadline); "
                "shadow latch supplied the correct word, 1-cycle penalty charged"
            )
            shown += 1

    print(
        f"\n{bank.error_count} of {bank.cycle_count} cycles needed recovery "
        f"({bank.observed_error_rate() * 100:.2f} % error rate); "
        "every recovered word matched the transmitted data."
    )


if __name__ == "__main__":
    main()
