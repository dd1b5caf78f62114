"""Quickstart: build the paper's bus, run the closed-loop DVS system once.

This example reproduces, in a few lines, the core claim of the paper: an
error-correcting (double-sampling) receiver lets the bus supply scale far
below the worst-case-safe voltage at a typical PVT corner, cutting bus energy
by roughly a third while correcting a ~1-2 % trickle of timing errors.

Run with:  python -m examples.quickstart
"""

from __future__ import annotations

from repro import (
    BusDesign,
    CharacterizedBus,
    DVSBusSystem,
    TYPICAL_CORNER,
    WORST_CASE_CORNER,
    evaluate_fixed_scaling,
)
from repro.trace import generate_benchmark_trace


def main() -> None:
    # 1. Build the paper's bus: 6 mm, 32 bits, shields every 4 wires, repeaters
    #    sized for a 600 ps worst-case delay at the worst-case PVT corner.
    design = BusDesign.paper_bus()
    print(f"Repeater size chosen by the design flow: {design.repeaters.size:.1f}x minimum")

    # 2. Characterise it at the corner we will actually operate at.
    bus = CharacterizedBus(design, TYPICAL_CORNER)
    print(f"Operating corner: {bus.corner.label}")
    print(f"Error-free supply at this corner: {bus.zero_error_voltage() * 1000:.0f} mV")
    print(f"Shadow-latch safety floor:        {bus.minimum_safe_voltage() * 1000:.0f} mV")

    # 3. Generate a synthetic memory-read trace (the crafty profile) and run
    #    both the conventional baseline and the proposed closed-loop DVS.
    trace = generate_benchmark_trace("crafty", n_cycles=300_000, seed=1)

    fixed = evaluate_fixed_scaling(bus, trace)
    print(
        f"\nFixed voltage scaling (conventional): {fixed.voltage * 1000:.0f} mV, "
        f"energy gain {fixed.energy_gain_percent:.1f} %"
    )

    system = DVSBusSystem(bus)
    result = system.run(trace, warmup_cycles=150_000)
    print(
        f"Proposed DVS bus: min supply {result.minimum_voltage_reached * 1000:.0f} mV, "
        f"energy gain {result.energy_gain_percent:.1f} %, "
        f"average error rate {result.average_error_rate * 100:.2f} % "
        f"({result.total_errors} corrected errors, {result.failures} failures)"
    )

    # 4. The same system at the worst-case corner: a conventional scheme gains
    #    nothing, while the error-tolerant bus still recovers some slack from
    #    the program's benign switching patterns.
    worst_bus = CharacterizedBus(design, WORST_CASE_CORNER)
    worst_fixed = evaluate_fixed_scaling(worst_bus, trace)
    worst_result = DVSBusSystem(worst_bus).run(trace, warmup_cycles=150_000)
    print(
        f"\nWorst-case corner ({worst_bus.corner.label}):\n"
        f"  fixed VS gain {worst_fixed.energy_gain_percent:.1f} %  vs  "
        f"proposed DVS gain {worst_result.energy_gain_percent:.1f} % "
        f"(error rate {worst_result.average_error_rate * 100:.2f} %)"
    )


if __name__ == "__main__":
    main()
