#!/usr/bin/env python3
"""Example: how sensitive is the closed loop to its control parameters?

The paper fixes the control parameters by argument: a 10 000-cycle error
window, a 1 %-2 % target band, 20 mV steps after a 3 000-cycle regulator
ramp, and the maximum (33 %) shadow-latch delay the hold constraint allows.
This example sweeps each of those choices on one workload at the typical
corner and prints the resulting energy gain, error rate and minimum supply,
so the robustness claims behind the paper's "a simple system works well"
argument can be checked directly.

Run with::

    python -m examples.controller_tuning
"""

from __future__ import annotations

from repro.analysis.sensitivity import (
    format_sensitivity_study,
    run_error_band_sensitivity,
    run_ramp_delay_sensitivity,
    run_shadow_delay_sensitivity,
    run_window_length_sensitivity,
)
from repro.bus import BusDesign, CharacterizedBus
from repro.bus.bus_model import analyze_trace_statistics
from repro.circuit.pvt import TYPICAL_CORNER
from repro.trace import generate_benchmark_trace

#: Long enough that even the largest swept window (5 000 cycles) finishes its
#: initial descent from the nominal supply inside the warm-up half of the run.
N_CYCLES = 150_000
SEED = 17


def main() -> None:
    design = BusDesign.paper_bus()
    bus = CharacterizedBus(design, TYPICAL_CORNER)
    trace = generate_benchmark_trace("vortex", n_cycles=N_CYCLES, seed=SEED)
    stats = analyze_trace_statistics(trace, design.topology)

    studies = [
        run_window_length_sensitivity(bus, stats, window_lengths=(500, 1_000, 2_000, 5_000)),
        run_ramp_delay_sensitivity(bus, stats, ramp_delays=(150, 300, 600, 1_200)),
        run_error_band_sensitivity(bus, stats),
        run_shadow_delay_sensitivity(design, trace, corner=TYPICAL_CORNER),
    ]
    for study in studies:
        print(format_sensitivity_study(study))
        print()

    print(
        "Take-aways: the gain is flat across window lengths and ramp delays\n"
        "(the paper's 'simple system works well' claim), the error band trades a\n"
        "little more gain for a little more performance loss, and the shadow\n"
        "latch delay matters most -- it sets the regulator floor, which is why\n"
        "the paper pushes it to the 33% limit the hold constraint allows."
    )


if __name__ == "__main__":
    main()
