#!/usr/bin/env python3
"""Example: from executed programs to DVS energy gains, end to end.

The paper's workloads are SPEC2000 memory-read traces captured with
SimpleScalar's functional simulator.  This example follows the same pipeline
with the library's own mini CPU: assemble and execute real kernels, record
the data words on the memory read bus, and run the resulting traces through
the closed-loop DVS system at the typical corner.

The kernels span the same range as the paper's benchmarks -- quiet integer
code (``fibonacci``, ``binary_search``) scales much further than streaming
floating-point-payload code (``stream_sum_float``, ``matmul``) -- so the
Table 1 story reappears from genuinely executed programs.

Run with::

    python -m examples.cpu_trace_dvs
"""

from __future__ import annotations

from repro.bus import BusDesign, CharacterizedBus
from repro.circuit.pvt import TYPICAL_CORNER
from repro.core.dvs_system import DVSBusSystem
from repro.cpu import get_kernel, kernel_bus_trace
from repro.plotting import bar_chart

#: Cycles per kernel.  Long enough that the controller's initial descent from
#: the nominal supply (about 15 windows) is over well before the measured,
#: post-warm-up half of the run begins.
N_CYCLES = 60_000
WINDOW_CYCLES = 1_000
RAMP_CYCLES = 300
SEED = 2005
KERNEL_NAMES = (
    "fibonacci",
    "binary_search",
    "pointer_chase",
    "memcopy",
    "stream_sum_int",
    "stream_sum_float",
    "matmul",
)


def main() -> None:
    design = BusDesign.paper_bus()
    bus = CharacterizedBus(design, TYPICAL_CORNER)
    system = DVSBusSystem(bus, window_cycles=WINDOW_CYCLES, ramp_delay_cycles=RAMP_CYCLES)

    print(f"{'kernel':<18} {'loads/instr':>11} {'activity':>9} "
          f"{'gain %':>7} {'err %':>6}  description")
    print("-" * 100)
    gains = {}
    for name in KERNEL_NAMES:
        kernel = get_kernel(name)
        traced = kernel_bus_trace(name, n_cycles=N_CYCLES, seed=SEED)
        result = system.run(traced.trace, warmup_cycles=N_CYCLES // 2)
        gains[name] = result.energy_gain_percent
        print(
            f"{name:<18} {traced.load_fraction:>11.2f} "
            f"{traced.trace.toggle_activity():>9.3f} "
            f"{result.energy_gain_percent:>7.1f} {result.average_error_rate * 100:>6.2f}"
            f"  {kernel.description}"
        )

    print()
    print(bar_chart(list(gains), list(gains.values()),
                    title="closed-loop DVS energy gain per executed kernel (%)",
                    value_format="{:.1f}%"))
    print()
    print(
        "The matched stream_sum pair isolates the data-entropy effect (the same\n"
        "program gains several points more on integer payloads than on float32\n"
        "bit patterns), and the quietest kernel (binary_search) scales furthest --\n"
        "the per-benchmark spread of the paper's Table 1, except that here every\n"
        "bus word came from an actually executed instruction.  Kernels with few\n"
        "loads per instruction (matmul) keep the bus quiet regardless of payload\n"
        "entropy, because the bus simply holds its value on non-load cycles."
    )


if __name__ == "__main__":
    main()
