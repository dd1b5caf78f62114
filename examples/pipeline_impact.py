#!/usr/bin/env python3
"""Example: what do corrected bus errors cost a real pipeline?

The paper reports performance degradation as equal to the corrected-error
rate (one replay cycle per error, IPC = 1) and notes this is pessimistic.
This example walks the full chain:

1. run the closed-loop DVS bus on a benchmark trace at the typical corner,
2. show the load-buffer replay protocol on a few concrete errors,
3. evaluate the run's real error stream under three pipeline models and
   compare the IPC loss each one sees against the paper's rule.

Run with::

    python -m examples.pipeline_impact
"""

from __future__ import annotations

import numpy as np

from repro.arch import PIPELINE_MODELS, LoadDataBuffer, evaluate_ipc_impact
from repro.bus import BusDesign, CharacterizedBus
from repro.bus.bus_model import analyze_trace_statistics
from repro.circuit.pvt import TYPICAL_CORNER
from repro.core.dvs_system import DVSBusSystem
from repro.plotting import bar_chart
from repro.trace import generate_benchmark_trace

N_CYCLES = 60_000
SEED = 2005


def demonstrate_replay_protocol() -> None:
    """A tiny concrete walk through Fig. 1's buffer-and-replay behaviour."""
    buffer = LoadDataBuffer(capacity=4)
    buffer.allocate(tag=0)
    buffer.allocate(tag=1)

    buffer.deliver(tag=0, data=0x1234, error=False)
    print("load 0 delivered cleanly  ->", hex(buffer.commit(tag=0)))

    buffer.deliver(tag=1, data=0xBADC0DE & 0xFFFF, error=True)
    print("load 1 delivered with a timing error: data held back from commit")
    buffer.replay(tag=1, data=0x5678)
    print("load 1 replayed from the shadow latch ->", hex(buffer.commit(tag=1)))
    print(f"buffer bookkeeping: {buffer.total_deliveries} deliveries, "
          f"{buffer.total_replays} replay(s)\n")


def main() -> None:
    demonstrate_replay_protocol()

    design = BusDesign.paper_bus()
    bus = CharacterizedBus(design, TYPICAL_CORNER)
    trace = generate_benchmark_trace("vortex", n_cycles=N_CYCLES, seed=SEED)
    stats = analyze_trace_statistics(trace, design.topology)

    system = DVSBusSystem(bus, window_cycles=2_000, ramp_delay_cycles=600)
    result = system.run(stats, keep_cycle_voltage=True)
    error_mask = bus.error_mask(stats, result.per_cycle_voltage)
    print(
        f"closed-loop DVS on 'vortex' at the typical corner: "
        f"{result.total_errors} corrected errors in {result.n_cycles} cycles "
        f"({result.average_error_rate * 100:.2f}%), "
        f"energy gain {result.energy_gain_percent:.1f}%"
    )
    print()

    losses = {}
    for name, model in PIPELINE_MODELS.items():
        impact = evaluate_ipc_impact(model, np.asarray(error_mask), seed=SEED)
        losses[name] = impact.ipc_loss_fraction * 100
        print(
            f"{name:<36} IPC {impact.baseline_ipc:.2f} -> {impact.effective_ipc:.4f} "
            f"(loss {impact.ipc_loss_fraction * 100:.2f}%, "
            f"{impact.hidden_fraction * 100:.0f}% of replays hidden)"
        )
    print()
    print(bar_chart(list(losses), list(losses.values()),
                    title="IPC loss by pipeline model (%)", value_format="{:.2f}%"))
    print()
    print(
        "The in-order IPC=1 row reproduces the paper's reporting rule; the\n"
        "out-of-order rows quantify its remark that a real core hides part of\n"
        "the one-cycle replays behind stalls it already suffers."
    )


if __name__ == "__main__":
    main()
