"""Ablation: the paper's "IPC loss == error rate" assumption vs real pipelines.

Section 3 of the paper translates corrected-error rates into performance loss
one-for-one and calls the resulting numbers pessimistic, because a real core
commits fewer than one instruction per cycle and an out-of-order window can
overlap the one-cycle replay with existing stalls.  This benchmark runs the
closed-loop DVS system on a benchmark trace at the typical corner, takes the
*actual* (bursty) per-cycle error stream it produced, and evaluates that
stream under three pipeline models: the paper's in-order IPC=1 assumption, a
modest out-of-order core, and an aggressive one.
"""

from __future__ import annotations

import numpy as np

from repro.arch import PIPELINE_MODELS, evaluate_ipc_impact
from repro.bus.bus_model import analyze_trace_statistics
from repro.core.dvs_system import DVSBusSystem
from repro.trace import generate_benchmark_trace

from conftest import BENCH_CYCLES, BENCH_RAMP, BENCH_SEED, BENCH_WINDOW


def _error_mask_of_dvs_run(typical_corner_bus):
    trace = generate_benchmark_trace("vortex", n_cycles=BENCH_CYCLES, seed=BENCH_SEED)
    stats = analyze_trace_statistics(trace, typical_corner_bus.design.topology)
    system = DVSBusSystem(
        typical_corner_bus, window_cycles=BENCH_WINDOW, ramp_delay_cycles=BENCH_RAMP
    )
    result = system.run(stats, keep_cycle_voltage=True)
    mask = typical_corner_bus.error_mask(stats, result.per_cycle_voltage)
    return mask, result


def test_ipc_penalty_under_pipeline_models(benchmark, typical_corner_bus):
    """IPC loss of the DVS run's real error stream under three pipeline models."""
    mask, result = benchmark.pedantic(
        _error_mask_of_dvs_run, args=(typical_corner_bus,), rounds=1, iterations=1
    )
    assert int(np.count_nonzero(mask)) == result.total_errors

    impacts = {
        name: evaluate_ipc_impact(model, mask, seed=BENCH_SEED)
        for name, model in PIPELINE_MODELS.items()
    }
    in_order = impacts["in-order, IPC=1 (paper assumption)"]
    aggressive = impacts["aggressive OoO"]

    # The paper's rule is the worst case; anything with overlap does better.
    assert in_order.ipc_loss_fraction == max(i.ipc_loss_fraction for i in impacts.values())
    assert aggressive.ipc_loss_fraction < in_order.ipc_loss_fraction
    # And even the worst case stays near the error rate the controller targets.
    assert in_order.ipc_loss_fraction < 0.05

    print()
    print(
        f"DVS run: {result.total_errors} corrected errors in {result.n_cycles} cycles "
        f"(error rate {result.average_error_rate * 100:.2f}%)"
    )
    header = f"{'pipeline model':<36} {'IPC loss %':>10} {'hidden %':>9}"
    print(header)
    print("-" * len(header))
    for name, impact in impacts.items():
        print(
            f"{name:<36} {impact.ipc_loss_fraction * 100:>10.2f} "
            f"{impact.hidden_fraction * 100:>9.1f}"
        )
