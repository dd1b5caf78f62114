"""Cross-validation: DVS gains on executed-kernel traces vs synthetic profiles.

The paper's experiments are driven by memory-read traces of real programs;
this reproduction normally uses calibrated synthetic profiles.  This
benchmark cross-checks the substitution by running the closed-loop DVS system
on traces produced by the mini CPU actually executing kernels, and asserting
that the qualitative Table 1 behaviour -- quiet integer workloads gain
substantially more than streaming floating-point workloads, error rates stay
near the control band -- holds for genuinely executed programs too.
"""

from __future__ import annotations

from repro.core.dvs_system import DVSBusSystem
from repro.cpu import kernel_bus_trace

from conftest import BENCH_SEED

#: Cycles per kernel trace (kernels are re-executed until this many bus
#: transitions have been recorded).  The control loop is scaled down further
#: than the figure benches so its initial descent from the nominal supply is
#: finished well inside the warm-up half of the run.
KERNEL_CYCLES = 40_000
KERNEL_WINDOW = 1_000
KERNEL_RAMP = 300

#: Kernels compared.  ``stream_sum_int`` and ``stream_sum_float`` execute the
#: identical program on different payloads, isolating the data-entropy effect;
#: ``binary_search`` is the quietest workload (few loads, index-like words)
#: and ``memcopy`` among the busiest.
KERNEL_NAMES = ("binary_search", "stream_sum_int", "stream_sum_float", "memcopy")


def _run_kernels(typical_corner_bus):
    system = DVSBusSystem(
        typical_corner_bus, window_cycles=KERNEL_WINDOW, ramp_delay_cycles=KERNEL_RAMP
    )
    gains = {}
    error_rates = {}
    for name in KERNEL_NAMES:
        traced = kernel_bus_trace(name, n_cycles=KERNEL_CYCLES, seed=BENCH_SEED)
        result = system.run(traced.trace, warmup_cycles=KERNEL_CYCLES // 2)
        gains[name] = result.energy_gain_percent
        error_rates[name] = result.average_error_rate
    return gains, error_rates


def test_dvs_on_executed_kernel_traces(benchmark, typical_corner_bus):
    """Closed-loop DVS on mini-CPU kernel traces at the typical corner."""
    gains, error_rates = benchmark.pedantic(
        _run_kernels, args=(typical_corner_bus,), rounds=1, iterations=1
    )

    # Every executed workload recovers at least the corner's PVT slack.
    assert all(gain > 25.0 for gain in gains.values())
    # Same program, different payload entropy: the integer stream scales lower.
    assert gains["stream_sum_int"] > gains["stream_sum_float"]
    # The quietest workload gains the most.
    assert gains["binary_search"] == max(gains.values())
    # Error rates stay bounded near the control band.
    assert all(rate < 0.05 for rate in error_rates.values())

    print()
    print(f"{'kernel':<18} {'gain %':>7} {'err %':>6}")
    for name, gain in gains.items():
        print(f"{name:<18} {gain:>7.1f} {error_rates[name] * 100:>6.2f}")
