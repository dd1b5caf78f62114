#!/usr/bin/env python
"""Per-kernel throughput benchmarks of the block-simulation engine.

Times every hot kernel of the streaming pipeline in isolation -- the three
per-cycle statistics kernels on the lanes and in the scalar reference, trace
generation, the closed-loop replay of precomputed statistics, and the
end-to-end DVS run on either kernel -- and writes the results to a
JSON report (``BENCH_kernels.json``).  With ``--baseline`` the run **fails on
a >2x throughput regression in any kernel**, so CI catches a regression in a
single kernel even when the end-to-end number still looks healthy (e.g. a
slow kernel hiding behind a fast one).

The committed baseline (``benchmarks/BENCH_kernels_baseline.json``) is
deliberately conservative (a small fraction of dev-machine throughput) so
the per-kernel gates only trip on real regressions, not runner jitter.

Usage::

    python benchmarks/bench_kernels.py --out BENCH_kernels.json \\
        --baseline benchmarks/BENCH_kernels_baseline.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict


def _observe_repeats(telemetry, name: str, fn: Callable[[], object], repeats: int) -> None:
    """Time ``repeats`` invocations of ``fn`` into a telemetry histogram.

    Every repeat lands in the ``bench.<name>.seconds`` histogram; the JSON
    report later reads the histogram's ``min`` (best-of-N), so the published
    number and the telemetry record are one and the same measurement.
    """
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        telemetry.observe(f"bench.{name}.seconds", time.perf_counter() - started)


def run_benchmarks(cycles: int, seed: int, repeats: int) -> Dict[str, dict]:
    """Measure every kernel on the same workload; returns name -> metrics."""
    from repro import __version__
    from repro.bus import BusDesign, CharacterizedBus, bus_model
    from repro.bus.bus_model import analyze_trace_statistics, scalar_trace_statistics
    from repro.circuit.pvt import TYPICAL_CORNER
    from repro.core.dvs_system import DVSBusSystem
    from repro.interconnect.block_kernels import (
        block_coupling_energy_weights,
        block_toggle_counts,
        block_worst_coupling,
        lanes_from_packed,
    )
    from repro.interconnect.crosstalk import (
        coupling_energy_weights,
        toggle_counts,
        transitions_from_values,
        worst_coupling_factor_per_cycle,
    )
    from repro.runtime.parallel import statistics_pass
    from repro.telemetry import Telemetry, use_telemetry
    from repro.trace import DEFAULT_CHUNK_CYCLES, benchmark_trace_source

    bus = CharacterizedBus(BusDesign.paper_bus(), TYPICAL_CORNER)
    topology = bus.design.topology
    source = benchmark_trace_source("crafty", n_cycles=cycles, seed=seed)

    telemetry = Telemetry(label="bench_kernels")

    # Shared inputs, prepared once: the packed trace (vectorized input), the
    # unpacked transitions (scalar input) and the per-cycle statistics (replay
    # input).  Preparation is timed as the trace-generation kernel.
    _observe_repeats(
        telemetry, "trace_generation_packed", source.materialize, repeats
    )
    trace = source.materialize()
    lanes = lanes_from_packed(trace.packed_values)
    transitions = transitions_from_values(trace.values)
    stats = analyze_trace_statistics(trace, topology)

    def run_feed() -> None:
        # Reduce the precomputed statistics to control-segment summaries and
        # replay the closed loop over them.
        system = DVSBusSystem(bus)
        state = system.stream(stats.n_cycles)
        for summary in statistics_pass(
            stats, system.control_segmenter(stats.n_cycles), topology
        ):
            state.feed_summary(summary)
        state.finish()

    def run_scalar_end_to_end() -> None:
        # The paper bus runs on the lanes; swap the pass's one kernel choice
        # for the scalar reference at its own chunk length, for this run only.
        production = bus_model.kernel_plan
        bus_model.kernel_plan = lambda n_bits: (False, DEFAULT_CHUNK_CYCLES)
        try:
            DVSBusSystem(bus).run(source)
        finally:
            bus_model.kernel_plan = production

    kernels: Dict[str, Callable[[], object]] = {
        "worst_coupling_scalar": lambda: worst_coupling_factor_per_cycle(
            transitions, topology
        ),
        "worst_coupling_vectorized": lambda: block_worst_coupling(lanes, topology),
        "toggle_counts_scalar": lambda: toggle_counts(transitions),
        "toggle_counts_vectorized": lambda: block_toggle_counts(lanes),
        "coupling_weights_scalar": lambda: coupling_energy_weights(
            transitions, topology
        ),
        "coupling_weights_vectorized": lambda: block_coupling_energy_weights(
            lanes, topology
        ),
        "analyze_chunk_scalar": lambda: scalar_trace_statistics(trace, topology),
        "analyze_chunk_vectorized": lambda: analyze_trace_statistics(trace, topology),
        "dvs_feed": run_feed,
        "end_to_end_scalar": run_scalar_end_to_end,
        "end_to_end_vectorized": lambda: DVSBusSystem(bus).run(source),
    }

    with use_telemetry(telemetry):
        for name, fn in kernels.items():
            _observe_repeats(telemetry, name, fn, repeats)

    # The report is read back out of the telemetry histograms -- one
    # measurement, two views (JSON gate and telemetry summary).
    results: Dict[str, dict] = {}
    for name in ("trace_generation_packed", *kernels):
        seconds = telemetry.metrics.histograms[f"bench.{name}.seconds"].min
        results[name] = {
            "seconds": round(seconds, 4),
            "cycles_per_sec": round(cycles / seconds, 1),
        }

    return {
        "schema": "repro-kernel-bench/1",
        "code_version": __version__,
        "python": platform.python_version(),
        "benchmark": "crafty",
        "cycles": cycles,
        "repeats": repeats,
        "kernels": results,
    }


def compare_to_baseline(record: dict, baseline: dict) -> list:
    """Per-kernel >2x regression check; returns a list of failure strings."""
    failures = []
    for name, reference in baseline.get("kernels", {}).items():
        measured = record["kernels"].get(name)
        if measured is None:
            failures.append(f"{name}: kernel missing from this run")
            continue
        floor = reference["cycles_per_sec"] / 2.0
        if measured["cycles_per_sec"] < floor:
            failures.append(
                f"{name}: {measured['cycles_per_sec']:.0f} cycles/s is below half "
                f"the baseline ({reference['cycles_per_sec']:.0f} cycles/s)"
            )
    return failures


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cycles", type=int, default=500_000)
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N timing")
    parser.add_argument("--out", type=Path, default=Path("BENCH_kernels.json"))
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline report; a >2x cycles/sec drop in ANY kernel fails the run",
    )
    args = parser.parse_args(argv)

    record = run_benchmarks(args.cycles, args.seed, args.repeats)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))

    if args.baseline is not None and args.baseline.is_file():
        baseline = json.loads(args.baseline.read_text())
        failures = compare_to_baseline(record, baseline)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print(
            f"OK: all {len(baseline.get('kernels', {}))} kernels within 2x of baseline",
            file=sys.stderr,
        )
    elif args.baseline is not None:
        print(f"note: no baseline at {args.baseline}; recorded only", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
