#!/usr/bin/env python
"""Streaming-pipeline performance smoke: throughput and peak memory.

Runs one streamed closed-loop DVS simulation (1 M cycles by default, the
paper's 10 000/3 000-cycle control loop) through the chunked trace pipeline,
records throughput (cycles/second) and peak RSS into a JSON report
(``BENCH_streaming.json``), and **fails on a >2x throughput regression**
against a committed baseline.

The committed baseline (``benchmarks/BENCH_streaming_baseline.json``) is
deliberately conservative -- roughly a quarter of the throughput measured on
a development laptop -- so the CI gate only trips on real regressions (an
accidentally materialising path, a quadratic reslice), not on runner jitter.

Usage::

    python benchmarks/perf_smoke.py --cycles 1000000 --out BENCH_streaming.json
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
from pathlib import Path


def _peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KB on Linux, bytes on macOS.
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak /= 1024.0
    return peak / 1024.0


def run_smoke(cycles: int, benchmark: str, seed: int) -> dict:
    """One streamed DVS run; returns the metrics record.

    The run executes under its own telemetry collector, and the reported
    timing is read back from the ``dvs.run`` span (with the cycle count from
    the ``dvs.cycles_simulated`` counter) -- the exact numbers a
    ``--telemetry`` trace of the same workload would carry, so this JSON and
    the telemetry layer cannot drift apart.
    """
    from repro import __version__
    from repro.bus import BusDesign, CharacterizedBus
    from repro.bus.bus_model import kernel_plan
    from repro.circuit.pvt import TYPICAL_CORNER
    from repro.core.dvs_system import DVSBusSystem
    from repro.telemetry import Telemetry, use_telemetry
    from repro.trace import benchmark_trace_source

    bus = CharacterizedBus(BusDesign.paper_bus(), TYPICAL_CORNER)
    system = DVSBusSystem(bus)  # the paper's 10 000 / 3 000 cycle control loop
    source = benchmark_trace_source(benchmark, n_cycles=cycles, seed=seed)

    telemetry = Telemetry(label="perf_smoke")
    with use_telemetry(telemetry):
        result = system.run(source)

    elapsed = sum(
        event.duration_s for event in telemetry.events if event.name == "dvs.run"
    )
    counters = telemetry.metrics.counters
    cycles_simulated = int(counters.get("dvs.cycles_simulated", cycles))

    return {
        "schema": "repro-streaming-smoke/2",
        "code_version": __version__,
        "python": platform.python_version(),
        "benchmark": benchmark,
        "cycles": cycles,
        "chunk_cycles": kernel_plan(source.n_bits)[1],
        "seconds": round(elapsed, 3),
        "cycles_per_sec": round(cycles_simulated / elapsed, 1),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "energy_gain_percent": round(result.energy_gain_percent, 3),
        "error_rate_percent": round(result.average_error_rate * 100.0, 3),
        "total_errors": result.total_errors,
        "telemetry": {
            "chunks_streamed": int(counters.get("trace.chunks_streamed", 0)),
            "kernel_invocations": int(
                counters.get("kernel.invocations.vectorized", 0)
                + counters.get("kernel.invocations.scalar", 0)
            ),
            "voltage_transitions": int(counters.get("dvs.voltage_transitions", 0)),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cycles", type=int, default=1_000_000)
    parser.add_argument("--benchmark", default="crafty")
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--out", type=Path, default=Path("BENCH_streaming.json"))
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).parent / "BENCH_streaming_baseline.json",
        help="baseline report; a >2x cycles/sec drop against it fails the run",
    )
    args = parser.parse_args(argv)

    record = run_smoke(args.cycles, args.benchmark, args.seed)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))

    if args.baseline.is_file():
        baseline = json.loads(args.baseline.read_text())
        floor = baseline.get("cycles_per_sec", 0.0) / 2.0
        if record["cycles_per_sec"] < floor:
            print(
                f"FAIL: {record['cycles_per_sec']:.0f} cycles/s is below half the "
                f"baseline ({baseline['cycles_per_sec']:.0f} cycles/s): >2x regression",
                file=sys.stderr,
            )
            return 1
        print(
            f"OK: {record['cycles_per_sec']:.0f} cycles/s >= {floor:.0f} "
            f"(half of baseline {baseline['cycles_per_sec']:.0f})",
            file=sys.stderr,
        )
    else:
        print(f"note: no baseline at {args.baseline}; recorded only", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
