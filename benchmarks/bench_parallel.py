#!/usr/bin/env python
"""Scaling benchmark of the DVS statistics pass over worker processes.

Runs the same closed-loop DVS workload end to end serially and with the
statistics pass on 1, 2 and 4 worker processes, checks every result
bit-identical to the serial ``run``, and writes throughput, speedup and
scaling efficiency to a JSON report (``BENCH_parallel.json``).  Each worker
config times ``DVSBusSystem.run(source, jobs=N)`` end to end: the pass opens
its own pool of ``N`` workers (each generates and analyses its own range of
the trace) and shuts it down before the replay, so pool start-up is inside
every timed run -- a few milliseconds against a pass of about a second at
10M cycles.

With ``--baseline`` the run **fails on a >2x throughput regression in any
config**, exactly like the per-kernel gates; on hosts with at least two CPUs
it additionally enforces the baseline's minimum 2-worker speedup
(``min_speedup_2_workers``).  Single-CPU hosts record their (necessarily
~1x) speedup honestly and skip only the scaling gate -- ``host_cpus`` in the
report says which case a given JSON file is.

The committed baseline (``benchmarks/BENCH_parallel_baseline.json``) keeps
deliberately conservative throughput floors so the gates trip on real
regressions, not runner jitter.

Usage::

    python benchmarks/bench_parallel.py --cycles 10000000 --out BENCH_parallel.json \\
        --baseline benchmarks/BENCH_parallel_baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict

#: Worker counts of the scaling ladder.
WORKER_COUNTS = (1, 2, 4)

#: Energy components compared in the bit-identity check.
ENERGY_COMPONENTS = ("bus_dynamic", "leakage", "flipflop_clocking", "recovery_overhead")


def _observe_repeats(telemetry, name: str, fn: Callable[[], object], repeats: int) -> None:
    """Time ``repeats`` invocations of ``fn`` into a telemetry histogram."""
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        telemetry.observe(f"bench.{name}.seconds", time.perf_counter() - started)


def _assert_identical(name: str, measured, reference) -> None:
    """Hard bit-identity check between a multi-worker and the serial run."""
    mismatches = []
    if measured.total_errors != reference.total_errors:
        mismatches.append("total_errors")
    if measured.failures != reference.failures:
        mismatches.append("failures")
    if measured.minimum_voltage_reached != reference.minimum_voltage_reached:
        mismatches.append("minimum_voltage_reached")
    for component in ENERGY_COMPONENTS:
        if getattr(measured.energy, component) != getattr(reference.energy, component):
            mismatches.append(f"energy.{component}")
    if mismatches:
        raise AssertionError(
            f"{name} is not bit-identical to the serial engine: {', '.join(mismatches)}"
        )


def run_benchmarks(cycles: int, seed: int, repeats: int) -> Dict[str, dict]:
    """Measure serial vs parallel end-to-end throughput on one workload."""
    from repro import __version__
    from repro.bus import BusDesign, CharacterizedBus
    from repro.circuit.pvt import TYPICAL_CORNER
    from repro.core.dvs_system import DVSBusSystem
    from repro.telemetry import Telemetry, use_telemetry
    from repro.trace import benchmark_trace_source

    bus = CharacterizedBus(BusDesign.paper_bus(), TYPICAL_CORNER)
    source = benchmark_trace_source("crafty", n_cycles=cycles, seed=seed)
    system = DVSBusSystem(bus)
    telemetry = Telemetry(label="bench_parallel")

    reference = system.run(source)

    results: Dict[str, dict] = {}
    with use_telemetry(telemetry):
        _observe_repeats(telemetry, "serial", lambda: system.run(source), repeats)
    serial_seconds = telemetry.metrics.histograms["bench.serial.seconds"].min
    results["serial"] = {
        "seconds": round(serial_seconds, 4),
        "cycles_per_sec": round(cycles / serial_seconds, 1),
    }

    for n_workers in WORKER_COUNTS:
        name = f"parallel_{n_workers}"
        # Identity first, then the timed repeats.
        _assert_identical(name, system.run(source, jobs=n_workers), reference)
        with use_telemetry(telemetry):
            _observe_repeats(
                telemetry, name, lambda: system.run(source, jobs=n_workers), repeats
            )
        seconds = telemetry.metrics.histograms[f"bench.{name}.seconds"].min
        speedup = serial_seconds / seconds
        results[name] = {
            "workers": n_workers,
            "seconds": round(seconds, 4),
            "cycles_per_sec": round(cycles / seconds, 1),
            "speedup_vs_serial": round(speedup, 3),
            "scaling_efficiency": round(speedup / n_workers, 3),
        }

    return {
        "schema": "repro-parallel-bench/1",
        "code_version": __version__,
        "python": platform.python_version(),
        "host_cpus": os.cpu_count() or 1,
        "benchmark": "crafty",
        "cycles": cycles,
        "repeats": repeats,
        "bit_identical": True,
        "configs": results,
    }


def compare_to_baseline(record: dict, baseline: dict) -> list:
    """Gate this run against a baseline; returns a list of failure strings.

    Two gates: a >2x cycles/sec regression in any config fails everywhere;
    the 2-worker speedup floor only applies when the measuring host actually
    has two CPUs to scale onto.
    """
    failures = []
    for name, reference in baseline.get("configs", {}).items():
        measured = record["configs"].get(name)
        if measured is None:
            failures.append(f"{name}: config missing from this run")
            continue
        floor = reference["cycles_per_sec"] / 2.0
        if measured["cycles_per_sec"] < floor:
            failures.append(
                f"{name}: {measured['cycles_per_sec']:.0f} cycles/s is below half "
                f"the baseline ({reference['cycles_per_sec']:.0f} cycles/s)"
            )
    min_speedup = baseline.get("min_speedup_2_workers")
    if min_speedup is not None:
        if record["host_cpus"] >= 2:
            measured = record["configs"].get("parallel_2", {})
            speedup = measured.get("speedup_vs_serial", 0.0)
            if speedup < min_speedup:
                failures.append(
                    f"parallel_2: speedup {speedup:.2f}x is below the required "
                    f"{min_speedup:.2f}x on a {record['host_cpus']}-CPU host"
                )
        else:
            print(
                f"note: host has {record['host_cpus']} CPU(s); "
                f"skipping the {min_speedup:.2f}x 2-worker scaling gate",
                file=sys.stderr,
            )
    return failures


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cycles", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N timing")
    parser.add_argument("--out", type=Path, default=Path("BENCH_parallel.json"))
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline report; >2x throughput regression in any config fails, "
        "and (on multi-CPU hosts) so does missing the 2-worker speedup floor",
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
        print("OK: multi-worker runs within the baseline gates", file=sys.stderr)
    elif args.baseline is not None:
        print(f"note: no baseline at {args.baseline}; recorded only", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
