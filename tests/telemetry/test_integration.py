"""End-to-end telemetry tests: instrumented layers feeding one collector.

These run real (small) workloads -- streamed DVS simulations, the sweep
executor with a pool, the result cache -- under an installed collector and
check that the spans and counters the rest of the tooling relies on
(``repro profile``, ``repro cache stats``, the benchmarks) actually appear.
"""

import pytest

from repro.bus import BusDesign, CharacterizedBus
from repro.circuit.pvt import TYPICAL_CORNER
from repro.core.dvs_system import DVSBusSystem
from repro.runtime.cache import ResultCache
from repro.runtime.executor import run_jobs
from repro.runtime.spec import SweepSpec
from repro.telemetry import Telemetry, use_telemetry
from repro.trace import benchmark_trace_source
from tests.pass_plan import forced_plan

SWEEP = SweepSpec(
    name="telemetry-small",
    task="dvs_run",
    base={"n_cycles": 1_500},
    axes={"benchmark": ("crafty", "mgrid"), "corner": ("typical", "worst")},
    seed=2005,
)


class TestDVSRunInstrumentation:
    @pytest.fixture()
    def collected(self):
        bus = CharacterizedBus(BusDesign.paper_bus(), TYPICAL_CORNER)
        source = benchmark_trace_source("crafty", n_cycles=30_000, seed=7)
        telemetry = Telemetry(label="test")
        with use_telemetry(telemetry), forced_plan(chunk_cycles=10_000):
            result = DVSBusSystem(bus).run(source)
        return telemetry, result

    def test_cycle_counters_match_the_run(self, collected):
        telemetry, result = collected
        counters = telemetry.metrics.counters
        assert counters["dvs.cycles_simulated"] == 30_000
        assert counters["trace.cycles_streamed"] == 30_000
        assert counters["trace.chunks_streamed"] == 3
        assert counters["dvs.errors_corrected"] == result.total_errors

    def test_span_tree_nests_kernels_under_the_run(self, collected):
        telemetry, _ = collected
        paths = {event.path for event in telemetry.events}
        assert "dvs.run" in paths
        assert "dvs.run/parallel.pass1/parallel.chunk" in paths
        assert "dvs.run/parallel.pass1/parallel.chunk/kernel.block_statistics" in paths
        assert "dvs.run/dvs.replay" in paths

    def test_voltage_gauges_are_reported(self, collected):
        telemetry, result = collected
        gauges = telemetry.metrics.gauges
        assert gauges["dvs.final_voltage_v"] == pytest.approx(result.final_voltage)
        assert gauges["dvs.min_voltage_v"] <= gauges["dvs.final_voltage_v"] + 1e-9

    def test_disabled_telemetry_collects_nothing(self):
        bus = CharacterizedBus(BusDesign.paper_bus(), TYPICAL_CORNER)
        source = benchmark_trace_source("crafty", n_cycles=5_000, seed=7)
        telemetry = Telemetry(label="bystander")
        DVSBusSystem(bus).run(source)  # no collector installed
        assert telemetry.events == []
        assert telemetry.metrics.counters == {}


class TestExecutorMerge:
    def test_pool_workers_merge_counters_into_the_parent(self):
        telemetry = Telemetry(label="sweep")
        with use_telemetry(telemetry):
            report = run_jobs(SWEEP.expand(), n_workers=2)
        assert report.n_workers == 2 or report.n_workers == 1  # pool may be unavailable
        counters = telemetry.metrics.counters
        assert counters["executor.jobs_executed"] == 4
        # The per-worker DVS counters merged back: 4 jobs x 1500 cycles.
        assert counters["dvs.cycles_simulated"] == 6_000
        assert telemetry.metrics.histograms["executor.task_seconds"].count == 4

    def test_pool_workers_ship_their_spans_back(self):
        telemetry = Telemetry(label="sweep")
        with use_telemetry(telemetry):
            report = run_jobs(SWEEP.expand(), n_workers=2)
        job_events = [event for event in telemetry.events if event.name == "job"]
        assert len(job_events) == 4
        assert {event.args["task"] for event in job_events} == {"dvs_run"}
        if report.n_workers > 1:
            # Real pool: worker events keep their own pids, distinct from ours.
            assert any(event.pid != telemetry.pid for event in job_events)

    def test_serial_execution_records_into_the_parent_directly(self):
        telemetry = Telemetry(label="serial")
        with use_telemetry(telemetry):
            run_jobs(SWEEP.expand(limit=2), n_workers=1)
        job_events = [event for event in telemetry.events if event.name == "job"]
        assert len(job_events) == 2
        assert all(event.pid == telemetry.pid for event in job_events)
        assert all(
            event.path == "executor.run_jobs/job" for event in job_events
        )

    def test_parallel_and_serial_collect_identical_counters(self):
        serial, parallel = Telemetry(), Telemetry()
        with use_telemetry(serial):
            run_jobs(SWEEP.expand(), n_workers=1)
        with use_telemetry(parallel):
            report = run_jobs(SWEEP.expand(), n_workers=2)
        # Pool mode routes misses through a WorkQueue, whose workqueue.*
        # lifecycle counters are queue accounting with no serial analogue.
        # Everything the simulation itself records must match exactly.
        pooled = {
            name: count
            for name, count in parallel.metrics.counters.items()
            if not name.startswith("workqueue.")
        }
        assert serial.metrics.counters == pooled
        if report.n_workers > 1:
            assert parallel.metrics.counters["workqueue.submitted"] == 4
            assert parallel.metrics.counters["workqueue.executed"] == 4


class TestCacheInstrumentation:
    def test_hits_misses_and_puts_are_counted(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        telemetry = Telemetry(label="cache")
        with use_telemetry(telemetry):
            run_jobs(SWEEP.expand(limit=2), cache=cache)  # 2 misses + 2 puts
            run_jobs(SWEEP.expand(limit=2), cache=cache)  # 2 hits
        counters = telemetry.metrics.counters
        assert counters["cache.misses"] == 2
        assert counters["cache.hits"] == 2
        assert counters["cache.puts"] == 2
        assert counters["cache.bytes_written"] > 0
