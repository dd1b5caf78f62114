"""Unit and fault tests for the statistics pass and its chunk scheduler.

The equivalence sweeps (tests/core/test_engine_equivalence.py) prove the
pass bit-identical end to end; this file tests the scheduler's own
contracts: segment geometry, merge-order invariance, backpressure, inline
fallbacks, and -- most importantly -- that a dead worker surfaces a clean
:class:`ParallelExecutionError` instead of a hang.
"""

import os
from types import SimpleNamespace

import numpy as np
import pytest

import repro.runtime.parallel as parallel_mod
from repro.bus.bus_model import (
    LANE_CHUNK_CYCLES,
    analyze_trace_statistics,
    kernel_plan,
    merge_summaries,
)
from repro.core.dvs_system import DVSBusSystem
from repro.interconnect.block_kernels import MAX_LANE_BITS, lanes_supported
from repro.runtime import (
    ChunkSegmenter,
    ParallelChunkScheduler,
    ParallelExecutionError,
)
from repro.telemetry import Telemetry, format_parallel_summary, use_telemetry
from repro.trace import DEFAULT_CHUNK_CYCLES, SyntheticTraceSource
from tests.pass_plan import KERNELS, forced_plan

N_CYCLES = 6_000


@pytest.fixture(scope="module")
def source():
    return SyntheticTraceSource("crafty", N_CYCLES, seed=11)


@pytest.fixture(scope="module")
def topology(paper_design):
    return paper_design.topology


class TestChunkSegmenter:
    def test_boundaries_cover_control_points(self):
        segmenter = ChunkSegmenter(
            n_cycles=10_000, window_cycles=3_000, ramp_delay_cycles=500, warmup_cycles=1_250
        )
        bounds = segmenter.boundaries().tolist()
        assert bounds == [0, 500, 1_250, 3_000, 3_500, 6_000, 6_500, 9_000, 9_500, 10_000]
        assert segmenter.n_segments == len(bounds) - 1

    def test_whole_run_is_one_segment_by_default(self):
        segmenter = ChunkSegmenter(n_cycles=777)
        assert segmenter.boundaries().tolist() == [0, 777]
        assert segmenter.n_segments == 1

    def test_segment_index(self):
        segmenter = ChunkSegmenter(n_cycles=1_000, window_cycles=400)
        assert segmenter.segment_index(0) == 0
        assert segmenter.segment_index(399) == 0
        assert segmenter.segment_index(400) == 1
        assert segmenter.segment_index(999) == 2
        with pytest.raises(ValueError):
            segmenter.segment_index(1_000)

    def test_pieces_cover_interval_exactly(self):
        segmenter = ChunkSegmenter(n_cycles=1_000, window_cycles=300, ramp_delay_cycles=100)
        pieces = list(segmenter.pieces(150, 950))
        # Pieces tile [150, 950) in order without gaps or overlap.
        assert pieces[0][1] == 150
        assert pieces[-1][2] == 950
        for (_, _, end_a), (_, start_b, _) in zip(pieces, pieces[1:]):
            assert end_a == start_b
        # Each piece stays inside its segment.
        bounds = segmenter.boundaries()
        for index, start, end in pieces:
            assert bounds[index] <= start < end <= bounds[index + 1]

    def test_boundaries_are_cached_and_read_only(self):
        segmenter = ChunkSegmenter(
            n_cycles=1_000, window_cycles=300, ramp_delay_cycles=100, warmup_cycles=450
        )
        bounds = segmenter.boundaries()
        assert segmenter.boundaries() is bounds
        assert not bounds.flags.writeable
        with pytest.raises(ValueError):
            bounds[1] = 7
        # The cache is not part of the segmenter's identity.
        assert segmenter == ChunkSegmenter(
            n_cycles=1_000, window_cycles=300, ramp_delay_cycles=100, warmup_cycles=450
        )

    def test_pieces_tile_paper_scale_chunks(self):
        # A paper-scale Fig. 8 run: 100M cycles, 20 001 boundaries.
        n_cycles = 100_000_000
        segmenter = ChunkSegmenter(
            n_cycles=n_cycles, window_cycles=10_000, ramp_delay_cycles=3_000
        )
        bounds = segmenter.boundaries()
        assert len(bounds) == 20_001
        chunk = 262_144
        for start in (0, chunk, 137 * chunk, n_cycles - n_cycles % chunk):
            end = min(start + chunk, n_cycles)
            pieces = list(segmenter.pieces(start, end))
            assert pieces[0][1] == start and pieces[-1][2] == end
            for (index_a, _, end_a), (index_b, start_b, _) in zip(pieces, pieces[1:]):
                assert end_a == start_b and index_b == index_a + 1
            for index, piece_start, piece_end in pieces:
                assert bounds[index] <= piece_start < piece_end <= bounds[index + 1]
            # Interior cuts are exactly the boundaries inside the chunk.
            inner = bounds[(bounds > start) & (bounds < end)].tolist()
            assert [piece[1] for piece in pieces[1:]] == inner

    def test_validation(self):
        with pytest.raises(ValueError):
            ChunkSegmenter(n_cycles=0)
        with pytest.raises(ValueError):
            ChunkSegmenter(n_cycles=100, window_cycles=-1)
        with pytest.raises(ValueError):
            list(ChunkSegmenter(n_cycles=100).pieces(50, 40))


class TestMergeSummaries:
    def test_any_grouping_of_ragged_pieces_equals_the_whole(self, source, topology):
        # Split the trace into ragged pieces, summarize each, and merge them
        # flat and in nested groups: both must equal the unsplit summary.
        stats = analyze_trace_statistics(source.materialize(), topology)
        edges = [0, 317, 1_000, 1_001, 2_503, 4_000, N_CYCLES]
        summaries = [
            stats.slice(a, b).summarize() for a, b in zip(edges, edges[1:])
        ]
        flat = merge_summaries(summaries)
        groups = (summaries[:1], summaries[1:4], summaries[4:])
        nested = merge_summaries([merge_summaries(group) for group in groups])
        whole = stats.summarize()
        for merged in (flat, nested):
            assert merged.n_cycles == whole.n_cycles == N_CYCLES
            assert merged.toggles_total == whole.toggles_total
            assert merged.coupling_weights_total == whole.coupling_weights_total
            np.testing.assert_array_equal(
                merged.worst_coupling_values, whole.worst_coupling_values
            )
            np.testing.assert_array_equal(
                merged.worst_coupling_counts, whole.worst_coupling_counts
            )

    def test_merge_of_nothing_raises(self):
        with pytest.raises(ValueError):
            merge_summaries([])


class TestSchedulerLifecycle:
    def test_single_worker_runs_inline(self, source, topology):
        with ParallelChunkScheduler(n_workers=1) as scheduler, forced_plan(chunk_cycles=997):
            summaries = scheduler.segment_summaries(
                source, ChunkSegmenter(n_cycles=N_CYCLES), topology
            )
            assert scheduler.effective_workers == 1
        assert len(summaries) == 1
        assert summaries[0].n_cycles == N_CYCLES

    def test_daemonic_process_falls_back_inline(self, source, topology, monkeypatch):
        monkeypatch.setattr(
            parallel_mod.multiprocessing,
            "current_process",
            lambda: SimpleNamespace(daemon=True),
        )
        with ParallelChunkScheduler(n_workers=4) as scheduler:
            summaries = scheduler.segment_summaries(
                source, ChunkSegmenter(n_cycles=N_CYCLES), topology
            )
            assert scheduler.effective_workers == 1
        assert summaries[0].n_cycles == N_CYCLES

    def test_tight_backpressure_still_exact(self, source, topology, monkeypatch):
        monkeypatch.setattr(parallel_mod, "INFLIGHT_CHUNKS_PER_WORKER", 1)
        segmenter = ChunkSegmenter(n_cycles=N_CYCLES, window_cycles=1_000)
        with (
            forced_plan(chunk_cycles=499),
            ParallelChunkScheduler(n_workers=2) as scheduler,
        ):
            summaries = scheduler.segment_summaries(source, segmenter, topology)
        assert [summary.n_cycles for summary in summaries] == [1_000] * 6

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelChunkScheduler(n_workers=0)

    def test_mismatched_segmenter_raises(self, source, topology):
        with ParallelChunkScheduler(n_workers=1) as scheduler:
            with pytest.raises(ValueError, match="segmenter"):
                scheduler.segment_summaries(
                    source, ChunkSegmenter(n_cycles=N_CYCLES + 1), topology
                )

    def test_pool_survives_reuse_and_close(self, source, topology):
        scheduler = ParallelChunkScheduler(n_workers=2)
        segmenter = ChunkSegmenter(n_cycles=N_CYCLES)
        with forced_plan(chunk_cycles=1_024):
            first = scheduler.segment_summaries(source, segmenter, topology)
        with forced_plan(chunk_cycles=777):
            second = scheduler.segment_summaries(source, segmenter, topology)
        scheduler.close()
        # A closed scheduler lazily re-creates its pool on next use.
        with forced_plan(chunk_cycles=2_048):
            third = scheduler.segment_summaries(source, segmenter, topology)
        scheduler.close()
        for summary in (first[0], second[0], third[0]):
            assert summary.n_cycles == N_CYCLES
            assert summary.toggles_total == first[0].toggles_total


def _exit_worker(payload):
    """Simulates a hard worker crash (segfault/OOM-kill): no exception, no result."""
    os._exit(3)


def _raise_worker(payload):
    raise ValueError("synthetic worker failure")


class TestWorkerFaults:
    def test_crashed_worker_raises_clean_error(self, source, topology, monkeypatch):
        monkeypatch.setattr(parallel_mod, "_analyze_chunk_payload", _exit_worker)
        with ParallelChunkScheduler(n_workers=2) as scheduler, forced_plan(chunk_cycles=1_000):
            with pytest.raises(ParallelExecutionError, match="worker died"):
                scheduler.segment_summaries(source, ChunkSegmenter(n_cycles=N_CYCLES), topology)

    def test_crash_then_recover_with_fresh_pool(self, source, topology, monkeypatch):
        monkeypatch.setattr(parallel_mod, "_analyze_chunk_payload", _exit_worker)
        scheduler = ParallelChunkScheduler(n_workers=2)
        with forced_plan(chunk_cycles=1_000), pytest.raises(ParallelExecutionError):
            scheduler.segment_summaries(source, ChunkSegmenter(n_cycles=N_CYCLES), topology)
        monkeypatch.undo()
        # The broken pool was torn down; the same scheduler works again.
        with scheduler, forced_plan(chunk_cycles=1_000):
            summaries = scheduler.segment_summaries(
                source, ChunkSegmenter(n_cycles=N_CYCLES), topology
            )
        assert summaries[0].n_cycles == N_CYCLES

    def test_worker_exception_propagates(self, source, topology, monkeypatch):
        monkeypatch.setattr(parallel_mod, "_analyze_chunk_payload", _raise_worker)
        with ParallelChunkScheduler(n_workers=2) as scheduler, forced_plan(chunk_cycles=1_000):
            with pytest.raises(ValueError, match="synthetic worker failure"):
                scheduler.segment_summaries(source, ChunkSegmenter(n_cycles=N_CYCLES), topology)


class TestParallelTelemetry:
    def test_spans_and_scaling_summary(self, typical_corner_bus, source):
        system = DVSBusSystem(typical_corner_bus, window_cycles=1_000, ramp_delay_cycles=300)
        telemetry = Telemetry(label="test-parallel")
        with use_telemetry(telemetry), forced_plan(chunk_cycles=997):
            system.run(source, jobs=2)
        names = {event.name for event in telemetry.events}
        assert {"parallel.pass1", "parallel.chunk", "parallel.merge", "dvs.replay"} <= names
        assert telemetry.metrics.counters["parallel.chunks"] == 7  # ceil(6000 / 997)
        # Worker spans carry their chunk range for the Perfetto view.
        chunk_spans = [e for e in telemetry.events if e.name == "parallel.chunk"]
        assert sorted(e.args["start_cycle"] for e in chunk_spans) == [
            i * 997 for i in range(7)
        ]
        block = format_parallel_summary(telemetry)
        assert block is not None
        assert "scaling efficiency" in block
        assert "chunks analyzed     : 7" in block

    def test_serial_run_has_no_parallel_summary(self, typical_corner_bus, source):
        system = DVSBusSystem(typical_corner_bus, window_cycles=1_000, ramp_delay_cycles=300)
        telemetry = Telemetry(label="test-serial")
        with use_telemetry(telemetry), forced_plan(chunk_cycles=997):
            system.run(source)
        assert format_parallel_summary(telemetry) is None


class TestKernelPlan:
    """The bus width picks the kernel and the chunk length, in one place."""

    def test_plan_follows_the_bus_width(self):
        assert kernel_plan(MAX_LANE_BITS + 1) == (False, DEFAULT_CHUNK_CYCLES)
        if lanes_supported(32):
            assert kernel_plan(32) == (True, LANE_CHUNK_CYCLES)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_forced_plan_reaches_pool_workers(self, typical_corner_bus, source, kernel):
        # The seam the bit-identity harnesses use: fork-started workers
        # inherit it, so every chunk runs the forced kernel at the forced length.
        system = DVSBusSystem(typical_corner_bus, window_cycles=1_000, ramp_delay_cycles=300)
        telemetry = Telemetry(label="test-plan")
        with use_telemetry(telemetry), forced_plan(kernel, 997):
            system.run(source, jobs=2)
        counters = telemetry.metrics.counters
        assert counters["parallel.chunks"] == 7  # ceil(6000 / 997)
        assert counters[f"kernel.invocations.{kernel}"] == 7
