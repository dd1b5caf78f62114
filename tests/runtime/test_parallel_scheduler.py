"""Unit and fault tests for the statistics pass and its worker pool.

The equivalence sweeps (tests/core/test_engine_equivalence.py) prove the
pass bit-identical end to end; this file tests the pass's own contracts:
segment geometry, merge-order invariance, the fan-out by part (junction
cycles, word-range seams, the 1-word tail), batches of runs on one pool,
inline fallbacks, and -- most importantly -- that a dead worker surfaces a
clean :class:`ParallelExecutionError` instead of a hang.
"""

import os
from types import SimpleNamespace

import numpy as np
import pytest

import repro.runtime.parallel as parallel_mod
from repro.analysis import run_table1
from repro.bus.bus_model import (
    LANE_CHUNK_CYCLES,
    analyze_trace_statistics,
    kernel_plan,
    merge_summaries,
)
from repro.circuit.pvt import TYPICAL_CORNER, WORST_CASE_CORNER
from repro.core.dvs_system import DVSBusSystem
from repro.encoding.transition import TransitionEncoder
from repro.interconnect.block_kernels import MAX_LANE_BITS, lanes_supported
from repro.interconnect.crosstalk import grouped_shield_topology
from repro.runtime import ChunkSegmenter, ParallelExecutionError, statistics_pass
from repro.telemetry import Telemetry, format_parallel_summary, use_telemetry
from repro.trace import DEFAULT_CHUNK_CYCLES, SyntheticTraceSource, suite_sources
from repro.trace.benchmarks import BenchmarkProfile, ProgramPhase, WordMix
from repro.trace.io import save_trace_npz
from repro.trace.stream import (
    HELD_PART_WORDS,
    ConcatenatedTraceSource,
    EncodedTraceSource,
    InMemoryTraceSource,
    NpzTraceSource,
)
from repro.trace.synthetic import (
    GENERATION_BLOCK_WORDS,
    block_carry_word,
    block_rng,
    generate_word_block,
    trace_seed_sequence,
)
from repro.trace.trace import BusTrace
from tests.pass_plan import KERNELS, forced_plan

N_CYCLES = 6_000

#: Cycles per program of the two-program suite: two parts, one junction.
PROGRAM_CYCLES = 3_000


@pytest.fixture(scope="module")
def source():
    return SyntheticTraceSource("crafty", N_CYCLES, seed=11)


def _suite(*lengths: int) -> ConcatenatedTraceSource:
    """Synthetic programs back to back: one part per program."""
    names = ("crafty", "mgrid", "vortex", "swim")
    return ConcatenatedTraceSource(
        [
            SyntheticTraceSource(names[index % len(names)], length, seed=index)
            for index, length in enumerate(lengths)
        ]
    )


@pytest.fixture(scope="module")
def suite():
    return _suite(PROGRAM_CYCLES, PROGRAM_CYCLES)


def _assert_same_summaries(measured, reference) -> None:
    """Equal in every summary field, segment by segment."""
    assert len(measured) == len(reference)
    for got, want in zip(measured, reference):
        assert got.n_cycles == want.n_cycles
        assert got.toggles_total == want.toggles_total
        assert got.coupling_weights_total == want.coupling_weights_total
        np.testing.assert_array_equal(got.worst_coupling_values, want.worst_coupling_values)
        np.testing.assert_array_equal(got.worst_coupling_counts, want.worst_coupling_counts)


def _pass(workload, segmenter, topology, **kwargs):
    """The pass over a batch of one run: that run's summaries."""
    (summaries,) = statistics_pass([(workload, segmenter)], topology, **kwargs)
    return summaries


def _serial_and_pooled(workload, segmenter, topology, n_workers=2):
    """The pass inline and with ``n_workers`` jobs."""
    serial = _pass(workload, segmenter, topology, jobs=1)
    pooled = _pass(workload, segmenter, topology, jobs=n_workers)
    return serial, pooled


@pytest.fixture(scope="module")
def topology(paper_design):
    return paper_design.topology


@pytest.fixture
def pools(monkeypatch):
    """The size of every pool a pass opens, ``None`` where it fell back inline."""
    opened = []
    open_pool = parallel_mod._open_pool

    def recording(n_workers):
        pool = open_pool(n_workers)
        opened.append(None if pool is None else n_workers)
        return pool

    monkeypatch.setattr(parallel_mod, "_open_pool", recording)
    return opened


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


class TestPassLifecycle:
    @pytest.mark.parametrize("jobs", (None, 0, 1))
    def test_fewer_than_two_jobs_run_inline(self, source, topology, pools, jobs):
        with forced_plan(chunk_cycles=997):
            summaries = _pass(source, ChunkSegmenter(n_cycles=N_CYCLES), topology, jobs=jobs)
        assert pools == []
        assert len(summaries) == 1
        assert summaries[0].n_cycles == N_CYCLES

    def test_daemonic_process_falls_back_inline(self, source, topology, pools, monkeypatch):
        monkeypatch.setattr(
            parallel_mod.multiprocessing,
            "current_process",
            lambda: SimpleNamespace(daemon=True),
        )
        summaries = _pass(source, ChunkSegmenter(n_cycles=N_CYCLES), topology, jobs=4)
        assert pools == [None]
        assert summaries[0].n_cycles == N_CYCLES

    def test_mismatched_segmenter_raises(self, source, topology):
        with pytest.raises(ValueError, match="segmenter"):
            statistics_pass(
                [
                    (source, ChunkSegmenter(n_cycles=N_CYCLES)),
                    (source, ChunkSegmenter(n_cycles=N_CYCLES + 1)),
                ],
                topology,
            )

    def test_one_part_runs_inline_without_a_pool(self, source, topology, pools):
        # An encoder carries its state from the first word on: one part.
        encoded = EncodedTraceSource(source, TransitionEncoder())
        assert encoded.parts(2) == [encoded]
        segmenter = ChunkSegmenter(n_cycles=N_CYCLES)
        serial, pooled = _serial_and_pooled(encoded, segmenter, topology)
        assert pools == []
        _assert_same_summaries(pooled, serial)

    def test_inline_progress_is_reported_per_chunk(self, source, topology):
        calls = []
        with forced_plan(chunk_cycles=1_000):
            _pass(
                source,
                ChunkSegmenter(n_cycles=N_CYCLES),
                topology,
                progress=lambda done, total: calls.append((done, total)),
            )
        assert calls == [(end, N_CYCLES) for end in range(1_000, N_CYCLES + 1, 1_000)]


#: Each block is one run of a single kind, and half of them hold: with this
#: seed blocks 1 and 2 only repeat the last word of block 0 and block 3
#: varies, so a word range starting in block 3 walks back over two blocks.
HOLDING = BenchmarkProfile(
    name="holding",
    description="whole generation blocks of held words",
    phases=(ProgramPhase(WordMix(0.5, 0.5, 0.0, 0.0, 0.0), 1.0),),
    kind_run_length=1e9,
)
HOLDING_SEED = 32


class TestFanOut:
    """Parts fan out to workers; the pooled pass equals the inline one."""

    @pytest.mark.parametrize(
        ("lengths", "place"),
        [
            ((3_000, 3_000), "starts"),
            ((2_500, 3_000), "inside"),
            ((2_999, 3_000), "ends"),
            ((1_500, 2_000, 2_500), "inside"),
        ],
    )
    def test_suite_junctions(self, topology, lengths, place):
        workload = _suite(*lengths)
        assert [part.n_cycles for part in workload.parts(2)] == list(lengths)
        segmenter = ChunkSegmenter(
            n_cycles=workload.n_cycles, window_cycles=1_000, ramp_delay_cycles=300
        )
        bounds = segmenter.boundaries().tolist()
        junction = lengths[0]  # the cycle from program 0's last word to program 1's first
        assert (junction in bounds) == (place == "starts")
        assert (junction + 1 in bounds) == (place == "ends")
        with forced_plan(chunk_cycles=997):
            serial, pooled = _serial_and_pooled(workload, segmenter, topology)
        _assert_same_summaries(pooled, serial)

    @pytest.mark.parametrize("n_workers", (2, 3))
    def test_word_ranges_cover_the_one_word_tail(self, topology, n_workers):
        # k x 65 536 + 1 words: the last generation block holds one word, and
        # the last range starts inside the block before it.
        workload = SyntheticTraceSource("vortex", 2 * GENERATION_BLOCK_WORDS, seed=5)
        parts = workload.parts(n_workers)
        assert len(parts) == n_workers
        assert sum(part.n_cycles for part in parts) + n_workers - 1 == workload.n_cycles
        np.testing.assert_array_equal(
            np.concatenate([part.materialize().packed_values for part in parts]),
            workload.materialize().packed_values,
        )
        segmenter = ChunkSegmenter(
            n_cycles=workload.n_cycles, window_cycles=10_000, ramp_delay_cycles=3_000
        )
        serial, pooled = _serial_and_pooled(workload, segmenter, topology, n_workers)
        _assert_same_summaries(pooled, serial)

    def test_seam_walks_back_over_held_blocks(self, topology):
        n_blocks = 5
        workload = SyntheticTraceSource(
            HOLDING, n_blocks * GENERATION_BLOCK_WORDS - 7, seed=HOLDING_SEED
        )
        root = trace_seed_sequence(HOLDING_SEED)
        held = [
            generate_word_block(HOLDING, GENERATION_BLOCK_WORDS, block_rng(root, index), 0)[1]
            for index in range(1, n_blocks - 1)
        ]
        assert held == [True, True, False]
        words = workload.materialize().to_words()
        assert len(np.unique(words)) > 1
        for block in range(1, n_blocks):
            carry = block_carry_word(HOLDING, block, seed=HOLDING_SEED)
            assert carry == int(words[block * GENERATION_BLOCK_WORDS - 1])
        parts = workload.parts(3)
        # The last range starts inside block 3, so its carry walks back to block 0.
        last_start = sum(part.n_cycles + 1 for part in parts[:-1])
        assert last_start // GENERATION_BLOCK_WORDS == 3
        np.testing.assert_array_equal(
            np.concatenate([part.materialize().packed_values for part in parts]),
            workload.materialize().packed_values,
        )
        segmenter = ChunkSegmenter(
            n_cycles=workload.n_cycles, window_cycles=10_000, ramp_delay_cycles=3_000
        )
        serial, pooled = _serial_and_pooled(workload, segmenter, topology, n_workers=3)
        _assert_same_summaries(pooled, serial)

    @pytest.mark.parametrize("form", ("synthetic", "in-memory", "npz"))
    @pytest.mark.parametrize("n_cycles", (2_000, 12_000))
    def test_short_workloads_fan_out(self, topology, pools, tmp_path, form, n_cycles):
        # Shorter than one generation block, yet each worker gets a range.
        synthetic = SyntheticTraceSource("mgrid", n_cycles, seed=3)
        if form == "synthetic":
            workload = synthetic
        elif form == "in-memory":
            workload = InMemoryTraceSource(synthetic.materialize())
        else:
            path = tmp_path / "trace.npz"
            save_trace_npz(synthetic.materialize(), path)
            workload = NpzTraceSource(path)
        parts = workload.parts(2)
        assert [part.n_cycles for part in parts] == [n_cycles // 2 - 1, n_cycles // 2]
        np.testing.assert_array_equal(
            np.concatenate([part.materialize().packed_values for part in parts]),
            synthetic.materialize().packed_values,
        )
        segmenter = ChunkSegmenter(n_cycles=n_cycles, window_cycles=500, ramp_delay_cycles=150)
        with forced_plan(chunk_cycles=331):
            serial, pooled = _serial_and_pooled(workload, segmenter, topology)
        assert pools == [2]
        _assert_same_summaries(pooled, serial)

    def test_held_trace_parts_are_bounded(self):
        rows = np.arange(4 * (2 * HELD_PART_WORDS + 5)).astype(np.uint8).reshape(-1, 4)
        trace = BusTrace(packed=rows, n_bits=32)
        parts = InMemoryTraceSource(trace).parts(2)
        assert len(parts) == 3
        assert all(part.n_cycles < HELD_PART_WORDS for part in parts)
        np.testing.assert_array_equal(
            np.concatenate([part.materialize().packed_values for part in parts]),
            trace.packed_values,
        )

    def test_too_short_to_split_is_one_part(self):
        assert len(SyntheticTraceSource("mgrid", 2, seed=3).parts(2)) == 1
        assert [part.n_cycles for part in SyntheticTraceSource("mgrid", 3).parts(4)] == [1, 1]

    def test_parts_that_miss_cycles_raise(self, topology):
        class Truncated(ConcatenatedTraceSource):
            def parts(self, count):
                return super().parts(count)[:-1]

        workload = Truncated(_suite(1_500, 2_000, 2_500).sources)
        with pytest.raises(ParallelExecutionError, match="covered 3501 of"):
            _pass(workload, ChunkSegmenter(n_cycles=workload.n_cycles), topology, jobs=2)

    def test_progress_is_reported_per_part(self, topology):
        workload = _suite(1_500, 2_000, 2_500)
        calls = []
        _pass(
            workload,
            ChunkSegmenter(n_cycles=workload.n_cycles),
            topology,
            jobs=2,
            progress=lambda done, total: calls.append((done, total)),
        )
        total = workload.n_cycles
        # A junction cycle counts with the part after it.
        assert calls == [(1_500, total), (3_501, total), (total, total)]


def _exit_worker(*task):
    """Simulates a hard worker crash (segfault/OOM-kill): no exception, no result."""
    os._exit(3)


def _raise_worker(*task):
    raise ValueError("synthetic worker failure")


def _exit_on_mgrid(part, *task):
    """Crashes on the mgrid program only: the runs before it complete."""
    if part.name.startswith("mgrid"):
        os._exit(3)
    return _PART_SUMMARIES(part, *task)


_PART_SUMMARIES = parallel_mod._part_summaries


class TestWorkerFaults:
    def test_crashed_worker_raises_clean_error(self, suite, topology, monkeypatch):
        monkeypatch.setattr(parallel_mod, "_part_summaries", _exit_worker)
        with pytest.raises(ParallelExecutionError, match="worker died"):
            _pass(suite, ChunkSegmenter(n_cycles=suite.n_cycles), topology, jobs=2)

    def test_crash_mid_batch_then_the_next_call_succeeds(self, topology, pools, monkeypatch):
        programs = [
            SyntheticTraceSource(name, 2_000, seed=index)
            for index, name in enumerate(("crafty", "vortex", "mgrid", "swim"))
        ]
        runs = [(program, ChunkSegmenter(n_cycles=2_000)) for program in programs]
        monkeypatch.setattr(parallel_mod, "_part_summaries", _exit_on_mgrid)
        with pytest.raises(ParallelExecutionError, match="worker died"):
            list(statistics_pass(runs, topology, jobs=2))
        monkeypatch.setattr(parallel_mod, "_part_summaries", _PART_SUMMARIES)
        summaries = list(statistics_pass(runs, topology, jobs=2))
        assert pools == [2, 2]
        for run_summaries, (program, segmenter) in zip(summaries, runs):
            _assert_same_summaries(run_summaries, _pass(program, segmenter, topology))

    def test_worker_exception_propagates(self, suite, topology, monkeypatch):
        monkeypatch.setattr(parallel_mod, "_part_summaries", _raise_worker)
        with pytest.raises(ValueError, match="synthetic worker failure"):
            _pass(suite, ChunkSegmenter(n_cycles=suite.n_cycles), topology, jobs=2)


#: The bus width of the mixed batch: odd, and too narrow for whole bytes.
ODD_WIDTH = 13


class TestBatches:
    """One call, several runs: each run's result is its own pass's."""

    @pytest.fixture(scope="class")
    def mixed_batch(self):
        synthetic = SyntheticTraceSource("crafty", 5_000, n_bits=ODD_WIDTH, seed=1)
        suite = ConcatenatedTraceSource(
            [
                SyntheticTraceSource("mgrid", 1_500, n_bits=ODD_WIDTH, seed=2),
                SyntheticTraceSource("vortex", 2_000, n_bits=ODD_WIDTH, seed=3),
            ]
        )
        in_memory = SyntheticTraceSource("swim", 3_001, n_bits=ODD_WIDTH, seed=4).materialize()
        topology = grouped_shield_topology(ODD_WIDTH, 4)
        statistics = analyze_trace_statistics(
            SyntheticTraceSource("crafty", 2_500, n_bits=ODD_WIDTH, seed=5).materialize(),
            topology,
        )
        workloads = (synthetic, suite, in_memory, statistics)
        runs = [
            (
                workload,
                ChunkSegmenter(
                    n_cycles=workload.n_cycles, window_cycles=700, ramp_delay_cycles=200
                ),
            )
            for workload in workloads
        ]
        return runs, topology

    def test_mixed_batch_on_workers_equals_each_run_alone(self, mixed_batch, pools):
        runs, topology = mixed_batch
        with forced_plan(chunk_cycles=331):
            batch = list(statistics_pass(runs, topology, jobs=2))
            alone = [_pass(workload, segmenter, topology, jobs=1) for workload, segmenter in runs]
        assert pools == [2]
        assert len(batch) == len(runs)
        for measured, reference in zip(batch, alone):
            _assert_same_summaries(measured, reference)

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_batch_progress_is_monotone_and_complete(self, mixed_batch, jobs):
        runs, topology = mixed_batch
        total = sum(workload.n_cycles for workload, _ in runs)
        calls = []
        with forced_plan(chunk_cycles=997):
            list(
                statistics_pass(
                    runs, topology, jobs=jobs, progress=lambda done, of: calls.append((done, of))
                )
            )
        assert len(calls) > len(runs)
        assert all(of == total for _, of in calls)
        done = [cycles for cycles, _ in calls]
        assert done == sorted(done)
        assert calls[-1] == (total, total)

    def test_table1_submits_one_part_per_benchmark(self, pools):
        names = ("crafty", "mgrid", "vortex")
        workloads = suite_sources(names=names, n_cycles=12_000, seed=23)
        telemetry = Telemetry(label="test-table1")
        with use_telemetry(telemetry):
            run_table1(
                workloads=workloads,
                corners=(WORST_CASE_CORNER, TYPICAL_CORNER),
                n_cycles=12_000,
                order=names,
                window_cycles=1_000,
                ramp_delay_cycles=300,
                jobs=2,
            )
        assert pools == [2]
        parts = [event for event in telemetry.events if event.name == "parallel.part"]
        assert sorted(event.args["cycles"] for event in parts) == [12_000] * len(names)
        assert sorted(event.args["start_cycle"] for event in parts) == [0] * len(names)
        assert telemetry.metrics.gauges["parallel.workers"] == 2


#: Chunk starts of the two-program suite in chunks of 997 cycles: each
#: program is 4 chunks, and program 1 starts after the junction cycle.
SUITE_CHUNK_STARTS = [0, 997, 1_994, 2_991, 3_001, 3_998, 4_995, 5_992]


class TestParallelTelemetry:
    def test_spans_and_scaling_summary(self, typical_corner_bus, suite):
        system = DVSBusSystem(typical_corner_bus, window_cycles=1_000, ramp_delay_cycles=300)
        telemetry = Telemetry(label="test-parallel")
        with use_telemetry(telemetry), forced_plan(chunk_cycles=997):
            system.run(suite, jobs=2)
        names = {event.name for event in telemetry.events}
        assert {"parallel.pass1", "parallel.chunk", "parallel.merge", "dvs.replay"} <= names
        assert telemetry.metrics.counters["parallel.chunks"] == 8
        # Worker spans carry their chunk range for the Perfetto view.
        chunk_spans = [e for e in telemetry.events if e.name == "parallel.chunk"]
        assert sorted(e.args["start_cycle"] for e in chunk_spans) == SUITE_CHUNK_STARTS
        assert all(e.pid != telemetry.pid for e in chunk_spans)
        block = format_parallel_summary(telemetry)
        assert block is not None
        assert "scaling efficiency" in block
        assert "chunks analyzed     : 8" in block

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
    def test_forced_plan_reaches_pool_workers(self, typical_corner_bus, suite, kernel):
        # The seam the bit-identity harnesses use: fork-started workers
        # inherit it, so every chunk runs the forced kernel at the forced length.
        system = DVSBusSystem(typical_corner_bus, window_cycles=1_000, ramp_delay_cycles=300)
        telemetry = Telemetry(label="test-plan")
        with use_telemetry(telemetry), forced_plan(kernel, 997):
            system.run(suite, jobs=2)
        counters = telemetry.metrics.counters
        assert counters["parallel.chunks"] == 8
        # The master analyses the one junction cycle on the same kernel.
        assert counters[f"kernel.invocations.{kernel}"] == 8 + 1
