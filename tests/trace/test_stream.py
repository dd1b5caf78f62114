"""Tests for the streaming trace pipeline (sources, chunks, packing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import (
    BusTrace,
    ConcatenatedTraceSource,
    EncodedTraceSource,
    InMemoryTraceSource,
    NpzTraceSource,
    SyntheticTraceSource,
    as_trace_source,
    concatenate_traces,
    generate_benchmark_trace,
    generate_suite,
    get_profile,
    save_trace_npz,
    suite_sources,
)
from repro.cpu import kernel_bus_trace
from repro.encoding import default_encoders
from repro.trace.stream import CpuKernelTraceSource, TraceSource
from repro.trace.synthetic import GENERATION_BLOCK_WORDS, generate_trace
from repro.trace.workloads import SimPointTraceSource


def _reassemble(source: TraceSource, chunk_cycles: int) -> np.ndarray:
    """Concatenate a source's chunks back into the full word array."""
    parts = []
    previous_end = 0
    last_boundary = None
    for chunk in source.chunks(chunk_cycles):
        assert chunk.start_cycle == previous_end
        assert chunk.n_cycles >= 1
        if chunk.is_first:
            parts.append(chunk.values)
        else:
            # The chunk's boundary word must repeat the previous chunk's last word.
            np.testing.assert_array_equal(chunk.values[0], last_boundary)
            parts.append(chunk.values[1:])
        last_boundary = chunk.values[-1]
        previous_end = chunk.end_cycle
    assert previous_end == source.n_cycles
    return np.concatenate(parts, axis=0)


class TestSyntheticTraceSource:
    @pytest.mark.parametrize("chunk_cycles", [999, 10_000, 33_333, 65_536, 500_000])
    def test_chunked_output_is_bit_identical_to_monolithic(self, chunk_cycles):
        # Chunk sizes deliberately include values below, straddling and above
        # the 10 000-cycle controller window and the generation block size.
        trace = generate_benchmark_trace("crafty", n_cycles=150_000, seed=7)
        source = SyntheticTraceSource(get_profile("crafty"), 150_000, seed=7)
        np.testing.assert_array_equal(_reassemble(source, chunk_cycles), trace.values)

    def test_materialize_matches_generate_trace(self):
        trace = generate_benchmark_trace("mgrid", n_cycles=70_000, seed=3)
        source = SyntheticTraceSource(get_profile("mgrid"), 70_000, seed=3)
        np.testing.assert_array_equal(source.materialize().values, trace.values)

    def test_source_is_reiterable(self):
        source = SyntheticTraceSource(get_profile("vortex"), 5_000, seed=11)
        first = _reassemble(source, 1_234)
        second = _reassemble(source, 1_234)
        np.testing.assert_array_equal(first, second)

    def test_accepts_profile_names(self):
        source = SyntheticTraceSource("crafty", 1_000, seed=1)
        assert source.name == "crafty"
        assert source.n_cycles == 1_000

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            SyntheticTraceSource("crafty", 0)
        with pytest.raises(ValueError):
            SyntheticTraceSource("crafty", 100, n_bits=0)

    @given(chunk_cycles=st.integers(min_value=1, max_value=7_000))
    @settings(max_examples=12, deadline=None)
    def test_chunk_size_property(self, chunk_cycles):
        source = SyntheticTraceSource(get_profile("mcf"), 6_000, seed=2)
        expected = source.materialize().values
        np.testing.assert_array_equal(_reassemble(source, chunk_cycles), expected)


def _encoded(encoder):
    def build(n_cycles, tmp_path):
        inner = SyntheticTraceSource("vortex", n_cycles, seed=12)
        reference = encoder.encode(inner.materialize())
        return EncodedTraceSource(inner, encoder), reference.values

    return build


def _in_memory(n_bits):
    def build(n_cycles, tmp_path):
        trace = generate_trace(get_profile("swim"), n_cycles, n_bits=n_bits, seed=4)
        return InMemoryTraceSource(trace), trace.values

    return build


def _synthetic(n_bits):
    def build(n_cycles, tmp_path):
        reference = generate_trace(get_profile("crafty"), n_cycles, n_bits=n_bits, seed=7)
        source = SyntheticTraceSource("crafty", n_cycles, n_bits=n_bits, seed=7)
        return source, reference.values

    return build


def _cpu_kernel(n_cycles, tmp_path):
    reference = kernel_bus_trace("memcopy", n_cycles, seed=3)
    return CpuKernelTraceSource("memcopy", n_cycles, seed=3), reference.trace.values


def _npz(n_cycles, tmp_path):
    trace = generate_benchmark_trace("applu", n_cycles=n_cycles, seed=8)
    path = tmp_path / "applu.npz"
    save_trace_npz(trace, path)
    return NpzTraceSource(path), trace.values


def _concatenated(n_cycles, tmp_path):
    names = ("crafty", "mgrid")
    traces = [generate_benchmark_trace(name, n_cycles=n_cycles, seed=3) for name in names]
    sources = [SyntheticTraceSource(name, n_cycles, seed=3) for name in names]
    reference = concatenate_traces(traces)
    return ConcatenatedTraceSource(sources), reference.values


def _simpoint(n_cycles, tmp_path):
    base = SyntheticTraceSource("mcf", n_cycles, seed=2)
    source = SimPointTraceSource(base, n_clusters=3)
    reference = concatenate_traces(source.selection.extract(base.materialize()))
    return source, reference.values


#: Every kind of source, each with a builder returning ``(source, reference
#: 0/1 words)`` for a trace of ``n_cycles`` transitions.
SOURCE_KINDS = {
    "in-memory": _in_memory(n_bits=32),
    "in-memory-13-bit": _in_memory(n_bits=13),
    "synthetic": _synthetic(n_bits=32),
    "synthetic-13-bit": _synthetic(n_bits=13),
    "cpu-kernel": _cpu_kernel,
    "npz": _npz,
    "concatenated": _concatenated,
    **{f"encoded-{encoder.name}": _encoded(encoder) for encoder in default_encoders()},
    "simpoint": _simpoint,
}


@pytest.mark.parametrize("chunk_cycles", [1, 999, 65_537])
@pytest.mark.parametrize("kind", SOURCE_KINDS)
def test_packed_chunks_tile_materialize_and_match_reference(kind, chunk_cycles, tmp_path):
    # At least two chunks, and at the largest size several in-memory blocks
    # and a generation-block seam for the chunks to straddle.
    n_cycles = max(2_500, chunk_cycles + 1_500)
    source, reference = SOURCE_KINDS[kind](n_cycles, tmp_path)
    chunks = list(source.chunks(chunk_cycles))
    assert [c.start_cycle for c in chunks] == list(range(0, source.n_cycles, chunk_cycles))
    for previous, chunk in zip(chunks, chunks[1:]):
        np.testing.assert_array_equal(
            chunk.trace.packed_values[0], previous.trace.packed_values[-1]
        )
    packed = np.concatenate(
        [chunks[0].trace.packed_values] + [c.trace.packed_values[1:] for c in chunks[1:]]
    )
    whole = source.materialize()
    assert whole.n_bits == source.n_bits
    np.testing.assert_array_equal(packed, whole.packed_values)
    np.testing.assert_array_equal(whole.values, reference)
    # Bits above the bus width stay zero, so the kernels never see them toggle.
    if source.n_bits % 8:
        assert not np.any(packed[:, -1] >> (source.n_bits % 8))
    # Blocks stay bounded: one whole-trace block would make the chunk
    # iterator's carry-over reslicing quadratic in the trace length.
    assert max(len(block) for block in source._packed_blocks()) <= GENERATION_BLOCK_WORDS


class TestInMemoryTraceSource:
    def test_wraps_trace(self):
        trace = generate_benchmark_trace("swim", n_cycles=3_000, seed=4)
        source = as_trace_source(trace)
        assert isinstance(source, InMemoryTraceSource)
        np.testing.assert_array_equal(_reassemble(source, 700), trace.values)

    def test_materialize_returns_the_trace(self):
        trace = generate_benchmark_trace("swim", n_cycles=3_000, seed=4)
        assert InMemoryTraceSource(trace).materialize() is trace

    def test_source_passthrough(self):
        source = SyntheticTraceSource("crafty", 1_000, seed=1)
        assert as_trace_source(source) is source

    def test_unsupported_workload_rejected(self):
        with pytest.raises(TypeError):
            as_trace_source([1, 2, 3])

    def test_invalid_chunk_cycles_rejected(self):
        trace = BusTrace.from_words([1, 2, 3])
        with pytest.raises(ValueError):
            list(InMemoryTraceSource(trace).chunks(0))


class TestConcatenatedTraceSource:
    def test_matches_concatenate_traces(self):
        suite = generate_suite(names=("crafty", "mcf", "mgrid"), n_cycles=2_000, seed=9)
        monolithic = concatenate_traces(suite.values(), name="suite")
        source = ConcatenatedTraceSource(
            [as_trace_source(trace) for trace in suite.values()], name="suite"
        )
        assert source.n_cycles == monolithic.n_cycles
        np.testing.assert_array_equal(_reassemble(source, 1_111), monolithic.values)

    def test_streamed_suite_matches_concatenated_generate_suite(self):
        names = ("crafty", "vortex")
        suite = generate_suite(names=names, n_cycles=4_000, seed=6)
        monolithic = concatenate_traces(suite.values(), name="spec2000-suite")
        sources = suite_sources(names=names, n_cycles=4_000, seed=6)
        source = ConcatenatedTraceSource(list(sources.values()), name="spec2000-suite")
        np.testing.assert_array_equal(source.materialize().values, monolithic.values)

    def test_boundaries_use_per_program_cycles(self):
        sources = suite_sources(names=("crafty", "mcf"), n_cycles=1_000, seed=6)
        source = ConcatenatedTraceSource(list(sources.values()))
        assert source.boundaries() == [1_000, 2_000]
        assert source.n_cycles == 2_001  # junction transition included in the run

    def test_rejects_empty_and_mixed_width(self):
        with pytest.raises(ValueError):
            ConcatenatedTraceSource([])
        narrow = SyntheticTraceSource("crafty", 100, n_bits=16, seed=1)
        wide = SyntheticTraceSource("crafty", 100, n_bits=32, seed=1)
        with pytest.raises(ValueError):
            ConcatenatedTraceSource([narrow, wide])


class TestNpzTraceSource:
    def test_streams_saved_trace(self, tmp_path):
        trace = generate_benchmark_trace("applu", n_cycles=2_500, seed=8)
        path = tmp_path / "applu.npz"
        save_trace_npz(trace, path)
        source = NpzTraceSource(path)
        assert source.name == trace.name
        np.testing.assert_array_equal(_reassemble(source, 999), trace.values)

    def test_streams_legacy_archive(self, tmp_path):
        trace = generate_benchmark_trace("applu", n_cycles=1_500, seed=8)
        path = tmp_path / "legacy.npz"
        np.savez_compressed(
            path, words=trace.to_words(), n_bits=np.array(trace.n_bits), name=np.array(trace.name)
        )
        legacy = NpzTraceSource(path)
        assert legacy.name == trace.name
        np.testing.assert_array_equal(legacy.materialize().packed_values, trace.packed_values)
        np.testing.assert_array_equal(_reassemble(legacy, 999), trace.values)


class TestEncodedTraceSource:
    @pytest.mark.parametrize("chunk_cycles", [333, 1_000, 4_000])
    def test_all_encoders_stream_bit_identically(self, chunk_cycles):
        from repro.encoding import (
            BusInvertEncoder,
            GrayEncoder,
            IdentityEncoder,
            TransitionEncoder,
        )

        trace = generate_benchmark_trace("vortex", n_cycles=3_000, seed=12)
        encoders = [
            IdentityEncoder(),
            GrayEncoder(),
            TransitionEncoder(),
            BusInvertEncoder(),
            BusInvertEncoder(group_size=8),
        ]
        for encoder in encoders:
            expected = encoder.encode(trace)
            source = EncodedTraceSource(as_trace_source(trace), encoder)
            assert source.n_bits == expected.n_bits
            assert source.name == expected.name
            np.testing.assert_array_equal(
                _reassemble(source, chunk_cycles), expected.values
            )


class TestPackedBusTrace:
    def test_packed_memory_is_eight_times_smaller(self):
        trace = generate_benchmark_trace("mesa", n_cycles=1_000, seed=3)
        assert trace.nbytes * 8 == trace.values.nbytes

    def test_values_and_packed_constructors_agree(self):
        trace = generate_benchmark_trace("mesa", n_cycles=1_000, seed=3)
        from_values = BusTrace(values=trace.values, name=trace.name)
        assert from_values.n_bits == trace.n_bits
        assert from_values.n_cycles == trace.n_cycles
        np.testing.assert_array_equal(from_values.packed_values, trace.packed_values)
        from_packed = BusTrace(packed=trace.packed_values, n_bits=trace.n_bits)
        np.testing.assert_array_equal(from_packed.values, trace.values)

    def test_window_is_a_row_slice_of_the_packed_array(self):
        trace = generate_benchmark_trace("mesa", n_cycles=1_000, seed=3)
        window = trace.window(100, 50)
        assert np.shares_memory(window.packed_values, trace.packed_values)
        np.testing.assert_array_equal(window.values, trace.values[100:151])

    def test_concatenate_joins_the_words(self):
        a = generate_benchmark_trace("mesa", n_cycles=500, seed=3)
        b = generate_benchmark_trace("gap", n_cycles=500, seed=4)
        combined = a.concatenate(b)
        assert combined.n_cycles == a.n_cycles + b.n_cycles + 1
        np.testing.assert_array_equal(combined.values, np.concatenate([a.values, b.values]))

    def test_diagnostics_match_a_values_reference(self):
        # An odd width, so the unused bits of the top byte are in play.
        trace = generate_trace(get_profile("swim"), 2_000, n_bits=13, seed=5)
        changes = np.abs(np.diff(trace.values.astype(int), axis=0))
        assert trace.toggle_activity() == pytest.approx(changes.mean())
        np.testing.assert_allclose(trace.per_bit_activity(), changes.mean(axis=0))

    def test_constructor_requires_exactly_one_representation(self):
        values = np.zeros((2, 8), dtype=np.uint8)
        with pytest.raises(ValueError):
            BusTrace()
        with pytest.raises(ValueError):
            BusTrace(values=values, packed=np.zeros((2, 1), dtype=np.uint8), n_bits=8)

    def test_packed_constructor_validates_width(self):
        with pytest.raises(ValueError):
            BusTrace(packed=np.zeros((2, 2), dtype=np.uint8), n_bits=8)
        with pytest.raises(ValueError):
            BusTrace(packed=np.zeros((2, 1), dtype=np.uint8), n_bits=None)
