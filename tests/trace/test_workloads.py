"""Tests for the workload registry and the streaming CPU-kernel source."""

import numpy as np
import pytest

from repro.cpu import KERNELS, kernel_bus_trace, kernel_suite
from repro.trace import (
    BusTrace,
    available_workloads,
    kernel_sources,
    resolve_workload,
    resolve_workload_mapping,
    save_trace_hex,
    save_trace_npz,
)
from repro.trace.stream import (
    ConcatenatedTraceSource,
    CpuKernelTraceSource,
    EncodedTraceSource,
    InMemoryTraceSource,
    NpzTraceSource,
    SyntheticTraceSource,
)
from repro.trace.workloads import SimPointTraceSource, WorkloadRegistry


def _streamed_values(source, chunk_cycles):
    chunks = list(source.chunks(chunk_cycles=chunk_cycles))
    return np.concatenate([chunks[0].values] + [c.values[1:] for c in chunks[1:]])


class TestCpuKernelTraceSource:
    def test_materialize_equals_kernel_bus_trace(self):
        source = CpuKernelTraceSource("memcopy", 3_000, seed=11)
        reference = kernel_bus_trace("memcopy", 3_000, seed=11)
        np.testing.assert_array_equal(source.materialize().values, reference.trace.values)

    @pytest.mark.parametrize("chunk_cycles", (1, 997, 2_999, 3_000, 4_000))
    def test_chunk_size_invariance(self, chunk_cycles):
        source = CpuKernelTraceSource("pointer_chase", 3_000, seed=5)
        np.testing.assert_array_equal(
            _streamed_values(source, chunk_cycles), source.materialize().values
        )

    def test_reiteration_is_bit_identical(self):
        source = CpuKernelTraceSource("stream_sum_float", 2_000, seed=3)
        np.testing.assert_array_equal(source.materialize().values, source.materialize().values)

    def test_misses_only_policy_reiterates_identically(self):
        source = CpuKernelTraceSource(
            "stream_sum_int", 2_000, seed=3, bus_policy="misses_only"
        )
        np.testing.assert_array_equal(source.materialize().values, source.materialize().values)

    def test_generator_seed_is_honoured(self):
        first = CpuKernelTraceSource("memcopy", 1_500, seed=np.random.default_rng(7))
        second = CpuKernelTraceSource("memcopy", 1_500, seed=np.random.default_rng(7))
        np.testing.assert_array_equal(first.materialize().values, second.materialize().values)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            CpuKernelTraceSource("memcopy", 0)
        with pytest.raises(KeyError):
            CpuKernelTraceSource("no_such_kernel", 100)
        with pytest.raises(TypeError):
            CpuKernelTraceSource(42, 100)


class TestSeedRegressions:
    """Regression tests for the silently-discarded Generator seeds."""

    def test_kernel_suite_equal_generator_seeds_are_identical(self):
        first = kernel_suite(names=("fibonacci", "memcopy"), n_cycles=800,
                             seed=np.random.default_rng(7))
        second = kernel_suite(names=("fibonacci", "memcopy"), n_cycles=800,
                              seed=np.random.default_rng(7))
        for name in first:
            np.testing.assert_array_equal(first[name].values, second[name].values)

    def test_kernel_suite_streams_are_name_keyed(self):
        # Removing kernels from the suite must not perturb the survivors.
        full = kernel_suite(names=("fibonacci", "memcopy", "matmul"), n_cycles=600, seed=7)
        subset = kernel_suite(names=("memcopy",), n_cycles=600, seed=7)
        np.testing.assert_array_equal(full["memcopy"].values, subset["memcopy"].values)

    def test_spawn_rngs_derives_from_generator(self):
        from repro.utils.rng import spawn_rngs

        first = spawn_rngs(np.random.default_rng(13), 3)
        second = spawn_rngs(np.random.default_rng(13), 3)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.integers(0, 1 << 32, 16), b.integers(0, 1 << 32, 16))

    def test_spawn_rngs_int_seed_unchanged(self):
        # The stateless derivation must reproduce the historical spawn()
        # children, so existing suite traces stay bit-identical.
        from repro.utils.rng import spawn_rngs

        old = [np.random.default_rng(c) for c in np.random.SeedSequence(2005).spawn(3)]
        new = spawn_rngs(2005, 3)
        for a, b in zip(old, new):
            np.testing.assert_array_equal(a.integers(0, 1 << 32, 16), b.integers(0, 1 << 32, 16))


class TestRegistryResolution:
    def test_synthetic_profile_bare_and_prefixed(self):
        bare = resolve_workload("crafty", n_cycles=1_000, seed=5)
        prefixed = resolve_workload("synthetic:crafty", n_cycles=1_000, seed=5)
        assert isinstance(bare, SyntheticTraceSource)
        np.testing.assert_array_equal(bare.materialize().values, prefixed.materialize().values)

    def test_cpu_kernel_bare_and_prefixed(self):
        bare = resolve_workload("memcopy", n_cycles=1_000, seed=5)
        prefixed = resolve_workload("cpu:memcopy", n_cycles=1_000, seed=5)
        assert isinstance(bare, CpuKernelTraceSource)
        np.testing.assert_array_equal(bare.materialize().values, prefixed.materialize().values)

    def test_registry_streams_follow_the_suite_conventions(self):
        # Synthetic specs reproduce the Table 1 suite's per-benchmark spawn
        # streams; cpu: specs reproduce kernel_suite's name-keyed streams --
        # so a --workload row always equals the matching suite row.
        from repro.trace import suite_sources

        resolved = resolve_workload("mgrid", n_cycles=1_000, seed=2005)
        suite = suite_sources(names=("crafty", "vortex", "mgrid"), n_cycles=1_000, seed=2005)
        np.testing.assert_array_equal(
            resolved.materialize().values, suite["mgrid"].materialize().values
        )
        kernel = resolve_workload("cpu:memcopy", n_cycles=800, seed=7)
        np.testing.assert_array_equal(
            kernel.materialize().values,
            kernel_suite(names=("memcopy",), n_cycles=800, seed=7)["memcopy"].values,
        )

    def test_mapping_rows_draw_from_independent_streams(self):
        mapping = resolve_workload_mapping("cpu:stream_sum_int,cpu:memcopy",
                                           n_cycles=600, seed=3)
        runs = [s._root for s in mapping.values()]
        assert runs[0].spawn_key != runs[1].spawn_key

    def test_npz_and_hex_files(self, tmp_path):
        trace = resolve_workload("cpu:fibonacci", n_cycles=400, seed=1).materialize()
        npz = tmp_path / "t.npz"
        hexfile = tmp_path / "t.hex"
        save_trace_npz(trace, npz)
        save_trace_hex(trace, hexfile)
        from_npz = resolve_workload(f"file:{npz}")
        from_hex = resolve_workload(str(hexfile))
        assert isinstance(from_npz, NpzTraceSource)
        assert isinstance(from_hex, InMemoryTraceSource)
        np.testing.assert_array_equal(from_npz.materialize().values, trace.values)
        np.testing.assert_array_equal(from_hex.materialize().values, trace.values)

    def test_suite_concatenation(self):
        suite = resolve_workload("crafty+cpu:fibonacci", n_cycles=500, seed=2)
        assert isinstance(suite, ConcatenatedTraceSource)
        assert suite.n_cycles == 2 * 500 + 1

    def test_suite_concatenation_is_order_insensitive_to_schemes(self):
        # A leaf-scheme prefix on the *first* part must not swallow the '+':
        # both orders name the same two-part suite.
        forward = resolve_workload("cpu:memcopy+crafty", n_cycles=400, seed=2)
        backward = resolve_workload("crafty+cpu:memcopy", n_cycles=400, seed=2)
        assert isinstance(forward, ConcatenatedTraceSource)
        assert [s.name for s in forward.sources] == ["memcopy", "crafty"]
        assert [s.name for s in backward.sources] == ["crafty", "memcopy"]

    def test_wrapper_schemes_stay_greedy_over_plus(self):
        # simpoint:/encoded: wrap the whole '+'-joined payload, not just the
        # first part.
        reduced = resolve_workload("simpoint:crafty+mgrid", n_cycles=2_000, seed=2)
        assert isinstance(reduced, SimPointTraceSource)
        encoded = resolve_workload("encoded:bus-invert:crafty+mgrid", n_cycles=500, seed=2)
        assert isinstance(encoded, EncodedTraceSource)
        assert encoded.n_cycles == 2 * 500 + 1

    def test_encoded_wrapper(self):
        encoded = resolve_workload("encoded:bus-invert:crafty", n_cycles=500, seed=2)
        assert isinstance(encoded, EncodedTraceSource)
        assert encoded.n_bits > 32

    def test_simpoint_wrapper_streams_chunk_invariantly(self):
        reduced = resolve_workload("simpoint:crafty", n_cycles=4_000, seed=2)
        assert isinstance(reduced, SimPointTraceSource)
        assert sum(reduced.weights) == pytest.approx(1.0)
        assert reduced.n_cycles < 4_000
        np.testing.assert_array_equal(
            _streamed_values(reduced, 333), reduced.materialize().values
        )

    def test_simpoint_window_signatures_match_whole_trace_reference(self, monkeypatch):
        # window_signatures unpacks one window at a time; it must equal the
        # whole-trace computation below, kept here as the reference.
        from repro.trace import simpoint, trace as trace_module
        from repro.trace.generator import generate_benchmark_trace
        from repro.trace.simpoint import transition_signatures, window_signatures

        window_length = 500
        trace = generate_benchmark_trace("crafty", n_cycles=4_003, n_bits=13, seed=9)
        transitions = np.diff(trace.values.astype(np.int8), axis=0)
        n_windows = trace.n_cycles // window_length
        usable = transitions[: n_windows * window_length]
        reference = transition_signatures(usable.reshape(n_windows, window_length, trace.n_bits))

        unpack = trace_module.unpack_values
        rows = []

        def counting_unpack(packed, n_bits):
            rows.append(len(packed))
            return unpack(packed, n_bits)

        monkeypatch.setattr(trace_module, "unpack_values", counting_unpack)
        monkeypatch.setattr(simpoint, "unpack_values", counting_unpack)
        np.testing.assert_array_equal(window_signatures(trace, window_length), reference)
        assert rows and max(rows) <= window_length + 1

    def test_simpoint_selection_matches_select_simpoints(self):
        # Same signatures + same seed => the packed streaming path selects
        # the exact windows/weights select_simpoints would.
        from repro.trace.simpoint import select_simpoints

        trace = resolve_workload("vpr", n_cycles=8_000, seed=4).materialize()
        reduced = SimPointTraceSource(trace, window_length=1_000, n_clusters=3, seed=5)
        reference = select_simpoints(trace, 1_000, n_clusters=3, seed=5)
        assert reduced.selection.representative_windows == reference.representative_windows
        assert reduced.selection.weights == reference.weights

    def test_simpoint_windows_are_views_of_the_base_trace(self):
        # The O(chunk)-memory contract: the reduced windows are row slices of
        # the base trace's packed bytes, never copies.
        trace = resolve_workload("crafty", n_cycles=8_000, seed=2).materialize()
        reduced = SimPointTraceSource(trace, n_clusters=3, seed=2)
        for inner in reduced._reduced.sources:
            assert np.shares_memory(inner.trace.packed_values, trace.packed_values)

    def test_trace_objects_pass_through(self):
        trace = resolve_workload("cpu:fibonacci", n_cycles=300, seed=1).materialize()
        assert isinstance(trace, BusTrace)
        wrapped = resolve_workload(trace)
        assert wrapped.n_cycles == trace.n_cycles

    def test_unknown_spec_raises_with_known_names(self):
        with pytest.raises(KeyError, match="cpu:memcopy"):
            resolve_workload("no_such_workload")

    def test_missing_file_raises_key_error_not_oserror(self):
        # A typo'd path is bad user input, not an internal crash: the CLI
        # turns KeyError into a clean error message.
        with pytest.raises(KeyError, match="does not exist"):
            resolve_workload("file:/nonexistent/trace.npz")

    def test_malformed_specs_rejected(self):
        registry = WorkloadRegistry()
        with pytest.raises(KeyError):
            registry.resolve("encoded:bus-invert")
        with pytest.raises(KeyError):
            registry.resolve("suite:")
        with pytest.raises(TypeError):
            registry.resolve(123)

    def test_mapping_preserves_order_and_dedupes(self):
        mapping = resolve_workload_mapping("crafty,cpu:memcopy,crafty", n_cycles=400, seed=1)
        assert list(mapping) == ["crafty", "cpu:memcopy"]

    def test_mapping_keeps_plus_as_suite_concatenation(self):
        # Commas split rows; '+' inside a row keeps its suite meaning, so
        # composite specs are never torn apart (the historical '+' row split
        # silently mis-parsed "suite:a+b" into two rows).
        mapping = resolve_workload_mapping("suite:crafty+mgrid,cpu:memcopy",
                                           n_cycles=400, seed=1)
        assert list(mapping) == ["suite:crafty+mgrid", "cpu:memcopy"]
        assert isinstance(mapping["suite:crafty+mgrid"], ConcatenatedTraceSource)
        assert mapping["suite:crafty+mgrid"].n_cycles == 2 * 400 + 1

    def test_available_workloads_cover_profiles_and_kernels(self):
        names = available_workloads()
        assert "crafty" in names
        assert all(f"cpu:{kernel}" in names for kernel in KERNELS)


class TestKernelSources:
    def test_sources_match_kernel_suite(self):
        sources = kernel_sources(names=("memcopy", "fibonacci"), n_cycles=600, seed=7)
        suite = kernel_suite(names=("memcopy", "fibonacci"), n_cycles=600, seed=7)
        for name in ("memcopy", "fibonacci"):
            np.testing.assert_array_equal(
                sources[f"cpu:{name}"].materialize().values, suite[name].values
            )

    def test_default_covers_every_kernel(self):
        sources = kernel_sources(n_cycles=200)
        assert sorted(sources) == [f"cpu:{name}" for name in sorted(KERNELS)]


class TestWorkloadFingerprint:
    def test_fingerprint_tracks_content_for_plus_in_path(self, tmp_path):
        # file: is greedy, so '+' in a path is part of the path -- and the
        # fingerprint must hash that file's content, not torn fragments.
        from repro.trace.workloads import workload_fingerprint

        archive = tmp_path / "a+b.npz"
        save_trace_npz(
            resolve_workload("cpu:fibonacci", n_cycles=300, seed=1).materialize(), archive
        )
        first = workload_fingerprint(f"file:{archive}")
        save_trace_npz(
            resolve_workload("cpu:memcopy", n_cycles=300, seed=2).materialize(), archive
        )
        assert workload_fingerprint(f"file:{archive}") != first

    def test_fingerprint_walks_the_resolver_grammar(self, tmp_path):
        from repro.trace.workloads import WORKLOADS, workload_fingerprint

        archive = tmp_path / "t.npz"
        save_trace_npz(
            resolve_workload("cpu:fibonacci", n_cycles=300, seed=1).materialize(), archive
        )
        spec = f"crafty+file:{archive}"
        assert WORKLOADS.file_paths(spec) == [str(archive)]
        assert WORKLOADS.file_paths(f"encoded:bus-invert:file:{archive}") == [str(archive)]
        assert WORKLOADS.file_paths(f"simpoint:file:{archive}") == [str(archive)]
        assert WORKLOADS.file_paths("crafty") == []
        assert workload_fingerprint("cpu:memcopy,crafty") is None
        assert workload_fingerprint(spec) is not None
