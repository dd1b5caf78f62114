"""Tests for the trace container, generators, profiles and SimPoint analog."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.trace import (
    SPEC2000_PROFILES,
    TABLE1_ORDER,
    BusTrace,
    concatenate_traces,
    generate_benchmark_trace,
    generate_suite,
    generate_trace,
    get_profile,
    select_simpoints,
    window_signatures,
)
from repro.trace.benchmarks import BenchmarkProfile, ProgramPhase, WordMix


@st.composite
def _width_and_words(draw):
    """A bus width in 1..64 and at least two words that fit in it."""
    width = draw(st.integers(min_value=1, max_value=64))
    word = st.integers(min_value=0, max_value=2**width - 1)
    words = draw(st.lists(word, min_size=2, max_size=40))
    return width, words


class TestBusTrace:
    def test_from_words_round_trip(self):
        words = [0x0, 0xFFFFFFFF, 0x12345678, 0xDEADBEEF]
        trace = BusTrace.from_words(words)
        assert list(trace.to_words()) == words

    def test_n_cycles_is_words_minus_one(self):
        trace = BusTrace.from_words([1, 2, 3, 4])
        assert trace.n_cycles == 3
        assert len(trace) == 3

    def test_window_extraction(self):
        trace = BusTrace.from_words(list(range(100)))
        window = trace.window(10, 20)
        assert window.n_cycles == 20
        assert list(window.to_words()) == list(range(10, 31))

    def test_window_out_of_range_rejected(self):
        trace = BusTrace.from_words([1, 2, 3])
        with pytest.raises(ValueError):
            trace.window(1, 5)

    def test_concatenate_includes_boundary_transition(self):
        first = BusTrace.from_words([0, 1])
        second = BusTrace.from_words([2, 3])
        combined = first.concatenate(second)
        assert combined.n_cycles == 3
        assert list(combined.to_words()) == [0, 1, 2, 3]

    def test_concatenate_width_mismatch_rejected(self):
        a = BusTrace.from_words([0, 1], n_bits=32)
        b = BusTrace.from_words([0, 1], n_bits=16)
        with pytest.raises(ValueError):
            a.concatenate(b)

    def test_concatenate_traces_helper(self):
        traces = [BusTrace.from_words([0, 1]), BusTrace.from_words([2, 3])]
        suite = concatenate_traces(traces, name="suite")
        assert suite.name == "suite"
        assert suite.n_cycles == 3

    def test_toggle_activity_bounds(self):
        quiet = BusTrace.from_words([5, 5, 5, 5])
        busy = BusTrace.from_words([0, 0xFFFFFFFF, 0, 0xFFFFFFFF])
        assert quiet.toggle_activity() == 0.0
        assert busy.toggle_activity() == 1.0

    def test_values_must_be_binary(self):
        with pytest.raises(ValueError):
            BusTrace(values=np.array([[0, 2], [1, 0]]))

    def test_single_word_rejected(self):
        with pytest.raises(ValueError):
            BusTrace.from_words([1])

    def test_to_words_never_unpacks(self, monkeypatch):
        # The packed rows already are the little-endian words.
        from repro.trace import trace as trace_module

        unpack = trace_module.unpack_values
        calls = []

        def counting_unpack(*args):
            calls.append(args)
            return unpack(*args)

        monkeypatch.setattr(trace_module, "unpack_values", counting_unpack)
        words = [0x0, 0x1234_5678, 0xFFFF_FFFF, 0x8000_0001]
        converted = BusTrace.from_words(words, n_bits=32).to_words()
        assert converted.dtype == np.uint64
        assert converted.tolist() == words
        assert calls == []

    def test_wider_than_64_bits_has_no_words(self):
        # Wire 65 does not fit a 64-bit word; dropping it would write wrong hex.
        bits = np.zeros((2, 70), dtype=np.uint8)
        bits[1, 65] = 1
        with pytest.raises(ValueError, match="64-bit words"):
            BusTrace(values=bits).to_words()

    @given(case=_width_and_words())
    @example(case=(1, [0, 1, 1, 0]))
    @example(case=(8, [0xFF, 0x00, 0x80]))
    @example(case=(9, [0x1FF, 0x100, 0x0FF]))
    @example(case=(64, [2**64 - 1, 0, 2**63, 1]))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, case):
        width, words = case
        # Reference 0/1 array from Python integers, independent of the packer.
        bits = np.array([[(word >> bit) & 1 for bit in range(width)] for word in words], np.uint8)
        np.testing.assert_array_equal(BusTrace(values=bits).values, bits)
        trace = BusTrace.from_words(words, n_bits=width)
        assert trace.n_bits == width
        assert [int(word) for word in trace.to_words()] == words
        np.testing.assert_array_equal(trace.values, bits)
        start = len(words) // 3
        n_cycles = len(words) - 1 - start
        window = trace.window(start, n_cycles)
        assert window.n_bits == width
        np.testing.assert_array_equal(window.values, bits[start : start + n_cycles + 1])
        reversed_trace = BusTrace(values=bits[::-1])
        np.testing.assert_array_equal(
            trace.concatenate(reversed_trace).values, np.concatenate([bits, bits[::-1]])
        )


class TestProfiles:
    def test_all_ten_benchmarks_present(self):
        assert set(TABLE1_ORDER) == set(SPEC2000_PROFILES)
        assert len(TABLE1_ORDER) == 10

    def test_get_profile_case_insensitive(self):
        assert get_profile("CRAFTY").name == "crafty"

    def test_get_profile_unknown_raises(self):
        with pytest.raises(KeyError):
            get_profile("notabenchmark")

    def test_mixture_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WordMix(hold=0.5, small_int=0.1, pointer=0.1, float_like=0.1, random=0.1)

    def test_profile_requires_phases(self):
        with pytest.raises(ValueError):
            BenchmarkProfile(name="x", description="", phases=())

    def test_phase_weights_normalised(self):
        mix = WordMix(hold=1.0, small_int=0.0, pointer=0.0, float_like=0.0, random=0.0)
        profile = BenchmarkProfile(
            name="x",
            description="",
            phases=(ProgramPhase(mix, 1.0), ProgramPhase(mix, 3.0)),
        )
        assert profile.phase_weights == pytest.approx((0.25, 0.75))

    def test_fp_profiles_are_more_adverse_than_integer_profiles(self):
        def random_share(profile):
            return sum(
                (phase.mix.random + phase.mix.float_like) * weight
                for phase, weight in zip(profile.phases, profile.phase_weights)
            )

        assert random_share(get_profile("mgrid")) > random_share(get_profile("crafty"))
        assert random_share(get_profile("swim")) > random_share(get_profile("mcf"))


class TestSyntheticGenerator:
    def test_trace_length_and_width(self):
        trace = generate_benchmark_trace("crafty", n_cycles=5000, seed=1)
        assert trace.n_cycles == 5000
        assert trace.n_bits == 32

    def test_deterministic_for_same_seed(self):
        a = generate_benchmark_trace("vortex", n_cycles=2000, seed=3)
        b = generate_benchmark_trace("vortex", n_cycles=2000, seed=3)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = generate_benchmark_trace("vortex", n_cycles=2000, seed=3)
        b = generate_benchmark_trace("vortex", n_cycles=2000, seed=4)
        assert not np.array_equal(a.values, b.values)

    def test_mgrid_busier_than_crafty(self):
        crafty = generate_benchmark_trace("crafty", n_cycles=20000, seed=5)
        mgrid = generate_benchmark_trace("mgrid", n_cycles=20000, seed=5)
        assert mgrid.toggle_activity() > crafty.toggle_activity()

    def test_invalid_cycles_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(get_profile("crafty"), 0)

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(get_profile("crafty"), 100, n_bits=0)

    def test_narrow_bus_supported(self):
        trace = generate_trace(get_profile("gap"), 500, n_bits=16, seed=2)
        assert trace.n_bits == 16

    def test_suite_has_independent_streams(self):
        suite = generate_suite(names=("crafty", "mcf"), n_cycles=1000, seed=10)
        assert set(suite) == {"crafty", "mcf"}
        assert not np.array_equal(suite["crafty"].values, suite["mcf"].values)

    def test_suite_regeneration_is_stable(self):
        first = generate_suite(names=("crafty", "gap"), n_cycles=1000, seed=10)
        second = generate_suite(names=("crafty", "gap"), n_cycles=1000, seed=10)
        assert np.array_equal(first["gap"].values, second["gap"].values)

    def test_concatenated_suite_length(self):
        suite = concatenate_traces(
            generate_suite(names=("crafty", "mcf"), n_cycles=1000, seed=1).values()
        )
        assert suite.n_cycles == 2 * 1000 + 1  # plus the boundary transition


class TestSimPoint:
    def test_signatures_shape(self):
        trace = generate_benchmark_trace("vpr", n_cycles=10000, seed=6)
        signatures = window_signatures(trace, 1000)
        assert signatures.shape == (10, 33)

    def test_signature_window_too_long_rejected(self):
        trace = generate_benchmark_trace("vpr", n_cycles=500, seed=6)
        with pytest.raises(ValueError):
            window_signatures(trace, 1000)

    def test_selection_weights_sum_to_one(self):
        trace = generate_benchmark_trace("vpr", n_cycles=20000, seed=6)
        selection = select_simpoints(trace, window_length=1000, n_clusters=4, seed=0)
        assert sum(selection.weights) == pytest.approx(1.0)
        assert selection.n_clusters <= 4

    def test_extracted_windows_have_requested_length(self):
        trace = generate_benchmark_trace("applu", n_cycles=20000, seed=6)
        selection = select_simpoints(trace, window_length=2000, n_clusters=3, seed=0)
        for window in selection.extract(trace):
            assert window.n_cycles == 2000

    def test_weighted_estimate(self):
        trace = generate_benchmark_trace("applu", n_cycles=10000, seed=6)
        selection = select_simpoints(trace, window_length=1000, n_clusters=2, seed=0)
        values = np.arange(selection.n_clusters, dtype=float)
        estimate = selection.weighted_estimate(values)
        assert 0.0 <= estimate <= selection.n_clusters - 1

    def test_weighted_estimate_shape_mismatch(self):
        trace = generate_benchmark_trace("applu", n_cycles=10000, seed=6)
        selection = select_simpoints(trace, window_length=1000, n_clusters=2, seed=0)
        with pytest.raises(ValueError):
            selection.weighted_estimate(np.zeros(selection.n_clusters + 1))

    def test_clusters_clamped_to_window_count(self):
        trace = generate_benchmark_trace("applu", n_cycles=3000, seed=6)
        selection = select_simpoints(trace, window_length=1000, n_clusters=10, seed=0)
        assert selection.n_clusters <= 3

    def _assert_selection_consistent(self, selection):
        """Labels must index representative_windows/weights, weights sum to 1."""
        assert len(selection.weights) == len(selection.representative_windows)
        assert sum(selection.weights) == pytest.approx(1.0)
        assert selection.labels.min() >= 0
        assert selection.labels.max() < selection.n_clusters
        # Every cluster must actually own the windows its weight claims.
        for cluster, weight in enumerate(selection.weights):
            share = np.mean(selection.labels == cluster)
            assert share == pytest.approx(weight)

    def test_degenerate_duplicate_signatures_collapse_consistently(self):
        # A constant trace: every window has the identical (all-zero)
        # signature, so the k-means++ seeding places duplicate centroids and
        # all but one cluster empties.  The emptied clusters must be dropped
        # and the labels remapped -- the historical bug left labels pointing
        # past the surviving representative/weight lists.
        words = np.full(8001, 0xA5A5A5A5, dtype=np.uint64)
        trace = BusTrace.from_words(words, n_bits=32, name="constant")
        for seed in range(5):
            selection = select_simpoints(trace, window_length=1000, n_clusters=4, seed=seed)
            self._assert_selection_consistent(selection)
            assert selection.n_clusters == 1
            assert selection.weights == (1.0,)
            np.testing.assert_array_equal(selection.labels, np.zeros(8, dtype=int))
            assert len(selection.extract(trace)) == 1
            assert selection.weighted_estimate([3.5]) == pytest.approx(3.5)

    def test_two_signature_groups_with_excess_clusters(self):
        # Two genuinely distinct phases but more clusters requested than
        # distinct signatures: surviving clusters must stay label-consistent.
        quiet = np.zeros(4000, dtype=np.uint64)
        noisy = np.tile(np.array([0, 0xFFFFFFFF], dtype=np.uint64), 2000)
        words = np.concatenate([quiet, noisy, [np.uint64(0)]])
        trace = BusTrace.from_words(words, n_bits=32, name="two-phase")
        for seed in range(5):
            selection = select_simpoints(trace, window_length=1000, n_clusters=5, seed=seed)
            self._assert_selection_consistent(selection)
            assert selection.n_clusters == 2

    def test_selection_labels_always_index_weights(self):
        trace = generate_benchmark_trace("vpr", n_cycles=20000, seed=6)
        for n_clusters in (2, 3, 5, 8):
            selection = select_simpoints(
                trace, window_length=1000, n_clusters=n_clusters, seed=1
            )
            self._assert_selection_consistent(selection)
