"""The segment reducer against a per-piece ``np.unique`` reference.

:meth:`TraceStatistics.summaries` turns a chunk's per-cycle statistics into
one :class:`TraceSummary` per piece with a single bincount over integer
codes.  Every summary must equal what a plain per-piece reduction of the
float statistics gives -- whatever the piece lengths (down to one cycle),
wherever chunk and kernel sub-block seams fall, for monotone and
non-monotone factor tables, for codes that fold onto one value, and for
buses too wide for the lane kernels.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.bus.bus_model import (
    TraceStatistics,
    analyze_trace_statistics,
    scalar_trace_statistics,
)
from repro.interconnect import block_kernels
from repro.interconnect.block_kernels import coupling_score_tables
from repro.interconnect.crosstalk import NeighborTopology, grouped_shield_topology
from repro.runtime.parallel import ChunkSegmenter, statistics_pass
from repro.trace.trace import BusTrace
from tests.pass_plan import KERNELS, forced_plan


def _random_trace(n_cycles: int, n_bits: int, trace_seed: int, density: float = 0.4) -> BusTrace:
    generator = np.random.default_rng(trace_seed)
    flips = generator.random(size=(n_cycles + 1, n_bits)) < density
    return BusTrace(values=(np.cumsum(flips, axis=0) & 1).astype(np.uint8))


def _reference(stats, edges):
    """Per-piece ``(n, toggles, weights, values, counts)`` straight from the floats."""
    pieces = []
    for start, end in zip(edges, edges[1:]):
        values, counts = np.unique(stats.worst_coupling[start:end], return_counts=True)
        pieces.append(
            (
                end - start,
                float(np.sum(stats.toggles[start:end])),
                float(np.sum(stats.coupling_weights[start:end])),
                values,
                counts,
            )
        )
    return pieces


def _assert_matches(summaries, reference):
    assert len(summaries) == len(reference)
    for summary, (n_cycles, toggles, weights, values, counts) in zip(summaries, reference):
        assert summary.n_cycles == n_cycles
        assert summary.toggles_total == toggles
        assert summary.coupling_weights_total == weights
        np.testing.assert_array_equal(summary.worst_coupling_values, values)
        np.testing.assert_array_equal(summary.worst_coupling_counts, counts)
        assert np.all(np.diff(summary.worst_coupling_values) > 0)


def _topology(n_bits: int, weight: float) -> NeighborTopology:
    return grouped_shield_topology(n_bits, 4, weight)


class TestCodedSummaries:
    @pytest.mark.parametrize("weight", (0.0, 0.15, 0.25, 0.4, 0.9))
    def test_kernel_codes_match_reference(self, weight):
        topology = _topology(32, weight)
        trace = _random_trace(2_000, 32, trace_seed=3)
        reference_stats = scalar_trace_statistics(trace, topology)
        edges = [0, 1, 2, 3, 500, 501, 1_024, 1_999, 2_000]
        coded = analyze_trace_statistics(trace, topology)
        _assert_matches(coded.summaries(edges[:-1]), _reference(reference_stats, edges))

    def test_one_cycle_pieces(self):
        topology = _topology(16, 0.15)
        trace = _random_trace(64, 16, trace_seed=5)
        stats = analyze_trace_statistics(trace, topology)
        edges = list(range(65))
        summaries = analyze_trace_statistics(trace, topology).summaries(edges[:-1])
        _assert_matches(summaries, _reference(stats, edges))

    def test_codes_sharing_a_value_fold_into_one_bin(self):
        # With no secondary correction every q maps to the same factor, so
        # the score table repeats values and the reducer must fold them.
        topology = _topology(32, 0.0)
        table = coupling_score_tables(topology).value_by_code
        assert len(np.unique(table)) < len(table)
        trace = _random_trace(3_000, 32, trace_seed=9, density=0.6)
        stats = scalar_trace_statistics(trace, topology)
        edges = [0, 1_500, 3_000]
        summaries = analyze_trace_statistics(trace, topology).summaries(edges[:-1])
        _assert_matches(summaries, _reference(stats, edges))

    def test_non_monotone_table_uses_rank_codes(self):
        topology = _topology(32, 0.4)
        assert not coupling_score_tables(topology).monotone
        trace = _random_trace(1_000, 32, trace_seed=13)
        coded = analyze_trace_statistics(trace, topology)
        assert np.all(np.diff(coded.values) >= 0)
        np.testing.assert_array_equal(
            coded.values[coded.codes],
            scalar_trace_statistics(trace, topology).worst_coupling,
        )

    def test_bus_wider_than_lanes_codes_distinct_floats(self):
        topology = _topology(72, 0.15)
        trace = _random_trace(700, 72, trace_seed=17)
        stats = scalar_trace_statistics(trace, topology)
        coded = analyze_trace_statistics(trace, topology)
        assert np.all(np.diff(coded.values) > 0)
        edges = [0, 1, 350, 699, 700]
        _assert_matches(coded.summaries(edges[:-1]), _reference(stats, edges))

    def test_precomputed_statistics(self):
        topology = _topology(32, 0.15)
        trace = _random_trace(900, 32, trace_seed=19)
        stats = analyze_trace_statistics(trace, topology)
        reference_stats = scalar_trace_statistics(trace, topology)
        edges = [0, 7, 450, 900]
        _assert_matches(stats.summaries(edges[:-1]), _reference(reference_stats, edges))
        _assert_matches([stats.summarize()], _reference(reference_stats, [0, 900]))

    @pytest.mark.parametrize("n_values", (1, 2, 48, 49, 300))
    def test_precomputed_codes_are_unique_inverse(self, n_values):
        # Few distinct values are coded by compare passes, many by a binary
        # search; both must give np.unique's inverse.
        generator = np.random.default_rng(n_values)
        table = np.sort(generator.choice(np.linspace(0.0, 4.0, 1_000), n_values, replace=False))
        worst = generator.permutation(np.resize(table, 2_000))
        toggles, weights = np.ones(2_000), np.zeros(2_000)
        coded = TraceStatistics.from_arrays(worst, toggles, weights)
        values, inverse = np.unique(worst, return_inverse=True)
        np.testing.assert_array_equal(coded.values, values)
        np.testing.assert_array_equal(coded.codes, inverse)
        floats = SimpleNamespace(worst_coupling=worst, toggles=toggles, coupling_weights=weights)
        edges = [0, 1, 999, 2_000]
        _assert_matches(coded.summaries(edges[:-1]), _reference(floats, edges))

    @pytest.mark.parametrize("offsets", ([], [1, 5], [0, 5, 5], [0, 10]))
    def test_invalid_offsets_are_rejected(self, offsets):
        topology = _topology(8, 0.15)
        coded = analyze_trace_statistics(_random_trace(10, 8, trace_seed=23), topology)
        with pytest.raises(ValueError, match="offsets"):
            coded.summaries(offsets)


class TestStatisticsCodes:
    """One per-cycle type: the kernels' codes, sliced and joined as codes."""

    def test_paper_bus_statistics_hold_uint8_codes(self, paper_design):
        topology = paper_design.topology
        trace = _random_trace(500, 32, trace_seed=29)
        stats = analyze_trace_statistics(trace, topology)
        assert stats.codes.dtype == np.uint8
        assert stats.values is coupling_score_tables(topology).value_by_code
        np.testing.assert_array_equal(
            stats.worst_coupling, scalar_trace_statistics(trace, topology).worst_coupling
        )

    def test_concatenate_joins_codes_of_equal_tables(self):
        topology = _topology(32, 0.15)
        traces = [_random_trace(600, 32, trace_seed=s) for s in (31, 37)]
        first, second = (analyze_trace_statistics(trace, topology) for trace in traces)
        joined = first.concatenate(second)
        assert joined.values is first.values
        assert joined.codes.dtype == np.uint8
        np.testing.assert_array_equal(joined.codes, np.concatenate([first.codes, second.codes]))
        scalar = [scalar_trace_statistics(trace, topology) for trace in traces]
        for name in ("worst_coupling", "toggles", "coupling_weights"):
            np.testing.assert_array_equal(
                getattr(joined, name), np.concatenate([getattr(s, name) for s in scalar])
            )

    def test_concatenate_recodes_different_tables(self):
        # Buses wider than the lanes are coded by each trace's own distinct
        # factors, so two traces rarely share a table.
        topology = _topology(72, 0.15)
        traces = [_random_trace(400, 72, trace_seed=41), _random_trace(300, 72, 43, 0.05)]
        first, second = (analyze_trace_statistics(trace, topology) for trace in traces)
        assert not np.array_equal(first.values, second.values)
        joined = first.concatenate(second)
        worst = np.concatenate([first.worst_coupling, second.worst_coupling])
        np.testing.assert_array_equal(joined.worst_coupling, worst)
        np.testing.assert_array_equal(joined.values, np.unique(worst))
        floats = SimpleNamespace(
            worst_coupling=worst,
            toggles=np.concatenate([first.toggles, second.toggles]),
            coupling_weights=np.concatenate([first.coupling_weights, second.coupling_weights]),
        )
        edges = [0, 399, 401, 700]
        _assert_matches(joined.summaries(edges[:-1]), _reference(floats, edges))

    def test_slice_keeps_the_value_table(self):
        topology = _topology(32, 0.4)
        trace = _random_trace(800, 32, trace_seed=47)
        stats = analyze_trace_statistics(trace, topology)
        window = stats.slice(100, 350)
        assert window.values is stats.values
        np.testing.assert_array_equal(window.worst_coupling, stats.worst_coupling[100:350])
        reference = scalar_trace_statistics(trace, topology).slice(100, 350)
        _assert_matches([window.summarize()], _reference(reference, [0, 250]))

    def test_shapes_are_checked(self):
        with pytest.raises(ValueError, match="toggles"):
            TraceStatistics(np.zeros(3, np.uint8), np.zeros(1), np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError, match="values"):
            TraceStatistics(np.zeros(3, np.uint8), np.zeros((1, 1)), np.zeros(3), np.zeros(3))


#: Bus widths the lane kernels hold, and widths that fall back to the scalar kernels.
WIDTHS = {"lanes": st.integers(1, 64), "scalar": st.integers(65, 80)}


@st.composite
def _passes(draw, widths):
    """A random design, trace and segmentation."""
    n_bits = draw(widths)
    shields = st.lists(st.booleans(), min_size=n_bits, max_size=n_bits)
    topology = NeighborTopology(
        n_wires=n_bits,
        left_is_shield=np.array(draw(shields), dtype=bool),
        right_is_shield=np.array(draw(shields), dtype=bool),
        secondary_weight=draw(st.sampled_from((0.0, 0.15, 0.25, 0.3, 0.75))),
    )
    n_cycles = draw(st.integers(1, 700))
    segmenter = ChunkSegmenter(
        n_cycles=n_cycles,
        window_cycles=draw(st.integers(0, 200)),
        ramp_delay_cycles=draw(st.integers(0, 120)),
        warmup_cycles=draw(st.integers(0, n_cycles - 1)),
    )
    trace = _random_trace(n_cycles, n_bits, draw(st.integers(0, 2**32 - 1)), draw(st.floats(0, 1)))
    return topology, trace, segmenter


class TestPassSeams:
    """The whole pass: pieces cross chunk and sub-block seams at random."""

    @pytest.mark.parametrize("kernels", sorted(WIDTHS))
    @seed(2005)
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        chunk_cycles=st.integers(1, 400),
        sub_block=st.integers(1, 300),
        kernel=st.sampled_from(KERNELS),
    )
    def test_pass_matches_per_segment_reference(
        self, kernels, data, chunk_cycles, sub_block, kernel
    ):
        topology, trace, segmenter = data.draw(_passes(WIDTHS[kernels]))
        reference_stats = scalar_trace_statistics(trace, topology)
        with (
            mock.patch.object(block_kernels, "_SUB_BLOCK_CYCLES", sub_block),
            forced_plan(kernel, chunk_cycles),
        ):
            (summaries,) = statistics_pass([(trace, segmenter)], topology)
        _assert_matches(summaries, _reference(reference_stats, segmenter.boundaries().tolist()))
