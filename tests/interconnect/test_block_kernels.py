"""Bit-identity of the integer-lane block kernels against the scalar reference.

The vectorized engine's contract is that every per-cycle statistic it
produces is **bit-identical** to the scalar kernels in
:mod:`repro.interconnect.crosstalk` -- for any bus width the lanes support,
any shield topology, and any secondary weight (including weights above 0.25,
where the lexicographic score shortcut is invalid and the kernels must take
the rank-table path).  These tests sweep that whole space against randomized
traces, making the scalar path an executable oracle.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.interconnect import block_kernels
from repro.interconnect.block_kernels import (
    block_coupling_energy_weights,
    block_statistics_codes,
    block_toggle_counts,
    block_worst_coupling,
    coupling_score_tables,
    lanes_from_packed,
    lanes_supported,
)
from repro.interconnect.crosstalk import (
    NeighborTopology,
    coupling_energy_weights,
    grouped_shield_topology,
    toggle_counts,
    transitions_from_values,
    worst_coupling_factor_per_cycle,
)
from repro.trace.trace import pack_values, words_to_bits, words_to_packed

#: The kernels' sub-block length: chunks are walked in slices of this many cycles.
SUB_BLOCK = block_kernels._SUB_BLOCK_CYCLES


def _random_values(rng, n_cycles: int, n_bits: int) -> np.ndarray:
    return rng.integers(0, 2, size=(n_cycles + 1, n_bits), dtype=np.uint8)


def _scalar_reference(values: np.ndarray, topology: NeighborTopology):
    transitions = transitions_from_values(values)
    return (
        worst_coupling_factor_per_cycle(transitions, topology),
        toggle_counts(transitions),
        coupling_energy_weights(transitions, topology),
    )


def _decoded_statistics(packed: np.ndarray, topology: NeighborTopology):
    """``(worst_coupling, toggles, weights)`` of a block, the codes looked up as factors."""
    codes, value_by_code, toggles, weights = block_statistics_codes(packed, topology)
    assert codes.dtype == np.uint8
    return value_by_code[codes], toggles, weights


def _assert_matches_scalar(values: np.ndarray, topology: NeighborTopology) -> None:
    expected = _scalar_reference(values, topology)
    got = _decoded_statistics(pack_values(values), topology)
    for reference, measured in zip(expected, got):
        assert measured.dtype == np.float64
        np.testing.assert_array_equal(measured, reference)


class TestLaneLayout:
    @pytest.mark.parametrize("n_bits", (1, 5, 8, 13, 31, 32, 33, 48, 64))
    def test_words_to_packed_matches_bitwise_packing(self, rng, n_bits):
        words = rng.integers(0, 1 << min(n_bits, 63), size=500, dtype=np.uint64)
        expected = pack_values(words_to_bits(words, n_bits))
        np.testing.assert_array_equal(words_to_packed(words, n_bits), expected)

    def test_words_to_packed_masks_bits_beyond_width(self):
        words = np.array([0xFFFF_FFFF_FFFF_FFFF], dtype=np.uint64)
        packed = words_to_packed(words, 13)
        assert packed.shape == (1, 2)
        assert packed[0, 1] == 0b0001_1111  # only bits 8..12 survive

    @pytest.mark.parametrize("n_bits", (57, 60, 63))
    def test_words_to_packed_never_mutates_the_input(self, rng, n_bits):
        # 8-byte widths with a partial top byte alias the caller's buffer
        # unless the implementation copies before masking.
        words = rng.integers(0, 1 << 63, size=100, dtype=np.uint64)
        original = words.copy()
        expected = pack_values(words_to_bits(words, n_bits))
        np.testing.assert_array_equal(words_to_packed(words, n_bits), expected)
        np.testing.assert_array_equal(words, original)

    @pytest.mark.parametrize("n_bits", (1, 8, 17, 32, 33, 64))
    def test_lane_roundtrip_preserves_every_wire(self, rng, n_bits):
        values = _random_values(rng, 200, n_bits)
        lanes = lanes_from_packed(pack_values(values))
        assert lanes.dtype == (np.uint32 if n_bits <= 32 else np.uint64)
        rebuilt = (
            lanes[:, None] >> np.arange(n_bits, dtype=lanes.dtype)
        ).astype(np.uint8) & 1
        np.testing.assert_array_equal(rebuilt, values)

    def test_wider_than_64_wires_is_unsupported(self):
        assert not lanes_supported(65)
        with pytest.raises(ValueError, match="at most 64 wires"):
            lanes_from_packed(np.zeros((2, 9), dtype=np.uint8))


class TestScoreTables:
    def test_default_weight_is_monotone(self):
        tables = coupling_score_tables(grouped_shield_topology(32, 4))
        assert tables.monotone
        # Score order must agree with factor order wherever both occur.
        assert np.all(np.diff(tables.value_by_score) >= 0.0)

    def test_strong_secondary_weight_is_not_monotone(self):
        tables = coupling_score_tables(
            grouped_shield_topology(32, 4, secondary_weight=0.5)
        )
        assert not tables.monotone
        # The rank remap must still order by factor value.
        assert np.all(np.diff(tables.value_by_rank) >= 0.0)

    def test_quiet_score_maps_to_zero(self):
        for weight in (0.0, 0.15, 0.5):
            tables = coupling_score_tables(
                grouped_shield_topology(32, 4, secondary_weight=weight)
            )
            assert tables.value_by_score[0] == 0.0


class TestKernelBitIdentity:
    @pytest.mark.parametrize("n_bits", (1, 2, 3, 8, 9, 31, 32, 33, 48, 64))
    def test_widths(self, rng, n_bits):
        topology = grouped_shield_topology(n_bits, min(4, n_bits))
        _assert_matches_scalar(_random_values(rng, 2_000, n_bits), topology)

    @pytest.mark.parametrize("n_bits", (3, 9, 13, 31))
    def test_constant_pad_bits_are_inert(self, rng, n_bits):
        # The top byte's unused bits never toggle, so setting them must not
        # move any statistic away from the scalar reference.
        topology = grouped_shield_topology(n_bits, min(4, n_bits))
        values = _random_values(rng, 2_000, n_bits)
        packed = pack_values(values)
        packed[:, -1] |= (0xFF << (n_bits % 8)) & 0xFF
        for reference, measured in zip(
            _scalar_reference(values, topology), _decoded_statistics(packed, topology)
        ):
            np.testing.assert_array_equal(measured, reference)

    @pytest.mark.parametrize("weight", (0.0, 0.15, 0.25, 0.3, 0.5, 1.0))
    def test_secondary_weights_cover_both_max_strategies(self, rng, weight):
        topology = grouped_shield_topology(32, 4, secondary_weight=weight)
        values = _random_values(rng, 3_000, 32)
        expected = worst_coupling_factor_per_cycle(
            transitions_from_values(values), topology
        )
        lanes = lanes_from_packed(pack_values(values))
        np.testing.assert_array_equal(block_worst_coupling(lanes, topology), expected)

    @pytest.mark.parametrize("shield_group", (1, 2, 3, 4, 8, 16, 32))
    def test_shield_layouts(self, rng, shield_group):
        topology = grouped_shield_topology(32, shield_group)
        _assert_matches_scalar(_random_values(rng, 2_000, 32), topology)

    def test_unshielded_topology(self, rng):
        # No edge shields at all: every wire pair couples, the wrap-around
        # corner case of the scalar kernel's np.roll masking.
        topology = NeighborTopology(
            n_wires=16,
            left_is_shield=np.zeros(16, dtype=bool),
            right_is_shield=np.zeros(16, dtype=bool),
        )
        _assert_matches_scalar(_random_values(rng, 3_000, 16), topology)

    def test_adversarial_patterns(self):
        # All-quiet, all-toggle, alternating, single-wire and worst-case
        # victim/aggressor patterns -- the canonical Fig. 9 cases.
        patterns = np.array(
            [
                [0x0000_0000, 0x0000_0000],  # quiet cycle
                [0x0000_0000, 0xFFFF_FFFF],  # everything rises together
                [0xFFFF_FFFF, 0x0000_0000],  # everything falls together
                [0x0000_0000, 0x5555_5555],  # alternate rise
                [0x5555_5555, 0xAAAA_AAAA],  # full opposition (lambda = 4)
                [0xAAAA_AAAA, 0xAAAA_AAAA],  # hold
                [0x0000_0000, 0x0000_0001],  # single victim, quiet neighbours
                [0xFFFF_FFFE, 0x0000_0001],  # single riser against fallers
            ],
            dtype=np.uint64,
        ).reshape(-1)
        topology = grouped_shield_topology(32, 4)
        values = words_to_bits(patterns, 32)
        expected = _scalar_reference(values, topology)
        got = _decoded_statistics(words_to_packed(patterns, 32), topology)
        for reference, measured in zip(expected, got):
            np.testing.assert_array_equal(measured, reference)

    def test_sparse_and_dense_toggle_densities(self, rng):
        topology = grouped_shield_topology(32, 4)
        for density in (0.01, 0.2, 0.5, 0.9):
            flips = rng.random(size=(2_001, 32)) < density
            _assert_matches_scalar((np.cumsum(flips, axis=0) & 1).astype(np.uint8), topology)


class TestSubBlocks:
    """Chunks longer than one sub-block are walked in slices; no seams allowed."""

    @pytest.mark.parametrize("weight", (0.15, 0.5))
    @pytest.mark.parametrize(
        "n_cycles", (SUB_BLOCK - 1, SUB_BLOCK, SUB_BLOCK + 1, 2 * SUB_BLOCK + 1)
    )
    def test_statistics_across_sub_block_boundaries(self, rng, weight, n_cycles):
        topology = grouped_shield_topology(32, 4, secondary_weight=weight)
        # Toggle density swept along the trace, so every sub-block mixes
        # quiet, sparse and saturated cycles.
        density = np.linspace(0.0, 1.0, n_cycles + 1)[:, None]
        flips = rng.random(size=(n_cycles + 1, 32)) < density
        _assert_matches_scalar((np.cumsum(flips, axis=0) & 1).astype(np.uint8), topology)

    def test_single_statistic_entry_points_agree(self, rng):
        topology = grouped_shield_topology(48, 4)
        values = _random_values(rng, 2 * SUB_BLOCK + 1, 48)
        worst, toggles, weights = _decoded_statistics(pack_values(values), topology)
        lanes = lanes_from_packed(pack_values(values))
        np.testing.assert_array_equal(block_worst_coupling(lanes, topology), worst)
        np.testing.assert_array_equal(block_toggle_counts(lanes), toggles)
        np.testing.assert_array_equal(
            block_coupling_energy_weights(lanes, topology), weights
        )

    def test_empty_and_single_word_blocks(self):
        topology = grouped_shield_topology(32, 4)
        for n_words in (0, 1):
            got = _decoded_statistics(np.zeros((n_words, 4), dtype=np.uint8), topology)
            for measured in got:
                assert measured.shape == (0,) and measured.dtype == np.float64


#: Secondary weights either side of 0.25, where the factor table stops being
#: monotone and the kernel switches from the bit-sliced max to rank tables.
_WEIGHTS = st.sampled_from((0.0, 0.15, 0.25, 0.3, 0.5, 1.0)) | st.floats(0.0, 1.0)


@st.composite
def _random_designs(draw):
    n_bits = draw(st.integers(1, 64))
    shields = st.lists(st.booleans(), min_size=n_bits, max_size=n_bits)
    topology = NeighborTopology(
        n_wires=n_bits,
        left_is_shield=np.array(draw(shields), dtype=bool),
        right_is_shield=np.array(draw(shields), dtype=bool),
        secondary_weight=draw(_WEIGHTS),
    )
    return topology, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2**32 - 1))


class TestDifferential:
    @seed(2005)
    @settings(max_examples=80, deadline=None)
    @given(
        design=_random_designs(),
        n_cycles=st.integers(0, 600),
        sub_block=st.integers(1, 700),
    )
    def test_random_designs_match_scalar(self, design, n_cycles, sub_block):
        topology, density, trace_seed = design
        generator = np.random.default_rng(trace_seed)
        flips = generator.random(size=(n_cycles + 1, topology.n_wires)) < density
        values = (np.cumsum(flips, axis=0) & 1).astype(np.uint8)
        with mock.patch.object(block_kernels, "_SUB_BLOCK_CYCLES", sub_block):
            _assert_matches_scalar(values, topology)
