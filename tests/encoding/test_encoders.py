"""Tests for the bus encoding schemes (round trips, bounds, activity effects)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding import (
    BusInvertEncoder,
    GrayEncoder,
    IdentityEncoder,
    TransitionEncoder,
    gray_decode_words,
    gray_encode_words,
)
from repro.trace.trace import BusTrace
from tests.encoding.bus_invert_reference import reference_encode_block


def _trace_from_words(words, n_bits=8):
    return BusTrace.from_words(words, n_bits=n_bits, name="test")


def _random_trace(rng, n_words=64, n_bits=16):
    values = rng.integers(0, 2, size=(n_words, n_bits), dtype=np.uint8)
    return BusTrace(values=values, name="random")


#: Encoders whose decode must invert encode for any trace.
ROUND_TRIP_ENCODERS = [
    IdentityEncoder(),
    BusInvertEncoder(),
    BusInvertEncoder(group_size=4),
    GrayEncoder(),
    TransitionEncoder(),
]


@pytest.mark.parametrize("encoder", ROUND_TRIP_ENCODERS, ids=lambda e: e.name)
class TestRoundTrip:
    def test_decode_inverts_encode(self, encoder, rng):
        trace = _random_trace(rng)
        recovered = encoder.decode(encoder.encode(trace))
        np.testing.assert_array_equal(recovered.values, trace.values)

    def test_round_trip_restores_name(self, encoder, rng):
        trace = _random_trace(rng)
        assert encoder.decode(encoder.encode(trace)).name == trace.name

    def test_encoded_width_matches_declared_width(self, encoder, rng):
        trace = _random_trace(rng)
        assert encoder.encode(trace).n_bits == encoder.encoded_bits(trace.n_bits)


@given(data=st.lists(st.integers(min_value=0, max_value=255), min_size=2, max_size=40))
@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("encoder", ROUND_TRIP_ENCODERS, ids=lambda e: e.name)
def test_round_trip_property(encoder, data):
    trace = _trace_from_words(data, n_bits=8)
    recovered = encoder.decode(encoder.encode(trace))
    np.testing.assert_array_equal(recovered.values, trace.values)


class TestBusInvert:
    def test_first_word_transmitted_unmodified(self):
        trace = _trace_from_words([0b1010, 0b0101], n_bits=4)
        encoded = BusInvertEncoder().encode(trace)
        np.testing.assert_array_equal(encoded.values[0, :4], trace.values[0])
        assert encoded.values[0, 4] == 0

    def test_high_distance_word_is_inverted(self):
        # 0x00 -> 0xFF toggles all 8 wires unencoded; bus-invert must flip it.
        trace = _trace_from_words([0x00, 0xFF], n_bits=8)
        encoded = BusInvertEncoder().encode(trace)
        assert encoded.values[1, 8] == 1
        np.testing.assert_array_equal(encoded.values[1, :8], np.zeros(8, dtype=np.uint8))

    def test_low_distance_word_is_not_inverted(self):
        trace = _trace_from_words([0x00, 0x01], n_bits=8)
        encoded = BusInvertEncoder().encode(trace)
        assert encoded.values[1, 8] == 0

    def test_transitions_bounded_by_half_the_group_plus_invert_line(self, rng):
        encoder = BusInvertEncoder()
        trace = _random_trace(rng, n_words=200, n_bits=16)
        encoded = encoder.encode(trace)
        transitions = np.abs(np.diff(encoded.values.astype(np.int8), axis=0)).sum(axis=1)
        assert transitions.max() <= (16 + 1) // 2 + 1

    def test_partitioned_variant_adds_one_line_per_group(self):
        encoder = BusInvertEncoder(group_size=8)
        assert encoder.encoded_bits(32) == 36
        assert encoder.n_groups(32) == 4

    @pytest.mark.parametrize("group_size", [None, *range(1, 10)])
    def test_n_groups_counts_the_distinct_wire_groups(self, group_size):
        encoder = BusInvertEncoder(group_size=group_size)
        for n_bits in range(1, 65):
            size = n_bits if group_size is None else group_size
            expected = len(np.unique(np.arange(n_bits) // size))
            assert encoder.n_groups(n_bits) == expected, n_bits

    def test_uneven_final_group_is_supported(self, rng):
        encoder = BusInvertEncoder(group_size=5)
        trace = _random_trace(rng, n_words=50, n_bits=12)  # groups of 5, 5, 2
        recovered = encoder.decode(encoder.encode(trace))
        np.testing.assert_array_equal(recovered.values, trace.values)

    def test_reduces_activity_on_high_entropy_data(self, rng):
        trace = _random_trace(rng, n_words=2000, n_bits=16)
        encoded = BusInvertEncoder().encode(trace)
        unencoded_toggles = np.abs(np.diff(trace.values.astype(np.int8), axis=0)).sum()
        encoded_toggles = np.abs(np.diff(encoded.values.astype(np.int8), axis=0)).sum()
        assert encoded_toggles < unencoded_toggles

    def test_tie_word_pulls_invert_line_low(self):
        # On 3 wires a data Hamming distance of 2 is the tie 2h = w + 1: the
        # invert line goes low whatever it was (1 -> 0, then 0 -> 0).
        trace = _trace_from_words([0b000, 0b111, 0b110, 0b000, 0b011], n_bits=3)
        encoded = BusInvertEncoder().encode(trace)
        assert encoded.values[:, 3].tolist() == [0, 1, 1, 0, 0]
        np.testing.assert_array_equal(encoded.values[3:, :3], trace.values[3:])
        reference, _ = reference_encode_block(trace.values, None, None)
        np.testing.assert_array_equal(encoded.values, reference)

    def test_extra_bits_requires_width(self):
        with pytest.raises(AttributeError):
            _ = BusInvertEncoder().extra_bits

    def test_invalid_group_size_rejected(self):
        with pytest.raises(ValueError):
            BusInvertEncoder(group_size=0)

    def test_decode_rejects_impossible_width(self):
        encoder = BusInvertEncoder(group_size=8)
        bad = BusTrace(values=np.zeros((3, 10), dtype=np.uint8), name="bad")
        with pytest.raises(ValueError):
            encoder.decode(bad)


@st.composite
def _bus_invert_cases(draw):
    """A group size, 0/1 words with held runs, and block cut points."""
    group_size = draw(st.sampled_from([None, 1, 3, 8]))
    n_bits = draw(st.integers(min_value=1, max_value=39))
    runs = draw(
        st.lists(
            st.tuples(st.integers(0, 2**n_bits - 1), st.integers(1, 4)), min_size=2, max_size=30
        )
    )
    words = np.array([word for word, count in runs for _ in range(count)], dtype=np.uint64)
    values = ((words[:, None] >> np.arange(n_bits, dtype=np.uint64)) & 1).astype(np.uint8)
    cuts = sorted(draw(st.lists(st.integers(1, len(words)), max_size=4)))
    return group_size, values, cuts


@given(case=_bus_invert_cases())
@settings(max_examples=300, deadline=None)
def test_bus_invert_matches_per_word_reference(case):
    """The closed-form decisions equal the per-word cost comparison, streamed or not."""
    group_size, values, cuts = case
    encoder = BusInvertEncoder(group_size)
    expected, expected_state = reference_encode_block(values, group_size, None)

    whole = encoder.encode(BusTrace(values=values)).values
    np.testing.assert_array_equal(whole, expected)

    blocks, state = [], None
    for start, stop in zip([0, *cuts], [*cuts, len(values)]):
        encoded, state = encoder.encode_block(values[start:stop], state)
        blocks.append(encoded)
    np.testing.assert_array_equal(np.concatenate(blocks), expected)
    for carried, reference in zip(state, expected_state):
        np.testing.assert_array_equal(carried, reference)
        assert carried.dtype == reference.dtype


class TestGray:
    def test_consecutive_integers_differ_in_one_bit(self):
        words = np.arange(256, dtype=np.uint64)
        codes = gray_encode_words(words)
        bits = (codes[:, None] >> np.arange(9, dtype=np.uint64)) & 1
        distances = np.abs(np.diff(bits.astype(np.int8), axis=0)).sum(axis=1)
        assert np.all(distances == 1)

    def test_decode_inverts_encode_for_full_range(self):
        words = np.arange(1 << 12, dtype=np.uint64)
        recovered = gray_decode_words(gray_encode_words(words), n_bits=12)
        np.testing.assert_array_equal(recovered, words)

    def test_counting_trace_activity_drops_to_one_toggle_per_cycle(self):
        trace = _trace_from_words(list(range(200)), n_bits=8)
        encoded = GrayEncoder().encode(trace)
        assert encoded.toggle_activity() == pytest.approx(1.0 / 8)
        assert trace.toggle_activity() > encoded.toggle_activity()

    def test_invalid_bit_width_rejected(self):
        with pytest.raises(ValueError):
            gray_decode_words(np.array([1], dtype=np.uint64), n_bits=0)
        with pytest.raises(ValueError):
            gray_decode_words(np.array([1], dtype=np.uint64), n_bits=65)


class TestTransition:
    def test_toggles_equal_hamming_weight_of_data(self):
        trace = _trace_from_words([0b0000, 0b0011, 0b0001, 0b1111], n_bits=4)
        encoded = TransitionEncoder().encode(trace)
        toggles = np.abs(np.diff(encoded.values.astype(np.int8), axis=0)).sum(axis=1)
        weights = trace.values[1:].sum(axis=1)
        np.testing.assert_array_equal(toggles, weights)

    def test_sparse_data_gets_quieter_dense_data_gets_noisier(self, rng):
        sparse_words = rng.integers(0, 4, size=500)  # weight <= 2 per word
        sparse = _trace_from_words(sparse_words, n_bits=16)
        encoded_sparse = TransitionEncoder().encode(sparse)
        assert encoded_sparse.toggle_activity() <= sparse.toggle_activity() + 1e-9

        dense = _trace_from_words([0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF], n_bits=16)
        encoded_dense = TransitionEncoder().encode(dense)
        assert encoded_dense.toggle_activity() > dense.toggle_activity()

    def test_first_wire_state_is_first_data_word(self, rng):
        trace = _random_trace(rng)
        encoded = TransitionEncoder().encode(trace)
        np.testing.assert_array_equal(encoded.values[0], trace.values[0])
