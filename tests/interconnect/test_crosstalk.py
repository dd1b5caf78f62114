"""Tests for switching-pattern classification and coupling-factor computation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.interconnect.crosstalk import (
    MILLER_OPPOSITE,
    MILLER_QUIET,
    MILLER_SAME,
    PATTERN_COUPLING_FACTORS,
    NeighborTopology,
    SwitchingPattern,
    classify_pattern,
    coupling_energy_weights,
    effective_coupling_factors,
    grouped_shield_topology,
    toggle_counts,
    transitions_from_values,
    worst_coupling_factor_per_cycle,
)


@pytest.fixture()
def topology() -> NeighborTopology:
    return grouped_shield_topology(32, 4)


@pytest.fixture()
def flat_topology() -> NeighborTopology:
    """A small topology without the second-order correction (pure Miller model)."""
    return grouped_shield_topology(8, 4, secondary_weight=0.0)


def _values(*words):
    """Build a (n_words, n_bits) 0/1 array from bit strings (MSB left)."""
    return np.array([[int(bit) for bit in word[::-1]] for word in words], dtype=np.uint8)


class TestTopology:
    def test_shield_positions_for_paper_bus(self, topology):
        # A shield after every 4 signal wires: wires 0,4,8,... see one on the left.
        assert bool(topology.left_is_shield[0]) and bool(topology.left_is_shield[4])
        assert bool(topology.right_is_shield[3]) and bool(topology.right_is_shield[31])
        assert not topology.left_is_shield[2]

    def test_max_coupling_factor_without_secondary_is_four(self, flat_topology):
        assert flat_topology.max_coupling_factor == pytest.approx(4.0)

    def test_max_coupling_factor_with_secondary_is_attainable_bound(self, topology):
        # In 4-wire shield groups at most one second neighbour is electrically
        # visible, so the bound is 4 + w, not 4 + 2w.
        assert topology.max_coupling_factor == pytest.approx(4.0 + topology.secondary_weight)

    def test_invalid_group_rejected(self):
        with pytest.raises(ValueError):
            grouped_shield_topology(32, 0)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            NeighborTopology(4, np.zeros(3, dtype=bool), np.zeros(4, dtype=bool))


class TestTransitions:
    def test_transitions_values(self):
        values = _values("0000", "0101", "0100")
        transitions = transitions_from_values(values)
        assert transitions.shape == (2, 4)
        assert list(transitions[0]) == [1, 0, 1, 0]
        assert list(transitions[1]) == [-1, 0, 0, 0]

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            transitions_from_values(np.zeros(5))

    def test_toggle_counts(self):
        values = _values("0000", "1111", "1111")
        transitions = transitions_from_values(values)
        assert list(toggle_counts(transitions)) == [4.0, 0.0]


class TestEffectiveCouplingFactors:
    def test_worst_case_pattern_is_four(self, flat_topology):
        # Middle wire rises while both neighbours fall.
        values = np.array([[0, 1, 0, 1, 0, 1, 0, 1], [1, 0, 1, 0, 1, 0, 1, 0]], dtype=np.uint8)
        transitions = transitions_from_values(values)
        factors = effective_coupling_factors(transitions, flat_topology)
        # Wires 1 and 2 (inside the first shield group) see both neighbours opposite.
        assert factors[0, 1] == pytest.approx(4.0)
        assert factors[0, 2] == pytest.approx(4.0)

    def test_quiet_victim_has_zero_factor(self, flat_topology):
        values = np.array([[0, 0, 0, 0, 0, 0, 0, 0], [1, 0, 1, 0, 1, 0, 1, 0]], dtype=np.uint8)
        transitions = transitions_from_values(values)
        factors = effective_coupling_factors(transitions, flat_topology)
        assert factors[0, 1] == 0.0
        assert factors[0, 3] == 0.0

    def test_in_phase_neighbours_give_zero_coupling(self, flat_topology):
        values = np.array([[0, 0, 0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 1, 1, 1]], dtype=np.uint8)
        transitions = transitions_from_values(values)
        factors = effective_coupling_factors(transitions, flat_topology)
        # Wire 1: both neighbours rise with it -> factor 0.
        assert factors[0, 1] == pytest.approx(0.0)

    def test_shield_counts_as_quiet_neighbour(self, flat_topology):
        # Wire 0 rises alone: left neighbour is a shield (quiet), right is quiet.
        values = np.array([[0, 0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0]], dtype=np.uint8)
        transitions = transitions_from_values(values)
        factors = effective_coupling_factors(transitions, flat_topology)
        assert factors[0, 0] == pytest.approx(2.0)

    def test_edge_wire_capped_at_three(self, flat_topology):
        # Wire 0 rises, wire 1 falls: shield (1) + opposite (2) = 3.
        values = np.array([[0, 1, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0]], dtype=np.uint8)
        transitions = transitions_from_values(values)
        factors = effective_coupling_factors(transitions, flat_topology)
        assert factors[0, 0] == pytest.approx(3.0)

    def test_factors_bounded_by_max(self, topology, rng):
        values = rng.integers(0, 2, size=(200, 32)).astype(np.uint8)
        transitions = transitions_from_values(values)
        factors = effective_coupling_factors(transitions, topology)
        assert factors.max() <= topology.max_coupling_factor + 1e-12
        assert factors.min() >= 0.0

    def test_width_mismatch_rejected(self, topology):
        with pytest.raises(ValueError):
            effective_coupling_factors(np.zeros((5, 8), dtype=np.int8), topology)

    @given(
        data=hnp.arrays(
            dtype=np.uint8, shape=(12, 8), elements=st.integers(min_value=0, max_value=1)
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_worst_factor_zero_only_if_no_toggles_property(self, data):
        topology = grouped_shield_topology(8, 4)
        transitions = transitions_from_values(data)
        worst = worst_coupling_factor_per_cycle(transitions, topology)
        toggles = toggle_counts(transitions)
        # A cycle with no switching wire can never produce a delay event.
        assert np.all(worst[toggles == 0] == 0.0)
        assert np.all(worst[toggles > 0] >= 0.0)


class TestCouplingEnergyWeights:
    def test_opposite_pair_weighs_four(self, flat_topology):
        values = np.array([[0, 1, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0]], dtype=np.uint8)
        transitions = transitions_from_values(values)
        weights = coupling_energy_weights(transitions, flat_topology)
        # Pair (0,1) moves oppositely: (1 - (-1))^2 = 4; pair (1,2): (-1-0)^2 = 1;
        # wire 0 faces a shield on its left and toggles: +1.
        assert weights[0] == pytest.approx(4.0 + 1.0 + 1.0)

    def test_quiet_cycle_weighs_zero(self, flat_topology):
        values = np.array([[1, 0, 1, 0, 1, 0, 1, 0]] * 3, dtype=np.uint8)
        transitions = transitions_from_values(values)
        assert np.all(coupling_energy_weights(transitions, flat_topology) == 0.0)

    def test_in_phase_pair_weighs_only_shield_terms(self, flat_topology):
        values = np.array([[0, 0, 0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 0, 0, 0, 0]], dtype=np.uint8)
        transitions = transitions_from_values(values)
        weights = coupling_energy_weights(transitions, flat_topology)
        # Signal-signal relative swings are zero; only the two shield-facing
        # wires (0 and 3) contribute 1 each.
        assert weights[0] == pytest.approx(2.0)

    def test_width_mismatch_rejected(self, flat_topology):
        with pytest.raises(ValueError):
            coupling_energy_weights(np.zeros((3, 9), dtype=np.int8), flat_topology)


class TestPatternClassification:
    def test_canonical_patterns(self):
        assert classify_pattern(1, -1, -1)[0] is SwitchingPattern.WORST_CASE
        assert classify_pattern(1, -1, 0)[0] is SwitchingPattern.NEXT_WORST
        assert classify_pattern(1, 1, 1)[0] is SwitchingPattern.BEST_CASE
        assert classify_pattern(0, 1, -1)[0] is SwitchingPattern.NEUTRAL

    def test_pattern_factor_table(self):
        assert PATTERN_COUPLING_FACTORS[SwitchingPattern.WORST_CASE] == 4.0
        assert PATTERN_COUPLING_FACTORS[SwitchingPattern.NEXT_WORST] == 3.0

    def test_miller_constants(self):
        assert MILLER_OPPOSITE == 2.0 and MILLER_QUIET == 1.0 and MILLER_SAME == 0.0
