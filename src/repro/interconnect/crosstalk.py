"""Crosstalk / neighbour-switching-pattern modelling.

Delay on a victim wire depends on what its lateral neighbours do in the same
cycle (paper Fig. 9).  The standard Miller-factor abstraction is used:

* a neighbour switching in the *opposite* direction contributes its coupling
  capacitance twice (factor 2),
* a *quiet* neighbour (or a grounded shield) contributes it once (factor 1),
* a neighbour switching in the *same* direction contributes nothing
  (factor 0).

The per-wire *effective coupling factor* ``lambda`` is the sum over both
neighbours, so the worst case is ``lambda = 4`` (paper Eq. 1: ``Cg + 4 Cc``)
and the next-worst canonical case is ``lambda = 3`` (one opposite, one quiet;
the difference of ``R x Cc`` in Eq. 2).

A small *secondary* correction accounts for how fast the aggressors
themselves switch (their own far-side neighbours): an aggressor that is
simultaneously fighting its other neighbour transitions more slowly and
injects its charge over a longer window, slightly reducing its impact on the
victim.  This second-order term spreads the five canonical delay classes into
a quasi-continuum, which reproduces the gradual error-rate-vs-voltage ramp in
Fig. 4 rather than a staircase.

All functions are vectorised with numpy over cycles so that multi-million
cycle traces are processed in a handful of array operations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_fraction

#: Miller factor of a neighbour switching opposite to the victim.
MILLER_OPPOSITE = 2.0
#: Miller factor of a quiet neighbour or a grounded shield.
MILLER_QUIET = 1.0
#: Miller factor of a neighbour switching with the victim.
MILLER_SAME = 0.0


class SwitchingPattern(enum.Enum):
    """Canonical victim/aggressor patterns from the paper's Fig. 9."""

    #: Both aggressors switch opposite to the victim: ``Cg + 4 Cc``.
    WORST_CASE = "pattern_i"
    #: One aggressor opposite, one quiet: ``Cg + 3 Cc`` (Eq. 2 difference R*Cc).
    NEXT_WORST = "pattern_ii"
    #: Both aggressors quiet: ``Cg + 2 Cc``.
    NEUTRAL = "quiet_neighbours"
    #: Both aggressors switch with the victim: ``Cg``.
    BEST_CASE = "in_phase"


#: Effective coupling factor (lambda) of each canonical pattern.
PATTERN_COUPLING_FACTORS = {
    SwitchingPattern.WORST_CASE: 4.0,
    SwitchingPattern.NEXT_WORST: 3.0,
    SwitchingPattern.NEUTRAL: 2.0,
    SwitchingPattern.BEST_CASE: 0.0,
}


@dataclass(frozen=True)
class NeighborTopology:
    """Adjacency structure of the bus wires, including shields.

    Attributes
    ----------
    n_wires:
        Number of signal wires (32 for the paper's bus).
    left_is_shield / right_is_shield:
        Boolean arrays marking wires whose left/right physical neighbour is a
        grounded shield (or the routing-channel edge) rather than another
        signal wire.
    secondary_weight:
        Weight of the second-order (aggressor-speed) correction to the
        effective coupling factor.  Zero disables the correction and recovers
        the pure five-class Miller model.
    """

    n_wires: int
    left_is_shield: np.ndarray
    right_is_shield: np.ndarray
    secondary_weight: float = 0.15

    def __post_init__(self) -> None:
        if self.n_wires <= 0:
            raise ValueError(f"n_wires must be positive, got {self.n_wires}")
        check_fraction("secondary_weight", self.secondary_weight)
        for name in ("left_is_shield", "right_is_shield"):
            value = np.asarray(getattr(self, name), dtype=bool)
            if value.shape != (self.n_wires,):
                raise ValueError(f"{name} must have shape ({self.n_wires},)")
            object.__setattr__(self, name, value)

    @property
    def max_coupling_factor(self) -> float:
        """Largest effective coupling factor any wire can actually experience.

        The repeaters are sized (and the shadow-latch floor is set) against
        this value, so it must bound -- tightly -- everything the cycle-level
        model can produce.  Shields cap the primary term of the wires next to
        them at 3, and a second neighbour that sits across a shield can only
        ever contribute the neutral (quiet) factor, so the attainable maximum
        is computed per wire with the same masking rules the cycle-level model
        applies, then maximised over the bus.  Sizing against a looser bound
        (e.g. a blanket ``4 + 2 w``) would silently over-design the bus and
        hand every workload a few "free" voltage steps that the paper's bus
        does not have.
        """
        primary_max = (
            np.where(self.left_is_shield, MILLER_QUIET, MILLER_OPPOSITE)
            + np.where(self.right_is_shield, MILLER_QUIET, MILLER_OPPOSITE)
        )
        if self.secondary_weight <= 0.0:
            return float(np.max(primary_max))
        left2_valid = ~(self.left_is_shield | np.roll(self.left_is_shield, 1))
        right2_valid = ~(self.right_is_shield | np.roll(self.right_is_shield, -1))
        secondary_max = (
            np.where(left2_valid, MILLER_OPPOSITE, MILLER_QUIET)
            + np.where(right2_valid, MILLER_OPPOSITE, MILLER_QUIET)
            - 2.0
        )
        return float(np.max(primary_max + self.secondary_weight * secondary_max))


def grouped_shield_topology(
    n_wires: int, shield_group: int, secondary_weight: float = 0.15
) -> NeighborTopology:
    """Topology of a bus with a shield inserted after every ``shield_group`` wires.

    This matches the paper's Fig. 3 layout (a shield wire after every 4 signal
    wires, plus shields at both edges of the bus).
    """
    if shield_group <= 0:
        raise ValueError(f"shield_group must be positive, got {shield_group}")
    positions = np.arange(n_wires)
    left_is_shield = positions % shield_group == 0
    right_is_shield = positions % shield_group == shield_group - 1
    # The outermost wires always see a shield (or the channel edge).
    left_is_shield = left_is_shield | (positions == 0)
    right_is_shield = right_is_shield | (positions == n_wires - 1)
    return NeighborTopology(
        n_wires=n_wires,
        left_is_shield=left_is_shield,
        right_is_shield=right_is_shield,
        secondary_weight=secondary_weight,
    )


# --------------------------------------------------------------------------- #
# Vectorised per-cycle computations
# --------------------------------------------------------------------------- #
def transitions_from_values(values: np.ndarray) -> np.ndarray:
    """Per-wire transition direction between consecutive bus values.

    Parameters
    ----------
    values:
        Array of shape ``(n_cycles, n_wires)`` with 0/1 entries: the data
        word driven on the bus in each cycle.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(n_cycles - 1, n_wires)`` with entries in
        ``{-1, 0, +1}``: falling, quiet or rising transition of each wire.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"values must be 2-D (cycles x wires), got shape {values.shape}")
    return values[1:].astype(np.int8) - values[:-1].astype(np.int8)


def _miller_factors(victim: np.ndarray, aggressor: np.ndarray) -> np.ndarray:
    """Miller factor of one aggressor relative to a victim transition.

    Both arguments are arrays in {-1, 0, +1}.  Entries where the victim is
    quiet are returned as MILLER_QUIET but are ignored downstream (a quiet
    victim has no delay event).
    """
    product = victim * aggressor
    factors = np.full(victim.shape, MILLER_QUIET, dtype=np.float64)
    factors[product < 0] = MILLER_OPPOSITE
    factors[product > 0] = MILLER_SAME
    return factors


def effective_coupling_factors(
    transitions: np.ndarray, topology: NeighborTopology
) -> np.ndarray:
    """Effective coupling factor ``lambda`` of every wire in every cycle.

    Entries are only meaningful where the wire itself switches; quiet wires
    are reported with ``lambda = 0`` so they can never dominate the per-cycle
    maximum.
    """
    transitions = np.asarray(transitions)
    n_cycles, n_wires = transitions.shape
    if n_wires != topology.n_wires:
        raise ValueError(
            f"transition width {n_wires} does not match topology ({topology.n_wires})"
        )

    quiet = np.zeros((n_cycles, 1), dtype=transitions.dtype)
    left = np.concatenate([quiet, transitions[:, :-1]], axis=1)
    right = np.concatenate([transitions[:, 1:], quiet], axis=1)
    # Shield neighbours are always quiet regardless of the adjacent signal.
    left = np.where(topology.left_is_shield[None, :], 0, left)
    right = np.where(topology.right_is_shield[None, :], 0, right)

    primary = _miller_factors(transitions, left) + _miller_factors(transitions, right)

    if topology.secondary_weight > 0.0:
        left2 = np.concatenate([quiet, quiet, transitions[:, :-2]], axis=1)[:, :n_wires]
        right2 = np.concatenate([transitions[:, 2:], quiet, quiet], axis=1)[:, :n_wires]
        # A second neighbour beyond a shield is electrically irrelevant: mask
        # it out when the victim's near neighbour is a shield, or when the
        # near neighbour itself is separated from the second neighbour by one.
        left2 = np.where(
            (topology.left_is_shield | np.roll(topology.left_is_shield, 1))[None, :], 0, left2
        )
        right2 = np.where(
            (topology.right_is_shield | np.roll(topology.right_is_shield, -1))[None, :], 0, right2
        )
        secondary = (
            _miller_factors(transitions, left2) + _miller_factors(transitions, right2) - 2.0
        )
        factors = primary + topology.secondary_weight * secondary
    else:
        factors = primary

    factors = np.where(transitions != 0, factors, 0.0)
    return np.clip(factors, 0.0, topology.max_coupling_factor)


def worst_coupling_factor_per_cycle(
    transitions: np.ndarray, topology: NeighborTopology
) -> np.ndarray:
    """Largest effective coupling factor among switching wires, per cycle.

    Cycles with no switching wire report 0.0 (no delay event, hence no
    possible timing error).
    """
    factors = effective_coupling_factors(transitions, topology)
    return factors.max(axis=1)


def coupling_energy_weights(
    transitions: np.ndarray, topology: NeighborTopology
) -> np.ndarray:
    """Per-cycle coupling-energy weight ``sum of r^2`` over adjacent pairs.

    ``r`` is the relative transition of a pair in units of Vdd: 0, 1 or 2 for
    signal-signal pairs and 0 or 1 for wire-shield pairs.  Multiplying by
    ``0.5 Cc Vdd^2`` gives the coupling energy of the cycle.
    """
    transitions = np.asarray(transitions, dtype=np.int16)
    n_wires = transitions.shape[1]
    if n_wires != topology.n_wires:
        raise ValueError(
            f"transition width {n_wires} does not match topology ({topology.n_wires})"
        )
    weights = np.zeros(transitions.shape[0], dtype=np.float64)
    # Signal-signal pairs: wires i and i+1 that are not separated by a shield.
    pair_mask = ~topology.right_is_shield[:-1]
    if np.any(pair_mask):
        rel = transitions[:, :-1][:, pair_mask] - transitions[:, 1:][:, pair_mask]
        weights += np.sum(rel.astype(np.float64) ** 2, axis=1)
    # Wire-shield pairs: every shield adjacency contributes the wire's own swing.
    shield_sides = topology.left_is_shield.astype(np.float64) + topology.right_is_shield.astype(
        np.float64
    )
    weights += np.sum((transitions.astype(np.float64) ** 2) * shield_sides[None, :], axis=1)
    return weights


def toggle_counts(transitions: np.ndarray) -> np.ndarray:
    """Number of toggling wires per cycle."""
    return np.count_nonzero(np.asarray(transitions), axis=1).astype(np.float64)


def classify_pattern(victim: int, left: int, right: int) -> tuple[SwitchingPattern, float]:
    """Classify a single victim/aggressor combination (scalar helper).

    Returns the canonical :class:`SwitchingPattern` (best match by coupling
    factor) and the exact primary coupling factor.  Mostly used in tests and
    documentation examples.
    """
    if victim == 0:
        return SwitchingPattern.NEUTRAL, 0.0
    factor = float(
        _miller_factors(np.array([victim]), np.array([left]))[0]
        + _miller_factors(np.array([victim]), np.array([right]))[0]
    )
    if factor >= 4.0:
        return SwitchingPattern.WORST_CASE, factor
    if factor >= 3.0:
        return SwitchingPattern.NEXT_WORST, factor
    if factor <= 0.0:
        return SwitchingPattern.BEST_CASE, factor
    return SwitchingPattern.NEUTRAL, factor
