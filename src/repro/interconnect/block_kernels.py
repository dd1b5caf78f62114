"""Vectorized block-simulation kernels over integer *lanes*.

The scalar reference kernels in :mod:`repro.interconnect.crosstalk` classify
every wire of every cycle through ``(n_cycles, n_wires)`` float64 temporaries
-- dozens of bytes touched per wire per cycle.  This module re-derives the
same three per-cycle statistics (worst coupling factor, toggle count,
coupling-energy weight) from the bus words held as machine integers, one
*lane* per cycle:

* a bus word of ``n_bits <= 32`` is one little-endian ``uint32``; wider buses
  (up to 64 wires) use ``uint64``.  Wire ``i`` is bit ``i``, exactly the
  ``bitorder="little"`` convention of the packed trace representation, so a
  packed chunk reinterprets as lanes with no per-bit work at all.
* neighbour relations become single-instruction shifts: the left neighbour of
  every wire simultaneously is ``lanes << 1``, the second-right neighbour is
  ``lanes >> 2``, and shield adjacencies are AND masks.

Per victim wire the effective coupling factor of the scalar model is

    ``lambda = p + w * (q - 2)``   with
    ``p = 2 + (#opposite - #same)`` over the two near neighbours and
    ``q = 2 + (#opposite - #same)`` over the two second neighbours,

so each wire's *score* ``8 * p + q`` (an integer in ``0..36``) determines its
factor through a small lookup table whose values are computed with the
same float64 operations as the scalar path -- which is what makes the block
kernels **bit-identical** to it, clipping included.  Whenever the score order
agrees with the factor order (any ``secondary_weight <= 0.25``, including the
default 0.15), the per-cycle worst factor is just ``table[max(score)]``; a
non-monotone weight first remaps scores through a rank table so the maximum
is still taken on integers.

In the monotone case that maximum is *bit-sliced*: each of the six bits of
``8 * p + q`` is a bitplane lane, and a walk from the top bit down keeps the
candidate wires carrying each bit wherever any does -- a branch-free select
-- so the bits found spell the maximum without per-wire scores.  Chunks are
walked in cache-sized sub-blocks of ``_SUB_BLOCK_CYCLES`` transitions, each
filling all three statistics from one set of toggle/direction lanes.

Bit-level identities used (``t`` = per-wire transition in ``{-1, 0, +1}``):

* ``toggled = word_new XOR word_old`` (``|t|`` as a bitplane),
* a toggling pair switches in *opposite* directions iff their new values
  differ (``dir = word_new``), and in the *same* direction otherwise,
* ``(t_i - t_j)^2 = tog_i + tog_j + 2 * opp_ij - 2 * same_ij`` for the
  coupling-energy weight of an adjacent pair.

Buses wider than 64 wires (no such design exists in the repo, but the model
allows them) and big-endian hosts fall back to the scalar kernels -- see
:func:`lanes_supported`.
"""

from __future__ import annotations

import sys
from functools import lru_cache

import numpy as np

from repro.interconnect.crosstalk import NeighborTopology

__all__ = [
    "lanes_supported",
    "lanes_from_packed",
    "block_statistics_codes",
    "block_worst_coupling",
    "block_toggle_counts",
    "block_coupling_energy_weights",
    "coupling_score_tables",
    "CouplingScoreTables",
]

#: The lane layout splices packed little-bitorder bytes directly into machine
#: integers, which only lines up on little-endian hosts.
_LITTLE_ENDIAN = sys.byteorder == "little"

#: Largest bus width a single integer lane can hold.
MAX_LANE_BITS = 64

#: Number of distinct per-wire scores: ``8 * p + q`` with ``p, q`` in 0..4.
_N_SCORES = 8 * 4 + 4 + 1

#: Transitions per sub-block of the lane walk: small enough that a sub-block's
#: lane temporaries (128 KiB each as uint32) stay in cache.  Results do not
#: depend on it.
_SUB_BLOCK_CYCLES = 32_768


def lanes_supported(n_bits: int) -> bool:
    """Whether the lane kernels can run for an ``n_bits``-wide bus."""
    return _LITTLE_ENDIAN and 0 < n_bits <= MAX_LANE_BITS


def lanes_from_packed(packed: np.ndarray) -> np.ndarray:
    """Reinterpret packed trace bytes as one integer lane per bus word.

    ``packed`` is the ``(n_words, n_bytes)`` uint8 array of the packed trace
    representation (wire ``i`` -> byte ``i // 8``, bit ``i % 8``).  Buses up
    to 32 wires become uint32 lanes, wider ones uint64; byte widths that do
    not fill a lane are zero-padded (the padding bits never toggle, so every
    kernel ignores them).
    """
    packed = np.asarray(packed, dtype=np.uint8)
    n_words, n_bytes = packed.shape
    lane_bytes = 4 if n_bytes <= 4 else 8
    if n_bytes > 8:
        raise ValueError(f"lanes support at most {MAX_LANE_BITS} wires, got {n_bytes} bytes")
    dtype = np.uint32 if lane_bytes == 4 else np.uint64
    if n_bytes == lane_bytes:
        buffer = np.ascontiguousarray(packed)
    else:
        buffer = np.zeros((n_words, lane_bytes), dtype=np.uint8)
        buffer[:, :n_bytes] = packed
    return buffer.view(dtype).reshape(n_words)


def _wire_mask(bits: np.ndarray, dtype: type) -> np.number:
    """An integer lane with bit ``i`` set where ``bits[i]`` is true."""
    value = 0
    for index in np.nonzero(np.asarray(bits, dtype=bool))[0]:
        value |= 1 << int(index)
    return dtype(value)


if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def _popcount(lanes: np.ndarray) -> np.ndarray:
        """Per-lane population count as uint8."""
        return np.bitwise_count(lanes)

else:  # pragma: no cover - exercised only on numpy < 2.0
    _POPCOUNT8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
        axis=1
    ).astype(np.uint8)

    def _popcount(lanes: np.ndarray) -> np.ndarray:
        as_bytes = lanes.reshape(-1, 1).view(np.uint8)
        return _POPCOUNT8[as_bytes].sum(axis=1, dtype=np.uint8)


def _unpack_plane(plane: np.ndarray, n_bits: int) -> np.ndarray:
    """One lane bitplane as an ``(n, n_bits)`` uint8 0/1 array."""
    as_bytes = np.ascontiguousarray(plane).view(np.uint8).reshape(len(plane), -1)
    return np.unpackbits(as_bytes, axis=1, count=n_bits, bitorder="little")


class CouplingScoreTables:
    """Score -> coupling-factor lookup tables of one topology.

    ``value_by_score`` maps a per-wire score ``8 * p + q`` straight to the
    clipped float64 coupling factor.  ``monotone`` says whether that mapping
    is non-decreasing over attainable scores, in which case the per-cycle
    worst factor is ``value_by_score[scores.max()]``; otherwise
    ``rank_by_score`` / ``value_by_rank`` provide an order-preserving integer
    remap so the maximum is still taken on small integers.
    """

    __slots__ = ("monotone", "value_by_score", "rank_by_score", "value_by_rank")

    @property
    def value_by_code(self) -> np.ndarray:
        """The non-decreasing value table the kernels' per-cycle codes index.

        A code is the maximum score (monotone tables) or the maximum rank
        (otherwise); either way ``value_by_code[code]`` is the factor.
        """
        return self.value_by_score if self.monotone else self.value_by_rank

    def __init__(
        self,
        monotone: bool,
        value_by_score: np.ndarray,
        rank_by_score: np.ndarray,
        value_by_rank: np.ndarray,
    ) -> None:
        self.monotone = monotone
        self.value_by_score = value_by_score
        self.rank_by_score = rank_by_score
        self.value_by_rank = value_by_rank


@lru_cache(maxsize=64)
def _score_tables(
    secondary_weight: float, max_coupling_factor: float
) -> CouplingScoreTables:
    """Build (and cache) the score tables for one (weight, clip-bound) pair."""
    weight = np.float64(secondary_weight)
    values = np.zeros(_N_SCORES, dtype=np.float64)
    attainable = np.zeros(_N_SCORES, dtype=bool)
    for p in range(5):
        for q in range(5):
            # The same float64 expression the scalar kernel evaluates
            # elementwise; the secondary term is skipped (not multiplied by
            # zero) when the weight is non-positive, exactly as there.
            primary = np.float64(p)
            if secondary_weight > 0.0:
                raw = primary + weight * (np.float64(q) - np.float64(2.0))
            else:
                raw = primary
            score = 8 * p + q
            values[score] = np.clip(raw, 0.0, max_coupling_factor)
            attainable[score] = True
    # Unattainable scores (q in 5..7) inherit the previous value so a plain
    # monotone scan over the table stays meaningful; they are never produced.
    for score in range(1, _N_SCORES):
        if not attainable[score]:
            values[score] = values[score - 1]

    monotone = bool(np.all(np.diff(values) >= 0.0))
    order = np.argsort(values, kind="stable")
    rank_by_score = np.zeros(_N_SCORES, dtype=np.uint8)
    value_by_rank = np.zeros(_N_SCORES, dtype=np.float64)
    for rank, score in enumerate(order.tolist()):
        rank_by_score[score] = rank
        value_by_rank[rank] = values[score]
    return CouplingScoreTables(monotone, values, rank_by_score, value_by_rank)


def coupling_score_tables(topology: NeighborTopology) -> CouplingScoreTables:
    """The score tables of a topology (cached by weight and clip bound)."""
    return _score_tables(
        float(topology.secondary_weight), float(topology.max_coupling_factor)
    )


def _lane_masks(topology: NeighborTopology, dtype: type) -> tuple[np.number, ...]:
    """The topology's AND masks as lane integers.

    In order: victims with a signal wire as near left / right neighbour; as
    relevant second left / right neighbour (no shield in either gap, as in
    the scalar kernel); lower wires of signal pairs; wires whose own swing
    counts once (pair-lower or right-shielded); left-shielded wires.
    """
    left_shield = topology.left_is_shield
    right_shield = topology.right_is_shield
    pair = np.zeros(topology.n_wires, dtype=bool)
    pair[:-1] = ~right_shield[:-1]
    planes = (
        ~left_shield,
        ~right_shield,
        ~(left_shield | np.roll(left_shield, 1)),
        ~(right_shield | np.roll(right_shield, -1)),
        pair,
        pair | right_shield,
        left_shield,
    )
    return tuple(_wire_mask(plane, dtype) for plane in planes)


def _neighbor_planes(
    tog: np.ndarray,
    new: np.ndarray,
    shift: np.number,
    mask_left: np.number,
    mask_right: np.number,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(opposite, same) bitplanes of the left, then of the right, neighbour.

    ``shift`` is the wire distance (1 or 2).  Bit ``i`` of ``pairs`` flags
    wires ``i`` and ``i - shift`` toggling together; shifted back down, the
    same flags describe each wire's right neighbour.  The masks clear victims
    whose neighbour is a shield (or absent) -- those wires see the neutral
    quiet factor, i.e. land in neither plane.
    """
    pairs = tog & (tog << shift)
    opposite_pairs = pairs & (new ^ (new << shift))
    opposite_left = opposite_pairs & mask_left
    opposite_right = (opposite_pairs >> shift) & mask_right
    same_left = (pairs & mask_left) ^ opposite_left
    same_right = ((pairs >> shift) & mask_right) ^ opposite_right
    return opposite_left, same_left, opposite_right, same_right


def _class_bitplanes(
    opposite_a: np.ndarray, same_a: np.ndarray, opposite_b: np.ndarray, same_b: np.ndarray
) -> list[np.ndarray]:
    """Bitplanes of the class ``2 + #opposite - #same`` (0..4), MSB first.

    Meaningful on toggling wires only.  Bit 2 is class 4 (both neighbours
    opposite); bit 1 is class 2 or 3: not class 4, and no same-direction
    neighbour without an opposite one to balance it; bit 0 is an odd class
    (exactly one neighbour switching).
    """
    four = opposite_a & opposite_b
    below_two = (same_a & ~opposite_b) | (same_b & ~opposite_a)
    odd = (opposite_a | same_a) ^ (opposite_b | same_b)
    return [four, ~(four | below_two), odd]


def _bit_sliced_max(cand: np.ndarray, planes: list[np.ndarray]) -> np.ndarray:
    """Per cycle: the largest value the ``cand`` wires spell on ``planes``.

    ``planes`` are a per-wire integer's bitplanes, most significant first.
    Each step keeps the candidates carrying the bit wherever any does, by
    mask arithmetic rather than a data-dependent ``where``, and records
    whether any did as that bit of the maximum.  Returns uint8 (0 for cycles
    without candidates); ``cand`` is overwritten.
    """
    level = np.zeros(len(cand), dtype=np.uint8)
    for plane in planes:
        carrying = cand & plane
        present = carrying != 0
        cand ^= (cand ^ carrying) * present
        level <<= np.uint8(1)
        level |= present
    return level


def _unpacked_class(
    opposite_a: np.ndarray, same_a: np.ndarray, opposite_b: np.ndarray, same_b: np.ndarray, n: int
) -> np.ndarray:
    """Per-wire class ``2 + #opposite - #same`` of the first ``n`` wires, as uint8."""
    level = _unpack_plane(opposite_a, n) + _unpack_plane(opposite_b, n) + np.uint8(2)
    level -= _unpack_plane(same_a, n)
    level -= _unpack_plane(same_b, n)
    return level


def _sub_block_statistics(
    lanes: np.ndarray,
    topology: NeighborTopology | None,
    masks: tuple[np.number, ...],
    codes: np.ndarray | None,
    toggles: np.ndarray | None,
    weights: np.ndarray | None,
) -> None:
    """Fill the requested outputs for one sub-block's transitions.

    ``codes`` (uint8) receives each cycle's worst-coupling code, an index
    into :attr:`CouplingScoreTables.value_by_code`; ``toggles`` and
    ``weights`` are float64.  ``lanes`` holds one word more than the outputs
    have cycles; an output of ``None`` is skipped (``topology`` may be
    ``None`` if only ``toggles`` is wanted).  ``masks`` are the topology's
    :func:`_lane_masks`.  The toggle and direction lanes are computed once
    for all three outputs.
    """
    new = lanes[1:]
    tog = new ^ lanes[:-1]
    if toggles is not None:
        toggles[:] = _popcount(tog)
    if topology is None:
        return
    one, two = lanes.dtype.type(1), lanes.dtype.type(2)
    left, right, left2, right2, pair, own_swing, left_shield = masks
    o_l, s_l, o_r, s_r = _neighbor_planes(tog, new, one, left, right)
    if weights is not None:
        # (t_i - t_j)^2 = tog_i + tog_j + 2 opp_ij - 2 same_ij over every
        # signal pair -- o_r / s_r are exactly the pair planes -- plus each
        # wire's own swing once per shield neighbour.  The total fits int16.
        total = _popcount(tog & own_swing).astype(np.int16)
        total += _popcount((tog >> one) & pair)
        total += _popcount(tog & left_shield)
        total += np.uint8(2) * _popcount(o_r)
        total -= np.uint8(2) * _popcount(s_r)
        weights[:] = total
    if codes is None:
        return
    o_l2, s_l2, o_r2, s_r2 = _neighbor_planes(tog, new, two, left2, right2)
    tables = coupling_score_tables(topology)
    if tables.monotone:
        # max(8 p + q) over the toggling wires, bit-sliced: three p bits,
        # then three q bits.  Quiet cycles keep score 0, i.e. 0.0 like the
        # scalar kernel.  tog is not needed again, so it seeds the candidates.
        planes = _class_bitplanes(o_l, s_l, o_r, s_r) + _class_bitplanes(
            o_l2, s_l2, o_r2, s_r2
        )
        codes[:] = _bit_sliced_max(tog, planes)
        return
    # Non-monotone factor table: materialise per-wire scores (uint8) and take
    # the maximum in rank space instead.  Quiet wires are forced to score 0,
    # which the tables map to the same 0.0 the scalar kernel reports.
    n_bits = topology.n_wires
    score = _unpacked_class(o_l, s_l, o_r, s_r, n_bits)
    score <<= np.uint8(3)
    score += _unpacked_class(o_l2, s_l2, o_r2, s_r2, n_bits)
    score *= _unpack_plane(tog, n_bits)
    codes[:] = tables.rank_by_score[score].max(axis=1)


def _lane_statistics(
    lanes: np.ndarray,
    topology: NeighborTopology | None,
    *,
    codes: bool = False,
    toggles: bool = False,
    weights: bool = False,
) -> list[np.ndarray | None]:
    """``[codes, toggles, weights]`` of a lane stream (``None`` if unwanted).

    The stream is walked in sub-blocks of ``_SUB_BLOCK_CYCLES`` transitions,
    each filling its slice of every wanted output.
    """
    n_cycles = max(len(lanes) - 1, 0)
    outputs = [
        np.empty(n_cycles, dtype=dtype) if wanted else None
        for wanted, dtype in ((codes, np.uint8), (toggles, np.float64), (weights, np.float64))
    ]
    masks = () if topology is None else _lane_masks(topology, lanes.dtype.type)
    for start in range(0, n_cycles, _SUB_BLOCK_CYCLES):
        stop = min(start + _SUB_BLOCK_CYCLES, n_cycles)
        _sub_block_statistics(
            lanes[start : stop + 1],
            topology,
            masks,
            *(None if out is None else out[start:stop] for out in outputs),
        )
    return outputs


def block_worst_coupling(lanes: np.ndarray, topology: NeighborTopology) -> np.ndarray:
    """Per-cycle worst effective coupling factor, from word lanes.

    Bit-identical to
    :func:`repro.interconnect.crosstalk.worst_coupling_factor_per_cycle` over
    the unpacked transitions of the same words.  With a monotone factor table
    (``secondary_weight <= 0.25``) the maximum score is taken bit-sliced, with
    no per-wire scores; otherwise per-wire scores go through a rank table.
    """
    codes = _lane_statistics(lanes, topology, codes=True)[0]
    return coupling_score_tables(topology).value_by_code[codes]


def block_toggle_counts(lanes: np.ndarray) -> np.ndarray:
    """Toggling wires per cycle (matches :func:`crosstalk.toggle_counts`)."""
    return _lane_statistics(lanes, None, toggles=True)[1]


def block_coupling_energy_weights(
    lanes: np.ndarray, topology: NeighborTopology
) -> np.ndarray:
    """Per-cycle coupling-energy weight (matches the scalar kernel exactly).

    Counts the pair identity of the module docstring with whole-lane
    popcounts.
    """
    return _lane_statistics(lanes, topology, weights=True)[2]


def block_statistics_codes(
    packed: np.ndarray, topology: NeighborTopology
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(codes, value_by_code, toggles, coupling_weights) of one packed block.

    The vectorized engine's whole-chunk entry point: one lane conversion,
    then one walk over cache-sized sub-blocks filling all three per-cycle
    outputs, no per-cycle Python.  The worst coupling factor of a cycle is
    ``value_by_code[codes[cycle]]``, so reductions that only count cycles
    per factor (segment summaries) bin the uint8 codes and never build the
    float array.
    """
    packed = np.asarray(packed, dtype=np.uint8)
    expected_bytes = (topology.n_wires + 7) // 8
    if packed.shape[1] != expected_bytes:
        raise ValueError(
            f"packed width {packed.shape[1]} does not match topology "
            f"({topology.n_wires} wires, {expected_bytes} bytes)"
        )
    codes, toggles, weights = _lane_statistics(
        lanes_from_packed(packed), topology, codes=True, toggles=True, weights=True
    )
    return codes, coupling_score_tables(topology).value_by_code, toggles, weights

