"""Per-word bus-invert reference: the cost comparison, one word at a time.

The production :class:`~repro.encoding.BusInvertEncoder` derives every invert
line in closed form from the data Hamming distances.  This module keeps the
direct statement of the scheme -- for each word and group, compare the wire
toggles of keeping the polarity against those of flipping it, invert line
included on both sides -- so the differential tests can check the closed
form against it.
"""

from __future__ import annotations

import numpy as np


def reference_encode_block(
    data: np.ndarray,
    group_size: int | None,
    state: tuple[np.ndarray, np.ndarray] | None,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Encode ``data`` word by word; same contract as ``encode_block``.

    ``state`` is the ``(previous, previous_invert)`` pair on the wires before
    the block, or ``None`` to drive the first word unmodified with every
    invert line low.
    """
    data = np.asarray(data, dtype=np.uint8)
    n_words, n_bits = data.shape
    size = n_bits if group_size is None else group_size
    groups = [slice(start, min(start + size, n_bits)) for start in range(0, n_bits, size)]
    encoded = np.empty((n_words, n_bits + len(groups)), dtype=np.uint8)
    if state is None:
        previous = data[0].copy()
        encoded[0, :n_bits] = previous
        encoded[0, n_bits:] = 0
        previous_invert = np.zeros(len(groups), dtype=np.uint8)
        start = 1
    else:
        previous, previous_invert = (array.copy() for array in state)
        start = 0
    for index in range(start, n_words):
        word = data[index]
        for group_index, group in enumerate(groups):
            group_width = group.stop - group.start
            toggles_plain = int(np.count_nonzero(word[group] != previous[group]))
            keep_cost = toggles_plain + (1 if previous_invert[group_index] != 0 else 0)
            flip_cost = (group_width - toggles_plain) + (
                1 if previous_invert[group_index] == 0 else 0
            )
            invert = flip_cost < keep_cost
            encoded_group = 1 - word[group] if invert else word[group]
            encoded[index, group] = encoded_group
            encoded[index, n_bits + group_index] = 1 if invert else 0
            previous[group] = encoded_group
            previous_invert[group_index] = 1 if invert else 0
    return encoded, (previous, previous_invert)
