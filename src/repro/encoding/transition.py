"""Transition signalling: data carried in wire toggles.

With transition signalling the transmitter toggles a wire when the data bit is
one and leaves it alone when the data bit is zero, so the number of toggling
wires per cycle equals the Hamming *weight* of the data word rather than the
Hamming distance between consecutive words.  That helps streams whose words
are sparse (few one bits) but are poorly correlated cycle to cycle, and hurts
dense words -- another workload-dependent contrast to the condition-driven
gains of the DVS scheme.

Encoding and decoding are pure XOR chains, so both directions are fully
vectorised (a cumulative parity along the time axis).
"""

from __future__ import annotations


import numpy as np

from repro.encoding.base import BusEncoder, StreamState
from repro.trace.trace import BusTrace


class TransitionEncoder(BusEncoder):
    """Transition signalling over the whole word (no redundant wires).

    The first transmitted word is the first data word itself, which defines
    the initial wire state the toggles are applied to.
    """

    name = "transition"

    def encode(self, trace: BusTrace) -> BusTrace:
        """Wire state is the running parity of the data words."""
        data = trace.values.astype(np.uint8)
        encoded = np.cumsum(data, axis=0, dtype=np.int64) % 2
        # The first wire state must equal the first data word (the cumulative
        # sum already guarantees this because the sum of one word is itself).
        return BusTrace(values=encoded.astype(np.uint8), name=f"{trace.name}/{self.name}")

    def encode_block(
        self, values: np.ndarray, state: StreamState | None
    ) -> tuple[np.ndarray, StreamState]:
        """Streamed encode: the carried state is the cumulative data parity.

        Each wire's state is the XOR of all data bits seen so far, so a block
        encodes as its own cumulative parity XORed with the carried parity --
        bit-identical to the monolithic cumulative sum.
        """
        data = np.asarray(values, dtype=np.uint8)
        encoded = np.cumsum(data, axis=0, dtype=np.int64)
        if state is not None:
            encoded += state.astype(np.int64)
        encoded = (encoded % 2).astype(np.uint8)
        return encoded, encoded[-1].copy()

    def decode(self, encoded: BusTrace) -> BusTrace:
        """Data words are the XOR of consecutive wire states (first word as-is)."""
        values = encoded.values.astype(np.uint8)
        data = values.copy()
        data[1:] = values[1:] ^ values[:-1]
        name = encoded.name
        suffix = f"/{self.name}"
        if name.endswith(suffix):
            name = name[: -len(suffix)]
        return BusTrace(values=data, name=name)
