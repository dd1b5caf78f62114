"""Bus-invert coding (Stan & Burleson, reference [5] of the paper).

Before driving a new word, the transmitter compares it with the word currently
on the wires: if more than half of the signal wires would toggle, the word is
driven *inverted* and an extra invert line is asserted so the receiver can
undo the inversion.  This bounds the number of toggling signal wires per cycle
to half the bus width and reduces average switching activity for high-entropy
data.

The classic scheme uses one invert line for the whole word; *partitioned*
bus-invert splits the word into independently inverted groups (one invert
line per group), which works better for wide buses whose bytes have unequal
activity.  Both are supported through the ``group_size`` parameter.

The decision weighs the toggles of keeping the polarity against those of
flipping it, invert line included on both sides.  With *h* the data Hamming
distance between consecutive words within a group of *w* wires, it reduces to
a rule on the invert line alone: the line toggles when 2h > w + 1, goes low on
the tie 2h = w + 1 (odd *w* only) and holds otherwise.  Each invert line is
thus the parity of its group's toggle words since the last tie word, so
encoding is vectorised like decoding.
"""

from __future__ import annotations


import numpy as np

from repro.encoding.base import BusEncoder, StreamState
from repro.trace.trace import BusTrace


class BusInvertEncoder(BusEncoder):
    """Bus-invert coding with optional partitioning.

    Parameters
    ----------
    group_size:
        Number of signal wires sharing one invert line.  ``None`` (the
        default) uses a single invert line for the whole word; 8 gives the
        per-byte partitioned variant.

    Examples
    --------
    With ``000`` on the wires and the invert line low, ``111`` (h = 3)
    toggles the line, ``110`` (h = 1) holds it and ``000`` (h = 2, the tie)
    pulls it low:

    >>> import numpy as np
    >>> words = np.array([[1, 1, 1], [1, 1, 0], [0, 0, 0]], dtype=np.uint8)
    >>> on_wires = (np.zeros(3, np.uint8), np.zeros(1, np.uint8))
    >>> BusInvertEncoder().encode_block(words, on_wires)[0]
    array([[0, 0, 0, 1],
           [0, 0, 1, 1],
           [0, 0, 0, 0]], dtype=uint8)
    """

    def __init__(self, group_size: int | None = None) -> None:
        if group_size is not None and group_size <= 0:
            raise ValueError(f"group_size must be positive, got {group_size}")
        self.group_size = group_size
        self.name = "bus-invert" if group_size is None else f"bus-invert/{group_size}"

    # ------------------------------------------------------------------ #
    # Layout helpers
    # ------------------------------------------------------------------ #
    def _wire_groups(self, n_bits: int) -> np.ndarray:
        """Invert-line index of each signal wire; every group is a contiguous run."""
        size = n_bits if self.group_size is None else self.group_size
        return np.arange(n_bits) // size

    def n_groups(self, n_bits: int) -> int:
        """Number of invert lines needed for an ``n_bits``-wide data word."""
        size = n_bits if self.group_size is None else self.group_size
        return -(-n_bits // size)

    @property
    def extra_bits(self) -> int:
        """Not defined without a word width; use :meth:`encoded_bits` instead."""
        raise AttributeError(
            "bus-invert's wire overhead depends on the word width; call encoded_bits(n_bits)"
        )

    def encoded_bits(self, n_bits: int) -> int:
        """Signal wires plus one invert line per group."""
        return n_bits + self.n_groups(n_bits)

    # ------------------------------------------------------------------ #
    # Encoding / decoding
    # ------------------------------------------------------------------ #
    def _encode_rows(
        self, data: np.ndarray, previous: np.ndarray, previous_invert: np.ndarray
    ) -> np.ndarray:
        """Drive ``data`` after ``previous`` went out with ``previous_invert``.

        Returns the driven words (data wires, then invert lines) with the
        carried word as row 0, so the last row is the state to carry on.
        Each invert line is the parity of its group's toggle words since
        its last tie word, or since the carried line if there was none.
        """
        wire_group = self._wire_groups(data.shape[1])
        widths = np.bincount(wire_group)
        words = np.concatenate([(previous ^ previous_invert[wire_group])[None], data])
        distance = np.add.reduceat(
            words[1:] != words[:-1], np.cumsum(widths) - widths, axis=1, dtype=np.intp
        )
        toggle = np.concatenate([previous_invert[None], 2 * distance > widths + 1])
        tie = np.concatenate([np.zeros((1, len(widths)), bool), 2 * distance == widths + 1])
        parity = np.bitwise_xor.accumulate(toggle, axis=0)
        rows = np.arange(len(tie))[:, None]
        last_tie = np.maximum.accumulate(np.where(tie, rows, 0), axis=0)
        invert = parity ^ np.take_along_axis(np.where(tie, parity, 0), last_tie, axis=0)
        return np.concatenate([words ^ invert[:, wire_group], invert], axis=1)

    def encode(self, trace: BusTrace) -> BusTrace:
        """Encode a data trace; the invert lines are appended after the data wires.

        The first word is transmitted unmodified (all invert lines low), which
        matches the usual convention that the bus powers up in a known state.
        """
        encoded, _ = self.encode_block(trace.values, None)
        return BusTrace(values=encoded, name=f"{trace.name}/{self.name}")

    def encode_block(
        self, values: np.ndarray, state: StreamState | None
    ) -> tuple[np.ndarray, StreamState]:
        """Streamed encode carrying the previously driven word and invert lines.

        The decisions only ever look at what is currently *on the wires*, so
        that pair is the complete stream state; streamed output is
        bit-identical to :meth:`encode` over the whole trace.  Without a
        state the first word follows itself, so it is driven unmodified.
        """
        data = np.asarray(values, dtype=np.uint8)
        n_bits = data.shape[1]
        if state is None:
            state = (data[0], np.zeros(self.n_groups(n_bits), dtype=np.uint8))
        encoded = self._encode_rows(data, *state)
        return encoded[1:], (encoded[-1, :n_bits].copy(), encoded[-1, n_bits:].copy())

    def decode(self, encoded: BusTrace) -> BusTrace:
        """Undo the inversion using the appended invert lines (vectorised)."""
        values = encoded.values.astype(np.uint8)
        n_bits = self._data_bits(encoded.n_bits)
        data = values[:, :n_bits] ^ values[:, n_bits:][:, self._wire_groups(n_bits)]
        name = encoded.name
        suffix = f"/{self.name}"
        if name.endswith(suffix):
            name = name[: -len(suffix)]
        return BusTrace(values=data, name=name)

    def _data_bits(self, encoded_bits: int) -> int:
        """Recover the data width from an encoded width (inverse of :meth:`encoded_bits`)."""
        for n_bits in range(1, encoded_bits):
            if self.encoded_bits(n_bits) == encoded_bits:
                return n_bits
        raise ValueError(
            f"{encoded_bits} wires is not a valid {self.name} encoding width"
        )
