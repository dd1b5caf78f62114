"""Encoder interface shared by every bus encoding scheme.

An encoder maps a :class:`~repro.trace.trace.BusTrace` of data words to the
trace of words *physically driven on the wires*.  Schemes that add redundant
wires (bus-invert adds one invert line per group) return a wider trace; the
evaluation harness then builds a correspondingly wider bus so their wiring
overhead is charged honestly.

Every encoder also exposes a *streaming* encode path,
:meth:`BusEncoder.encode_block`, that processes a run of data words while
carrying whatever state the scheme needs across blocks (cumulative parity
for transition signalling, the previously driven word and invert lines for
bus-invert).  :class:`repro.trace.stream.EncodedTraceSource` uses it to
encode paper-scale traces chunk by chunk, bit-identically to :meth:`encode`
over the materialised trace.
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from repro.trace.trace import BusTrace

#: Opaque per-stream encoder state carried between encode_block calls.
StreamState = Any


class BusEncoder(abc.ABC):
    """Base class of all bus encoders.

    Subclasses implement :meth:`encode` and :meth:`decode`; both operate on
    whole traces so they can be vectorised where the scheme allows it.  The
    invariant every encoder must satisfy (and the property tests check) is
    ``decode(encode(trace)) == trace``.

    Word-wise (stateless) encoders get streaming support for free; stateful
    schemes override :meth:`encode_block`.
    """

    #: Human-readable scheme name used in reports.
    name: str = "encoder"

    @property
    def extra_bits(self) -> int:
        """Number of redundant wires the encoding adds to the bus."""
        return 0

    def encoded_bits(self, n_bits: int) -> int:
        """Width of the physical bus for an ``n_bits``-wide data word."""
        return n_bits + self.extra_bits

    def encoded_name(self, name: str) -> str:
        """The name an encoded trace carries (matches :meth:`encode`)."""
        return f"{name}/{self.name}"

    @abc.abstractmethod
    def encode(self, trace: BusTrace) -> BusTrace:
        """The trace of physical wire values for a data trace."""

    @abc.abstractmethod
    def decode(self, encoded: BusTrace) -> BusTrace:
        """Recover the data trace from a physical wire trace."""

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #
    def encode_block(
        self, values: np.ndarray, state: StreamState | None
    ) -> tuple[np.ndarray, StreamState]:
        """Encode a run of data words, carrying stream state between blocks.

        ``values`` is a 0/1 ``(n_words, n_bits)`` array of *data* words (no
        boundary row); ``state`` is whatever the previous call returned
        (``None`` before the first, which marks the block that starts the
        trace).  Returns the encoded words and the updated state.
        Concatenating the outputs over all blocks must equal
        ``encode(whole_trace).values`` exactly.

        The default implementation covers *word-wise* encoders -- schemes
        where each output word depends only on the corresponding input word
        -- by delegating to :meth:`encode` on a self-contained two-word
        trace when needed.  Stateful schemes must override.
        """
        if not self.is_wordwise:
            raise NotImplementedError(
                f"{type(self).__name__} is stateful; it must override encode_block"
            )
        values = np.asarray(values, dtype=np.uint8)
        if values.shape[0] >= 2:
            encoded = self.encode(BusTrace(values=values)).values
        else:
            # BusTrace needs two words; duplicate the lone word and keep one row.
            doubled = np.concatenate([values, values], axis=0)
            encoded = self.encode(BusTrace(values=doubled)).values[:1]
        return encoded, state

    @property
    def is_wordwise(self) -> bool:
        """Whether each encoded word depends only on its own data word.

        Word-wise encoders stream trivially through the default
        :meth:`encode_block`; stateful encoders return ``False`` and provide
        their own.
        """
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class IdentityEncoder(BusEncoder):
    """The unencoded bus: physical wires carry the data words directly."""

    name = "unencoded"

    @property
    def is_wordwise(self) -> bool:
        """Identity is trivially word-wise."""
        return True

    def encoded_name(self, name: str) -> str:
        """Identity leaves trace names untouched, like :meth:`encode`."""
        return name

    def encode(self, trace: BusTrace) -> BusTrace:
        """Return the trace unchanged (no redundant wires, no remapping)."""
        return trace

    def decode(self, encoded: BusTrace) -> BusTrace:
        """Return the trace unchanged."""
        return encoded
