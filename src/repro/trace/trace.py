"""Bus data traces.

A :class:`BusTrace` is the sequence of data words driven on the memory read
bus, one word per clock cycle.  The paper obtains these traces from a
SimpleScalar/Alpha simulation of SPEC2000 benchmarks; this reproduction
generates them synthetically (:mod:`repro.trace.synthetic`) but the trace
container and everything downstream is agnostic to their origin, so recorded
traces can be substituted directly.

Storage
-------
A trace stores one representation: a *packed* ``(n_words, ceil(n_bits / 8))``
uint8 array as produced by :func:`numpy.packbits` (``bitorder="little"``:
wire ``i`` lives in byte ``i // 8``, bit ``i % 8``), 8x smaller than the
``(n_words, n_bits)`` array of 0/1 values.  A 0/1 array is still accepted as
input (it is packed once, at construction), and :attr:`BusTrace.values`
unpacks it on every access.  The packed layout is what makes paper-scale
(10 M cycle) workloads fit in memory; the streaming pipeline
(:mod:`repro.trace.stream`) only ever unpacks one chunk at a time.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

#: Bit order used for the packed representation (wire i -> byte i//8, bit i%8).
PACKED_BITORDER = "little"


def pack_values(values: np.ndarray) -> np.ndarray:
    """Pack a 0/1 ``(n_words, n_bits)`` array into bytes along the bit axis."""
    return np.packbits(np.asarray(values, dtype=np.uint8), axis=1, bitorder=PACKED_BITORDER)


def unpack_values(packed: np.ndarray, n_bits: int) -> np.ndarray:
    """Invert :func:`pack_values` for an ``n_bits``-wide bus."""
    return np.unpackbits(
        np.asarray(packed, dtype=np.uint8), axis=1, count=n_bits, bitorder=PACKED_BITORDER
    )


def words_to_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Expand integer bus words into a 0/1 ``(n_words, n_bits)`` array (LSB = wire 0)."""
    words = np.asarray(words)
    if words.ndim != 1:
        raise ValueError("words must be a 1-D sequence of integers")
    bit_positions = np.arange(n_bits, dtype=np.uint64)
    bits = (words[:, None].astype(np.uint64) >> bit_positions) & 1
    return bits.astype(np.uint8)


def words_to_packed(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Pack integer bus words straight into the packed byte representation.

    Equivalent to ``pack_values(words_to_bits(words, n_bits))`` but without
    ever materialising the 0/1 array: the little bit order of the packed
    layout (wire ``i`` -> byte ``i // 8``, bit ``i % 8``) is exactly the
    little-endian byte order of the word itself, so packing is a reinterpret
    plus a mask of the top byte's unused bits.  Works for ``n_bits <= 64``.
    """
    words = np.asarray(words)
    if words.ndim != 1:
        raise ValueError("words must be a 1-D sequence of integers")
    if n_bits <= 0 or n_bits > 64:
        raise ValueError(f"n_bits must be in 1..64, got {n_bits}")
    n_bytes = (n_bits + 7) // 8
    as_bytes = np.ascontiguousarray(words, dtype="<u8").view(np.uint8).reshape(-1, 8)
    # Always copy the byte slice: for n_bytes == 8 it would otherwise alias
    # the caller's array and the mask below would corrupt it in place.
    packed = np.array(as_bytes[:, :n_bytes], order="C")
    if n_bits % 8:
        packed[:, -1] &= (1 << (n_bits % 8)) - 1
    return packed


class BusTrace:
    """A sequence of bus words with a 0/1 ``(n_words, n_bits)`` view.

    The number of simulated *cycles* (transitions) is ``n_words - 1``: the
    first word only establishes the initial bus state.

    Exactly one of ``values`` (a 0/1 array, packed on construction) or
    ``packed`` (a :func:`numpy.packbits` array plus ``n_bits``) must be
    given; the trace stores the packed bytes either way.

    >>> trace = BusTrace.from_words([0x0, 0xF, 0x5, 0xA], n_bits=4)
    >>> trace.to_words().tolist()
    [0, 15, 5, 10]
    >>> window = trace.window(1, 2)
    >>> window.n_bits, window.to_words().tolist()
    (4, [15, 5, 10])
    """

    __slots__ = ("_packed", "_n_bits", "name")

    def __init__(
        self,
        values: np.ndarray | None = None,
        name: str = "trace",
        *,
        packed: np.ndarray | None = None,
        n_bits: int | None = None,
    ) -> None:
        if (values is None) == (packed is None):
            raise ValueError("exactly one of 'values' and 'packed' must be given")
        self.name = name
        if values is not None:
            values = np.asarray(values)
            if values.ndim != 2:
                raise ValueError(
                    f"values must be 2-D (words x bits), got shape {values.shape}"
                )
            if not np.all((values == 0) | (values == 1)):
                raise ValueError("trace values must be 0/1")
            packed, n_bits = pack_values(values), values.shape[1]
        if n_bits is None or n_bits <= 0:
            raise ValueError("a trace needs a positive n_bits")
        packed = np.asarray(packed, dtype=np.uint8)
        if packed.ndim != 2:
            raise ValueError(f"packed must be 2-D (words x bytes), got shape {packed.shape}")
        if packed.shape[0] < 2:
            raise ValueError("a trace needs at least two words (one transition)")
        expected_bytes = (int(n_bits) + 7) // 8
        if packed.shape[1] != expected_bytes:
            raise ValueError(
                f"packed width {packed.shape[1]} does not match "
                f"{n_bits} bits ({expected_bytes} bytes)"
            )
        self._packed = packed
        self._n_bits = int(n_bits)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_words(cls, words: Iterable[int], n_bits: int = 32, name: str = "trace") -> BusTrace:
        """Build a trace from integer bus words (LSB = wire 0)."""
        # An explicit dtype: numpy infers float64 for a list mixing small ints
        # with ones >= 2**63, which would round 64-bit words.
        words_array = np.asarray(words if isinstance(words, np.ndarray) else list(words), np.uint64)
        return cls(packed=words_to_packed(words_array, n_bits), n_bits=n_bits, name=name)

    # ------------------------------------------------------------------ #
    # Representation
    # ------------------------------------------------------------------ #
    @property
    def values(self) -> np.ndarray:
        """The 0/1 ``(n_words, n_bits)`` array, unpacked *on every access*.

        Read it once into a local when a loop needs repeated access.
        """
        return unpack_values(self._packed, self._n_bits)

    @property
    def packed_values(self) -> np.ndarray:
        """The packed byte array."""
        return self._packed

    @property
    def nbytes(self) -> int:
        """Resident size of the packed array in bytes."""
        return int(self._packed.nbytes)

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def n_bits(self) -> int:
        """Bus width in bits."""
        return self._n_bits

    @property
    def n_words(self) -> int:
        """Number of stored bus words (cycles + 1)."""
        return int(self._packed.shape[0])

    @property
    def n_cycles(self) -> int:
        """Number of simulated cycles (transitions between consecutive words)."""
        return self.n_words - 1

    def __len__(self) -> int:
        return self.n_cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BusTrace(name={self.name!r}, n_bits={self.n_bits}, n_cycles={self.n_cycles})"

    def to_words(self) -> np.ndarray:
        """The trace as ``uint64`` words (LSB = wire 0), for buses up to 64 wires.

        The inverse of :func:`words_to_packed`: each packed row, zero-padded
        to 8 bytes, is the little-endian word itself.
        """
        if self._n_bits > 64:
            raise ValueError(f"a {self._n_bits}-bit trace does not fit 64-bit words")
        padded = np.zeros((self.n_words, 8), dtype=np.uint8)
        padded[:, : self._packed.shape[1]] = self._packed
        return padded.view("<u8").reshape(self.n_words).astype(np.uint64, copy=False)

    # ------------------------------------------------------------------ #
    # Manipulation
    # ------------------------------------------------------------------ #
    def window(self, start_cycle: int, n_cycles: int, name: str | None = None) -> BusTrace:
        """A sub-trace covering ``n_cycles`` transitions starting at ``start_cycle``.

        The window is a row slice of the packed array, so extracting a chunk
        of a 10 M-cycle trace allocates nothing.
        """
        if start_cycle < 0 or start_cycle + n_cycles > self.n_cycles:
            raise ValueError(
                f"window [{start_cycle}, {start_cycle + n_cycles}) is outside the "
                f"trace's {self.n_cycles} cycles"
            )
        rows = slice(start_cycle, start_cycle + n_cycles + 1)
        window_name = name or f"{self.name}[{start_cycle}:+{n_cycles}]"
        return BusTrace(packed=self._packed[rows], n_bits=self._n_bits, name=window_name)

    def concatenate(self, other: BusTrace, name: str | None = None) -> BusTrace:
        """Run another trace back-to-back after this one.

        The transition from this trace's last word to the other trace's first
        word is included, exactly as if the programs executed consecutively.
        """
        if other.n_bits != self.n_bits:
            raise ValueError(
                f"cannot concatenate a {other.n_bits}-bit trace onto a {self.n_bits}-bit trace"
            )
        combined_name = name or f"{self.name}+{other.name}"
        packed = np.concatenate([self._packed, other._packed], axis=0)
        return BusTrace(packed=packed, n_bits=self._n_bits, name=combined_name)

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    def toggle_activity(self) -> float:
        """Mean fraction of bits toggling per cycle."""
        changes = np.count_nonzero(np.diff(self.values.astype(np.int8), axis=0), axis=1)
        return float(np.mean(changes)) / self.n_bits

    def per_bit_activity(self) -> np.ndarray:
        """Per-wire toggle probability across the trace."""
        changes = np.diff(self.values.astype(np.int8), axis=0) != 0
        return changes.mean(axis=0)


def concatenate_traces(traces: Iterable[BusTrace], name: str = "suite") -> BusTrace:
    """Concatenate an iterable of traces into one back-to-back run."""
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace to concatenate")
    result = traces[0]
    for trace in traces[1:]:
        result = result.concatenate(trace)
    return BusTrace(packed=result.packed_values, n_bits=result.n_bits, name=name)
