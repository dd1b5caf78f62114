"""Saving and loading bus traces.

The synthetic generator covers the paper's experiments, but the whole point
of keeping :class:`~repro.trace.trace.BusTrace` origin-agnostic is that
*recorded* traces -- from an RTL simulation, an FPGA probe, or a rebuilt
SimpleScalar flow -- can be dropped into every experiment unchanged.  Two
interchange formats are supported:

``.npz``
    A compressed numpy archive; compact and fast, the format to use
    programmatically.  :func:`save_trace_npz` writes the trace's packed
    bytes (:func:`numpy.packbits`, ``bitorder="little"``) plus ``n_bits``
    metadata, and :func:`load_trace_npz` returns a packed
    :class:`~repro.trace.trace.BusTrace` -- what
    :class:`repro.trace.stream.NpzTraceSource` streams from.  Archives in
    the legacy layout (one unsigned integer per bus word under ``words``)
    still load; they are packed on load.
``.hex`` (text)
    One hexadecimal bus word per line with ``#`` comments; trivially
    produced by any logging testbench and easy to inspect by eye.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.trace.trace import BusTrace

PathLike = str | os.PathLike

#: Key names used inside the ``.npz`` archive.
_NPZ_WORDS_KEY = "words"  # legacy layout: integer words
_NPZ_PACKED_KEY = "packed"  # packed layout: packbits bytes (bitorder="little")
_NPZ_NBITS_KEY = "n_bits"
_NPZ_NAME_KEY = "name"


def save_trace_npz(trace: BusTrace, path: PathLike) -> None:
    """Save a trace's packed bytes as a compressed ``.npz`` archive."""
    np.savez_compressed(
        Path(path),
        **{
            _NPZ_PACKED_KEY: trace.packed_values,
            _NPZ_NBITS_KEY: np.array(trace.n_bits),
            _NPZ_NAME_KEY: np.array(trace.name),
        },
    )


def load_trace_npz(path: PathLike) -> BusTrace:
    """Load a trace saved by :func:`save_trace_npz` or a legacy word archive."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        if _NPZ_NBITS_KEY not in archive or (
            _NPZ_PACKED_KEY not in archive and _NPZ_WORDS_KEY not in archive
        ):
            raise ValueError(
                f"{path} is not a bus-trace archive (needs {_NPZ_NBITS_KEY!r} plus "
                f"{_NPZ_PACKED_KEY!r} or {_NPZ_WORDS_KEY!r})"
            )
        n_bits = int(archive[_NPZ_NBITS_KEY])
        name = str(archive[_NPZ_NAME_KEY]) if _NPZ_NAME_KEY in archive else path.stem
        if _NPZ_PACKED_KEY in archive:
            return BusTrace(packed=archive[_NPZ_PACKED_KEY], n_bits=n_bits, name=name)
        return BusTrace.from_words(archive[_NPZ_WORDS_KEY], n_bits=n_bits, name=name)


def save_trace_hex(trace: BusTrace, path: PathLike) -> None:
    """Save a trace as one hexadecimal word per line (with a header comment)."""
    path = Path(path)
    digits = (trace.n_bits + 3) // 4
    lines = [f"# bus trace {trace.name!r}: {trace.n_bits} bits, {trace.n_cycles} cycles"]
    lines.extend(f"{int(word):0{digits}x}" for word in trace.to_words())
    path.write_text("\n".join(lines) + "\n")


def load_trace_hex(path: PathLike, n_bits: int = 32, name: str | None = None) -> BusTrace:
    """Load a trace from a text file of hexadecimal words.

    Blank lines and ``#`` comments are ignored; words wider than ``n_bits``
    are rejected rather than silently truncated.
    """
    path = Path(path)
    words = []
    limit = 1 << n_bits
    for line_number, raw in enumerate(path.read_text().splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            word = int(stripped, 16)
        except ValueError as error:
            raise ValueError(f"{path}:{line_number}: not a hexadecimal word: {stripped!r}") from error
        if word < 0 or word >= limit:
            raise ValueError(
                f"{path}:{line_number}: word {stripped!r} does not fit in {n_bits} bits"
            )
        words.append(word)
    if len(words) < 2:
        raise ValueError(f"{path} holds {len(words)} words; a trace needs at least two")
    return BusTrace.from_words(np.asarray(words, dtype=np.uint64), n_bits=n_bits, name=name or path.stem)
