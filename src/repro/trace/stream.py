"""Streaming trace pipeline: chunked, constant-memory access to bus traces.

The paper evaluates the closed-loop DVS bus on 10 M-cycle traces.  Holding a
whole trace (plus the per-cycle statistics every layer derives from it) in
memory costs hundreds of MB per benchmark, so the simulation core consumes
workloads through this module instead:

* a :class:`TraceSource` describes a trace of known length without holding
  it, and

* :meth:`TraceSource.chunks` iterates the trace as :class:`TraceChunk`\\ s --
  short bit-packed :class:`~repro.trace.trace.BusTrace` segments whose first
  word is the last word of the previous chunk, so per-cycle transition
  computations are chunk-local and concatenating chunk results reproduces
  the monolithic computation *exactly*.

Every source streams one representation, the packed bytes of
:mod:`repro.trace.trace`; a chunk's :attr:`TraceChunk.values` unpacks on
access.

Chunk-size invariance is a hard guarantee: every source produces the same
words for any ``chunk_cycles``, and the equivalence tests assert
bit-identical downstream results for chunk sizes that straddle the
controller's 10 000-cycle measurement window.

Examples
--------
Stream a synthetic benchmark and check the invariants directly:

>>> import numpy as np
>>> from repro.trace.stream import SyntheticTraceSource
>>> source = SyntheticTraceSource("crafty", n_cycles=10_000, seed=7)
>>> chunks = list(source.chunks(chunk_cycles=4_096))
>>> [chunk.n_cycles for chunk in chunks]
[4096, 4096, 1808]
>>> sum(chunk.n_cycles for chunk in chunks) == source.n_cycles
True

Each chunk's first word is the previous chunk's last word (the boundary
word), and the streamed words are bit-identical to a monolithic
materialisation at any chunk size:

>>> bool(np.array_equal(chunks[1].values[0], chunks[0].values[-1]))
True
>>> streamed = np.concatenate([chunks[0].values] + [c.values[1:] for c in chunks[1:]])
>>> bool(np.array_equal(streamed, source.materialize().values))
True
"""

from __future__ import annotations

import abc
from collections.abc import Iterator, Sequence

import numpy as np

from repro.telemetry import get_telemetry
from repro.trace.benchmarks import BenchmarkProfile, get_profile
from repro.trace.synthetic import GENERATION_BLOCK_WORDS, block_carry_word, iter_word_blocks
from repro.trace.trace import BusTrace, pack_values, unpack_values, words_to_packed
from repro.utils.rng import SeedLike

__all__ = [
    "DEFAULT_CHUNK_CYCLES",
    "TraceChunk",
    "TraceSource",
    "InMemoryTraceSource",
    "SyntheticTraceSource",
    "CpuKernelTraceSource",
    "NpzTraceSource",
    "ConcatenatedTraceSource",
    "EncodedTraceSource",
    "as_trace_source",
]

#: Default streaming granularity.  Large enough that per-chunk numpy overhead
#: is negligible, small enough that the chunk's working set (the per-cycle
#: coupling-classification temporaries dominate at ~1.5 kB/cycle) stays
#: cache-friendly: measured on the paper bus, 25 k-cycle chunks run ~40 %
#: faster than 100 k-cycle chunks at a quarter of the peak memory.  Results
#: are bit-identical for any value.
DEFAULT_CHUNK_CYCLES = 25_000


class TraceChunk:
    """One chunk of a streamed trace.

    ``trace`` is a :class:`~repro.trace.trace.BusTrace` segment holding
    ``n_cycles + 1`` words: word 0 is the *boundary word* -- the last word of
    the previous chunk (or the trace's initial state for the first chunk) --
    so the chunk's transitions are exactly ``diff(trace.values)``.
    """

    __slots__ = ("trace", "start_cycle", "index", "total_cycles")

    def __init__(self, trace: BusTrace, start_cycle: int, index: int, total_cycles: int) -> None:
        self.trace = trace
        self.start_cycle = int(start_cycle)
        self.index = int(index)
        self.total_cycles = int(total_cycles)

    @property
    def values(self) -> np.ndarray:
        """The chunk's 0/1 word array (boundary word included), unpacked on access."""
        return self.trace.values

    @property
    def n_cycles(self) -> int:
        """Transitions covered by this chunk."""
        return self.trace.n_cycles

    @property
    def n_bits(self) -> int:
        """Bus width."""
        return self.trace.n_bits

    @property
    def end_cycle(self) -> int:
        """Global cycle index one past the chunk's last transition."""
        return self.start_cycle + self.n_cycles

    @property
    def is_first(self) -> bool:
        """Whether this is the first chunk of the stream."""
        return self.start_cycle == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceChunk(index={self.index}, cycles=[{self.start_cycle}, "
            f"{self.end_cycle}) of {self.total_cycles})"
        )


#: Longest part of an in-memory trace (words): about one lane-kernel chunk.
HELD_PART_WORDS = 1 << 18


def _word_ranges(n_words: int, count: int) -> list[tuple[int, int]]:
    """At most ``count`` ``[first, end)`` ranges tiling ``n_words`` words,
    about equal in length and each at least two words (one cycle) long."""
    count = max(1, min(count, n_words // 2))
    edges = [index * n_words // count for index in range(count + 1)]
    return list(zip(edges, edges[1:]))


class TraceSource(abc.ABC):
    """A bus trace of known length, readable chunk by chunk.

    Subclasses implement :meth:`_packed_blocks`, yielding consecutive
    ``(n_words_i, ceil(n_bits / 8))`` packed byte arrays whose concatenation
    is the full packed word array (the first block starts with the trace's
    initial word).  Block sizes are an implementation detail; the base class
    re-slices them into the requested chunk size with the boundary word
    carried across chunks.
    """

    @property
    @abc.abstractmethod
    def n_cycles(self) -> int:
        """Total transitions of the trace."""

    @property
    @abc.abstractmethod
    def n_bits(self) -> int:
        """Bus width in bits."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Trace name carried into chunks and materialised traces."""

    @abc.abstractmethod
    def _packed_blocks(self) -> Iterator[np.ndarray]:
        """Yield consecutive packed word arrays covering the whole trace."""

    # ------------------------------------------------------------------ #
    # Chunked iteration
    # ------------------------------------------------------------------ #
    def chunks(self, chunk_cycles: int | None = None) -> Iterator[TraceChunk]:
        """Iterate the trace as boundary-carrying, packed :class:`TraceChunk`\\ s.

        Every chunk covers ``chunk_cycles`` transitions except possibly the
        last.  The produced words are identical for any chunk size.
        """
        if chunk_cycles is None:
            chunk_cycles = DEFAULT_CHUNK_CYCLES
        if chunk_cycles <= 0:
            raise ValueError(f"chunk_cycles must be positive, got {chunk_cycles}")
        total = self.n_cycles
        buffer: np.ndarray | None = None
        start_cycle = 0
        index = 0
        for block in self._packed_blocks():
            buffer = block if buffer is None else np.concatenate([buffer, block], axis=0)
            while buffer.shape[0] - 1 >= chunk_cycles:
                yield self._make_chunk(buffer[: chunk_cycles + 1], start_cycle, index, total)
                # Keep the boundary word; copy so the big parent buffer is freed.
                buffer = buffer[chunk_cycles:].copy()
                start_cycle += chunk_cycles
                index += 1
        if buffer is not None and buffer.shape[0] > 1:
            yield self._make_chunk(buffer, start_cycle, index, total)

    def _make_chunk(
        self, words: np.ndarray, start_cycle: int, index: int, total: int
    ) -> TraceChunk:
        rows = np.ascontiguousarray(words)
        trace = BusTrace(packed=rows, n_bits=self.n_bits, name=self.name)
        chunk = TraceChunk(trace, start_cycle=start_cycle, index=index, total_cycles=total)
        telemetry = get_telemetry()
        if telemetry.enabled:
            # Every chunk of every source funnels through here, so these three
            # counters are the stream-throughput ground truth for profiling.
            telemetry.count("trace.chunks_streamed")
            telemetry.count("trace.cycles_streamed", chunk.n_cycles)
            telemetry.count("trace.bytes_streamed", int(rows.nbytes))
        return chunk

    def parts(self, count: int) -> list[TraceSource]:
        """Sources whose words, back to back, are this trace's, for ``count`` workers.

        Each part covers at least one cycle and can be streamed in another
        process; the cycle between two parts (one part's last word to the
        next part's first) belongs to neither.  The statistics pass hands
        the parts to its workers in order and analyses those junction cycles
        itself.  Most sources give ``count`` parts; a source that cannot be
        split is its own one part, and a suite or a held trace may give more.
        """
        return [self]

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #
    def materialize(self) -> BusTrace:
        """The whole trace as one in-memory :class:`BusTrace`.

        Costs O(n) memory -- use only when a monolithic array is genuinely
        needed (tests, small traces, interop).
        """
        packed = np.concatenate(list(self._packed_blocks()), axis=0)
        return BusTrace(packed=packed, n_bits=self.n_bits, name=self.name)


class InMemoryTraceSource(TraceSource):
    """Stream an already-materialised :class:`BusTrace`.

    Blocks are row slices of the trace's packed array, so the 8x packed
    memory saving survives streaming.
    """

    def __init__(self, trace: BusTrace) -> None:
        self._trace = trace

    @property
    def n_cycles(self) -> int:
        return self._trace.n_cycles

    @property
    def n_bits(self) -> int:
        return self._trace.n_bits

    @property
    def name(self) -> str:
        return self._trace.name

    @property
    def trace(self) -> BusTrace:
        """The backing trace."""
        return self._trace

    def _packed_blocks(self) -> Iterator[np.ndarray]:
        # Yield bounded blocks rather than the whole array: `chunks` keeps a
        # rolling buffer of roughly one block plus one chunk, so a single
        # whole-trace block would make its carry-over reslicing quadratic in
        # the trace length (and transiently double memory).
        step = DEFAULT_CHUNK_CYCLES
        packed = self._trace.packed_values
        for start in range(0, packed.shape[0], step):
            yield packed[start : start + step]

    def materialize(self) -> BusTrace:
        """The backing trace itself."""
        return self._trace

    def parts(self, count: int) -> list[TraceSource]:
        """Row ranges of the packed trace, of about equal length.

        Slicing costs nothing, so there are ``count`` ranges or more, none
        longer than :data:`HELD_PART_WORDS`: a worker that finishes early
        takes the next range.
        """
        rows = self._trace.packed_values
        count = max(count, -(-rows.shape[0] // HELD_PART_WORDS))
        n_bits, name = self.n_bits, self.name
        return [
            InMemoryTraceSource(BusTrace(packed=rows[first:end], n_bits=n_bits, name=name))
            for first, end in _word_ranges(rows.shape[0], count)
        ]


class SyntheticTraceSource(TraceSource):
    """Stream a synthetic benchmark trace, generated block by block.

    The generator's fixed-size blocks each carry their own deterministic
    per-block RNG (see :mod:`repro.trace.synthetic`), so iterating this
    source -- any number of times, at any chunk size -- produces words
    bit-identical to the monolithic
    :func:`~repro.trace.synthetic.generate_trace` with the same arguments.
    Both pack the generated integer words straight into bytes
    (:func:`~repro.trace.trace.words_to_packed`), never building a 0/1 array.
    """

    def __init__(
        self,
        profile: BenchmarkProfile | str,
        n_cycles: int,
        *,
        n_bits: int = 32,
        seed: SeedLike = None,
    ) -> None:
        if isinstance(profile, str):
            profile = get_profile(profile)
        if n_cycles <= 0:
            raise ValueError(f"n_cycles must be positive, got {n_cycles}")
        if n_bits <= 0 or n_bits > 64:
            raise ValueError(f"n_bits must be in 1..64, got {n_bits}")
        self.profile = profile
        self._n_cycles = int(n_cycles)
        self._n_bits = int(n_bits)
        # Resolve the seed to a SeedSequence eagerly so repeated iteration of
        # the same source replays the same stream even for a None seed.
        from repro.trace.synthetic import trace_seed_sequence

        self._root = trace_seed_sequence(seed)

    @property
    def n_cycles(self) -> int:
        return self._n_cycles

    @property
    def n_bits(self) -> int:
        return self._n_bits

    @property
    def name(self) -> str:
        return self.profile.name

    def _packed_blocks(self) -> Iterator[np.ndarray]:
        yield from _SyntheticRange(self, 0, self._n_cycles)._packed_blocks()

    def parts(self, count: int) -> list[TraceSource]:
        """Contiguous word ranges of about equal length.

        Each range generates only from the generation block it starts in,
        so the ranges can be generated by different processes.
        """
        return [
            _SyntheticRange(self, first, end - first - 1)
            for first, end in _word_ranges(self._n_cycles + 1, count)
        ]


class _SyntheticRange(TraceSource):
    """The words of a synthetic source from ``first_word`` on, ``n_cycles``
    transitions long (one part of :meth:`SyntheticTraceSource.parts`).

    It generates from the start of the generation block holding
    ``first_word`` and drops the words before it; that block's carried word
    comes from :func:`~repro.trace.synthetic.block_carry_word`, so the
    blocks before it are never generated.
    """

    def __init__(self, source: SyntheticTraceSource, first_word: int, n_cycles: int) -> None:
        self._source = source
        self._first_word = first_word
        self._n_cycles = n_cycles

    @property
    def n_cycles(self) -> int:
        return self._n_cycles

    @property
    def n_bits(self) -> int:
        return self._source.n_bits

    @property
    def name(self) -> str:
        return self._source.name

    def _packed_blocks(self) -> Iterator[np.ndarray]:
        # Integer words pack by reinterpretation (no 0/1 detour), so
        # paper-scale synthetic traces stream with no per-bit work outside
        # the kernels themselves.
        source = self._source
        n_bits = source.n_bits
        block, skip = divmod(self._first_word, GENERATION_BLOCK_WORDS)
        carry = block_carry_word(source.profile, block, n_bits=n_bits, seed=source._root)
        blocks = iter_word_blocks(
            source.profile,
            source.n_cycles,
            n_bits=n_bits,
            seed=source._root,
            first_block=block,
            carry_word=carry,
        )
        remaining = self._n_cycles + 1
        for _, words in blocks:
            words = words[skip : skip + remaining]
            skip = 0
            remaining -= words.shape[0]
            yield words_to_packed(words, n_bits)
            if not remaining:
                return


class CpuKernelTraceSource(TraceSource):
    """Stream the memory-read-bus trace of a mini-CPU kernel, run by run.

    The kernel (:mod:`repro.cpu.kernels`) is executed repeatedly with fresh
    per-run data images until ``n_cycles`` bus transitions have been emitted;
    each run's word stream becomes one generation block, so memory stays
    O(one run) regardless of trace length.  Every run's RNG is derived
    *statelessly* from the source's root :class:`~numpy.random.SeedSequence`
    and the run index (:func:`repro.cpu.tracing.kernel_run_rng`), which gives
    the same guarantees the synthetic source has:

    * iterating the source any number of times, at any chunk size, produces
      bit-identical words, and
    * ``materialize()`` equals
      :func:`repro.cpu.tracing.kernel_bus_trace` with the same arguments.

    ``bus_policy="misses_only"`` attaches a fresh default data cache per
    iteration pass (cache state is part of the stream, so a shared cache
    would break re-iteration).
    """

    def __init__(
        self,
        kernel,
        n_cycles: int,
        *,
        n_bits: int = 32,
        seed: SeedLike = None,
        bus_policy: str = "all_loads",
        max_instructions_per_run: int = 200_000,
    ) -> None:
        from repro.cpu.kernels import Kernel, get_kernel

        if isinstance(kernel, str):
            kernel = get_kernel(kernel)
        if not isinstance(kernel, Kernel):
            raise TypeError(f"kernel must be a name or Kernel, got {type(kernel).__name__}")
        if n_cycles <= 0:
            raise ValueError(f"n_cycles must be positive, got {n_cycles}")
        if n_bits <= 0 or n_bits > 64:
            raise ValueError(f"n_bits must be in 1..64, got {n_bits}")
        self.kernel = kernel
        self.bus_policy = bus_policy
        self._n_cycles = int(n_cycles)
        self._n_bits = int(n_bits)
        self._max_instructions = int(max_instructions_per_run)
        # Resolve the seed to a SeedSequence eagerly so repeated iteration of
        # the same source replays the same runs even for a None seed.
        from repro.utils.rng import rng_seed_sequence

        self._root = rng_seed_sequence(seed)

    @property
    def n_cycles(self) -> int:
        return self._n_cycles

    @property
    def n_bits(self) -> int:
        return self._n_bits

    @property
    def name(self) -> str:
        return self.kernel.name

    def _packed_blocks(self) -> Iterator[np.ndarray]:
        """Yield one packed block per kernel run (truncated at the end).

        Integer words pack by reinterpretation (which also drops the bits
        above the bus width): kernel traces stream without ever widening to
        0/1 arrays.
        """
        from repro.cpu.memory import DirectMappedCache
        from repro.cpu.tracing import execute_kernel_once, kernel_run_rng

        cache = DirectMappedCache() if self.bus_policy == "misses_only" else None
        needed = self._n_cycles + 1
        emitted = 0
        run = 0
        while emitted < needed:
            result, _ = execute_kernel_once(
                self.kernel,
                kernel_run_rng(self._root, run),
                cache,
                self.bus_policy,
                self._max_instructions,
            )
            words = np.asarray(result.bus_words, dtype=np.uint64)[: needed - emitted]
            emitted += words.shape[0]
            run += 1
            yield words_to_packed(words, self._n_bits)


class NpzTraceSource(TraceSource):
    """Stream a trace saved by :func:`repro.trace.io.save_trace_npz`.

    The archive is loaded once into a packed :class:`BusTrace` (8x smaller
    than the 0/1 array; legacy word archives are packed on load) and streamed
    packed.
    """

    def __init__(self, path) -> None:
        from repro.trace.io import load_trace_npz

        self._trace = load_trace_npz(path)

    @property
    def n_cycles(self) -> int:
        return self._trace.n_cycles

    @property
    def n_bits(self) -> int:
        return self._trace.n_bits

    @property
    def name(self) -> str:
        return self._trace.name

    def _packed_blocks(self) -> Iterator[np.ndarray]:
        yield from InMemoryTraceSource(self._trace)._packed_blocks()

    def parts(self, count: int) -> list[TraceSource]:
        return InMemoryTraceSource(self._trace).parts(count)


class ConcatenatedTraceSource(TraceSource):
    """Several sources run back to back as one long trace (the Fig. 8 suite).

    Matches :func:`~repro.trace.trace.concatenate_traces` exactly: the
    transition from one program's last word to the next program's first word
    is included, so the total cycle count is
    ``sum(n_cycles_i) + (n_sources - 1)``.
    """

    def __init__(self, sources: Sequence[TraceSource], name: str = "suite") -> None:
        sources = list(sources)
        if not sources:
            raise ValueError("need at least one source to concatenate")
        widths = {source.n_bits for source in sources}
        if len(widths) > 1:
            raise ValueError(f"cannot concatenate sources of different widths: {sorted(widths)}")
        self._sources = sources
        self._name = name

    @property
    def sources(self) -> list[TraceSource]:
        """The concatenated sources, in execution order."""
        return list(self._sources)

    @property
    def n_cycles(self) -> int:
        return sum(source.n_cycles for source in self._sources) + len(self._sources) - 1

    @property
    def n_bits(self) -> int:
        return self._sources[0].n_bits

    @property
    def name(self) -> str:
        return self._name

    def boundaries(self) -> list[int]:
        """Cumulative per-program cycle counts (for plot annotation).

        Junction transitions between programs are not counted, matching the
        long-standing Fig. 8 annotation convention: the last boundary is
        ``sum(n_cycles_i)`` while the streamed run itself covers
        ``n_cycles_i`` plus the ``n_sources - 1`` junctions.
        """
        ends: list[int] = []
        offset = 0
        for source in self._sources:
            offset += source.n_cycles
            ends.append(offset)
        return ends

    def _packed_blocks(self) -> Iterator[np.ndarray]:
        for source in self._sources:
            yield from source._packed_blocks()

    def parts(self, count: int) -> list[TraceSource]:
        """One part per program, whatever ``count``: the junctions between
        programs are exactly the cycles between parts."""
        if any(source.n_cycles < 1 for source in self._sources):
            return [self]
        return list(self._sources)


class EncodedTraceSource(TraceSource):
    """A source passed through a bus encoder, chunk by chunk.

    Sequential encoders carry their stream state (cumulative parity for
    transition signalling, the previously driven word and invert lines for
    bus-invert) across chunks via
    :meth:`~repro.encoding.base.BusEncoder.encode_block`, so the streamed
    encoding is bit-identical to encoding the materialised trace at once.
    """

    def __init__(self, source: TraceSource, encoder) -> None:
        self._source = source
        self._encoder = encoder

    @property
    def n_cycles(self) -> int:
        return self._source.n_cycles

    @property
    def n_bits(self) -> int:
        return self._encoder.encoded_bits(self._source.n_bits)

    @property
    def name(self) -> str:
        return self._encoder.encoded_name(self._source.name)

    def _packed_blocks(self) -> Iterator[np.ndarray]:
        state = None
        n_bits = self._source.n_bits
        for block in self._source._packed_blocks():
            encoded, state = self._encoder.encode_block(unpack_values(block, n_bits), state)
            yield pack_values(encoded)


WorkloadLike = BusTrace | TraceSource


def as_trace_source(workload: WorkloadLike) -> TraceSource:
    """Coerce a workload to a :class:`TraceSource` (traces are wrapped)."""
    if isinstance(workload, TraceSource):
        return workload
    if isinstance(workload, BusTrace):
        return InMemoryTraceSource(workload)
    raise TypeError(f"cannot stream a workload of type {type(workload).__name__}")
