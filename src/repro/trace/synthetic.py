"""Synthetic memory-read-bus trace generator.

Generates phase-structured streams of 32-bit bus words according to a
:class:`~repro.trace.benchmarks.BenchmarkProfile`.  Five word kinds are
supported; their switching statistics span the range from "almost no
switching" (held words) to "worst-case coupling patterns nearly every cycle"
(uniform random words):

``hold``
    Repeat the previous bus word.
``small_int``
    A bounded random walk over small non-negative integers: only the
    low-order bits toggle, and mostly one or two at a time.
``pointer``
    A few interleaved striding address streams with a fixed upper half:
    counting patterns in the middle bits, benign coupling behaviour.
``float_like``
    IEEE-754 single-precision-like payloads: quiet sign/exponent bits over a
    narrow exponent range, uniformly random mantissa bits.
``random``
    Uniform 32-bit words: maximum entropy, frequent worst-case patterns.

Block structure
---------------
Words are generated in fixed-size *blocks* of :data:`GENERATION_BLOCK_WORDS`
words.  Every block gets its own :class:`numpy.random.SeedSequence` child,
derived statelessly from the trace seed and the block index, and the only
state carried between blocks is the last emitted word (so leading ``hold``
runs have something to repeat).  Two properties follow:

* **Constant memory** -- a block is generated, consumed and dropped; a
  10 M-cycle trace never exists as a whole unless the caller materialises it.
* **Chunk-size invariance** -- the streaming source
  (:class:`repro.trace.stream.SyntheticTraceSource`) re-slices the same fixed
  blocks into whatever chunk size the consumer requests, so streamed output
  is bit-identical to the monolithic :func:`generate_trace` for *any* chunk
  size.
* **Resumable ranges** -- :func:`block_carry_word` finds the word any block
  resumes from without generating the blocks before it, so disjoint block
  ranges can be generated by different processes.

Everything inside a block is vectorised, so multi-million-cycle traces still
generate in well under a second.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.trace.benchmarks import BenchmarkProfile
from repro.trace.trace import BusTrace, words_to_packed
from repro.utils.rng import SeedLike, derive_seed_sequence, rng_seed_sequence

#: Canonical kind indices used internally by the generator.
KIND_HOLD, KIND_SMALL_INT, KIND_POINTER, KIND_FLOAT, KIND_RANDOM = range(5)

_WORD_MASK = np.uint64(0xFFFFFFFF)

#: Words generated per block.  This is a *generation* granularity, not the
#: streaming chunk size: changing it changes the trace content, so it is a
#: fixed constant of the format, chosen so a block's working set (a few MB)
#: stays cache-friendly while per-block bookkeeping is negligible.
GENERATION_BLOCK_WORDS = 65_536


def _small_int_stream(n_words: int, rng: np.random.Generator) -> np.ndarray:
    """Bounded random walk over small integers (low-byte activity).

    Steps are small (mostly -3..+3) so consecutive values differ in only a
    couple of low-order bits, mimicking loop counters, flags and small field
    loads.
    """
    steps = rng.integers(-3, 4, size=n_words, dtype=np.int64)
    walk = np.cumsum(steps)
    walk -= walk.min()
    span = max(int(walk.max()), 1)
    scale = min(1.0, 1000.0 / span)
    values = (walk * scale).astype(np.uint64)
    return values & _WORD_MASK


def _pointer_stream(
    n_words: int, rng: np.random.Generator, stickiness: float = 0.92
) -> np.ndarray:
    """Striding address streams with a stable upper half.

    Consecutive pointer loads usually come from the same array or structure
    (spatial locality), so the generator stays on the current stream with
    probability ``stickiness`` and only occasionally hops to another stream
    (which produces a large, random-looking transition, as a real pointer
    chase would).
    """
    n_streams = 4
    bases = rng.integers(0x1000_0000, 0x7FFF_0000, size=n_streams, dtype=np.uint64) & ~np.uint64(
        0xFFFF
    )
    strides = rng.choice([4, 8, 16, 32], size=n_streams).astype(np.uint64)
    # Sticky stream selection: a run continues until a "hop" event.
    hops = rng.random(n_words) > stickiness
    hops[0] = True
    hop_targets = rng.integers(0, n_streams, size=n_words)
    run_index = np.cumsum(hops) - 1
    stream_ids = hop_targets[np.nonzero(hops)[0]][run_index]
    progress = np.zeros(n_words, dtype=np.uint64)
    for stream in range(n_streams):
        mask = stream_ids == stream
        progress[mask] = np.arange(np.count_nonzero(mask), dtype=np.uint64)
    values = bases[stream_ids] + strides[stream_ids] * progress
    return values & _WORD_MASK


def _float_stream(n_words: int, rng: np.random.Generator) -> np.ndarray:
    """IEEE-754 single-precision-like payloads with a narrow exponent range."""
    signs = rng.integers(0, 2, size=n_words, dtype=np.uint64) << np.uint64(31)
    exponents = (np.uint64(118) + rng.integers(0, 18, size=n_words, dtype=np.uint64)) << np.uint64(
        23
    )
    mantissas = rng.integers(0, 1 << 23, size=n_words, dtype=np.uint64)
    return (signs | exponents | mantissas) & _WORD_MASK


def _random_stream(n_words: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform high-entropy 32-bit words."""
    return rng.integers(0, 1 << 32, size=n_words, dtype=np.uint64) & _WORD_MASK


def _phase_indices(
    profile: BenchmarkProfile, n_words: int, rng: np.random.Generator
) -> np.ndarray:
    """Assign each word of a block to an execution phase, in contiguous runs."""
    block_length = max(1, int(round(profile.phase_block_fraction * n_words)))
    n_blocks = int(np.ceil(n_words / block_length))
    weights = np.asarray(profile.phase_weights)
    block_phases = rng.choice(len(profile.phases), size=n_blocks, p=weights)
    return np.repeat(block_phases, block_length)[:n_words]


def _kind_labels(
    profile: BenchmarkProfile, phase_indices: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw a word kind for every cycle according to its phase's mixture.

    Kinds are drawn per *run* rather than per cycle: consecutive memory reads
    tend to touch the same kind of data (the same array, the same structure),
    so the generator draws geometric-length runs of a single kind.  This
    temporal clustering matters: back-to-back words of different kinds
    produce essentially random relative transitions, so an i.i.d. per-cycle
    draw would grossly overestimate how often the bus sees near-worst-case
    coupling patterns.
    """
    n_words = len(phase_indices)
    mean_run = max(profile.kind_run_length, 1.0)
    # Run boundaries arrive as a Bernoulli process with rate 1/mean_run.
    boundaries = rng.random(n_words) < (1.0 / mean_run)
    boundaries[0] = True
    run_index = np.cumsum(boundaries) - 1
    run_starts = np.nonzero(boundaries)[0]

    uniforms = rng.random(len(run_starts))
    run_labels = np.empty(len(run_starts), dtype=np.int8)
    run_phases = phase_indices[run_starts]
    for phase_index, phase in enumerate(profile.phases):
        mask = run_phases == phase_index
        if not np.any(mask):
            continue
        cumulative = np.cumsum(phase.mix.as_tuple())
        run_labels[mask] = np.searchsorted(cumulative, uniforms[mask], side="right")
    labels = run_labels[run_index]
    return np.clip(labels, 0, 4)


# --------------------------------------------------------------------------- #
# Deterministic per-block seeding
# --------------------------------------------------------------------------- #
def trace_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """The root :class:`~numpy.random.SeedSequence` of a trace seed.

    Accepts the same ``SeedLike`` values as :func:`repro.utils.rng.make_rng`;
    a :class:`numpy.random.Generator` contributes the seed sequence it was
    built from (so generators handed out by
    :func:`repro.utils.rng.spawn_rngs` keep their independent streams).
    Alias of :func:`repro.utils.rng.rng_seed_sequence`, kept under the
    historical name.
    """
    return rng_seed_sequence(seed)


def block_rng(root: np.random.SeedSequence, block_index: int) -> np.random.Generator:
    """The RNG of one generation block, derived statelessly from the root.

    Equivalent to ``root.spawn(...)[block_index]`` but without mutating the
    root, so any block can be (re)generated in any order -- the property the
    streaming source relies on to re-slice blocks into arbitrary chunks.
    """
    return np.random.default_rng(derive_seed_sequence(root, (block_index,)))


def generate_word_block(
    profile: BenchmarkProfile,
    n_words: int,
    rng: np.random.Generator,
    carry_word: int | None,
) -> tuple[np.ndarray, bool]:
    """One block of bus words, and whether the whole block holds ``carry_word``.

    ``carry_word`` is the last word of the previous block (``None`` for the
    first block of a trace); a leading run of ``hold`` words repeats it.  It
    feeds no RNG draw, except that ``None`` rewrites a leading ``hold`` kind,
    which shifts every later draw.
    """
    phase_indices = _phase_indices(profile, n_words, rng)
    kinds = _kind_labels(profile, phase_indices, rng)
    if carry_word is None and kinds[0] == KIND_HOLD:
        # The first word of the trace must carry a real value so holds have
        # something to repeat.
        kinds[0] = KIND_SMALL_INT

    candidates = np.zeros(n_words, dtype=np.uint64)
    generators = {
        KIND_SMALL_INT: _small_int_stream,
        KIND_POINTER: _pointer_stream,
        KIND_FLOAT: _float_stream,
        KIND_RANDOM: _random_stream,
    }
    for kind, generator in generators.items():
        mask = kinds == kind
        count = int(np.count_nonzero(mask))
        if count:
            candidates[mask] = generator(count, rng)

    # Forward-fill held words with the most recent non-held value; a leading
    # hold run (only possible mid-trace) repeats the carried boundary word.
    source_index = np.where(kinds != KIND_HOLD, np.arange(n_words), -1)
    source_index = np.maximum.accumulate(source_index)
    if carry_word is None:
        return candidates[np.maximum(source_index, 0)], False
    leading = source_index < 0
    source_index = np.where(leading, 0, source_index)
    words = candidates[source_index]
    words[leading] = np.uint64(carry_word)
    return words, bool(leading[-1])


def _word_mask(n_bits: int) -> np.uint64:
    """The low ``n_bits`` bits of a ``uint64`` word."""
    return (np.uint64(1) << np.uint64(n_bits)) - np.uint64(1) if n_bits < 64 else ~np.uint64(0)


def block_carry_word(
    profile: BenchmarkProfile,
    block: int,
    *,
    n_bits: int = 32,
    seed: SeedLike = None,
) -> int | None:
    """The word generation block ``block`` resumes from (``None`` for block 0).

    That is the last word of block ``block - 1``, found without generating
    the blocks before it: block ``block - 1`` is regenerated with a
    placeholder carry.  The carry reaches only the block's leading ``hold``
    run, so the regenerated last word is exact unless the whole block is
    that run; then the block's own carry is the answer, and the search walks
    back one more block.  Block 0 always ends on a generated word.  Every
    block before the last is full, so the regenerated blocks are too.
    """
    if block <= 0:
        return None
    root = trace_seed_sequence(seed)
    mask = _word_mask(n_bits)
    for index in range(block - 1, -1, -1):
        carry = None if index == 0 else 0
        words, held = generate_word_block(
            profile, GENERATION_BLOCK_WORDS, block_rng(root, index), carry
        )
        if not held:
            return int(words[-1] & mask)
    raise AssertionError("block 0 cannot hold a carried word")  # pragma: no cover


def iter_word_blocks(
    profile: BenchmarkProfile,
    n_cycles: int,
    *,
    n_bits: int = 32,
    seed: SeedLike = None,
    first_block: int = 0,
    carry_word: int | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(block_index, words)`` for a trace's generation blocks.

    The full trace is the concatenation of all blocks starting from
    ``first_block = 0``; resuming from a later block requires the carried
    last word of the preceding block.  Validation mirrors
    :func:`generate_trace`.
    """
    if n_cycles <= 0:
        raise ValueError(f"n_cycles must be positive, got {n_cycles}")
    if n_bits <= 0 or n_bits > 64:
        raise ValueError(f"n_bits must be in 1..64, got {n_bits}")
    root = trace_seed_sequence(seed)
    n_words = n_cycles + 1
    mask = _word_mask(n_bits)
    n_blocks = (n_words + GENERATION_BLOCK_WORDS - 1) // GENERATION_BLOCK_WORDS
    for index in range(first_block, n_blocks):
        start = index * GENERATION_BLOCK_WORDS
        count = min(GENERATION_BLOCK_WORDS, n_words - start)
        words, _ = generate_word_block(profile, count, block_rng(root, index), carry_word)
        words &= mask
        carry_word = int(words[-1])
        yield index, words


def generate_trace(
    profile: BenchmarkProfile,
    n_cycles: int,
    *,
    n_bits: int = 32,
    seed: SeedLike = None,
) -> BusTrace:
    """Generate a synthetic bus trace for a benchmark profile (materialised).

    This is the monolithic convenience wrapper around the block generator;
    :class:`repro.trace.stream.SyntheticTraceSource` streams the *same*
    blocks chunk by chunk, bit-identically, in constant memory.

    Parameters
    ----------
    profile:
        Workload profile describing the word-kind mixture per phase.
    n_cycles:
        Number of bus transitions to simulate (the trace holds one extra word
        for the initial state).
    n_bits:
        Bus width; the paper's bus is 32 bits.
    seed:
        Seed or generator for reproducibility.
    """
    blocks = [words for _, words in iter_word_blocks(profile, n_cycles, n_bits=n_bits, seed=seed)]
    words = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    return BusTrace(packed=words_to_packed(words, n_bits), n_bits=n_bits, name=profile.name)
