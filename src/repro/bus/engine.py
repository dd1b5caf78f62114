"""Kernel selection: vectorized block kernels vs the scalar reference.

Every simulation reduces its workload through one statistics pass
(:func:`repro.runtime.parallel.statistics_pass`): chunks are analysed by a
kernel, reduced to exact per-segment summaries, and the closed loop (or
oracle, or fixed-VS evaluation) replays those summaries.  ``engine`` only
picks the kernel that analyses each chunk:

``"vectorized"`` (the default)
    Whole-chunk integer-lane kernels (:mod:`repro.interconnect.block_kernels`)
    over the packed bit representation.  This is the paper-scale fast path
    (roughly an order of magnitude faster than the reference);
    configurations the lane kernels cannot represent (buses wider than 64
    wires, big-endian hosts) transparently use the scalar kernels, so
    results never depend on the host.

``"scalar"``
    The original per-wire reference implementation
    (:mod:`repro.interconnect.crosstalk` over unpacked 0/1 arrays).  It is
    kept both as executable documentation of the model and as the oracle the
    equivalence tests hold the vectorized kernels to: **both engines are
    bit-identical** on every statistic, energy total and control decision,
    for any chunk size.

Parallelism is not an engine: the separate ``jobs`` argument fans the same
pass out over worker processes, bit-identically.  ``None`` always means "the
default engine", so callers can thread an optional engine argument without
repeating the default.
"""

from __future__ import annotations


#: The fast integer-lane block engine (the default).
ENGINE_VECTORIZED = "vectorized"
#: The scalar reference implementation the vectorized engine is tested against.
ENGINE_SCALAR = "scalar"
#: All selectable engines.
ENGINES = (ENGINE_VECTORIZED, ENGINE_SCALAR)
#: Engine used when none is requested.
DEFAULT_ENGINE = ENGINE_VECTORIZED

#: Default streaming granularity per engine.  The scalar kernels allocate
#: ~1.5 kB of float temporaries per cycle, so small chunks keep them cache
#: resident; the lane kernels touch ~50 bytes per cycle and instead want
#: chunks big enough to amortise per-call numpy overhead.  Results are
#: bit-identical for any chunk size either way.
SCALAR_CHUNK_CYCLES = 25_000
VECTORIZED_CHUNK_CYCLES = 262_144


def resolve_engine(engine: str | None) -> str:
    """Validate an engine name, mapping ``None`` to the default."""
    if engine is None:
        return DEFAULT_ENGINE
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )
    return engine


def default_chunk_cycles(engine: str | None) -> int:
    """The default streaming chunk size of an engine."""
    if resolve_engine(engine) == ENGINE_VECTORIZED:
        return VECTORIZED_CHUNK_CYCLES
    return SCALAR_CHUNK_CYCLES
