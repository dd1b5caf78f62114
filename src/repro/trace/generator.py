"""Convenience API for generating benchmark traces.

These helpers tie the profile registry and the synthetic generator together
and are what the experiment drivers and examples call.  Each materialising
helper has a streaming twin (:func:`generate_benchmark_trace` /
:func:`benchmark_trace_source`, :func:`generate_suite` / :func:`suite_sources`)
that describes the same workload as a :class:`~repro.trace.stream.TraceSource`
without holding it in memory -- the two are bit-identical for the same
parameters.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.trace.benchmarks import TABLE1_ORDER, get_profile
from repro.trace.stream import SyntheticTraceSource
from repro.trace.synthetic import generate_trace
from repro.trace.trace import BusTrace
from repro.utils.rng import SeedLike, spawn_rngs

#: The paper's per-benchmark trace length (10 M cycles).  The streaming
#: pipeline makes this the default for the Table 1 / Fig. 8 drivers: memory
#: stays O(chunk) regardless of trace length.
PAPER_CYCLES_PER_BENCHMARK = 10_000_000

#: Default per-benchmark trace length for the *materialising* helpers below
#: and the quick interactive experiments.  300 k keeps a full in-memory
#: Table 1 run interactive while leaving the 10 000-cycle control loop enough
#: windows to reach steady state after the initial descent from the nominal
#: supply.  Every driver accepts an override, and the streaming drivers
#: default to :data:`PAPER_CYCLES_PER_BENCHMARK` instead.
DEFAULT_CYCLES_PER_BENCHMARK = 300_000


def generate_benchmark_trace(
    name: str,
    n_cycles: int = DEFAULT_CYCLES_PER_BENCHMARK,
    *,
    n_bits: int = 32,
    seed: SeedLike = 2005,
) -> BusTrace:
    """Generate the synthetic trace of a single named benchmark."""
    profile = get_profile(name)
    return generate_trace(profile, n_cycles, n_bits=n_bits, seed=seed)


def benchmark_trace_source(
    name: str,
    n_cycles: int = PAPER_CYCLES_PER_BENCHMARK,
    *,
    n_bits: int = 32,
    seed: SeedLike = 2005,
) -> SyntheticTraceSource:
    """Streaming twin of :func:`generate_benchmark_trace` (bit-identical)."""
    return SyntheticTraceSource(get_profile(name), n_cycles, n_bits=n_bits, seed=seed)


def generate_suite(
    names: Sequence[str] | None = None,
    n_cycles: int = DEFAULT_CYCLES_PER_BENCHMARK,
    *,
    n_bits: int = 32,
    seed: int = 2005,
) -> dict[str, BusTrace]:
    """Generate traces for a set of benchmarks with independent random streams.

    Each benchmark gets its own RNG stream derived from the master seed, so
    regenerating a subset of the suite yields bit-identical traces.
    """
    if names is None:
        names = TABLE1_ORDER
    rngs = spawn_rngs(seed, len(names))
    return {
        name: generate_trace(get_profile(name), n_cycles, n_bits=n_bits, seed=rng)
        for name, rng in zip(names, rngs)
    }


def suite_sources(
    names: Sequence[str] | None = None,
    n_cycles: int = PAPER_CYCLES_PER_BENCHMARK,
    *,
    n_bits: int = 32,
    seed: int = 2005,
) -> dict[str, SyntheticTraceSource]:
    """Streaming twin of :func:`generate_suite`.

    Per-benchmark seed derivation matches :func:`generate_suite` exactly, so
    ``suite_sources(...)[name].materialize()`` equals
    ``generate_suite(...)[name]`` bit for bit.
    """
    if names is None:
        names = TABLE1_ORDER
    rngs = spawn_rngs(seed, len(names))
    return {
        name: SyntheticTraceSource(get_profile(name), n_cycles, n_bits=n_bits, seed=rng)
        for name, rng in zip(names, rngs)
    }
