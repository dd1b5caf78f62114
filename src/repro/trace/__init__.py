"""Workload substrate: synthetic SPEC2000-like bus traces and phase analysis.

The names below load on first use (:mod:`repro.utils.lazy`), so the
numpy-free registries -- :data:`TABLE1_ORDER` in :mod:`repro.trace.benchmarks`
and :class:`WorkloadError` here -- import without numpy.
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports


class WorkloadError(ValueError):
    """A workload spec could not be resolved or is unusable as requested.

    Raised by consumers that need to distinguish *bad user input* (an
    unknown spec, workloads of incompatible widths) from internal failures
    -- e.g. the CLI catches exactly this to print a clean error instead of
    a traceback.  The registry itself raises ``KeyError``/``TypeError`` so
    lookups stay idiomatic; wrap at the boundary that owns the user input.
    Defined here rather than in :mod:`repro.trace.workloads` so catching it
    loads no workload code.
    """


if TYPE_CHECKING:
    from repro.trace.benchmarks import (
        SPEC2000_PROFILES,
        TABLE1_ORDER,
        BenchmarkProfile,
        ProgramPhase,
        WordMix,
        get_profile,
    )
    from repro.trace.generator import (
        DEFAULT_CYCLES_PER_BENCHMARK,
        PAPER_CYCLES_PER_BENCHMARK,
        benchmark_trace_source,
        generate_benchmark_trace,
        generate_suite,
        suite_sources,
    )
    from repro.trace.simpoint import SimPointSelection, select_simpoints, window_signatures
    from repro.trace.io import load_trace_hex, load_trace_npz, save_trace_hex, save_trace_npz
    from repro.trace.stream import (
        DEFAULT_CHUNK_CYCLES,
        ConcatenatedTraceSource,
        CpuKernelTraceSource,
        EncodedTraceSource,
        InMemoryTraceSource,
        NpzTraceSource,
        SyntheticTraceSource,
        TraceChunk,
        TraceSource,
        as_trace_source,
    )
    from repro.trace.synthetic import generate_trace
    from repro.trace.workloads import (
        WORKLOADS,
        SimPointTraceSource,
        WorkloadRegistry,
        available_workloads,
        kernel_sources,
        resolve_workload,
        resolve_workload_mapping,
    )
    from repro.trace.trace import BusTrace, concatenate_traces, pack_values, unpack_values

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.trace.benchmarks": (
            "SPEC2000_PROFILES",
            "TABLE1_ORDER",
            "BenchmarkProfile",
            "ProgramPhase",
            "WordMix",
            "get_profile",
        ),
        "repro.trace.generator": (
            "DEFAULT_CYCLES_PER_BENCHMARK",
            "PAPER_CYCLES_PER_BENCHMARK",
            "benchmark_trace_source",
            "generate_benchmark_trace",
            "generate_suite",
            "suite_sources",
        ),
        "repro.trace.simpoint": ("SimPointSelection", "select_simpoints", "window_signatures"),
        "repro.trace.io": ("load_trace_hex", "load_trace_npz", "save_trace_hex", "save_trace_npz"),
        "repro.trace.stream": (
            "DEFAULT_CHUNK_CYCLES",
            "ConcatenatedTraceSource",
            "CpuKernelTraceSource",
            "EncodedTraceSource",
            "InMemoryTraceSource",
            "NpzTraceSource",
            "SyntheticTraceSource",
            "TraceChunk",
            "TraceSource",
            "as_trace_source",
        ),
        "repro.trace.synthetic": ("generate_trace",),
        "repro.trace.workloads": (
            "WORKLOADS",
            "SimPointTraceSource",
            "WorkloadRegistry",
            "available_workloads",
            "kernel_sources",
            "resolve_workload",
            "resolve_workload_mapping",
        ),
        "repro.trace.trace": ("BusTrace", "concatenate_traces", "pack_values", "unpack_values"),
    },
)
__all__.append("WorkloadError")
