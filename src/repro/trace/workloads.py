"""The workload registry: every trace producer behind one ``resolve(spec)`` API.

The paper drives its experiments with memory-read bus traces of real SPEC2000
programs; this reproduction has several trace producers -- synthetic
benchmark profiles, executed mini-CPU kernels, recorded ``.npz``/``.hex``
files, SimPoint-reduced traces, and concatenated or encoder-wrapped mixes of
any of them.  This module makes each of those a first-class, *named*,
streamable workload: :func:`resolve_workload` turns a plain string spec into
a :class:`~repro.trace.stream.TraceSource`, so the experiment registry, the
sweep engine (``workload=`` axis of the ``dvs_run`` task), the report
builder and the ``repro trace`` / ``--workload`` CLI surface all share one
resolution path -- and, because specs are strings, workload identity flows
into the content-addressed result cache unchanged.

Spec grammar (resolution order)
-------------------------------
1. ``BusTrace`` / ``TraceSource`` objects pass through unchanged.
2. The *wrapper* schemes, which are greedy (their payload may itself
   contain ``+``):

   ``simpoint:<inner spec>``
       The SimPoint-reduced view of any resolvable workload: cluster the
       inner trace's window signatures and stream only the representative
       windows (:class:`SimPointTraceSource`).
   ``suite:<a>+<b>+...``
       The parts run back to back as one
       :class:`~repro.trace.stream.ConcatenatedTraceSource`.
   ``encoded:<encoder>:<inner spec>``
       The inner workload passed through a bus encoder
       (``encoded:bus-invert:crafty``; ``encoded:bus-invert:crafty+mgrid``
       encodes the whole two-program suite).
   ``file:<path>``
       A recorded trace: ``.npz`` archives stream bit-packed through
       :class:`~repro.trace.stream.NpzTraceSource`, ``.hex`` text files are
       loaded in memory.

3. A spec containing ``+`` concatenates its parts, each resolved
   recursively -- ``crafty+mgrid``, ``cpu:memcopy+crafty`` and
   ``crafty+cpu:memcopy`` all work.
4. The *leaf* schemes: ``synthetic:<profile>`` (a
   :class:`~repro.trace.stream.SyntheticTraceSource` for one of the ten
   Table 1 benchmark profiles) and ``cpu:<kernel>`` (alias ``kernel:``; a
   :class:`~repro.trace.stream.CpuKernelTraceSource` executing a mini-CPU
   kernel run by run).
5. A bare synthetic profile name (``crafty``) or kernel name (``memcopy``).
6. A bare path ending in ``.npz`` / ``.hex``.

Generative workloads (synthetic profiles, CPU kernels) honour the
``n_cycles`` / ``seed`` arguments of :meth:`WorkloadRegistry.resolve`;
file-backed workloads have an intrinsic length and ignore them.
"""

from __future__ import annotations

from pathlib import Path
from collections.abc import Sequence

import numpy as np

from repro.trace import WorkloadError
from repro.trace.benchmarks import SPEC2000_PROFILES, TABLE1_ORDER, get_profile
from repro.trace.generator import DEFAULT_CYCLES_PER_BENCHMARK
from repro.trace.simpoint import (
    SimPointSelection,
    select_from_signatures,
    transition_signatures,
)
from repro.trace.stream import (
    ConcatenatedTraceSource,
    CpuKernelTraceSource,
    EncodedTraceSource,
    InMemoryTraceSource,
    NpzTraceSource,
    SyntheticTraceSource,
    TraceSource,
    WorkloadLike,
    as_trace_source,
)
from repro.trace.trace import BusTrace
from repro.utils.rng import SeedLike, derive_seed_sequence, rng_seed_sequence

__all__ = [
    "SimPointTraceSource",
    "WorkloadError",
    "WorkloadRegistry",
    "WORKLOADS",
    "resolve_workload",
    "resolve_workload_mapping",
    "kernel_sources",
    "available_workloads",
]


#: Number of equal windows the SimPoint reduction splits a trace into when no
#: explicit window length is given.
DEFAULT_SIMPOINT_WINDOWS = 16

#: Default number of phases / representative windows of the reduction.
DEFAULT_SIMPOINT_CLUSTERS = 4


class SimPointTraceSource(TraceSource):
    """The SimPoint-reduced view of another workload.

    The base workload is materialised once *in the bit-packed
    representation* (8x smaller than the 0/1 array), split into equal
    windows, clustered by activity signature (window signatures are computed
    one window at a time, so the unpacked working set stays O(window)), and
    only the representative window of each cluster is kept; streaming this
    source walks the representatives back to back.  The cluster weights stay
    available (:attr:`weights` / :meth:`weighted_estimate`) so per-window
    metrics can be recombined into a whole-run estimate, CBMA-style.
    """

    def __init__(
        self,
        base: WorkloadLike,
        *,
        window_length: int | None = None,
        n_clusters: int = DEFAULT_SIMPOINT_CLUSTERS,
        seed: SeedLike = 0,
    ) -> None:
        trace = as_trace_source(base).materialize()
        if window_length is None:
            window_length = max(1, trace.n_cycles // DEFAULT_SIMPOINT_WINDOWS)
        self._selection = select_from_signatures(
            self._windowed_signatures(trace, window_length),
            window_length,
            n_clusters=n_clusters,
            seed=seed,
        )
        # Representative windows stay packed: BusTrace.window on a packed
        # trace is a row slice, and InMemoryTraceSource streams packed
        # backings without widening.
        self._reduced = ConcatenatedTraceSource(
            [InMemoryTraceSource(window) for window in self._selection.extract(trace)],
            name=f"{trace.name}.simpoint",
        )

    @staticmethod
    def _windowed_signatures(trace: BusTrace, window_length: int) -> np.ndarray:
        """Window signatures from a packed trace, one window at a time.

        Matches :func:`repro.trace.simpoint.window_signatures` exactly (same
        :func:`~repro.trace.simpoint.transition_signatures` feature
        definition) while only ever unpacking ``window_length + 1`` words.
        """
        from repro.trace.trace import unpack_values

        if window_length <= 0:
            raise ValueError(f"window_length must be positive, got {window_length}")
        n_windows = trace.n_cycles // window_length
        if n_windows == 0:
            raise ValueError(
                f"trace has {trace.n_cycles} cycles, shorter than one window ({window_length})"
            )
        packed = trace.packed_values
        signatures = np.empty((n_windows, trace.n_bits + 1))
        for index in range(n_windows):
            start = index * window_length
            words = unpack_values(packed[start : start + window_length + 1], trace.n_bits)
            transitions = np.diff(words.astype(np.int8), axis=0)
            signatures[index] = transition_signatures(transitions[None, :, :])[0]
        return signatures

    @property
    def selection(self) -> SimPointSelection:
        """The underlying window selection (representatives, weights, labels)."""
        return self._selection

    @property
    def weights(self) -> tuple[float, ...]:
        """Execution-time share of each representative window's cluster."""
        return self._selection.weights

    def weighted_estimate(self, per_window_values: np.ndarray) -> float:
        """Weighted combination of a metric measured per representative window."""
        return self._selection.weighted_estimate(per_window_values)

    @property
    def n_cycles(self) -> int:
        return self._reduced.n_cycles

    @property
    def n_bits(self) -> int:
        return self._reduced.n_bits

    @property
    def name(self) -> str:
        return self._reduced.name

    def _packed_blocks(self):
        return self._reduced._packed_blocks()


def _kernel_names() -> tuple[str, ...]:
    from repro.cpu.kernels import KERNELS

    return tuple(sorted(KERNELS))


def _encoder(name: str):
    from repro.encoding import get_encoder

    return get_encoder(name)


class WorkloadRegistry:
    """Resolve workload specs into streaming trace sources.

    One instance, :data:`WORKLOADS`, serves the whole repository; the class
    exists so tests can build registries around synthetic fixtures.  See the
    module docstring for the spec grammar and resolution order.
    """

    def resolve(
        self,
        spec: WorkloadLike | str,
        *,
        n_cycles: int | None = None,
        seed: SeedLike = None,
        n_bits: int = 32,
    ) -> TraceSource:
        """A :class:`TraceSource` for a workload spec.

        Parameters
        ----------
        spec:
            Spec string (see module docstring), or an already-built
            ``BusTrace`` / ``TraceSource`` (passed through).
        n_cycles:
            Trace length for *generative* workloads (synthetic profiles and
            CPU kernels); defaults to
            :data:`~repro.trace.generator.DEFAULT_CYCLES_PER_BENCHMARK`.
            File-backed workloads keep their recorded length.
        seed:
            Workload seed.  Generative sources derive per-workload child
            streams from it following the suite conventions -- synthetic
            profiles by their Table 1 spawn index (so ``resolve("crafty",
            seed=s)`` equals ``suite_sources(seed=s)["crafty"]``), CPU
            kernels by name (:func:`repro.cpu.tracing.kernel_seed_sequence`)
            -- so distinct specs in one mapping never share a stream.  The
            SimPoint clustering also uses it (``None`` falls back to 0 so a
            bare ``simpoint:`` spec stays deterministic).
        n_bits:
            Bus width for generative sources.
        """
        if isinstance(spec, (BusTrace, TraceSource)):
            return as_trace_source(spec)
        if not isinstance(spec, str):
            raise TypeError(f"workload spec must be a string or trace, got {type(spec).__name__}")
        text = spec.strip()
        if not text:
            raise KeyError("empty workload spec")

        scheme, _, rest = text.partition(":")
        scheme = scheme.lower()
        # NOTE: adding a scheme here? Mirror it in :meth:`file_paths` below.
        # The cache fingerprint walks this same grammar statically (resolving
        # would be too expensive at key-computation time), and a scheme that
        # hides a file: payload from that walk silently breaks the
        # regenerate-invalidates-cache guarantee.
        #
        # Wrapper schemes are greedy -- their payload may itself contain '+'
        # (e.g. "simpoint:crafty+mgrid" reduces the two-program suite), so
        # they dispatch before the top-level '+' split.
        if rest:
            if scheme == "simpoint":
                inner = self.resolve(rest, n_cycles=n_cycles, seed=seed, n_bits=n_bits)
                return SimPointTraceSource(inner, seed=seed if seed is not None else 0)
            if scheme == "suite":
                return self._suite(rest.split("+"), rest, n_cycles, seed, n_bits)
            if scheme == "encoded":
                encoder_name, _, inner = rest.partition(":")
                if not inner:
                    raise KeyError(
                        f"encoded spec {text!r} needs the form 'encoded:<encoder>:<workload>'"
                    )
                return EncodedTraceSource(
                    self.resolve(inner, n_cycles=n_cycles, seed=seed, n_bits=n_bits),
                    _encoder(encoder_name),
                )
            if scheme == "file":
                return self._file(rest)
        # Top-level '+' concatenates, whichever part carries a leaf scheme
        # prefix ("cpu:memcopy+crafty" == "crafty+cpu:memcopy" reordered).
        if "+" in text:
            return self._suite(text.split("+"), text, n_cycles, seed, n_bits)
        if rest:
            if scheme == "synthetic":
                return self._synthetic(rest, n_cycles, seed, n_bits)
            if scheme in ("cpu", "kernel"):
                return self._cpu(rest, n_cycles, seed, n_bits)
        if text.lower() in SPEC2000_PROFILES:
            return self._synthetic(text, n_cycles, seed, n_bits)
        if text in _kernel_names():
            return self._cpu(text, n_cycles, seed, n_bits)
        if text.endswith((".npz", ".hex")):
            return self._file(text)
        known = ", ".join(self.names())
        raise KeyError(f"unknown workload {spec!r}; known workloads: {known}")

    def _synthetic(
        self, name: str, n_cycles: int | None, seed: SeedLike, n_bits: int
    ) -> SyntheticTraceSource:
        # Per-profile streams follow the suite convention (the Table 1 spawn
        # index), so resolve("crafty", seed=s) equals suite_sources(seed=s)
        # ["crafty"] bit for bit and distinct profiles in one mapping never
        # share a stream.
        profile = get_profile(name)
        root = rng_seed_sequence(seed)
        child = derive_seed_sequence(root, (TABLE1_ORDER.index(profile.name),))
        return SyntheticTraceSource(
            profile,
            n_cycles if n_cycles is not None else DEFAULT_CYCLES_PER_BENCHMARK,
            n_bits=n_bits,
            seed=child,
        )

    def _cpu(
        self, name: str, n_cycles: int | None, seed: SeedLike, n_bits: int
    ) -> CpuKernelTraceSource:
        # Name-keyed per-kernel streams (kernel_seed_sequence), matching
        # kernel_suite / kernel_sources -- so a cpu: row resolved here equals
        # the same kernel's table1_kernels row.
        from repro.cpu.tracing import kernel_seed_sequence

        return CpuKernelTraceSource(
            name,
            n_cycles if n_cycles is not None else DEFAULT_CYCLES_PER_BENCHMARK,
            n_bits=n_bits,
            seed=kernel_seed_sequence(seed, name),
        )

    def _file(self, path: str) -> TraceSource:
        target = Path(path)
        if not target.is_file():
            raise KeyError(f"workload file {path!r} does not exist")
        if target.suffix == ".hex":
            from repro.trace.io import load_trace_hex

            return InMemoryTraceSource(load_trace_hex(target))
        return NpzTraceSource(target)

    def _suite(
        self,
        parts: Sequence[str],
        name: str,
        n_cycles: int | None,
        seed: SeedLike,
        n_bits: int,
    ) -> ConcatenatedTraceSource:
        cleaned = [part for part in (p.strip() for p in parts) if part]
        if not cleaned:
            raise KeyError(f"suite spec {name!r} names no workloads")
        return ConcatenatedTraceSource(
            [
                self.resolve(part, n_cycles=n_cycles, seed=seed, n_bits=n_bits)
                for part in cleaned
            ],
            name=name,
        )

    def resolve_mapping(
        self,
        spec: str,
        *,
        n_cycles: int | None = None,
        seed: SeedLike = None,
        n_bits: int = 32,
    ) -> dict[str, TraceSource]:
        """A ``{spec_part: source}`` mapping from a *comma*-separated spec.

        This is what the ``--workload`` experiment selectors consume: each
        comma-separated part becomes one named workload row, resolved through
        the full spec grammar -- so ``+`` keeps its suite-concatenation
        meaning *within* a row (``"suite:crafty+mgrid,cpu:memcopy"`` is two
        rows, the first a concatenated suite).  Rows share the passed
        ``seed``; different specs draw from different streams by
        construction.
        """
        mapping: dict[str, TraceSource] = {}
        for part in (p.strip() for p in spec.split(",")):
            if not part or part in mapping:
                continue
            mapping[part] = self.resolve(part, n_cycles=n_cycles, seed=seed, n_bits=n_bits)
        if not mapping:
            raise KeyError(f"workload spec {spec!r} names no workloads")
        return mapping

    def file_paths(self, spec: str) -> list[str]:
        """Trace-file paths a single-row spec references, by the resolver's
        own grammar precedence (``file:`` is greedy, so paths containing
        ``+`` are returned whole -- exactly as :meth:`resolve` would read
        them).  Unknown specs yield no paths; resolution reports them.

        This is a static mirror of :meth:`resolve`'s dispatch, kept separate
        so computing a cache fingerprint never resolves (and possibly
        materialises) the workload.  Any scheme added to :meth:`resolve`
        MUST be mirrored here, or file payloads behind it escape
        content-addressing.
        """
        text = spec.strip()
        scheme, _, rest = text.partition(":")
        scheme = scheme.lower()
        if rest:
            if scheme == "simpoint":
                return self.file_paths(rest)
            if scheme == "suite":
                return [
                    path
                    for part in rest.split("+")
                    if part.strip()
                    for path in self.file_paths(part)
                ]
            if scheme == "encoded":
                _, _, inner = rest.partition(":")
                return self.file_paths(inner) if inner else []
            if scheme == "file":
                return [rest]
        if "+" in text:
            return [
                path
                for part in text.split("+")
                if part.strip()
                for path in self.file_paths(part)
            ]
        if (
            text.endswith((".npz", ".hex"))
            and text.lower() not in SPEC2000_PROFILES
            and text not in _kernel_names()
        ):
            return [text]
        return []

    def names(self) -> tuple[str, ...]:
        """Canonical specs of every registered named workload."""
        synthetic = tuple(sorted(SPEC2000_PROFILES))
        kernels = tuple(f"cpu:{name}" for name in _kernel_names())
        return synthetic + kernels

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.names())} named workloads)"

    def describe(self) -> list[tuple[str, str]]:
        """(spec, description) rows for the CLI's ``trace --list`` output."""
        from repro.cpu.kernels import KERNELS

        rows = [
            (name, f"synthetic profile: {SPEC2000_PROFILES[name].description}")
            for name in sorted(SPEC2000_PROFILES)
        ]
        rows += [
            (f"cpu:{name}", f"mini-CPU kernel: {KERNELS[name].description}")
            for name in sorted(KERNELS)
        ]
        rows += [
            ("file:<path>", "recorded trace (.npz packed archive or .hex text)"),
            ("simpoint:<spec>", "SimPoint-reduced view of any workload"),
            ("suite:<a>+<b>", "workloads run back to back (bare 'a+b' works too)"),
            ("encoded:<encoder>:<spec>", "workload passed through a bus encoder"),
        ]
        return rows


#: The process-wide workload registry.
WORKLOADS = WorkloadRegistry()


def resolve_workload(
    spec: WorkloadLike | str,
    *,
    n_cycles: int | None = None,
    seed: SeedLike = None,
    n_bits: int = 32,
) -> TraceSource:
    """Resolve a workload spec via the default registry (:data:`WORKLOADS`)."""
    return WORKLOADS.resolve(spec, n_cycles=n_cycles, seed=seed, n_bits=n_bits)


def resolve_workload_mapping(
    spec: str,
    *,
    n_cycles: int | None = None,
    seed: SeedLike = None,
    n_bits: int = 32,
) -> dict[str, TraceSource]:
    """Resolve a *comma*-separated row spec into named sources via :data:`WORKLOADS`.

    ``+`` keeps its suite-concatenation meaning within a row; see
    :meth:`WorkloadRegistry.resolve_mapping`.
    """
    return WORKLOADS.resolve_mapping(spec, n_cycles=n_cycles, seed=seed, n_bits=n_bits)


def available_workloads() -> tuple[str, ...]:
    """Canonical specs of every named workload in the default registry."""
    return WORKLOADS.names()


def workload_fingerprint(spec: str) -> str | None:
    """Content digest of every trace file a workload spec references.

    Generative workloads are pure functions of their spec and seed, so the
    spec string alone content-addresses them; ``file:`` parts are only
    *named* by their path.  This digest (SHA-256 over the referenced files'
    bytes) is what job parameters carry alongside a file-backed spec so the
    result cache keys on trace *content* -- regenerating the file invalidates
    the cached entry.  Returns ``None`` when the spec references no files.
    """
    import hashlib

    # Rows are comma-separated (commas never appear inside a row spec);
    # within a row the registry's own grammar walk finds the file parts.
    paths: list[str] = []
    for row in spec.split(","):
        if row.strip():
            paths.extend(WORKLOADS.file_paths(row))
    if not paths:
        return None
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.encode("utf-8"))
        try:
            digest.update(Path(path).read_bytes())
        except OSError:
            digest.update(b"<missing>")
    return digest.hexdigest()


def kernel_sources(
    names: Sequence[str] | None = None,
    n_cycles: int = 20_000,
    *,
    seed: SeedLike = 2005,
    bus_policy: str = "all_loads",
    n_bits: int = 32,
) -> dict[str, CpuKernelTraceSource]:
    """Streaming kernel sources keyed by their registry spec (``cpu:<name>``).

    The streaming twin of :func:`repro.cpu.tracing.kernel_suite`: per-kernel
    streams are derived from the seed and the kernel *name*
    (:func:`repro.cpu.tracing.kernel_seed_sequence`), so
    ``kernel_sources(...)["cpu:memcopy"].materialize()`` equals the suite's
    ``memcopy`` trace bit for bit and adding or removing kernels never
    perturbs the others.
    """
    from repro.cpu.tracing import kernel_seed_sequence

    if names is None:
        names = _kernel_names()
    return {
        f"cpu:{name}": CpuKernelTraceSource(
            name,
            n_cycles,
            n_bits=n_bits,
            seed=kernel_seed_sequence(seed, name),
            bus_policy=bus_policy,
        )
        for name in names
    }
