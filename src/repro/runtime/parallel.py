"""Parallel-chunk statistics pass with deterministic ordered reduction.

This module is the fan-out half of the two-pass parallel engine
(``engine="parallel"``, :mod:`repro.bus.engine`):

1. **Statistics pass (parallel).**  The master walks a
   :class:`~repro.trace.stream.TraceSource` chunk by chunk (boundary-carrying
   chunks, so per-chunk transition computations are chunk-local and exact)
   and ships each chunk's packed words to a persistent worker pool.  Workers
   run the vectorized block kernels
   (:func:`repro.bus.bus_model.analyze_trace_statistics`), split the chunk's
   per-cycle statistics at the *segment boundaries* of a
   :class:`ChunkSegmenter`, and return one exact
   :class:`~repro.bus.bus_model.TraceSummary` per (chunk x segment) piece.

2. **Reduction (deterministic).**  The master collects results in
   *submission order* and folds each segment's pieces with an ordered
   pairwise tree merge (:func:`tree_merge_summaries`).  Every merged
   quantity is an exact integer (or small dyadic) total, so the merge
   grouping -- linear, tree-shaped, 1 worker or 16 -- cannot change a single
   bit; the result equals the serial reduction exactly.

The consumer (e.g. :meth:`repro.core.dvs_system.DVSBusSystem.run`) then
replays its sequential state machine over the per-segment summaries.  For
the DVS loop the segments are exactly the intervals between the
data-independent control boundaries (window starts, regulator ramp
applications, the warm-up edge), which is why the cheap replay reproduces
the serial engine's voltage/error/energy trajectory bit-identically.

Scheduling notes
----------------
* The pool is a ``fork``-context :class:`concurrent.futures.ProcessPoolExecutor`
  -- unlike ``multiprocessing.Pool`` it *raises* (``BrokenProcessPool``)
  instead of hanging when a worker dies, which the scheduler converts into a
  clean :class:`ParallelExecutionError`.
* In-flight chunks are bounded (``max_inflight``, default twice the worker
  count) so the master never races ahead of the pool by more than a few
  chunks of memory.
* Environments that cannot fork (sandboxes, daemonic sweep workers,
  ``n_workers=1``) transparently run the same two-pass pipeline inline in
  the master process -- same results, one process.
* With telemetry enabled, each worker records a ``parallel.chunk`` span into
  a fresh collector and ships the snapshot back; the master merges them onto
  its own timeline (``fork`` children share the monotonic clock) under a
  ``parallel.pass1`` span, and the reduction runs under ``parallel.merge``.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any
from collections.abc import Iterator, Sequence

import numpy as np

from repro.bus.engine import (
    ENGINE_SCALAR,
    ENGINE_VECTORIZED,
    default_chunk_cycles,
    kernel_engine,
    resolve_engine,
)
from repro.interconnect.block_kernels import lanes_supported
from repro.interconnect.crosstalk import NeighborTopology
from repro.telemetry import Telemetry, get_telemetry, use_telemetry
from repro.trace.stream import TraceSource
from repro.trace.trace import BusTrace

__all__ = [
    "ChunkSegmenter",
    "ParallelChunkScheduler",
    "ParallelExecutionError",
    "tree_merge_summaries",
]

#: A per-chunk progress callback: ``callback(done_cycles, total_cycles)``.
ProgressCallback = Any


class ParallelExecutionError(RuntimeError):
    """The parallel statistics pass could not produce a complete result.

    Raised (instead of hanging) when a worker process dies mid-pass, and for
    internal coverage violations; the message always says which part of the
    pass failed.
    """


@dataclass(frozen=True)
class ChunkSegmenter:
    """Data-independent segment boundaries of a run of ``n_cycles`` cycles.

    A *segment* is a maximal interval that a sequential consumer's state is
    constant over: for the DVS loop, the supply voltage can only change at
    window starts (``k * window_cycles``), regulator ramp applications
    (``k * window_cycles + ramp_delay_cycles``) and the accounting switches
    at the warm-up edge -- all fixed by the configuration, never by the
    data.  A per-segment statistics summary therefore suffices to replay the
    loop exactly.  With all optional parameters zero, the whole run is one
    segment (the whole-trace reduction used by the fixed-VS/static drivers).

    Extra boundaries are harmless (splitting a constant-state interval is a
    no-op for the replay); *missing* ones would not be, so the boundary set
    conservatively includes every possible ramp-application cycle.
    """

    n_cycles: int
    window_cycles: int = 0
    ramp_delay_cycles: int = 0
    warmup_cycles: int = 0

    def __post_init__(self) -> None:
        if self.n_cycles <= 0:
            raise ValueError(f"n_cycles must be positive, got {self.n_cycles}")
        for name in ("window_cycles", "ramp_delay_cycles", "warmup_cycles"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def boundaries(self) -> np.ndarray:
        """Sorted boundary cycles, always including 0 and ``n_cycles``."""
        points = {0, self.n_cycles}
        if self.window_cycles > 0:
            starts = np.arange(0, self.n_cycles, self.window_cycles, dtype=np.int64)
            points.update(int(start) for start in starts)
            if self.ramp_delay_cycles > 0:
                applies = starts + self.ramp_delay_cycles
                points.update(int(cycle) for cycle in applies[applies < self.n_cycles])
        if 0 < self.warmup_cycles < self.n_cycles:
            points.add(self.warmup_cycles)
        return np.array(sorted(points), dtype=np.int64)

    @property
    def n_segments(self) -> int:
        """Number of segments (boundary intervals)."""
        return len(self.boundaries()) - 1

    def segment_index(self, cycle: int) -> int:
        """Index of the segment containing ``cycle``."""
        if not 0 <= cycle < self.n_cycles:
            raise ValueError(f"cycle {cycle} outside [0, {self.n_cycles})")
        bounds = self.boundaries()
        return int(np.searchsorted(bounds, cycle, side="right")) - 1

    def pieces(self, start: int, end: int) -> Iterator[tuple[int, int, int]]:
        """Split ``[start, end)`` at segment boundaries.

        Yields ``(segment_index, piece_start, piece_end)`` triples covering
        the interval exactly, in cycle order.
        """
        if not 0 <= start < end <= self.n_cycles:
            raise ValueError(
                f"[{start}, {end}) is not a sub-interval of [0, {self.n_cycles})"
            )
        bounds = self.boundaries()
        index = int(np.searchsorted(bounds, start, side="right")) - 1
        position = start
        while position < end:
            piece_end = min(end, int(bounds[index + 1]))
            yield index, position, piece_end
            position = piece_end
            index += 1


def tree_merge_summaries(summaries: Sequence["Any"]) -> Any:
    """Merge trace summaries with an ordered pairwise tree.

    Because every summary field is an exact total, this is bit-identical to
    a linear left-to-right merge (a property the scheduler tests assert);
    the tree shape exists so the merge depth stays logarithmic for segments
    assembled from many chunk pieces.
    """
    from repro.bus.bus_model import TraceStatisticsAccumulator

    if not summaries:
        raise ValueError("cannot merge zero summaries")
    level = list(summaries)
    while len(level) > 1:
        merged = []
        for i in range(0, len(level) - 1, 2):
            accumulator = TraceStatisticsAccumulator()
            accumulator.merge_summary(level[i])
            accumulator.merge_summary(level[i + 1])
            merged.append(accumulator.summary())
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
    return level[0]


#: One chunk of work shipped to a worker: the segmenter, the (tiny) wiring
#: topology, the engine name, the chunk's global start cycle, its word array
#: (packed bytes or 0/1 values), the representation flag, the bus width, and
#: whether to capture telemetry into a snapshot.
_ChunkPayload = tuple[
    ChunkSegmenter, NeighborTopology, str | None, int, np.ndarray, bool, int, bool
]
#: A worker's result: per-(chunk x segment) summaries plus optional telemetry.
_ChunkResult = tuple[list[tuple[int, Any]], dict[str, Any] | None]


def _probe_worker() -> int:
    """Trivial pool probe; proves workers can start before real work is queued."""
    return os.getpid()


def _chunk_pieces(
    segmenter: ChunkSegmenter,
    topology: NeighborTopology,
    engine: str | None,
    start_cycle: int,
    words: np.ndarray,
    packed: bool,
    n_bits: int,
) -> list[tuple[int, Any]]:
    """Analyze one chunk and reduce it to per-segment summaries."""
    from repro.bus.bus_model import analyze_trace_statistics

    trace = BusTrace(packed=words, n_bits=n_bits) if packed else BusTrace(values=words)
    telemetry = get_telemetry()
    with telemetry.span("parallel.chunk", start_cycle=start_cycle, cycles=trace.n_cycles):
        stats = analyze_trace_statistics(trace, topology, engine=engine)
        end_cycle = start_cycle + stats.n_cycles
        return [
            (index, stats.slice(a - start_cycle, b - start_cycle).summarize())
            for index, a, b in segmenter.pieces(start_cycle, end_cycle)
        ]


def _analyze_chunk_payload(payload: _ChunkPayload) -> _ChunkResult:
    """Worker entry point: module-level (picklable by reference).

    With ``capture`` set (pool mode under an active collector) the analysis
    runs under a fresh telemetry collector whose snapshot is returned for
    the master to merge; without it (inline mode) spans record straight into
    the active collector.
    """
    segmenter, topology, engine, start_cycle, words, packed, n_bits, capture = payload
    if capture:
        telemetry = Telemetry(label="parallel-worker")
        with use_telemetry(telemetry):
            result = _chunk_pieces(segmenter, topology, engine, start_cycle, words, packed, n_bits)
        return result, telemetry.snapshot()
    return _chunk_pieces(segmenter, topology, engine, start_cycle, words, packed, n_bits), None


class ParallelChunkScheduler:
    """Persistent worker pool running the parallel statistics pass.

    Parameters
    ----------
    n_workers:
        Worker processes; ``None`` means one per CPU.  ``1`` (or any
        environment where process pools are unavailable -- sandboxes,
        daemonic sweep workers) runs the identical two-pass pipeline inline.
    max_inflight:
        Bound on submitted-but-uncollected chunks (backpressure); defaults
        to twice the worker count.

    The pool is created lazily on first use and persists across
    :meth:`segment_summaries` calls (e.g. the Table 1 driver reuses one
    scheduler for every benchmark's pass, shared by all corners), so
    fork/start-up costs are paid once.  Use as a context manager or call
    :meth:`close` when done.
    """

    def __init__(self, n_workers: int | None = None, max_inflight: int | None = None) -> None:
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self.max_inflight = (
            int(max_inflight) if max_inflight is not None else 2 * self.n_workers
        )
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")
        self._executor: ProcessPoolExecutor | None = None
        self._started = False

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_executor(self) -> ProcessPoolExecutor | None:
        """The live executor, or ``None`` when running inline."""
        if self._started:
            return self._executor
        self._started = True
        if self.n_workers <= 1:
            return None
        if multiprocessing.current_process().daemon:
            # Daemonic processes (the runtime's sweep workers) cannot spawn
            # children; run inline rather than fail the whole job.
            return None
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        try:
            executor = ProcessPoolExecutor(max_workers=self.n_workers, mp_context=context)
            # Eager probe: ProcessPoolExecutor spawns workers lazily, so force
            # one round-trip now to surface sandbox restrictions as a clean
            # inline fallback instead of a mid-pass failure.
            executor.submit(_probe_worker).result(timeout=120)
        except (OSError, PermissionError, BrokenProcessPool):  # pragma: no cover
            return None
        self._executor = executor
        return executor

    @property
    def effective_workers(self) -> int:
        """Workers actually in use (1 when running inline)."""
        return self.n_workers if self._executor is not None else 1

    def close(self) -> None:
        """Shut the pool down; a later call re-creates it."""
        if self._executor is not None:
            # wait=True: every future is collected before close() is reachable,
            # so this only joins idle workers -- and avoids the noisy atexit
            # wakeup on an already-closed pipe that wait=False can produce.
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self._started = False

    def __enter__(self) -> ParallelChunkScheduler:
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # The statistics pass
    # ------------------------------------------------------------------ #
    def segment_summaries(
        self,
        source: TraceSource,
        segmenter: ChunkSegmenter,
        topology: NeighborTopology,
        engine: str | None = None,
        chunk_cycles: int | None = None,
        progress: ProgressCallback | None = None,
    ) -> list[Any]:
        """Run the parallel statistics pass over ``source``.

        Returns one exact :class:`~repro.bus.bus_model.TraceSummary` per
        segment of ``segmenter``, in segment order -- bit-identical for any
        worker count, chunk size or merge grouping.
        """
        engine = resolve_engine(engine)
        if source.n_cycles != segmenter.n_cycles:
            raise ValueError(
                f"source covers {source.n_cycles} cycles but the segmenter "
                f"was built for {segmenter.n_cycles}"
            )
        packed = kernel_engine(engine) == ENGINE_VECTORIZED and lanes_supported(source.n_bits)
        if chunk_cycles is None:
            chunk_cycles = default_chunk_cycles(engine if packed else ENGINE_SCALAR)
        telemetry = get_telemetry()
        executor = self._ensure_executor()
        capture = executor is not None and telemetry.enabled

        pieces: list[list[Any]] = [[] for _ in range(segmenter.n_segments)]
        total = source.n_cycles
        done = 0
        n_chunks = 0

        def consume(result: _ChunkResult) -> None:
            """Fold one chunk's worker result in (always in submission order)."""
            nonlocal done
            chunk_pieces, snapshot = result
            if snapshot is not None:
                telemetry.merge_snapshot(snapshot)
            for index, summary in chunk_pieces:
                pieces[index].append(summary)
                done += summary.n_cycles
            telemetry.count("parallel.chunks")
            if progress is not None:
                progress(done, total)

        with telemetry.span(
            "parallel.pass1",
            workers=self.effective_workers if executor is not None else 1,
            cycles=total,
        ):
            inflight: deque["Future[_ChunkResult]"] = deque()
            try:
                for chunk in source.chunks(chunk_cycles, packed=packed):
                    trace = chunk.trace
                    words = trace.packed_values if trace.is_packed else trace.values
                    payload: _ChunkPayload = (
                        segmenter,
                        topology,
                        engine,
                        chunk.start_cycle,
                        words,
                        trace.is_packed,
                        trace.n_bits,
                        capture,
                    )
                    n_chunks += 1
                    if executor is None:
                        consume(_analyze_chunk_payload(payload))
                        continue
                    while len(inflight) >= self.max_inflight:
                        consume(inflight.popleft().result())
                    inflight.append(executor.submit(_analyze_chunk_payload, payload))
                while inflight:
                    consume(inflight.popleft().result())
            except BrokenProcessPool as exc:
                self.close()
                raise ParallelExecutionError(
                    "a parallel statistics worker died unexpectedly (the pool "
                    "is broken); re-run serially or with fewer workers"
                ) from exc
            telemetry.gauge("parallel.workers", self.effective_workers)

        with telemetry.span("parallel.merge", segments=segmenter.n_segments, chunks=n_chunks):
            bounds = segmenter.boundaries()
            merged: list[Any] = []
            for index, parts in enumerate(pieces):
                if not parts:
                    raise ParallelExecutionError(
                        f"segment {index} received no statistics; the chunk "
                        "stream did not cover the declared run"
                    )
                summary = tree_merge_summaries(parts)
                expected = int(bounds[index + 1] - bounds[index])
                if summary.n_cycles != expected:
                    raise ParallelExecutionError(
                        f"segment {index} accumulated {summary.n_cycles} cycles, "
                        f"expected {expected}"
                    )
                merged.append(summary)
        return merged
