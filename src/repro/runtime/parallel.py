"""The statistics pass: every simulation's fan-out and ordered reduction.

Every driver -- the closed-loop DVS run, the oracle, fixed-VS and static
scaling, the Table 1 and Fig. 8 runners -- reduces its workload through
:func:`statistics_pass` and then replays the resulting segment summaries:

1. **Statistics pass.**  The workload is cut into *parts*
   (:meth:`~repro.trace.stream.TraceSource.parts`): one per program of a
   concatenated suite, one contiguous word range per worker of a synthetic
   benchmark, bounded word ranges of an in-memory trace or an ``.npz``
   archive, and the whole trace for every other source (CPU kernels,
   SimPoint and encoded streams carry state from their first word on).
   One task per part (:func:`_part_summaries`) streams the part itself
   (boundary-carrying chunks, so per-chunk transition computations are
   chunk-local and exact), runs the kernels
   (:func:`repro.bus.bus_model.analyze_trace_statistics`) on each chunk and
   reduces their coded per-cycle statistics with
   :meth:`repro.bus.bus_model.TraceStatistics.summaries` to one exact
   :class:`~repro.bus.bus_model.TraceSummary` per (chunk x segment) piece,
   split at the *segment boundaries* of a :class:`ChunkSegmenter`.  It
   returns those pieces and the packed first and last word of its part.

2. **Seams.**  A synthetic word range generates from the start of the
   65 536-word generation block it starts in, which resumes from the last
   word of the block before it.  The task finds that word without
   generating the blocks before it
   (:func:`~repro.trace.synthetic.block_carry_word`): it regenerates that
   one block with a placeholder carry, which feeds no RNG draw, and walks
   back a block only when the whole block was a leading ``hold`` run.

3. **Reduction (deterministic).**  The master collects results in part
   order.  Between two parts lies one *junction* cycle (the last word of one
   part to the first word of the next), which the master analyses as a
   2-word trace and merges into its segment.  Each segment's pieces are
   folded in cycle order (:func:`~repro.bus.bus_model.merge_summaries`).
   Every merged quantity is an exact integer (or small dyadic) total, so
   neither the parts, the chunk size nor the worker count can change a
   single bit.

The consumer (e.g. :meth:`repro.core.dvs_system.DVSBusSystem.run`) then
replays its sequential state machine over the per-segment summaries.  For
the DVS loop the segments are exactly the intervals between the
data-independent control boundaries (window starts, regulator ramp
applications, the warm-up edge), over which the supply is constant, so the
replay is exact.

``jobs`` is the one parallelism knob: with one worker (the default) the same
task runs inline on the whole workload, with more each part goes to a pool
worker.

Scheduling notes
----------------
* The pool is a ``fork``-context :class:`concurrent.futures.ProcessPoolExecutor`
  -- unlike ``multiprocessing.Pool`` it *raises* (``BrokenProcessPool``)
  instead of hanging when a worker dies, which the scheduler converts into a
  clean :class:`ParallelExecutionError`.
* The master sends each worker a description of a generated part, not its
  words, and gets back summaries, so it holds no generation buffers (an
  in-memory or ``.npz`` part carries its slice of the packed rows).
* A workload of one part, and environments that cannot fork (sandboxes,
  daemonic sweep workers), run the pass inline, like ``n_workers=1`` --
  same results, one process.
* With telemetry enabled, each chunk records a ``parallel.chunk`` span
  (pool workers into a fresh collector whose snapshot the master merges onto
  its own timeline -- ``fork`` children share the monotonic clock) under a
  ``parallel.pass1`` span, and the reduction runs under ``parallel.merge``.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any
from collections.abc import Callable, Iterator

import numpy as np

from repro.interconnect.crosstalk import NeighborTopology
from repro.telemetry import Telemetry, get_telemetry, use_telemetry
from repro.trace.stream import TraceSource, as_trace_source
from repro.trace.trace import BusTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.bus.bus_model import TraceStatistics, TraceSummary

__all__ = [
    "ChunkSegmenter",
    "ParallelChunkScheduler",
    "ParallelExecutionError",
    "statistics_pass",
]

#: A progress callback: ``callback(done_cycles, total_cycles)``.
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
        """Sorted boundary cycles, always including 0 and ``n_cycles``.

        Computed once per segmenter and returned as the same read-only array
        on every call.
        """
        cached = self.__dict__.get("_boundaries")
        if cached is not None:
            return cached
        points = np.array([0, self.n_cycles], dtype=np.int64)
        if self.window_cycles > 0:
            starts = np.arange(0, self.n_cycles, self.window_cycles, dtype=np.int64)
            applies = starts + self.ramp_delay_cycles
            points = np.union1d(points, starts)
            points = np.union1d(points, applies[applies < self.n_cycles])
        if 0 < self.warmup_cycles < self.n_cycles:
            points = np.union1d(points, [self.warmup_cycles])
        points.flags.writeable = False
        object.__setattr__(self, "_boundaries", points)
        return points

    @property
    def n_segments(self) -> int:
        """Number of segments (boundary intervals)."""
        return len(self.boundaries()) - 1

    def segment_index(self, cycle: int) -> int:
        """Index of the segment containing ``cycle``."""
        if not 0 <= cycle < self.n_cycles:
            raise ValueError(f"cycle {cycle} outside [0, {self.n_cycles})")
        return int(np.searchsorted(self.boundaries(), cycle, side="right")) - 1

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
        first = int(np.searchsorted(bounds, start, side="right")) - 1
        last = int(np.searchsorted(bounds, end, side="left"))
        edges = [start, *bounds[first + 1 : last].tolist(), end]
        for offset, (piece_start, piece_end) in enumerate(zip(edges, edges[1:])):
            yield first + offset, piece_start, piece_end


#: A part's result: its ``(segment, start_cycle, summary)`` pieces in cycle
#: order, the packed first and last word of the part, and optional telemetry.
_PartResult = tuple[
    list[tuple[int, int, "TraceSummary"]], np.ndarray, np.ndarray, dict[str, Any] | None
]


def _probe_worker() -> int:
    """Trivial pool probe; proves workers can start before real work is queued."""
    return os.getpid()


def _stream_part(
    part: TraceSource,
    offset: int,
    segmenter: ChunkSegmenter,
    topology: NeighborTopology,
    progress: Callable[[int], None] | None = None,
) -> tuple[list[tuple[int, int, TraceSummary]], np.ndarray, np.ndarray]:
    """Stream a part starting at global cycle ``offset`` and summarize its pieces.

    ``progress``, if given, is called with the global end cycle of each chunk.
    """
    from repro.bus.bus_model import analyze_trace_statistics, kernel_plan

    _, chunk_cycles = kernel_plan(part.n_bits)
    telemetry = get_telemetry()
    pieces: list[tuple[int, int, TraceSummary]] = []
    first = last = None
    for chunk in part.chunks(chunk_cycles):
        trace = chunk.trace
        start = offset + chunk.start_cycle
        cuts = list(segmenter.pieces(start, start + trace.n_cycles))
        with telemetry.span("parallel.chunk", start_cycle=start, cycles=trace.n_cycles):
            summaries = analyze_trace_statistics(trace, topology).summaries(
                [piece_start - start for _, piece_start, _ in cuts]
            )
        pieces.extend(
            (index, piece_start, summary)
            for (index, piece_start, _), summary in zip(cuts, summaries)
        )
        telemetry.count("parallel.chunks")
        if progress is not None:
            progress(start + trace.n_cycles)
        if first is None:
            first = trace.packed_values[0].copy()
        last = trace.packed_values[-1].copy()
    if first is None or last is None:
        raise ValueError(f"part {part.name!r} streamed no cycles")
    return pieces, first, last


def _part_summaries(
    part: TraceSource,
    offset: int,
    segmenter: ChunkSegmenter,
    topology: NeighborTopology,
    capture: bool,
    progress: Callable[[int], None] | None = None,
) -> _PartResult:
    """The statistics-pass task: one part of a workload to piece summaries.

    Module-level, so pool workers get it by reference.  With ``capture``
    set (pool mode under an active collector) the part streams under a
    fresh telemetry collector, inside a ``parallel.part`` span that also
    covers its generation, and the collector's snapshot is returned for the
    master to merge; without it (inline mode) spans record straight into
    the active collector, under the master's ``parallel.pass1`` span, and
    ``progress`` (inline mode only) hears of every chunk.
    """
    if capture:
        telemetry = Telemetry(label="parallel-worker")
        with use_telemetry(telemetry), telemetry.span(
            "parallel.part", part=part.name, start_cycle=offset, cycles=part.n_cycles
        ):
            result = _stream_part(part, offset, segmenter, topology)
        return (*result, telemetry.snapshot())
    return (*_stream_part(part, offset, segmenter, topology, progress), None)


class ParallelChunkScheduler:
    """Worker pool running the statistics pass (inline with one worker).

    Parameters
    ----------
    n_workers:
        Worker processes; ``None`` means one per CPU.  ``1`` (or any
        environment where process pools are unavailable -- sandboxes,
        daemonic sweep workers) runs the identical pass inline.

    The pool is created lazily by the first pass over a workload of more
    than one part and persists across :meth:`segment_summaries` calls (e.g.
    the Table 1 driver reuses one scheduler for every benchmark's pass,
    shared by all corners), so fork/start-up costs are paid once.  Use as a context manager or call
    :meth:`close` when done.
    """

    def __init__(self, n_workers: int | None = None) -> None:
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
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
        progress: ProgressCallback | None = None,
    ) -> list[TraceSummary]:
        """Run the statistics pass over ``source``.

        Returns one exact :class:`~repro.bus.bus_model.TraceSummary` per
        segment of ``segmenter``, in segment order -- bit-identical for any
        kernel, worker count, chunk size or merge grouping.  The kernel and
        the chunk size come from the bus width
        (:func:`~repro.bus.bus_model.kernel_plan`).  ``progress`` is called
        as each part finishes on the pool, and after every chunk inline.
        """
        from repro.bus.bus_model import analyze_trace_statistics, merge_summaries

        if source.n_cycles != segmenter.n_cycles:
            raise ValueError(
                f"source covers {source.n_cycles} cycles but the segmenter "
                f"was built for {segmenter.n_cycles}"
            )
        telemetry = get_telemetry()
        parts = source.parts(self.n_workers) if self.n_workers > 1 else [source]
        executor = self._ensure_executor() if len(parts) > 1 else None
        if executor is None:
            parts = [source]
        workers = self.n_workers if executor is not None else 1
        capture = executor is not None and telemetry.enabled
        offsets = np.cumsum([0] + [part.n_cycles + 1 for part in parts[:-1]]).tolist()

        pieces: list[list[TraceSummary]] = [[] for _ in range(segmenter.n_segments)]
        total = source.n_cycles
        done = 0
        previous_last: np.ndarray | None = None

        def consume(offset: int, result: _PartResult) -> None:
            """Fold one part in, after its junction with the part before it."""
            nonlocal done, previous_last
            part_pieces, first, last, snapshot = result
            if snapshot is not None:
                telemetry.merge_snapshot(snapshot)
            if previous_last is not None:
                junction = BusTrace(packed=np.stack([previous_last, first]), n_bits=source.n_bits)
                (summary,) = analyze_trace_statistics(junction, topology).summaries([0])
                pieces[segmenter.segment_index(offset - 1)].append(summary)
                done += 1
            for index, start, summary in part_pieces:
                if start != done:
                    raise ParallelExecutionError(
                        f"a piece starts at cycle {start}, but the parts before "
                        f"it end at {done}"
                    )
                pieces[index].append(summary)
                done += summary.n_cycles
            previous_last = last
            if progress is not None and executor is not None:
                progress(done, total)

        with telemetry.span("parallel.pass1", workers=workers, cycles=total):
            if executor is None:
                report = None if progress is None else lambda end: progress(end, total)
                consume(0, _part_summaries(source, 0, segmenter, topology, False, report))
            else:
                futures = [
                    executor.submit(_part_summaries, part, offset, segmenter, topology, capture)
                    for part, offset in zip(parts, offsets)
                ]
                try:
                    for offset, future in zip(offsets, futures):
                        consume(offset, future.result())
                except BrokenProcessPool as exc:
                    self.close()
                    raise ParallelExecutionError(
                        "a parallel statistics worker died unexpectedly (the pool "
                        "is broken); re-run serially or with fewer workers"
                    ) from exc
                finally:
                    for future in futures:
                        future.cancel()
            telemetry.gauge("parallel.workers", workers)

        if done != total:
            raise ParallelExecutionError(
                f"the parts covered {done} of the run's {total} cycles"
            )
        with telemetry.span("parallel.merge", segments=segmenter.n_segments, parts=len(parts)):
            return [merge_summaries(segment_pieces) for segment_pieces in pieces]


def statistics_pass(
    workload: BusTrace | TraceSource | TraceStatistics,
    segmenter: ChunkSegmenter,
    topology: NeighborTopology,
    *,
    jobs: int | None = None,
    progress: ProgressCallback | None = None,
) -> list[TraceSummary]:
    """One exact summary per segment of ``segmenter``: the pass every driver makes.

    Traces and sources stream through a :class:`ParallelChunkScheduler` with
    ``jobs`` workers (inline for ``jobs`` of ``None`` or 1).  Precomputed
    :class:`~repro.bus.bus_model.TraceStatistics` have no kernel work left
    and reduce in one call of the same reducer.  Results are bit-identical
    for every kernel, chunk size and worker count.
    """
    from repro.bus.bus_model import TraceStatistics

    if isinstance(workload, TraceStatistics):
        if workload.n_cycles != segmenter.n_cycles:
            raise ValueError(
                f"statistics cover {workload.n_cycles} cycles but the segmenter "
                f"was built for {segmenter.n_cycles}"
            )
        return workload.summaries(segmenter.boundaries()[:-1])
    n_workers = jobs if jobs is not None and jobs > 1 else 1
    with ParallelChunkScheduler(n_workers=n_workers) as scheduler:
        return scheduler.segment_summaries(
            as_trace_source(workload),
            segmenter,
            topology,
            progress=progress,
        )
