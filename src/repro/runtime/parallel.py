"""The statistics pass: every simulation's fan-out and ordered reduction.

Every driver -- the closed-loop DVS run, the oracle, fixed-VS and static
scaling, the Table 1, Fig. 8 and Fig. 10 runners -- reduces its workloads
through one call of :func:`statistics_pass` and replays each run's segment
summaries as the pass yields them.  A call takes a batch of *runs*, each a
workload with its own :class:`ChunkSegmenter` (a whole Table 1 suite, or a
single simulation):

1. **Statistics pass.**  Each workload is cut into *parts*
   (:meth:`~repro.trace.stream.TraceSource.parts`), ``jobs`` spread over
   the batch's runs: one per program of a concatenated suite, word ranges
   of a synthetic, in-memory or ``.npz`` trace, and the whole trace for
   every other source (CPU kernels, SimPoint and encoded streams carry
   state from their first word on).  Ten benchmarks on two workers are one
   part each.  One task per part (:func:`_part_summaries`) streams the
   part itself (boundary-carrying chunks, so per-chunk transition
   computations are chunk-local and exact), runs the kernels
   (:func:`repro.bus.bus_model.analyze_trace_statistics`) on each chunk and
   reduces their coded per-cycle statistics with
   :meth:`repro.bus.bus_model.TraceStatistics.summaries` to one exact
   :class:`~repro.bus.bus_model.TraceSummary` per (chunk x segment) piece,
   split at the *segment boundaries* of the run's :class:`ChunkSegmenter`.
   It returns those pieces and the packed first and last word of its part.

2. **Seams.**  A synthetic word range generates from the start of the
   65 536-word generation block it starts in, which resumes from the last
   word of the block before it.  The task finds that word without
   generating the blocks before it
   (:func:`~repro.trace.synthetic.block_carry_word`): it regenerates that
   one block with a placeholder carry, which feeds no RNG draw, and walks
   back a block only when the whole block was a leading ``hold`` run.

3. **Reduction (deterministic).**  The master collects each run's results
   in part order.  Between two parts lies one *junction* cycle (the last
   word of one part to the first word of the next), which the master
   analyses as a 2-word trace and merges into its segment.  Each segment's
   pieces are folded in cycle order
   (:func:`~repro.bus.bus_model.merge_summaries`).  Every merged quantity
   is an exact integer (or small dyadic) total, so neither the parts, the
   batch, the chunk size nor the worker count can change a single bit.

The consumer (e.g. :meth:`repro.core.dvs_system.DVSBusSystem.run`) then
replays its sequential state machine over the per-segment summaries.  For
the DVS loop the segments are exactly the intervals between the
data-independent control boundaries (window starts, regulator ramp
applications, the warm-up edge), over which the supply is constant, so the
replay is exact.

``jobs`` is the one parallelism knob, and only :func:`statistics_pass`
turns it into processes: with one worker (the default) each run's task
runs inline on the whole workload, with more every part goes to one pool
that lives until the pass has yielded its last run.

Scheduling notes
----------------
* The pool is a ``fork``-context :class:`concurrent.futures.ProcessPoolExecutor`
  -- unlike ``multiprocessing.Pool`` it *raises* (``BrokenProcessPool``)
  instead of hanging when a worker dies, which the pass converts into a
  clean :class:`ParallelExecutionError`.
* The master sends each worker a description of a generated part, not its
  words, and gets back summaries, so it holds no generation buffers (an
  in-memory or ``.npz`` part carries its slice of the packed rows).
* A batch of one part, and environments that cannot fork (sandboxes,
  daemonic sweep workers), run the pass inline, like ``jobs=1``.
* With telemetry enabled, each chunk records a ``parallel.chunk`` span
  (pool workers into a fresh collector whose snapshot the master merges onto
  its own timeline -- ``fork`` children share the monotonic clock) under its
  run's ``parallel.pass1`` span, and each run's reduction runs under
  ``parallel.merge``.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any
from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.interconnect.crosstalk import NeighborTopology
from repro.telemetry import Telemetry, get_telemetry, use_telemetry
from repro.trace.stream import TraceSource, as_trace_source
from repro.trace.trace import BusTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.bus.bus_model import TraceStatistics, TraceSummary

__all__ = [
    "ChunkSegmenter",
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


def _open_pool(n_workers: int) -> ProcessPoolExecutor | None:
    """A fork pool of ``n_workers`` processes, or ``None`` to run inline.

    Daemonic processes (the runtime's sweep workers) cannot have children,
    and a sandbox may refuse to start them; both run the pass inline rather
    than fail it.
    """
    if multiprocessing.current_process().daemon:
        return None
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context()
    try:
        pool = ProcessPoolExecutor(max_workers=n_workers, mp_context=context)
        # ProcessPoolExecutor starts workers lazily: one round trip now
        # surfaces a refusal before any real work is queued.
        pool.submit(os.getpid).result(timeout=120)
    except (OSError, PermissionError, BrokenProcessPool):  # pragma: no cover
        return None
    return pool


def _part_summaries(
    part: TraceSource,
    offset: int,
    segmenter: ChunkSegmenter,
    topology: NeighborTopology,
    capture: bool,
    progress: Callable[[int], None] | None = None,
) -> _PartResult:
    """The statistics-pass task: one part of a workload, starting at global
    cycle ``offset``, to piece summaries.

    Module-level, so pool workers get it by reference.  With ``capture``
    set (pool mode under an active collector) the part streams under a
    fresh telemetry collector, inside a ``parallel.part`` span that also
    covers its generation, and the collector's snapshot is returned for the
    master to merge; without it (inline mode) spans record straight into
    the active collector, under the master's ``parallel.pass1`` span, and
    ``progress`` (inline mode only) hears the global end cycle of every
    chunk.
    """
    if capture:
        telemetry = Telemetry(label="parallel-worker")
        with use_telemetry(telemetry), telemetry.span(
            "parallel.part", part=part.name, start_cycle=offset, cycles=part.n_cycles
        ):
            result = _part_summaries(part, offset, segmenter, topology, False)
        return (*result[:3], telemetry.snapshot())
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
    return pieces, first, last, None


def _part_offsets(parts: Sequence[TraceSource]) -> list[int]:
    """The global start cycle of each part: a junction cycle lies between two."""
    return np.cumsum([0] + [part.n_cycles + 1 for part in parts[:-1]]).tolist()


def _fold_parts(
    results: Iterable[tuple[int, _PartResult]],
    segmenter: ChunkSegmenter,
    topology: NeighborTopology,
    n_bits: int,
    on_part: Callable[[int], None] | None,
) -> list[list[TraceSummary]]:
    """One run's part results, in order, as the pieces of each segment.

    ``results`` yields ``(global start cycle, result)`` per part; the cycle
    before each part after the first is the junction with the part before
    it.  ``on_part`` hears the run's folded cycle count after every part.
    """
    from repro.bus.bus_model import analyze_trace_statistics

    telemetry = get_telemetry()
    pieces: list[list[TraceSummary]] = [[] for _ in range(segmenter.n_segments)]
    done_count = 0
    previous_last: np.ndarray | None = None
    for offset, (part_pieces, first, last, snapshot) in results:
        if snapshot is not None:
            telemetry.merge_snapshot(snapshot)
        if previous_last is not None:
            junction = BusTrace(packed=np.stack([previous_last, first]), n_bits=n_bits)
            (summary,) = analyze_trace_statistics(junction, topology).summaries([0])
            pieces[segmenter.segment_index(offset - 1)].append(summary)
            done_count += 1
        for index, start, summary in part_pieces:
            if start != done_count:
                raise ParallelExecutionError(
                    f"a piece starts at cycle {start}, but the parts before "
                    f"it end at {done_count}"
                )
            pieces[index].append(summary)
            done_count += summary.n_cycles
        previous_last = last
        if on_part is not None:
            on_part(done_count)
    if done_count != segmenter.n_cycles:
        raise ParallelExecutionError(
            f"the parts covered {done_count} of the run's {segmenter.n_cycles} cycles"
        )
    return pieces


def statistics_pass(
    runs: Sequence[tuple[BusTrace | TraceSource | TraceStatistics, ChunkSegmenter]],
    topology: NeighborTopology,
    *,
    jobs: int | None = None,
    progress: ProgressCallback | None = None,
) -> Iterator[list[TraceSummary]]:
    """One exact summary per segment of every run: the pass every driver makes.

    ``runs`` holds ``(workload, segmenter)`` pairs; the result yields one
    list of summaries per run, in run order and segment order, as soon as
    that run's parts are folded, so a caller that replays and drops each
    run holds one run's summaries at a time.  The runs are checked when the
    pass is called and analysed as its result is iterated.  Traces and
    sources stream, inline for ``jobs`` of ``None`` or 1, else as parts on
    one pool of up to ``jobs`` workers shared by the whole batch (all parts
    are queued on the first ``next``; the pool closes after the last run).
    Precomputed :class:`~repro.bus.bus_model.TraceStatistics` have no kernel
    work left and reduce in one call of the same reducer.  Results are
    bit-identical for every kernel, chunk size, batch and worker count.
    ``progress`` hears the cycles done over the whole batch: after every
    chunk inline, after every part on the pool.

    >>> from repro.bus.bus_model import TraceStatistics
    >>> topology = NeighborTopology(2, [True, False], [False, True])
    >>> stats = TraceStatistics.from_arrays([2.15, 0.0, 2.15], [3.0, 0.0, 2.0], [4.0, 0.0, 2.0])
    >>> trace = BusTrace.from_words([0b00, 0b01, 0b11], n_bits=2)
    >>> (whole,), windows = statistics_pass(
    ...     [(stats, ChunkSegmenter(3)), (trace, ChunkSegmenter(2, window_cycles=1))],
    ...     topology,
    ... )
    >>> whole.n_cycles, whole.worst_coupling_counts.tolist()
    (3, [1, 2])
    >>> [(window.n_cycles, window.toggles_total) for window in windows]
    [(1, 1.0), (1, 1.0)]
    """
    for workload, segmenter in runs:
        if workload.n_cycles != segmenter.n_cycles:
            raise ValueError(
                f"a workload covers {workload.n_cycles} cycles but its segmenter "
                f"was built for {segmenter.n_cycles}"
            )
    return _pass_runs(runs, topology, jobs, progress)


def _pass_runs(
    runs: Sequence[tuple[BusTrace | TraceSource | TraceStatistics, ChunkSegmenter]],
    topology: NeighborTopology,
    jobs: int | None,
    progress: ProgressCallback | None,
) -> Iterator[list[TraceSummary]]:
    """The body of :func:`statistics_pass`: each run's summaries, in order."""
    from repro.bus.bus_model import TraceStatistics, merge_summaries

    total = sum(workload.n_cycles for workload, _ in runs)
    streamed = [
        (as_trace_source(workload), segmenter)
        for workload, segmenter in runs
        if not isinstance(workload, TraceStatistics)
    ]
    workers = jobs if jobs is not None and jobs > 1 else 1
    parts = [
        source.parts(-(-workers // len(streamed))) if workers > 1 else [source]
        for source, _ in streamed
    ]
    workers = min(workers, sum(map(len, parts)))
    pool = _open_pool(workers) if workers > 1 else None
    if pool is None:
        workers = 1
    telemetry = get_telemetry()
    capture = pool is not None and telemetry.enabled
    if streamed:
        telemetry.gauge("parallel.workers", workers)

    def report(cycle_count: int) -> None:
        if progress is not None:
            progress(cycle_count, total)

    def run_summaries(
        source: TraceSource,
        segmenter: ChunkSegmenter,
        futures: list[tuple[int, Future[_PartResult]]] | None,
        done_count: int,
    ) -> list[TraceSummary]:
        """One streamed run, inline or from its parts' ``futures``, folded and merged."""

        def run_report(cycle_count: int) -> None:
            report(done_count + cycle_count)

        with telemetry.span("parallel.pass1", workers=workers, cycles=source.n_cycles):
            if futures is None:
                result = _part_summaries(source, 0, segmenter, topology, False, run_report)
                pieces = _fold_parts([(0, result)], segmenter, topology, source.n_bits, None)
            else:
                results = ((offset, future.result()) for offset, future in futures)
                pieces = _fold_parts(results, segmenter, topology, source.n_bits, run_report)
        n_parts = 1 if futures is None else len(futures)
        with telemetry.span("parallel.merge", segments=len(pieces), parts=n_parts):
            return [merge_summaries(segment) for segment in pieces]

    try:
        # Every part is queued at once; each run's futures leave the queue
        # when it is folded, and with them the results they hold.
        pending = deque(
            [
                (offset, pool.submit(_part_summaries, part, offset, segmenter, topology, capture))
                for part, offset in zip(run_parts, _part_offsets(run_parts))
            ]
            for (_, segmenter), run_parts in zip(streamed, parts)
        ) if pool is not None else None
        sources = iter(streamed)
        done_count = 0
        # Each run is yielded straight from the call that makes it, so this
        # frame holds neither a run the caller has dropped nor its futures.
        for workload, segmenter in runs:
            done_count += workload.n_cycles
            if isinstance(workload, TraceStatistics):
                report(done_count)
                yield workload.summaries(segmenter.boundaries()[:-1])
                continue
            source, _ = next(sources)
            yield run_summaries(
                source,
                segmenter,
                pending.popleft() if pending is not None else None,
                done_count - source.n_cycles,
            )
    except BrokenProcessPool as exc:
        raise ParallelExecutionError(
            "a parallel statistics worker died unexpectedly (the pool "
            "is broken); re-run serially or with fewer workers"
        ) from exc
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
