"""Progress reporting for sweep execution and long streamed runs.

Two reporter shapes live here:

* job-level reporters, called by the sweep executor after every job
  completes (whether it ran or hit the cache) -- :class:`ProgressPrinter`
  is the human-facing default, writing one line per completed job to
  ``stderr`` (never ``stdout``, which carries the actual results);
* :class:`ChunkProgress`, a cycle-level reporter for long streamed
  simulations (paper-scale Table 1 / Fig. 8 runs), showing throughput and an
  ETA as chunks complete.

:class:`ChunkProgress` is built on the telemetry layer: every call feeds the
``progress.cycles_reported`` counter, and the completed stream is recorded as
a ``stream:<label>`` span (so it shows up in Chrome traces alongside the
kernels it paced).  Its console behaviour depends on where stderr goes -- a
TTY gets one carriage-return-updated status line, a pipe or CI log gets *no*
intermediate output and a single summary line at completion, so logs are
never sprayed with per-chunk updates.

Reporters are plain callables so tests can substitute a recording stub.
"""

from __future__ import annotations

import sys
import time
from typing import TextIO

from repro.runtime.spec import JobSpec
from repro.telemetry import get_telemetry

__all__ = [
    "PROGRESS_THRESHOLD_CYCLES",
    "ChunkProgress",
    "ProgressPrinter",
    "auto_chunk_progress",
    "null_progress",
]

#: Streamed runs at or above this length get automatic chunk-level progress
#: reporting on a TTY stderr (suppressed in tests and pipelines).
PROGRESS_THRESHOLD_CYCLES = 2_000_000


def null_progress(
    done: int, total: int, job: JobSpec, cached: bool, duration_s: float
) -> None:
    """A reporter that reports nothing (the library default)."""


class ProgressPrinter:
    """Line-per-job progress on a stream, with a cache-hit tally at the end.

    Parameters
    ----------
    stream:
        Output stream; defaults to ``stderr``.
    quiet:
        When true, suppress per-job lines and only allow :meth:`summary`.
    """

    def __init__(self, stream: TextIO | None = None, quiet: bool = False) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.quiet = quiet
        self.n_cached = 0
        self.n_executed = 0
        self._started = time.perf_counter()

    def __call__(
        self, done: int, total: int, job: JobSpec, cached: bool, duration_s: float
    ) -> None:
        if cached:
            self.n_cached += 1
        else:
            self.n_executed += 1
        if self.quiet:
            return
        status = "hit " if cached else "run "
        width = len(str(total))
        self.stream.write(
            f"[{done:>{width}}/{total}] {status} {job.label}  ({duration_s * 1000:.0f} ms)\n"
        )
        self.stream.flush()

    def summary(self) -> str:
        """One line: totals, hit count and wall time so far."""
        elapsed = time.perf_counter() - self._started
        total = self.n_cached + self.n_executed
        return (
            f"{total} jobs: {self.n_executed} executed, {self.n_cached} cache hits "
            f"in {elapsed:.2f} s"
        )


def _format_cycles(cycles: float) -> str:
    """Compact cycle counts: 950k, 2.5M, 10M."""
    if cycles >= 1e6:
        value = cycles / 1e6
        return f"{value:.0f}M" if value >= 10 else f"{value:.1f}M"
    if cycles >= 1e3:
        return f"{cycles / 1e3:.0f}k"
    return f"{cycles:.0f}"


class ChunkProgress:
    """Chunk-level progress for long streamed simulations, with an ETA.

    Matches the :data:`repro.core.dvs_system.ProgressCallback` shape --
    ``callback(done_cycles, total_cycles)`` -- so it plugs straight into
    :meth:`DVSBusSystem.run` and the streaming experiment drivers.

    Console output goes to ``stderr`` and adapts to it:

    * on a TTY, one status line is rewritten in place (``\\r``, no escape
      codes) at most every ``min_interval_s``, finishing with a newline;
    * on anything else (CI logs, pipes), intermediate updates are suppressed
      entirely and completion prints a single summary line.

    Independent of the console, every call feeds the installed telemetry
    collector: the ``progress.cycles_reported`` counter advances per call and
    the finished stream is recorded as a ``stream:<label>`` span.
    """

    def __init__(
        self,
        label: str = "stream",
        stream: TextIO | None = None,
        min_interval_s: float = 0.5,
        quiet: bool = False,
    ) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval_s = min_interval_s
        self.quiet = quiet
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._started = time.perf_counter()
        self._last_report = 0.0
        self._last_done = 0
        self._line_width = 0
        self._finished = False

    def _status_line(self, done_cycles: int, total_cycles: int, now: float) -> str:
        elapsed = max(now - self._started, 1e-9)
        rate = done_cycles / elapsed
        finished = done_cycles >= total_cycles
        if finished:
            eta = f"done in {elapsed:.1f}s"
        elif rate > 0:
            eta = f"ETA {max(total_cycles - done_cycles, 0) / rate:.0f}s"
        else:  # pragma: no cover - zero-rate guard
            eta = "ETA ?"
        percent = 100.0 * done_cycles / total_cycles if total_cycles else 100.0
        return (
            f"[{self.label}] {_format_cycles(done_cycles)}/{_format_cycles(total_cycles)} "
            f"cycles ({percent:.0f}%)  {_format_cycles(rate)} cyc/s  {eta}"
        )

    def __call__(self, done_cycles: int, total_cycles: int) -> None:
        delta = done_cycles - self._last_done
        self._last_done = done_cycles
        telemetry = get_telemetry()
        if delta > 0:
            telemetry.count("progress.cycles_reported", delta)
        now = time.perf_counter()
        finished = done_cycles >= total_cycles
        if finished and not self._finished:
            self._finished = True
            telemetry.record_span(
                f"stream:{self.label}", self._started, now, cycles=done_cycles
            )
        if self.quiet:
            return
        if not self._tty:
            # Non-TTY consumers (CI logs, pipes) get exactly one line, at
            # completion -- never a stream of per-chunk updates.
            if finished:
                self.stream.write(self._status_line(done_cycles, total_cycles, now) + "\n")
                self.stream.flush()
            return
        if not finished and now - self._last_report < self.min_interval_s:
            return
        self._last_report = now
        line = self._status_line(done_cycles, total_cycles, now)
        # Rewrite the same console line; pad with spaces so a shorter update
        # fully covers the previous one (plain \r, no escape codes).
        padding = " " * max(self._line_width - len(line), 0)
        self._line_width = len(line)
        self.stream.write("\r" + line + padding + ("\n" if finished else ""))
        self.stream.flush()

    def rate(self) -> float:
        """Average throughput so far, in cycles per second."""
        elapsed = max(time.perf_counter() - self._started, 1e-9)
        return self._last_done / elapsed


def auto_chunk_progress(total_cycles: int, label: str) -> ChunkProgress | None:
    """A :class:`ChunkProgress` for long runs, else ``None``.

    Progress reporting kicks in once a run is at least
    :data:`PROGRESS_THRESHOLD_CYCLES` long; shorter runs (tests, smokes) get
    ``None``.  The returned reporter handles the console itself: interactive
    TTYs get a live status line, non-TTY consumers only the single
    completion summary.
    """
    if total_cycles < PROGRESS_THRESHOLD_CYCLES:
        return None
    return ChunkProgress(label=label)
