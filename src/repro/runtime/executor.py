"""Job execution: cache lookup, worker pool, deterministic result assembly.

:func:`run_jobs` is the runtime's engine.  It takes an ordered sequence of
:class:`~repro.runtime.spec.JobSpec`, satisfies as many as possible from the
content-addressed cache, executes the misses (serially, or on a transient
:class:`~repro.runtime.workqueue.WorkQueue` of persistent worker processes)
and returns an :class:`ExecutionReport` whose outcomes are in the *input*
order regardless of completion order -- so a parallel run is observationally
identical to a serial one.

Determinism contract
--------------------
* Tasks are pure functions of their parameters (see
  :mod:`repro.runtime.tasks`), so scheduling cannot change any result.
* Queue workers complete jobs in whatever order they finish, but outcomes
  are slotted back by index; the report never depends on completion order.
* If worker processes cannot be forked (restricted environments), execution
  silently falls back to the serial path -- same results, one process.

The batch-shaped entry point is a thin client of the same
:class:`~repro.runtime.workqueue.WorkQueue` that backs the ``repro serve``
job server: it opens a queue sized to the misses, submits them all, drains
the handles in input order, and closes the queue.  Long-running callers (the
server) hold one queue open instead and get dedupe, quotas and
cancellation on top of the identical execution semantics.

Telemetry
---------
When a collector is installed (:func:`repro.telemetry.get_telemetry`), the
batch runs under an ``executor.run_jobs`` span and each executed job under a
``job`` span with its task name.  Queue workers cannot write into the
parent's collector, so each worker task records into a fresh one and ships
its snapshot back with the result; the queue merges the snapshots onto the
parent timeline (``fork`` children share the monotonic clock), the parent
records the task latency into the ``executor.task_seconds`` histogram, and
cache hit/miss counters keep flowing from
:class:`~repro.runtime.cache.ResultCache` itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any
from collections.abc import Callable, Sequence

from repro.runtime.cache import ResultCache, job_record
from repro.runtime.progress import null_progress
from repro.runtime.spec import JobSpec
from repro.telemetry import get_telemetry

__all__ = ["JobOutcome", "ExecutionReport", "run_jobs"]

ProgressCallback = Callable[[int, int, JobSpec, bool, float], None]


@dataclass(frozen=True)
class JobOutcome:
    """One job's result and how it was obtained."""

    spec: JobSpec
    result: dict[str, Any]
    cached: bool
    duration_s: float

    @property
    def key(self) -> str:
        """The job's content-addressed cache key."""
        return self.spec.key


@dataclass(frozen=True)
class ExecutionReport:
    """Everything :func:`run_jobs` did, in input order."""

    outcomes: tuple[JobOutcome, ...]
    n_cached: int
    n_executed: int
    n_workers: int
    wall_time_s: float

    @property
    def results(self) -> list[dict[str, Any]]:
        """The per-job result dicts, in input order."""
        return [outcome.result for outcome in self.outcomes]

    def summary(self) -> str:
        """One line for logs: job counts, hits, workers, wall time."""
        return (
            f"{len(self.outcomes)} jobs: {self.n_executed} executed, "
            f"{self.n_cached} cache hits, {self.n_workers} worker(s), "
            f"{self.wall_time_s:.2f} s"
        )


def _execute_serial(
    index: int, task_name: str, params: dict[str, Any]
) -> tuple[int, dict[str, Any], float]:
    """Serial execution of one task, recording straight into the parent collector."""
    from repro.runtime.tasks import run_job_params

    started = time.perf_counter()
    with get_telemetry().span("job", task=task_name):
        result = run_job_params(task_name, params)
    return index, result, time.perf_counter() - started


def _worker_count(requested: int | None, n_misses: int) -> int:
    """Clamp the requested worker count to something useful.

    An explicit request is honoured even beyond ``os.cpu_count()`` (the
    oversubscription is harmless and single-CPU CI boxes still exercise the
    pool path); there is never any point in more workers than misses.
    """
    if requested is None or requested <= 1 or n_misses <= 1:
        return 1
    return max(1, min(requested, n_misses))


def _make_queue(n_workers: int, cache: ResultCache | None, n_misses: int):
    """A process-backed :class:`WorkQueue`, or ``None`` when ``fork`` is unavailable."""
    from repro.runtime.workqueue import WorkQueue

    queue = WorkQueue(n_workers=n_workers, cache=cache, max_pending=max(1, n_misses))
    if not queue.workers_are_processes:  # pragma: no cover - sandboxed environments
        queue.close()
        return None
    return queue


def run_jobs(
    jobs: Sequence[JobSpec],
    cache: ResultCache | None = None,
    n_workers: int | None = None,
    progress: ProgressCallback | None = None,
) -> ExecutionReport:
    """Run a batch of jobs with caching and optional parallelism.

    Parameters
    ----------
    jobs:
        Ordered job specs; the report's outcomes follow this order.
    cache:
        Result cache to consult and populate; ``None`` disables caching.
    n_workers:
        Worker processes for the cache misses.  ``None`` or ``1`` runs
        serially; larger values use a ``fork`` pool, clamped only to the
        miss count (an explicit request beyond ``os.cpu_count()`` is
        honoured -- see :func:`_worker_count`).  Results are identical
        either way.
    progress:
        Callback ``(done, total, job, cached, duration_s)`` invoked after
        every job (cache hits first, then executions as they finish).
    """
    report = progress if progress is not None else null_progress
    telemetry = get_telemetry()
    started = time.perf_counter()
    total = len(jobs)
    keys = [job.key for job in jobs]

    with telemetry.span("executor.run_jobs", jobs=total):
        outcomes: list[JobOutcome | None] = [None] * total
        misses: list[int] = []
        done = 0
        for index, (job, key) in enumerate(zip(jobs, keys)):
            record = cache.get(key) if cache is not None else None
            if record is not None and "result" in record:
                outcomes[index] = JobOutcome(job, record["result"], cached=True, duration_s=0.0)
                done += 1
                report(done, total, job, True, 0.0)
            else:
                misses.append(index)

        n_workers = _worker_count(n_workers, len(misses))

        def complete(
            index: int,
            result: dict[str, Any],
            duration: float,
            store: bool = True,
        ) -> None:
            """Record one finished job: outcome slot, cache entry, progress.

            Called the moment each execution completes (in either mode), so an
            interrupted batch keeps every result finished so far and long
            sweeps report progress continuously.  Queue mode passes
            ``store=False``: the work queue already wrote the cache entry and
            merged the worker's telemetry snapshot at completion time.
            """
            nonlocal done
            job = jobs[index]
            outcomes[index] = JobOutcome(job, result, cached=False, duration_s=duration)
            telemetry.count("executor.jobs_executed")
            telemetry.observe("executor.task_seconds", duration)
            if store and cache is not None:
                cache.put(keys[index], job_record(job, result, duration))
            done += 1
            report(done, total, job, False, duration)

        queue = _make_queue(n_workers, cache, len(misses)) if n_workers > 1 else None
        if queue is None:
            n_workers = 1
            for index in misses:
                complete(*_execute_serial(index, jobs[index].task, dict(jobs[index].params)))
        else:
            # The cache was already pre-scanned above, so misses are submitted
            # with read_cache=False: every one must actually execute.
            try:
                handles = [(index, queue.submit(jobs[index], read_cache=False)) for index in misses]
                for index, handle in handles:
                    complete(index, handle.result(), handle.duration_s, store=False)
            except BaseException:
                queue.close(drain=False)
                raise
            queue.close(drain=True)
        telemetry.gauge("executor.workers", n_workers)

    finished = [outcome for outcome in outcomes if outcome is not None]
    assert len(finished) == total, "executor lost a job outcome"
    return ExecutionReport(
        outcomes=tuple(finished),
        n_cached=total - len(misses),
        n_executed=len(misses),
        n_workers=n_workers,
        wall_time_s=time.perf_counter() - started,
    )
