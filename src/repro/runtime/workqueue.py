"""Persistent work queue: the long-running serving core behind ``repro serve``.

:func:`~repro.runtime.executor.run_jobs` (PR 1) is batch-shaped: expand a
grid, fan the misses over a pool, exit.  A *server* needs the opposite
lifecycle -- accept work forever, admit or reject each request the moment it
arrives, and keep its workers warm across requests.  :class:`WorkQueue` is
that refactor: a thread-scheduled, process-executed queue with explicit
submit/cancel/status, used both by the ``repro.server`` protocol layer and by
``run_jobs`` itself (whose parallel path is now "open a transient queue,
submit, drain").

Semantics
---------
* **Dedupe** -- submissions are identified by their content-addressed
  :attr:`~repro.runtime.spec.JobSpec.key`.  A submission whose key matches a
  queued or running job *attaches* to it instead of executing again: every
  attached client streams the same events and receives the same result
  bytes.  A submission whose key is already in the :class:`ResultCache`
  completes instantly without touching the queue.
* **Dispatch** -- each worker turn pops exactly one job, oldest first, so
  queued work fans out over every idle worker.  Each worker process keeps
  its own characterisation and segment-summary memos
  (:func:`repro.runtime.tasks._characterized_bus`,
  :func:`repro.runtime.tasks._segment_summaries`) warm across jobs.
* **Backpressure and quotas** -- at most ``max_pending`` jobs may wait in the
  queue (further submissions raise :class:`QueueFullError`) and each client
  may hold at most ``quota`` active (queued or running) attachments
  (:class:`QuotaExceededError`).  Cache hits are free: they consume neither.
* **Cancellation** -- detaching the last client of a queued job removes it;
  detaching the last client of a *running* job kills the worker process
  executing it (the slot respawns its worker and keeps serving).
* **Fault isolation** -- a worker process dying mid-job (segfault,
  ``os._exit``, OOM kill) fails *that job* with a structured
  ``WorkerDied`` error; the queue respawns the worker and keeps draining.
* **Graceful shutdown** -- :meth:`WorkQueue.close` stops admissions and
  either drains the backlog (``drain=True``) or cancels it, then joins the
  worker threads and terminates the worker processes.

Execution is delegated to a runner per worker slot: :class:`ProcessRunner`
(the default) keeps one persistent forked child per slot -- warm task memos,
kill-based cancellation, crash detection -- while :class:`InlineRunner` runs
jobs in the scheduler thread itself, which is what the deterministic server
test harness injects (a fake runner function sees an abort probe and an
event emitter) and what restricted environments without ``fork`` fall back
to.

Determinism contract: the queue never changes *what* is computed, only when
and where.  Tasks are pure functions of their parameters, results enter the
same content-addressed cache under the same keys, and a result obtained
through any number of concurrent, deduplicated submissions is byte-identical
to a direct :func:`~repro.runtime.tasks.run_job_params` call.

Telemetry: ``server.dedupe`` spans mark key-matched attachments,
``server.job`` spans wrap each job dispatch, the ``server.queue_depth``
gauge tracks the pending backlog (returning to zero when the queue is idle),
and counters (``workqueue.submitted`` / ``workqueue.executed`` /
``workqueue.cache_hits`` / ``workqueue.deduped`` / ``workqueue.failed`` /
``workqueue.cancelled`` / ``workqueue.worker_deaths``) mirror
:meth:`WorkQueue.stats`.
"""

from __future__ import annotations

import importlib
import pickle
import queue as queue_module
import threading
import time
from collections import deque
from typing import Any
from collections.abc import Callable, Iterator

from repro.runtime.cache import ResultCache, job_record
from repro.runtime.spec import JobSpec
from repro.telemetry import get_telemetry

__all__ = [
    "JOB_STATES",
    "InlineRunner",
    "JobCancelledError",
    "JobHandle",
    "ProcessRunner",
    "QueueClosedError",
    "QueueFullError",
    "QuotaExceededError",
    "WorkQueue",
    "WorkerDiedError",
]

# ---------------------------------------------------------------------------
# Job lifecycle
# ---------------------------------------------------------------------------
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Every state a job can be in; the first two are "active" (consume quota).
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)

#: Event kinds that end a client's stream.
_TERMINAL_EVENTS = ("result", "error", "cancelled")

#: Span names a worker process relays to the parent as progress events.
_PROGRESS_SPANS = ("parallel.chunk",)


class QueueClosedError(RuntimeError):
    """Submitted to a queue that is shutting down (or already closed)."""


class QueueFullError(RuntimeError):
    """The pending backlog is at ``max_pending``; retry after it drains."""


class QuotaExceededError(RuntimeError):
    """The client already holds its maximum number of active jobs."""


class WorkerDiedError(RuntimeError):
    """The worker process executing a job died before reporting a result."""


class JobCancelledError(RuntimeError):
    """The job was cancelled (every attached client detached) before finishing."""


class _Job:
    """Internal mutable state of one unit of work (shared by attached handles)."""

    __slots__ = (
        "id",
        "spec",
        "key",
        "state",
        "handles",
        "cancel_requested",
        "slot",
        "result",
        "error",
        "exception",
        "duration_s",
        "cached",
        "submitted_s",
        "finished",
    )

    def __init__(self, job_id: str, spec: JobSpec, key: str, submitted_s: float) -> None:
        self.id = job_id
        self.spec = spec
        self.key = key
        self.state = QUEUED
        self.handles: list["JobHandle"] = []
        self.cancel_requested = False
        self.slot: "_WorkerSlot" | None = None
        self.result: dict[str, Any] | None = None
        self.error: dict[str, str] | None = None
        self.exception: BaseException | None = None
        self.duration_s = 0.0
        self.cached = False
        self.submitted_s = submitted_s
        self.finished = threading.Event()

    def describe(self) -> dict[str, Any]:
        """JSON-able status row (what ``status``/``jobs`` protocol ops return)."""
        return {
            "job": self.id,
            "task": self.spec.task,
            "label": self.spec.label,
            "key": self.key,
            "state": self.state,
            "clients": len(self.handles),
            "cached": self.cached,
            "error": self.error,
        }


class JobHandle:
    """One client's attachment to a job: its event stream and result future.

    Handles are created by :meth:`WorkQueue.submit` only.  Several handles
    (one per deduplicated client) may share one underlying job; each handle
    has its own event stream, and detaching one handle never disturbs the
    others.  The *last* handle to detach cancels the job itself.
    """

    def __init__(self, queue: WorkQueue, job: _Job, client: str) -> None:
        self._queue = queue
        self._job = job
        self.client = client
        self.deduped = False
        self.detached = False
        self._events: queue_module.Queue[dict[str, Any]] = queue_module.Queue()

    # -- identity ------------------------------------------------------- #
    @property
    def id(self) -> str:
        """The job id this handle is attached to (``job-<n>``)."""
        return self._job.id

    @property
    def key(self) -> str:
        """The job's content-addressed cache key."""
        return self._job.key

    @property
    def state(self) -> str:
        """The job's current lifecycle state."""
        return self._job.state

    @property
    def cached(self) -> bool:
        """Whether submission was satisfied straight from the result cache."""
        return self._job.cached

    @property
    def duration_s(self) -> float:
        """Execution wall time (0 for cache hits and unfinished jobs)."""
        return self._job.duration_s

    # -- consumption ---------------------------------------------------- #
    def events(self, timeout: float | None = None) -> Iterator[dict[str, Any]]:
        """Yield this handle's events until a terminal one (result/error/cancelled).

        ``timeout`` bounds the wait for *each* event; expiry raises
        ``queue.Empty`` (a server bug or an abandoned queue, never a slow
        job -- running jobs emit a ``started`` event immediately).
        """
        while True:
            event = self._events.get(timeout=timeout)
            yield event
            if event.get("event") in _TERMINAL_EVENTS:
                return

    def next_event(self, timeout: float | None = None) -> dict[str, Any] | None:
        """The next queued event, or ``None`` when ``timeout`` expires.

        The non-raising sibling of :meth:`events`, for pollers that must do
        other work (liveness probes, select loops) between events.
        """
        try:
            return self._events.get(timeout=timeout)
        except queue_module.Empty:
            return None

    def result(self, timeout: float | None = None) -> dict[str, Any]:
        """Block until the job finishes and return its result dict.

        Raises the job's original exception for failures (or
        :class:`WorkerDiedError` when the worker process died), and
        :class:`JobCancelledError` when the job -- or this handle's
        attachment -- was cancelled.
        """
        if self.detached:
            raise JobCancelledError(f"{self.id}: detached before completion")
        if not self._job.finished.wait(timeout):
            raise TimeoutError(f"{self.id} still {self._job.state} after {timeout} s")
        job = self._job
        if job.state == DONE:
            assert job.result is not None
            return job.result
        if job.state == CANCELLED:
            raise JobCancelledError(f"{self.id}: cancelled")
        if job.exception is not None:
            raise job.exception
        error = job.error or {"type": "Unknown", "message": "job failed"}
        raise WorkerDiedError(f"{self.id}: {error['type']}: {error['message']}")

    def cancel(self) -> bool:
        """Detach from the job; returns whether the attachment was live.

        Cancelling the last attachment cancels the job: queued jobs leave
        the queue, running jobs have their worker process killed.
        """
        return self._queue._detach(self)

    # -- internal ------------------------------------------------------- #
    def _push(self, event: dict[str, Any]) -> None:
        self._events.put(event)


# ---------------------------------------------------------------------------
# Runners: where a job's code actually executes
# ---------------------------------------------------------------------------
class RunnerContext:
    """What an :class:`InlineRunner` function sees: progress + abort probes."""

    __slots__ = ("emit", "should_abort")

    def __init__(
        self, emit: Callable[[dict[str, Any]], None], should_abort: Callable[[], bool]
    ) -> None:
        self.emit = emit
        self.should_abort = should_abort


class InlineRunner:
    """Execute jobs in the scheduler thread itself (no subprocess).

    The deterministic test harness injects ``fn(task, params, ctx)`` to
    script behaviour (block, fail, fake a worker death via
    :class:`WorkerDiedError`, abort cooperatively via ``ctx.should_abort``).
    Without ``fn`` it runs the real task registry -- the fallback for
    environments where ``fork`` is unavailable.  Inline execution cannot be
    interrupted mid-job and does not capture per-job telemetry snapshots.
    """

    is_process = False

    def __init__(self, fn: Callable[..., dict[str, Any]] | None = None) -> None:
        self._fn = fn

    def start(self) -> None:
        """Nothing to spawn."""

    def run(
        self,
        task: str,
        params: dict[str, Any],
        capture: bool,
        emit: Callable[[dict[str, Any]], None],
        should_abort: Callable[[], bool],
    ) -> tuple[dict[str, Any], dict[str, Any] | None]:
        """Run one job inline; returns ``(result, telemetry_snapshot=None)``."""
        if self._fn is not None:
            return self._fn(task, params, RunnerContext(emit, should_abort)), None
        from repro.runtime.tasks import run_job_params

        return run_job_params(task, params), None

    def interrupt(self) -> None:
        """Inline jobs cannot be interrupted; cancellation is cooperative."""

    def close(self) -> None:
        """Nothing to tear down."""


class _ChunkEventRelay(list):
    """A worker process's event sink: forwards chunk spans as progress.

    Subclasses ``list`` so it can stand in for ``Telemetry.events``; every
    recorded span lands here, chunk-level ones are relayed over the pipe to
    the parent (rate-limited so a 10M-cycle stream does not flood it), and
    the full list is only retained when the parent wants a snapshot back.
    """

    def __init__(self, conn: Any, retain: bool, min_interval_s: float = 0.2) -> None:
        super().__init__()
        self._conn = conn
        self._retain = retain
        self._min_interval_s = min_interval_s
        self._last_sent = 0.0

    def append(self, event: Any) -> None:
        if self._retain:
            list.append(self, event)
        if event.name in _PROGRESS_SPANS:
            now = time.monotonic()
            if now - self._last_sent >= self._min_interval_s:
                self._last_sent = now
                try:
                    self._conn.send(("progress", {"span": event.name, **event.args}))
                except (OSError, ValueError):  # parent gone; keep computing
                    pass


def _process_worker_main(conn: Any) -> None:
    """Loop of a persistent worker process: recv job, run, send result.

    Runs until the parent sends ``("exit",)`` or the pipe closes.  Each job
    executes under a fresh telemetry collector whose chunk spans stream back
    as progress; the full snapshot is returned only when the parent's
    collector is live (``capture``).  Failures ship the pickled exception
    when possible so the parent can re-raise the original type.
    """
    from repro.runtime.tasks import run_job_params
    from repro.telemetry import Telemetry, use_telemetry

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if message[0] == "exit":
            return
        _, task, params, capture = message
        telemetry = Telemetry(label=f"worker:{task}")
        telemetry.events = _ChunkEventRelay(conn, retain=capture)
        try:
            with use_telemetry(telemetry):
                with telemetry.span("job", task=task):
                    result = run_job_params(task, params)
        except BaseException as error:
            try:
                payload = pickle.dumps(error)
            except (pickle.PicklingError, TypeError, AttributeError, ValueError):
                # Unpicklable exception (closure attrs, C-state, recursive
                # reduce); the parent rebuilds a RuntimeError from the type
                # name and message instead.
                payload = None
            try:
                conn.send(("error", payload, type(error).__name__, str(error)))
            except OSError:
                return
            continue
        snapshot = telemetry.snapshot() if capture else None
        try:
            conn.send(("ok", result, snapshot))
        except OSError:
            return


#: The simulation stack and the task registry a worker needs for any task,
#: imported by the parent before it forks.  Neither ``import repro`` nor the
#: CLI loads them (the package exports and the CLI's imports are lazy), so
#: without this every forked worker -- and every respawn -- would import
#: numpy, the stack and the registry again before its first job.
_PREFORK_MODULES: tuple[str, ...] = (
    "repro.bus",
    "repro.core",
    "repro.trace.workloads",
    "repro.chardb",
    "repro.energy",
    "repro.runtime.parallel",
    "repro.runtime.tasks",
)


class ProcessRunner:
    """One persistent forked worker process with crash detection and kill.

    The child stays alive across jobs (warm ``lru_cache`` memos, exactly
    like a pool worker), is killed outright to cancel a running job, and is
    respawned transparently after any death.  The parent polls the pipe so
    an abort request takes effect within ``poll_interval_s``.
    """

    is_process = True

    def __init__(self, poll_interval_s: float = 0.05) -> None:
        import multiprocessing

        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._context = multiprocessing.get_context()
        self._poll_interval_s = poll_interval_s
        self._process: Any | None = None
        self._conn: Any | None = None

    def start(self) -> None:
        """Fork the worker process (idempotent)."""
        if self._process is not None and self._process.is_alive():
            return
        for module in _PREFORK_MODULES:
            importlib.import_module(module)
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_process_worker_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        self._process, self._conn = process, parent_conn

    def _discard(self, kill: bool = False) -> int | None:
        """Drop the current child (optionally killing it); returns its exit code."""
        process, conn = self._process, self._conn
        self._process = self._conn = None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if process is None:
            return None
        if kill and process.is_alive():
            process.kill()
        process.join(timeout=1.0)
        return process.exitcode

    def run(
        self,
        task: str,
        params: dict[str, Any],
        capture: bool,
        emit: Callable[[dict[str, Any]], None],
        should_abort: Callable[[], bool],
    ) -> tuple[dict[str, Any], dict[str, Any] | None]:
        """Dispatch one job to the worker process and pump its messages."""
        self.start()
        conn = self._conn
        assert conn is not None
        try:
            conn.send(("run", task, params, capture))
        except (OSError, ValueError):
            self._discard(kill=True)
            raise WorkerDiedError(f"worker process died before accepting {task!r}") from None
        while True:
            try:
                if not conn.poll(self._poll_interval_s):
                    if should_abort():
                        self._discard(kill=True)
                        raise JobCancelledError(f"{task!r} cancelled while running")
                    continue
                message = conn.recv()
            except (EOFError, OSError):
                exitcode = self._discard(kill=True)
                if should_abort():
                    raise JobCancelledError(f"{task!r} cancelled while running") from None
                raise WorkerDiedError(
                    f"worker process died (exit code {exitcode}) while running {task!r}"
                ) from None
            kind = message[0]
            if kind == "progress":
                emit(message[1])
            elif kind == "ok":
                return message[1], message[2]
            else:  # ("error", pickled, type_name, text)
                raise self._rebuild_error(message)

    @staticmethod
    def _rebuild_error(message: tuple[Any, ...]) -> BaseException:
        """The child's exception, re-raised with its original type if possible."""
        _, payload, type_name, text = message
        if payload is not None:
            try:
                error = pickle.loads(payload)
                if isinstance(error, BaseException):
                    return error
            except (
                pickle.UnpicklingError,
                AttributeError,
                ImportError,
                TypeError,
                ValueError,
                EOFError,
            ):
                # The exception type may not exist (or not reconstruct) in
                # the parent -- fall through to the generic rebuild below.
                pass
        return RuntimeError(f"{type_name}: {text}")

    def interrupt(self) -> None:
        """Kill the worker process (the run loop reports the cancellation)."""
        process = self._process
        if process is not None and process.is_alive():
            process.kill()

    def close(self) -> None:
        """Ask the child to exit, then make sure it is gone."""
        conn = self._conn
        if conn is not None:
            try:
                conn.send(("exit",))
            except (OSError, ValueError):
                pass
        self._discard(kill=True)


class _WorkerSlot:
    """One scheduler thread plus the runner it dispatches jobs to."""

    __slots__ = ("index", "runner", "thread")

    def __init__(self, index: int, runner: Any) -> None:
        self.index = index
        self.runner = runner
        self.thread: threading.Thread | None = None


# ---------------------------------------------------------------------------
# The queue
# ---------------------------------------------------------------------------
class WorkQueue:
    """A persistent, deduplicating, bounded job queue over the result cache.

    Parameters
    ----------
    n_workers:
        Worker slots (scheduler thread + runner each).
    cache:
        :class:`ResultCache` consulted at submission and populated at
        completion with the batch executor's record
        (:func:`~repro.runtime.cache.job_record`), so the two share results
        freely.  ``None`` disables caching -- every submission executes
        (dedupe of *in-flight* duplicates still applies).
    runner_factory:
        Zero-argument callable producing one runner per slot.  Defaults to
        :class:`ProcessRunner`; the test harness injects
        ``lambda: InlineRunner(fake)``.  If process runners cannot fork in
        this environment, the queue silently falls back to inline runners
        (:attr:`workers_are_processes` says which mode is live).
    max_pending:
        Backpressure bound on the queued-but-not-running backlog.
    quota:
        Per-client bound on active attachments; ``None`` means unlimited.
    clock:
        Monotonic time source for job timestamps and durations; injectable
        so the server tests are deterministic.
    """

    def __init__(
        self,
        n_workers: int = 1,
        cache: ResultCache | None = None,
        runner_factory: Callable[[], Any] | None = None,
        max_pending: int = 256,
        quota: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self._cache = cache
        self._max_pending = max_pending
        self._quota = quota
        self._clock = clock
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._pending: deque[_Job] = deque()
        self._jobs: dict[str, _Job] = {}
        self._active_by_key: dict[str, _Job] = {}
        self._client_active: dict[str, int] = {}
        self._counters: dict[str, int] = {
            "submitted": 0,
            "executed": 0,
            "cache_hits": 0,
            "deduped": 0,
            "failed": 0,
            "task_failures": 0,
            "cancelled": 0,
            "worker_deaths": 0,
        }
        self._running = 0
        self._seq = 0
        self._closed = False
        self._stopping = False

        self._slots = [
            _WorkerSlot(index, self._make_runner(runner_factory)) for index in range(n_workers)
        ]
        # Fork every worker process *before* the scheduler threads start, so
        # the initial children never fork from a multi-threaded parent.
        self.workers_are_processes = all(
            getattr(slot.runner, "is_process", False) for slot in self._slots
        )
        for slot in self._slots:
            slot.thread = threading.Thread(
                target=self._worker_loop, args=(slot,), name=f"workqueue-{slot.index}", daemon=True
            )
            slot.thread.start()

    @staticmethod
    def _make_runner(runner_factory: Callable[[], Any] | None) -> Any:
        if runner_factory is not None:
            runner = runner_factory()
            runner.start()
            return runner
        runner = ProcessRunner()
        try:
            runner.start()
        except (OSError, PermissionError):  # pragma: no cover - sandboxed environments
            return InlineRunner()
        return runner

    @property
    def n_workers(self) -> int:
        """Number of worker slots."""
        return len(self._slots)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, spec: JobSpec, client: str = "local", read_cache: bool = True) -> JobHandle:
        """Admit one job; returns this client's :class:`JobHandle`.

        Resolution order: result cache (instant completion), in-flight
        dedupe (attach), then a fresh queue entry -- which is where the
        ``quota`` and ``max_pending`` admission checks apply.
        """
        telemetry = get_telemetry()
        key = spec.key
        cache = self._cache if read_cache else None
        while True:
            with self._lock:
                executed = self._counters["executed"]
            cached = cache.get(key) if cache is not None else None
            # Read the (injected, possibly slow) clock before taking the lock.
            submitted_s = self._clock()
            with self._lock:
                if self._closed:
                    raise QueueClosedError("queue is shutting down; submission rejected")
                if cached is not None and "result" in cached:
                    self._counters["cache_hits"] += 1
                    telemetry.count("workqueue.cache_hits")
                    job = self._new_job(spec, key, submitted_s)
                    job.state = DONE
                    job.cached = True
                    job.result = cached["result"]
                    job.finished.set()
                    handle = JobHandle(self, job, client)
                    # _push is queue.Queue.put on the handle's own unbounded
                    # event queue: non-blocking, no subscriber code runs here.
                    handle._push(self._result_event(job))  # repro: noqa[LCK003]
                    return handle
                active = self._active_by_key.get(key)
                if active is not None:
                    self._check_quota(client)
                    handle = JobHandle(self, active, client)
                    handle.deduped = True
                    active.handles.append(handle)
                    self._client_active[client] = self._client_active.get(client, 0) + 1
                    self._counters["deduped"] += 1
                    telemetry.count("workqueue.deduped")
                    now = telemetry.now()
                    telemetry.record_span(
                        "server.dedupe", now, now, job=active.id, clients=len(active.handles)
                    )
                    if active.state == RUNNING:
                        # Non-blocking put on the handle's own queue (see above).
                        handle._push({"event": "started", "job": active.id})  # repro: noqa[LCK003]
                    return handle
                if cache is not None and cached is None and self._counters["executed"] != executed:
                    # A job finished -- and wrote the cache -- after the
                    # lookup above, perhaps this key's: look again rather
                    # than execute it twice.
                    continue
                self._check_quota(client)
                if len(self._pending) >= self._max_pending:
                    raise QueueFullError(
                        f"queue is full ({self._max_pending} pending); retry after it drains"
                    )
                job = self._new_job(spec, key, submitted_s)
                handle = JobHandle(self, job, client)
                job.handles.append(handle)
                self._client_active[client] = self._client_active.get(client, 0) + 1
                self._active_by_key[key] = job
                self._pending.append(job)
                self._counters["submitted"] += 1
                telemetry.count("workqueue.submitted")
                telemetry.gauge("server.queue_depth", len(self._pending))
                self._wakeup.notify_all()
                return handle

    def _new_job(self, spec: JobSpec, key: str, submitted_s: float) -> _Job:
        self._seq += 1
        job = _Job(f"job-{self._seq}", spec, key, submitted_s=submitted_s)
        self._jobs[job.id] = job
        return job

    def _check_quota(self, client: str) -> None:
        if self._quota is not None and self._client_active.get(client, 0) >= self._quota:
            raise QuotaExceededError(
                f"client {client!r} already has {self._quota} active job(s); "
                "cancel one or wait for completions"
            )

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    def status(self, job_id: str) -> dict[str, Any] | None:
        """One job's status row, or ``None`` for unknown ids."""
        with self._lock:
            job = self._jobs.get(job_id)
            return job.describe() if job is not None else None

    def jobs(self) -> list[dict[str, Any]]:
        """Status rows for every job this queue has seen, in submission order."""
        with self._lock:
            return [job.describe() for job in self._jobs.values()]

    def stats(self) -> dict[str, Any]:
        """Aggregate queue statistics (depth, running, lifecycle counters)."""
        with self._lock:
            return {
                "depth": len(self._pending),
                "running": self._running,
                "workers": len(self._slots),
                **dict(self._counters),
            }

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until nothing is pending or running; ``False`` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._pending or self._running:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._wakeup.wait(remaining)
            return True

    # ------------------------------------------------------------------ #
    # Cancellation
    # ------------------------------------------------------------------ #
    def cancel(self, job_id: str, client: str | None = None) -> bool:
        """Detach a job's handles (all of them, or one client's only)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return False
            targets = [
                handle for handle in job.handles if client is None or handle.client == client
            ]
        detached = False
        for handle in targets:
            detached = self._detach(handle) or detached
        return detached

    def _detach(self, handle: JobHandle) -> bool:
        interrupt_slot: _WorkerSlot | None = None
        with self._lock:
            job = handle._job
            if handle.detached or handle not in job.handles:
                return False
            handle.detached = True
            job.handles.remove(handle)
            count = self._client_active.get(handle.client, 0) - 1
            if count > 0:
                self._client_active[handle.client] = count
            else:
                self._client_active.pop(handle.client, None)
            # Non-blocking put on the handle's own event queue.
            event = {"event": "cancelled", "job": job.id, "detached": True}
            handle._push(event)  # repro: noqa[LCK003]
            if not job.handles and job.state in (QUEUED, RUNNING):
                job.cancel_requested = True
                if job.state == QUEUED and job in self._pending:
                    self._pending.remove(job)
                    self._finalize_locked(job, CANCELLED)
                    get_telemetry().gauge("server.queue_depth", len(self._pending))
                elif job.state == RUNNING:
                    interrupt_slot = job.slot
        if interrupt_slot is not None:
            interrupt_slot.runner.interrupt()
        return True

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def _next_job(self) -> _Job | None:
        """Pop the oldest pending job; ``None`` to exit."""
        with self._lock:
            while True:
                if self._pending:
                    job = self._pending.popleft()
                    get_telemetry().gauge("server.queue_depth", len(self._pending))
                    self._running += 1
                    return job
                if self._stopping:
                    return None
                self._wakeup.wait()

    def _worker_loop(self, slot: _WorkerSlot) -> None:
        while True:
            job = self._next_job()
            if job is None:
                return
            telemetry = get_telemetry()
            started = telemetry.now()
            self._run_one(slot, job)
            telemetry.record_span(
                "server.job", started, telemetry.now(), task=job.spec.task, worker=slot.index
            )

    def _run_one(self, slot: _WorkerSlot, job: _Job) -> None:
        telemetry = get_telemetry()
        with self._lock:
            if job.cancel_requested and not job.handles:
                # Cancelled between the pop and the start: it was already
                # counted as running.
                self._running -= 1
                self._finalize_locked(job, CANCELLED)
                return
            job.state = RUNNING
            job.slot = slot
            self._fanout_locked(job, {"event": "started", "job": job.id})
        capture = telemetry.enabled

        def emit(payload: dict[str, Any]) -> None:
            with self._lock:
                self._fanout_locked(job, {"event": "progress", "job": job.id, **payload})

        started = self._clock()
        try:
            result, snapshot = slot.runner.run(
                job.spec.task, dict(job.spec.params), capture, emit, lambda: job.cancel_requested
            )
        except JobCancelledError:
            with self._lock:
                self._finalize_locked(job, CANCELLED)
            return
        except WorkerDiedError as error:
            with self._lock:
                self._counters["worker_deaths"] += 1
                telemetry.count("workqueue.worker_deaths")
                job.error = {"type": "WorkerDied", "message": str(error)}
                job.exception = error
                self._finalize_locked(job, FAILED)
            return
        except Exception as error:
            # Deliberately broad: this is the task-failure boundary.  User
            # task code can raise anything; the exception is annotated into
            # telemetry here and re-raised verbatim by JobHandle.result() on
            # whichever thread is waiting for the job.
            with self._lock:
                self._counters["task_failures"] += 1
                telemetry.count("workqueue.task_failures")
                job.error = {"type": type(error).__name__, "message": str(error)}
                job.exception = error
                self._finalize_locked(job, FAILED)
            return
        job.duration_s = self._clock() - started
        job.result = result
        if self._cache is not None:
            self._cache.put(job.key, job_record(job.spec, result, job.duration_s))
        with self._lock:
            if snapshot is not None:
                telemetry.merge_snapshot(snapshot)
            self._counters["executed"] += 1
            telemetry.count("workqueue.executed")
            self._finalize_locked(job, DONE)

    def _finalize_locked(self, job: _Job, state: str) -> None:
        """Terminal transition (lock held): events, quota release, accounting."""
        was_running = job.state == RUNNING
        job.state = state
        job.slot = None
        if was_running:
            self._running -= 1
        if state == FAILED:
            self._counters["failed"] += 1
            get_telemetry().count("workqueue.failed")
        elif state == CANCELLED:
            self._counters["cancelled"] += 1
            get_telemetry().count("workqueue.cancelled")
        self._active_by_key.pop(job.key, None)
        if state == DONE:
            self._fanout_locked(job, self._result_event(job))
        elif state == FAILED:
            self._fanout_locked(job, {"event": "error", "job": job.id, "error": job.error})
        else:
            self._fanout_locked(job, {"event": "cancelled", "job": job.id})
        for handle in job.handles:
            count = self._client_active.get(handle.client, 0) - 1
            if count > 0:
                self._client_active[handle.client] = count
            else:
                self._client_active.pop(handle.client, None)
        job.handles = []
        job.finished.set()
        self._wakeup.notify_all()

    @staticmethod
    def _result_event(job: _Job) -> dict[str, Any]:
        return {
            "event": "result",
            "job": job.id,
            "key": job.key,
            "cached": job.cached,
            "duration_s": job.duration_s,
            "result": job.result,
        }

    def _fanout_locked(self, job: _Job, event: dict[str, Any]) -> None:
        for handle in job.handles:
            # Non-blocking put on each handle's own unbounded event queue;
            # subscriber code drains it outside the lock.
            handle._push(dict(event))  # repro: noqa[LCK003]

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop admissions, finish (or cancel) the backlog, tear workers down.

        ``drain=True`` lets queued and running jobs complete; ``drain=False``
        cancels everything queued and kills everything running.  Idempotent.
        """
        interrupt_slots: list[_WorkerSlot] = []
        with self._lock:
            self._closed = True
            if not drain:
                while self._pending:
                    job = self._pending.popleft()
                    job.cancel_requested = True
                    self._finalize_locked(job, CANCELLED)
                get_telemetry().gauge("server.queue_depth", 0)
                for job in list(self._active_by_key.values()):
                    if job.state == RUNNING:
                        job.cancel_requested = True
                        if job.slot is not None:
                            interrupt_slots.append(job.slot)
            self._stopping = True
            self._wakeup.notify_all()
        for slot in interrupt_slots:
            slot.runner.interrupt()
        for slot in self._slots:
            if slot.thread is not None:
                slot.thread.join(timeout)
        for slot in self._slots:
            slot.runner.close()

    def __enter__(self) -> WorkQueue:
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close(drain=exc_type is None)
