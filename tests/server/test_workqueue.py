"""Deterministic concurrency and fault-injection tests for the work queue.

Everything here runs on the inline fake runner from ``conftest`` -- gated by
``threading.Event``, timed by the injected step clock -- except the final
process-runner tests, which fork real workers to prove kill-based
cancellation and death recovery against genuine subprocesses.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.runtime import tasks as task_registry
from repro.runtime.cache import ResultCache
from repro.runtime.spec import JobSpec
from repro.runtime.workqueue import (
    JobCancelledError,
    ProcessRunner,
    QueueClosedError,
    QueueFullError,
    QuotaExceededError,
    WorkerDiedError,
    WorkQueue,
    default_batch_key,
)
from repro.telemetry import Telemetry, use_telemetry

from tests.pass_plan import forced_plan
from tests.server.conftest import Gate, echo_job, gated_fn, spec


# --------------------------------------------------------------------------- #
# Basic lifecycle
# --------------------------------------------------------------------------- #
def test_submit_executes_and_returns_result(make_queue):
    queue = make_queue()
    handle = queue.submit(spec(x=7))
    assert handle.result(timeout=5) == {"task": "dvs_run", "echo": {"x": 7}}
    assert handle.state == "done"
    stats = queue.stats()
    assert stats["executed"] == 1 and stats["submitted"] == 1
    assert queue.status(handle.id)["state"] == "done"


def test_event_stream_shape(make_queue):
    queue = make_queue()
    handle = queue.submit(spec(x=1))
    events = list(handle.events(timeout=5))
    assert [event["event"] for event in events] == ["started", "result"]
    assert events[-1]["result"]["echo"] == {"x": 1}
    assert events[-1]["key"] == handle.key


def test_cache_hit_completes_instantly(make_queue, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    queue = make_queue(cache=cache)
    first = queue.submit(spec(x=3))
    first.result(timeout=5)
    again = queue.submit(spec(x=3))
    assert again.cached and again.state == "done"
    assert again.result() == first.result()
    assert [event["event"] for event in again.events(timeout=1)] == ["result"]
    stats = queue.stats()
    assert stats["executed"] == 1 and stats["cache_hits"] == 1


def test_unknown_job_status_is_none(make_queue):
    queue = make_queue()
    assert queue.status("job-99") is None


# --------------------------------------------------------------------------- #
# Dedupe
# --------------------------------------------------------------------------- #
def test_duplicate_inflight_submissions_execute_once(make_queue):
    gate = Gate()
    queue = make_queue(gated_fn(gate), n_workers=1)
    first = queue.submit(spec(x=1), client="alice")
    gate.wait_started()
    second = queue.submit(spec(x=1), client="bob")
    assert second.deduped and second.id == first.id
    assert first.key == second.key
    gate.release.set()
    assert first.result(timeout=5) == second.result(timeout=5)
    stats = queue.stats()
    assert stats["executed"] == 1 and stats["deduped"] == 1


def test_deduped_attachment_replays_started_event(make_queue):
    gate = Gate()
    queue = make_queue(gated_fn(gate), n_workers=1)
    first = queue.submit(spec(x=1))
    gate.wait_started()
    second = queue.submit(spec(x=1))
    gate.release.set()
    kinds = [event["event"] for event in second.events(timeout=5)]
    assert kinds == ["started", "result"]
    first.result(timeout=5)


def test_dedupe_does_not_apply_across_completion(make_queue):
    # No cache: a key whose job already finished must execute again.
    queue = make_queue()
    queue.submit(spec(x=5)).result(timeout=5)
    again = queue.submit(spec(x=5))
    assert not again.deduped and not again.cached
    again.result(timeout=5)
    assert queue.stats()["executed"] == 2


# --------------------------------------------------------------------------- #
# Batching
# --------------------------------------------------------------------------- #
def test_batch_key_groups_by_task_and_characterisation_axes():
    a = JobSpec("dvs_run", {"benchmark": "crafty", "corner": "typical", "coupling_scale": 1.0})
    b = JobSpec("dvs_run", {"benchmark": "mgrid", "corner": "typical", "coupling_scale": 1.0})
    c = JobSpec("dvs_run", {"benchmark": "crafty", "corner": "worst", "coupling_scale": 1.0})
    assert default_batch_key(a) == default_batch_key(b)
    assert default_batch_key(a) != default_batch_key(c)
    assert default_batch_key(a) != default_batch_key(JobSpec("characterize", dict(a.params)))


def test_compatible_pending_jobs_run_as_one_batch(make_queue):
    gate = Gate()
    queue = make_queue(gated_fn(gate), n_workers=1, max_batch=8)
    blocker = queue.submit(spec(x=0, corner="typical"))
    gate.wait_started()
    pending = [queue.submit(spec(x=i, corner="typical")) for i in (1, 2, 3)]
    odd = queue.submit(spec(x=4, corner="worst"))
    gate.release.set()
    for handle in [blocker, *pending, odd]:
        handle.result(timeout=5)
    stats = queue.stats()
    # blocker alone, then the three compatible jobs as one batch, then the
    # incompatible corner on its own.
    assert stats["executed"] == 5
    assert stats["batches"] == 3


def test_max_batch_one_disables_grouping(make_queue):
    gate = Gate()
    queue = make_queue(gated_fn(gate), n_workers=1, max_batch=1)
    blocker = queue.submit(spec(x=0))
    gate.wait_started()
    pending = [queue.submit(spec(x=i)) for i in (1, 2)]
    gate.release.set()
    for handle in [blocker, *pending]:
        handle.result(timeout=5)
    assert queue.stats()["batches"] == 3


# --------------------------------------------------------------------------- #
# Quotas and backpressure
# --------------------------------------------------------------------------- #
def test_quota_rejects_after_active_limit(make_queue):
    gate = Gate()
    queue = make_queue(gated_fn(gate), n_workers=1, quota=1)
    held = queue.submit(spec(x=1), client="alice")
    gate.wait_started()
    with pytest.raises(QuotaExceededError):
        queue.submit(spec(x=2), client="alice")
    # A dedupe attachment consumes quota too.
    with pytest.raises(QuotaExceededError):
        queue.submit(spec(x=1), client="alice")
    # Other clients have their own bucket.
    other = queue.submit(spec(x=2), client="bob")
    gate.release.set()
    held.result(timeout=5)
    other.result(timeout=5)
    # Completion releases the quota.
    queue.submit(spec(x=3), client="alice").result(timeout=5)


def test_cache_hits_are_quota_free(make_queue, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    gate = Gate()
    queue = make_queue(gated_fn(gate), n_workers=1, quota=1, cache=cache)
    warm = queue.submit(spec(x=9), client="alice")
    gate.wait_started()
    gate.release.set()
    warm.result(timeout=5)
    gate.release.clear()
    held = queue.submit(spec(x=1), client="alice")
    gate.wait_started()
    # Quota is exhausted, but a cache hit never enters the queue.
    hit = queue.submit(spec(x=9), client="alice")
    assert hit.cached
    gate.release.set()
    held.result(timeout=5)


def test_backpressure_rejects_when_pending_full(make_queue):
    gate = Gate()
    queue = make_queue(gated_fn(gate), n_workers=1, max_pending=2)
    running = queue.submit(spec(x=0))
    gate.wait_started()
    pending = [queue.submit(spec(x=i)) for i in (1, 2)]
    with pytest.raises(QueueFullError):
        queue.submit(spec(x=3))
    # Dedupe of an already-pending job needs no new slot.
    duplicate = queue.submit(spec(x=1))
    assert duplicate.deduped
    gate.release.set()
    for handle in [running, *pending, duplicate]:
        handle.result(timeout=5)


# --------------------------------------------------------------------------- #
# Cancellation
# --------------------------------------------------------------------------- #
def test_cancel_queued_job(make_queue):
    gate = Gate()
    queue = make_queue(gated_fn(gate), n_workers=1)
    running = queue.submit(spec(x=0))
    gate.wait_started()
    queued = queue.submit(spec(x=1))
    assert queued.cancel()
    assert queued.state == "cancelled"
    with pytest.raises(JobCancelledError):
        queued.result(timeout=1)
    gate.release.set()
    running.result(timeout=5)
    stats = queue.stats()
    assert stats["cancelled"] == 1 and stats["executed"] == 1 and stats["depth"] == 0


def test_cancel_running_job_cooperatively(make_queue):
    gate = Gate()
    queue = make_queue(gated_fn(gate), n_workers=1)
    running = queue.submit(spec(x=0))
    gate.wait_started()
    assert running.cancel()
    with pytest.raises(JobCancelledError):
        running.result(timeout=5)
    # Detach raises immediately; the worker notices the abort asynchronously.
    assert queue.wait_idle(timeout=5)
    assert queue.status(running.id)["state"] == "cancelled"
    # The slot is reclaimed: new work still executes.
    gate.release.set()
    gate.started.clear()
    follow_up = queue.submit(spec(x=1))
    gate.wait_started()
    gate.release.set()
    follow_up.result(timeout=5)


def test_detaching_one_of_two_clients_keeps_the_job_alive(make_queue):
    gate = Gate()
    queue = make_queue(gated_fn(gate), n_workers=1)
    first = queue.submit(spec(x=1), client="alice")
    gate.wait_started()
    second = queue.submit(spec(x=1), client="bob")
    assert first.cancel()
    with pytest.raises(JobCancelledError):
        first.result(timeout=1)
    gate.release.set()
    assert second.result(timeout=5)["echo"] == {"x": 1}
    assert queue.stats()["cancelled"] == 0  # the job itself survived


def test_cancel_by_job_id(make_queue):
    gate = Gate()
    queue = make_queue(gated_fn(gate), n_workers=1)
    running = queue.submit(spec(x=0))
    gate.wait_started()
    queued = queue.submit(spec(x=1))
    assert queue.cancel(queued.id)
    assert queued.state == "cancelled"
    assert not queue.cancel("job-99")
    gate.release.set()
    running.result(timeout=5)


# --------------------------------------------------------------------------- #
# Fault injection
# --------------------------------------------------------------------------- #
def test_task_failure_reraises_original_exception(make_queue):
    def explode(task, params, ctx):
        raise ValueError(f"boom {params['x']}")

    queue = make_queue(explode)
    handle = queue.submit(spec(x=1))
    with pytest.raises(ValueError, match="boom 1"):
        handle.result(timeout=5)
    status = queue.status(handle.id)
    assert status["state"] == "failed"
    assert status["error"] == {"type": "ValueError", "message": "boom 1"}
    # The queue keeps serving after a failure.
    ok = queue.submit(spec(x=2))
    with pytest.raises(ValueError):
        ok.result(timeout=5)


def test_worker_death_is_structured_and_queue_survives(make_queue):
    calls = []

    def die_once(task, params, ctx):
        calls.append(params["x"])
        if params["x"] == 1:
            raise WorkerDiedError("worker process died (exit code 9) while running 'dvs_run'")
        return echo_job(task, params, ctx)

    queue = make_queue(die_once, n_workers=1)
    doomed = queue.submit(spec(x=1))
    with pytest.raises(WorkerDiedError):
        doomed.result(timeout=5)
    status = queue.status(doomed.id)
    assert status["state"] == "failed" and status["error"]["type"] == "WorkerDied"
    assert queue.stats()["worker_deaths"] == 1
    # The same slot keeps executing afterwards.
    assert queue.submit(spec(x=2)).result(timeout=5)["echo"] == {"x": 2}
    assert calls == [1, 2]


def test_worker_death_event_reaches_subscribers(make_queue):
    def die(task, params, ctx):
        raise WorkerDiedError("killed")

    queue = make_queue(die, n_workers=1)
    handle = queue.submit(spec(x=1))
    events = list(handle.events(timeout=5))
    assert events[-1]["event"] == "error"
    assert events[-1]["error"]["type"] == "WorkerDied"


# --------------------------------------------------------------------------- #
# Shutdown
# --------------------------------------------------------------------------- #
def test_close_drains_backlog(make_queue):
    queue = make_queue()
    handles = [queue.submit(spec(x=i)) for i in range(8)]
    queue.close(drain=True, timeout=10.0)
    assert all(handle.state == "done" for handle in handles)
    assert queue.stats()["executed"] == 8


def test_close_rejects_new_submissions(make_queue):
    queue = make_queue()
    queue.close(drain=True, timeout=5.0)
    with pytest.raises(QueueClosedError):
        queue.submit(spec(x=1))


def test_close_without_drain_cancels_pending(make_queue):
    gate = Gate()
    queue = make_queue(gated_fn(gate), n_workers=1)
    running = queue.submit(spec(x=0))
    gate.wait_started()
    queued = queue.submit(spec(x=1))
    gate.release.set()  # let the running job notice the abort or finish
    queue.close(drain=False, timeout=10.0)
    assert queued.state == "cancelled"
    assert running.state in ("done", "cancelled")


def test_context_manager_drains(make_queue):
    with make_queue() as queue:
        handle = queue.submit(spec(x=1))
    assert handle.state == "done"


# --------------------------------------------------------------------------- #
# Telemetry
# --------------------------------------------------------------------------- #
def test_queue_depth_gauge_and_dedupe_span(make_queue, clock):
    telemetry = Telemetry(label="queue-test")
    with use_telemetry(telemetry):
        gate = Gate()
        queue = make_queue(gated_fn(gate), n_workers=1)
        first = queue.submit(spec(x=1))
        gate.wait_started()
        queue.submit(spec(x=2))
        assert telemetry.metrics.gauges["server.queue_depth"] == 1
        duplicate = queue.submit(spec(x=1))
        assert duplicate.deduped
        gate.release.set()
        first.result(timeout=5)
        queue.wait_idle(timeout=5)
        assert telemetry.metrics.gauges["server.queue_depth"] == 0
        queue.close(drain=True, timeout=5.0)
    names = {event.name for event in telemetry.events}
    assert "server.dedupe" in names and "server.batch" in names
    assert telemetry.metrics.counters["workqueue.executed"] == 2
    assert telemetry.metrics.counters["workqueue.deduped"] == 1


# --------------------------------------------------------------------------- #
# Real process runners: kill-based cancellation and true worker death
# --------------------------------------------------------------------------- #
@pytest.fixture
def crash_task():
    """A registered task that kills its own process (fork children inherit it)."""
    name = "server_test_crash"

    def crash(mode: str = "exit", exit_code: int = 17):
        if mode == "exit":
            os._exit(exit_code)
        return {"survived": mode}

    task_registry._TASKS[name] = crash
    yield name
    task_registry._TASKS.pop(name, None)


@pytest.fixture
def slow_task():
    """A registered task that spins until killed (for kill-based cancel)."""
    import time as time_module

    name = "server_test_slow"

    def slow(seconds: float = 30.0):
        deadline = time_module.monotonic() + seconds
        while time_module.monotonic() < deadline:
            time_module.sleep(0.01)
        return {"slept": seconds}

    task_registry._TASKS[name] = slow
    yield name
    task_registry._TASKS.pop(name, None)


def _process_queue(**kwargs) -> WorkQueue:
    queue = WorkQueue(**kwargs)
    if not queue.workers_are_processes:  # pragma: no cover - sandboxed environments
        queue.close(drain=False)
        pytest.skip("fork unavailable; process-runner tests need real subprocesses")
    return queue


def test_process_worker_death_recovery(crash_task):
    queue = _process_queue(n_workers=1)
    try:
        doomed = queue.submit(JobSpec(crash_task, {"mode": "exit", "exit_code": 23}))
        with pytest.raises(WorkerDiedError, match="exit code 23"):
            doomed.result(timeout=15)
        assert queue.stats()["worker_deaths"] == 1
        # The slot respawned its worker: the next job runs to completion.
        revived = queue.submit(JobSpec(crash_task, {"mode": "noop"}))
        assert revived.result(timeout=15) == {"survived": "noop"}
    finally:
        queue.close(drain=False, timeout=10.0)


def test_process_cancel_kills_running_worker(slow_task):
    queue = _process_queue(n_workers=1)
    try:
        running = queue.submit(JobSpec(slow_task, {"seconds": 30.0}))
        for event in running.events(timeout=10):
            if event["event"] == "started":
                break
        assert running.cancel()
        with pytest.raises(JobCancelledError):
            running.result(timeout=15)
        # Slot reclaimed with a fresh worker.
        follow_up = queue.submit(JobSpec(slow_task, {"seconds": 0.0}))
        assert follow_up.result(timeout=15) == {"slept": 0.0}
    finally:
        queue.close(drain=False, timeout=10.0)


def test_process_runner_streams_chunk_progress(tmp_path):
    telemetry = Telemetry(label="progress-test")
    # Short chunks: many chunk-progress events, made in the forked worker.
    with use_telemetry(telemetry), forced_plan(chunk_cycles=2_000):
        queue = _process_queue(n_workers=1, cache=ResultCache(tmp_path / "cache"))
        try:
            handle = queue.submit(
                JobSpec(
                    "dvs_run",
                    {
                        "benchmark": "crafty",
                        "corner": "typical",
                        "n_cycles": 50_000,
                        "seed": 1,
                    },
                )
            )
            events = list(handle.events(timeout=60))
        finally:
            queue.close(drain=False, timeout=10.0)
    kinds = [event["event"] for event in events]
    assert kinds[0] == "started" and kinds[-1] == "result"
    progress = [event for event in events if event["event"] == "progress"]
    assert progress, "expected at least one relayed chunk-progress event"
    assert all(event["span"] in ("dvs.chunk", "parallel.chunk") for event in progress)
    # The worker's telemetry snapshot was merged onto the parent timeline.
    assert any(event.name == "job" for event in telemetry.events)
