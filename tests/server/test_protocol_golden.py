"""Protocol golden tests: byte-exact JSONL transcripts of client/server traffic.

Each transcript line is the canonical encoding of ``{"c2s": request}`` or
``{"s2c": response}`` -- the ``s2c`` payloads are *exactly* the bytes a socket
client would receive (modulo the direction wrapper), produced by the same
:class:`ServerSession` generator the TCP handler drives.  Determinism comes
from a patched ``repro.__version__`` (cache keys), an injected step clock
(durations), a single inline worker and scripted gate/poll synchronisation.

Regenerate after an intentional protocol change with::

    PYTHONPATH=src python -c \
        "from tests.server.test_protocol_golden import regenerate_golden; regenerate_golden()"
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

import repro
from repro.runtime.cache import ResultCache
from repro.runtime.workqueue import InlineRunner, WorkQueue
from repro.server.protocol import encode_message
from repro.server.service import ServerSession

from tests.server.conftest import FakeClock, Gate, gated_fn

GOLDEN_BASIC = Path(__file__).parent / "golden_transcript_basic.jsonl"
GOLDEN_ADMISSION = Path(__file__).parent / "golden_transcript_admission.jsonl"


class _Recorder:
    """Drives a session while recording both directions canonically."""

    def __init__(self, session: ServerSession) -> None:
        self.session = session
        self.lines: List[bytes] = []

    def exchange(self, request: Dict[str, Any]) -> None:
        self.raw(encode_message(request))

    def raw(self, line: bytes) -> None:
        import json

        self.lines.append(encode_message({"c2s": json.loads(line.decode("utf-8"))}))
        for response in self.session.handle_line(line):
            if response is not None:  # idle heartbeats never reach the wire
                self.lines.append(encode_message({"s2c": response}))

    def bad(self, line: bytes) -> None:
        """A deliberately malformed request, recorded as opaque text."""
        self.lines.append(encode_message({"c2s_raw": line.decode("utf-8")}))
        for response in self.session.handle_line(line):
            if response is not None:
                self.lines.append(encode_message({"s2c": response}))

    def transcript(self) -> bytes:
        return b"".join(self.lines)


def _wait_until(predicate: Callable[[], bool], timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError("transcript synchronisation point never reached")
        time.sleep(0.005)


def _golden_fn(task: str, params: Dict[str, Any], ctx: Any) -> Dict[str, Any]:
    ctx.emit({"span": "dvs.chunk", "chunk": 0, "progress": 0.5})
    return {"task": task, "echo": dict(params)}


def basic_transcript() -> bytes:
    """Submit/stream/status/cache-hit/errors/cancel/jobs/stats/shutdown."""
    original = repro.__version__
    repro.__version__ = "golden"  # JobSpec.key reads it at call time
    try:
        with tempfile.TemporaryDirectory() as tmp:
            queue = WorkQueue(
                n_workers=1,
                cache=ResultCache(Path(tmp) / "cache"),
                runner_factory=lambda: InlineRunner(_golden_fn),
                clock=FakeClock(),
            )
            try:
                recorder = _Recorder(ServerSession(queue, client_id="golden-client"))
                submit = {
                    "op": "submit",
                    "task": "dvs_run",
                    "params": {"benchmark": "crafty", "n_cycles": 1000},
                }
                recorder.exchange({"op": "ping"})
                recorder.exchange(submit)  # full stream: accepted/started/progress/result
                # Settle the queue before recording counters.
                assert queue.wait_idle(timeout=5.0)
                recorder.exchange({"op": "status", "job": "job-1"})
                recorder.exchange(submit)  # identical submission: cache hit
                recorder.exchange({"op": "submit", "task": "no_such_task", "params": {}})
                recorder.exchange({"op": "status", "job": "job-404"})
                recorder.exchange({"op": "cancel", "job": "job-1"})  # finished: no-op
                recorder.exchange({"op": "jobs"})
                recorder.exchange({"op": "stats"})
                recorder.bad(b"[1, 2]\n")
                recorder.exchange({"op": "shutdown", "drain": False})
                return recorder.transcript()
            finally:
                queue.close(drain=False, timeout=5.0)
    finally:
        repro.__version__ = original


def admission_transcript() -> bytes:
    """Dedupe attach, quota/backpressure rejections, partial cancel, drain."""
    original = repro.__version__
    repro.__version__ = "golden"
    try:
        gate = Gate()
        queue = WorkQueue(
            n_workers=1,
            runner_factory=lambda: InlineRunner(gated_fn(gate)),
            clock=FakeClock(),
            quota=2,
            max_pending=2,
        )
        try:
            recorder = _Recorder(ServerSession(queue, client_id="golden-client"))

            def submit(x: int, client: str, **extra: Any) -> Dict[str, Any]:
                return {
                    "op": "submit",
                    "task": "dvs_run",
                    "params": {"x": x},
                    "client": client,
                    "stream": False,
                    **extra,
                }

            recorder.exchange(submit(1, "alice"))  # job-1 -> running
            gate.wait_started()
            recorder.exchange(submit(2, "alice"))  # job-2 -> pending
            recorder.exchange(submit(3, "alice"))  # quota_exceeded (quota=2)
            recorder.exchange(submit(2, "bob"))  # dedupe attach to job-2
            recorder.exchange(submit(4, "carol"))  # job-3 -> pending (queue full now)
            recorder.exchange(submit(5, "dave"))  # queue_full (max_pending=2)
            recorder.exchange({"op": "status", "job": "job-1"})  # running, 1 client
            recorder.exchange({"op": "status", "job": "job-2"})  # queued, 2 clients
            recorder.exchange({"op": "cancel", "job": "job-2"})  # detaches alice only
            recorder.exchange({"op": "status", "job": "job-2"})  # bob keeps it alive
            gate.release.set()
            _wait_until(lambda: queue.stats()["executed"] == 3)
            recorder.exchange({"op": "status", "job": "job-2"})  # done
            recorder.exchange({"op": "stats"})
            recorder.exchange({"op": "shutdown", "drain": True})
            return recorder.transcript()
        finally:
            queue.close(drain=False, timeout=5.0)
    finally:
        repro.__version__ = original


def regenerate_golden() -> None:  # pragma: no cover - maintenance helper
    GOLDEN_BASIC.write_bytes(basic_transcript())
    GOLDEN_ADMISSION.write_bytes(admission_transcript())


def test_basic_transcript_matches_golden():
    assert basic_transcript() == GOLDEN_BASIC.read_bytes()


def test_admission_transcript_matches_golden():
    assert admission_transcript() == GOLDEN_ADMISSION.read_bytes()


def test_transcripts_are_stable_across_runs():
    assert basic_transcript() == basic_transcript()
    assert admission_transcript() == admission_transcript()
