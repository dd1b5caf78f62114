"""The span tracer: hierarchical timed spans plus the process-wide hook.

A :class:`Telemetry` instance collects two things while code runs under it:

* **span events** -- ``with telemetry.span("table1"): ...`` records one
  :class:`SpanEvent` with monotonic start/duration, the hierarchical path of
  enclosing spans (``"report/table1/chunk"``) and optional key-value args;
* **metrics** -- named counters/gauges/histograms on
  :attr:`Telemetry.metrics` (see :mod:`repro.telemetry.metrics`).

Instrumented library code never receives a telemetry object explicitly; it
calls :func:`get_telemetry` and talks to whatever is installed.  By default
that is :data:`NULL_TELEMETRY`, a no-op collector whose span context manager
and metric methods do nothing, so the hot path pays only a module-global read
and an empty method call per instrumentation point (measured <2 % on the
1 M-cycle streaming benchmark, enforced by the overhead-guard test).  The
CLI's ``--telemetry`` flag (and ``repro profile``) install a real collector
with :func:`use_telemetry` for the duration of the command.

Worker processes cannot share the parent's collector: the executor gives each
worker task a fresh ``Telemetry``, ships its :meth:`~Telemetry.snapshot` back
with the result, and the parent :meth:`~Telemetry.merge_snapshot`\\ s it.
Snapshots carry the child's monotonic epoch, and ``fork`` children share the
parent's monotonic clock, so merged spans land on the parent's timeline
exactly where they ran.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any
from collections.abc import Callable, Iterator

from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "NULL_TELEMETRY",
    "NullTelemetry",
    "SpanEvent",
    "Telemetry",
    "TELEMETRY_SCHEMA",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
]

#: Schema tag stamped into snapshots and exported logs.
TELEMETRY_SCHEMA = "repro-telemetry/1"


@dataclass(frozen=True)
class SpanEvent:
    """One completed span: what ran, where in the hierarchy, and for how long.

    ``start_s`` is relative to the owning tracer's epoch (so event times are
    stable under snapshot/merge), ``path`` is the ``/``-joined chain of
    enclosing span names including this span's own name.
    """

    name: str
    path: str
    start_s: float
    duration_s: float
    pid: int
    args: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "name": self.name,
            "path": self.path,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "pid": self.pid,
            "args": self.args,
        }


class _ActiveSpan:
    """Context manager for one open span; always records, even on exceptions."""

    __slots__ = ("_telemetry", "_name", "_args", "_start")

    def __init__(self, telemetry: Telemetry, name: str, args: dict[str, Any]) -> None:
        self._telemetry = telemetry
        self._name = name
        self._args = args

    def __enter__(self) -> "_ActiveSpan":
        self._telemetry._stack.append(self._name)
        self._start = self._telemetry._clock()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        telemetry = self._telemetry
        end = telemetry._clock()
        path = "/".join(telemetry._stack)
        telemetry._stack.pop()
        args = self._args
        if exc_type is not None:
            # Exception safety: the span is recorded (annotated) and the
            # stack is restored, then the exception keeps propagating.
            args = dict(args)
            args["error"] = exc_type.__name__
        telemetry.events.append(
            SpanEvent(
                name=self._name,
                path=path,
                start_s=self._start - telemetry.epoch,
                duration_s=end - self._start,
                pid=telemetry.pid,
                args=args,
            )
        )
        return False


class _NullSpan:
    """The shared no-op span of :class:`NullTelemetry`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


_SHARED_NULL_SPAN = _NullSpan()

#: What ``Telemetry.span`` hands out: a recording span from a live collector,
#: the shared no-op span from :class:`NullTelemetry`.  Call sites only ever
#: use it as a context manager, so the union is the honest interface type.
TelemetrySpan = _ActiveSpan | _NullSpan


class Telemetry:
    """A live telemetry collector: spans, counters, snapshots.

    Parameters
    ----------
    label:
        Free-form name of what is being traced (the CLI uses the command
        name); carried into exported logs.
    clock:
        Monotonic time source, seconds.  Tests inject a fake clock to make
        exported traces deterministic; production code always uses
        ``time.perf_counter``.
    pid:
        Process id stamped on events; defaults to ``os.getpid()`` and exists
        as a parameter only so golden-file tests are machine-independent.
    """

    enabled: bool = True

    def __init__(
        self,
        label: str = "telemetry",
        clock: Callable[[], float] = time.perf_counter,
        pid: int | None = None,
    ) -> None:
        self.label = label
        self._clock = clock
        self.pid = os.getpid() if pid is None else pid
        self.epoch = clock()
        self.events: list[SpanEvent] = []
        self.metrics = MetricsRegistry()
        self._stack: list[str] = []

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def span(self, name: str, /, **args: Any) -> TelemetrySpan:
        """A context manager timing one named span, nested under open spans.

        The span name is positional-only so ``name=...`` stays usable as a
        span annotation (``telemetry.span("job", name="fig5")``).
        """
        return _ActiveSpan(self, name, args)

    def now(self) -> float:
        """The tracer's clock (monotonic seconds), for manual span timing."""
        return self._clock()

    def record_span(self, name: str, start: float, end: float, /, **args: Any) -> None:
        """Record an externally timed span (``start``/``end`` from :meth:`now`).

        For reporters that bracket an interval without holding a ``with``
        block open (e.g. the chunk-progress reporter timing a whole stream):
        the event nests under whatever spans are open *now*.
        """
        prefix = "/".join(self._stack)
        self.events.append(
            SpanEvent(
                name=name,
                path=f"{prefix}/{name}" if prefix else name,
                start_s=start - self.epoch,
                duration_s=end - start,
                pid=self.pid,
                args=args,
            )
        )

    # ------------------------------------------------------------------ #
    # Metrics (delegates, so call sites never touch .metrics on the hot path)
    # ------------------------------------------------------------------ #
    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to a named counter."""
        self.metrics.count(name, value)

    def gauge(self, name: str, value: float) -> None:
        """Set a named gauge."""
        self.metrics.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into a named histogram."""
        self.metrics.observe(name, value)

    # ------------------------------------------------------------------ #
    # Snapshots (cross-process merge)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict[str, Any]:
        """Everything collected so far, as a picklable dict."""
        return {
            "schema": TELEMETRY_SCHEMA,
            "label": self.label,
            "pid": self.pid,
            "epoch": self.epoch,
            "events": [event.as_dict() for event in self.events],
            "metrics": self.metrics.snapshot(),
        }

    def merge_snapshot(self, snapshot: dict[str, Any]) -> None:
        """Fold a worker's :meth:`snapshot` into this collector.

        Event times are re-based from the child's epoch onto this tracer's:
        ``fork`` children share the parent's monotonic clock, so the merged
        spans sit on the parent timeline at their true wall positions.
        """
        shift = float(snapshot.get("epoch", self.epoch)) - self.epoch
        for data in snapshot.get("events", ()):
            self.events.append(
                SpanEvent(
                    name=str(data["name"]),
                    path=str(data["path"]),
                    start_s=float(data["start_s"]) + shift,
                    duration_s=float(data["duration_s"]),
                    pid=int(data["pid"]),
                    args=dict(data.get("args", {})),
                )
            )
        self.metrics.merge_snapshot(snapshot.get("metrics", {}))


class NullTelemetry(Telemetry):
    """The disabled collector: every operation is a no-op.

    Installed by default so instrumentation costs one global read plus an
    empty call when telemetry is off.  It still satisfies the full
    :class:`Telemetry` interface (snapshots are empty), so call sites never
    branch on the type.
    """

    enabled = False

    def span(self, name: str, /, **args: Any) -> TelemetrySpan:
        return _SHARED_NULL_SPAN

    def record_span(self, name: str, start: float, end: float, /, **args: Any) -> None:
        pass

    def count(self, name: str, value: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def merge_snapshot(self, snapshot: dict[str, Any]) -> None:
        pass


#: The process-wide default collector (shared, stateless no-op).
NULL_TELEMETRY = NullTelemetry(label="null")

_ACTIVE: Telemetry = NULL_TELEMETRY


def get_telemetry() -> Telemetry:
    """The currently installed collector (:data:`NULL_TELEMETRY` by default)."""
    return _ACTIVE


def set_telemetry(telemetry: Telemetry | None) -> Telemetry:
    """Install a collector process-wide; ``None`` restores the null collector.

    Returns the previously installed collector so callers can restore it;
    prefer :func:`use_telemetry` unless the scope genuinely cannot be a
    ``with`` block.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = telemetry if telemetry is not None else NULL_TELEMETRY
    return previous


@contextmanager
def use_telemetry(telemetry: Telemetry | None) -> Iterator[Telemetry]:
    """Install a collector for the duration of a ``with`` block.

    >>> from repro.telemetry import Telemetry, get_telemetry, use_telemetry
    >>> with use_telemetry(Telemetry()) as telemetry:
    ...     with telemetry.span("outer"):
    ...         with get_telemetry().span("inner"):
    ...             pass
    >>> [event.path for event in telemetry.events]
    ['outer/inner', 'outer']
    >>> get_telemetry().enabled
    False
    """
    previous = set_telemetry(telemetry)
    try:
        yield _ACTIVE
    finally:
        set_telemetry(previous)
