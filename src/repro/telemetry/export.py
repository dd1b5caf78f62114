"""Telemetry exporters: JSONL event log, Chrome trace, human summary.

Three views of one :class:`~repro.telemetry.core.Telemetry` collector:

* :func:`write_jsonl` -- an append-friendly machine-readable log: one meta
  line, one line per span event, one line per final metric value.  This is
  what ``repro cache stats`` reads back (:func:`read_jsonl_metrics`).
* :func:`write_chrome_trace` -- the Chrome trace-event JSON format, loadable
  in ``chrome://tracing`` or https://ui.perfetto.dev (open the file; each
  process is one track, nested spans stack).
* :func:`format_summary` -- the end-of-run text table the CLI prints: the
  top-N span paths by total time, then every counter/gauge/histogram.

File layout convention (:func:`telemetry_paths`): one ``--telemetry[=BASE]``
argument fans out to ``BASE.jsonl`` and ``BASE.trace.json``, and either
concrete filename is accepted as the base.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any
from collections.abc import Sequence

from repro.telemetry.core import TELEMETRY_SCHEMA, Telemetry
from repro.telemetry.metrics import format_quantity

__all__ = [
    "SpanAggregate",
    "TelemetryPaths",
    "aggregate_spans",
    "format_parallel_summary",
    "format_summary",
    "read_jsonl_metrics",
    "telemetry_paths",
    "write_chrome_trace",
    "write_jsonl",
]

#: Default ``--telemetry`` output base when no path is given.
DEFAULT_TELEMETRY_BASE = "telemetry"


@dataclass(frozen=True)
class TelemetryPaths:
    """Where one telemetry run's exports live."""

    jsonl: Path
    chrome_trace: Path


def telemetry_paths(base: str | Path) -> TelemetryPaths:
    """Resolve a ``--telemetry`` argument into the two export paths.

    ``BASE`` may be a bare stem or either concrete filename:

    >>> telemetry_paths("out/t")
    TelemetryPaths(jsonl=PosixPath('out/t.jsonl'), chrome_trace=PosixPath('out/t.trace.json'))
    >>> telemetry_paths("out/t.jsonl").chrome_trace.name
    't.trace.json'
    >>> telemetry_paths("out/t.trace.json").jsonl.name
    't.jsonl'
    """
    text = str(base)
    if text.endswith(".trace.json"):
        stem = text[: -len(".trace.json")]
    elif text.endswith(".jsonl"):
        stem = text[: -len(".jsonl")]
    elif text.endswith(".json"):
        stem = text[: -len(".json")]
    else:
        stem = text
    return TelemetryPaths(jsonl=Path(stem + ".jsonl"), chrome_trace=Path(stem + ".trace.json"))


# --------------------------------------------------------------------------- #
# JSONL event log
# --------------------------------------------------------------------------- #
def write_jsonl(telemetry: Telemetry, path: str | Path) -> Path:
    """Write the collector's events and final metric values as JSON lines."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines: list[str] = [
        json.dumps(
            {
                "type": "meta",
                "schema": TELEMETRY_SCHEMA,
                "label": telemetry.label,
                "pid": telemetry.pid,
                "n_events": len(telemetry.events),
            }
        )
    ]
    for event in telemetry.events:
        lines.append(json.dumps({"type": "span", **event.as_dict()}))
    metrics = telemetry.metrics
    for name in sorted(metrics.counters):
        lines.append(
            json.dumps({"type": "counter", "name": name, "value": metrics.counters[name]})
        )
    for name in sorted(metrics.gauges):
        lines.append(json.dumps({"type": "gauge", "name": name, "value": metrics.gauges[name]}))
    for name in sorted(metrics.histograms):
        lines.append(
            json.dumps(
                {"type": "histogram", "name": name, **metrics.histograms[name].as_dict()}
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_jsonl_metrics(path: str | Path) -> dict[str, dict[str, Any]] | None:
    """Load the final metric values from a :func:`write_jsonl` log.

    Returns ``{"counters": {...}, "gauges": {...}, "histograms": {...}}``,
    or ``None`` when the file is missing or not a telemetry log.  Corrupt
    lines are skipped -- the log is an observability artifact, never a
    source of truth.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return None
    metrics: dict[str, dict[str, Any]] = {"counters": {}, "gauges": {}, "histograms": {}}
    saw_meta = False
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if not isinstance(record, dict):
            continue
        kind = record.get("type")
        if kind == "meta" and record.get("schema") == TELEMETRY_SCHEMA:
            saw_meta = True
        elif kind == "counter":
            metrics["counters"][str(record.get("name"))] = record.get("value", 0)
        elif kind == "gauge":
            metrics["gauges"][str(record.get("name"))] = record.get("value", 0)
        elif kind == "histogram":
            name = str(record.pop("name", "?"))
            record.pop("type", None)
            metrics["histograms"][name] = record
    return metrics if saw_meta else None


# --------------------------------------------------------------------------- #
# Chrome trace-event file
# --------------------------------------------------------------------------- #
def write_chrome_trace(telemetry: Telemetry, path: str | Path) -> Path:
    """Write the span events in the Chrome trace-event JSON format.

    Each span becomes one complete (``"ph": "X"``) event with microsecond
    ``ts``/``dur``; events from merged worker snapshots keep their own
    ``pid`` so every worker renders as its own track in Perfetto.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    trace_events: list[dict[str, Any]] = []
    for pid in sorted({event.pid for event in telemetry.events} | {telemetry.pid}):
        role = "main" if pid == telemetry.pid else "worker"
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro {role} ({telemetry.label})"},
            }
        )
    for event in telemetry.events:
        trace_events.append(
            {
                "name": event.name,
                "cat": "repro",
                "ph": "X",
                "ts": round(event.start_s * 1e6, 3),
                "dur": round(event.duration_s * 1e6, 3),
                "pid": event.pid,
                "tid": 0,
                "args": {"path": event.path, **event.args},
            }
        )
    document = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": TELEMETRY_SCHEMA, "label": telemetry.label},
    }
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


# --------------------------------------------------------------------------- #
# Human-readable summary
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SpanAggregate:
    """All occurrences of one span path, reduced."""

    path: str
    count: int
    total_s: float
    max_s: float

    @property
    def mean_s(self) -> float:
        """Average duration of one occurrence."""
        return self.total_s / self.count if self.count else 0.0


def aggregate_spans(telemetry: Telemetry) -> list[SpanAggregate]:
    """Reduce span events by path, sorted by total time (descending)."""
    totals: dict[str, list[float]] = {}
    for event in telemetry.events:
        entry = totals.setdefault(event.path, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += event.duration_s
        if event.duration_s > entry[2]:
            entry[2] = event.duration_s
    aggregates = [
        SpanAggregate(path=path, count=int(entry[0]), total_s=entry[1], max_s=entry[2])
        for path, entry in totals.items()
    ]
    aggregates.sort(key=lambda aggregate: (-aggregate.total_s, aggregate.path))
    return aggregates


def _table(headers: Sequence[str], rows: Sequence[tuple[str, ...]]) -> list[str]:
    """Fixed-width text table (first column left-aligned, rest right-aligned)."""
    widths = [len(header) for header in headers]
    for row in rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines = []
    for row in [tuple(headers)] + list(rows):
        cells = [row[0].ljust(widths[0])] + [
            cell.rjust(widths[column + 1]) for column, cell in enumerate(row[1:])
        ]
        lines.append("  " + "  ".join(cells).rstrip())
    return lines


def format_parallel_summary(telemetry: Telemetry) -> str | None:
    """Scaling report for a run whose statistics pass used worker processes.

    Returns ``None`` when the collector recorded no ``parallel.pass1`` span
    or the pass ran inline (one worker: nothing to scale).  *Wall* time is
    the sum of the ``parallel.pass1`` spans, one per run, each the master
    waiting for and folding that run's parts (the caller's replay between
    two runs is outside them, while the workers go on).  *Busy* time is
    the sum of the ``parallel.part`` spans, each a worker generating and
    analysing one part of the workload -- merged worker snapshots land in
    the same collector -- so ``busy / wall`` is the achieved speedup of the
    statistics pass and dividing by the worker count gives the scaling
    efficiency (1.0 = every worker was busy for the whole pass).
    """
    pass1_wall = sum(
        event.duration_s for event in telemetry.events if event.name == "parallel.pass1"
    )
    workers = max(1, int(telemetry.metrics.gauges.get("parallel.workers", 1)))
    if pass1_wall <= 0.0 or workers == 1:
        return None
    busy = sum(event.duration_s for event in telemetry.events if event.name == "parallel.part")
    merge = sum(event.duration_s for event in telemetry.events if event.name == "parallel.merge")
    replay = sum(event.duration_s for event in telemetry.events if event.name == "dvs.replay")
    chunks = int(telemetry.metrics.counters.get("parallel.chunks", 0))
    speedup = busy / pass1_wall
    lines = [
        "statistics pass scaling:",
        f"  workers             : {workers}",
        f"  chunks analyzed     : {chunks}",
        f"  pass-1 wall time    : {pass1_wall * 1000:.1f} ms",
        f"  worker busy (sum)   : {busy * 1000:.1f} ms",
        f"  merge + replay      : {merge * 1000:.1f} ms + {replay * 1000:.1f} ms",
        f"  scaling efficiency  : {100.0 * speedup / workers:.0f}% "
        f"({speedup:.2f}x busy/wall over {workers} worker(s))",
    ]
    return "\n".join(lines)


def format_summary(
    telemetry: Telemetry,
    top_n: int = 15,
    counter_deltas: dict[str, float] | None = None,
) -> str:
    """The end-of-run summary: top span paths, then every metric.

    ``counter_deltas`` (from
    :meth:`~repro.telemetry.metrics.MetricsRegistry.delta_since`) replaces
    the absolute counter section when given -- ``repro profile`` reports what
    the profiled workload itself added.
    """
    lines: list[str] = []
    aggregates = aggregate_spans(telemetry)
    wall = max((event.start_s + event.duration_s for event in telemetry.events), default=0.0)
    lines.append(
        f"telemetry summary ({telemetry.label}): "
        f"{len(telemetry.events)} span(s), {wall:.3f} s traced"
    )
    if aggregates:
        lines.append("")
        lines.append(f"top {min(top_n, len(aggregates))} span paths by total time:")
        rows = [
            (
                aggregate.path,
                str(aggregate.count),
                f"{aggregate.total_s * 1000:.1f}",
                f"{aggregate.mean_s * 1000:.2f}",
                f"{aggregate.max_s * 1000:.2f}",
            )
            for aggregate in aggregates[:top_n]
        ]
        lines.extend(_table(("span path", "count", "total ms", "mean ms", "max ms"), rows))
    if counter_deltas is not None:
        if counter_deltas:
            lines.append("")
            lines.append("counter deltas for the profiled run:")
            rows = [
                (name, format_quantity(counter_deltas[name]))
                for name in sorted(counter_deltas)
            ]
            lines.extend(_table(("counter", "delta"), rows))
    else:
        rows = telemetry.metrics.rows()
        if rows:
            lines.append("")
            lines.append("metrics:")
            lines.extend(_table(("metric", "value"), rows))
    return "\n".join(lines)
