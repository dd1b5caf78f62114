"""repro.telemetry: spans, counters and profiling hooks for the whole stack.

The observability layer the runtime, trace, bus and report layers emit into:

* **Tracer** (:mod:`~repro.telemetry.core`) -- hierarchical
  ``span("table1")/span("chunk")`` context managers with monotonic timing,
  a process-wide :func:`get_telemetry` hook, and picklable snapshots the
  executor merges back from worker processes.
* **Metrics** (:mod:`~repro.telemetry.metrics`) -- named counters, gauges
  and histograms (cache hits/misses, cycles simulated, chunks streamed,
  kernel invocations, voltage transitions, worker task latencies) with
  associative cross-process merge.
* **Exporters** (:mod:`~repro.telemetry.export`) -- a JSONL event log, a
  Chrome trace-event file (``chrome://tracing`` / Perfetto), and the
  end-of-run summary table.

Telemetry is **off by default**: the installed collector is
:data:`NULL_TELEMETRY`, whose every operation is a no-op (the overhead-guard
test holds disabled-telemetry throughput to the committed streaming
baseline).  Enable it for a block of code with :func:`use_telemetry`, or for
a whole CLI invocation with the global ``--telemetry[=PATH]`` flag /
``repro profile <experiment>``.

Quickstart
----------
>>> from repro.telemetry import Telemetry, use_telemetry, format_summary
>>> with use_telemetry(Telemetry(label="demo")) as telemetry:
...     with telemetry.span("outer"):
...         telemetry.count("cycles", 1000)
>>> telemetry.metrics.counters["cycles"]
1000
>>> [event.path for event in telemetry.events]
['outer']

The names below load on first use (:mod:`repro.utils.lazy`), so reading
the collector (:func:`get_telemetry`) does not load the exporters.
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.telemetry.core import (
        NULL_TELEMETRY,
        TELEMETRY_SCHEMA,
        NullTelemetry,
        SpanEvent,
        Telemetry,
        get_telemetry,
        set_telemetry,
        use_telemetry,
    )
    from repro.telemetry.export import (
        DEFAULT_TELEMETRY_BASE,
        SpanAggregate,
        TelemetryPaths,
        aggregate_spans,
        format_parallel_summary,
        format_summary,
        read_jsonl_metrics,
        telemetry_paths,
        write_chrome_trace,
        write_jsonl,
    )
    from repro.telemetry.metrics import HistogramSummary, MetricsRegistry

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.telemetry.core": (
            "NULL_TELEMETRY",
            "TELEMETRY_SCHEMA",
            "NullTelemetry",
            "SpanEvent",
            "Telemetry",
            "get_telemetry",
            "set_telemetry",
            "use_telemetry",
        ),
        "repro.telemetry.export": (
            "DEFAULT_TELEMETRY_BASE",
            "SpanAggregate",
            "TelemetryPaths",
            "aggregate_spans",
            "format_parallel_summary",
            "format_summary",
            "read_jsonl_metrics",
            "telemetry_paths",
            "write_chrome_trace",
            "write_jsonl",
        ),
        "repro.telemetry.metrics": ("HistogramSummary", "MetricsRegistry"),
    },
)
