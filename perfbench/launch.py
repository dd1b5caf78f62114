"""Run one ``repro`` command under the benchmark's layer tracer.

Usage::

    python perfbench/launch.py RECORDS.json ARG...

Behaves like ``python -m repro ARG...`` (same stdout, stderr and exit code)
and, when the command ends, writes this process's per-layer records to
RECORDS.json: the tracer's self times (the import of ``repro.cli`` counts as
the ``startup`` layer), the telemetry counters, and the ``server.request``
spans a ``serve`` process records.  The traced ``cli`` workload runs its
commands and its server through this launcher.
"""

from __future__ import annotations

import json
import runpy
import sys
import time
from pathlib import Path


def main() -> int:
    records = Path(sys.argv[1])
    sys.argv = [sys.argv[0], *sys.argv[2:]]
    started = time.perf_counter()
    import repro.cli  # noqa: F401  (timed: the start-up layer)

    imported = time.perf_counter()
    from layers import Tracer

    from repro.telemetry import Telemetry, use_telemetry

    tracer = Tracer()
    tracer.add("startup", imported - started)
    tracer.install()
    telemetry = Telemetry(label="perfbench-launch")
    code: object = 0
    try:
        with use_telemetry(telemetry):
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exit_:
        code = exit_.code
    finally:
        dump = {
            **tracer.as_dict(),
            "counters": dict(telemetry.metrics.counters),
            "requests": [
                [event.duration_s, event.args.get("op")]
                for event in telemetry.events
                if event.name == "server.request"
            ],
        }
        records.write_text(json.dumps(dump))
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


if __name__ == "__main__":
    sys.exit(main())
