#!/usr/bin/env python3
"""One benchmark for the DVS-bus reproduction.

Usage::

    python3 perfbench/run.py --workload {table1,fig8-par,pvt-sweep,cli,all} \\
        [--seed 2005] [--seconds 15] [--trace 0|1]

Runs one workload (see ``workloads.py``; ``all`` runs each in turn) for about
``--seconds`` seconds, checks every output, and prints human-readable
detail lines followed, as the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with no tracing
installed.  ``--trace 1`` is the separate traced run: it first times a few
untraced iterations, then installs the layer wrappers of ``layers.py`` and a
telemetry collector, repeats the same iterations and reports the per-layer
metrics (per traced iteration), the unattributed share of the wall clock and
the tracing overhead.  Any output mismatch counts as a failed operation and
makes the command exit with status 1 after printing its result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("table1", "fig8-par", "pvt-sweep", "cli")

#: Cold set-ups timed per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Share of a traced run's time spent on its untraced comparison iterations.
UNTRACED_SHARE = 0.4

#: name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "work_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better); every value is per traced iteration.
PER_LAYER = {
    "trace.generate_s": ("s", "lower"),
    "trace.cycles": ("count", "lower"),
    "trace.passes": ("count", "lower"),
    "interconnect.kernel_s": ("s", "lower"),
    "interconnect.kernel_cycles": ("count", "lower"),
    "bus.reduce_s": ("s", "lower"),
    "bus.reduce_calls": ("count", "lower"),
    "core.replay_s": ("s", "lower"),
    "core.replay_cycles": ("count", "lower"),
    "energy.eval_s": ("s", "lower"),
    "energy.calls": ("count", "lower"),
    "bus.characterize_s": ("s", "lower"),
    "chardb.load_s": ("s", "lower"),
    "chardb.hits": ("count", "higher"),
    "chardb.misses": ("count", "lower"),
    "parallel.pass1_s": ("s", "lower"),
    "parallel.master_generate_s": ("s", "lower"),
    "parallel.worker_s": ("s", "lower"),
    "parallel.worker_busy_frac": ("fraction", "higher"),
    "parallel.chunks": ("count", "lower"),
    "executor.job_p50_s": ("s", "lower"),
    "executor.job_p95_s": ("s", "lower"),
    "executor.jobs": ("count", "lower"),
    "cache.get_s": ("s", "lower"),
    "cache.put_s": ("s", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.bytes_written": ("bytes", "lower"),
    "startup.import_s": ("s", "lower"),
    "startup.scipy_import_s": ("s", "lower"),
    "server.request_s": ("s", "lower"),
    "server.requests": ("count", "lower"),
    "wait_s": ("s", "lower"),
    "traced.wall_s": ("s", "lower"),
    "untraced.wall_s": ("s", "lower"),
    "traced.iterations": ("count", "higher"),
    "unattributed_frac": ("fraction", "lower"),
    "trace_overhead_frac": ("fraction", "lower"),
}


# --------------------------------------------------------------------------- #
# Host and input fingerprint
# --------------------------------------------------------------------------- #
def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly (None if not a repo)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over every ``src/**/*.py`` path and content (works without git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(args: argparse.Namespace) -> dict[str, Any]:
    """Host and input identity, so only comparable records are paired."""
    from importlib.metadata import PackageNotFoundError, version

    import numpy

    from repro import __version__
    from repro.chardb import chardb_fingerprint

    try:
        scipy_version: str | None = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "repro": __version__,
        "chardb": chardb_fingerprint(ROOT / "chardb" / "paper.chardb"),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# --------------------------------------------------------------------------- #
# Measuring
# --------------------------------------------------------------------------- #
class Checker:
    """Counts checked outputs and the ones that failed or mismatched.

    An output must equal the set-up reference for its key when there is
    one, else the first value seen for that key (the warm-up iteration's).
    """

    def __init__(self, reference: dict[str, str | None]) -> None:
        self.expected: dict[str, str | None] = dict(reference)
        self.attempted = 0
        self.failed = 0

    def check(self, outputs: dict[str, str | None]) -> None:
        for key, value in outputs.items():
            self.attempted += 1
            want = self.expected.setdefault(key, value)
            if value is None or value != want:
                self.failed += 1
                print(f"[perfbench] output {key}: got {value}, expected {want}", file=sys.stderr)

    def fail(self, n: int) -> None:
        self.attempted += n
        self.failed += n


def run_iterations(
    workload: Any, seconds: float, checker: Checker
) -> tuple[list[float], list[dict[str, float]]]:
    """Closed loop: iterate until ``seconds`` have passed (at least once).

    Returns each iteration's wall time and its per-part times.
    """
    walls: list[float] = []
    parts: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()  # no iteration pays for the previous one's garbage
        started = time.perf_counter()
        try:
            iteration = workload.iteration()
        except Exception:  # any failure is a failed operation, counted below
            traceback.print_exc()
            iteration = None
        walls.append(time.perf_counter() - started)
        workload.after_iteration()
        if iteration is None:
            checker.fail(workload.ops_per_iteration)
        else:
            checker.check(iteration.outputs)
            parts.append(iteration.parts_s)
        if time.perf_counter() >= deadline:
            return walls, parts


class PeakRss:
    """Peak resident memory of the workload's largest process while measured.

    On start, resets this process's high-water mark (``/proc/self/clear_refs``)
    so set-up and the reference run do not count; a thread then reads the
    high-water mark (``VmHWM``) of every descendant process every
    ``interval_s`` until :meth:`stop`, which returns the largest, this process
    included, in MB.  Processes are never summed: forked workers share pages
    with their parent.
    """

    def __init__(self, interval_s: float = 0.05) -> None:
        self._interval_s = interval_s
        self._stopped = threading.Event()
        self._peak_kb = 0
        self._thread = threading.Thread(target=self._sample_loop, daemon=True)

    def start(self) -> None:
        with open("/proc/self/clear_refs", "w") as clear_refs:
            clear_refs.write("5")
        self._thread.start()

    def stop(self) -> float:
        self._stopped.set()
        self._thread.join()
        self._sample()
        return max(self._peak_kb, _high_water_kb(os.getpid())) / 1024.0

    def _sample_loop(self) -> None:
        while not self._stopped.wait(self._interval_s):
            self._sample()

    def _sample(self) -> None:
        for pid in _descendants(os.getpid()):
            self._peak_kb = max(self._peak_kb, _high_water_kb(pid))


def _descendants(pid: int) -> list[int]:
    found = []
    try:
        threads = os.listdir(f"/proc/{pid}/task")
    except OSError:  # the process has just exited
        return found
    for thread in threads:
        try:
            children = Path(f"/proc/{pid}/task/{thread}/children").read_text().split()
        except OSError:
            continue
        for child in map(int, children):
            found += [child, *_descendants(child)]
    return found


def _high_water_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def import_profile() -> tuple[float, float]:
    """(import time of ``repro.cli``, the part importing scipy) in a new process.

    Uses ``python -X importtime``: scipy's part is the cumulative time of
    every scipy module whose importer is not itself a scipy module.
    """
    from workloads import child_env

    code = (
        "import time; started = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - started)"
    )
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True, timeout=60,
    )
    entries = []
    for line in completed.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line.split("|", 2)
        if cumulative.strip().isdigit():
            name = name.rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))

    def is_scipy(module: str) -> bool:
        return module == "scipy" or module.startswith("scipy.")

    scipy_us = 0
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):  # importers before imports
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if is_scipy(name) and not (stack and is_scipy(stack[-1][1])):
            scipy_us += cumulative
        stack.append((depth, name))
    return float(completed.stdout.split()[-1]), scipy_us / 1e6


def layer_metrics(
    tracer: Any,
    telemetry: Any,
    dumps: list[tuple[dict[str, Any], bool]],
    traced: list[float],
    untraced: list[float],
    imports: tuple[float, float],
) -> dict[str, float]:
    """Per-layer metrics, each per traced iteration, from every record source."""
    counters = dict(telemetry.metrics.counters)
    requests: list[float] = []
    for dump, main_thread in dumps:
        tracer.merge_dump(dump, main_thread=main_thread)
        for name, value in dump.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        requests += [duration for duration, op in dump.get("requests", ()) if op == "submit"]
    totals = tracer.layer_totals(counters)
    n = len(traced)

    def layer(name: str, field: str = "self_s") -> float:
        return totals.get(name, {}).get(field, 0.0) / n

    def counter(name: str) -> float:
        return counters.get(name, 0) / n

    pid = os.getpid()
    events = telemetry.events
    worker_s = sum(e.duration_s for e in events if e.name == "parallel.chunk" and e.pid != pid)
    pass1_s = sum(e.duration_s for e in events if e.name == "parallel.pass1")
    workers = telemetry.metrics.gauges.get("parallel.workers", 0)
    job_s = [e.duration_s for e in events if e.name == "job" and e.pid != pid]
    return {
        "trace.generate_s": layer("trace"),
        "trace.cycles": layer("trace", "units"),
        "trace.passes": layer("trace", "calls"),
        "interconnect.kernel_s": layer("interconnect"),
        "interconnect.kernel_cycles": layer("interconnect", "units"),
        "bus.reduce_s": layer("bus.reduce"),
        "bus.reduce_calls": layer("bus.reduce", "calls"),
        "core.replay_s": layer("core.replay"),
        "core.replay_cycles": layer("core.replay", "units"),
        "energy.eval_s": layer("energy"),
        "energy.calls": layer("energy", "calls"),
        "bus.characterize_s": layer("bus.characterize"),
        "chardb.load_s": layer("chardb.load"),
        "chardb.hits": counter("chardb.hits"),
        "chardb.misses": counter("chardb.misses"),
        "parallel.pass1_s": layer("parallel"),
        "parallel.master_generate_s": tracer.nested_self_s("trace", "parallel") / n,
        "parallel.worker_s": worker_s / n,
        "parallel.worker_busy_frac": worker_s / (workers * pass1_s) if workers and pass1_s else 0.0,
        "parallel.chunks": counter("parallel.chunks"),
        "executor.job_p50_s": statistics.median(job_s) if job_s else 0.0,
        "executor.job_p95_s": statistics.quantiles(job_s, n=20)[18] if len(job_s) > 1 else 0.0,
        "executor.jobs": len(job_s) / n,
        "cache.get_s": layer("cache.get"),
        "cache.put_s": layer("cache.put"),
        "cache.hits": counter("cache.hits"),
        "cache.misses": counter("cache.misses"),
        "cache.bytes_written": counter("cache.bytes_written"),
        "startup.import_s": imports[0],
        "startup.scipy_import_s": imports[1],
        "server.request_s": sum(requests) / n,
        "server.requests": len(requests) / n,
        "wait_s": layer("wait"),
        "traced.wall_s": statistics.median(traced),
        "untraced.wall_s": statistics.median(untraced),
        "traced.iterations": float(n),
        "unattributed_frac": 1.0 - tracer.main_thread_self_s() / sum(traced),
        "trace_overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
    }


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=(*WORKLOAD_NAMES, "all"),
        help="'all' runs every workload in turn, each in its own process",
    )
    parser.add_argument("--seed", type=int, default=2005, help="workload seed (default 2005)")
    parser.add_argument("--seconds", type=float, default=15.0, help="measuring time")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: the traced run, reporting per-layer metrics",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        options = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, *options]).returncode
            for name in WORKLOAD_NAMES
        ]
        return max(codes)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    for name in ("REPRO_CHARDB", "REPRO_CACHE_DIR", "REPRO_SERVER_ADDR"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    # A terminated run still stops its server and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.setup_probe:
            workload.prepare()
            return 0
        return measure(args, workload)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args: argparse.Namespace, workload: Any) -> int:
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("fingerprint " + json.dumps(fingerprint(args), sort_keys=True))
    setup_times = workload.setup(0 if args.trace else SETUP_REPEATS)
    workload.make_reference()
    checker = Checker(workload.reference)
    warm = workload.iteration()  # untimed: lazy state fills, first outputs
    workload.after_iteration()
    checker.check(warm.outputs)

    if not args.trace:
        peak_rss = PeakRss()
        peak_rss.start()
        walls, parts = run_iterations(workload, args.seconds, checker)
        wall = statistics.median(walls)
        metrics = {
            "wall_s": wall,
            "work_per_s": workload.work_per_iteration / wall,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss.stop(),
        }
        units = END_TO_END
        counts = f"median of {len(walls)} iterations, {len(setup_times)} cold set-ups"
        print("samples wall_s " + " ".join(f"{wall:.4f}" for wall in walls))
        print("samples setup_s " + " ".join(f"{setup:.4f}" for setup in setup_times))
        for name in sorted(parts[0]) if parts else ():
            values = [part[name] for part in parts if name in part]
            print(f"part {name} {statistics.median(values):.6f} s (median of {len(values)})")
        print(f"work {workload.work_per_iteration:g} {workload.work_unit} per iteration")
    else:
        from layers import Tracer

        from repro.telemetry import Telemetry, use_telemetry

        untraced, _ = run_iterations(workload, args.seconds * UNTRACED_SHARE, checker)
        tracer = Tracer()
        telemetry = Telemetry(label="perfbench")
        with use_telemetry(telemetry):
            workload.start_tracing(tracer)
            traced, _ = run_iterations(workload, args.seconds * (1 - UNTRACED_SHARE), checker)
            dumps = workload.stop_tracing()
        imports = import_profile() if args.workload == "cli" else (0.0, 0.0)
        metrics = layer_metrics(tracer, telemetry, dumps, traced, untraced, imports)
        units = PER_LAYER
        counts = f"per traced iteration; {len(traced)} traced, {len(untraced)} untraced"
        if tracer.missing:
            print("missing entry points (their layers read zero): " + ", ".join(tracer.missing))

    digests = dict(checker.expected)
    if len(digests) > 8:
        combined = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
        digests = {f"{len(checker.expected)}-outputs": combined[:16]}
    for key, value in sorted(digests.items()):
        print(f"digest {key} {value}")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name][0]} ({counts})")
    correct = checker.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
