"""Command-line interface: ``python -m repro <command>``.

The CLI is a thin veneer over the experiment registry and the core library,
so everything it prints can also be obtained programmatically; it exists so
the reproduction can be driven without writing a script:

* ``python -m repro list`` -- the experiment inventory (DESIGN.md ids),
* ``python -m repro run fig5`` -- regenerate one figure/table,
* ``python -m repro characterize --corner typical`` -- the bus's delay/error
  behaviour over the voltage grid at one corner,
* ``python -m repro simulate --benchmark crafty --corner typical`` -- one
  closed-loop DVS run with a supply-voltage time series,
* ``python -m repro run baselines`` -- fixed VS vs canary vs triple-latch vs
  the proposed DVS at the worst and typical corners,
* ``python -m repro sweep pvt-mega --jobs 8`` -- a declarative parameter grid
  executed by the runtime engine with caching and a worker pool,
* ``python -m repro report --experiments table1,fig8`` -- render experiments
  into a Markdown/JSON/SVG artifact directory with a per-metric fidelity
  summary against the paper's published values,
* ``python -m repro cache info`` -- inspect or clear the result cache,
* ``python -m repro cache stats`` -- cache contents plus the hit/miss
  counters of the last telemetry log,
* ``python -m repro profile table1 --cycles 50000`` -- run one bounded
  experiment under the telemetry tracer and print the top span paths and
  counter deltas (a Chrome trace-event file is always written),
* ``python -m repro serve --jobs 4`` -- the persistent job server: accepts
  submissions over a local JSONL socket protocol, dedupes in-flight
  duplicates by cache key, streams progress, and enforces per-client quotas
  with backpressure,
* ``python -m repro submit table1`` -- submit one experiment to a running
  server and stream its result (bit-identical to ``run``, same cache keys),
* ``python -m repro jobs [--stats|--cancel JOB|--shutdown]`` -- inspect or
  control a running server,
* ``python -m repro chardb build`` -- bake the delay/error/energy surfaces
  for every standard (corner x width x coupling) combination into the
  committed ``chardb/paper.chardb`` artifact (``inspect`` and ``verify``
  examine it; ``build --check`` is the CI drift gate),
* ``python -m repro trace --workload cpu:memcopy --out m.npz`` -- generate,
  inspect or save any registered workload trace (``trace --list`` shows the
  spec grammar: synthetic profiles, the mini-CPU kernels as
  ``cpu:<kernel>``, ``file:<path>``, ``simpoint:``/``suite:``/``encoded:``
  wrappers),
* ``python -m repro analyze --strict`` -- the invariant-aware static
  analyzer (determinism, cache-key soundness, lock discipline).

``simulate`` and ``run`` (for the experiments that take workloads, i.e.
``table1``/``fig8``) accept the same ``--workload`` specs, so any registered
workload can be driven through the closed loop without code edits.

The runtime flags steer the engine for the commands that go through it:
``--cache-dir PATH`` / ``--no-cache`` apply to ``run``, ``sweep`` and
``report`` (repeated runs hit the content-addressed cache instead of
re-simulating) and ``--cache-dir`` selects the cache for ``cache``;
``--jobs N`` applies to ``sweep`` and ``report``, fanning cache misses out
over N worker processes with bit-identical results.  ``run``, ``simulate``
and ``profile`` honour ``--jobs`` too: every simulation is one statistics
pass over the workload followed by a replay of its segment summaries, and
``--jobs N`` fans that pass out over N workers (``repro simulate --jobs
4``), again bit-identical to serial.  ``--jobs`` is the only setting of the
statistics pass: its kernel and chunk length follow from the bus width.
``characterize`` always computes directly.  ``--jobs`` never enters a cache
key: a serial and a fanned-out run of the same experiment share one record.

``run``, ``profile`` and ``submit`` take the same experiment arguments
(``experiment``, ``--seed``, ``--workload``, ``--cycles``) and warn on stderr
about any flag the chosen experiment does not take.

``--telemetry[=PATH]`` (global, and on ``run``/``sweep``/``simulate``/
``report``/``profile``) installs the span tracer for the command and writes
``PATH.jsonl`` (the event/counter log) plus ``PATH.trace.json`` (Chrome
trace-event format, loadable in Perfetto) at exit, along with an end-of-run
summary on stderr.  Telemetry is otherwise disabled and costs nothing.

``--chardb PATH`` (global, and on the commands that characterise buses)
activates a prebuilt characterization database for the whole command: every
surface lookup resolves from the file instead of the circuit models, worker
processes inherit it through ``$REPRO_CHARDB``, and ``run``/``sweep``/
``submit`` fold the file's content hash into their cache keys.  Results are
bit-identical with or without it -- the database only removes the
characterization latency.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING
from collections.abc import Iterator, Sequence

if TYPE_CHECKING:
    from repro.runtime.cache import ResultCache

# The module top imports nothing from ``repro``: each command's arguments
# are added only when argparse selects that command (``_LazySubParsers``),
# and each ``_configure_*`` function and handler imports what it uses.  So
# ``--help`` loads no other ``repro`` module, and a cache-hit ``run`` or
# ``submit`` loads the experiment registry and the cache or the server
# client, not the simulation stack (``tests/test_import_budget.py``).

#: The ids of :data:`repro.runtime.sweeps.SWEEPS`, sorted, for the ``sweep``
#: parser.  Spelled out because building that registry loads numpy (its
#: encoder and CPU-kernel axes); ``tests/test_import_budget.py`` checks that
#: the two agree.
SWEEP_NAMES = (
    "controller-grid",
    "corner-workload",
    "coupling",
    "encoding-matrix",
    "pvt-mega",
    "workload-matrix",
)


class _LazySubParsers(argparse._SubParsersAction):
    """The ``command`` action: a command's arguments are added when it is chosen.

    :func:`build_parser` registers every command's name, help line and
    handler, which is all the top-level ``--help`` prints; the command's
    ``configure`` function (:data:`COMMANDS`) runs just before argparse
    parses the rest of the command line with that command's parser.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._configured: set[str] = set()

    def configure(self, name: str) -> argparse.ArgumentParser:
        """The parser of command ``name``, with its arguments added."""
        parser = self.choices[name]
        if name not in self._configured:
            self._configured.add(name)
            _, configure, _ = COMMANDS[name]
            configure(parser)
        return parser

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        self.configure(values[0])
        super().__call__(parser, namespace, values, option_string)


def _workload_error(error: Exception) -> int:
    """Print a workload-spec failure as a clean CLI error (no traceback)."""
    message = error.args[0] if error.args else str(error)
    print(f"error: {message}", file=sys.stderr)
    return 2


# --------------------------------------------------------------------------- #
# Arguments.  The runtime flags are accepted both before and after the
# subcommand (``repro --jobs 4 sweep ...`` and ``repro sweep ... --jobs 4``).
# The sub-parser copies default to SUPPRESS so an unused post-command flag
# never clobbers a value the top-level parser already set.
# --------------------------------------------------------------------------- #
def _add_runtime_flags(target: argparse.ArgumentParser, top_level: bool) -> None:
    target.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=1 if top_level else argparse.SUPPRESS,
        help="worker processes (sweep/report cache misses, or the statistics "
        "pass of run/simulate/profile; results are identical to serial)",
    )
    target.add_argument(
        "--cache-dir",
        type=Path,
        metavar="PATH",
        default=None if top_level else argparse.SUPPRESS,
        help="result-cache root (default: $REPRO_CACHE_DIR or ./.repro-cache)",
    )
    target.add_argument(
        "--no-cache",
        action="store_true",
        default=False if top_level else argparse.SUPPRESS,
        help="bypass the result cache entirely (always simulate)",
    )
    _add_telemetry_flag(target, top_level)
    _add_chardb_flag(target, top_level)


def _add_chardb_flag(target: argparse.ArgumentParser, top_level: bool) -> None:
    target.add_argument(
        "--chardb",
        metavar="PATH",
        default=None if top_level else argparse.SUPPRESS,
        help="characterization database (.chardb file) to resolve "
        "delay/error/energy surfaces from instead of the circuit models; "
        "results are bit-identical (build one with 'repro chardb build')",
    )


def _add_telemetry_flag(target: argparse.ArgumentParser, top_level: bool) -> None:
    # 'telemetry' is repro.telemetry.DEFAULT_TELEMETRY_BASE, spelled out so
    # the top-level parser needs no import (tests/test_import_budget.py).
    target.add_argument(
        "--telemetry",
        nargs="?",
        const="",
        metavar="PATH",
        default=None if top_level else argparse.SUPPRESS,
        help="trace the command: write PATH.jsonl + PATH.trace.json "
        "(default base: 'telemetry') and print a span/counter "
        "summary; 'cache stats' reads PATH.jsonl instead",
    )


# Workload-scale flags: accepted globally and on the commands that consume
# them, so any registered experiment or sweep can be scaled without code
# edits (``repro run table1 --cycles 500000`` or ``repro --cycles 500000
# sweep controller-grid``).
def _add_workload_flags(target: argparse.ArgumentParser, top_level: bool) -> None:
    target.add_argument(
        "--cycles",
        type=int,
        metavar="N",
        default=None if top_level else argparse.SUPPRESS,
        help="cycles per benchmark (experiments default to the paper's 10M "
        "for table1/fig8, streamed in O(chunk) memory)",
    )


# ``run``, ``profile`` and ``submit`` share the experiment arguments;
# ``_experiment_kwargs`` turns them into the runner's keywords.
def _add_experiment_arguments(target: argparse.ArgumentParser) -> None:
    from repro.analysis.experiments import EXPERIMENTS

    target.add_argument("experiment", choices=sorted(EXPERIMENTS), help="experiment id")
    target.add_argument("--seed", type=int, default=2005, help="workload seed")
    target.add_argument(
        "--workload",
        default=None,
        metavar="SPEC",
        help="registry workload spec(s), comma-separated rows ('+' concatenates "
        "within a row; experiments that take workloads only -- see "
        "'repro trace --list')",
    )


def _add_corner_argument(parser: argparse.ArgumentParser) -> None:
    from repro.runtime.tasks import CORNERS

    parser.add_argument(
        "--corner",
        choices=sorted(CORNERS),
        default="typical",
        help="PVT corner (worst / typical / best, or corner1..corner5 of Fig. 5)",
    )


def _add_server_address(target: argparse.ArgumentParser) -> None:
    target.add_argument(
        "--host", default=None, metavar="HOST", help="server address (default 127.0.0.1)"
    )
    target.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help="server port (default: $REPRO_SERVER_ADDR or 7325)",
    )


def _configure_list(parser: argparse.ArgumentParser) -> None:
    pass


def _configure_run(parser: argparse.ArgumentParser) -> None:
    _add_experiment_arguments(parser)
    _add_workload_flags(parser, top_level=False)
    _add_runtime_flags(parser, top_level=False)


def _configure_sweep(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "name",
        nargs="?",
        choices=SWEEP_NAMES,
        help="sweep id (omit with --list to enumerate)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_sweeps", help="list the named sweeps"
    )
    parser.add_argument(
        "--limit", type=int, default=None, metavar="K", help="run only the first K grid points"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="also write manifest.json + results.jsonl under DIR/<sweep>/",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines on stderr"
    )
    _add_workload_flags(parser, top_level=False)
    _add_runtime_flags(parser, top_level=False)


def _configure_report(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--experiments",
        default="all",
        metavar="IDS",
        help="comma-separated experiment ids, or 'all' (default). Note: 'all' at "
        "the paper's default scale simulates for ~15-20 min single-core "
        "(cached afterwards); scale with --cycles for a quick look.",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("report"),
        metavar="DIR",
        help="directory the report is written into (default: ./report)",
    )
    parser.add_argument("--seed", type=int, default=2005, help="workload seed")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines on stderr"
    )
    _add_workload_flags(parser, top_level=False)
    _add_runtime_flags(parser, top_level=False)


def _configure_cache(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "action",
        choices=("info", "list", "clear", "stats"),
        help="what to do with the cache ('stats' adds the hit/miss counters "
        "of the last telemetry log)",
    )
    _add_runtime_flags(parser, top_level=False)


def _configure_profile(parser: argparse.ArgumentParser) -> None:
    _add_experiment_arguments(parser)
    parser.add_argument(
        "--top", type=int, default=15, metavar="N", help="span paths to print (default 15)"
    )
    # Bounded by default: profiling wants a quick, representative run, not
    # the paper's 10M cycles (override with --cycles for a longer look).
    parser.add_argument(
        "--cycles",
        type=int,
        default=argparse.SUPPRESS,
        metavar="N",
        help="cycles per benchmark (default 50000 -- bounded, unlike 'run')",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=argparse.SUPPRESS,
        help="worker processes for the statistics pass",
    )
    _add_telemetry_flag(parser, top_level=False)
    _add_chardb_flag(parser, top_level=False)


def _configure_characterize(parser: argparse.ArgumentParser) -> None:
    _add_corner_argument(parser)
    _add_chardb_flag(parser, top_level=False)


def _configure_simulate(parser: argparse.ArgumentParser) -> None:
    from repro.trace.benchmarks import TABLE1_ORDER

    parser.add_argument(
        "--benchmark",
        choices=TABLE1_ORDER,
        default="crafty",
        help="benchmark profile, seeded with --seed itself like the dvs_run "
        "sweep task (--workload NAME derives Table 1's per-benchmark stream "
        "instead, so the two print slightly different runs)",
    )
    parser.add_argument(
        "--workload",
        default=None,
        metavar="SPEC",
        help="registry workload spec (overrides --benchmark; see 'repro trace --list')",
    )
    _add_corner_argument(parser)
    # SUPPRESS keeps the global --cycles usable before the subcommand: a
    # subparser default would overwrite the already-parsed top-level value.
    # The handler applies the 200k fallback.
    parser.add_argument(
        "--cycles", type=int, default=argparse.SUPPRESS, help="cycles to simulate (default 200000)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=argparse.SUPPRESS,
        help="worker processes for the statistics pass",
    )
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--window", type=int, default=10_000, help="error window (cycles)")
    parser.add_argument("--ramp", type=int, default=3_000, help="regulator ramp (cycles)")
    _add_telemetry_flag(parser, top_level=False)
    _add_chardb_flag(parser, top_level=False)


def _configure_serve(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--host", default=None, metavar="HOST", help="bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help="bind port (default: $REPRO_SERVER_ADDR or 7325; 0 picks a free port)",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=64,
        metavar="N",
        help="queued-job backpressure bound; further submissions are rejected (default 64)",
    )
    parser.add_argument(
        "--quota",
        type=int,
        default=8,
        metavar="N",
        help="active jobs per client before submissions are rejected (0 = unlimited; default 8)",
    )
    _add_runtime_flags(parser, top_level=False)


def _configure_submit(parser: argparse.ArgumentParser) -> None:
    _add_experiment_arguments(parser)
    _add_server_address(parser)
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress lines on stderr"
    )
    _add_workload_flags(parser, top_level=False)
    _add_chardb_flag(parser, top_level=False)


def _configure_jobs(parser: argparse.ArgumentParser) -> None:
    _add_server_address(parser)
    parser.add_argument(
        "--stats", action="store_true", help="print queue statistics instead of the job list"
    )
    parser.add_argument(
        "--cancel", metavar="JOB", default=None, help="cancel one job by id (e.g. job-3)"
    )
    parser.add_argument(
        "--shutdown", action="store_true", help="stop the server (drains queued jobs first)"
    )


def _configure_chardb(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "action",
        choices=("build", "inspect", "verify"),
        help="build: characterise the standard grid and write the artifact; "
        "inspect: print the header/index summary; verify: recheck the "
        "content hash and every entry's extents",
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        metavar="PATH",
        help="database file (default: chardb/paper.chardb)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="with 'build': rebuild in memory and fail if PATH differs "
        "byte-for-byte (the CI drift gate); nothing is written",
    )


def _configure_analyze(parser: argparse.ArgumentParser) -> None:
    from repro.analyze import cli as analyze_cli

    analyze_cli.add_arguments(parser)


def _configure_trace(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload",
        default=None,
        metavar="SPEC",
        help="workload spec (synthetic profile, cpu:<kernel>, file:<path>, "
        "simpoint:/suite:/encoded: wrappers; see --list)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_workloads", help="list the registered workloads"
    )
    parser.add_argument(
        "--cycles",
        type=int,
        default=argparse.SUPPRESS,
        help="trace length for generative workloads (default 20000)",
    )
    parser.add_argument("--seed", type=int, default=2005, help="workload seed")
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="PATH",
        help="save the trace (.npz packed archive or .hex text, by extension)",
    )


# --------------------------------------------------------------------------- #
# Commands: each takes the parsed arguments and returns the exit code.
# --------------------------------------------------------------------------- #
def _result_cache(args: argparse.Namespace) -> ResultCache | None:
    """The result cache under ``--cache-dir``, or ``None`` under ``--no-cache``.

    Only the commands that store results open it (``run``, ``sweep``,
    ``report``, ``serve``), so the others never import the cache.
    """
    if args.no_cache:
        return None
    from repro.runtime.cache import ResultCache, default_cache_dir

    return ResultCache(args.cache_dir if args.cache_dir is not None else default_cache_dir())


def _command_list(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import EXPERIMENTS

    width = max(len(identifier) for identifier in EXPERIMENTS)
    print("Experiments (regenerate with 'python -m repro run <id>'):")
    for identifier in sorted(EXPERIMENTS):
        experiment = EXPERIMENTS[identifier]
        print(f"  {identifier:<{width}}  {experiment.paper_artifact:<10} {experiment.description}")
    return 0


def _experiment_kwargs(
    args: argparse.Namespace, jobs: int | None = None, default_cycles: int | None = None
) -> dict:
    """The runner keywords that ``run``, ``profile`` and ``submit`` pass on.

    ``--seed`` and ``default_cycles`` reach the runner when it takes them.
    ``--cycles``, ``--workload`` and a ``jobs`` fan-out above 1 (``--jobs``
    defaults to 1 at the top level) do too, and each one the runner does
    not take is named on stderr instead.  ``chardb`` is not among them:
    ``run_experiment`` and the ``experiment`` task handle it for every
    runner.
    """
    from repro.analysis.experiments import EXPERIMENTS, accepted_kwargs

    runner = EXPERIMENTS[args.experiment].runner
    requested = {
        "n_cycles": args.cycles,
        "jobs": jobs if jobs is not None and jobs > 1 else None,
        "workload": args.workload,
    }
    kwargs = accepted_kwargs(runner, {"seed": args.seed, "n_cycles": default_cycles})
    kwargs.update(accepted_kwargs(runner, requested))
    flags = {"n_cycles": "--cycles", "jobs": "--jobs", "workload": "--workload"}
    for name, value in requested.items():
        if value is not None and name not in kwargs:
            print(
                f"[runtime] {args.experiment} does not take {flags[name]}; ignoring it",
                file=sys.stderr,
            )
    return kwargs


def _command_run(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import run_experiment
    from repro.trace import WorkloadError

    experiment, cache = args.experiment, _result_cache(args)
    kwargs = _experiment_kwargs(args, jobs=args.jobs)
    started = time.perf_counter()
    try:
        record, text = run_experiment(experiment, cache=cache, chardb=args.chardb, **kwargs)
    except WorkloadError as error:
        # Bad --workload specs only (unknown names, mixed bus widths);
        # anything else propagates as the genuine failure it is.
        return _workload_error(error)
    elapsed = time.perf_counter() - started
    print(text)
    if cache is not None:
        hit = isinstance(record, dict) and record.get("cached", False)
        source = "cache hit" if hit else "simulated"
        print(f"[runtime] {experiment}: {source} in {elapsed:.2f} s", file=sys.stderr)
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import accepted_kwargs
    from repro.runtime import ProgressPrinter, ResultStore, run_jobs
    from repro.runtime.sweeps import SWEEPS, format_sweep_report, get_sweep
    from repro.runtime.tasks import get_task

    name, cycles, chardb = args.name, args.cycles, args.chardb
    if args.list_sweeps or name is None:
        width = max(len(sweep_name) for sweep_name in SWEEPS)
        print("Named sweeps (run with 'python -m repro sweep <name>'):")
        for sweep_name in sorted(SWEEPS):
            sweep = SWEEPS[sweep_name]
            print(f"  {sweep_name:<{width}}  [{sweep.n_points:>3} pts]  {sweep.description}")
        if name is None and not args.list_sweeps:
            print("\n(no sweep name given; use 'sweep <name>' to execute one)")
        return 0

    sweep = get_sweep(name)
    specs = sweep.expand(limit=args.limit)
    if cycles is not None:
        # Scale every grid point that understands the workload length; the
        # overridden params flow into the cache key, so scaled runs never
        # alias unscaled ones.
        overridden = []
        for spec in specs:
            overrides = accepted_kwargs(get_task(spec.task), {"n_cycles": cycles})
            overridden.append(spec.with_params(**overrides) if overrides else spec)
        specs = tuple(overridden)
    if chardb is not None:
        # Every registered task accepts a ``chardb`` param; carrying it in
        # the spec folds the file's content hash into each cache key.
        specs = tuple(spec.with_params(chardb=str(chardb)) for spec in specs)
    progress = ProgressPrinter(quiet=args.quiet)
    report = run_jobs(specs, cache=_result_cache(args), n_workers=args.jobs, progress=progress)
    print(format_sweep_report(sweep, report))
    print(f"[runtime] {report.summary()}", file=sys.stderr)
    if args.out is not None:
        run_dir = ResultStore(args.out).write_report(sweep.name, report, sweep=sweep)
        print(f"[runtime] results written to {run_dir}", file=sys.stderr)
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from repro.report import build_report, resolve_experiments
    from repro.runtime import ProgressPrinter

    try:
        identifiers = resolve_experiments(args.experiments)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    progress = ProgressPrinter(quiet=args.quiet)
    started = time.perf_counter()
    build = build_report(
        identifiers,
        args.out,
        cache=_result_cache(args),
        jobs=args.jobs,
        n_cycles=args.cycles,
        seed=args.seed,
        progress=progress,
    )
    elapsed = time.perf_counter() - started
    print(build.fidelity.to_markdown())
    print(
        f"[runtime] report: {len(identifiers)} experiment(s), "
        f"{build.n_cached} cache hit(s), {build.n_executed} simulated in {elapsed:.2f} s",
        file=sys.stderr,
    )
    print(f"report written to {build.index_path}")
    return 0


def _command_profile(args: argparse.Namespace) -> int:
    """Run one bounded experiment under the (already installed) tracer.

    ``main`` installs the telemetry collector and writes the JSONL/Chrome
    exports after this returns; this handler's job is the bounded run itself
    plus the on-stdout span/counter summary (including the scaling block
    whenever the statistics pass fanned out over worker processes).
    """
    from repro.analysis.experiments import run_experiment
    from repro.telemetry import format_parallel_summary, format_summary, get_telemetry
    from repro.trace import WorkloadError

    experiment = args.experiment
    telemetry = get_telemetry()
    baseline = telemetry.metrics.snapshot()
    kwargs = _experiment_kwargs(args, jobs=args.jobs, default_cycles=50_000)
    started = time.perf_counter()
    try:
        with telemetry.span(f"profile:{experiment}"):
            run_experiment(experiment, cache=None, **kwargs)
    except WorkloadError as error:
        return _workload_error(error)
    elapsed = time.perf_counter() - started
    print(f"profiled {experiment!r} in {elapsed:.2f} s "
          f"({kwargs.get('n_cycles', 'default')} cycles per benchmark)")
    print()
    print(format_summary(telemetry, top_n=args.top,
                         counter_deltas=telemetry.metrics.delta_since(baseline)))
    parallel_block = format_parallel_summary(telemetry)
    if parallel_block is not None:
        print()
        print(parallel_block)
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    # Honours --cache-dir even under --no-cache: the cache is what this
    # command inspects, not a store for its results.
    from repro.runtime.cache import ResultCache, default_cache_dir
    from repro.telemetry import DEFAULT_TELEMETRY_BASE, read_jsonl_metrics, telemetry_paths
    from repro.telemetry.metrics import format_quantity

    cache = ResultCache(args.cache_dir if args.cache_dir is not None else default_cache_dir())
    action = args.action
    if action == "info":
        print(cache.stats().format())
        return 0
    if action == "stats":
        stats = cache.stats()
        print(stats.format())
        base = args.telemetry if args.telemetry else DEFAULT_TELEMETRY_BASE
        log_path = telemetry_paths(base).jsonl
        metrics = read_jsonl_metrics(log_path)
        if metrics is None:
            print(f"no telemetry log at {log_path} "
                  "(run a command with --telemetry to record one)")
            return 0
        print(f"counters from the last telemetry log ({log_path}):")
        names = ("cache.hits", "cache.misses", "cache.puts", "cache.bytes_written")
        counters = metrics["counters"]
        rows = [(name, counters.get(name, 0)) for name in names]
        width = max(len(name) for name, _ in rows)
        for name, value in rows:
            print(f"  {name:<{width}}  {format_quantity(value)}")
        lookups = counters.get("cache.hits", 0) + counters.get("cache.misses", 0)
        if lookups:
            print(f"  {'hit rate':<{width}}  "
                  f"{100.0 * counters.get('cache.hits', 0) / lookups:.1f}%")
        return 0
    if action == "list":
        count = 0
        for key in cache.keys():
            record = cache.get(key) or {}
            print(f"  {key[:16]}  {record.get('task', '?'):<12} "
                  f"{record.get('duration_s', 0.0):6.2f} s")
            count += 1
        print(f"{count} cached record(s) under {cache.root}")
        return 0
    removed = cache.clear()
    print(f"removed {removed} cached file(s) from {cache.root}")
    return 0


def _print_chardb_summary(summary: dict) -> None:
    print(f"Characterization database {summary['path']}")
    print(f"  schema version : {summary['schema']}")
    print(f"  size           : {summary['bytes']} bytes")
    print(f"  content hash   : {summary['content_hash']}")
    print(f"  entries        : {summary['entries']} "
          f"({summary['designs']} distinct designs)")
    print(f"  bus widths     : {', '.join(str(width) for width in summary['widths'])} bits")
    print("  coupling scale : "
          + ", ".join(f"{scale:g}" for scale in summary["coupling_scales"]))
    print(f"  corners        : {len(summary['corners'])}")
    for corner in summary["corners"]:
        print(f"    {corner['process']:<8} {corner['temperature_c']:>5.0f} C  "
              f"{corner['ir_drop'] * 100:>4.0f}% IR drop")


def _command_chardb(args: argparse.Namespace) -> int:
    from repro.chardb import (
        DEFAULT_DB_PATH,
        CharacterizationDatabase,
        ChardbError,
        build_database_bytes,
        default_build_spec,
    )

    action = args.action
    target = Path(args.path) if args.path is not None else Path(DEFAULT_DB_PATH)
    if action == "build":
        started = time.perf_counter()
        payload = build_database_bytes(default_build_spec())
        elapsed = time.perf_counter() - started
        if args.check:
            on_disk = target.read_bytes() if target.exists() else None
            if on_disk != payload:
                detail = (
                    "file is missing"
                    if on_disk is None
                    else f"{len(on_disk)} bytes on disk != {len(payload)} rebuilt"
                )
                print(
                    f"error: {target} is stale ({detail}); regenerate it with "
                    "'python -m repro chardb build'",
                    file=sys.stderr,
                )
                return 1
            print(f"{target} is up to date ({len(payload)} bytes, rebuilt in {elapsed:.2f} s)")
            return 0
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(payload)
        print(f"wrote {target} in {elapsed:.2f} s")
        with CharacterizationDatabase.open(target) as database:
            _print_chardb_summary(database.summary())
        return 0
    try:
        database = CharacterizationDatabase.open(target)
    except (OSError, ChardbError) as error:
        print(f"error: cannot open {target}: {error}", file=sys.stderr)
        return 2
    with database:
        if action == "verify":
            try:
                database.verify()
            except ChardbError as error:
                print(f"error: {error}", file=sys.stderr)
                return 1
            print(f"{target} OK: {len(database)} entries, "
                  f"content hash {database.fingerprint[:16]}... verified")
            return 0
        _print_chardb_summary(database.summary())
    return 0


@contextmanager
def _chardb_env(path: str | None) -> Iterator[None]:
    """Export ``--chardb`` as ``$REPRO_CHARDB`` for the command's duration.

    The environment variable (rather than an in-process override) is what
    lets executor / work-queue / server worker processes inherit the
    database.  The previous value is restored on exit so in-process callers
    of :func:`main` (the tests) see no lasting state change.
    """
    if path is None:
        yield
        return
    from repro.chardb.active import ENV_VAR

    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = str(path)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous


def _command_characterize(args: argparse.Namespace) -> int:
    from repro.bus import BusDesign, CharacterizedBus
    from repro.circuit.pvt import PVTCorner
    from repro.runtime.tasks import CORNERS

    corner = CORNERS[args.corner]
    bus = CharacterizedBus(BusDesign.paper_bus(), corner)
    clocking = bus.design.clocking
    print(f"Paper bus characterised at: {corner.label}")
    print(
        f"  clock {clocking.frequency / 1e9:.2f} GHz, main deadline "
        f"{clocking.main_deadline * 1e12:.0f} ps, shadow deadline "
        f"{clocking.shadow_deadline * 1e12:.0f} ps"
    )
    print(
        f"  zero-error supply: {bus.zero_error_voltage() * 1000:.0f} mV, "
        f"regulator floor (shadow latch, worst temp/IR for this process): "
        f"{bus.minimum_safe_voltage(PVTCorner(corner.process, 100.0, 0.10)) * 1000:.0f} mV"
    )
    print()
    print(f"  {'Vdd (mV)':>9} {'worst delay (ps)':>17} {'meets main?':>12} {'meets shadow?':>14}")
    max_lambda = bus.design.topology.max_coupling_factor
    for vdd in reversed(bus.grid.voltages.tolist()):
        delay = bus.table.worst_delay(vdd, max_lambda)
        print(
            f"  {vdd * 1000:>9.0f} {delay * 1e12:>17.1f} "
            f"{'yes' if delay <= clocking.main_deadline else 'no':>12} "
            f"{'yes' if delay <= clocking.shadow_deadline else 'no':>14}"
        )
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    from repro.bus import BusDesign, CharacterizedBus
    from repro.core.dvs_system import DVSBusSystem
    from repro.encoding.analysis import design_for_width
    from repro.plotting import Series, line_chart
    from repro.runtime import auto_chunk_progress
    from repro.runtime.tasks import CORNERS
    from repro.trace import benchmark_trace_source, resolve_workload

    corner = CORNERS[args.corner]
    workload, seed = args.workload, args.seed
    cycles = args.cycles if args.cycles is not None else 200_000
    if workload is not None:
        # Any registry spec; file-backed workloads keep their recorded
        # length, generative ones honour --cycles.
        try:
            source = resolve_workload(workload, n_cycles=cycles, seed=seed)
        except (KeyError, ValueError) as error:
            return _workload_error(error)
        label = workload
    else:
        source = benchmark_trace_source(args.benchmark, n_cycles=cycles, seed=seed)
        label = args.benchmark
    # Encoded workloads drive more wires than the paper bus; redesign for the
    # source's width exactly like the dvs_run sweep task does.
    bus = CharacterizedBus(design_for_width(BusDesign.paper_bus(), source.n_bits), corner)
    system = DVSBusSystem(bus, window_cycles=args.window, ramp_delay_cycles=args.ramp)
    progress = auto_chunk_progress(source.n_cycles, label=f"simulate {label}")
    result = system.run(source, progress=progress, jobs=args.jobs)

    print(f"Closed-loop DVS: workload {label!r}, corner {corner.label}")
    print(f"  cycles simulated      : {result.n_cycles}")
    print(f"  corrected errors      : {result.total_errors} "
          f"({result.average_error_rate * 100:.2f}% of cycles)")
    print(f"  energy gain vs nominal: {result.energy_gain_percent:.1f}%")
    print(f"  minimum supply reached: {result.minimum_voltage_reached * 1000:.0f} mV "
          f"(final {result.final_voltage * 1000:.0f} mV)")
    print()
    if len(result.window_voltages) >= 2:
        windows = range(len(result.window_voltages))
        print(
            line_chart(
                [
                    Series(
                        "supply (mV)",
                        list(windows),
                        (result.window_voltages * 1000).tolist(),
                    )
                ],
                title="supply voltage per control window",
                x_label="window",
                y_label="mV",
                height=12,
            )
        )
    return 0


def _server_address(host: str | None, port: int | None) -> tuple:
    """Resolve --host/--port against $REPRO_SERVER_ADDR and the defaults."""
    from repro.server import default_address

    default_host, default_port = default_address()
    return (host if host is not None else default_host,
            port if port is not None else default_port)


def _server_unreachable(host: str, port: int, error: Exception) -> int:
    print(
        f"error: cannot reach a repro server at {host}:{port} ({error}); "
        "start one with 'python -m repro serve'",
        file=sys.stderr,
    )
    return 2


def _command_serve(args: argparse.Namespace) -> int:
    from repro.runtime.workqueue import WorkQueue
    from repro.server import DEFAULT_HOST, ReproServer, default_address

    port = args.port if args.port is not None else default_address()[1]
    quota, max_pending, cache = args.quota, args.max_pending, _result_cache(args)
    queue = WorkQueue(
        n_workers=max(1, args.jobs),
        cache=cache,
        max_pending=max_pending,
        quota=quota if quota > 0 else None,
    )
    server = ReproServer(
        queue, host=args.host if args.host is not None else DEFAULT_HOST, port=port
    )
    bound_host, bound_port = server.address
    mode = "process" if queue.workers_are_processes else "inline"
    print(
        f"[server] job server on {bound_host}:{bound_port} -- {queue.n_workers} {mode} "
        f"worker(s), cache {cache.root if cache is not None else 'disabled'}, "
        f"quota {quota if quota > 0 else 'unlimited'}, max pending {max_pending}",
        file=sys.stderr,
    )
    print(
        "[server] submit with 'python -m repro submit <experiment>'; "
        "stop with 'python -m repro jobs --shutdown' or Ctrl-C",
        file=sys.stderr,
    )
    server.serve_forever()
    print("[server] stopped", file=sys.stderr)
    return 0


def _command_submit(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import EXPERIMENTS
    from repro.server import ReproClient, ServerError

    experiment, quiet = args.experiment, args.quiet
    kwargs = _experiment_kwargs(args)
    if args.jobs > 1:
        # Server workers are daemon processes, so the flag is not forwarded.
        print(
            "[runtime] submit does not forward --jobs; the server's own --jobs sets its workers",
            file=sys.stderr,
        )
    # The exact JobSpec a local cached run would use, so the server dedupes
    # and caches under the same content-addressed key.  The chardb path is
    # resolved to an absolute one because the server process opens it from
    # its own working directory.
    if args.chardb is not None:
        kwargs["chardb"] = os.path.abspath(args.chardb)
    spec = EXPERIMENTS[experiment].job(**kwargs)
    host, port = _server_address(args.host, args.port)
    started = time.perf_counter()
    try:
        client = ReproClient(host=host, port=port)
    except OSError as error:
        return _server_unreachable(host, port, error)
    terminal = None
    with client:
        try:
            stream = client.submit(spec.task, dict(spec.params))
            accepted = next(stream)
            if not quiet:
                note = (
                    "cache hit"
                    if accepted.get("cached")
                    else (
                        "attached to in-flight duplicate"
                        if accepted.get("deduped")
                        else "queued"
                    )
                )
                print(
                    f"[server] {accepted['job']} {note} (key {accepted['key'][:16]}...)",
                    file=sys.stderr,
                )
            for event in stream:
                terminal = event
                if event.get("event") == "progress" and not quiet:
                    cycle = event.get("start_cycle")
                    where = f" @ cycle {cycle}" if cycle is not None else ""
                    print(f"[server] {accepted['job']} running{where}", file=sys.stderr)
        except ServerError as error:
            print(f"error: server rejected the submission ({error.code}): {error}",
                  file=sys.stderr)
            return 2
        except (ConnectionError, OSError) as error:
            return _server_unreachable(host, port, error)
    elapsed = time.perf_counter() - started
    if terminal is None or terminal.get("event") != "result":
        kind = (terminal or {}).get("event", "no response")
        detail = (terminal or {}).get("error")
        suffix = f": {detail['type']}: {detail['message']}" if isinstance(detail, dict) else ""
        print(f"error: job ended with {kind}{suffix}", file=sys.stderr)
        return 1
    result = terminal.get("result")
    if isinstance(result, dict) and isinstance(result.get("text"), str):
        print(result["text"])
    else:
        import json

        print(json.dumps(result, indent=2, sort_keys=True))
    source = (
        "cache hit"
        if accepted.get("cached") or terminal.get("cached")
        else ("deduped" if accepted.get("deduped") else "simulated")
    )
    print(f"[server] {experiment}: {source} in {elapsed:.2f} s", file=sys.stderr)
    return 0


def _command_jobs(args: argparse.Namespace) -> int:
    from repro.server import ReproClient, ServerError

    host, port = _server_address(args.host, args.port)
    cancel = args.cancel
    try:
        client = ReproClient(host=host, port=port)
    except OSError as error:
        return _server_unreachable(host, port, error)
    with client:
        try:
            if cancel is not None:
                cancelled = client.cancel(cancel)
                print(f"{cancel}: {'cancelled' if cancelled else 'already finished'}")
                return 0
            if args.shutdown:
                client.shutdown(drain=True)
                print("server shutting down (draining queued jobs)")
                return 0
            if args.stats:
                rows = sorted(client.stats().items())
                width = max(len(name) for name, _ in rows)
                print("queue statistics:")
                for name, value in rows:
                    print(f"  {name:<{width}}  {value}")
                return 0
            listed = client.jobs()
            if not listed:
                print("no jobs submitted yet")
                return 0
            for row in listed:
                print(
                    f"  {row['job']:<8} {row['state']:<10} {row['task']:<12} "
                    f"clients {row['clients']}  key {row['key'][:16]}..."
                )
            print(f"{len(listed)} job(s)")
            return 0
        except ServerError as error:
            print(f"error: {error.code}: {error}", file=sys.stderr)
            return 2
        except (ConnectionError, OSError) as error:
            return _server_unreachable(host, port, error)


def _command_trace(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.trace import BusTrace, resolve_workload, save_trace_hex, save_trace_npz
    from repro.trace.workloads import WORKLOADS

    workload, out, cycles = args.workload, args.out, args.cycles
    if args.list_workloads or workload is None:
        rows = WORKLOADS.describe()
        width = max(len(spec) for spec, _ in rows)
        print("Registered workloads (use with --workload on trace/simulate/run):")
        for spec, description in rows:
            print(f"  {spec:<{width}}  {description}")
        if workload is None and not args.list_workloads:
            print("\n(no workload given; use 'trace --workload <spec>' to generate one)")
        return 0

    if out is not None:
        if out.suffix not in (".npz", ".hex"):
            # savez_compressed would silently append ".npz" to any other
            # suffix, writing to a different path than the one we report.
            return _workload_error(
                ValueError(f"--out must end in .npz or .hex, got {out.name!r}")
            )
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            # Fail before executing the workload, not after.
            return _workload_error(ValueError(f"cannot create {out.parent}: {error}"))
    try:
        source = resolve_workload(
            workload, n_cycles=cycles if cycles is not None else 20_000, seed=args.seed
        )
    except (KeyError, ValueError) as error:
        return _workload_error(error)
    # One streamed pass computes the inspection statistics and (when saving)
    # collects the words, so generative workloads execute exactly once.  The
    # chunks arrive packed and are collected as they are: only one chunk is
    # ever unpacked, so paper-scale saves keep O(chunk) unpacked memory.
    total_toggles = 0
    busiest_cycle = 0
    collected = [] if out is not None else None
    for chunk in source.chunks():
        values = chunk.values
        toggles = np.count_nonzero(values[1:] != values[:-1], axis=1)
        total_toggles += int(toggles.sum())
        busiest_cycle = max(busiest_cycle, int(toggles.max()))
        if collected is not None:
            packed = chunk.trace.packed_values
            collected.append(packed if chunk.is_first else packed[1:])

    print(f"Workload {workload!r} -> trace {source.name!r}")
    print(f"  cycles (transitions) : {source.n_cycles}")
    print(f"  bus width            : {source.n_bits} bits")
    print(
        f"  toggle density       : {total_toggles / (source.n_cycles * source.n_bits):.4f} "
        "(toggles per wire per cycle)"
    )
    print(f"  busiest cycle        : {busiest_cycle} of {source.n_bits} wires toggling")
    if out is not None and collected is not None:
        trace = BusTrace(
            packed=np.concatenate(collected, axis=0), n_bits=source.n_bits, name=source.name
        )
        if out.suffix == ".hex":
            save_trace_hex(trace, out)
        else:
            save_trace_npz(trace, out)
        print(f"  saved to             : {out}")
    return 0


def _command_analyze(args: argparse.Namespace) -> int:
    from repro.analyze import cli as analyze_cli

    return analyze_cli.run(args)


#: The commands, in ``--help`` order: ``name -> (help, configure, handler)``.
#: ``configure(parser)`` adds the command's arguments when argparse selects
#: it; ``handler(args)`` runs it and returns the exit code.
COMMANDS = {
    "list": ("list the paper's experiments and their ids", _configure_list, _command_list),
    "run": ("run one experiment by id", _configure_run, _command_run),
    "sweep": (
        "run a declarative parameter grid through the runtime engine",
        _configure_sweep,
        _command_sweep,
    ),
    "report": (
        "render experiments into a Markdown/JSON/SVG artifact directory "
        "with a fidelity summary vs the paper",
        _configure_report,
        _command_report,
    ),
    "cache": (
        "inspect or clear the content-addressed result cache",
        _configure_cache,
        _command_cache,
    ),
    "profile": (
        "run one bounded experiment under the span tracer and print the "
        "top spans and counter deltas (always writes a Chrome trace file)",
        _configure_profile,
        _command_profile,
    ),
    "characterize": (
        "delay and error behaviour of the bus over the voltage grid",
        _configure_characterize,
        _command_characterize,
    ),
    "simulate": (
        "one closed-loop DVS run on a single workload",
        _configure_simulate,
        _command_simulate,
    ),
    "serve": (
        "run the persistent job server (submit with 'repro submit', "
        "inspect with 'repro jobs')",
        _configure_serve,
        _command_serve,
    ),
    "submit": (
        "submit one experiment to a running 'repro serve' and stream the result",
        _configure_submit,
        _command_submit,
    ),
    "jobs": (
        "inspect or control a running 'repro serve' (list/stats/cancel/shutdown)",
        _configure_jobs,
        _command_jobs,
    ),
    "chardb": (
        "build, inspect or verify the characterization database "
        "(docs/chardb_format.md specifies the file format)",
        _configure_chardb,
        _command_chardb,
    ),
    "analyze": (
        "run the invariant-aware static analyzer (determinism, cache-key "
        "soundness, lock discipline)",
        _configure_analyze,
        _command_analyze,
    ),
    "trace": (
        "generate, inspect or save any registered workload trace",
        _configure_trace,
        _command_trace,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for the tests and for docs).

    Each command's own arguments are added when argparse selects it;
    :func:`_command_parsers` adds them all.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'DVS for On-Chip Bus Designs Based on Timing Error "
            "Correction' (Kaul et al., DATE 2005)."
        ),
    )
    _add_runtime_flags(parser, top_level=True)
    _add_workload_flags(parser, top_level=True)
    parser.register("action", "parsers", _LazySubParsers)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, handler) in COMMANDS.items():
        subparsers.add_parser(name, help=summary).set_defaults(handler=handler)
    return parser


def _command_parsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """Every command's parser of ``parser``, each with all its arguments."""
    (subparsers,) = (action for action in parser._actions if isinstance(action, _LazySubParsers))
    return {name: subparsers.configure(name) for name in subparsers.choices}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    chardb = args.chardb
    with _chardb_env(chardb):
        if chardb is not None and args.command != "chardb":
            # Fail fast: a requested database that cannot be opened must not
            # silently degrade into live characterization.
            from repro.chardb import ChardbError, get_active_chardb

            try:
                get_active_chardb()
            except ChardbError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
        return _run_command(args)


def _run_command(args: argparse.Namespace) -> int:
    """Set up telemetry, then call the command's handler."""
    # ``--telemetry`` (const "") enables the tracer; ``profile`` always runs
    # traced, defaulting its export base to "profile".  ``cache`` never
    # traces itself -- its --telemetry argument names the log to *read*.
    telemetry_arg = args.telemetry
    if args.command == "profile" and telemetry_arg is None:
        telemetry_arg = "profile"
    if telemetry_arg is None or args.command == "cache":
        return args.handler(args)
    from repro.telemetry import (
        DEFAULT_TELEMETRY_BASE,
        Telemetry,
        format_summary,
        telemetry_paths,
        use_telemetry,
        write_chrome_trace,
        write_jsonl,
    )

    base = telemetry_arg if telemetry_arg else DEFAULT_TELEMETRY_BASE
    telemetry = Telemetry(label=args.command)
    with use_telemetry(telemetry):
        with telemetry.span(f"repro.{args.command}"):
            code = args.handler(args)
    paths = telemetry_paths(base)
    write_jsonl(telemetry, paths.jsonl)
    write_chrome_trace(telemetry, paths.chrome_trace)
    if args.command != "profile":  # profile already printed its summary on stdout
        print(format_summary(telemetry), file=sys.stderr)
    print(
        f"[telemetry] event log: {paths.jsonl}  chrome trace: {paths.chrome_trace} "
        "(load the trace in chrome://tracing or https://ui.perfetto.dev)",
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
