"""repro.runtime: parallel experiment-orchestration engine.

The runtime turns the repository's simulation primitives into a
production-style execution system:

* **Specs** (:mod:`~repro.runtime.spec`) -- declarative :class:`JobSpec` /
  :class:`SweepSpec` grids over corners x workloads x encodings x bus
  designs x controller settings.
* **Cache** (:mod:`~repro.runtime.cache`) -- a content-addressed on-disk
  store keyed by a stable hash of task + parameters, so regenerating a
  figure or re-running an overlapping sweep never re-simulates a point.
* **Executor** (:mod:`~repro.runtime.executor`) -- batch execution over a
  transient work queue with a serial fallback; tasks are deterministic
  functions of their parameters, so parallel results are bit-identical to
  serial ones.
* **Work queue** (:mod:`~repro.runtime.workqueue`) -- the persistent
  submit/cancel/status queue behind ``repro serve``: in-flight dedupe by
  cache key, one job per worker turn, per-client quotas, backpressure,
  kill-based cancellation and worker-death recovery.
* **Tasks** (:mod:`~repro.runtime.tasks`) -- the registry of named,
  picklable simulation units (`dvs_run`, `characterize`, `experiment`).
* **Statistics pass** (:mod:`~repro.runtime.parallel`) -- the one pass
  every simulation makes (:func:`statistics_pass`): one call analyses a
  batch of runs (a single simulation, or a whole Table 1 suite) -- inline,
  or as parts that ``jobs`` worker processes of a pool, open for that call
  only, generate and analyse themselves -- and yields each run, reduced
  deterministically to per-segment summaries, as soon as it is folded
  (bit-identical for any worker count).
* **Store** (:mod:`~repro.runtime.store`) -- JSONL result records plus a
  run manifest and artifact registry for downstream reporting.
* **Sweeps** (:mod:`~repro.runtime.sweeps`) -- named, ready-to-run grids
  (``python -m repro sweep <name>``), including a 300-point design-space
  map.

The names below load on first use (:mod:`repro.utils.lazy`): the cache,
the specs and the executor import without numpy, so a cache hit never loads
the simulation stack.

Quickstart
----------
>>> from repro.runtime import SweepSpec, run_jobs, shared_cache
>>> spec = SweepSpec(
...     name="demo", task="dvs_run",
...     base={"n_cycles": 2_000},
...     axes={"benchmark": ("crafty", "mgrid"), "corner": ("typical", "worst")},
...     seed=2005,
... )
>>> report = run_jobs(spec.expand(), cache=shared_cache(), n_workers=4)
>>> [round(r["energy_gain_percent"], 1) for r in report.results]  # doctest: +SKIP
[35.2, 11.8, 30.9, 10.4]
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.runtime.cache import CacheStats, ResultCache, default_cache_dir, shared_cache
    from repro.runtime.executor import ExecutionReport, JobOutcome, run_jobs
    from repro.runtime.hashing import canonical_json, derive_seed, stable_hash
    from repro.runtime.progress import (
        ChunkProgress,
        ProgressPrinter,
        auto_chunk_progress,
        null_progress,
    )
    from repro.runtime.parallel import (
        ChunkSegmenter,
        ParallelExecutionError,
        statistics_pass,
    )
    from repro.runtime.spec import JobSpec, SweepSpec
    from repro.runtime.store import ResultStore, load_results
    from repro.runtime.sweeps import ENCODER_NAMES, SWEEPS, format_sweep_report, get_sweep
    from repro.runtime.workqueue import (
        InlineRunner,
        JobCancelledError,
        JobHandle,
        ProcessRunner,
        QueueClosedError,
        QueueFullError,
        QuotaExceededError,
        WorkerDiedError,
        WorkQueue,
    )
    from repro.runtime.tasks import (
        CORNERS,
        available_tasks,
        corner_params,
        get_task,
        resolve_corner,
        run_job_params,
        task,
    )

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.runtime.cache": ("CacheStats", "ResultCache", "default_cache_dir", "shared_cache"),
        "repro.runtime.executor": ("ExecutionReport", "JobOutcome", "run_jobs"),
        "repro.runtime.hashing": ("canonical_json", "derive_seed", "stable_hash"),
        "repro.runtime.progress": (
            "ChunkProgress",
            "ProgressPrinter",
            "auto_chunk_progress",
            "null_progress",
        ),
        "repro.runtime.parallel": (
            "ChunkSegmenter",
            "ParallelExecutionError",
            "statistics_pass",
        ),
        "repro.runtime.spec": ("JobSpec", "SweepSpec"),
        "repro.runtime.workqueue": (
            "InlineRunner",
            "JobCancelledError",
            "JobHandle",
            "ProcessRunner",
            "QueueClosedError",
            "QueueFullError",
            "QuotaExceededError",
            "WorkQueue",
            "WorkerDiedError",
        ),
        "repro.runtime.store": ("ResultStore", "load_results"),
        "repro.runtime.sweeps": ("SWEEPS", "format_sweep_report", "get_sweep", "ENCODER_NAMES"),
        "repro.runtime.tasks": (
            "CORNERS",
            "available_tasks",
            "corner_params",
            "get_task",
            "resolve_corner",
            "run_job_params",
            "task",
        ),
    },
)
