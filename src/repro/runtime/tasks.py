"""The task registry: named, picklable, cache-friendly units of simulation.

A *task* is a top-level function taking only JSON-able keyword arguments and
returning a JSON-able dict of metrics.  Those two constraints are what make
the whole runtime work:

* JSON-able inputs give every job a stable content hash (the cache key),
* JSON-able outputs let the cache and the JSONL result store persist results
  without pickling arbitrary objects,
* top-level registration by *name* lets ``multiprocessing`` workers resolve
  the callable without shipping code objects between processes.

Tasks must be deterministic functions of their parameters: given the same
parameters (including ``seed``) they must return the same result in any
process.  Every simulation primitive in this repository already satisfies
that, which is why parallel sweeps are bit-identical to serial ones.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable, Mapping
from functools import lru_cache
from typing import TYPE_CHECKING, Any

from repro.circuit.pvt import (
    BEST_CASE_CORNER,
    STANDARD_CORNERS,
    TYPICAL_CORNER,
    WORST_CASE_CORNER,
    ProcessCorner,
    PVTCorner,
)

if TYPE_CHECKING:  # pragma: no cover - typing only; tasks import lazily
    from repro.bus.bus_model import TraceSummary
    from repro.core.dvs_system import DVSBusSystem
    from repro.interconnect.crosstalk import NeighborTopology
    from repro.runtime.parallel import ChunkSegmenter
    from repro.trace.stream import TraceSource

__all__ = [
    "task",
    "get_task",
    "available_tasks",
    "run_job_params",
    "CORNERS",
    "corner_params",
    "resolve_corner",
]

TaskFunction = Callable[..., dict[str, Any]]

#: All registered tasks, keyed by name.
_TASKS: dict[str, TaskFunction] = {}


def task(name: str) -> Callable[[TaskFunction], TaskFunction]:
    """Register a function as a named runtime task."""

    def register(function: TaskFunction) -> TaskFunction:
        if name in _TASKS:
            raise ValueError(f"task {name!r} is already registered")
        _TASKS[name] = function
        return function

    return register


def get_task(name: str) -> TaskFunction:
    """Look up a registered task; raises ``KeyError`` with the known names."""
    try:
        return _TASKS[name]
    except KeyError:
        known = ", ".join(sorted(_TASKS))
        raise KeyError(f"unknown task {name!r}; known tasks: {known}") from None


def available_tasks() -> tuple[str, ...]:
    """Names of all registered tasks, sorted."""
    return tuple(sorted(_TASKS))


def run_job_params(name: str, params: Mapping[str, Any]) -> dict[str, Any]:
    """Execute one task by name with its parameter mapping."""
    return get_task(name)(**dict(params))


# --------------------------------------------------------------------------- #
# Parameter resolution (corner / encoder / design aliases)
# --------------------------------------------------------------------------- #
#: Corner names accepted by CLI ``--corner`` flags and sweep parameters.
CORNERS: dict[str, PVTCorner] = {
    "worst": WORST_CASE_CORNER,
    "typical": TYPICAL_CORNER,
    "best": BEST_CASE_CORNER,
    **{f"corner{i}": corner for i, corner in STANDARD_CORNERS.items()},
}

CornerLike = str | Mapping[str, Any] | PVTCorner


def resolve_corner(spec: CornerLike) -> PVTCorner:
    """A :class:`PVTCorner` from a name, a parameter dict, or a corner.

    Sweep parameters must stay JSON-able, so jobs carry corners as either a
    registered alias (``"typical"``, ``"corner4"``, ...) or an explicit
    ``{"process", "temperature_c", "ir_drop"}`` mapping.
    """
    if isinstance(spec, PVTCorner):
        return spec
    if isinstance(spec, str):
        try:
            return CORNERS[spec]
        except KeyError:
            known = ", ".join(sorted(CORNERS))
            raise KeyError(f"unknown corner alias {spec!r}; known: {known}") from None
    return PVTCorner(
        process=ProcessCorner(spec["process"]),
        temperature_c=float(spec.get("temperature_c", 100.0)),
        ir_drop=float(spec.get("ir_drop", 0.0)),
    )


def corner_params(spec: CornerLike) -> dict[str, Any]:
    """The JSON-able parameter dict identifying a corner (for cache keys).

    The single place a :class:`PVTCorner`'s identity is spelled out for
    hashing; round-trips through :func:`resolve_corner`.
    """
    corner = resolve_corner(spec)
    return {
        "process": corner.process.value,
        "temperature_c": corner.temperature_c,
        "ir_drop": corner.ir_drop,
    }


def _corner_key(spec: CornerLike) -> tuple[str, float, float]:
    params = corner_params(spec)
    return (params["process"], params["temperature_c"], params["ir_drop"])


def _make_encoder(name: str):
    from repro.encoding import get_encoder

    return get_encoder(name)


@lru_cache(maxsize=32)
def _characterized_bus(
    corner_key: tuple[str, float, float],
    n_bits: int = 32,
    coupling_scale: float | None = None,
):
    """Per-process memo of bus characterisations.

    A sweep revisits the same handful of (corner, width, coupling)
    combinations hundreds of times, so each worker process resolves each
    combination exactly once.  The construction itself goes through the
    bus layer's table resolver: with an active characterization database
    (:mod:`repro.chardb`) the surfaces come out of the memory-mapped
    artifact; otherwise the live models run.  Both paths are bit-identical,
    so the memo never needs to key on the database.
    """
    from repro.bus import BusDesign, CharacterizedBus
    from repro.encoding.analysis import design_for_width

    process, temperature_c, ir_drop = corner_key
    corner = PVTCorner(ProcessCorner(process), temperature_c, ir_drop)
    # Widths other than the paper's 32 bits (encoders with redundant wires)
    # go through the encoding study's redesign flow, so a sweep point and
    # the encoding experiment agree on what an N-wire bus looks like.
    design = design_for_width(BusDesign.paper_bus(), n_bits)
    if coupling_scale is not None and coupling_scale != 1.0:
        design = design.with_modified_coupling(coupling_scale)
    return CharacterizedBus(design, corner)


#: Most segment summaries :func:`_segment_summaries` keeps per process.  A
#: summary takes ~0.5 kB, so this is ~25 MB: every workload of a sweep of
#: short runs, or a few dozen paper-scale runs at the paper's window.
_SUMMARY_MEMO_SEGMENTS = 50_000
_summary_memo: OrderedDict[Hashable, tuple[TraceSummary, ...]] = OrderedDict()
# Inline work-queue runners execute jobs on several scheduler threads.
_summary_memo_lock = threading.Lock()


def _forget_summaries() -> None:
    """Start a forked child with an empty memo and a fresh lock.

    The passes a worker makes (and counts) then depend only on the jobs it
    runs, and a parent thread holding the lock at fork time cannot leave
    the child's copy locked.
    """
    global _summary_memo_lock
    _summary_memo_lock = threading.Lock()
    _summary_memo.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_summaries)


def _topology_key(topology: NeighborTopology) -> tuple[int, bytes, bytes, float]:
    """The hashable identity of a (dataclass-of-arrays) wire topology."""
    return (
        topology.n_wires,
        topology.left_is_shield.tobytes(),
        topology.right_is_shield.tobytes(),
        topology.secondary_weight,
    )


def _segment_summaries(
    key: Hashable,
    source: TraceSource,
    segmenter: ChunkSegmenter,
    topology: NeighborTopology,
    jobs: int | None,
) -> tuple[TraceSummary, ...]:
    """The statistics pass of ``source``, memoized per process under ``key``.

    An LRU bounded in summaries held; ``key`` must cover every input of the
    summaries (see :func:`dvs_run`).  Work-queue workers are persistent
    processes, so a worker's memo stays warm across the jobs it runs.
    Stored summaries are read-only.
    """
    from repro.runtime.parallel import statistics_pass
    from repro.telemetry import get_telemetry

    telemetry = get_telemetry()
    with _summary_memo_lock:
        summaries = _summary_memo.get(key)
        if summaries is not None:
            _summary_memo.move_to_end(key)
    if summaries is not None:
        telemetry.count("tasks.summaries.hits")
        return summaries
    telemetry.count("tasks.summaries.misses")
    # The pass runs unlocked: two threads missing one key both compute it.
    summaries = tuple(statistics_pass([(source, segmenter)], topology, jobs=jobs)[0])
    for summary in summaries:
        summary.worst_coupling_values.flags.writeable = False
        summary.worst_coupling_counts.flags.writeable = False
    with _summary_memo_lock:
        _summary_memo[key] = summaries
        held = sum(map(len, _summary_memo.values()))
        while held > _SUMMARY_MEMO_SEGMENTS:
            held -= len(_summary_memo.popitem(last=False)[1])
    return summaries


def _control_defaults(n_cycles: int, window: int | None, ramp: int | None):
    """The experiment registry's scaled-down control-loop defaults."""
    if window is None:
        window = max(500, n_cycles // 20)
    if ramp is None:
        ramp = max(150, n_cycles // 60)
    return window, ramp


def _chardb_context(chardb: str | None):
    """Explicit characterization-database activation for one task body.

    ``None`` leaves the ambient database (the ``REPRO_CHARDB`` environment
    variable, inherited by worker processes) in effect.  A path activates
    that database for the duration of the task — the parameter also rides in
    the job params, where ``JobSpec.key`` content-addresses the file so cached
    results follow the artifact, not the path string.
    """
    if chardb is None:
        from contextlib import nullcontext

        return nullcontext()
    from repro.chardb import use_chardb

    return use_chardb(chardb)


def _dvs_job(
    benchmark: str,
    corner: CornerLike,
    n_cycles: int,
    seed: int,
    window_cycles: int | None,
    ramp_delay_cycles: int | None,
    encoder: str | None,
    coupling_scale: float | None,
    warmup_fraction: float,
    workload: str | None,
) -> tuple[tuple, TraceSource, DVSBusSystem, ChunkSegmenter, int]:
    """Everything a :func:`dvs_run` job simulates, built without simulating.

    Returns the summary memo key, the workload source, the closed-loop
    system, its control segmenter and the warm-up cycles.
    """
    from repro.core.dvs_system import DVSBusSystem
    from repro.trace.generator import benchmark_trace_source
    from repro.trace.stream import EncodedTraceSource

    if encoder == "unencoded":
        encoder = None
    if workload is not None:
        from repro.trace.workloads import resolve_workload, workload_fingerprint

        identity: tuple = ("workload", workload, workload_fingerprint(workload))
        source = resolve_workload(workload, n_cycles=n_cycles, seed=seed)
    else:
        identity = ("benchmark", benchmark)
        source = benchmark_trace_source(benchmark, n_cycles=n_cycles, seed=seed)
    if encoder is not None:
        source = EncodedTraceSource(source, _make_encoder(encoder))
    bus = _characterized_bus(_corner_key(corner), source.n_bits, coupling_scale)
    # Size the control-loop heuristics from the trace actually streamed:
    # file-backed workload specs keep their recorded length, which can differ
    # from the n_cycles parameter (generative sources make the two equal).
    window, ramp = _control_defaults(source.n_cycles, window_cycles, ramp_delay_cycles)
    system = DVSBusSystem(bus, window_cycles=window, ramp_delay_cycles=ramp)
    warmup = int(warmup_fraction * source.n_cycles)
    segmenter = system.control_segmenter(source.n_cycles, warmup_cycles=warmup)
    key = (identity, n_cycles, seed, encoder, _topology_key(bus.design.topology), segmenter)
    return key, source, system, segmenter, warmup


# --------------------------------------------------------------------------- #
# Built-in tasks
# --------------------------------------------------------------------------- #
@task("dvs_run")
def dvs_run(
    benchmark: str = "crafty",
    corner: CornerLike = "typical",
    n_cycles: int = 20_000,
    seed: int = 2005,
    window_cycles: int | None = None,
    ramp_delay_cycles: int | None = None,
    encoder: str | None = None,
    coupling_scale: float | None = None,
    warmup_fraction: float = 0.0,
    jobs: int | None = None,  # repro: key-irrelevant worker count; results are bit-identical
    workload: str | None = None,
    chardb: str | None = None,
) -> dict[str, Any]:
    """One closed-loop DVS run: workload x corner x encoding x bus variant.

    This is the workhorse grid point of every sweep: stream the workload
    trace (optionally through an encoder), characterise the (possibly
    modified) bus at the corner, run the closed control loop and report
    scalar metrics.  The whole point runs in O(chunk) memory, so sweeps can
    scale ``n_cycles`` to the paper's 10 M without touching worker sizing.
    ``jobs > 1`` fans the statistics pass of this single run out over worker
    processes, bit-identical thanks to the deterministic reduction.

    The statistics pass is memoized per process (:func:`_segment_summaries`):
    its segment summaries depend on the workload (``workload`` or
    ``benchmark``, ``n_cycles``, ``seed``, ``encoder`` and, for ``file:``
    specs, the files' content), the wire topology and the control
    segmentation, but not on ``corner``, ``chardb`` or ``coupling_scale``
    (which changes the parasitics, not the wiring).  The grid points of a
    corner sweep therefore analyse each workload once per worker process and
    only replay the closed loop; results are bit-identical either way.

    The workload is named either by ``benchmark`` (a synthetic Table 1
    profile, the historical axis) or by ``workload`` -- any spec the
    registry (:mod:`repro.trace.workloads`) resolves, e.g. ``cpu:memcopy``
    or ``simpoint:crafty`` -- which takes precedence and is reported back in
    the ``benchmark`` result field so sweep reports stay uniform.  ``file:``
    specs are content-addressed automatically: ``JobSpec.key`` folds the
    referenced files' digest into the cache key, so a regenerated trace
    file never replays a stale cached result.
    """
    from repro.telemetry import get_telemetry

    with _chardb_context(chardb):
        key, source, system, segmenter, warmup = _dvs_job(
            benchmark, corner, n_cycles, seed, window_cycles, ramp_delay_cycles,
            encoder, coupling_scale, warmup_fraction, workload,
        )
        with get_telemetry().span("dvs.run", workload=source.name, cycles=source.n_cycles):
            summaries = _segment_summaries(
                key, source, segmenter, system.bus.design.topology, jobs
            )
            result = system.replay(summaries, warmup_cycles=warmup)

    return {
        "benchmark": workload if workload is not None else benchmark,
        "corner": resolve_corner(corner).label,
        "n_cycles": result.n_cycles,
        "n_wires": source.n_bits,
        "encoder": encoder or "unencoded",
        "coupling_scale": coupling_scale if coupling_scale is not None else 1.0,
        "window_cycles": system.window_cycles,
        "ramp_delay_cycles": system.ramp_delay_cycles,
        "energy_gain_percent": result.energy_gain_percent,
        "error_rate_percent": result.average_error_rate * 100.0,
        "total_errors": result.total_errors,
        "failures": result.failures,
        "min_voltage_mv": result.minimum_voltage_reached * 1000.0,
        "final_voltage_mv": result.final_voltage * 1000.0,
    }


@task("characterize")
def characterize(
    corner: CornerLike = "typical",
    coupling_scale: float | None = None,
    chardb: str | None = None,
) -> dict[str, Any]:
    """Voltage limits of the paper bus at one corner (no workload)."""
    with _chardb_context(chardb):
        bus = _characterized_bus(_corner_key(corner), 32, coupling_scale)
        clocking = bus.design.clocking
        floor_corner = PVTCorner(resolve_corner(corner).process, 100.0, 0.10)
        return {
            "corner": resolve_corner(corner).label,
            "coupling_scale": coupling_scale if coupling_scale is not None else 1.0,
            "clock_ghz": clocking.frequency / 1e9,
            "main_deadline_ps": clocking.main_deadline * 1e12,
            "shadow_deadline_ps": clocking.shadow_deadline * 1e12,
            "zero_error_voltage_mv": bus.zero_error_voltage() * 1000.0,
            "regulator_floor_mv": bus.minimum_safe_voltage(floor_corner) * 1000.0,
        }


@task("experiment")
def experiment(identifier: str, **kwargs: Any) -> dict[str, Any]:
    """Run one entry of the paper's experiment registry and keep its report.

    The cached payload carries the formatted report text -- exactly what
    ``python -m repro run <id>`` prints -- plus the run parameters and the
    result's stable JSON serialisation (:mod:`repro.analysis.serialize`),
    which is what ``python -m repro report`` renders into Markdown/SVG
    artifacts without re-simulating anything.
    """
    from repro.analysis.experiments import EXPERIMENTS
    from repro.analysis.serialize import experiment_payload

    try:
        entry = EXPERIMENTS[identifier]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {identifier!r}; known: {known}") from None
    # The database rides in the job params (so JobSpec.key content-addresses
    # it) but is activated ambiently rather than forwarded: experiment runners
    # build their buses through the bus layer's resolver, not a parameter.
    chardb = kwargs.pop("chardb", None)
    with _chardb_context(chardb):
        result, text = entry.runner(**kwargs)
    payload = experiment_payload(identifier, result)
    return {
        "identifier": identifier,
        "params": dict(kwargs),
        "text": text,
        "kind": payload["kind"],
        "data": payload["data"],
    }
