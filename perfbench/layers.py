"""Per-layer self-time attribution for the traced benchmark run.

The traced run wraps each layer's public entry points (``ENTRY_POINTS``)
with timing code installed from this file; nothing in ``src/`` changes.
Every wrapped call opens a frame on a per-thread stack, and when it returns
the frame's *self* time -- its duration minus the time of the wrapped calls
nested inside it -- is charged to its layer.  A call into the layer already
on top of the stack passes straight through, so an entry point calling
another entry point of the same layer is one call, not two.  Generator entry
points (``TraceSource.chunks``) are charged for the time spent inside each
``next()``, not for the consumer's work between items.

Worker processes inherit the wrappers through ``fork``.  There the records
go to the ``repro.telemetry`` collector the worker runs under, as
``perfbench.<layer>.*`` counters; the parallel scheduler and the work queue
ship those snapshots back and merge them into the parent's collector, which
is how work done in workers reaches the per-layer numbers.

The tracer never imports a module itself, so a traced process imports
exactly what an untraced one does.  Entry points of modules already imported
are wrapped when the tracer is installed; the others are wrapped by an
import hook the moment the program first imports their module.

The ``wait`` layer holds the calls in which a thread blocks on another
process (a worker's future, a work-queue job, the server's reply), so that
the self time of the layer that waits is its own work only.

An entry point missing from the tree under test is skipped and listed in
``Tracer.missing``: its layer then reports zero calls instead of failing the
run.
"""

from __future__ import annotations

import functools
import importlib.abc
import inspect
import os
import sys
import threading
import time
from collections.abc import Callable, Iterator
from typing import Any

#: Counter prefix for records made in worker processes.
COUNTER_PREFIX = "perfbench."


def _result_cycles(args: tuple, kwargs: dict, result: Any) -> int:
    return int(getattr(result, "n_cycles", 0))


def _argument_cycles(args: tuple, kwargs: dict, result: Any) -> int:
    return int(getattr(args[1], "n_cycles", 0)) if len(args) > 1 else 0


def _item_cycles(item: Any) -> int:
    return int(getattr(item, "n_cycles", 0))


#: layer -> [(module, attribute path, units-of-work extractor or None)].  For
#: a generator entry point the extractor is applied to each yielded item.
ENTRY_POINTS: dict[str, list[tuple[str, str, Callable[..., int] | None]]] = {
    "trace": [
        ("repro.trace.stream", "TraceSource.chunks", _item_cycles),
    ],
    "interconnect": [
        ("repro.bus.bus_model", "analyze_trace_statistics", _result_cycles),
    ],
    "bus.reduce": [
        ("repro.bus.bus_model", "TraceStatisticsAccumulator.accumulate", None),
        ("repro.bus.bus_model", "TraceStatisticsAccumulator.merge_summary", None),
        ("repro.bus.bus_model", "TraceStatisticsAccumulator.summary", None),
        ("repro.bus.bus_model", "TraceStatistics.summarize", None),
        ("repro.bus.bus_model", "TraceStatistics.slice", None),
    ],
    "core.replay": [
        ("repro.core.dvs_system", "DVSRunState.feed", _argument_cycles),
        ("repro.core.dvs_system", "DVSRunState.feed_summary", _argument_cycles),
        ("repro.core.dvs_system", "DVSRunState.finish", None),
    ],
    "energy": [
        ("repro.core.fixed_vs", "evaluate_fixed_scaling", None),
        ("repro.bus.bus_model", "CharacterizedBus.energy_from_voltage_totals", None),
        ("repro.bus.bus_model", "CharacterizedBus.energy_at_constant_supply", None),
        ("repro.bus.bus_model", "CharacterizedBus.energy_breakdown", None),
    ],
    "bus.characterize": [
        ("repro.chardb.active", "resolve_table", None),
        ("repro.bus.characterization", "characterize_bus", None),
    ],
    "chardb.load": [
        ("repro.chardb.database", "CharacterizationDatabase.open", None),
    ],
    "parallel": [
        ("repro.runtime.parallel", "ParallelChunkScheduler.segment_summaries", None),
        ("repro.runtime.parallel", "ParallelChunkScheduler.close", None),
    ],
    "cache.get": [
        ("repro.runtime.cache", "ResultCache.get", None),
    ],
    "cache.put": [
        ("repro.runtime.cache", "ResultCache.put", None),
    ],
    "wait": [
        ("concurrent.futures._base", "Future.result", None),
        ("repro.runtime.workqueue", "JobHandle.result", None),
        ("repro.server.client", "ReproClient.submit", None),
    ],
}


class _Frame:
    __slots__ = ("layer", "start", "child")

    def __init__(self, layer: str, start: float) -> None:
        self.layer = layer
        self.start = start
        self.child = 0.0


class Tracer:
    """Installs the layer wrappers and accumulates per-layer self time.

    Records are keyed by ``(main thread?, layer, parent layer)`` so that,
    for example, workload generation done inside the parallel scheduler's
    master loop can be told apart from generation in the serial loop.
    Threads other than the main thread keep their own stacks; their records
    count in the layer totals but not in the main thread's attributed share
    of the wall clock (:meth:`main_thread_self_s`).
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self.missing: list[str] = []
        self._records: dict[tuple[bool, str, str], list[float]] = {}
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _after_fork(self) -> None:
        self._local = threading.local()

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, layer: str) -> _Frame | None:
        stack = self._stack()
        if stack and stack[-1].layer == layer:
            return None
        frame = _Frame(layer, time.perf_counter())
        stack.append(frame)
        return frame

    def _leave(self, frame: _Frame, calls: int, units: int) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        total = end - frame.start
        parent = stack[-1].layer if stack else ""
        if stack:
            stack[-1].child += total
        self._record(frame.layer, parent, total - frame.child, calls, units)

    def _record(self, layer: str, parent: str, self_s: float, calls: int, units: int) -> None:
        if os.getpid() != self._pid:
            from repro.telemetry import get_telemetry

            telemetry = get_telemetry()
            telemetry.count(f"{COUNTER_PREFIX}{layer}.self_s", self_s)
            telemetry.count(f"{COUNTER_PREFIX}{layer}.calls", calls)
            telemetry.count(f"{COUNTER_PREFIX}{layer}.units", units)
            return
        key = (threading.current_thread() is threading.main_thread(), layer, parent)
        with self._lock:
            record = self._records.setdefault(key, [0.0, 0, 0])
            record[0] += self_s
            record[1] += calls
            record[2] += units

    def add(self, layer: str, self_s: float) -> None:
        """Charge time measured outside any wrapper (one call) to ``layer``."""
        self._record(layer, "", self_s, 1, 0)

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def _wrap(self, layer: str, func: Callable, units: Callable | None) -> Callable:
        tracer = self
        if inspect.isgeneratorfunction(func):

            @functools.wraps(func)
            def generator_wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
                generator = func(*args, **kwargs)
                calls = 1
                try:
                    while True:
                        frame = tracer._enter(layer)
                        try:
                            item = next(generator)
                        except StopIteration:
                            if frame is not None:
                                tracer._leave(frame, calls, 0)
                            return
                        except BaseException:
                            if frame is not None:
                                tracer._leave(frame, calls, 0)
                            raise
                        if frame is not None:
                            tracer._leave(frame, calls, units(item) if units else 0)
                            calls = 0
                        yield item
                finally:
                    generator.close()

            return generator_wrapper

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = tracer._enter(layer)
            if frame is None:
                return func(*args, **kwargs)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer._leave(frame, 1, units(args, kwargs, result) if units else 0)

        return wrapper

    def install(self) -> None:
        """Wrap every entry point, now or when the program imports its module."""
        pending: dict[str, list[tuple[str, str, Callable | None]]] = {}
        for layer, entries in ENTRY_POINTS.items():
            for module_name, attribute, units in entries:
                module = sys.modules.get(module_name)
                if module is None:
                    pending.setdefault(module_name, []).append((layer, attribute, units))
                else:
                    self._patch(module, layer, attribute, units)
        if pending:
            sys.meta_path.insert(0, _PatchOnImport(self, pending))

    def _patch(self, module: Any, layer: str, attribute: str, units: Callable | None) -> None:
        """Replace one entry point of ``module`` with its timing wrapper.

        A module-level function is also replaced in every imported ``repro``
        module that bound it by name (``from x import f``).
        """
        owner: Any = module
        *parents, name = attribute.split(".")
        for parent in parents:
            owner = getattr(owner, parent, None)
        raw = vars(owner).get(name) if owner is not None else None
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(self._wrap(layer, raw.__func__, units))
        elif callable(raw):
            wrapped = self._wrap(layer, raw, units)
        else:
            self.missing.append(f"{module.__name__}.{attribute}")
            return
        setattr(owner, name, wrapped)
        if owner is not module:
            return
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and (
                vars(other).get(name) is raw
            ):
                setattr(other, name, wrapped)

    # ------------------------------------------------------------------ #
    # Reading back
    # ------------------------------------------------------------------ #
    def layer_totals(self, counters: dict[str, float] | None = None) -> dict[str, dict[str, float]]:
        """Per layer ``self_s``, ``calls`` and ``units``: this process plus workers.

        ``counters`` are the parent collector's telemetry counters, which hold
        the records merged back from worker processes.
        """
        totals: dict[str, dict[str, float]] = {}

        def entry(layer: str) -> dict[str, float]:
            return totals.setdefault(layer, {"self_s": 0.0, "calls": 0.0, "units": 0.0})

        with self._lock:
            for (_, layer, _), (self_s, calls, units) in self._records.items():
                row = entry(layer)
                row["self_s"] += self_s
                row["calls"] += calls
                row["units"] += units
        for name, value in (counters or {}).items():
            if name.startswith(COUNTER_PREFIX):
                layer, _, field = name[len(COUNTER_PREFIX):].rpartition(".")
                entry(layer)[field] += value
        return totals

    def main_thread_self_s(self) -> float:
        """Self time recorded on this process's main thread, over all layers."""
        with self._lock:
            return sum(record[0] for key, record in self._records.items() if key[0])

    def nested_self_s(self, layer: str, parent: str) -> float:
        """Self time of ``layer`` spent directly under ``parent`` in this process."""
        with self._lock:
            return sum(
                record[0]
                for (_, name, under), record in self._records.items()
                if name == layer and under == parent
            )

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready dump of this process's records (read back by ``records_from``)."""
        with self._lock:
            return {
                "records": [
                    [is_main, layer, parent, *record]
                    for (is_main, layer, parent), record in self._records.items()
                ],
                "missing": list(self.missing),
            }

    def merge_dump(self, dump: dict[str, Any], main_thread: bool = True) -> None:
        """Fold another process's :meth:`as_dict` into this tracer's records.

        ``main_thread=False`` drops that process's main-thread records: a
        server's main thread only waits in its accept loop for as long as
        the server lives, while its handler threads do the work.
        """
        with self._lock:
            for is_main, layer, parent, self_s, calls, units in dump.get("records", ()):
                if is_main and not main_thread:
                    continue
                record = self._records.setdefault((bool(is_main), layer, parent), [0.0, 0, 0])
                record[0] += self_s
                record[1] += calls
                record[2] += units


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Import hook: wraps a pending module's entry points once it has run."""

    def __init__(self, tracer: Tracer, pending: dict[str, list]) -> None:
        self._tracer = tracer
        self._pending = pending

    def find_spec(self, fullname: str, path: Any, target: Any = None) -> Any:
        if fullname not in self._pending:
            return None
        for finder in sys.meta_path:
            if finder is not self and hasattr(finder, "find_spec"):
                spec = finder.find_spec(fullname, path, target)
                if spec is not None:
                    break
        else:
            return None
        if spec.loader is not None:
            spec.loader = _PatchingLoader(spec.loader, self._tracer, self._pending.pop(fullname))
        return spec


class _PatchingLoader(importlib.abc.Loader):
    """Runs a module with its own loader, then wraps its entry points."""

    def __init__(self, loader: Any, tracer: Tracer, entries: list) -> None:
        self._loader = loader
        self._tracer = tracer
        self._entries = entries

    def __getattr__(self, name: str) -> Any:
        return getattr(self._loader, name)

    def create_module(self, spec: Any) -> Any:
        return self._loader.create_module(spec)

    def exec_module(self, module: Any) -> None:
        self._loader.exec_module(module)
        for entry in self._entries:
            self._tracer._patch(module, *entry)
