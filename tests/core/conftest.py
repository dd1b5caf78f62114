"""Statistics-pass configurations shared by the chunk-equivalence sweeps."""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

from repro.runtime.parallel import ChunkSegmenter, statistics_pass
from tests.pass_plan import SCALAR, VECTORIZED, forced_plan

#: Worker processes of the ``"parallel"`` configuration.
PARALLEL_JOBS = 2

#: Kernel and worker count of each configuration, by test id: either kernel
#: run inline, and the vectorized kernels fanned out over a worker pool.
PASS_PLANS = {
    VECTORIZED: (VECTORIZED, None),
    SCALAR: (SCALAR, None),
    "parallel": (VECTORIZED, PARALLEL_JOBS),
}

#: Every configuration a driver sweep must agree on, bit for bit.
PASSES = tuple(PASS_PLANS)


@contextmanager
def configured_pass(name: str, chunk_cycles: int | None = None) -> Iterator[dict]:
    """Force configuration ``name``'s kernel and ``chunk_cycles``.

    Yields the ``jobs`` keyword arguments the driver call takes.
    """
    kernel, jobs = PASS_PLANS[name]
    with forced_plan(kernel, chunk_cycles):
        yield {} if jobs is None else {"jobs": jobs}


def fixed_vs_workload(workload, topology, jobs: int | None = None):
    """What a fixed-VS sweep evaluates under a configuration.

    :func:`~repro.core.fixed_vs.evaluate_fixed_scaling` takes no worker
    count, so with the ``jobs`` of the ``"parallel"`` configuration the
    workload is first reduced to its whole-run summary on a worker pool.
    """
    if jobs is None:
        return workload
    ((summary,),) = statistics_pass(
        [(workload, ChunkSegmenter(n_cycles=workload.n_cycles))], topology, jobs=jobs
    )
    return summary
