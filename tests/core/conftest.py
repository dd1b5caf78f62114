"""Statistics-pass configurations shared by the chunk-equivalence sweeps."""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

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
