"""Statistics-pass configurations shared by the chunk-equivalence sweeps."""

from __future__ import annotations

from repro.bus.engine import ENGINE_SCALAR, ENGINE_VECTORIZED, ENGINES

#: Worker processes of the ``"parallel"`` configuration.
PARALLEL_JOBS = 2

#: Keyword arguments of each configuration, by test id: either kernel run
#: inline, and the vectorized kernels fanned out over a worker pool (``jobs``).
PASS_KWARGS = {
    ENGINE_VECTORIZED: {"engine": ENGINE_VECTORIZED},
    ENGINE_SCALAR: {"engine": ENGINE_SCALAR},
    "parallel": {"engine": ENGINE_VECTORIZED, "jobs": PARALLEL_JOBS},
}

#: Every configuration a driver sweep must agree on, bit for bit.
PASSES = ENGINES + ("parallel",)


def pass_kwargs(name: str) -> dict:
    """The ``engine``/``jobs`` keyword arguments of a configuration."""
    return dict(PASS_KWARGS[name])
