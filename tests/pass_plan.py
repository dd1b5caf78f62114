"""The test seam of the statistics pass: force its kernel and chunk length.

Production code picks both from the bus width in one place,
:func:`repro.bus.bus_model.kernel_plan`, and offers no setting for either.
The bit-identity harnesses patch that one function to reach the scalar
reference and odd chunk lengths on the paper's 32-bit bus.  A pass started
inside :func:`forced_plan` forks its worker pool after the patch, so the
workers inherit it.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

from repro.bus import bus_model
from repro.trace.stream import DEFAULT_CHUNK_CYCLES

#: The integer-lane kernels, wherever the bus width allows them.
VECTORIZED = "vectorized"
#: The per-wire reference kernels.
SCALAR = "scalar"
#: Both kernels, in the order the sweeps parametrize over them.
KERNELS = (VECTORIZED, SCALAR)


@contextmanager
def forced_plan(kernel: str = VECTORIZED, chunk_cycles: int | None = None) -> Iterator[None]:
    """Run every statistics pass inside on ``kernel``, in chunks of ``chunk_cycles``.

    ``VECTORIZED`` keeps the production kernel choice; ``chunk_cycles=None``
    keeps the chunk length that goes with the kernel.
    """
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    production = bus_model.kernel_plan

    def plan(n_bits: int) -> tuple[bool, int]:
        lanes, chunk = production(n_bits) if kernel == VECTORIZED else (False, DEFAULT_CHUNK_CYCLES)
        return lanes, chunk if chunk_cycles is None else chunk_cycles

    bus_model.kernel_plan = plan
    try:
        yield
    finally:
        bus_model.kernel_plan = production
