"""Kernel/chunk equivalence sweeps for the streaming CPU-kernel workload.

Mirror of ``tests/core/test_engine_equivalence.py`` for the
:class:`~repro.trace.stream.CpuKernelTraceSource`: the closed-loop DVS run
over an executed-kernel trace must be bit-identical to a single scalar
monolithic reference for every adversarial chunking (one-cycle chunks,
window straddles, prime sizes) on both kernels and over worker processes,
and the registry-resolved ``cpu:`` spec must stream the exact same workload.
"""

import numpy as np
import pytest

from repro.core.dvs_system import DVSBusSystem
from repro.cpu import kernel_seed_sequence
from repro.trace import CpuKernelTraceSource, resolve_workload
from tests.core.conftest import PASSES, configured_pass
from tests.pass_plan import SCALAR, forced_plan

#: Control window of the fast test loop.
WINDOW = 500

#: Adversarial chunkings: window straddles and primes (chunk=1 runs on the
#: same trace -- kernel traces are short enough to afford it).
CHUNK_SIZES = (1, WINDOW - 1, WINDOW, WINDOW + 1, 997)

N_CYCLES = 3_000


@pytest.fixture(scope="module")
def source():
    # memcopy mixes high-entropy loads with stores (held bus words), so the
    # trace exercises both quiet and busy coupling patterns.  Seeded with the
    # suite's name-keyed derivation so the registry spec resolves to the
    # exact same workload.
    return CpuKernelTraceSource("memcopy", N_CYCLES, seed=kernel_seed_sequence(31, "memcopy"))


@pytest.fixture(scope="module")
def reference(typical_corner_bus, source):
    system = DVSBusSystem(typical_corner_bus, window_cycles=WINDOW, ramp_delay_cycles=150)
    with forced_plan(SCALAR, source.n_cycles):
        return system.run(source.materialize())


def _assert_dvs_identical(measured, reference):
    assert measured.total_errors == reference.total_errors
    assert measured.failures == reference.failures
    np.testing.assert_array_equal(measured.window_error_rates, reference.window_error_rates)
    np.testing.assert_array_equal(measured.window_voltages, reference.window_voltages)
    assert [(e.cycle, e.voltage) for e in measured.voltage_events] == [
        (e.cycle, e.voltage) for e in reference.voltage_events
    ]
    assert measured.minimum_voltage_reached == reference.minimum_voltage_reached
    for component in ("bus_dynamic", "leakage", "flipflop_clocking", "recovery_overhead"):
        assert getattr(measured.energy, component) == getattr(reference.energy, component)


class TestCpuKernelDVSEquivalence:
    @pytest.mark.parametrize("config", PASSES)
    @pytest.mark.parametrize("chunk_cycles", CHUNK_SIZES)
    def test_adversarial_chunkings(
        self, typical_corner_bus, source, reference, chunk_cycles, config
    ):
        system = DVSBusSystem(typical_corner_bus, window_cycles=WINDOW, ramp_delay_cycles=150)
        with configured_pass(config, chunk_cycles) as kwargs:
            measured = system.run(source, **kwargs)
        _assert_dvs_identical(measured, reference)

    @pytest.mark.parametrize("config", PASSES)
    def test_registry_spec_is_the_same_workload(
        self, typical_corner_bus, source, reference, config
    ):
        resolved = resolve_workload("cpu:memcopy", n_cycles=N_CYCLES, seed=31)
        system = DVSBusSystem(typical_corner_bus, window_cycles=WINDOW, ramp_delay_cycles=150)
        with configured_pass(config, 997) as kwargs:
            measured = system.run(resolved, **kwargs)
        _assert_dvs_identical(measured, reference)
