"""Property-style engine/chunk equivalence sweeps over adversarial shapes.

The vectorized engine's window-batching invariant -- the controller advances
per measurement window, chunks may split *anywhere* -- must survive the
nastiest chunkings: one cycle per chunk, one cycle less/more than the
control window, and prime sizes co-prime with everything.  Each driver
(closed-loop dynamic DVS, the per-window oracle, the fixed-VS baseline) is
swept over all of them x both kernels x worker counts and compared,
exactly, against a single scalar single-chunk reference.  Kernels and chunk
lengths are forced through the test seam (:mod:`tests.pass_plan`).
"""

import numpy as np
import pytest

from repro.core.dvs_system import DVSBusSystem
from repro.core.fixed_vs import evaluate_fixed_scaling
from repro.core.oracle import oracle_voltage_schedule
from repro.trace import SyntheticTraceSource
from tests.core.conftest import PASSES, configured_pass
from tests.pass_plan import SCALAR, forced_plan

#: Control window of the fast test loop.
WINDOW = 1_000

#: Adversarial chunkings: window straddles and primes.  A one-cycle chunk is
#: exercised separately on a shorter trace (it streams one chunk per cycle).
CHUNK_SIZES = (WINDOW - 1, WINDOW, WINDOW + 1, 997, 2_503)

N_CYCLES = 12_000
TINY_CYCLES = 2_000


@pytest.fixture(scope="module")
def source():
    return SyntheticTraceSource("crafty", N_CYCLES, seed=31)


@pytest.fixture(scope="module")
def tiny_source():
    return SyntheticTraceSource("vortex", TINY_CYCLES, seed=47)


def _system(bus):
    return DVSBusSystem(bus, window_cycles=WINDOW, ramp_delay_cycles=300)


def _assert_dvs_identical(measured, reference):
    assert measured.total_errors == reference.total_errors
    assert measured.failures == reference.failures
    np.testing.assert_array_equal(
        measured.window_error_rates, reference.window_error_rates
    )
    np.testing.assert_array_equal(measured.window_voltages, reference.window_voltages)
    assert [(e.cycle, e.voltage) for e in measured.voltage_events] == [
        (e.cycle, e.voltage) for e in reference.voltage_events
    ]
    assert measured.minimum_voltage_reached == reference.minimum_voltage_reached
    for component in ("bus_dynamic", "leakage", "flipflop_clocking", "recovery_overhead"):
        assert getattr(measured.energy, component) == getattr(
            reference.energy, component
        )


@pytest.fixture(scope="module")
def dvs_reference(typical_corner_bus, source):
    with forced_plan(SCALAR, source.n_cycles):
        return _system(typical_corner_bus).run(source.materialize())


class TestDynamicDVS:
    @pytest.mark.parametrize("config", PASSES)
    @pytest.mark.parametrize("chunk_cycles", CHUNK_SIZES)
    def test_adversarial_chunkings(
        self, typical_corner_bus, source, dvs_reference, chunk_cycles, config
    ):
        with configured_pass(config, chunk_cycles) as kwargs:
            measured = _system(typical_corner_bus).run(source, **kwargs)
        _assert_dvs_identical(measured, dvs_reference)

    @pytest.mark.parametrize("config", PASSES)
    def test_one_cycle_chunks(self, typical_corner_bus, tiny_source, config):
        system = DVSBusSystem(typical_corner_bus, window_cycles=500, ramp_delay_cycles=150)
        with forced_plan(SCALAR, TINY_CYCLES):
            reference = system.run(tiny_source.materialize())
        with configured_pass(config, 1) as kwargs:
            measured = system.run(tiny_source, **kwargs)
        _assert_dvs_identical(measured, reference)


class TestOracle:
    @pytest.mark.parametrize("config", PASSES)
    @pytest.mark.parametrize("chunk_cycles", CHUNK_SIZES)
    def test_adversarial_chunkings(self, typical_corner_bus, source, chunk_cycles, config):
        # Streamed scalar single-chunk run: the energy reference with the
        # exact same (chunk-invariant) accumulation contract.
        with forced_plan(SCALAR, source.n_cycles):
            reference = oracle_voltage_schedule(
                typical_corner_bus, source, 0.02, window_cycles=WINDOW
            )
        with configured_pass(config, chunk_cycles) as kwargs:
            measured = oracle_voltage_schedule(
                typical_corner_bus, source, 0.02, window_cycles=WINDOW, **kwargs
            )
        np.testing.assert_array_equal(
            measured.window_voltages, reference.window_voltages
        )
        np.testing.assert_array_equal(
            measured.window_error_rates, reference.window_error_rates
        )
        for component in ("bus_dynamic", "leakage", "flipflop_clocking", "recovery_overhead"):
            assert getattr(measured.energy, component) == getattr(
                reference.energy, component
            )

    @pytest.mark.parametrize("config", PASSES)
    def test_one_cycle_chunks(self, typical_corner_bus, tiny_source, config):
        with forced_plan(SCALAR, TINY_CYCLES):
            reference = oracle_voltage_schedule(
                typical_corner_bus, tiny_source, 0.02, window_cycles=500
            )
        with configured_pass(config, 1) as kwargs:
            measured = oracle_voltage_schedule(
                typical_corner_bus, tiny_source, 0.02, window_cycles=500, **kwargs
            )
        np.testing.assert_array_equal(
            measured.window_voltages, reference.window_voltages
        )
        np.testing.assert_array_equal(
            measured.window_error_rates, reference.window_error_rates
        )


class TestParallelWorkers:
    """True multi-process runs: worker count x chunk size x workload.

    The ``PASSES`` sweeps above run each kernel inline and the vectorized one
    over a two-worker pool; these push more worker counts, workloads and
    options through real worker pools (``jobs``) and demand the same
    bit-identity against the scalar single-chunk reference.
    """

    @pytest.mark.parametrize("n_workers", (2, 3))
    @pytest.mark.parametrize("chunk_cycles", (WINDOW - 1, WINDOW + 1, 997))
    def test_dvs_bit_identity(
        self, typical_corner_bus, source, dvs_reference, n_workers, chunk_cycles
    ):
        with forced_plan(chunk_cycles=chunk_cycles):
            measured = _system(typical_corner_bus).run(source, jobs=n_workers)
        _assert_dvs_identical(measured, dvs_reference)

    def test_dvs_own_pool_via_jobs(self, typical_corner_bus, source, dvs_reference):
        # No explicit scheduler: ``jobs=2`` must build (and clean up) its own.
        with forced_plan(chunk_cycles=2_503):
            measured = _system(typical_corner_bus).run(source, jobs=2)
        _assert_dvs_identical(measured, dvs_reference)

    def test_dvs_scalar_kernels_in_workers(self, typical_corner_bus, source, dvs_reference):
        with forced_plan(SCALAR, 2_503):
            measured = _system(typical_corner_bus).run(source, jobs=2)
        _assert_dvs_identical(measured, dvs_reference)

    def test_dvs_warmup_and_voltage_capture(self, typical_corner_bus, tiny_source):
        system = DVSBusSystem(typical_corner_bus, window_cycles=500, ramp_delay_cycles=150)
        with forced_plan(SCALAR, TINY_CYCLES):
            reference = system.run(
                tiny_source.materialize(), warmup_cycles=600, keep_cycle_voltage=True
            )
        with forced_plan(chunk_cycles=331):
            measured = system.run(
                tiny_source, jobs=2, warmup_cycles=600, keep_cycle_voltage=True
            )
        _assert_dvs_identical(measured, reference)
        np.testing.assert_array_equal(
            measured.per_cycle_voltage, reference.per_cycle_voltage
        )

    @pytest.mark.parametrize("profile", ("vortex", "mgrid"))
    def test_dvs_workload_sweep(self, typical_corner_bus, profile):
        workload = SyntheticTraceSource(profile, TINY_CYCLES, seed=13)
        system = DVSBusSystem(typical_corner_bus, window_cycles=500, ramp_delay_cycles=150)
        with forced_plan(SCALAR, TINY_CYCLES):
            reference = system.run(workload.materialize())
        with forced_plan(chunk_cycles=499):
            measured = system.run(workload, jobs=2)
        _assert_dvs_identical(measured, reference)

    @pytest.mark.parametrize("chunk_cycles", (WINDOW - 1, 997))
    def test_oracle_bit_identity(self, typical_corner_bus, source, chunk_cycles):
        with forced_plan(SCALAR, source.n_cycles):
            reference = oracle_voltage_schedule(
                typical_corner_bus, source, 0.02, window_cycles=WINDOW
            )
        with forced_plan(chunk_cycles=chunk_cycles):
            measured = oracle_voltage_schedule(
                typical_corner_bus, source, 0.02, window_cycles=WINDOW, jobs=2
            )
        np.testing.assert_array_equal(measured.window_voltages, reference.window_voltages)
        np.testing.assert_array_equal(
            measured.window_error_rates, reference.window_error_rates
        )
        for component in ("bus_dynamic", "leakage", "flipflop_clocking", "recovery_overhead"):
            assert getattr(measured.energy, component) == getattr(
                reference.energy, component
            )

    def test_fixed_vs_bit_identity(self, typical_corner_bus, tiny_source):
        with forced_plan(SCALAR, TINY_CYCLES):
            reference = evaluate_fixed_scaling(typical_corner_bus, tiny_source)
        with forced_plan(chunk_cycles=313):
            measured = evaluate_fixed_scaling(typical_corner_bus, tiny_source, jobs=2)
        assert measured.voltage == reference.voltage
        assert measured.error_rate == reference.error_rate
        for component in ("bus_dynamic", "leakage", "flipflop_clocking", "recovery_overhead"):
            assert getattr(measured.energy, component) == getattr(
                reference.energy, component
            )


class TestFixedVS:
    @pytest.mark.parametrize("config", PASSES)
    @pytest.mark.parametrize("chunk_cycles", CHUNK_SIZES + (1,))
    def test_adversarial_chunkings(
        self, typical_corner_bus, tiny_source, chunk_cycles, config
    ):
        with forced_plan(SCALAR, TINY_CYCLES):
            reference = evaluate_fixed_scaling(typical_corner_bus, tiny_source)
        with configured_pass(config, chunk_cycles) as kwargs:
            measured = evaluate_fixed_scaling(typical_corner_bus, tiny_source, **kwargs)
        assert measured.voltage == reference.voltage
        assert measured.error_rate == reference.error_rate
        for component in ("bus_dynamic", "leakage", "flipflop_clocking", "recovery_overhead"):
            assert getattr(measured.energy, component) == getattr(
                reference.energy, component
            )
