"""The static, oracle and baseline drivers evaluate summaries, never the scalar kernel.

On a bus the lane kernels can analyse (the 32-bit paper bus), every driver
reduces its workload through the statistics pass or
:func:`~repro.bus.bus_model.analyze_trace_statistics`; the per-wire reference
kernel (:func:`~repro.bus.bus_model.scalar_trace_statistics`) only runs where
:func:`~repro.bus.bus_model.kernel_plan` falls back to it.  Each case runs one
driver under an enabled telemetry collector and checks the kernel counters.
The same counter shows that the corner study and the oracle reduce each
workload once, however many corners or error targets they evaluate.
"""

import pytest

from repro.analysis.modified_bus import run_modified_bus_study
from repro.analysis.oracle_dvs import run_oracle_residency
from repro.analysis.sensitivity import run_window_length_sensitivity
from repro.analysis.static_scaling import run_corner_gain_study, run_static_voltage_sweep
from repro.baselines.comparison import run_scheme_comparison
from repro.bus.bus_model import kernel_plan
from repro.circuit.pvt import STANDARD_CORNERS, TYPICAL_CORNER
from repro.core.oracle import oracle_voltage_schedule
from repro.encoding import run_encoding_study
from repro.telemetry import Telemetry, use_telemetry
from repro.trace import as_trace_source, generate_suite

N_CYCLES = 4_000
#: Two corners keep the corner studies quick; the paper bus is the same.
CORNERS = {index: STANDARD_CORNERS[index] for index in (1, 5)}


@pytest.fixture(scope="module")
def suite():
    return generate_suite(names=("crafty", "mgrid"), n_cycles=N_CYCLES, seed=5)


#: Each driver as ``run(design, bus, suite)`` on the paper bus at the typical corner.
DRIVERS = {
    "static_sweep": lambda design, bus, suite: run_static_voltage_sweep(bus, suite),
    "corner_gain": lambda design, bus, suite: run_corner_gain_study(
        design, suite, corners=CORNERS
    ),
    "oracle_trace": lambda design, bus, suite: oracle_voltage_schedule(
        bus, suite["crafty"], 0.02, window_cycles=1_000
    ),
    "oracle_source": lambda design, bus, suite: oracle_voltage_schedule(
        bus, as_trace_source(suite["crafty"]), 0.02, window_cycles=1_000
    ),
    "oracle_residency": lambda design, bus, suite: run_oracle_residency(
        design, suite, benchmarks=("crafty", "mgrid"), window_cycles=1_000, bus=bus
    ),
    "scheme_comparison": lambda design, bus, suite: run_scheme_comparison(
        design, list(suite.values()), TYPICAL_CORNER
    ),
    "window_sensitivity": lambda design, bus, suite: run_window_length_sensitivity(
        bus, suite["crafty"], window_lengths=(500, 1_000)
    ),
    "encoding_study": lambda design, bus, suite: run_encoding_study(
        suite["crafty"], window_cycles=500, ramp_delay_cycles=150
    ),
    "modified_bus": lambda design, bus, suite: run_modified_bus_study(
        design, suite, targets=(0.0, 0.02), window_cycles=1_000, ramp_delay_cycles=300
    ),
}


@pytest.mark.parametrize("driver", list(DRIVERS))
def test_driver_never_runs_the_scalar_kernel(
    driver, paper_design, typical_corner_bus, suite
):
    assert paper_design.n_bits == 32
    telemetry = Telemetry(label=f"summary-only-{driver}")
    with use_telemetry(telemetry):
        DRIVERS[driver](paper_design, typical_corner_bus, suite)
    counters = telemetry.metrics.counters
    assert counters.get("kernel.invocations.scalar", 0) == 0
    assert counters.get("kernel.invocations.vectorized", 0) > 0


def _vectorized_passes(run) -> int:
    # Every trace fits one kernel chunk, so one invocation is one pass.
    assert N_CYCLES <= kernel_plan(32)[1]
    telemetry = Telemetry(label="pass-count")
    with use_telemetry(telemetry):
        run()
    return telemetry.metrics.counters.get("kernel.invocations.vectorized", 0)


def test_corner_gain_study_reduces_the_suite_once(paper_design, suite):
    """The summary depends on the topology only, which every corner shares."""
    assert len(CORNERS) > 1
    passes = _vectorized_passes(
        lambda: run_corner_gain_study(paper_design, suite, corners=CORNERS)
    )
    assert passes == len(suite)


def test_oracle_residency_reduces_each_benchmark_once(paper_design, typical_corner_bus, suite):
    """The window statistics do not depend on the error target."""
    passes = _vectorized_passes(
        lambda: run_oracle_residency(
            paper_design,
            suite,
            benchmarks=("crafty", "mgrid"),
            targets=(0.02, 0.05),
            window_cycles=1_000,
            bus=typical_corner_bus,
        )
    )
    assert passes == 2
