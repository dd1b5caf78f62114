"""A cycle whose worst coupling equals the failing coupling factor meets the deadline.

``DelayEnergyTable.failing_coupling_factor`` returns the factor whose delay
is exactly the deadline, and every consumer must count a cycle at that
factor as error-free: the replay's summaries (``>``), the oracle
(``searchsorted(side="left")``) and the flip-flop reference
(``arrival <= main_deadline``).  Random designs never produce such a tie,
so the table here is crafted: dyadic delays make the threshold and the
delay at the threshold both exact.
"""

import dataclasses

import numpy as np
import pytest

from repro.bus import CharacterizedBus
from repro.bus.bus_model import scalar_trace_statistics
from repro.core import BehavioralDVSSimulator, DVSBusSystem
from repro.core.oracle import oracle_voltage_schedule
from repro.trace.trace import BusTrace

#: The tied factor: one wire switching between two quiet neighbours.
TIE_FACTOR = 2.0
#: Coupling delay per unit of coupling factor (a power of two, ~0.9 ps).
COUPLING_DELAY = 2.0**-40
CONTROL = dict(window_cycles=500, ramp_delay_cycles=150)


@pytest.fixture(scope="module")
def tie_bus(typical_corner_bus):
    """The paper bus with a threshold of exactly ``TIE_FACTOR`` at every grid voltage."""
    deadline = typical_corner_bus.design.clocking.main_deadline
    # deadline and base share a binade and TIE_FACTOR * COUPLING_DELAY is a
    # multiple of their ulp, so base, deadline - base and the quotient are exact.
    base = deadline - TIE_FACTOR * COUPLING_DELAY
    n = len(typical_corner_bus.grid)
    table = dataclasses.replace(
        typical_corner_bus.table,
        base_delay=np.full(n, base),
        coupling_delay=np.full(n, COUPLING_DELAY),
    )
    return CharacterizedBus(
        typical_corner_bus.design, typical_corner_bus.corner, grid=typical_corner_bus.grid,
        table=table,
    )


@pytest.fixture(scope="module")
def trace():
    flips = np.random.default_rng(3).random((3_001, 32)) < 0.05
    return BusTrace(values=(np.cumsum(flips, axis=0) & 1).astype(np.uint8))


@pytest.fixture(scope="module")
def worst(tie_bus, trace):
    return scalar_trace_statistics(trace, tie_bus.design.topology).worst_coupling


def test_the_table_ties_exactly(tie_bus, worst):
    deadline = tie_bus.design.clocking.main_deadline
    for vdd in tie_bus.grid.voltages:
        assert tie_bus.table.failing_coupling_factor(vdd, deadline) == TIE_FACTOR
        assert tie_bus.table.delay(vdd, TIE_FACTOR) == deadline
    # The premise: tied cycles, and errors above them.
    assert np.count_nonzero(worst == TIE_FACTOR) > 1_000
    assert np.count_nonzero(worst > TIE_FACTOR) > 0


def test_replay_and_flip_flops_count_the_tie_as_error_free(tie_bus, trace, worst):
    # The threshold is the same at every grid voltage, so the errors do not
    # depend on the voltages the controller picks.
    expected = int(np.count_nonzero(worst > TIE_FACTOR))
    replay = DVSBusSystem(tie_bus, **CONTROL).run(trace)
    flip_flops = BehavioralDVSSimulator(tie_bus, **CONTROL).run(trace)
    assert replay.total_errors == expected
    assert flip_flops.total_errors == expected
    assert not flip_flops.error_mask[worst == TIE_FACTOR].any()


def test_oracle_counts_the_tie_as_error_free(tie_bus, trace, worst):
    schedule = oracle_voltage_schedule(tie_bus, trace, 0.0, window_cycles=500)
    errors = np.round(schedule.window_error_rates * 500).astype(int)
    expected = [
        int(np.count_nonzero(window > TIE_FACTOR)) for window in np.split(worst, 6)
    ]
    assert errors.tolist() == expected
