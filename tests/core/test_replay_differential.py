"""Seeded differential tests of the segment replay on random designs.

:meth:`DVSBusSystem.run` never looks at a single cycle: it reduces the
workload to per-segment summaries and replays the closed loop over them.
:class:`BehavioralDVSSimulator` drives real double-sampling flip-flop
objects one cycle at a time.  Over random bus widths (including buses too
wide for the lane kernels), shield patterns, secondary weights on both
sides of 0.25, policies, control timing, warm-up, chunk sizes and worker
counts, the two must agree error for error and voltage step for voltage
step.

The streamed oracle replays per-window summaries the same way; it must
choose the voltages and realise the error rates that a per-window search
over :func:`min_error_free_voltage_per_cycle` gives.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.bus import BusDesign, CharacterizedBus
from repro.bus.bus_model import scalar_trace_statistics
from repro.circuit.pvt import TYPICAL_CORNER, WORST_CASE_CORNER
from repro.core import BehavioralDVSSimulator, DVSBusSystem
from repro.core.oracle import min_error_free_voltage_per_cycle, oracle_voltage_schedule
from repro.core.policies import BangBangPolicy, ProportionalPolicy
from repro.interconnect.crosstalk import NeighborTopology
from repro.interconnect.repeater import size_for_target_delay
from repro.trace.trace import BusTrace
from tests.pass_plan import forced_plan


@pytest.fixture(scope="module")
def base_design():
    return BusDesign.paper_bus()


def _design(base: BusDesign, topology: NeighborTopology) -> BusDesign:
    """The paper bus rewired to ``topology``, repeaters re-sized for its worst case."""
    repeaters = size_for_target_delay(
        target_delay=base.clocking.main_deadline,
        vdd=base.nominal_vdd,
        corner=base.design_corner,
        segment=base.segment_parasitics,
        driver_model=base.driver_model(),
        n_segments=base.n_segments,
        max_coupling_factor=topology.max_coupling_factor,
    )
    return replace(base, n_bits=topology.n_wires, topology=topology, repeaters=repeaters)


#: Bus widths the lane kernels hold, and widths that fall back to the scalar kernels.
WIDTHS = {"lanes": st.integers(1, 64), "scalar": st.integers(65, 72)}


@st.composite
def _topologies(draw, widths):
    n_bits = draw(widths)
    shields = st.lists(st.booleans(), min_size=n_bits, max_size=n_bits)
    return NeighborTopology(
        n_wires=n_bits,
        left_is_shield=np.array(draw(shields), dtype=bool),
        right_is_shield=np.array(draw(shields), dtype=bool),
        secondary_weight=draw(st.sampled_from((0.0, 0.15, 0.25, 0.35, 0.8))),
    )


def _random_trace(n_cycles: int, n_wires: int, density: float, trace_seed: int) -> BusTrace:
    flips = np.random.default_rng(trace_seed).random(size=(n_cycles + 1, n_wires))
    return BusTrace(values=(np.cumsum(flips < density, axis=0) & 1).astype(np.uint8))


@st.composite
def _scenarios(draw, widths):
    topology = draw(_topologies(widths))
    n_cycles = draw(st.integers(50, 600))
    window = draw(st.integers(20, 150))
    return {
        "topology": topology,
        "corner": draw(st.sampled_from((TYPICAL_CORNER, WORST_CASE_CORNER))),
        "policy": draw(
            st.sampled_from(
                (BangBangPolicy(), ProportionalPolicy(target_error_rate=0.05, gain=2.0))
            )
        ),
        "n_cycles": n_cycles,
        "window": window,
        "ramp": draw(st.integers(0, window - 1)),
        "warmup": draw(st.integers(0, n_cycles - 1)),
        "steps_above_floor": draw(st.integers(0, 6)),
        "density": draw(st.floats(0.05, 0.9)),
        "trace_seed": draw(st.integers(0, 2**32 - 1)),
    }


class TestReplayMatchesFlipFlops:
    @pytest.mark.parametrize("kernels", sorted(WIDTHS))
    @seed(2005)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), chunk_cycles=st.integers(1, 300), jobs=st.sampled_from((1, 2)))
    def test_random_designs(self, base_design, kernels, data, chunk_cycles, jobs):
        scenario = data.draw(_scenarios(WIDTHS[kernels]))
        topology = scenario["topology"]
        bus = CharacterizedBus(_design(base_design, topology), scenario["corner"])
        trace = _random_trace(
            scenario["n_cycles"], topology.n_wires, scenario["density"], scenario["trace_seed"]
        )
        control = dict(
            policy=scenario["policy"],
            window_cycles=scenario["window"],
            ramp_delay_cycles=scenario["ramp"],
        )
        system = DVSBusSystem(bus, **control)
        start = bus.grid.snap(
            min(system.v_floor + scenario["steps_above_floor"] * bus.grid.step, bus.grid.v_max)
        )
        warmup = scenario["warmup"]

        with forced_plan(chunk_cycles=chunk_cycles):
            replayed = system.run(
                trace,
                initial_voltage=start,
                keep_cycle_voltage=True,
                warmup_cycles=warmup,
                jobs=jobs,
            )
        flip_flops = BehavioralDVSSimulator(bus, **control).run(trace, initial_voltage=start)

        np.testing.assert_array_equal(replayed.per_cycle_voltage, flip_flops.per_cycle_voltage)
        assert [(e.cycle, e.voltage) for e in replayed.voltage_events] == [
            (e.cycle, e.voltage) for e in flip_flops.voltage_events
        ]
        assert replayed.total_errors == int(np.count_nonzero(flip_flops.error_mask[warmup:]))
        assert replayed.failures == 0
        np.testing.assert_array_equal(
            replayed.window_error_rates, [w.error_rate for w in flip_flops.windows]
        )
        np.testing.assert_array_equal(
            replayed.window_start_cycles, [w.start_cycle for w in flip_flops.windows]
        )
        assert replayed.final_voltage == flip_flops.final_voltage
        assert replayed.minimum_voltage_reached == flip_flops.per_cycle_voltage.min()


def _reference_schedule(bus, worst, per_cycle, target, window, v_floor):
    """Per-window oracle straight from each cycle's minimum error-free voltage.

    Each window takes the lowest grid voltage at or above the floor that
    leaves at most ``floor(target * n)`` cycles needing more, and realises
    every cycle above that voltage's failing coupling factor as an error
    (cycles unsafe even at the top voltage included).
    """
    deadline = bus.design.clocking.main_deadline
    voltages, rates = [], []
    for start in range(0, len(worst), window):
        requirement = per_cycle[start : start + window]
        budget = int(np.floor(target * len(requirement)))
        chosen = next(
            v
            for v in bus.grid.voltages
            if v >= v_floor and np.count_nonzero(requirement > v) <= budget
        )
        threshold = bus.table.failing_coupling_factor(chosen, deadline)
        errors = np.count_nonzero(worst[start : start + window] > threshold)
        voltages.append(chosen)
        rates.append(errors / len(requirement))
    return voltages, rates


class TestOracleMatchesPerCycleReference:
    @pytest.mark.parametrize("kernels", sorted(WIDTHS))
    @seed(2005)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), chunk_cycles=st.integers(1, 300), jobs=st.sampled_from((1, 2)))
    def test_random_designs(self, base_design, kernels, data, chunk_cycles, jobs):
        topology = data.draw(_topologies(WIDTHS[kernels]))
        design = _design(base_design, topology)
        # Clocked 5 % fast, some cycles fail even at the top grid voltage.
        speed_up = data.draw(st.sampled_from((1.0, 1.05)))
        clocking = replace(design.clocking, frequency=design.clocking.frequency * speed_up)
        bus = CharacterizedBus(
            design.with_clocking(clocking),
            data.draw(st.sampled_from((TYPICAL_CORNER, WORST_CASE_CORNER))),
        )
        trace = _random_trace(
            data.draw(st.integers(50, 600)),
            topology.n_wires,
            data.draw(st.floats(0.05, 0.9)),
            data.draw(st.integers(0, 2**32 - 1)),
        )
        target = data.draw(st.sampled_from((0.0, 0.01, 0.05, 0.2)))
        window = data.draw(st.integers(20, 150))
        v_floor = data.draw(st.sampled_from(bus.grid.voltages[: len(bus.grid) // 2].tolist()))

        with forced_plan(chunk_cycles=chunk_cycles):
            streamed = oracle_voltage_schedule(
                bus, trace, target, window_cycles=window, v_floor=v_floor, jobs=jobs
            )
        stats = scalar_trace_statistics(trace, topology)
        voltages, rates = _reference_schedule(
            bus,
            stats.worst_coupling,
            min_error_free_voltage_per_cycle(bus, stats),
            target,
            window,
            v_floor,
        )
        np.testing.assert_array_equal(streamed.window_voltages, voltages)
        np.testing.assert_array_equal(streamed.window_error_rates, rates)
