"""Seeded differential test: segment replay vs the flip-flop-level simulator.

:meth:`DVSBusSystem.run` never looks at a single cycle: it reduces the
workload to per-segment summaries and replays the closed loop over them.
:class:`BehavioralDVSSimulator` drives real double-sampling flip-flop
objects one cycle at a time.  Over random bus widths (including buses too
wide for the lane kernels), shield patterns, secondary weights on both
sides of 0.25, policies, control timing, warm-up, chunk sizes and worker
counts, the two must agree error for error and voltage step for voltage
step.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.bus import BusDesign, CharacterizedBus
from repro.circuit.pvt import TYPICAL_CORNER, WORST_CASE_CORNER
from repro.core import BehavioralDVSSimulator, DVSBusSystem
from repro.core.policies import BangBangPolicy, ProportionalPolicy
from repro.interconnect.crosstalk import NeighborTopology
from repro.interconnect.repeater import size_for_target_delay
from repro.trace.trace import BusTrace


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
def _scenarios(draw, widths):
    n_bits = draw(widths)
    shields = st.lists(st.booleans(), min_size=n_bits, max_size=n_bits)
    topology = NeighborTopology(
        n_wires=n_bits,
        left_is_shield=np.array(draw(shields), dtype=bool),
        right_is_shield=np.array(draw(shields), dtype=bool),
        secondary_weight=draw(st.sampled_from((0.0, 0.15, 0.25, 0.35, 0.8))),
    )
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
        generator = np.random.default_rng(scenario["trace_seed"])
        flips = generator.random(size=(scenario["n_cycles"] + 1, topology.n_wires))
        trace = BusTrace(
            values=(np.cumsum(flips < scenario["density"], axis=0) & 1).astype(np.uint8)
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

        replayed = system.run(
            trace,
            initial_voltage=start,
            keep_cycle_voltage=True,
            warmup_cycles=warmup,
            chunk_cycles=chunk_cycles,
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
