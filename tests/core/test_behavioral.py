"""Cross-validation of the vectorised DVS simulator against the flip-flop-level one.

These are the most important tests in the suite from a soundness standpoint:
every headline number of the reproduction comes from the vectorised
:class:`DVSBusSystem`, and here it must agree -- error for error and voltage
step for voltage step -- with an independent simulation that drives actual
double-sampling flip-flop objects one cycle at a time.
"""

import numpy as np
import pytest

from repro.bus import CharacterizedBus
from repro.bus.bus_model import analyze_trace_statistics
from repro.circuit.pvt import WORST_CASE_CORNER
from repro.core import BehavioralDVSSimulator, DVSBusSystem
from repro.core.policies import ProportionalPolicy
import repro.trace.trace as trace_module
from repro.trace import SyntheticTraceSource, generate_benchmark_trace

#: Short control loop so several voltage changes happen within a short trace.
WINDOW = 500
RAMP = 150
CYCLES = 6_000


def _run_both(bus, trace, policy=None):
    stats = analyze_trace_statistics(trace, bus.design.topology)
    vectorised = DVSBusSystem(
        bus, policy=policy, window_cycles=WINDOW, ramp_delay_cycles=RAMP
    ).run(stats, keep_cycle_voltage=True)
    behavioural = BehavioralDVSSimulator(
        bus, policy=policy, window_cycles=WINDOW, ramp_delay_cycles=RAMP
    ).run(trace)
    return vectorised, behavioural, stats


@pytest.fixture(scope="module")
def vortex_trace():
    return generate_benchmark_trace("vortex", n_cycles=CYCLES, seed=21)


@pytest.fixture(scope="module")
def mgrid_trace_short():
    return generate_benchmark_trace("mgrid", n_cycles=CYCLES, seed=22)


class TestClosedLoopEquivalence:
    @pytest.mark.parametrize("benchmark_name", ["vortex", "mgrid"])
    def test_vectorised_and_behavioural_agree(self, typical_corner_bus, benchmark_name):
        trace = generate_benchmark_trace(benchmark_name, n_cycles=CYCLES, seed=23)
        vectorised, behavioural, stats = _run_both(typical_corner_bus, trace)

        assert behavioural.total_errors == vectorised.total_errors
        np.testing.assert_allclose(
            behavioural.per_cycle_voltage, vectorised.per_cycle_voltage, atol=1e-12
        )
        assert [(e.cycle, round(e.voltage, 6)) for e in behavioural.voltage_events] == [
            (e.cycle, round(e.voltage, 6)) for e in vectorised.voltage_events
        ]
        # The per-cycle error masks agree, not just their totals.
        mask = typical_corner_bus.error_mask(stats, vectorised.per_cycle_voltage)
        np.testing.assert_array_equal(behavioural.error_mask, mask)

    def test_agreement_holds_at_the_worst_corner(self, paper_design, vortex_trace):
        bus = CharacterizedBus(paper_design, WORST_CASE_CORNER)
        vectorised, behavioural, _ = _run_both(bus, vortex_trace)
        assert behavioural.total_errors == vectorised.total_errors
        assert behavioural.final_voltage == pytest.approx(vectorised.final_voltage)

    def test_agreement_with_a_proportional_policy(self, typical_corner_bus, mgrid_trace_short):
        policy = ProportionalPolicy(target_error_rate=0.015, gain=2.0, max_steps=2)
        vectorised, behavioural, _ = _run_both(typical_corner_bus, mgrid_trace_short, policy)
        assert behavioural.total_errors == vectorised.total_errors
        np.testing.assert_allclose(
            behavioural.per_cycle_voltage, vectorised.per_cycle_voltage, atol=1e-12
        )


class TestRecoveryGuarantee:
    def test_corrected_words_always_match_the_transmitted_data(
        self, typical_corner_bus, vortex_trace
    ):
        # Start below the corner's zero-error supply so the trace is short but
        # the recovery path is exercised from the first windows.
        behavioural = BehavioralDVSSimulator(
            typical_corner_bus, window_cycles=WINDOW, ramp_delay_cycles=RAMP
        ).run(vortex_trace, initial_voltage=0.92)
        np.testing.assert_array_equal(
            behavioural.corrected_words, vortex_trace.values[1:]
        )
        # And the run did exercise the recovery path.
        assert behavioural.total_errors > 0

    def test_error_rate_settles_near_the_control_band(self, typical_corner_bus, vortex_trace):
        behavioural = BehavioralDVSSimulator(
            typical_corner_bus, window_cycles=WINDOW, ramp_delay_cycles=RAMP
        ).run(vortex_trace)
        # Ignore the initial descent: the last few windows should sit near the
        # 1-2 % band the policy steers towards.
        steady = behavioural.windows[-4:]
        assert all(window.error_rate < 0.10 for window in steady)


class TestGuards:
    def test_overlong_traces_are_rejected_by_default(self, typical_corner_bus):
        trace = generate_benchmark_trace("crafty", n_cycles=60_000, seed=24)
        simulator = BehavioralDVSSimulator(typical_corner_bus)
        with pytest.raises(ValueError):
            simulator.run(trace)

    def test_trace_is_unpacked_once_per_run(self, typical_corner_bus, monkeypatch):
        # `BusTrace.values` unpacks the whole trace on every access, so a
        # per-cycle read would make the run quadratic in its length.
        trace = SyntheticTraceSource("crafty", 2_000, seed=1).materialize()
        unpack = trace_module.unpack_values
        calls = []

        def counting_unpack(*args):
            calls.append(args)
            return unpack(*args)

        monkeypatch.setattr(trace_module, "unpack_values", counting_unpack)
        BehavioralDVSSimulator(typical_corner_bus).run(trace)
        assert len(calls) <= 2
