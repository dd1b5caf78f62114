"""The paper's figure and table trends, regenerated at a fixed reduced scale.

Each test runs one figure, table or ablation driver on the synthetic suite
(60 000 cycles per benchmark, seed 2005, a 2 000-cycle window and a 600-cycle
ramp -- the paper runs 10 M cycles with a 10 000 / 3 000 loop) and asserts the
qualitative claim the paper draws from it.  ``repro run <id>`` prints the same
results at its own defaults; ``repro report`` checks the paper's numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    run_corner_gain_study,
    run_fig8,
    run_modified_bus_study,
    run_oracle_residency,
    run_static_voltage_sweep,
    run_table1,
)
from repro.arch import PIPELINE_MODELS, evaluate_ipc_impact
from repro.baselines import run_scheme_comparison
from repro.bus import BusDesign, CharacterizedBus
from repro.bus.bus_model import analyze_trace_statistics
from repro.circuit.pvt import TYPICAL_CORNER, WORST_CASE_CORNER
from repro.clocking import ClockingParameters
from repro.core import BangBangPolicy, DVSBusSystem, ProportionalPolicy
from repro.cpu import kernel_bus_trace
from repro.encoding import default_encoders, run_encoding_study
from repro.interconnect.design_space import (
    delay_optimal_design,
    explore_repeater_design_space,
    power_optimal_design,
    run_shield_interval_study,
)
from repro.trace import generate_benchmark_trace, generate_suite

#: Cycles per benchmark (paper: 10 million).
CYCLES = 60_000
#: Scaled-down control loop so short runs reach steady state (paper: 10 000 / 3 000).
WINDOW = 2_000
RAMP = 600
SEED = 2005

#: The three benchmarks the paper plots individually (Figs. 5, 6 and 10).
PLOTTED = ("crafty", "vortex", "mgrid")


@pytest.fixture(scope="module")
def suite():
    return generate_suite(n_cycles=CYCLES, seed=SEED)


@pytest.fixture(scope="module")
def small_suite(suite):
    # Each benchmark has its own RNG stream, so a subset of the suite is
    # bit-identical to generating only those benchmarks.
    return {name: suite[name] for name in PLOTTED}


@pytest.fixture(scope="module")
def crafty_60k():
    # A standalone trace: its RNG stream differs from the suite's crafty.
    return generate_benchmark_trace("crafty", n_cycles=CYCLES, seed=SEED)


def test_fig4a_worst_case_corner(worst_corner_bus, suite):
    """Fig. 4(a): no error-free slack at the worst corner, energy falls with Vdd."""
    sweep = run_static_voltage_sweep(worst_corner_bus, suite)
    assert sweep.points[0].error_rate == 0.0
    assert sweep.normalized_energies[-1] < 1.0


def test_fig4b_typical_corner(typical_corner_bus, suite):
    """Fig. 4(b): the supply scales well below nominal before the first errors."""
    sweep = run_static_voltage_sweep(typical_corner_bus, suite)
    # The paper reports error-free operation to ~0.98 V.
    assert sweep.lowest_voltage_for_error_rate(0.0) <= 1.02


def test_fig5_corner_gain_study(paper_design, small_suite):
    study = run_corner_gain_study(paper_design, small_suite, targets=(0.0, 0.02, 0.05))
    gains_2pct = study.gains_for_target(0.02)
    # Faster corners allow monotonically larger gains (the paper's main trend).
    assert all(b >= a - 1e-9 for a, b in zip(gains_2pct, gains_2pct[1:]))
    # The worst-case corner offers essentially no zero-error slack; the fastest
    # corner offers large gains.
    assert study.gains_for_target(0.0)[0] < 10.0
    assert gains_2pct[-1] > 35.0


def test_fig6_oracle_voltage_residency(paper_design, small_suite):
    study = run_oracle_residency(paper_design, small_suite, targets=(0.02, 0.05))
    dominant = study.dominant_voltages(0.02)
    # The program dependence the paper highlights: crafty sustains a supply at
    # or below mgrid's for the same error budget.
    assert dominant["crafty"] <= dominant["mgrid"] + 1e-12
    for entry in study.entries:
        assert abs(sum(entry.residency.values()) - 1.0) < 1e-9


def test_fig8_suite_time_series(suite):
    result = run_fig8(
        workloads=suite,
        n_cycles=CYCLES,
        seed=SEED,
        window_cycles=WINDOW,
        ramp_delay_cycles=RAMP,
    )
    # The run starts from the nominal supply and adapts downwards.
    assert result.voltage_event_values[0] == 1.2
    vmin, _ = result.voltage_range()
    assert vmin < 1.1
    # Error recovery always succeeds (no shadow-latch violations) and the
    # long-run average error rate stays low even though individual windows
    # overshoot the 2 % band because of the regulator lag.
    assert result.run.failures == 0
    assert result.run.average_error_rate < 0.06
    assert result.max_instantaneous_error_rate() >= result.run.average_error_rate


def test_fig10_modified_bus_gains(paper_design, small_suite):
    study = run_modified_bus_study(
        design=paper_design,
        workloads=small_suite,
        targets=(0.0, 0.02, 0.05),
        n_cycles=CYCLES,
        seed=SEED,
        window_cycles=WINDOW,
        ramp_delay_cycles=RAMP,
    )
    # The modified bus (higher Cc/Cg at constant worst-case load) must not
    # reduce the closed-loop gain at the worst corner; the paper reports an
    # improvement from 6.3 % to 8.2 %.
    assert study.modified_worst_corner_dvs_gain >= study.original_worst_corner_dvs_gain - 0.5
    # Non-zero-error static gains improve (or at worst stay put) at some corner.
    assert max(study.gain_improvement_percent(0.02).values()) >= 0.0


def test_table1_fixed_vs_proposed_dvs(suite):
    result = run_table1(
        workloads=suite,
        n_cycles=CYCLES,
        seed=SEED,
        window_cycles=WINDOW,
        ramp_delay_cycles=RAMP,
    )
    worst = result.corner_result(WORST_CASE_CORNER)
    typical = result.corner_result(TYPICAL_CORNER)
    # Worst corner: a conventional scheme gains nothing; the DVS bus still
    # recovers slack from program switching activity.
    assert abs(worst.total_fixed_vs_gain_percent) < 0.5
    assert worst.total_dvs_gain_percent > 0.0
    # Typical corner: the DVS bus beats the fixed-VS baseline by a wide margin
    # (paper: 17 % vs ~38.6 %).
    assert typical.total_dvs_gain_percent > typical.total_fixed_vs_gain_percent + 5.0
    # Program dependence: integer codes gain more than FP streaming codes.
    assert worst.row("crafty").dvs_gain_percent > worst.row("mgrid").dvs_gain_percent


def _closed_loop(bus, trace, policy, window=WINDOW, ramp=RAMP):
    system = DVSBusSystem(bus, policy=policy, window_cycles=window, ramp_delay_cycles=ramp)
    return system.run(trace, warmup_cycles=CYCLES // 2)


def test_ablation_control_policy(typical_corner_bus, crafty_60k):
    """Paper claim: the simple bang-bang policy is adequate vs a proportional one."""
    bang = _closed_loop(typical_corner_bus, crafty_60k, BangBangPolicy())
    proportional = _closed_loop(typical_corner_bus, crafty_60k, ProportionalPolicy())
    assert bang.energy_gain_percent > 0.0
    assert abs(bang.energy_gain_percent - proportional.energy_gain_percent) < 15.0


def test_ablation_shadow_latch_delay(crafty_60k):
    """A smaller shadow-latch delay raises the regulator floor and shrinks gains."""
    results = {}
    for fraction in (0.15, 0.33):
        design = BusDesign.paper_bus(clocking=ClockingParameters(shadow_delay_fraction=fraction))
        bus = CharacterizedBus(design, TYPICAL_CORNER)
        results[fraction] = _closed_loop(bus, crafty_60k, BangBangPolicy())
    assert results[0.33].minimum_voltage_reached <= results[0.15].minimum_voltage_reached
    assert results[0.33].energy_gain_percent >= results[0.15].energy_gain_percent - 0.5


def test_ablation_window_length(typical_corner_bus, crafty_60k):
    """Longer measurement windows react more slowly but target the same band."""
    fast = _closed_loop(
        typical_corner_bus, crafty_60k, BangBangPolicy(), window=1000, ramp=300
    )
    slow = _closed_loop(
        typical_corner_bus, crafty_60k, BangBangPolicy(), window=4000, ramp=1200
    )
    assert fast.failures == 0 and slow.failures == 0
    assert fast.energy_gain_percent > 0.0 and slow.energy_gain_percent > 0.0


def test_baseline_scheme_comparison(paper_design):
    """Fixed VS, canary, triple-latch and proposed DVS at the Table 1 corners.

    Section 1's argument: every error-intolerant scheme keeps a safety margin,
    so none of them reaches the data-dependent slack the proposed scheme does.
    Four schemes and two corners run on 20 000 cycles each of crafty + mgrid.
    """
    traces = list(generate_suite(names=("crafty", "mgrid"), n_cycles=20_000, seed=SEED).values())
    worst, typical = (
        run_scheme_comparison(
            paper_design,
            traces,
            corner,
            window_cycles=WINDOW,
            ramp_delay_cycles=RAMP,
            workload_name="crafty+mgrid",
        )
        for corner in (WORST_CASE_CORNER, TYPICAL_CORNER)
    )
    # At the worst-case corner no error-intolerant scheme can gain anything.
    assert worst.by_scheme("fixed VS").energy_gain_percent == pytest.approx(0.0, abs=1e-9)
    assert worst.proposed.energy_gain_percent > 0.0
    # At the typical corner the proposed DVS must beat every baseline.
    baseline_best = max(
        typical.by_scheme(name).energy_gain_percent
        for name in ("fixed VS", "canary delay-line", "triple-latch monitor")
    )
    assert typical.proposed.energy_gain_percent > baseline_best


@pytest.mark.parametrize("benchmark_name", ["mgrid", "crafty"])
def test_encoding_vs_dvs(benchmark_name):
    """Encoders alone, and composed with the closed-loop DVS scheme (20 000 cycles)."""
    trace = generate_benchmark_trace(benchmark_name, n_cycles=20_000, seed=SEED)
    study = run_encoding_study(
        trace,
        corner=TYPICAL_CORNER,
        encoders=default_encoders(),
        window_cycles=WINDOW,
        ramp_delay_cycles=RAMP,
    )
    # Bus-invert never increases the switching activity of the signal wires;
    # with its extra wire charged it should still not cost more than a few
    # percent on quiet workloads and should help on noisy ones.
    assert study.by_name("bus-invert").nominal_energy_vs_unencoded < 1.05
    # DVS keeps working on every encoded bus (composability).
    for evaluation in study.evaluations:
        assert evaluation.dvs_gain_vs_encoded_nominal > 10.0
    assert study.unencoded.dvs_gain_vs_unencoded_nominal > 10.0


def test_design_space_sweeps():
    """Repeater sizing and shield-interval sweeps around the paper's design point."""
    space = explore_repeater_design_space(n_sizes=20, segment_options=(2, 3, 4, 6, 8))
    shields = run_shield_interval_study(shield_groups=(2, 4, 8, 16, 32))
    assert power_optimal_design(space).worst_case_energy <= delay_optimal_design(
        space
    ).worst_case_energy
    assert shields.by_group(4).feasible


def test_ipc_penalty_under_pipeline_models(typical_corner_bus):
    """IPC loss of a DVS run's real (bursty) error stream under three pipeline models.

    Section 3 translates error rates into IPC loss one for one and calls that
    pessimistic; any pipeline that overlaps the replay with stalls does better.
    """
    trace = generate_benchmark_trace("vortex", n_cycles=CYCLES, seed=SEED)
    stats = analyze_trace_statistics(trace, typical_corner_bus.design.topology)
    system = DVSBusSystem(typical_corner_bus, window_cycles=WINDOW, ramp_delay_cycles=RAMP)
    result = system.run(stats, keep_cycle_voltage=True)
    mask = typical_corner_bus.error_mask(stats, result.per_cycle_voltage)
    assert int(np.count_nonzero(mask)) == result.total_errors

    impacts = {
        name: evaluate_ipc_impact(model, mask, seed=SEED)
        for name, model in PIPELINE_MODELS.items()
    }
    in_order = impacts["in-order, IPC=1 (paper assumption)"]
    # The paper's rule is the worst case; anything with overlap does better.
    assert in_order.ipc_loss_fraction == max(i.ipc_loss_fraction for i in impacts.values())
    assert impacts["aggressive OoO"].ipc_loss_fraction < in_order.ipc_loss_fraction
    # And even the worst case stays near the error rate the controller targets.
    assert in_order.ipc_loss_fraction < 0.05


def test_dvs_on_executed_kernel_traces(typical_corner_bus):
    """Closed-loop DVS on mini-CPU kernel traces at the typical corner.

    Cross-checks the synthetic profiles: executed programs show the same
    Table 1 behaviour.  The loop is scaled down further (40 000 cycles, a
    1 000 / 300 loop) so its descent from nominal ends inside the warm-up.
    """
    n_cycles = 40_000
    system = DVSBusSystem(typical_corner_bus, window_cycles=1_000, ramp_delay_cycles=300)
    gains = {}
    error_rates = {}
    # stream_sum_int and stream_sum_float execute the same program on
    # different payloads; binary_search is the quietest workload, memcopy
    # among the busiest.
    for name in ("binary_search", "stream_sum_int", "stream_sum_float", "memcopy"):
        traced = kernel_bus_trace(name, n_cycles=n_cycles, seed=SEED)
        result = system.run(traced.trace, warmup_cycles=n_cycles // 2)
        gains[name] = result.energy_gain_percent
        error_rates[name] = result.average_error_rate
    # Every executed workload recovers at least the corner's PVT slack.
    assert all(gain > 25.0 for gain in gains.values())
    # Same program, different payload entropy: the integer stream scales lower.
    assert gains["stream_sum_int"] > gains["stream_sum_float"]
    # The quietest workload gains the most.
    assert gains["binary_search"] == max(gains.values())
    # Error rates stay bounded near the control band.
    assert all(rate < 0.05 for rate in error_rates.values())
