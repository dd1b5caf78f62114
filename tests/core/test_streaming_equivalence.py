"""Streaming- and engine-equivalence guarantees of the simulation pipeline.

Two contracts are enforced here, end to end (trace statistics, the
closed-loop DVS run, the fixed-VS baseline, the oracle and the drivers):

* **chunk invariance** -- running any workload chunk by chunk produces
  results bit-identical to a single pass over the whole trace, for any
  chunk size, including sizes that straddle the controller's 10 000-cycle
  measurement window, while peak memory stays O(chunk), and whether the
  workload arrives as a trace, a source or pre-computed statistics; and
* **kernel identity** -- the vectorized block kernels produce results
  bit-identical to the scalar reference implementation, which makes the
  scalar path an executable *oracle* for the fast kernels.

Every cross-kernel assertion is exact (no tolerances): the vectorized
kernels are constructed to perform the same float64 arithmetic, so any
difference at all is a bug.  Kernels and chunk lengths are forced through
the test seam (:mod:`tests.pass_plan`).
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from repro.bus.bus_model import (
    TraceStatistics,
    analyze_trace_statistics,
    scalar_trace_statistics,
)
from repro.core.dvs_system import DVSBusSystem
from repro.core.fixed_vs import evaluate_fixed_scaling
from repro.core.oracle import oracle_voltage_schedule
from repro.trace import SyntheticTraceSource, TraceSource, as_trace_source
from tests.core.conftest import PASSES, configured_pass, fixed_vs_workload
from tests.pass_plan import KERNELS, SCALAR, forced_plan

#: Chunk sizes exercised everywhere: smaller than, straddling, and larger
#: than the 1 000-cycle test control window (and co-prime with it).
CHUNK_SIZES = (777, 1_000, 3_333, 10_000)


class _OneWordSource(TraceSource):
    """A source holding only the initial bus word: zero transitions."""

    n_cycles = 0
    n_bits = 32
    name = "one-word"

    def _packed_blocks(self):
        yield np.zeros((1, self.n_bits // 8), dtype=np.uint8)


def _fast_system(bus):
    return DVSBusSystem(bus, window_cycles=1000, ramp_delay_cycles=300)


def _assert_runs_identical(chunked, monolithic):
    """Every field of a DVSRunResult must match exactly (no tolerances)."""
    assert chunked.n_cycles == monolithic.n_cycles
    assert chunked.total_errors == monolithic.total_errors
    assert chunked.failures == monolithic.failures
    np.testing.assert_array_equal(chunked.window_error_rates, monolithic.window_error_rates)
    np.testing.assert_array_equal(chunked.window_start_cycles, monolithic.window_start_cycles)
    np.testing.assert_array_equal(chunked.window_voltages, monolithic.window_voltages)
    assert [(e.cycle, e.voltage) for e in chunked.voltage_events] == [
        (e.cycle, e.voltage) for e in monolithic.voltage_events
    ]
    assert chunked.minimum_voltage_reached == monolithic.minimum_voltage_reached
    assert chunked.final_voltage == monolithic.final_voltage
    for component in ("bus_dynamic", "leakage", "flipflop_clocking", "recovery_overhead"):
        assert getattr(chunked.energy, component) == getattr(monolithic.energy, component)
        assert getattr(chunked.reference_energy, component) == getattr(
            monolithic.reference_energy, component
        )


class TestChunkedStatistics:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("chunk_cycles", CHUNK_SIZES)
    def test_chunked_analysis_concatenates_to_monolithic(
        self, typical_corner_bus, crafty_trace, chunk_cycles, kernel
    ):
        topology = typical_corner_bus.design.topology
        monolithic = scalar_trace_statistics(crafty_trace, topology)
        with forced_plan(kernel):
            pieces = [
                analyze_trace_statistics(chunk.trace, topology)
                for chunk in as_trace_source(crafty_trace).chunks(chunk_cycles)
            ]
        rebuilt = pieces[0]
        for piece in pieces[1:]:
            rebuilt = rebuilt.concatenate(piece)
        np.testing.assert_array_equal(rebuilt.worst_coupling, monolithic.worst_coupling)
        np.testing.assert_array_equal(rebuilt.toggles, monolithic.toggles)
        np.testing.assert_array_equal(rebuilt.coupling_weights, monolithic.coupling_weights)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_window_analysis_matches_monolithic_slice(
        self, typical_corner_bus, crafty_trace, kernel
    ):
        topology = typical_corner_bus.design.topology
        monolithic = scalar_trace_statistics(crafty_trace, topology)
        start, n_cycles = 1_234, 5_001
        with forced_plan(kernel):
            window = analyze_trace_statistics(crafty_trace.window(start, n_cycles), topology)
        cycles = slice(start, start + n_cycles)
        np.testing.assert_array_equal(window.worst_coupling, monolithic.worst_coupling[cycles])
        np.testing.assert_array_equal(window.toggles, monolithic.toggles[cycles])
        np.testing.assert_array_equal(
            window.coupling_weights, monolithic.coupling_weights[cycles]
        )

    def test_engines_produce_identical_statistics(self, typical_corner_bus, crafty_trace):
        topology = typical_corner_bus.design.topology
        scalar = scalar_trace_statistics(crafty_trace, topology)
        vectorized = analyze_trace_statistics(crafty_trace, topology)
        np.testing.assert_array_equal(vectorized.worst_coupling, scalar.worst_coupling)
        np.testing.assert_array_equal(vectorized.toggles, scalar.toggles)
        np.testing.assert_array_equal(vectorized.coupling_weights, scalar.coupling_weights)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_width_mismatch_is_rejected_by_both_engines(self, typical_corner_bus, kernel):
        from repro.trace.trace import BusTrace

        narrow = BusTrace(values=np.zeros((10, 16), dtype=np.uint8))
        with forced_plan(kernel), pytest.raises(ValueError, match="does not match topology"):
            analyze_trace_statistics(narrow, typical_corner_bus.design.topology)

    @pytest.mark.parametrize("chunk_cycles", CHUNK_SIZES)
    def test_summary_is_chunk_invariant(self, typical_corner_bus, crafty_trace, chunk_cycles):
        whole = typical_corner_bus.summarize(crafty_trace)
        with forced_plan(chunk_cycles=chunk_cycles):
            chunked = typical_corner_bus.summarize(crafty_trace)
        assert chunked.n_cycles == whole.n_cycles
        assert chunked.toggles_total == whole.toggles_total
        assert chunked.coupling_weights_total == whole.coupling_weights_total
        np.testing.assert_array_equal(
            chunked.worst_coupling_values, whole.worst_coupling_values
        )
        np.testing.assert_array_equal(
            chunked.worst_coupling_counts, whole.worst_coupling_counts
        )

    def test_summary_matches_per_cycle_reductions(self, typical_corner_bus, crafty_stats):
        summary = crafty_stats.summarize()
        assert summary.n_cycles == crafty_stats.n_cycles
        assert summary.toggles_total == float(np.sum(crafty_stats.toggles))
        for vdd in (1.2, 1.1, 1.0):
            mask = typical_corner_bus.error_mask(crafty_stats, vdd)
            assert typical_corner_bus.error_count(summary, vdd) == np.count_nonzero(mask)

    def test_mean_toggle_rate_matches_summary(self, crafty_stats):
        rate = crafty_stats.mean_toggle_rate
        assert rate == crafty_stats.summarize().mean_toggle_rate
        # A count of switching wires, not a fraction of the word.
        assert 1.0 < rate <= crafty_stats.toggles.max()

    def test_mean_toggle_rate_of_no_cycles_is_zero(self, crafty_stats):
        empty = crafty_stats.slice(0, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert empty.mean_toggle_rate == 0.0
            assert empty.summarize().mean_toggle_rate == 0.0

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_source_without_transitions_summarizes_empty(self, typical_corner_bus, kernel):
        with forced_plan(kernel):
            summary = typical_corner_bus.summarize(_OneWordSource())
            fixed = evaluate_fixed_scaling(typical_corner_bus, _OneWordSource())
        assert (summary.n_cycles, summary.toggles_total, summary.coupling_weights_total) == (
            0,
            0.0,
            0.0,
        )
        assert summary.worst_coupling_values.size == summary.worst_coupling_counts.size == 0
        assert fixed.error_rate == 0.0


class TestChunkedDVSRun:
    @pytest.mark.parametrize("config", PASSES)
    @pytest.mark.parametrize("chunk_cycles", CHUNK_SIZES)
    def test_bit_identical_to_monolithic(
        self, typical_corner_bus, crafty_trace, chunk_cycles, config
    ):
        with forced_plan(SCALAR):
            monolithic = _fast_system(typical_corner_bus).run(crafty_trace)
        with configured_pass(config, chunk_cycles) as kwargs:
            chunked = _fast_system(typical_corner_bus).run(crafty_trace, **kwargs)
        _assert_runs_identical(chunked, monolithic)

    @pytest.mark.parametrize("chunk_cycles", (777, 3_333))
    def test_bit_identical_with_warmup(self, typical_corner_bus, crafty_trace, chunk_cycles):
        stats = scalar_trace_statistics(crafty_trace, typical_corner_bus.design.topology)
        monolithic = _fast_system(typical_corner_bus).run(stats, warmup_cycles=15_000)
        with forced_plan(chunk_cycles=chunk_cycles):
            chunked = _fast_system(typical_corner_bus).run(crafty_trace, warmup_cycles=15_000)
        _assert_runs_identical(chunked, monolithic)

    def test_synthetic_source_matches_materialised_trace(self, typical_corner_bus):
        source = SyntheticTraceSource("vortex", 40_000, seed=19)
        with forced_plan(chunk_cycles=7_001):
            from_source = _fast_system(typical_corner_bus).run(source)
        from_trace = _fast_system(typical_corner_bus).run(source.materialize())
        _assert_runs_identical(from_source, from_trace)

    def test_keep_cycle_voltage_matches(self, typical_corner_bus, crafty_trace):
        monolithic = _fast_system(typical_corner_bus).run(
            crafty_trace, keep_cycle_voltage=True
        )
        with forced_plan(chunk_cycles=999):
            chunked = _fast_system(typical_corner_bus).run(crafty_trace, keep_cycle_voltage=True)
        np.testing.assert_array_equal(
            chunked.per_cycle_voltage, monolithic.per_cycle_voltage
        )

    def test_progress_callback_reports_all_cycles(self, typical_corner_bus, crafty_trace):
        seen = []
        with forced_plan(chunk_cycles=7_000):
            _fast_system(typical_corner_bus).run(
                crafty_trace, progress=lambda done, total: seen.append((done, total))
            )
        assert seen[-1] == (crafty_trace.n_cycles, crafty_trace.n_cycles)
        assert [done for done, _ in seen] == sorted({done for done, _ in seen})

    def test_stream_state_rejects_overrun_and_underrun(self, typical_corner_bus, crafty_stats):
        system = _fast_system(typical_corner_bus)
        state = system.stream(crafty_stats.n_cycles)
        state.feed_summary(crafty_stats.slice(0, 1_000).summarize())
        with pytest.raises(ValueError, match="only 1000 were fed"):
            state.finish()
        with pytest.raises(ValueError, match="overruns"):
            state.feed_summary(crafty_stats.summarize())

    def test_stream_state_rejects_straddling_segments(self, typical_corner_bus, crafty_stats):
        state = _fast_system(typical_corner_bus).stream(crafty_stats.n_cycles)
        with pytest.raises(ValueError, match="straddles a control boundary"):
            state.feed_summary(crafty_stats.slice(0, 1_001).summarize())
        state = _fast_system(typical_corner_bus).stream(crafty_stats.n_cycles, warmup_cycles=150)
        with pytest.raises(ValueError, match="straddles the warm-up boundary"):
            state.feed_summary(crafty_stats.slice(0, 200).summarize())


class TestStreamedBaselines:
    @pytest.mark.parametrize("config", PASSES)
    def test_fixed_scaling_summary_matches_stats(
        self, typical_corner_bus, crafty_trace, config
    ):
        stats = scalar_trace_statistics(crafty_trace, typical_corner_bus.design.topology)
        from_stats = evaluate_fixed_scaling(typical_corner_bus, stats)
        with configured_pass(config, 3_333) as kwargs:
            workload = fixed_vs_workload(
                as_trace_source(crafty_trace), typical_corner_bus.design.topology, **kwargs
            )
            from_source = evaluate_fixed_scaling(typical_corner_bus, workload)
        assert from_source == from_stats

    def test_oracle_counts_errors_at_top_grid_voltage(self, crafty_trace):
        """Cycles unsafe even at v_max must show up in the streamed tallies.

        An overclocked bus (repeaters sized for 1.5 GHz, clocked 5 % faster)
        errors on some cycles at every grid voltage; every window's streamed
        error rate must count those exactly like the per-cycle ``error_mask``.
        """
        from dataclasses import replace

        from repro.bus.bus_design import BusDesign
        from repro.bus.bus_model import CharacterizedBus
        from repro.circuit.pvt import WORST_CASE_CORNER
        from repro.clocking import PAPER_CLOCKING

        clocking = replace(PAPER_CLOCKING, frequency=PAPER_CLOCKING.frequency / 0.95)
        bus = CharacterizedBus(
            BusDesign.paper_bus().with_clocking(clocking), WORST_CASE_CORNER
        )
        stats = analyze_trace_statistics(crafty_trace, bus.design.topology)
        assert bus.error_rate(stats.summarize(), bus.grid.v_max) > 0  # the premise
        window = 5_000
        with forced_plan(chunk_cycles=1_777):
            streamed = oracle_voltage_schedule(
                bus, as_trace_source(crafty_trace), 0.02, window_cycles=window
            )
        per_cycle_voltage = np.repeat(streamed.window_voltages, window)[: stats.n_cycles]
        mask = bus.error_mask(stats, per_cycle_voltage)
        expected = [chunk.mean() for chunk in np.split(mask, range(window, len(mask), window))]
        np.testing.assert_array_equal(streamed.window_error_rates, expected)
        assert np.any(streamed.window_voltages == bus.grid.v_max)


def _assert_schedules_identical(schedule, reference):
    """Every field of an OracleSchedule must match exactly (no tolerances)."""
    np.testing.assert_array_equal(schedule.window_voltages, reference.window_voltages)
    np.testing.assert_array_equal(schedule.window_error_rates, reference.window_error_rates)
    assert schedule.energy == reference.energy
    assert schedule.reference_energy == reference.reference_energy


class TestWorkloadForms:
    """Statistics, a trace and a source are one workload: the results are equal."""

    @staticmethod
    def _forms(bus, trace):
        return {
            "statistics": analyze_trace_statistics(trace, bus.design.topology),
            "trace": trace,
            "source": as_trace_source(trace),
        }

    @pytest.mark.parametrize("config", PASSES)
    @pytest.mark.parametrize("target", (0.0, 0.02, 0.05))
    def test_oracle_is_identical_across_workload_forms(
        self, typical_corner_bus, crafty_trace, target, config
    ):
        schedules = {}
        for form, workload in self._forms(typical_corner_bus, crafty_trace).items():
            with configured_pass(config, 1_777) as kwargs:
                schedules[form] = oracle_voltage_schedule(
                    typical_corner_bus, workload, target, window_cycles=5_000, **kwargs
                )
        _assert_schedules_identical(schedules["trace"], schedules["statistics"])
        _assert_schedules_identical(schedules["source"], schedules["statistics"])

    def test_lane_statistics_reduce_without_recoding(
        self, typical_corner_bus, crafty_trace, monkeypatch
    ):
        # Lane statistics already hold the kernels' codes: the closed loop,
        # the oracle and the summary reduce them as they are.
        def refuse(*args, **kwargs):
            raise AssertionError("precomputed statistics were coded again")

        monkeypatch.setattr(TraceStatistics, "from_arrays", refuse)
        bus = typical_corner_bus
        stats = analyze_trace_statistics(crafty_trace, bus.design.topology)
        assert stats.codes.dtype == np.uint8
        system = _fast_system(bus)
        _assert_runs_identical(system.run(stats), system.run(crafty_trace))
        _assert_schedules_identical(
            oracle_voltage_schedule(bus, stats, 0.02),
            oracle_voltage_schedule(bus, crafty_trace, 0.02),
        )
        summary, streamed = bus.summarize(stats), bus.summarize(crafty_trace)
        assert summary.n_cycles == streamed.n_cycles
        assert summary.toggles_total == streamed.toggles_total
        assert summary.coupling_weights_total == streamed.coupling_weights_total
        np.testing.assert_array_equal(
            summary.worst_coupling_values, streamed.worst_coupling_values
        )
        np.testing.assert_array_equal(
            summary.worst_coupling_counts, streamed.worst_coupling_counts
        )

    def test_static_sweep_is_identical_across_workload_forms(
        self, typical_corner_bus, crafty_trace
    ):
        from repro.analysis.static_scaling import run_static_voltage_sweep

        forms = self._forms(typical_corner_bus, crafty_trace)
        sweeps = {
            "statistics": run_static_voltage_sweep(typical_corner_bus, forms["statistics"]),
            "summary": run_static_voltage_sweep(
                typical_corner_bus, forms["statistics"].summarize()
            ),
            "trace": run_static_voltage_sweep(typical_corner_bus, {"crafty": forms["trace"]}),
        }
        with forced_plan(chunk_cycles=2_500):
            sweeps["source"] = run_static_voltage_sweep(
                typical_corner_bus, {"crafty": forms["source"]}
            )
        for sweep in sweeps.values():
            assert sweep == sweeps["statistics"]

    def test_constant_supply_energies_are_identical_across_workload_forms(
        self, typical_corner_bus, crafty_trace
    ):
        forms = self._forms(typical_corner_bus, crafty_trace)
        summaries = [typical_corner_bus.summarize(workload) for workload in forms.values()]
        for vdd in typical_corner_bus.grid.voltages.tolist():
            rates = {typical_corner_bus.error_rate(summary, vdd) for summary in summaries}
            energies = [typical_corner_bus.energy_breakdown(s, vdd) for s in summaries]
            assert len(rates) == 1
            for energy in energies[1:]:
                for component in (
                    "bus_dynamic",
                    "leakage",
                    "flipflop_clocking",
                    "recovery_overhead",
                ):
                    assert getattr(energy, component) == getattr(energies[0], component)


class TestStreamedDrivers:
    def test_table1_sources_match_traces(self):
        from repro.analysis.dynamic_dvs import run_table1
        from repro.circuit.pvt import TYPICAL_CORNER
        from repro.trace import generate_suite, suite_sources

        names = ("crafty", "mgrid")
        kwargs = dict(
            corners=(TYPICAL_CORNER,),
            n_cycles=20_000,
            seed=13,
            window_cycles=1_000,
            ramp_delay_cycles=300,
        )
        traces = {name: generate_suite(names=names, n_cycles=20_000, seed=13)[name] for name in names}
        sources = {name: suite_sources(names=names, n_cycles=20_000, seed=13)[name] for name in names}
        from_traces = run_table1(workloads=traces, **kwargs)
        with forced_plan(chunk_cycles=3_333):
            from_sources = run_table1(workloads=sources, **kwargs)
        for name in names:
            a = from_traces.corners[0].row(name)
            b = from_sources.corners[0].row(name)
            assert a.fixed_vs_gain_percent == b.fixed_vs_gain_percent
            assert a.dvs_gain_percent == b.dvs_gain_percent
            assert a.dvs_average_error_rate == b.dvs_average_error_rate

    def test_static_sweep_sources_match_traces(self, typical_corner_bus):
        from repro.analysis.static_scaling import run_static_voltage_sweep

        from repro.trace import generate_suite, suite_sources

        names = ("crafty", "mgrid")
        traces = generate_suite(names=names, n_cycles=10_000, seed=17)
        sources = suite_sources(names=names, n_cycles=10_000, seed=17)
        from_traces = run_static_voltage_sweep(typical_corner_bus, traces)
        with forced_plan(chunk_cycles=2_500):
            from_sources = run_static_voltage_sweep(typical_corner_bus, sources)
        assert from_sources == from_traces


class TestConstantMemory:
    def test_streamed_run_memory_is_flat_in_trace_length(self, typical_corner_bus):
        """Peak allocation must scale with the chunk, not the trace."""

        def peak_bytes(n_cycles: int) -> int:
            source = SyntheticTraceSource("crafty", n_cycles, seed=23)
            system = _fast_system(typical_corner_bus)
            tracemalloc.start()
            try:
                with forced_plan(chunk_cycles=20_000):
                    system.run(source)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak

        short = peak_bytes(100_000)
        long = peak_bytes(300_000)
        # A materialising path would triple; the streamed path stays flat
        # (allow 40 % slack for allocator noise and window bookkeeping).
        assert long < short * 1.4

    def test_accumulator_state_is_tiny(self, typical_corner_bus, crafty_trace):
        with forced_plan(chunk_cycles=5_000):
            summary = typical_corner_bus.summarize(crafty_trace)
        # The worst-coupling distribution is discrete and small -- that is
        # what makes the O(1) summary exact.
        assert len(summary.worst_coupling_values) < 200
        assert summary.n_cycles == crafty_trace.n_cycles
