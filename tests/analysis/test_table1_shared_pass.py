"""Table 1 shares one statistics pass per benchmark across all corners.

A multi-corner :func:`run_table1` must be field-for-field identical to each
corner run on its own, for every kernel, worker count and chunking, and must
analyse each benchmark exactly once however many corners it evaluates.
Kernels and chunk lengths are forced through the test seam
(:mod:`tests.pass_plan`).
"""

import dataclasses

import pytest

import repro.bus.bus_model as bus_model
import repro.runtime.parallel as parallel_mod
from repro.analysis import run_table1
from repro.analysis.experiments import EXPERIMENTS
from repro.circuit.pvt import BEST_CASE_CORNER, TYPICAL_CORNER, WORST_CASE_CORNER
from repro.core.dvs_system import DVSBusSystem
from repro.interconnect import block_kernels
from repro.trace import suite_sources
from repro.trace.workloads import kernel_sources
from tests.pass_plan import KERNELS, SCALAR, VECTORIZED, forced_plan

N_CYCLES = 12_000
SEED = 23
NAMES = ("crafty", "mgrid", "vortex")
CONTROL = dict(window_cycles=1_000, ramp_delay_cycles=300)


def _table1(workloads, corners, **kwargs):
    return run_table1(
        workloads=workloads,
        corners=corners,
        n_cycles=N_CYCLES,
        seed=SEED,
        order=tuple(workloads),
        **CONTROL,
        **kwargs,
    )


def _assert_matches_single_corner_runs(workloads, corners, **kwargs):
    shared = _table1(workloads, corners, **kwargs)
    assert [result.corner for result in shared.corners] == list(corners)
    for corner, result in zip(corners, shared.corners):
        alone = _table1(workloads, (corner,), **kwargs)
        assert dataclasses.asdict(result) == dataclasses.asdict(alone.corners[0])
    return shared


@pytest.fixture(scope="module")
def synthetic():
    return suite_sources(names=NAMES, n_cycles=N_CYCLES, seed=SEED)


class TestSharedPassEquivalence:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_two_corners_match_each_corner_alone(self, synthetic, kernel):
        with forced_plan(kernel):
            _assert_matches_single_corner_runs(synthetic, (WORST_CASE_CORNER, TYPICAL_CORNER))

    def test_parallel_workers(self, synthetic):
        shared = _assert_matches_single_corner_runs(
            synthetic, (WORST_CASE_CORNER, TYPICAL_CORNER), jobs=2
        )
        serial = _table1(synthetic, (WORST_CASE_CORNER, TYPICAL_CORNER))
        assert dataclasses.asdict(shared) == dataclasses.asdict(serial)

    def test_prime_chunking(self, synthetic):
        with forced_plan(chunk_cycles=3_333):
            _assert_matches_single_corner_runs(synthetic, (WORST_CASE_CORNER, TYPICAL_CORNER))

    def test_cpu_kernels_next_to_synthetic(self):
        workloads = {
            **suite_sources(names=("crafty",), n_cycles=N_CYCLES, seed=SEED),
            **kernel_sources(names=("memcopy", "fibonacci"), n_cycles=N_CYCLES, seed=SEED),
        }
        _assert_matches_single_corner_runs(workloads, (WORST_CASE_CORNER, TYPICAL_CORNER))

    def test_three_corners_with_a_fast_corner(self, synthetic):
        _assert_matches_single_corner_runs(
            synthetic, (WORST_CASE_CORNER, TYPICAL_CORNER, BEST_CASE_CORNER)
        )

    def test_no_corners(self, synthetic):
        assert _table1(synthetic, ()).corners == ()


class TestPassCount:
    """Each benchmark is analysed once, however many corners use it."""

    @pytest.fixture
    def analysed_cycles(self, monkeypatch):
        counted = []
        original = bus_model.analyze_trace_statistics

        def counting(trace, topology):
            counted.append(trace.n_cycles)
            return original(trace, topology)

        monkeypatch.setattr(bus_model, "analyze_trace_statistics", counting)
        return counted

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_two_corners_analyse_each_cycle_once(self, synthetic, analysed_cycles, kernel):
        with forced_plan(kernel):
            _table1(synthetic, (TYPICAL_CORNER,))
            one_corner = sum(analysed_cycles)
            analysed_cycles.clear()
            _table1(synthetic, (WORST_CASE_CORNER, TYPICAL_CORNER))
        assert one_corner == len(NAMES) * N_CYCLES
        assert sum(analysed_cycles) == one_corner


class TestReplayAsEachRunFolds:
    """Each benchmark replays before the pass folds the next one, so the
    suite holds one benchmark's summaries at a time."""

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_benchmark_0_replays_before_benchmark_1_is_folded(
        self, synthetic, monkeypatch, jobs
    ):
        folded = []
        replays = []
        fold, replay = parallel_mod._fold_parts, DVSBusSystem.replay

        def counting_fold(*args):
            pieces = fold(*args)
            folded.append(len(pieces))
            return pieces

        def recording_replay(system, summaries, **kwargs):
            replays.append(len(folded))
            return replay(system, summaries, **kwargs)

        monkeypatch.setattr(parallel_mod, "_fold_parts", counting_fold)
        monkeypatch.setattr(DVSBusSystem, "replay", recording_replay)
        _table1(synthetic, (WORST_CASE_CORNER, TYPICAL_CORNER), jobs=jobs)
        # Two corners replay each benchmark; the pass had folded only the
        # benchmarks up to the one replaying.
        assert replays == [1, 1, 2, 2, 3, 3]


class TestKernelCrossCheck:
    """``repro run table1`` prints the same table on both kernels.

    The paper-suite table at its default control timing, as the CLI prints
    it.  With 40 009-cycle chunks, the first chunk of every benchmark holds
    a 32 768-cycle lane sub-block seam, and later chunks cross chunk seams.
    """

    @pytest.mark.parametrize(
        "n_cycles, chunk_cycles", [(30_000, None), (50_000, 40_009)], ids=["default", "blocks"]
    )
    def test_printed_table_matches(self, n_cycles, chunk_cycles):
        assert block_kernels._SUB_BLOCK_CYCLES < 40_009 < 50_000
        runner = EXPERIMENTS["table1"].runner
        with forced_plan(VECTORIZED, chunk_cycles):
            vectorized, vectorized_text = runner(n_cycles=n_cycles)
        with forced_plan(SCALAR, chunk_cycles):
            scalar, scalar_text = runner(n_cycles=n_cycles)
        assert vectorized_text == scalar_text
        assert dataclasses.asdict(vectorized) == dataclasses.asdict(scalar)
