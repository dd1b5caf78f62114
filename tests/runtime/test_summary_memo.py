"""The per-process memo of ``dvs_run``'s statistics pass.

Segment summaries depend on the workload, the wire topology and the control
segmentation, never on the corner: a corner sweep must analyse each workload
once, return exactly what a fresh pass returns, and key ``file:`` workloads
on their content.
"""

import sys
import threading

import numpy as np
import pytest

from repro.bus import bus_model
from repro.runtime import tasks
from repro.runtime.executor import run_jobs
from repro.runtime.spec import SweepSpec
from repro.runtime.tasks import run_job_params
from repro.telemetry import Telemetry, use_telemetry
from repro.trace import generate_benchmark_trace
from repro.trace.io import save_trace_npz

#: 2 benchmarks x 3 corners; the derived seed ignores the corner, so the
#: three corners of each benchmark simulate the same trace.
CORNER_SWEEP = SweepSpec(
    name="test-corner-memo",
    task="dvs_run",
    base={"n_cycles": 4_000},
    axes={"corner": ("worst", "typical", "best"), "benchmark": ("crafty", "mgrid")},
    seed=2005,
    seed_by=("benchmark", "n_cycles"),
)


@pytest.fixture()
def analyses(monkeypatch):
    """Count the statistics pass's kernel calls (one per chunk; a 4 000-cycle
    trace is one chunk)."""
    calls = []
    analyze = bus_model.analyze_trace_statistics

    def counting(*args, **kwargs):
        calls.append(args)
        return analyze(*args, **kwargs)

    monkeypatch.setattr(bus_model, "analyze_trace_statistics", counting)
    return calls


def _fresh(params):
    """``dvs_run`` with the memo cleared first: a pass of its own."""
    tasks._summary_memo.clear()
    return run_job_params("dvs_run", params)


def test_corner_sweep_analyses_each_workload_once(analyses):
    jobs = CORNER_SWEEP.expand()
    telemetry = Telemetry(label="memo")
    with use_telemetry(telemetry):
        report = run_jobs(jobs, n_workers=1)
    assert len(jobs) == 6
    assert len(analyses) == 2
    assert telemetry.metrics.counters["tasks.summaries.misses"] == 2
    assert telemetry.metrics.counters["tasks.summaries.hits"] == 4
    for job, outcome in zip(jobs, report.outcomes):
        assert outcome.result == _fresh(job.params)


def test_coupling_scale_shares_one_entry(analyses):
    params = {"benchmark": "crafty", "corner": "worst", "n_cycles": 4_000}
    nominal = run_job_params("dvs_run", {**params, "coupling_scale": 1.0})
    modified = run_job_params("dvs_run", {**params, "coupling_scale": 1.95})
    assert len(tasks._summary_memo) == 1
    assert len(analyses) == 1
    assert modified["energy_gain_percent"] != nominal["energy_gain_percent"]
    assert modified == _fresh({**params, "coupling_scale": 1.95})


def test_file_workload_is_keyed_on_content(tmp_path):
    path = tmp_path / "trace.npz"
    params = {"workload": f"file:{path}", "corner": "typical", "n_cycles": 4_000}
    save_trace_npz(generate_benchmark_trace("crafty", n_cycles=4_000, seed=1), path)
    before = run_job_params("dvs_run", params)
    # Same path, same length, different trace.
    save_trace_npz(generate_benchmark_trace("mgrid", n_cycles=4_000, seed=1), path)
    after = run_job_params("dvs_run", params)
    assert after != before
    assert after == _fresh(params)


def test_stored_summaries_are_read_only():
    run_job_params("dvs_run", {"benchmark": "crafty", "n_cycles": 4_000})
    (summaries,) = tasks._summary_memo.values()
    with pytest.raises(ValueError, match="read-only"):
        summaries[0].worst_coupling_counts[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        summaries[0].worst_coupling_values[...] = np.inf


def test_memo_is_bounded_in_summaries_held(monkeypatch):
    params = {"corner": "typical", "n_cycles": 4_000}
    run_job_params("dvs_run", {**params, "benchmark": "crafty"})
    (held,) = map(len, tasks._summary_memo.values())
    monkeypatch.setattr(tasks, "_SUMMARY_MEMO_SEGMENTS", held)
    run_job_params("dvs_run", {**params, "benchmark": "mgrid"})
    assert [key[0] for key in tasks._summary_memo] == [("benchmark", "mgrid")]
    # An entry larger than the bound is not kept at all.
    monkeypatch.setattr(tasks, "_SUMMARY_MEMO_SEGMENTS", held - 1)
    run_job_params("dvs_run", {**params, "benchmark": "vortex"})
    assert not tasks._summary_memo


def test_threads_share_the_memo_without_losing_entries(monkeypatch):
    """Inline work-queue runners call ``dvs_run`` from several threads."""
    benchmarks = ("crafty", "mgrid", "vortex", "swim", "mcf", "gap")
    points = [{"benchmark": name, "n_cycles": 600} for name in benchmarks]
    expected = [_fresh(params) for params in points]
    (held,) = map(len, tasks._summary_memo.values())
    # Room for two of the six workloads: most calls miss and evict.
    monkeypatch.setattr(tasks, "_SUMMARY_MEMO_SEGMENTS", 2 * held)
    tasks._summary_memo.clear()
    failures = []

    def hammer(offset):
        try:
            for step in range(30):
                index = (offset + step) % len(points)
                assert run_job_params("dvs_run", points[index]) == expected[index]
        except Exception as error:  # reported by the main thread below
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert sum(map(len, tasks._summary_memo.values())) <= 2 * held
