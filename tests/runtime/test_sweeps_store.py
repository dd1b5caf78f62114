"""Tests for the named-sweep registry, report formatting and result store."""

import inspect

import pytest

from repro.runtime.executor import run_jobs
from repro.runtime.spec import SweepSpec
from repro.runtime.store import ResultStore, load_results
from repro.runtime.sweeps import SWEEPS, format_sweep_report, get_sweep
from repro.runtime.tasks import CORNERS, _dvs_job, dvs_run, resolve_corner


class TestRegistry:
    def test_known_sweeps_exist(self):
        assert {"corner-workload", "encoding-matrix", "controller-grid", "coupling",
                "pvt-mega"} <= set(SWEEPS)

    def test_every_sweep_expands_to_its_declared_size(self):
        for sweep in SWEEPS.values():
            assert len(sweep.expand()) == sweep.n_points

    def test_every_sweep_point_builds_its_run(self):
        # Each point's workload, control segmenter, regulator and controller
        # are built as dvs_run builds them; nothing is simulated.
        parameters = inspect.signature(dvs_run).parameters
        for sweep in SWEEPS.values():
            assert sweep.task == "dvs_run", f"{sweep.name}: teach this test {sweep.task!r}"
            for job in sweep.expand():
                params = {name: value.default for name, value in parameters.items()}
                params.update(job.params)
                _, source, system, segmenter, warmup = _dvs_job(
                    *(params[name] for name in inspect.signature(_dvs_job).parameters)
                )
                assert segmenter.n_cycles == source.n_cycles, (sweep.name, job.params)
                system.stream(source.n_cycles, warmup_cycles=warmup)

    def test_pvt_mega_is_a_multi_hundred_point_grid(self):
        assert get_sweep("pvt-mega").n_points >= 300

    def test_unknown_sweep_raises_with_known_names(self):
        with pytest.raises(KeyError, match="corner-workload"):
            get_sweep("nope")

    def test_all_grid_corners_resolve(self):
        for sweep in SWEEPS.values():
            for corner in sweep.axes.get("corner", ()):
                resolve_corner(corner)

    def test_corner_aliases_cover_the_paper(self):
        assert {"worst", "typical", "best", "corner1", "corner5"} <= set(CORNERS)


class TestFormatting:
    def test_report_collapses_constant_columns(self):
        sweep = SweepSpec(
            name="fmt",
            task="dvs_run",
            base={"n_cycles": 1_500, "corner": "typical"},
            axes={"benchmark": ("crafty", "mgrid")},
            seed=2005,
        )
        report = run_jobs(sweep.expand())
        text = format_sweep_report(sweep, report)
        assert "crafty" in text and "mgrid" in text
        assert "Gain (%)" in text
        # the corner is constant across the grid: not a column, but still
        # reported once in the header so no identity information is lost
        column_header = next(line for line in text.splitlines() if "Gain (%)" in line)
        assert "Corner" not in column_header
        assert "fixed across all points" in text
        assert "Typical process" in text

    def test_empty_report(self):
        sweep = SweepSpec(name="empty", task="dvs_run", axes={"benchmark": ("crafty",)})
        report = run_jobs([])
        assert "no results" in format_sweep_report(sweep, report)


class TestResultStore:
    def test_round_trip_manifest_and_records(self, tmp_path):
        sweep = SweepSpec(
            name="store-demo",
            task="dvs_run",
            base={"n_cycles": 1_500},
            axes={"benchmark": ("crafty", "mgrid")},
            seed=2005,
        )
        report = run_jobs(sweep.expand())
        run_dir = ResultStore(tmp_path).write_report(sweep.name, report, sweep=sweep)
        assert (run_dir / "manifest.json").is_file()
        records = load_results(run_dir)
        assert len(records) == 2
        assert records[0]["params"]["benchmark"] == "crafty"
        assert records[0]["result"]["energy_gain_percent"] == pytest.approx(
            report.results[0]["energy_gain_percent"]
        )
        assert all(len(record["key"]) == 64 for record in records)

    def test_register_artifact(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.register_artifact("run1", "chart.txt", b"ascii chart")
        assert path.read_bytes() == b"ascii chart"
        assert path.parent.name == "artifacts"
