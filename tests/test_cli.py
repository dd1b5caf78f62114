"""Tests for the ``python -m repro`` command-line interface."""

import argparse

import pytest

from repro.analysis.experiments import EXPERIMENTS
from repro.cli import CORNERS, build_parser, main
from repro.cpu import KERNELS
from tests.pass_plan import SCALAR, VECTORIZED, forced_plan


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Point every CLI invocation at a throwaway cache.

    Without this, commands that default to the persistent ``.repro-cache``
    would pollute the repo directory and replay stale cached output across
    test sessions, masking regressions in the simulated reports.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))


class TestParser:
    def test_requires_a_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([])
        assert excinfo.value.code == 2
        assert "command" in capsys.readouterr().err

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])
        assert "fig99" in capsys.readouterr().err

    def test_unknown_corner_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["characterize", "--corner", "mars"])
        assert "mars" in capsys.readouterr().err

    def test_corner_aliases_cover_the_figure5_corners(self):
        assert {"worst", "typical", "best"} <= set(CORNERS)
        assert {"corner1", "corner5"} <= set(CORNERS)

    def test_subcommands_are_the_fourteen_survivors(self):
        (subparsers,) = (
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert sorted(subparsers.choices) == [
            "analyze", "cache", "characterize", "chardb", "jobs", "list", "profile",
            "report", "run", "serve", "simulate", "submit", "sweep", "trace",
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare-schemes"],
            ["compare-schemes", "--corner", "typical", "--cycles", "8000"],
            ["kernels"],
            ["serve", "--max-batch", "2"],
        ],
        ids=["compare-schemes", "compare-schemes-flags", "kernels", "serve-max-batch"],
    )
    def test_deleted_commands_are_rejected(self, argv, capsys):
        """``run baselines`` and ``trace --list`` cover what these printed; the
        work queue dispatches one job per worker turn, so ``serve`` has no
        ``--max-batch``."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestListCommands:
    def test_list_prints_every_experiment_id(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for identifier in EXPERIMENTS:
            assert identifier in output

    def test_trace_list_prints_every_kernel(self, capsys):
        assert main(["trace", "--list"]) == 0
        output = capsys.readouterr().out
        for name in KERNELS:
            assert f"cpu:{name}" in output


class TestCharacterize:
    def test_characterize_reports_grid_and_deadlines(self, capsys):
        assert main(["characterize", "--corner", "typical"]) == 0
        output = capsys.readouterr().out
        assert "Typical process" in output
        assert "600 ps" in output
        assert "1200" in output  # the nominal grid point in mV

    def test_worst_corner_zero_error_voltage_is_nominal(self, capsys):
        assert main(["characterize", "--corner", "worst"]) == 0
        output = capsys.readouterr().out
        assert "zero-error supply: 1200 mV" in output


class TestRun:
    def test_run_scaling_experiment(self, capsys):
        # The scaling study is workload-free and therefore fast.
        assert main(["run", "scaling"]) == 0
        output = capsys.readouterr().out
        assert "130nm" in output

    def test_run_fig4b_with_small_workload(self, capsys):
        assert main(["run", "fig4b", "--cycles", "4000", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "error" in output.lower()


class TestSimulate:
    def test_simulate_prints_summary_and_voltage_chart(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--benchmark",
                    "crafty",
                    "--corner",
                    "typical",
                    "--cycles",
                    "20000",
                    "--window",
                    "1000",
                    "--ramp",
                    "300",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "energy gain vs nominal" in output
        assert "supply voltage per control window" in output

    def test_simulate_rejects_unknown_benchmark(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--benchmark", "doom"])
        assert "doom" in capsys.readouterr().err

    def test_global_workload_flags_survive_the_subcommand(self):
        """--cycles placed before the subcommand must not be clobbered by
        subparser defaults (simulate and trace carry their own fallbacks in
        the handler instead)."""
        parser = build_parser()
        before = parser.parse_args(["--cycles", "123", "simulate"])
        assert before.cycles == 123
        after = parser.parse_args(["simulate", "--cycles", "456"])
        assert after.cycles == 456
        default = parser.parse_args(["simulate"])
        assert default.cycles is None  # handler applies the 200k fallback
        trace = parser.parse_args(["--cycles", "789", "trace"])
        assert trace.cycles == 789

    @pytest.mark.parametrize(
        "argv",
        [
            ["--engine", "scalar", "run", "table1"],
            ["run", "table1", "--engine", "vectorized"],
            ["simulate", "--chunk-cycles", "5000"],
            ["--chunk-cycles", "5000", "sweep", "coupling"],
            ["trace", "--workload", "crafty", "--chunk-cycles", "5000"],
            ["profile", "table1", "--engine", "scalar"],
        ],
        ids=["global-engine", "run-engine", "simulate-chunk", "global-chunk", "trace-chunk",
             "profile-engine"],
    )
    def test_kernel_and_chunk_flags_are_rejected(self, argv, capsys):
        """The bus width picks the kernel and the chunk length; no flag does."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_simulate_honours_global_cycles_placement(self, capsys):
        assert main(["--no-cache", "--cycles", "15000", "simulate", "--window", "1000",
                     "--ramp", "300"]) == 0
        assert "cycles simulated      : 15000" in capsys.readouterr().out


def _table_lines(output: str) -> list:
    """A sweep report's table body (drops the run-stats header line)."""
    return [line for line in output.splitlines() if "executed" not in line]


class TestSweepCommand:
    def test_sweep_list_prints_every_named_sweep(self, capsys):
        from repro.runtime import SWEEPS

        assert main(["sweep", "--list"]) == 0
        output = capsys.readouterr().out
        for name in SWEEPS:
            assert name in output

    def test_sweep_runs_and_caches(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        argv = ["sweep", "encoding-matrix", "--limit", "2", "--quiet"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "2 executed, 0 cache hits" in first.err
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "0 executed, 2 cache hits" in second.err
        # identical table body; only the run-stats header line differs
        assert _table_lines(second.out) == _table_lines(first.out)

    def test_sweep_jobs_flag_matches_serial(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["sweep", "controller-grid", "--limit", "2", "--quiet",
                     "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert main(["--jobs", "2", "sweep", "controller-grid", "--limit", "2",
                     "--quiet", "--no-cache"]) == 0
        parallel = capsys.readouterr().out
        assert _table_lines(parallel) == _table_lines(serial)

    def test_sweep_out_writes_jsonl(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "runs"
        assert main(["sweep", "encoding-matrix", "--limit", "1", "--quiet",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "encoding-matrix" / "results.jsonl").is_file()
        assert (out / "encoding-matrix" / "manifest.json").is_file()


class TestCacheCommand:
    def test_info_list_clear_cycle(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["sweep", "encoding-matrix", "--limit", "1", "--quiet"]) == 0
        capsys.readouterr()
        assert main(["cache", "info"]) == 0
        assert "records    : 1" in capsys.readouterr().out
        assert main(["cache", "list"]) == 0
        assert "dvs_run" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "info"]) == 0
        assert "records    : 0" in capsys.readouterr().out


class TestRunCaching:
    def test_repeated_run_hits_the_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        argv = ["run", "fig4b", "--cycles", "3000", "--seed", "1"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "simulated" in first.err
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "cache hit" in second.err
        assert second.out == first.out

    def test_no_cache_flag_bypasses_the_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        argv = ["run", "fig4b", "--cycles", "3000", "--seed", "1", "--no-cache"]
        assert main(argv) == 0
        assert "[runtime]" not in capsys.readouterr().err
        assert main(argv) == 0
        assert "[runtime]" not in capsys.readouterr().err

    def test_jobs_shares_the_serial_cache_record(self, capsys, tmp_path):
        """The worker count is not part of the cache key: results are
        bit-identical for every count, so one record serves them all."""
        cache_dir = tmp_path / "cache"
        argv = ["--cache-dir", str(cache_dir), "run", "table1", "--cycles", "20000"]
        assert main(argv) == 0
        serial = capsys.readouterr()
        assert "simulated" in serial.err
        assert main([*argv, "--jobs", "2"]) == 0
        fanned_out = capsys.readouterr()
        assert "table1: cache hit" in fanned_out.err
        assert fanned_out.out == serial.out
        assert main(["--cache-dir", str(cache_dir), "cache", "list"]) == 0
        assert "1 cached record(s)" in capsys.readouterr().out

    def test_different_seed_misses_the_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["run", "fig4b", "--cycles", "3000", "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(["run", "fig4b", "--cycles", "3000", "--seed", "2"]) == 0
        assert "simulated" in capsys.readouterr().err


class TestBaselines:
    def test_run_baselines_lists_all_four_rows_at_both_corners(self, capsys):
        assert main(["--no-cache", "run", "baselines", "--cycles", "8000", "--seed", "3"]) == 0
        blocks = capsys.readouterr().out.split("\n\n")
        assert len(blocks) == 2
        assert "Slow process" in blocks[0] and "Typical process" in blocks[1]
        for block in blocks:
            for scheme in ("fixed VS", "canary delay-line", "triple-latch monitor",
                           "proposed DVS"):
                assert scheme in block


class TestTraceCommand:
    def test_trace_list_prints_the_registry(self, capsys):
        assert main(["trace", "--list"]) == 0
        output = capsys.readouterr().out
        assert "cpu:memcopy" in output
        assert "crafty" in output
        assert "simpoint:<spec>" in output

    def test_trace_without_workload_falls_back_to_listing(self, capsys):
        assert main(["trace"]) == 0
        assert "no workload given" in capsys.readouterr().out

    def test_trace_inspects_a_kernel_workload(self, capsys):
        assert main(["trace", "--workload", "cpu:fibonacci", "--cycles", "2000"]) == 0
        output = capsys.readouterr().out
        assert "trace 'fibonacci'" in output
        assert "cycles (transitions) : 2000" in output
        assert "toggle density" in output

    def test_trace_roundtrip_generate_save_simulate(self, capsys, tmp_path):
        """The CI smoke's contract: generate -> save npz -> stream into a DVS
        run, with scalar and vectorized kernels printing identical output."""
        archive = tmp_path / "memcopy.npz"
        assert (
            main(["trace", "--workload", "cpu:memcopy", "--cycles", "4000",
                  "--seed", "7", "--out", str(archive)])
            == 0
        )
        assert archive.exists()
        capsys.readouterr()
        outputs = []
        for kernel in (SCALAR, VECTORIZED):
            with forced_plan(kernel):
                assert (
                    main(["--no-cache", "simulate", "--workload", f"file:{archive}",
                          "--window", "500", "--ramp", "150"])
                    == 0
                )
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "cycles simulated      : 4000" in outputs[0]

    def test_trace_saves_hex(self, capsys, tmp_path):
        hexfile = tmp_path / "fib.hex"
        assert (
            main(["trace", "--workload", "cpu:fibonacci", "--cycles", "300",
                  "--out", str(hexfile)])
            == 0
        )
        assert hexfile.read_text().startswith("# bus trace")

    def test_trace_unknown_workload_fails_cleanly(self, capsys):
        assert main(["trace", "--workload", "not_a_workload"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cpu:memcopy" in err  # the known-workloads hint

    def test_simulate_unknown_workload_fails_cleanly(self, capsys):
        assert main(["--no-cache", "simulate", "--workload", "cpu:memcpy"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_mixed_width_workloads_fail_cleanly(self, capsys):
        # A 32-wire benchmark next to a 33-wire encoded workload cannot share
        # one bus; the CLI must say so instead of dumping a traceback.
        assert (
            main(["--no-cache", "run", "table1", "--workload",
                  "crafty,encoded:bus-invert:crafty", "--cycles", "4000"])
            == 2
        )
        err = capsys.readouterr().err
        assert "error:" in err and "mixed bus widths" in err


class TestWorkloadSelectors:
    def test_simulate_accepts_registry_specs(self, capsys):
        assert (
            main(["--no-cache", "simulate", "--workload", "cpu:binary_search",
                  "--cycles", "6000", "--window", "500", "--ramp", "150"])
            == 0
        )
        output = capsys.readouterr().out
        assert "workload 'cpu:binary_search'" in output
        assert "cycles simulated      : 6000" in output

    def test_simulate_redesigns_the_bus_for_encoded_workloads(self, capsys):
        # bus-invert drives 33 wires; the CLI must redesign the bus for the
        # source's width (as the dvs_run task does) instead of crashing
        # against the 32-wire paper bus.
        assert (
            main(["--no-cache", "simulate", "--workload", "encoded:bus-invert:crafty",
                  "--cycles", "4000", "--window", "500", "--ramp", "150"])
            == 0
        )
        assert "cycles simulated      : 4000" in capsys.readouterr().out

    def test_run_table1_with_workload_selector(self, capsys):
        assert (
            main(["--no-cache", "run", "table1", "--workload", "cpu:memcopy,crafty",
                  "--cycles", "12000"])
            == 0
        )
        output = capsys.readouterr().out
        assert "cpu:memcopy" in output
        assert "crafty" in output

    def test_run_table1_workload_rows_keep_suite_concatenation(self, capsys):
        # Comma separates rows; '+' inside a row stays a concatenated suite.
        assert (
            main(["--no-cache", "run", "table1", "--workload", "crafty+mgrid",
                  "--cycles", "6000"])
            == 0
        )
        output = capsys.readouterr().out
        assert "crafty+mgrid" in output  # one suite row, not two rows

    def test_run_table1_workload_redesigns_for_encoded_width(self, capsys):
        assert (
            main(["--no-cache", "run", "table1", "--workload",
                  "encoded:bus-invert:crafty", "--cycles", "6000"])
            == 0
        )
        assert "encoded:bus-invert:crafty" in capsys.readouterr().out

    def test_run_warns_when_experiment_ignores_workload(self, capsys):
        assert main(["--no-cache", "run", "scaling", "--workload", "cpu:memcopy"]) == 0
        assert "does not take --workload" in capsys.readouterr().err

    def test_profile_and_submit_warn_like_run(self, capsys, tmp_path, monkeypatch):
        """All three experiment commands share one argument path and warning."""
        from repro.runtime.cache import ResultCache
        from repro.runtime.workqueue import WorkQueue
        from repro.server.server import ReproServer

        def ignored(err):
            return [line for line in err.splitlines() if "ignoring it" in line]

        warning = "[runtime] scaling does not take --workload; ignoring it"
        assert main(["--no-cache", "run", "scaling", "--workload", "crafty"]) == 0
        assert ignored(capsys.readouterr().err) == [warning]

        monkeypatch.chdir(tmp_path)
        assert main(["profile", "scaling", "--workload", "crafty"]) == 0
        assert ignored(capsys.readouterr().err) == [warning]

        queue = WorkQueue(n_workers=1, cache=ResultCache(tmp_path / "cache"))
        server = ReproServer(queue, port=0).start()
        try:
            port = str(server.address[1])
            assert main(["submit", "scaling", "--workload", "crafty", "--port", port]) == 0
        finally:
            server.request_shutdown(drain=False)
            server.join(timeout=10.0)
        assert ignored(capsys.readouterr().err) == [warning]

    def test_submit_says_it_does_not_forward_jobs(self, capsys, tmp_path):
        """``--jobs`` is named on stderr; stdout and the submitted spec stay the same."""
        from repro.runtime.cache import ResultCache
        from repro.runtime.workqueue import WorkQueue
        from repro.server.server import ReproServer

        notice = (
            "[runtime] submit does not forward --jobs; the server's own --jobs sets its workers"
        )
        queue = WorkQueue(n_workers=1, cache=ResultCache(tmp_path / "cache"))
        server = ReproServer(queue, port=0).start()
        try:
            port = str(server.address[1])
            assert main(["submit", "fig4b", "--cycles", "3000", "--port", port]) == 0
            plain = capsys.readouterr()
            assert main(["--jobs", "2", "submit", "fig4b", "--cycles", "3000",
                         "--port", port]) == 0
            forwarded = capsys.readouterr()
        finally:
            server.request_shutdown(drain=False)
            server.join(timeout=10.0)
        assert notice not in plain.err
        assert notice in forwarded.err.splitlines()
        assert forwarded.out == plain.out
        # the same JobSpec key: the second submission is a cache hit
        assert "cache hit" in forwarded.err

    def test_sweep_workload_axis_reports_specs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["sweep", "workload-matrix", "--limit", "2", "--quiet"]) == 0
        assert "cpu:binary_search" in capsys.readouterr().out


class TestFileWorkloadCaching:
    def test_out_extension_validated(self, capsys, tmp_path):
        assert (
            main(["trace", "--workload", "cpu:fibonacci", "--cycles", "200",
                  "--out", str(tmp_path / "t.txt")])
            == 2
        )
        assert ".npz or .hex" in capsys.readouterr().err
        assert not (tmp_path / "t.txt.npz").exists()

    def test_regenerated_trace_file_invalidates_the_cache(self, capsys, tmp_path,
                                                          monkeypatch):
        # The cache must key on file *content*, not the path string: saving a
        # different trace to the same path has to re-simulate, not replay.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        archive = tmp_path / "trace.npz"
        argv = ["run", "table1", "--workload", f"file:{archive}"]

        assert main(["trace", "--workload", "cpu:fibonacci", "--cycles", "4000",
                     "--seed", "1", "--out", str(archive)]) == 0
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "simulated" in first.err

        assert main(argv) == 0
        assert "cache hit" in capsys.readouterr().err  # same content: hit

        assert main(["trace", "--workload", "cpu:memcopy", "--cycles", "4000",
                     "--seed", "2", "--out", str(archive)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "simulated" in second.err  # regenerated content: miss
        assert second.out != first.out

    def test_out_parent_directory_is_created(self, capsys, tmp_path):
        target = tmp_path / "nested" / "dir" / "t.npz"
        assert main(["trace", "--workload", "cpu:fibonacci", "--cycles", "200",
                     "--out", str(target)]) == 0
        assert target.exists()


class TestTelemetryFlag:
    def test_run_with_telemetry_writes_both_exports(self, capsys, tmp_path):
        base = tmp_path / "t"
        assert main(["--no-cache", f"--telemetry={base}", "run", "scaling"]) == 0
        captured = capsys.readouterr()
        assert "telemetry summary (run)" in captured.err
        assert "[telemetry] event log:" in captured.err
        import json

        document = json.loads((tmp_path / "t.trace.json").read_text())
        assert any(
            event["name"] == "repro.run"
            for event in document["traceEvents"]
            if event["ph"] == "X"
        )
        assert (tmp_path / "t.jsonl").exists()

    def test_telemetry_accepted_after_the_subcommand(self, capsys, tmp_path):
        base = tmp_path / "after"
        assert main(["run", "scaling", "--no-cache", "--telemetry", str(base)]) == 0
        assert (tmp_path / "after.trace.json").exists()

    def test_no_telemetry_flag_writes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--no-cache", "run", "scaling"]) == 0
        assert "telemetry" not in capsys.readouterr().err
        assert list(tmp_path.glob("*.jsonl")) == []

    def test_simulate_with_telemetry_traces_the_dvs_run(self, capsys, tmp_path):
        base = tmp_path / "sim"
        assert (
            main(["simulate", "--cycles", "8000", "--telemetry", str(base)]) == 0
        )
        from repro.telemetry import read_jsonl_metrics

        metrics = read_jsonl_metrics(tmp_path / "sim.jsonl")
        assert metrics is not None
        assert metrics["counters"]["dvs.cycles_simulated"] == 8000


class TestProfileCommand:
    def test_profile_prints_spans_and_counter_deltas(self, capsys, tmp_path,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["profile", "table1", "--cycles", "5000"]) == 0
        captured = capsys.readouterr()
        assert "profile:table1" in captured.out
        assert "counter deltas for the profiled run" in captured.out
        assert "trace.cycles_streamed" in captured.out
        # The default export base for profile is "profile".
        import json

        document = json.loads((tmp_path / "profile.trace.json").read_text())
        assert document["otherData"]["schema"] == "repro-telemetry/1"

    def test_profile_respects_an_explicit_telemetry_base(self, capsys, tmp_path):
        base = tmp_path / "deep" / "p"
        assert (
            main(["profile", "fig4b", "--cycles", "4000", "--telemetry", str(base)])
            == 0
        )
        assert (tmp_path / "deep" / "p.trace.json").exists()

    def test_profile_top_limits_the_span_table(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["profile", "table1", "--cycles", "5000", "--top", "1"]) == 0
        assert "top 1 span paths" in capsys.readouterr().out


class TestCacheStats:
    def test_stats_reports_counters_from_the_log(self, capsys, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        base = tmp_path / "t"
        assert main([f"--telemetry={base}", "run", "fig4b", "--cycles", "4000"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--telemetry", str(base)]) == 0
        output = capsys.readouterr().out
        assert "records" in output
        assert "cache.misses" in output
        assert "hit rate" in output

    def test_stats_without_a_log_explains_how_to_record_one(self, capsys, tmp_path,
                                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["cache", "stats"]) == 0
        assert "--telemetry" in capsys.readouterr().out
