"""Tests for JobSpec / SweepSpec: identity, expansion, seeding."""

import pytest

from repro.runtime.spec import JobSpec, SweepSpec


class TestJobSpec:
    def test_key_ignores_param_insertion_order(self):
        a = JobSpec("dvs_run", {"benchmark": "crafty", "seed": 1})
        b = JobSpec("dvs_run", {"seed": 1, "benchmark": "crafty"})
        assert a.key == b.key

    def test_key_changes_when_a_parameter_changes(self):
        """Cache-invalidation semantics: any parameter edit is a new job."""
        base = JobSpec("dvs_run", {"benchmark": "crafty", "n_cycles": 1000})
        assert base.key != base.with_params(n_cycles=2000).key
        assert base.key != base.with_params(encoder="gray").key
        assert base.key != JobSpec("characterize", dict(base.params)).key

    def test_key_ignores_the_worker_count(self):
        """``jobs`` changes how a job runs, never its bit-identical result."""
        import repro
        from repro.runtime.hashing import stable_hash

        serial = JobSpec("experiment", {"identifier": "table1", "n_cycles": 20_000})
        assert serial.with_params(jobs=2).key == serial.key
        assert serial.with_params(jobs=2, n_cycles=30_000).key != serial.key
        # A spec without ``jobs`` keys as it did before the exclusion existed.
        identity = {
            "task": serial.task,
            "params": dict(serial.params),
            "code_version": repro.__version__,
        }
        assert serial.key == stable_hash(identity)

    def test_unhashable_params_fail_at_construction(self):
        with pytest.raises(TypeError):
            JobSpec("dvs_run", {"bad": object()})

    def test_payload_round_trip(self):
        spec = JobSpec("dvs_run", {"benchmark": "crafty", "seed": 1})
        assert JobSpec.from_payload(spec.to_payload()) == spec

    def test_label_mentions_task_and_string_params(self):
        spec = JobSpec("dvs_run", {"benchmark": "crafty", "n_cycles": 5000})
        assert "dvs_run" in spec.label
        assert "crafty" in spec.label


class TestSweepSpec:
    def make(self, **overrides):
        kwargs = dict(
            name="demo",
            task="dvs_run",
            base={"n_cycles": 1000},
            axes={"benchmark": ("crafty", "mgrid"), "corner": ("typical", "worst", "best")},
        )
        kwargs.update(overrides)
        return SweepSpec(**kwargs)

    def test_n_points_is_the_axis_product(self):
        assert self.make().n_points == 6

    def test_expand_is_row_major_and_deterministic(self):
        jobs = self.make().expand()
        assert len(jobs) == 6
        assert [job.params["benchmark"] for job in jobs] == ["crafty"] * 3 + ["mgrid"] * 3
        assert [job.params["corner"] for job in jobs[:3]] == ["typical", "worst", "best"]
        assert jobs == self.make().expand()

    def test_axis_values_override_base(self):
        spec = self.make(base={"n_cycles": 1000, "corner": "typical"})
        jobs = spec.expand()
        assert {job.params["corner"] for job in jobs} == {"typical", "worst", "best"}

    def test_limit_takes_a_prefix(self):
        assert self.make().expand(limit=2) == self.make().expand()[:2]

    def test_seed_injection_is_per_point_and_stable(self):
        jobs = self.make(seed=2005).expand()
        seeds = [job.params["seed"] for job in jobs]
        assert len(set(seeds)) == len(seeds)  # every point gets its own seed
        assert seeds == [job.params["seed"] for job in self.make(seed=2005).expand()]

    def test_seed_by_shares_traces_across_analysis_axes(self):
        """Points differing only along corner get the same workload seed."""
        spec = self.make(seed=2005, seed_by=("benchmark", "n_cycles"))
        jobs = spec.expand()
        for benchmark in ("crafty", "mgrid"):
            seeds = {
                job.params["seed"]
                for job in jobs
                if job.params["benchmark"] == benchmark
            }
            assert len(seeds) == 1  # same trace at every corner
        assert (
            jobs[0].params["seed"]
            != [j for j in jobs if j.params["benchmark"] == "mgrid"][0].params["seed"]
        )

    def test_registry_sweeps_share_traces_across_corners(self):
        from repro.runtime.sweeps import get_sweep

        jobs = get_sweep("corner-workload").expand()
        crafty_seeds = {
            job.params["seed"] for job in jobs if job.params["benchmark"] == "crafty"
        }
        assert len(crafty_seeds) == 1

    def test_key_changes_with_code_version(self, monkeypatch):
        """A release must miss the persistent cache, not replay stale physics."""
        import repro

        spec = JobSpec("dvs_run", {"benchmark": "crafty"})
        before = spec.key
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert spec.key != before

    def test_explicit_seed_in_base_wins(self):
        jobs = self.make(seed=2005, base={"n_cycles": 1000, "seed": 42}).expand()
        assert {job.params["seed"] for job in jobs} == {42}

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            self.make(axes={"benchmark": ()})

    def test_bare_string_axis_rejected(self):
        """'typical' must not silently expand to 7 one-character points."""
        with pytest.raises(TypeError, match="bare string"):
            self.make(axes={"corner": "typical"})

    def test_describe_mentions_size(self):
        assert "6 x dvs_run" in self.make().describe()


class TestFileWorkloadContentAddressing:
    def test_key_tracks_file_workload_content(self, tmp_path):
        # Regenerating a file: trace must change the job identity (and
        # restoring the original content must restore it), for every entry
        # point that builds a JobSpec -- CLI run, sweeps, direct specs.
        from repro.runtime.spec import JobSpec
        from repro.trace import resolve_workload, save_trace_npz

        archive = tmp_path / "trace.npz"
        spec = JobSpec("dvs_run", {"workload": f"file:{archive}", "n_cycles": 400})

        first = resolve_workload("cpu:fibonacci", n_cycles=400, seed=1).materialize()
        save_trace_npz(first, archive)
        key_first = spec.key

        save_trace_npz(
            resolve_workload("cpu:memcopy", n_cycles=400, seed=2).materialize(), archive
        )
        assert spec.key != key_first

        save_trace_npz(first, archive)
        assert spec.key == key_first

    def test_generative_workload_keys_ignore_the_filesystem(self):
        from repro.runtime.spec import JobSpec

        spec = JobSpec("dvs_run", {"workload": "cpu:memcopy", "n_cycles": 400})
        assert spec.key == spec.key
        plain = JobSpec("dvs_run", {"benchmark": "crafty", "n_cycles": 400})
        assert plain.key != spec.key
