"""Tests for the content-addressed result cache."""

import json
import os

from repro.runtime.cache import CACHE_SCHEMA_VERSION, ResultCache, shared_cache
from repro.runtime.hashing import stable_hash


class TestRecords:
    def test_miss_then_put_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_hash({"task": "t", "params": {"a": 1}})
        assert cache.get(key) is None
        assert key not in cache
        cache.put(key, {"task": "t", "params": {"a": 1}, "result": {"gain": 1.5}})
        assert key in cache
        record = cache.get(key)
        assert record["result"] == {"gain": 1.5}
        assert record["key"] == key
        assert record["schema"] == CACHE_SCHEMA_VERSION

    def test_changed_params_never_alias(self, tmp_path):
        """Cache invalidation: a different spec is a different address."""
        cache = ResultCache(tmp_path)
        key_a = stable_hash({"task": "t", "params": {"n_cycles": 1000}})
        key_b = stable_hash({"task": "t", "params": {"n_cycles": 2000}})
        cache.put(key_a, {"result": {"v": "a"}})
        assert cache.get(key_b) is None
        cache.put(key_b, {"result": {"v": "b"}})
        assert cache.get(key_a)["result"]["v"] == "a"
        assert cache.get(key_b)["result"]["v"] == "b"

    def test_corrupt_record_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_hash({"x": 1})
        cache.put(key, {"result": {}})
        path = cache._record_path(key)
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None

    def test_old_schema_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_hash({"x": 1})
        path = cache._record_path(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"schema": -1, "result": {}}), encoding="utf-8")
        assert cache.get(key) is None

    def test_keys_delete_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = [stable_hash({"i": i}) for i in range(3)]
        for key in keys:
            cache.put(key, {"result": {}})
        assert sorted(cache.keys()) == sorted(keys)
        assert cache.delete(keys[0])
        assert not cache.delete(keys[0])
        assert cache.clear() == 2
        assert list(cache.keys()) == []

    def test_leftover_temp_files_are_not_phantom_records(self, tmp_path):
        """A writer killed mid-write leaves .tmp-* files; never surface them."""
        cache = ResultCache(tmp_path)
        key = stable_hash({"i": 1})
        cache.put(key, {"result": {}})
        bucket = cache._record_path(key).parent
        (bucket / ".tmp-abandoned.json").write_text("{", encoding="utf-8")
        assert list(cache.keys()) == [key]
        assert cache.stats().entries == 1

    def test_clear_sweeps_abandoned_but_not_in_flight_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_hash({"i": 1})
        cache.put(key, {"result": {}})
        bucket = cache._record_path(key).parent
        abandoned = bucket / ".tmp-abandoned.json"
        in_flight = bucket / ".tmp-in-flight.json"
        abandoned.write_text("{", encoding="utf-8")
        in_flight.write_text("{", encoding="utf-8")
        old = abandoned.stat().st_mtime - 3600
        os.utime(abandoned, (old, old))
        assert cache.clear() == 2
        assert not abandoned.exists()
        assert in_flight.exists()
        assert list(cache.keys()) == []

    def test_clear_empties_a_legacy_artifacts_directory(self, tmp_path):
        """Older versions pickled objects under artifacts/; clear() still sweeps them."""
        cache = ResultCache(tmp_path)
        cache.put(stable_hash({"i": 1}), {"result": {}})
        legacy = tmp_path / "artifacts" / "ab" / ("ab" * 32 + "-characterized-bus.pkl")
        legacy.parent.mkdir(parents=True)
        legacy.write_bytes(b"old pickle")
        assert cache.clear() == 2
        assert not legacy.exists()
        assert not legacy.parent.exists()

    def test_stats_counts_entries_and_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(stable_hash({"i": 1}), {"result": {"x": 1}})
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.total_bytes > 0
        assert "records    : 1" in stats.format()


class TestSharedCache:
    def test_follows_environment_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert shared_cache().root == tmp_path / "env-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "other"))
        assert shared_cache().root == tmp_path / "other"


class TestConcurrency:
    """Parallel writers and writer-vs-clear races (the job-server workload)."""

    def test_concurrent_writers_of_same_key_are_idempotent(self, tmp_path):
        import threading

        cache = ResultCache(tmp_path)
        key = stable_hash({"task": "t", "params": {"x": 1}})
        record = {"task": "t", "params": {"x": 1}, "result": {"gain": 2.5}}
        barrier = threading.Barrier(8)
        failures = []

        def writer():
            try:
                barrier.wait(timeout=10)
                for _ in range(25):
                    cache.put(key, record)
                    read = cache.get(key)
                    # Readers racing the writers may only ever see a full,
                    # valid record (atomic replace) -- never a torn one.
                    assert read is not None and read["result"] == {"gain": 2.5}
            except BaseException as error:
                failures.append(error)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert not failures, failures
        assert cache.get(key)["result"] == {"gain": 2.5}
        assert list(cache.keys()) == [key]
        # No leaked .tmp-* files from any writer.
        leftovers = [p for p in (tmp_path / "objects").rglob(".tmp-*")]
        assert leftovers == []

    def test_put_survives_concurrent_clear(self, tmp_path):
        """A writer racing ``clear()`` re-creates the pruned bucket and wins."""
        import threading

        cache = ResultCache(tmp_path)
        key = stable_hash({"task": "t", "params": {"x": 2}})
        record = {"task": "t", "result": {"v": 1}}
        stop = threading.Event()
        failures = []

        def writer():
            try:
                while not stop.is_set():
                    cache.put(key, record)
            except BaseException as error:
                failures.append(error)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(200):
                cache.clear()
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert not failures, failures
        # The last put (after the final clear) is intact and readable.
        cache.put(key, record)
        assert cache.get(key)["result"] == {"v": 1}

    def test_atomic_write_retries_when_bucket_vanishes(self, tmp_path, monkeypatch):
        """Deterministic repro of the clear-vs-put gap: prune between steps."""
        import os as os_module

        from repro.runtime import cache as cache_module

        cache = ResultCache(tmp_path)
        key = stable_hash({"task": "t", "params": {"x": 3}})
        bucket = cache._record_path(key).parent
        real_replace = os_module.replace
        pruned = {"count": 0}

        def replace_with_sabotage(src, dst):
            # Simulate clear() winning the race: the bucket (and the temp
            # file) disappear right before the rename -- once.
            if pruned["count"] == 0:
                pruned["count"] += 1
                for child in bucket.iterdir():
                    child.unlink()
                bucket.rmdir()
            return real_replace(src, dst)

        monkeypatch.setattr(cache_module.os, "replace", replace_with_sabotage)
        cache.put(key, {"result": {"v": "survived"}})
        assert pruned["count"] == 1
        assert cache.get(key)["result"] == {"v": "survived"}
