"""Content-addressed on-disk result cache.

Layout (all under one root directory, ``.repro-cache/`` by default or
``$REPRO_CACHE_DIR`` when set)::

    <root>/objects/<k0k1>/<key>.json     one JSON record per completed job

``key`` is the hex SHA-256 of the job's canonical content (see
:mod:`repro.runtime.hashing`), so the cache needs no index: looking up a job
is a single ``stat``.  Records are written atomically (temp file +
``os.replace``) so a crashed or parallel writer can never leave a torn entry,
and concurrent writers of the *same* key are idempotent by construction --
they write byte-identical content.

A corrupt or unreadable record is treated as a miss, never an error: the
cache is an accelerator, and the simulation is always the source of truth.

Every lookup and store reports to the installed telemetry collector
(``cache.hits`` / ``cache.misses`` / ``cache.puts`` / ``cache.bytes_written``),
which is what ``repro cache stats`` reads back from the last telemetry log;
with telemetry disabled the counters are no-ops.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any
from collections.abc import Iterator

from repro.telemetry import get_telemetry

__all__ = ["ResultCache", "CacheStats", "default_cache_dir", "shared_cache"]

#: Bump when the record schema changes; stored in every record and checked on
#: read so old-schema entries simply miss instead of being misinterpreted.
CACHE_SCHEMA_VERSION = 1

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``.repro-cache`` in the CWD."""
    override = os.environ.get(CACHE_DIR_ENV)
    return Path(override) if override else Path(".repro-cache")


@dataclass(frozen=True)
class CacheStats:
    """Aggregate statistics of one cache directory."""

    root: Path
    entries: int
    total_bytes: int

    def format(self) -> str:
        """Human-readable one-paragraph summary."""
        mib = self.total_bytes / (1024 * 1024)
        return (
            f"cache root : {self.root}\n"
            f"records    : {self.entries}\n"
            f"disk usage : {mib:.2f} MiB"
        )


def _is_record_key(stem: str) -> bool:
    """Whether a filename stem is a real cache key (64 hex chars).

    Filters out ``.tmp-*`` files a killed writer may have left behind, so
    they never surface as phantom records in ``keys()`` or ``stats()``.
    """
    if len(stem) != 64:
        return False
    try:
        int(stem, 16)
        return True
    except ValueError:
        return False


# A writer holds its ``.tmp-*`` file for microseconds; one older than this
# was left by a killed writer and is safe for ``clear()`` to remove.
_STALE_TEMP_SECONDS = 60.0


def _is_live_temp(path: Path) -> bool:
    """Whether ``path`` is a concurrent writer's in-flight temp file."""
    if not path.name.startswith(".tmp-"):
        return False
    try:
        return time.time() - path.stat().st_mtime < _STALE_TEMP_SECONDS
    except OSError:
        return False


def _unlink_quiet(name: str) -> None:
    try:
        os.unlink(name)
    except OSError:
        pass


def _atomic_write_bytes(path: Path, payload: bytes, attempts: int = 5) -> None:
    """Write ``payload`` to ``path`` atomically (same-directory temp file).

    The bucket directory can vanish between ``mkdir`` and the temp-file
    create or rename when a concurrent ``clear()`` prunes it, so both steps
    retry (re-creating the directory) a bounded number of times: a writer
    racing maintenance still lands its record instead of raising
    ``FileNotFoundError``.
    """
    for attempt in range(attempts):
        last_try = attempt == attempts - 1
        try:
            # mkdir(exist_ok=True) can itself raise FileExistsError when a
            # concurrent rmdir lands between its EEXIST and is_dir re-check.
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
        except (FileNotFoundError, FileExistsError):
            if last_try:
                raise
            continue
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
            return
        except FileNotFoundError:
            _unlink_quiet(tmp_name)
            if last_try:
                raise
        except BaseException:
            _unlink_quiet(tmp_name)
            raise


class ResultCache:
    """Content-addressed store of JSON job records.

    Examples
    --------
    Records are plain JSON dicts addressed by a 64-hex-char key (usually a
    :attr:`~repro.runtime.spec.JobSpec.key`); a miss returns ``None``:

    >>> import tempfile
    >>> tmp = tempfile.TemporaryDirectory()
    >>> cache = ResultCache(tmp.name)
    >>> key = "ab" * 32
    >>> cache.get(key) is None
    True
    >>> cache.put(key, {"energy_gain_percent": 38.6})
    >>> cache.get(key)["energy_gain_percent"]
    38.6
    >>> key in cache
    True
    >>> cache.clear()
    1
    >>> tmp.cleanup()
    """

    def __init__(self, root: Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    # ------------------------------------------------------------------ #
    # JSON job records
    # ------------------------------------------------------------------ #
    def _record_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored record for ``key``, or ``None`` on miss/corruption."""
        path = self._record_path(key)
        telemetry = get_telemetry()
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            telemetry.count("cache.misses")
            return None
        if not isinstance(record, dict) or record.get("schema") != CACHE_SCHEMA_VERSION:
            telemetry.count("cache.misses")
            return None
        telemetry.count("cache.hits")
        return record

    def put(self, key: str, record: dict[str, Any]) -> None:
        """Store ``record`` under ``key`` (atomically; overwrites allowed)."""
        stored = dict(record)
        stored["schema"] = CACHE_SCHEMA_VERSION
        stored["key"] = key
        payload = json.dumps(stored, sort_keys=True, indent=None).encode("utf-8")
        _atomic_write_bytes(self._record_path(key), payload)
        telemetry = get_telemetry()
        telemetry.count("cache.puts")
        telemetry.count("cache.bytes_written", len(payload))

    def delete(self, key: str) -> bool:
        """Remove one record; returns whether it existed."""
        try:
            os.unlink(self._record_path(key))
            return True
        except OSError:
            return False

    def __contains__(self, key: str) -> bool:
        return self._record_path(key).is_file()

    def keys(self) -> Iterator[str]:
        """All record keys currently on disk (unspecified order)."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        for path in sorted(objects.glob("*/*.json")):
            if _is_record_key(path.stem):
                yield path.stem

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def clear(self) -> int:
        """Delete every record; returns the number of files removed.

        The ``artifacts/`` directory that older versions wrote pickled
        objects into is swept too, so their caches can still be emptied.
        A concurrent writer's in-flight temp file is left alone, so its
        rename still lands (and its bucket survives the prune); only temp
        files abandoned by a killed writer are swept.
        """
        removed = 0
        for subdir in ("objects", "artifacts"):
            base = self.root / subdir
            if not base.is_dir():
                continue
            for path in sorted(base.glob("*/*")):
                if _is_live_temp(path):
                    continue
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    pass
            for bucket in sorted(base.glob("*")):
                try:
                    bucket.rmdir()
                except OSError:
                    pass
        return removed

    def stats(self) -> CacheStats:
        """Record count and total disk usage of this cache."""
        entries = total = 0
        for path in (self.root / "objects").glob("*/*"):
            if path.name.startswith(".tmp-"):
                continue
            try:
                total += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return CacheStats(root=self.root, entries=entries, total_bytes=total)


_SHARED: ResultCache | None = None


def shared_cache() -> ResultCache:
    """The process-wide default cache (rooted at :func:`default_cache_dir`).

    The instance is created lazily and re-created if ``$REPRO_CACHE_DIR``
    changes, so tests can redirect it with ``monkeypatch.setenv``.
    """
    global _SHARED
    root = default_cache_dir()
    if _SHARED is None or _SHARED.root != root:
        _SHARED = ResultCache(root)
    return _SHARED
