"""The benchmark's four workloads.

Each workload is a closed loop run from this one process: an iteration
starts only when the previous one has finished.  Inputs come from the seed
alone.  Every iteration returns the digests of its outputs, which
``run.py`` compares with the first iteration's and with any reference made
during set-up.

``table1``     ``run_table1`` serially at both corners (20 benchmark x corner
               passes over 10 synthetic traces).
``fig8-par``   ``run_fig8(jobs=2)``: one concatenated suite through the
               parallel chunk scheduler; checked against the serial engine.
``pvt-sweep``  the 300-job ``pvt-mega`` sweep through ``run_jobs(jobs=2)``
               into a fresh, empty result cache, with ``chardb/paper.chardb``.
``cli``        ``repro --help``, a cache-hit ``repro run table1`` and a
               cache-hit ``repro submit table1`` against a server started
               during set-up, each as its own process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHARDB = ROOT / "chardb" / "paper.chardb"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"

#: Worker processes for the parallel workloads (the benchmark host has 2 CPUs).
JOBS = 2
#: Cycles per benchmark trace: table1 simulates 10 x 2 x this many bus cycles.
TABLE1_CYCLES = 200_000
#: Cycles per benchmark in the concatenated Fig. 8 suite (10 benchmarks).
FIG8_CYCLES = 500_000
#: Cycles per benchmark of the cached Table 1 the CLI commands read back.
CLI_CYCLES = 20_000
#: Longest any single CLI command may take before it counts as failed.
COMMAND_TIMEOUT_S = 60.0


def digest(value: Any) -> str:
    """Short SHA-256 of a value's canonical JSON (floats at full precision)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def child_env() -> dict[str, str]:
    """Environment for child processes: this checkout's sources, no ambient state."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_CHARDB", "REPRO_CACHE_DIR", "REPRO_SERVER_ADDR", "PYTHONPATH")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclasses.dataclass
class Iteration:
    """One iteration's output digests (``None`` marks a failed output)."""

    outputs: dict[str, str | None]
    parts_s: dict[str, float] = dataclasses.field(default_factory=dict)


class Workload:
    """Base class: set-up, iterations, clean-up.

    ``work_per_iteration`` counts what ``work_per_s`` is a rate of, in
    ``work_unit``; ``ops_per_iteration`` is the number of checked outputs.
    """

    name = ""
    work_unit = ""
    work_per_iteration = 1.0
    ops_per_iteration = 1
    #: Set-up reference outputs every iteration must reproduce.
    reference: dict[str, str | None]

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.reference = {}

    def prepare(self) -> None:
        """Build the inputs from the seed and load what the iterations need."""

    def setup(self, repeats: int) -> list[float]:
        """Time ``repeats`` cold set-ups, then leave this workload prepared.

        A cold set-up is a fresh interpreter that imports the program and
        runs :meth:`prepare` (``run.py --setup-probe``), so imports and work
        moved into set-up both show.  ``repeats=0`` only prepares.
        """
        times = []
        command = [
            sys.executable, str(Path(__file__).resolve().parent / "run.py"),
            "--workload", self.name, "--seed", str(self.seed), "--setup-probe",
        ]
        for _ in range(repeats):
            started = time.perf_counter()
            subprocess.run(
                command, check=True, cwd=ROOT, env=child_env(),
                stdout=subprocess.DEVNULL, timeout=COMMAND_TIMEOUT_S,
            )
            times.append(time.perf_counter() - started)
        self.prepare()
        return times

    def make_reference(self) -> None:
        """Compute set-up-time reference outputs (not timed)."""

    def iteration(self) -> Iteration:
        raise NotImplementedError

    def after_iteration(self) -> None:
        """Untimed clean-up between iterations."""

    def start_tracing(self, tracer: Any) -> None:
        """Switch the following iterations to their traced form."""
        tracer.install()

    def stop_tracing(self) -> list[tuple[dict[str, Any], bool]]:
        """Records made by other processes while traced (see :class:`Cli`)."""
        return []

    def close(self) -> None:
        """Stop everything this workload started."""


class Table1(Workload):
    name = "table1"
    work_unit = "simulated bus cycles"
    work_per_iteration = 10 * 2 * TABLE1_CYCLES

    def prepare(self) -> None:
        from repro.analysis.dynamic_dvs import run_table1

        self._run = run_table1

    def iteration(self) -> Iteration:
        result = self._run(n_cycles=TABLE1_CYCLES, seed=self.seed)
        return Iteration({"table1": digest(dataclasses.asdict(result))})


def _fig8_digest(result: Any) -> str:
    run = result.run
    return digest(
        {
            "summary": result.as_dict(),
            "energy": dataclasses.asdict(run.energy),
            "reference_energy": dataclasses.asdict(run.reference_energy),
            "window_error_rates": run.window_error_rates.tolist(),
            "window_voltages": run.window_voltages.tolist(),
        }
    )


class Fig8Parallel(Workload):
    name = "fig8-par"
    work_unit = "simulated bus cycles"
    work_per_iteration = 10 * FIG8_CYCLES

    def prepare(self) -> None:
        from repro.analysis.dynamic_dvs import run_fig8

        self._run = run_fig8

    def make_reference(self) -> None:
        serial = self._run(n_cycles=FIG8_CYCLES, seed=self.seed)
        self.reference = {"fig8": _fig8_digest(serial)}

    def iteration(self) -> Iteration:
        result = self._run(n_cycles=FIG8_CYCLES, seed=self.seed, jobs=JOBS)
        return Iteration({"fig8": _fig8_digest(result)})


class PvtSweep(Workload):
    name = "pvt-sweep"
    work_unit = "sweep jobs"

    def prepare(self) -> None:
        from repro.runtime import cache, executor
        from repro.runtime.sweeps import get_sweep

        sweep = dataclasses.replace(get_sweep("pvt-mega"), seed=self.seed)
        self._jobs = tuple(spec.with_params(chardb=str(CHARDB)) for spec in sweep.expand())
        self.work_per_iteration = self.ops_per_iteration = len(self._jobs)
        # Modules, not functions: the traced run replaces their attributes.
        self._cache, self._executor = cache, executor
        self._cache_dir: Path | None = None

    def iteration(self) -> Iteration:
        # Every iteration writes into a new, empty cache: all jobs execute.
        self._cache_dir = Path(tempfile.mkdtemp(prefix="pvt-cache-", dir=self.workdir))
        report = self._executor.run_jobs(
            self._jobs, cache=self._cache.ResultCache(self._cache_dir), n_workers=JOBS
        )
        return Iteration(
            {
                f"job{index}": None if outcome.cached else digest(outcome.result)
                for index, outcome in enumerate(report.outcomes)
            }
        )

    def after_iteration(self) -> None:
        if getattr(self, "_cache_dir", None) is not None:
            shutil.rmtree(self._cache_dir, ignore_errors=True)
            self._cache_dir = None

    def close(self) -> None:
        self.after_iteration()


class Cli(Workload):
    """Three user-facing commands, each a fresh process.

    Set-up starts ``repro serve`` and fills its result cache with one
    ``repro run table1``; the iterations then only start interpreters,
    import, read the cache and talk to the server.
    """

    name = "cli"
    work_unit = "CLI commands"
    work_per_iteration = 3
    ops_per_iteration = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._server: subprocess.Popen | None = None
        self._port = 0
        self._cache_dir: Path | None = None
        self._traced = False
        self._records: list[Path] = []
        self._serial = 0

    # ------------------------------------------------------------------ #
    def _command(self, args: list[str]) -> list[str]:
        """``python -m repro ARGS``, or its launcher form while traced."""
        if not self._traced:
            return [sys.executable, "-m", "repro", *args]
        self._serial += 1
        records = self.workdir / f"records-{self._serial}.json"
        self._records.append(records)
        return [sys.executable, str(LAUNCHER), str(records), *args]

    def _run(self, args: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        command = self._command(args)
        started = time.perf_counter()
        completed = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True, timeout=COMMAND_TIMEOUT_S
        )
        return completed, time.perf_counter() - started

    def _table1_args(self) -> list[str]:
        return ["--cycles", str(CLI_CYCLES), "--seed", str(self.seed)]

    def _start_server(self) -> None:
        """Start ``repro serve`` on a free port and wait until it announces it."""
        self._serial += 1
        log_path = self.workdir / f"server-{self._serial}.log"
        args = ["serve", "--port", "0", "--cache-dir", str(self._cache_dir), "--jobs", str(JOBS)]
        with log_path.open("wb") as log:
            self._server = subprocess.Popen(
                self._command(args), cwd=ROOT, env=child_env(),
                stdout=subprocess.DEVNULL, stderr=log,
            )
        deadline = time.monotonic() + COMMAND_TIMEOUT_S
        while True:
            match = re.search(r"job server on [^\s:]+:(\d+)", log_path.read_text())
            if match:
                self._port = int(match.group(1))
                break
            if self._server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"repro serve did not come up:\n{log_path.read_text()}")
            time.sleep(0.01)

    def _stop_server(self) -> None:
        server, self._server = self._server, None
        if server is None:
            return
        try:
            from repro.server import ReproClient

            with ReproClient(port=self._port, timeout=COMMAND_TIMEOUT_S) as client:
                client.shutdown()
            server.wait(timeout=COMMAND_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            server.kill()
            server.wait()

    def prepare(self) -> None:
        self._cache_dir = Path(tempfile.mkdtemp(prefix="cli-cache-", dir=self.workdir))
        self._start_server()
        completed, _ = self._run(
            ["--cache-dir", str(self._cache_dir), "run", "table1", *self._table1_args()]
        )
        if completed.returncode != 0 or b"simulated" not in completed.stderr:
            raise RuntimeError(f"cache pre-fill failed:\n{completed.stderr.decode()}")
        table = digest(completed.stdout.decode())
        self.reference = {"run": table, "submit": table}

    def setup(self, repeats: int) -> list[float]:
        """Time ``max(repeats, 1)`` full set-ups (server start plus cache fill)."""
        times = []
        for index in range(max(repeats, 1)):
            if index:
                self.close()
            started = time.perf_counter()
            self.prepare()
            times.append(time.perf_counter() - started)
        return times[:repeats]

    def iteration(self) -> Iteration:
        outputs: dict[str, str | None] = {}
        parts: dict[str, float] = {}
        commands = {
            "help": (["--help"], None),
            "run": (
                ["--cache-dir", str(self._cache_dir), "run", "table1", *self._table1_args()],
                b"cache hit",
            ),
            "submit": (
                ["submit", "table1", *self._table1_args(), "--port", str(self._port)],
                b"cache hit",
            ),
        }
        for name, (args, expect) in commands.items():
            try:
                completed, parts[name] = self._run(args)
            except subprocess.TimeoutExpired:
                outputs[name], parts[name] = None, COMMAND_TIMEOUT_S
                continue
            ok = completed.returncode == 0 and (expect is None or expect in completed.stderr)
            if not ok:
                sys.stderr.write(f"[perfbench] cli {name} failed:\n{completed.stderr.decode()}\n")
            outputs[name] = digest(completed.stdout.decode()) if ok else None
        return Iteration(outputs, parts)

    def start_tracing(self, tracer: Any) -> None:
        """Restart the server under the launcher; later commands run under it too."""
        self._stop_server()
        self._traced = True
        self._start_server()
        self._server_records = self._records.pop()

    def stop_tracing(self) -> list[tuple[dict[str, Any], bool]]:
        """Stop the traced server and read back every launcher's records.

        Each entry is ``(records, keep main thread)``: the commands' main
        threads are what the iterations wait on, the server's only idles.
        """
        self._stop_server()
        dumps = [(json.loads(self._server_records.read_text()), False)]
        dumps += [(json.loads(path.read_text()), True) for path in self._records]
        return dumps

    def close(self) -> None:
        self._stop_server()
        if self._cache_dir is not None:
            shutil.rmtree(self._cache_dir, ignore_errors=True)
            self._cache_dir = None


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (Table1, Fig8Parallel, PvtSweep, Cli)
}
