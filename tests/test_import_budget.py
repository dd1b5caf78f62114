"""The cold-start import budget: light commands never load numpy or scipy.

``repro --help``, ``repro list``, a cache-hit ``repro run`` and a cache-hit
``repro submit`` only parse arguments, read the result cache and talk to the
server, so each must start without the simulation stack.  The commands run
in fresh interpreters under ``python -X importtime``, whose report names
every module the process imported.

The rest of the file covers what that budget rests on: the lazy package
exports (:mod:`repro.utils.lazy`), the numpy-free choice lists of the CLI
parser, and the pre-fork import that hands forked workers the simulation
stack the parent no longer loads on ``import repro``.  The last case runs
the simulating stack with scipy blocked: numpy is the only runtime
dependency.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import SWEEP_NAMES, build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"

#: Top-level modules the light commands must not import.
HEAVY = ("numpy", "scipy")

#: Every package whose exports resolve on first use.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.circuit",
    "repro.runtime",
    "repro.server",
    "repro.trace",
    "repro.utils",
)


def _child_env() -> dict[str, str]:
    env = {
        name: value
        for name, value in os.environ.items()
        if name not in ("REPRO_CACHE_DIR", "REPRO_CHARDB", "REPRO_SERVER_ADDR")
    }
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["COLUMNS"] = "80"
    return env


def _run_light(*args: str) -> tuple[str, str]:
    """Run ``python -m repro ARGS``; assert exit 0 and no heavy import.

    Returns ``(stdout, stderr)`` with the import-time report removed.
    """
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", *args],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    report = [line for line in completed.stderr.splitlines() if line.startswith("import time:")]
    stderr = "".join(
        f"{line}\n"
        for line in completed.stderr.splitlines()
        if not line.startswith("import time:")
    )
    assert completed.returncode == 0, stderr
    assert report, "python -X importtime printed no import report"
    imported = {line.rsplit("|", 1)[1].strip() for line in report}
    heavy = sorted(name for name in imported if name.split(".")[0] in HEAVY)
    assert not heavy, f"repro {' '.join(args)} imported {heavy[:5]}"
    return completed.stdout, stderr


def _main_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue()


# --------------------------------------------------------------------------- #
# The light commands, each in a fresh interpreter
# --------------------------------------------------------------------------- #
class TestLightCommands:
    def test_help(self, monkeypatch):
        stdout, _ = _run_light("--help")
        monkeypatch.setenv("COLUMNS", "80")
        assert stdout == build_parser().format_help()

    def test_list(self):
        stdout, _ = _run_light("list")
        assert stdout == _main_stdout(["list"])

    @pytest.fixture()
    def filled_cache(self, tmp_path):
        """A result cache holding one Table 1 run, and that run's stdout."""
        cache_dir = tmp_path / "cache"
        argv = ["--cache-dir", str(cache_dir), "run", "table1", "--cycles", "2000"]
        return cache_dir, _main_stdout(argv)

    def test_cache_hit_run(self, filled_cache):
        cache_dir, expected = filled_cache
        stdout, stderr = _run_light(
            "--cache-dir", str(cache_dir), "run", "table1", "--cycles", "2000"
        )
        assert "table1: cache hit" in stderr
        assert stdout == expected

    def test_cache_hit_submit(self, filled_cache):
        from repro.runtime.cache import ResultCache
        from repro.runtime.workqueue import InlineRunner, WorkQueue
        from repro.server.server import ReproServer

        def never(task, params, ctx):
            raise AssertionError("a cache-hit submission must not execute")

        cache_dir, expected = filled_cache
        queue = WorkQueue(
            n_workers=1,
            cache=ResultCache(cache_dir),
            runner_factory=lambda: InlineRunner(never),
        )
        server = ReproServer(queue, port=0).start()
        try:
            stdout, stderr = _run_light(
                "submit", "table1", "--cycles", "2000", "--port", str(server.address[1])
            )
        finally:
            server.request_shutdown(drain=False)
            server.join(timeout=10.0)
        assert "table1: cache hit" in stderr
        assert stdout == expected


# --------------------------------------------------------------------------- #
# Lazy package exports
# --------------------------------------------------------------------------- #
def _type_checking_imports(package: str) -> dict[str, str]:
    """``name -> defining module`` of the package's ``if TYPE_CHECKING:`` block."""
    path = importlib.import_module(package).__file__
    assert path is not None
    tree = ast.parse(Path(path).read_text())
    blocks = [
        node
        for node in tree.body
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Name)
        and node.test.id == "TYPE_CHECKING"
    ]
    assert len(blocks) == 1, f"{package} needs exactly one TYPE_CHECKING block"
    origins: dict[str, str] = {}
    for node in blocks[0].body:
        assert isinstance(node, ast.ImportFrom) and node.module is not None
        for alias in node.names:
            origins[alias.asname or alias.name] = node.module
    return origins


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyExports:
    def test_every_name_is_its_defining_modules_object(self, package):
        module = importlib.import_module(package)
        origins = _type_checking_imports(package)
        for name in module.__all__:
            if name not in origins:  # defined in the package itself
                assert name in vars(module), f"{package}.{name} is neither lazy nor defined"
                continue
            source = importlib.import_module(origins[name])
            expected = getattr(source, name, None)
            if expected is None:  # ``from pkg import submodule``
                expected = importlib.import_module(f"{origins[name]}.{name}")
            assert getattr(module, name) is expected, f"{package}.{name}"

    def test_type_checking_block_matches_exports(self, package):
        module = importlib.import_module(package)
        assert set(_type_checking_imports(package)) <= set(module.__all__)
        assert len(set(module.__all__)) == len(module.__all__), f"{package}.__all__ repeats"

    def test_dir_lists_every_export(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_star_import(self, package):
        namespace: dict[str, object] = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_export"):
            module.no_such_export  # noqa: B018
        assert not hasattr(module, "no_such_export")


# --------------------------------------------------------------------------- #
# The parser's numpy-free choice lists equal their registries
# --------------------------------------------------------------------------- #
def _choices(command: str, dest: str) -> list[str]:
    parser = build_parser()
    (subparsers,) = (
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    )
    for action in subparsers.choices[command]._actions:
        if action.dest == dest:
            return list(action.choices)
    raise AssertionError(f"{command} has no {dest!r} argument")


class TestChoiceLists:
    def test_corners(self):
        from repro.runtime import CORNERS

        for command in ("characterize", "simulate"):
            assert _choices(command, "corner") == sorted(CORNERS)

    def test_sweeps(self):
        from repro.runtime.sweeps import SWEEPS

        assert SWEEP_NAMES == tuple(sorted(SWEEPS))
        assert _choices("sweep", "name") == sorted(SWEEPS)

    def test_benchmarks(self):
        from repro.trace import TABLE1_ORDER

        assert _choices("simulate", "benchmark") == list(TABLE1_ORDER)

    def test_experiments(self):
        from repro.analysis import EXPERIMENTS

        for command in ("run", "profile", "submit"):
            assert _choices(command, "experiment") == sorted(EXPERIMENTS)


# --------------------------------------------------------------------------- #
# Pre-fork import
# --------------------------------------------------------------------------- #
PREFORK_PROBE = """
import sys

from repro.runtime.executor import run_jobs
from repro.runtime.spec import JobSpec
from repro.runtime.tasks import task

STACK = ("repro.bus", "repro.core.dvs_system", "repro.runtime.parallel")
assert not any(name in sys.modules for name in STACK), "the parent loaded the stack itself"


@task("prefork_probe")
def prefork_probe(index):
    return {"missing": [name for name in STACK if name not in sys.modules]}


report = run_jobs([JobSpec("prefork_probe", {"index": i}) for i in range(2)], n_workers=2)
assert report.n_workers == 2, report.summary()
for result in report.results:
    assert not result["missing"], result["missing"]
print("ok")
"""


def test_process_workers_start_with_the_simulation_stack():
    """A forked worker has the stack loaded before its first job.

    The parent imports only the executor (and registers the probe task).
    The probes are the only jobs the workers run, and each reports which
    stack modules its worker process held when it started.
    """
    completed = subprocess.run(
        [sys.executable, "-c", PREFORK_PROBE],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"


# --------------------------------------------------------------------------- #
# numpy is the only runtime dependency
# --------------------------------------------------------------------------- #
SCIPY_BLOCKED_PROBE = """
import random
import sys

sys.modules["scipy"] = None  # every ``import scipy...`` now raises ImportError

from repro.analysis.dynamic_dvs import run_table1
from repro.bus.bus_design import BusDesign
from repro.interconnect.design_space import run_shield_interval_study

paper = BusDesign.paper_bus()
assert abs(paper.repeaters.size - 27.915320234811446) <= 1e-13 * 27.915320234811446

rng = random.Random(2005)
design = BusDesign.paper_bus(
    length=rng.uniform(3e-3, 8e-3), n_segments=rng.randint(2, 6), shield_group=rng.choice((2, 4))
)
assert 1.0 <= design.repeaters.size <= 600.0

study = run_shield_interval_study()
assert study.by_group(4).repeater_size == paper.repeaters.size
assert study.by_group(2).repeater_size < study.by_group(8).repeater_size

table = run_table1(n_cycles=20_000)
assert len(table.corners) == 2
assert not any(name.split(".")[0] == "scipy" for name in sys.modules if sys.modules[name])
print("ok")
"""


def test_simulating_stack_runs_with_scipy_blocked():
    """Repeater sizing, the shield study and Table 1 import nothing from scipy."""
    completed = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED_PROBE],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"
