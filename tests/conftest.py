"""Shared fixtures for the test suite.

The paper's bus design and its characterisations are expensive enough (a few
hundred milliseconds each) that they are built once per session and shared by
every test that only reads them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bus import BusDesign, CharacterizedBus
from repro.bus.bus_model import analyze_trace_statistics
from repro.circuit.pvt import TYPICAL_CORNER, WORST_CASE_CORNER
from repro.trace import generate_benchmark_trace


@pytest.fixture(scope="session")
def paper_design() -> BusDesign:
    """The paper's 6 mm / 32-bit / 1.5 GHz bus, repeaters sized at the worst corner."""
    return BusDesign.paper_bus()


@pytest.fixture(scope="session")
def worst_corner_bus(paper_design: BusDesign) -> CharacterizedBus:
    """The paper bus characterised at the worst-case corner."""
    return CharacterizedBus(paper_design, WORST_CASE_CORNER)


@pytest.fixture(scope="session")
def typical_corner_bus(paper_design: BusDesign) -> CharacterizedBus:
    """The paper bus characterised at the typical corner of Table 1."""
    return CharacterizedBus(paper_design, TYPICAL_CORNER)


@pytest.fixture(scope="session")
def crafty_trace():
    """A short crafty trace shared by read-only tests."""
    return generate_benchmark_trace("crafty", n_cycles=30_000, seed=7)


@pytest.fixture(scope="session")
def mgrid_trace():
    """A short mgrid trace shared by read-only tests."""
    return generate_benchmark_trace("mgrid", n_cycles=30_000, seed=7)


@pytest.fixture(scope="session")
def crafty_stats(typical_corner_bus: CharacterizedBus, crafty_trace):
    """Pre-computed trace statistics of the crafty trace on the typical-corner bus."""
    return analyze_trace_statistics(crafty_trace, typical_corner_bus.design.topology)


@pytest.fixture(scope="session")
def crafty_summary(crafty_stats):
    """The crafty statistics reduced to the summary constant-supply queries take."""
    return crafty_stats.summarize()


@pytest.fixture(autouse=True)
def _empty_summary_memo():
    """Start and end every test with an empty ``dvs_run`` summary memo.

    A memo warmed by an earlier test would let ``dvs_run`` skip its
    statistics pass, so tests that patch or count the kernels would not
    reach them.
    """
    from repro.runtime import tasks

    tasks._summary_memo.clear()
    yield
    tasks._summary_memo.clear()


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic RNG for tests that need randomness."""
    return np.random.default_rng(12345)
