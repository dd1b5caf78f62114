"""Bus structure, characterisation and cycle-level behavioural model."""

from repro.bus.bus_design import BusDesign
from repro.bus.characterization import (
    DEFAULT_MIN_VOLTAGE,
    characterization_surfaces,
    characterize_bus,
    default_voltage_grid,
)
from repro.bus.bus_model import (
    CharacterizedBus,
    TraceStatistics,
    TraceStatisticsAccumulator,
    TraceSummary,
    merge_summaries,
)

__all__ = [
    "BusDesign",
    "DEFAULT_MIN_VOLTAGE",
    "characterization_surfaces",
    "characterize_bus",
    "default_voltage_grid",
    "CharacterizedBus",
    "TraceStatistics",
    "TraceStatisticsAccumulator",
    "TraceSummary",
    "merge_summaries",
]
