"""repro: reproduction of "DVS for On-Chip Bus Designs Based on Timing Error
Correction" (Kaul, Sylvester, Blaauw, Mudge, Austin -- DATE 2005).

The package implements, in pure Python:

* the double-sampling (Razor-style) error-detecting flip-flop bank and the
  closed-loop DVS control system the paper proposes (:mod:`repro.core`),
* the 6 mm / 32-bit / 1.5 GHz repeated and shielded bus test vehicle with its
  device, interconnect and energy models (:mod:`repro.circuit`,
  :mod:`repro.interconnect`, :mod:`repro.bus`),
* a synthetic SPEC2000-like workload substrate (:mod:`repro.trace`) and a
  mini functional CPU that records read-bus traces from executed kernels
  (:mod:`repro.cpu`),
* experiment drivers that regenerate every figure and table of the paper's
  evaluation, plus parameter-sensitivity sweeps (:mod:`repro.analysis`),
* the related-work baselines (:mod:`repro.baselines`), low-power bus
  encodings (:mod:`repro.encoding`) and pipeline/IPC models
  (:mod:`repro.arch`) the paper discusses around its contribution, and
* terminal plotting (:mod:`repro.plotting`) and a command-line interface
  (``python -m repro``, :mod:`repro.cli`).

Quickstart
----------
Characterise the paper's bus at the typical corner and run the closed-loop
DVS system on a short synthetic workload (scale ``n_cycles`` up to the
paper's 10 M for the published numbers -- the run streams in O(chunk)
memory):

>>> from repro import BusDesign, CharacterizedBus, DVSBusSystem, TYPICAL_CORNER
>>> from repro.trace import generate_benchmark_trace
>>> bus = CharacterizedBus(BusDesign.paper_bus(), TYPICAL_CORNER)
>>> round(bus.zero_error_voltage(), 2)          # error-free supply (V)
0.98
>>> trace = generate_benchmark_trace("crafty", n_cycles=20_000, seed=1)
>>> system = DVSBusSystem(bus, window_cycles=1_000, ramp_delay_cycles=300)
>>> result = system.run(trace)
>>> result.failures                             # shadow latch never violated
0
>>> result.energy_gain_percent > 20.0           # paper band at this corner: 35-45 %
True

Regenerate the paper's artifacts and check them against the published
values with ``python -m repro report --experiments table1,fig8`` (see
:mod:`repro.report`).

The names below load on first use (:mod:`repro.utils.lazy`): ``import repro``
itself does not load numpy, so ``repro --help`` and a cache-hit ``repro run``
start fast.
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.bus import (
        BusDesign,
        CharacterizedBus,
        TraceStatistics,
        TraceStatisticsAccumulator,
        TraceSummary,
        characterize_bus,
    )
    from repro.circuit import (
        BEST_CASE_CORNER,
        STANDARD_CORNERS,
        TYPICAL_CORNER,
        WORST_CASE_CORNER,
        ProcessCorner,
        PVTCorner,
        VoltageGrid,
    )
    from repro.clocking import PAPER_CLOCKING, ClockingParameters
    from repro.core import (
        BangBangPolicy,
        DoubleSamplingFlipFlop,
        DVSBusSystem,
        DVSRunResult,
        ErrorCounter,
        FlipFlopBank,
        ProportionalPolicy,
        VoltageRegulator,
        WindowedVoltageController,
        evaluate_fixed_scaling,
        fixed_scaling_voltage,
        oracle_voltage_schedule,
    )
    from repro.energy import EnergyBreakdown, breakdown_gain_percent, energy_gain_percent
    from repro.interconnect import TECH_130NM, TechnologyNode
    from repro.trace import (
        SPEC2000_PROFILES,
        TABLE1_ORDER,
        BusTrace,
        generate_benchmark_trace,
        generate_suite,
    )

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.bus": (
            "BusDesign",
            "CharacterizedBus",
            "TraceStatistics",
            "TraceStatisticsAccumulator",
            "TraceSummary",
            "characterize_bus",
        ),
        "repro.circuit": (
            "BEST_CASE_CORNER",
            "STANDARD_CORNERS",
            "TYPICAL_CORNER",
            "WORST_CASE_CORNER",
            "ProcessCorner",
            "PVTCorner",
            "VoltageGrid",
        ),
        "repro.clocking": ("PAPER_CLOCKING", "ClockingParameters"),
        "repro.core": (
            "BangBangPolicy",
            "DoubleSamplingFlipFlop",
            "DVSBusSystem",
            "DVSRunResult",
            "ErrorCounter",
            "FlipFlopBank",
            "ProportionalPolicy",
            "VoltageRegulator",
            "WindowedVoltageController",
            "evaluate_fixed_scaling",
            "fixed_scaling_voltage",
            "oracle_voltage_schedule",
        ),
        "repro.energy": ("EnergyBreakdown", "breakdown_gain_percent", "energy_gain_percent"),
        "repro.interconnect": ("TECH_130NM", "TechnologyNode"),
        "repro.trace": (
            "SPEC2000_PROFILES",
            "TABLE1_ORDER",
            "BusTrace",
            "generate_benchmark_trace",
            "generate_suite",
        ),
    },
)

#: A plain constant, not a lazy export: ``JobSpec.key`` reads it on every
#: cache lookup.
__version__ = "1.3.0"
__all__.append("__version__")
