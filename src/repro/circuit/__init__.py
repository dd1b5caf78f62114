"""Device- and circuit-level substrate (the HSPICE substitute).

This package contains everything below the interconnect level:

* :mod:`repro.circuit.pvt` -- process / IR-drop / temperature corners,
* :mod:`repro.circuit.mosfet` -- alpha-power-law device model,
* :mod:`repro.circuit.delay_model` -- Elmore-style stage delay primitives,
* :mod:`repro.circuit.energy_model` -- switching / coupling / leakage energy,
* :mod:`repro.circuit.spice_lite` -- a small trapezoidal RC transient solver,
* :mod:`repro.circuit.lookup_table` -- 20 mV-gridded delay/energy tables.
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.circuit.pvt import (
        BEST_CASE_CORNER,
        STANDARD_CORNERS,
        TYPICAL_CORNER,
        WORST_CASE_CORNER,
        ProcessCorner,
        PVTCorner,
        corner_pair_for_table1,
    )
    from repro.circuit.mosfet import AlphaPowerModel, TransistorParams
    from repro.circuit.delay_model import (
        DISTRIBUTED_RC_FACTOR,
        LUMPED_RC_FACTOR,
        DriverDelayModel,
        StageLoads,
        stage_delay,
    )
    from repro.circuit.energy_model import (
        FlipFlopEnergyParams,
        coupling_energy,
        leakage_energy,
        switching_energy,
    )
    from repro.circuit.lookup_table import DEFAULT_VOLTAGE_STEP, DelayEnergyTable, VoltageGrid
    from repro.circuit.spice_lite import (
        RCNetwork,
        TransientResult,
        build_coupled_line,
        step_waveform,
    )

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.circuit.pvt": (
            "BEST_CASE_CORNER",
            "STANDARD_CORNERS",
            "TYPICAL_CORNER",
            "WORST_CASE_CORNER",
            "ProcessCorner",
            "PVTCorner",
            "corner_pair_for_table1",
        ),
        "repro.circuit.mosfet": ("AlphaPowerModel", "TransistorParams"),
        "repro.circuit.delay_model": (
            "DISTRIBUTED_RC_FACTOR",
            "LUMPED_RC_FACTOR",
            "DriverDelayModel",
            "StageLoads",
            "stage_delay",
        ),
        "repro.circuit.energy_model": (
            "FlipFlopEnergyParams",
            "coupling_energy",
            "leakage_energy",
            "switching_energy",
        ),
        "repro.circuit.lookup_table": ("DEFAULT_VOLTAGE_STEP", "DelayEnergyTable", "VoltageGrid"),
        "repro.circuit.spice_lite": (
            "RCNetwork",
            "TransientResult",
            "build_coupled_line",
            "step_waveform",
        ),
    },
)
