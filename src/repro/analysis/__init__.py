"""Experiment drivers reproducing every figure and table of the paper.

The names below load on first use (:mod:`repro.utils.lazy`): the experiment
registry (:mod:`repro.analysis.experiments`) and the text formatters
(:mod:`repro.analysis.reporting`) import without numpy, and each driver
loads with the first experiment that runs it.
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.static_scaling import (
        CornerGainPoint,
        CornerGainStudy,
        StaticScalingPoint,
        StaticScalingSweep,
        combine_summaries,
        run_corner_gain_study,
        run_static_voltage_sweep,
    )
    from repro.analysis.oracle_dvs import (
        FIG6_BENCHMARKS,
        FIG6_TARGETS,
        OracleResidencyStudy,
        ResidencyEntry,
        run_oracle_residency,
    )
    from repro.analysis.dynamic_dvs import (
        Fig8Result,
        Table1CornerResult,
        Table1Result,
        Table1Row,
        run_fig8,
        run_table1,
    )
    from repro.analysis.modified_bus import (
        PAPER_COUPLING_RATIO_MULTIPLIER,
        ModifiedBusStudy,
        TechnologyScalingStudy,
        run_modified_bus_study,
        run_technology_scaling_study,
    )
    from repro.analysis.sensitivity import (
        SensitivityPoint,
        SensitivityStudy,
        format_sensitivity_study,
        run_error_band_sensitivity,
        run_ramp_delay_sensitivity,
        run_shadow_delay_sensitivity,
        run_window_length_sensitivity,
    )
    from repro.analysis.experiments import EXPERIMENTS, Experiment, run_experiment
    from repro.analysis import reporting

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.static_scaling": (
            "CornerGainPoint",
            "CornerGainStudy",
            "StaticScalingPoint",
            "StaticScalingSweep",
            "combine_summaries",
            "run_corner_gain_study",
            "run_static_voltage_sweep",
        ),
        "repro.analysis.oracle_dvs": (
            "FIG6_BENCHMARKS",
            "FIG6_TARGETS",
            "OracleResidencyStudy",
            "ResidencyEntry",
            "run_oracle_residency",
        ),
        "repro.analysis.dynamic_dvs": (
            "Fig8Result",
            "Table1CornerResult",
            "Table1Result",
            "Table1Row",
            "run_fig8",
            "run_table1",
        ),
        "repro.analysis.modified_bus": (
            "PAPER_COUPLING_RATIO_MULTIPLIER",
            "ModifiedBusStudy",
            "TechnologyScalingStudy",
            "run_modified_bus_study",
            "run_technology_scaling_study",
        ),
        "repro.analysis.sensitivity": (
            "SensitivityPoint",
            "SensitivityStudy",
            "format_sensitivity_study",
            "run_error_band_sensitivity",
            "run_ramp_delay_sensitivity",
            "run_shadow_delay_sensitivity",
            "run_window_length_sensitivity",
        ),
        "repro.analysis.experiments": ("EXPERIMENTS", "Experiment", "run_experiment"),
        "repro.analysis.reporting": ("reporting",),
    },
)
