"""Alpha-power-law MOSFET model used for the repeater/driver devices.

The paper characterises the bus with HSPICE on a 0.13 um CMOS process.  We
replace the BSIM device models with Sakurai's alpha-power law, which captures
the two effects the DVS study depends on:

* the super-linear increase of gate delay as the supply approaches the
  threshold voltage, and
* the shift of drive strength (and threshold) with process corner and
  temperature.

The model provides drive current, an effective switching resistance, gate and
drain capacitances, and sub-threshold leakage for an inverter of a given size
(expressed as a multiple of the minimum inverter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.circuit.pvt import ProcessCorner
from repro.utils.units import CELSIUS_TO_KELVIN
from repro.utils.validation import check_positive

#: Boltzmann constant over elementary charge (thermal voltage per kelvin).
BOLTZMANN_OVER_Q = 8.617333262e-5


@dataclass(frozen=True)
class TransistorParams:
    """Technology-level device parameters for the alpha-power-law model.

    The default values target a generic 0.13 um CMOS process with a nominal
    supply of 1.2 V.  They are calibrated (see ``tests/circuit`` and the
    calibration notes in DESIGN.md) so that the voltage at which the bus first
    meets its worst-case timing target at each PVT corner reproduces the
    paper's reported slack (e.g. error-free operation down to ~0.98 V at the
    typical / 100 C / no-IR-drop corner).
    """

    #: Nominal threshold voltage at 25 C per process corner (volts).
    vth0: dict[ProcessCorner, float] = field(
        default_factory=lambda: {
            ProcessCorner.SLOW: 0.350,
            ProcessCorner.TYPICAL: 0.320,
            ProcessCorner.FAST: 0.295,
        }
    )
    #: Relative drive-strength (transconductance) multiplier per corner.
    drive_factor: dict[ProcessCorner, float] = field(
        default_factory=lambda: {
            ProcessCorner.SLOW: 0.93,
            ProcessCorner.TYPICAL: 1.00,
            ProcessCorner.FAST: 1.06,
        }
    )
    #: Velocity-saturation (alpha-power) exponent.
    alpha: float = 1.6
    #: Threshold-voltage temperature coefficient (V per degree C, negative).
    vth_temp_coeff: float = -7.0e-4
    #: Mobility temperature exponent: mobility ~ (T/T0)^(-mobility_temp_exp).
    mobility_temp_exp: float = 1.0
    #: Reference temperature for drive-strength normalisation (Celsius).
    reference_temperature_c: float = 25.0
    #: Drive current of a minimum inverter at (typical, 25 C, 1.2 V) in amps.
    unit_drive_current: float = 2.2e-4
    #: Effective-resistance fitting factor (R_eff = fit * Vdd / I_on).
    resistance_fit: float = 0.80
    #: Gate capacitance of a minimum inverter (farads).
    unit_gate_cap: float = 2.0e-15
    #: Drain (self-load) capacitance of a minimum inverter (farads).
    unit_drain_cap: float = 1.6e-15
    #: Sub-threshold leakage of a minimum inverter at (typical, 25 C, 1.2 V).
    unit_leakage_current: float = 2.0e-9
    #: Sub-threshold swing ideality factor.
    subthreshold_n: float = 1.5
    #: DIBL coefficient (leakage sensitivity to Vdd, per volt of Vdd).
    dibl: float = 0.08

    def __post_init__(self) -> None:
        check_positive("alpha", self.alpha)
        check_positive("unit_drive_current", self.unit_drive_current)
        check_positive("unit_gate_cap", self.unit_gate_cap)
        check_positive("unit_drain_cap", self.unit_drain_cap)
        check_positive("unit_leakage_current", self.unit_leakage_current)
        for corner in ProcessCorner:
            if corner not in self.vth0:
                raise ValueError(f"vth0 missing entry for {corner}")
            if corner not in self.drive_factor:
                raise ValueError(f"drive_factor missing entry for {corner}")


class AlphaPowerModel:
    """Evaluate drive strength, delay resistance and leakage of an inverter.

    Parameters
    ----------
    params:
        Device parameters.  Defaults to a calibrated 0.13 um set.
    """

    def __init__(self, params: TransistorParams | None = None) -> None:
        self.params = params if params is not None else TransistorParams()

    # ------------------------------------------------------------------ #
    # Threshold / mobility
    # ------------------------------------------------------------------ #
    def threshold_voltage(self, corner: ProcessCorner, temperature_c: float) -> float:
        """Threshold voltage at the given corner and temperature."""
        p = self.params
        delta_t = temperature_c - p.reference_temperature_c
        return p.vth0[corner] + p.vth_temp_coeff * delta_t

    def mobility_factor(self, temperature_c: float) -> float:
        """Relative carrier mobility versus the reference temperature."""
        p = self.params
        t_kelvin = temperature_c + CELSIUS_TO_KELVIN
        t_ref = p.reference_temperature_c + CELSIUS_TO_KELVIN
        return (t_kelvin / t_ref) ** (-p.mobility_temp_exp)

    # ------------------------------------------------------------------ #
    # Drive current and effective resistance
    # ------------------------------------------------------------------ #
    def drive_current(
        self,
        vdd: float,
        corner: ProcessCorner,
        temperature_c: float,
        size: float = 1.0,
    ) -> float:
        """Saturation drive current of an inverter of the given size.

        Returns 0.0 when the supply is at or below the threshold voltage
        (the device no longer switches in strong inversion); callers treat a
        zero current as "infinitely slow".
        """
        check_positive("size", size)
        p = self.params
        vth = self.threshold_voltage(corner, temperature_c)
        overdrive = vdd - vth
        if overdrive <= 0.0:
            return 0.0
        strength = p.drive_factor[corner] * self.mobility_factor(temperature_c)
        nominal_overdrive = 1.2 - p.vth0[ProcessCorner.TYPICAL]
        normalised = (overdrive / nominal_overdrive) ** p.alpha
        return p.unit_drive_current * size * strength * normalised

    def effective_resistance(
        self,
        vdd: float,
        corner: ProcessCorner,
        temperature_c: float,
        size: float = 1.0,
    ) -> float:
        """Effective switching resistance of an inverter of the given size.

        Modelled as ``fit * Vdd / I_on``; returns ``math.inf`` below
        threshold.
        """
        current = self.drive_current(vdd, corner, temperature_c, size)
        if current == 0.0:
            return math.inf
        return self.params.resistance_fit * vdd / current

    # ------------------------------------------------------------------ #
    # Capacitance
    # ------------------------------------------------------------------ #
    def gate_capacitance(self, size: float = 1.0) -> float:
        """Input (gate) capacitance of an inverter of the given size."""
        check_positive("size", size)
        return self.params.unit_gate_cap * size

    def drain_capacitance(self, size: float = 1.0) -> float:
        """Output (drain/self-load) capacitance of an inverter of the given size."""
        check_positive("size", size)
        return self.params.unit_drain_cap * size

    # ------------------------------------------------------------------ #
    # Leakage
    # ------------------------------------------------------------------ #
    def leakage_current(
        self,
        vdd: float,
        corner: ProcessCorner,
        temperature_c: float,
        size: float = 1.0,
    ) -> float:
        """Sub-threshold leakage current of an inverter of the given size.

        Uses the standard exponential sub-threshold model with DIBL.  Leakage
        increases with temperature (through the thermal voltage and the lower
        threshold) and decreases as the supply is scaled down.
        """
        check_positive("size", size)
        p = self.params
        vth = self.threshold_voltage(corner, temperature_c)
        vth_ref = p.vth0[ProcessCorner.TYPICAL]
        thermal = BOLTZMANN_OVER_Q * (temperature_c + CELSIUS_TO_KELVIN)
        thermal_ref = BOLTZMANN_OVER_Q * (p.reference_temperature_c + CELSIUS_TO_KELVIN)
        exponent = (
            -(vth - p.dibl * vdd) / (p.subthreshold_n * thermal)
            + (vth_ref - p.dibl * 1.2) / (p.subthreshold_n * thermal_ref)
        )
        return p.unit_leakage_current * size * math.exp(exponent)
