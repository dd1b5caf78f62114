"""Technology node descriptions.

A :class:`TechnologyNode` bundles everything the bus characterisation needs
about a process: the nominal supply, the global-metal wire geometry defaults,
the conductor resistivity, and the device parameters of the repeaters.

The paper's vehicle is a 0.13 um node (:data:`TECH_130NM`).  Scaled nodes used
by the Section 6 technology-scaling discussion are produced by
:func:`repro.interconnect.scaling.scale_technology`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuit.mosfet import TransistorParams
from repro.interconnect.geometry import WireGeometry
from repro.utils.units import um
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class TechnologyNode:
    """Process technology description used to build and characterise a bus.

    Attributes
    ----------
    name:
        Human-readable node name, e.g. ``"130nm"``.
    feature_size:
        Drawn feature size in metres (0.13 um for the paper's node).
    nominal_vdd:
        Nominal supply voltage in volts.
    wire_width / wire_spacing / wire_thickness / dielectric_height:
        Default global-metal geometry at minimum pitch, in metres.
    resistivity:
        Effective conductor resistivity (including barriers), ohm-metres.
    dielectric_constant:
        Relative permittivity of the inter-layer dielectric.
    transistor:
        Device parameters of the repeater inverters.
    """

    name: str
    feature_size: float
    nominal_vdd: float
    wire_width: float
    wire_spacing: float
    wire_thickness: float
    dielectric_height: float
    resistivity: float
    dielectric_constant: float
    transistor: TransistorParams = field(default_factory=TransistorParams)

    def __post_init__(self) -> None:
        check_positive("feature_size", self.feature_size)
        check_positive("nominal_vdd", self.nominal_vdd)
        check_positive("wire_width", self.wire_width)
        check_positive("wire_spacing", self.wire_spacing)
        check_positive("wire_thickness", self.wire_thickness)
        check_positive("dielectric_height", self.dielectric_height)
        check_positive("resistivity", self.resistivity)
        check_positive("dielectric_constant", self.dielectric_constant)

    @property
    def minimum_pitch(self) -> float:
        """Minimum global-metal pitch (width + spacing)."""
        return self.wire_width + self.wire_spacing

    def wire_geometry(self, length: float) -> WireGeometry:
        """Default minimum-pitch wire geometry for a wire of the given length."""
        return WireGeometry(
            width=self.wire_width,
            spacing=self.wire_spacing,
            thickness=self.wire_thickness,
            dielectric_height=self.dielectric_height,
            length=length,
        )


#: The paper's 0.13 um node: 1.2 V nominal supply, 0.8 um minimum global pitch.
TECH_130NM = TechnologyNode(
    name="130nm",
    feature_size=um(0.13),
    nominal_vdd=1.2,
    wire_width=um(0.4),
    wire_spacing=um(0.4),
    wire_thickness=um(0.9),
    dielectric_height=um(0.65),
    resistivity=2.2e-8,
    dielectric_constant=3.6,
)
