"""Evaluation harness for bus encoding schemes, alone and combined with DVS.

The paper argues (Section 1) that encoding techniques are *orthogonal* to the
proposed error-correcting DVS: encoding lowers the switched capacitance per
cycle at any supply, DVS lowers the supply itself at benign operating
conditions.  :func:`run_encoding_study` quantifies both halves of that claim
for a workload:

* the switching activity and nominal-supply energy of the physically driven
  (encoded) trace, charging redundant wires honestly by rebuilding the bus at
  the encoded width, and
* the closed-loop DVS energy gain on the encoded trace, so the combination
  "encoding + DVS" can be compared against either technique alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.bus.bus_design import BusDesign
from repro.bus.bus_model import CharacterizedBus
from repro.circuit.pvt import TYPICAL_CORNER, PVTCorner
from repro.core.dvs_system import DVSBusSystem
from repro.encoding.base import BusEncoder, IdentityEncoder
from repro.encoding.bus_invert import BusInvertEncoder
from repro.encoding.gray import GrayEncoder
from repro.encoding.transition import TransitionEncoder
from repro.energy.gains import energy_gain_percent
from repro.trace.trace import BusTrace


def default_encoders() -> list[BusEncoder]:
    """The encoder set evaluated by the encoding study and its benchmark."""
    return [
        IdentityEncoder(),
        BusInvertEncoder(),
        BusInvertEncoder(group_size=8),
        GrayEncoder(),
        TransitionEncoder(),
    ]


def encoder_names() -> tuple[str, ...]:
    """Self-declared names of the :func:`default_encoders` set, in order."""
    return tuple(encoder.name for encoder in default_encoders())


def get_encoder(name: str) -> BusEncoder:
    """A fresh encoder instance by its self-declared ``.name``.

    The single name-based lookup shared by the runtime's ``encoder`` sweep
    parameter and the workload registry's ``encoded:<name>:`` specs, so both
    always accept exactly the :func:`default_encoders` set.
    """
    registry = {encoder.name: encoder for encoder in default_encoders()}
    try:
        return registry[name]
    except KeyError:
        known = ", ".join(registry)
        raise KeyError(f"unknown encoder {name!r}; known: {known}") from None


@dataclass(frozen=True)
class EncoderEvaluation:
    """Measurements for one encoder on one workload.

    Attributes
    ----------
    encoder_name:
        Scheme name.
    n_wires:
        Physical bus width including any redundant wires.
    toggle_activity:
        Mean fraction of physical wires toggling per cycle.
    nominal_energy:
        Absolute bus+recovery energy (joules) of the encoded trace at the
        nominal supply with no errors.
    nominal_energy_vs_unencoded:
        Ratio of ``nominal_energy`` to the unencoded bus's nominal energy
        (< 1 means the encoder saves energy before any voltage scaling).
    dvs_energy:
        Absolute energy of the closed-loop DVS run on the encoded trace.
    dvs_gain_vs_unencoded_nominal:
        Energy gain (percent) of "encoding + DVS" relative to the unencoded
        bus at nominal supply -- the end-to-end number that shows whether the
        two techniques compose.
    dvs_gain_vs_encoded_nominal:
        Energy gain (percent) of the DVS run relative to the *encoded* bus at
        nominal supply: the voltage-scaling contribution in isolation.
    dvs_average_error_rate:
        Average corrected-error rate of the DVS run.
    """

    encoder_name: str
    n_wires: int
    toggle_activity: float
    nominal_energy: float
    nominal_energy_vs_unencoded: float
    dvs_energy: float
    dvs_gain_vs_unencoded_nominal: float
    dvs_gain_vs_encoded_nominal: float
    dvs_average_error_rate: float

    def as_dict(self) -> dict:
        """Stable JSON-able view of one encoder's row."""
        return {
            "encoder": self.encoder_name,
            "n_wires": int(self.n_wires),
            "toggle_activity": round(self.toggle_activity, 4),
            "nominal_energy_vs_unencoded": round(self.nominal_energy_vs_unencoded, 4),
            "dvs_gain_vs_unencoded_nominal_percent": round(
                self.dvs_gain_vs_unencoded_nominal, 2
            ),
            "dvs_gain_vs_encoded_nominal_percent": round(
                self.dvs_gain_vs_encoded_nominal, 2
            ),
            "dvs_average_error_rate_percent": round(self.dvs_average_error_rate * 100.0, 3),
        }


@dataclass(frozen=True)
class EncodingStudy:
    """Results of evaluating several encoders on one workload at one corner."""

    workload_name: str
    corner: PVTCorner
    evaluations: tuple[EncoderEvaluation, ...]

    def by_name(self, encoder_name: str) -> EncoderEvaluation:
        """Look up one encoder's evaluation by name."""
        for evaluation in self.evaluations:
            if evaluation.encoder_name == encoder_name:
                return evaluation
        known = ", ".join(e.encoder_name for e in self.evaluations)
        raise KeyError(f"no evaluation for {encoder_name!r}; known: {known}")

    @property
    def unencoded(self) -> EncoderEvaluation:
        """The identity-encoder reference row."""
        return self.by_name(IdentityEncoder.name)

    def as_dict(self) -> dict:
        """Stable JSON-able view: one row per evaluated encoder."""
        return {
            "workload": self.workload_name,
            "corner": self.corner.label,
            "encoders": [evaluation.as_dict() for evaluation in self.evaluations],
        }


def design_for_width(reference: BusDesign, n_wires: int) -> BusDesign:
    """The paper bus re-designed for a different wire count.

    The repeater sizing flow is re-run so the wider bus still meets the same
    worst-case delay target; shielding keeps the paper's one-shield-per-four-
    signal-wires structure.
    """
    if n_wires == reference.n_bits:
        return reference
    return BusDesign.paper_bus(
        technology=reference.technology,
        n_bits=n_wires,
        length=reference.length,
        n_segments=reference.n_segments,
        clocking=reference.clocking,
        design_corner=reference.design_corner,
    )


def run_encoding_study(
    trace: BusTrace,
    corner: PVTCorner = TYPICAL_CORNER,
    encoders: Sequence[BusEncoder] | None = None,
    design: BusDesign | None = None,
    window_cycles: int = 2_000,
    ramp_delay_cycles: int = 600,
    warmup_fraction: float = 0.5,
) -> EncodingStudy:
    """Evaluate a set of encoders on one workload trace at one PVT corner.

    Parameters
    ----------
    trace:
        The data trace (what the processor wants to transmit).
    corner:
        PVT corner for characterisation and the DVS runs.
    encoders:
        Encoders to evaluate; defaults to :func:`default_encoders`.
    design:
        Reference (unencoded) bus design; defaults to the paper bus.
    window_cycles / ramp_delay_cycles:
        Control-loop parameters of the DVS runs, defaulting to scaled-down
        values for short traces.
    warmup_fraction:
        Fraction of the trace excluded from DVS energy accounting so the
        reported gains reflect steady state (see ``DVSBusSystem.run``).
    """
    if encoders is None:
        encoders = default_encoders()
    if design is None:
        design = BusDesign.paper_bus()
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")

    # Reference: the unencoded trace on the reference bus at nominal supply.
    reference_bus = CharacterizedBus(design, corner)
    reference_energy = reference_bus.nominal_energy(
        reference_bus.summarize(trace)
    ).total_with_recovery

    buses: dict[int, CharacterizedBus] = {design.n_bits: reference_bus}
    evaluations: list[EncoderEvaluation] = []
    warmup = int(warmup_fraction * trace.n_cycles)
    # DVS gains are reported over the post-warm-up region, so the unencoded
    # nominal reference must cover exactly the same cycles.
    measured_reference = reference_bus.nominal_energy(
        reference_bus.summarize(trace.window(warmup, trace.n_cycles - warmup))
    ).total_with_recovery

    for encoder in encoders:
        encoded = encoder.encode(trace)
        n_wires = encoded.n_bits
        if n_wires not in buses:
            buses[n_wires] = CharacterizedBus(design_for_width(design, n_wires), corner)
        bus = buses[n_wires]

        nominal = bus.nominal_energy(bus.summarize(encoded)).total_with_recovery
        system = DVSBusSystem(
            bus, window_cycles=window_cycles, ramp_delay_cycles=ramp_delay_cycles
        )
        result = system.run(encoded, warmup_cycles=warmup)
        # Express the DVS energy against the *unencoded nominal* reference so
        # encoding savings and voltage-scaling savings add up in one number.
        evaluations.append(
            EncoderEvaluation(
                encoder_name=encoder.name,
                n_wires=n_wires,
                toggle_activity=encoded.toggle_activity(),
                nominal_energy=nominal,
                nominal_energy_vs_unencoded=nominal / reference_energy,
                dvs_energy=result.energy.total_with_recovery,
                dvs_gain_vs_unencoded_nominal=energy_gain_percent(
                    measured_reference, result.energy.total_with_recovery
                ),
                dvs_gain_vs_encoded_nominal=result.energy_gain_percent,
                dvs_average_error_rate=result.average_error_rate,
            )
        )
    return EncodingStudy(
        workload_name=trace.name, corner=corner, evaluations=tuple(evaluations)
    )


def format_encoding_study(study: EncodingStudy) -> str:
    """Text table of an encoding study (one row per encoder)."""
    header = (
        f"Encoding study -- workload {study.workload_name!r}, corner {study.corner.label}\n"
        f"{'encoder':<14} {'wires':>5} {'activity':>9} {'E/E_unenc':>10} "
        f"{'DVS gain %':>11} {'err %':>6}"
    )
    rows = [header, "-" * len(header.splitlines()[-1])]
    for evaluation in study.evaluations:
        rows.append(
            f"{evaluation.encoder_name:<14} {evaluation.n_wires:>5d} "
            f"{evaluation.toggle_activity:>9.3f} "
            f"{evaluation.nominal_energy_vs_unencoded:>10.3f} "
            f"{evaluation.dvs_gain_vs_unencoded_nominal:>11.1f} "
            f"{evaluation.dvs_average_error_rate * 100:>6.2f}"
        )
    return "\n".join(rows)
