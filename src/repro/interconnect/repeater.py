"""Repeater (buffer) modelling and sizing.

The paper's bus is divided into 1.5 mm segments by repeaters that are "sized
so that the maximum delay ... on the bus is 600 ps" at the worst-case PVT
corner and switching pattern.  :func:`size_for_target_delay` reproduces that
design step in closed form: it solves for the smallest repeater size whose
worst-case delay meets the target, mirroring the design philosophy of
spending no more repeater area (and energy) than the constraint requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.circuit.delay_model import DriverDelayModel
from repro.circuit.pvt import PVTCorner
from repro.interconnect.elmore import BusDelayCoefficients, bus_delay_coefficients
from repro.interconnect.parasitics import SegmentParasitics
from repro.utils.validation import check_positive

#: Largest repeater size (in multiples of a minimum inverter) the sizer explores.
MAX_REPEATER_SIZE = 600.0


@dataclass(frozen=True)
class RepeaterChain:
    """A uniform chain of repeaters along one bus wire.

    Attributes
    ----------
    n_segments:
        Number of repeated wire segments (the paper uses 4 x 1.5 mm = 6 mm).
    size:
        Repeater drive strength as a multiple of the minimum inverter.
    receiver_capacitance:
        Input capacitance of the receiving flip-flop at the end of the wire.
    """

    n_segments: int
    size: float
    receiver_capacitance: float = 4.0e-15

    def __post_init__(self) -> None:
        if self.n_segments <= 0:
            raise ValueError(f"n_segments must be positive, got {self.n_segments}")
        check_positive("size", self.size)
        check_positive("receiver_capacitance", self.receiver_capacitance, strict=False)

    def delay_coefficients(
        self,
        vdd: float,
        corner: PVTCorner,
        segment: SegmentParasitics,
        driver_model: DriverDelayModel,
    ) -> BusDelayCoefficients:
        """Affine delay coefficients of the full wire at a supply and corner."""
        resistance = driver_model.driver_resistance(vdd, corner, self.size)
        if math.isinf(resistance):
            return BusDelayCoefficients(base=math.inf, per_coupling=0.0)
        return bus_delay_coefficients(
            driver_resistance=resistance,
            segment=segment,
            n_segments=self.n_segments,
            driver_self_capacitance=driver_model.drain_capacitance(self.size),
            repeater_gate_capacitance=driver_model.gate_capacitance(self.size),
            receiver_capacitance=self.receiver_capacitance,
        )

    def worst_case_delay(
        self,
        vdd: float,
        corner: PVTCorner,
        segment: SegmentParasitics,
        driver_model: DriverDelayModel,
        max_coupling_factor: float = 4.0,
    ) -> float:
        """Delay of the worst-case coupling pattern at a supply and corner."""
        return self.delay_coefficients(vdd, corner, segment, driver_model).delay(
            max_coupling_factor
        )

    def total_repeater_size(self, n_wires: int) -> float:
        """Summed repeater size over the whole bus (for leakage accounting)."""
        return self.size * self.n_segments * n_wires


class RepeaterSizingError(RuntimeError):
    """Raised when no repeater size can meet the requested worst-case delay."""


def size_for_target_delay(
    target_delay: float,
    vdd: float,
    corner: PVTCorner,
    segment: SegmentParasitics,
    driver_model: DriverDelayModel,
    n_segments: int,
    receiver_capacitance: float = 4.0e-15,
    max_coupling_factor: float = 4.0,
) -> RepeaterChain:
    """Find the smallest repeater size meeting ``target_delay`` at the corner.

    Drive current is linear in the repeater size ``s`` and the gate and drain
    capacitances scale with it, so the worst-case delay is exactly
    ``A + B/s + C*s`` (``C*s`` is the wire charging the next repeater's gate,
    zero for one segment).  The delay-optimal size is ``sqrt(B/C)`` clamped
    to ``[1, MAX_REPEATER_SIZE]``; the smallest size meeting the target is
    the smaller root of ``C*s**2 - (target - A)*s + B``.  If even the
    delay-optimal size misses the target (or the supply is at or below
    threshold) the bus cannot be built for this clock frequency and
    :class:`RepeaterSizingError` is raised.
    """
    check_positive("target_delay", target_delay)

    def worst_delay(size: float) -> float:
        chain = RepeaterChain(
            n_segments=n_segments, size=size, receiver_capacitance=receiver_capacitance
        )
        return chain.worst_case_delay(vdd, corner, segment, driver_model, max_coupling_factor)

    # Solve A, B and C from the delays at sizes h/k, h and h*k (1, 32, 1024).
    # Powers of two scale the drive current and the capacitances exactly.
    h = k = 32.0
    at_one, at_h = worst_delay(h / k), worst_delay(h)
    below = (at_one - at_h) / (k - 1.0)  # B/h - C*h/k
    above = (worst_delay(h * k) - at_h) / (k - 1.0)  # C*h - B/(h*k)
    b_h = (below + above / k) / (1.0 - 1.0 / k**2)
    c_h = (above + below / k) / (1.0 - 1.0 / k**2)
    a, b, c = at_h - b_h - c_h, b_h * h, c_h / h

    # C vanishes (up to rounding) for one segment and is NaN below threshold.
    optimal_size = MAX_REPEATER_SIZE
    if c > 0.0:
        optimal_size = min(max(math.sqrt(b / c), 1.0), MAX_REPEATER_SIZE)
    optimal_delay = worst_delay(optimal_size)
    if optimal_delay > target_delay:
        raise RepeaterSizingError(
            f"target delay {target_delay * 1e12:.0f} ps unreachable at corner "
            f"{corner.label}: best achievable is {optimal_delay * 1e12:.0f} ps"
        )

    if at_one <= target_delay:
        smallest = 1.0
    else:
        # The cancellation-free form of the smaller root, exact when C = 0.
        slack = target_delay - a
        smallest = 2.0 * b / (slack + math.sqrt(max(slack * slack - 4.0 * b * c, 0.0)))
        # A sliver of margin keeps the design-corner worst case strictly inside
        # the deadline despite rounding in the solved terms, so the bus is
        # genuinely error-free at the design point.
        smallest = min(smallest * 1.002, optimal_size)
    return RepeaterChain(
        n_segments=n_segments, size=smallest, receiver_capacitance=receiver_capacitance
    )
