"""Voltage-gridded delay/energy tables (the HSPICE tabulation substitute).

The paper characterises the bus with HSPICE "for all possible data input
combinations ... for individual supply voltages (in increments of 20 mV)".
Because this reproduction uses closed-form Elmore/coupling models, the bus
delay for any data pattern reduces to an affine function of the wire's
effective Miller coupling factor ``lambda``::

    delay(Vdd, lambda) = d0(Vdd) + lambda * d1(Vdd)

so the table stores, per 20 mV grid point, the two coefficients ``d0`` and
``d1`` together with the leakage power.  Energy coefficients (self and
coupling capacitance per wire) are voltage-independent and stored once.

The same data structure is reused for any PVT corner; the corner is baked in
when the table is built (see :mod:`repro.bus.characterization`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from collections.abc import Iterator

import numpy as np

from repro.circuit.pvt import PVTCorner
from repro.utils.validation import check_positive

#: Voltage grid step used throughout the paper (20 mV).
DEFAULT_VOLTAGE_STEP = 0.020


@dataclass(frozen=True)
class VoltageGrid:
    """A uniform grid of supply voltages, inclusive of both endpoints.

    The paper's regulator and tabulation both work on a 20 mV grid between a
    conservative minimum and the nominal 1.2 V supply.
    """

    v_min: float
    v_max: float
    step: float = DEFAULT_VOLTAGE_STEP

    def __post_init__(self) -> None:
        check_positive("v_min", self.v_min)
        check_positive("step", self.step)
        if self.v_max < self.v_min:
            raise ValueError(f"v_max ({self.v_max}) must be >= v_min ({self.v_min})")

    @property
    def voltages(self) -> np.ndarray:
        """Grid voltages in ascending order (v_min ... v_max).

        Computed once per grid and returned as the same read-only array on
        every access.
        """
        cached = self.__dict__.get("_voltages")
        if cached is None:
            n_steps = int(round((self.v_max - self.v_min) / self.step))
            cached = self.v_min + self.step * np.arange(n_steps + 1)
            cached.flags.writeable = False
            object.__setattr__(self, "_voltages", cached)
        return cached

    def __getstate__(self) -> dict[str, float]:
        """Pickle the fields only; the voltage cache is rebuilt on first use."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __len__(self) -> int:
        return len(self.voltages)

    def __iter__(self) -> Iterator[float]:
        return iter(self.voltages.tolist())

    def index_of(self, vdd: float) -> int:
        """Index of the grid point nearest to ``vdd``.

        Raises ``ValueError`` if ``vdd`` lies more than half a step outside
        the grid, which would indicate a regulator / table mismatch.
        """
        voltages = self.voltages
        index = int(np.argmin(np.abs(voltages - vdd)))
        if abs(voltages[index] - vdd) > self.step / 2 + 1e-12:
            raise ValueError(
                f"voltage {vdd:.4f} V is outside the grid "
                f"[{self.v_min:.3f}, {self.v_max:.3f}] V"
            )
        return index

    def indices_of(self, vdds: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`index_of` for an array of voltages.

        Raises ``ValueError`` if any voltage is more than half a step outside
        the grid.
        """
        vdds = np.asarray(vdds, dtype=float)
        indices = np.rint((vdds - self.v_min) / self.step).astype(int)
        if np.any(indices < 0) or np.any(indices >= len(self)):
            raise ValueError("one or more voltages are outside the grid")
        if np.any(np.abs(self.voltages[indices] - vdds) > self.step / 2 + 1e-12):
            raise ValueError("one or more voltages are off-grid by more than half a step")
        return indices

    def snap(self, vdd: float) -> float:
        """The grid voltage nearest to ``vdd``."""
        return float(self.voltages[self.index_of(vdd)])

    def clamp(self, vdd: float) -> float:
        """Clamp an arbitrary voltage onto the grid range and snap it."""
        clamped = min(max(vdd, self.v_min), self.v_max)
        return self.snap(clamped)


@dataclass
class DelayEnergyTable:
    """Per-voltage delay coefficients and energy/leakage data for one corner.

    Attributes
    ----------
    grid:
        The supply-voltage grid the table is sampled on.
    corner:
        The PVT corner the table was characterised at.
    base_delay:
        ``d0`` coefficient per grid voltage (seconds): bus delay with zero
        effective coupling.
    coupling_delay:
        ``d1`` coefficient per grid voltage (seconds per unit Miller factor).
    leakage_power:
        Total repeater leakage power of the bus per grid voltage (watts).
    self_capacitance_per_wire:
        Switched self-capacitance (wire ground capacitance plus repeater
        parasitics) of a single wire over the full bus length (farads).
    coupling_capacitance_per_pair:
        Coupling capacitance between one adjacent wire pair (or a wire and
        its shield) over the full bus length (farads).
    """

    grid: VoltageGrid
    corner: PVTCorner
    base_delay: np.ndarray
    coupling_delay: np.ndarray
    leakage_power: np.ndarray
    self_capacitance_per_wire: float
    coupling_capacitance_per_pair: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.grid)
        for name in ("base_delay", "coupling_delay", "leakage_power"):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {value.shape}")
            setattr(self, name, value)
        check_positive("self_capacitance_per_wire", self.self_capacitance_per_wire)
        check_positive("coupling_capacitance_per_pair", self.coupling_capacitance_per_pair)

    # ------------------------------------------------------------------ #
    # Delay queries
    # ------------------------------------------------------------------ #
    def delay(self, vdd: float, coupling_factor: float) -> float:
        """Bus delay at a grid voltage for a given effective Miller factor."""
        index = self.grid.index_of(vdd)
        return float(self.base_delay[index] + coupling_factor * self.coupling_delay[index])

    def delays(self, vdd: float, coupling_factors: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`delay` over an array of coupling factors."""
        index = self.grid.index_of(vdd)
        return self.base_delay[index] + np.asarray(coupling_factors) * self.coupling_delay[index]

    def worst_delay(self, vdd: float, max_coupling_factor: float = 4.0) -> float:
        """Delay of the worst-case switching pattern at a grid voltage."""
        return self.delay(vdd, max_coupling_factor)

    def failing_coupling_factor(self, vdd: float, deadline: float) -> float:
        """Largest effective coupling factor whose delay still meets ``deadline``.

        A cycle misses the deadline at this voltage when its worst wire's
        effective coupling factor is strictly *above* the returned value; a
        factor equal to it has delay == deadline and meets it.  Consumers
        compare with ``>`` (or ``searchsorted(side="left")``).  Returns 0.0
        when even an uncoupled transition is late, and ``inf`` when the
        coupling delay is zero and the deadline is met.
        """
        index = self.grid.index_of(vdd)
        d0 = float(self.base_delay[index])
        d1 = float(self.coupling_delay[index])
        if d1 <= 0.0:
            return 0.0 if d0 > deadline else float("inf")
        threshold = (deadline - d0) / d1
        return threshold if threshold >= 0.0 else 0.0

    def failing_coupling_factors(self, deadline: float) -> np.ndarray:
        """:meth:`failing_coupling_factor` at every grid voltage, in one call.

        Element ``i`` equals the scalar method at ``grid.voltages[i]``
        bit for bit: the same ``d1 <= 0`` branch, the same float64
        arithmetic and the same clamp of negative thresholds to 0.0.
        """
        d0, d1 = self.base_delay, self.coupling_delay
        with np.errstate(divide="ignore", invalid="ignore"):
            threshold = (deadline - d0) / d1
        uncoupled = np.where(d0 > deadline, 0.0, np.inf)
        return np.where(d1 <= 0.0, uncoupled, np.where(threshold >= 0.0, threshold, 0.0))

    def min_voltage_meeting(self, deadline: float, coupling_factor: float = 4.0) -> float:
        """Lowest grid voltage at which the given pattern still meets ``deadline``.

        Raises ``ValueError`` if no grid voltage meets the deadline (the bus
        is mis-designed for that corner).
        """
        delays = self.base_delay + coupling_factor * self.coupling_delay
        meeting = np.nonzero(delays <= deadline)[0]
        if meeting.size == 0:
            raise ValueError(
                f"no grid voltage meets a {deadline * 1e12:.0f} ps deadline at "
                f"coupling factor {coupling_factor} for corner {self.corner.label}"
            )
        return float(self.grid.voltages[int(meeting[0])])

    # ------------------------------------------------------------------ #
    # Energy queries
    # ------------------------------------------------------------------ #
    def leakage_energy_per_cycle(self, vdd: float, cycle_time: float) -> float:
        """Leakage energy of the whole bus over one clock period."""
        check_positive("cycle_time", cycle_time)
        index = self.grid.index_of(vdd)
        return float(self.leakage_power[index]) * cycle_time

    def dynamic_energy(self, vdd: float, switched_self_caps: float, coupling_weight: float) -> float:
        """Dynamic energy for one cycle.

        ``switched_self_caps`` is the number of toggling wires (possibly
        fractional when averaged), ``coupling_weight`` is the sum over
        adjacent pairs of the squared relative swing in units of Vdd^2 (i.e.
        ``sum r_ij^2`` with ``r`` in {0, 1, 2}).
        """
        self_term = 0.5 * self.self_capacitance_per_wire * switched_self_caps
        coupling_term = 0.5 * self.coupling_capacitance_per_pair * coupling_weight
        return (self_term + coupling_term) * vdd * vdd
