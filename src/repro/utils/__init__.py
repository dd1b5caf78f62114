"""Small shared utilities: units, validation helpers, and RNG management.

The names below load on first use (:mod:`repro.utils.lazy`), so the
numpy-free helpers -- units and validation -- import without numpy.
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.utils.units import (
        CELSIUS_TO_KELVIN,
        fF,
        GHz,
        kelvin,
        MHz,
        mV,
        nm,
        ohm_per_square,
        pF,
        ps,
        um,
        volts_from_mv,
    )
    from repro.utils.validation import (
        check_fraction,
        check_in_range,
        check_positive,
        check_probability,
    )
    from repro.utils.rng import make_rng, spawn_rngs

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.utils.units": (
            "CELSIUS_TO_KELVIN",
            "fF",
            "GHz",
            "kelvin",
            "MHz",
            "mV",
            "nm",
            "ohm_per_square",
            "pF",
            "ps",
            "um",
            "volts_from_mv",
        ),
        "repro.utils.validation": (
            "check_fraction",
            "check_in_range",
            "check_positive",
            "check_probability",
        ),
        "repro.utils.rng": ("make_rng", "spawn_rngs"),
    },
)
