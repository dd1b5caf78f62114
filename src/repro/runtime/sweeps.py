"""Named sweep specifications and sweep-report rendering.

The registry below is the declarative counterpart of the experiment registry
in :mod:`repro.analysis.experiments`: where an *experiment* regenerates one
figure or table of the paper with bespoke analysis code, a *sweep* is a plain
parameter grid over one runtime task, executed by the engine with caching and
parallelism.  ``python -m repro sweep <name>`` runs them; the example scripts
build on the larger grids.

Grid sizes are chosen so the full registry remains runnable on a laptop; the
``--limit`` CLI flag takes a deterministic prefix of any grid for smoke runs,
and all points are cached, so iterating on a report re-simulates nothing.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.analysis.reporting import format_table
from repro.cpu.kernels import KERNELS
from repro.encoding import encoder_names
from repro.runtime.executor import ExecutionReport
from repro.runtime.spec import SweepSpec
from repro.trace.benchmarks import TABLE1_ORDER

__all__ = ["SWEEPS", "get_sweep", "format_sweep_report", "ENCODER_NAMES"]

#: Encoder aliases accepted by the ``encoder`` sweep parameter.  The encoder
#: classes in :mod:`repro.encoding` are the single source of truth, so any
#: encoder added there (including parameterised variants like
#: ``bus-invert/8``) is immediately addressable from sweep parameters and
#: ``encoded:`` workload specs alike.
ENCODER_NAMES: tuple[str, ...] = encoder_names()

#: The five Fig. 5 corners, slowest to fastest.
_FIVE_CORNERS: tuple[str, ...] = tuple(f"corner{i}" for i in range(1, 6))

#: The three benchmarks the paper plots individually.
_CORE_BENCHMARKS: tuple[str, ...] = ("crafty", "vortex", "mgrid")

#: Seed salt for dvs_run grids: only the workload-defining parameters, so
#: points differing along corner/window/encoder axes share the same trace
#: and within-sweep comparisons are not confounded by workload noise.
_WORKLOAD_SEED: tuple[str, ...] = ("benchmark", "n_cycles")


SWEEPS: dict[str, SweepSpec] = {
    sweep.name: sweep
    for sweep in (
        SweepSpec(
            name="corner-workload",
            task="dvs_run",
            base={"n_cycles": 12_000},
            axes={
                "corner": _FIVE_CORNERS,
                "benchmark": TABLE1_ORDER,
            },
            seed=2005,
            seed_by=_WORKLOAD_SEED,
            description="Closed-loop DVS gains: 5 PVT corners x all 10 Table 1 benchmarks",
        ),
        SweepSpec(
            name="encoding-matrix",
            task="dvs_run",
            base={"n_cycles": 8_000},
            axes={
                "encoder": ENCODER_NAMES,
                "benchmark": _CORE_BENCHMARKS,
                "corner": ("worst", "typical", "best"),
            },
            seed=2005,
            seed_by=_WORKLOAD_SEED,
            description="Bus encodings combined with DVS: every encoder x 3 benchmarks x 3 corners",
        ),
        SweepSpec(
            name="controller-grid",
            task="dvs_run",
            base={"n_cycles": 24_000, "corner": "typical"},
            axes={
                "window_cycles": (500, 1_000, 2_000, 4_000),
                "ramp_delay_cycles": (150, 300, 600),
                "benchmark": ("crafty", "mgrid"),
            },
            seed=2005,
            seed_by=_WORKLOAD_SEED,
            description="Control-loop tuning: window x ramp delay x benchmark at the typical corner",
        ),
        SweepSpec(
            name="coupling",
            task="dvs_run",
            base={"n_cycles": 8_000, "benchmark": "crafty"},
            axes={
                "coupling_scale": (1.0, 1.25, 1.5, 1.95, 2.5),
                "corner": _FIVE_CORNERS,
            },
            seed=2005,
            seed_by=_WORKLOAD_SEED,
            description="Section 6 modified-bus study generalised: Cc/Cg scale x corner",
        ),
        SweepSpec(
            name="workload-matrix",
            task="dvs_run",
            base={"n_cycles": 6_000},
            axes={
                "workload": tuple(f"cpu:{name}" for name in sorted(KERNELS))
                + ("crafty", "vortex", "mgrid"),
                "corner": ("worst", "typical"),
            },
            seed=2005,
            seed_by=("workload", "n_cycles"),
            description=(
                "Cross-workload DVS gains: all 7 executed CPU kernels + 3 synthetic "
                "benchmarks x 2 corners (registry specs shard over the worker pool)"
            ),
        ),
        SweepSpec(
            name="pvt-mega",
            task="dvs_run",
            base={"n_cycles": 3_000},
            axes={
                "corner": _FIVE_CORNERS,
                "benchmark": TABLE1_ORDER,
                "window_cycles": (300, 600, 1_200),
                "encoder": ("unencoded", "bus-invert"),
            },
            seed=2005,
            seed_by=_WORKLOAD_SEED,
            description=(
                "300-point design-space map: corner x benchmark x window x encoding "
                "(short traces; the cache makes refinement passes free)"
            ),
        ),
    )
}


def get_sweep(name: str) -> SweepSpec:
    """Look up a named sweep; raises ``KeyError`` listing the known names."""
    try:
        return SWEEPS[name]
    except KeyError:
        known = ", ".join(sorted(SWEEPS))
        raise KeyError(f"unknown sweep {name!r}; known sweeps: {known}") from None


#: Result fields rendered by :func:`format_sweep_report`, with column labels
#: and format strings, in display order.  Fields absent from a result are
#: skipped, so the formatter works for any task.
_REPORT_COLUMNS: tuple[tuple[str, str, str], ...] = (
    ("corner", "Corner", "{}"),
    ("benchmark", "Benchmark", "{}"),
    ("encoder", "Encoder", "{}"),
    ("coupling_scale", "Cc/Cg x", "{:.2f}"),
    ("window_cycles", "Window", "{}"),
    ("ramp_delay_cycles", "Ramp", "{}"),
    ("n_cycles", "Cycles", "{}"),
    ("energy_gain_percent", "Gain (%)", "{:.1f}"),
    ("error_rate_percent", "Err (%)", "{:.2f}"),
    ("min_voltage_mv", "Vmin (mV)", "{:.0f}"),
    ("zero_error_voltage_mv", "V0err (mV)", "{:.0f}"),
    ("regulator_floor_mv", "Floor (mV)", "{:.0f}"),
)

#: Columns that are always rendered as table columns (the measurements);
#: everything else is an identity column, collapsed when constant.
_METRIC_FIELDS = ("energy_gain_percent", "error_rate_percent")


def _varying_fields(results: Sequence[dict]) -> list[str]:
    """Identity columns that actually vary across the result set."""
    fields = []
    for field, _, _ in _REPORT_COLUMNS:
        values = {repr(result.get(field)) for result in results}
        if len(values) > 1 or field in _METRIC_FIELDS:
            fields.append(field)
    return fields


def _constant_fields(results: Sequence[dict], shown: set) -> list[tuple[str, str]]:
    """(label, value) pairs for identity columns collapsed out of the table."""
    constants = []
    for field, label, fmt in _REPORT_COLUMNS:
        if field in shown or field in _METRIC_FIELDS:
            continue
        if not all(field in result for result in results):
            continue
        value = results[0].get(field)
        if value is not None:
            constants.append((label, fmt.format(value)))
    return constants


def format_sweep_report(sweep: SweepSpec, report: ExecutionReport) -> str:
    """Plain-text table of a sweep's results (one row per grid point).

    Constant columns are collapsed into the header line so a 300-point grid
    prints only what varies; metric columns are always shown.
    """
    results = report.results
    if not results:
        return f"sweep {sweep.name!r}: no results"
    shown = set(_varying_fields(results))
    columns = [column for column in _REPORT_COLUMNS if column[0] in shown and
               any(column[0] in result for result in results)]
    headers = [label for _, label, _ in columns]
    rows = []
    for result in results:
        row = []
        for field, _, fmt in columns:
            value = result.get(field)
            row.append("-" if value is None else fmt.format(value))
        rows.append(row)
    header = (
        f"Sweep {sweep.name!r}: {sweep.description or sweep.task}\n"
        f"  {report.summary()}\n"
    )
    constants = _constant_fields(results, shown)
    if constants:
        fixed = ", ".join(f"{label}={value}" for label, value in constants)
        header += f"  fixed across all points: {fixed}\n"
    return header + format_table(headers, rows)
