"""Plain-text reporting of the experiment results.

The CLI and the examples print the same rows/series the paper reports; these
formatters keep that output consistent and readable without pulling in any
plotting dependency.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: formatting loads no simulation code
    from repro.analysis.dynamic_dvs import Fig8Result, Table1Result
    from repro.analysis.modified_bus import ModifiedBusStudy, TechnologyScalingStudy
    from repro.analysis.oracle_dvs import OracleResidencyStudy
    from repro.analysis.static_scaling import CornerGainStudy, StaticScalingSweep


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Format a simple fixed-width text table."""
    rendered_rows: list[list[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def format_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    lines = [format_row(list(headers)), format_row(["-" * width for width in widths])]
    lines.extend(format_row(row) for row in rendered_rows)
    return "\n".join(lines)


def format_static_sweep(sweep: StaticScalingSweep) -> str:
    """Fig. 4 style table: voltage vs error rate and normalised energy."""
    rows = [
        (
            f"{point.vdd * 1000:.0f}",
            f"{point.error_rate * 100:.2f}",
            f"{point.normalized_bus_energy:.3f}",
            f"{point.normalized_total_energy:.3f}",
        )
        for point in sweep.points
    ]
    header = f"Static voltage scaling at {sweep.corner.label}\n"
    return header + format_table(
        ["Vdd (mV)", "Error rate (%)", "Bus energy (norm.)", "Bus + recovery (norm.)"], rows
    )


def format_corner_gain_study(study: CornerGainStudy) -> str:
    """Fig. 5 / Fig. 10 style table: per-corner gains for each error target."""
    headers = ["Corner", "Delay @1.2V (ps)"] + [
        f"Gain @ {target * 100:.0f}% err (%)" for target in study.targets
    ]
    rows = []
    for point in study.points:
        rows.append(
            [point.corner.label, f"{point.nominal_delay * 1e12:.0f}"]
            + [f"{point.gains_percent[target]:.1f}" for target in study.targets]
        )
    return f"Energy gains vs PVT corner ({study.design_label})\n" + format_table(headers, rows)


def format_table1(result: Table1Result) -> str:
    """The paper's Table 1 layout: one block per corner plus a totals line."""
    blocks: list[str] = []
    for corner_result in result.corners:
        rows = [
            (
                row.benchmark,
                f"{row.fixed_vs_gain_percent:.1f}",
                f"{row.dvs_gain_percent:.1f}",
                f"{row.dvs_average_error_rate * 100:.2f}",
            )
            for row in corner_result.rows
        ]
        rows.append(
            (
                "Total",
                f"{corner_result.total_fixed_vs_gain_percent:.1f}",
                f"{corner_result.total_dvs_gain_percent:.1f}",
                f"{corner_result.total_dvs_error_rate * 100:.2f}",
            )
        )
        table = format_table(
            ["Benchmark", "Fixed VS gain (%)", "Proposed DVS gain (%)", "Avg error rate (%)"],
            rows,
        )
        blocks.append(f"{corner_result.corner.label}\n{table}")
    return "\n\n".join(blocks)


def format_fig8(result: Fig8Result, max_points: int = 40) -> str:
    """A textual summary of the Fig. 8 time series."""
    vmin, vmax = result.voltage_range()
    lines = [
        f"Fig. 8 run at {result.corner.label}",
        f"benchmarks (in order): {', '.join(result.benchmark_order)}",
        f"cycles: {result.n_cycles}, corrected errors: {result.run.total_errors}",
        f"supply range: {vmin * 1000:.0f} mV .. {vmax * 1000:.0f} mV",
        f"average error rate: {result.run.average_error_rate * 100:.2f} %",
        f"max instantaneous (10k-cycle) error rate: "
        f"{result.max_instantaneous_error_rate() * 100:.2f} %",
        f"energy gain: {result.run.energy_gain_percent:.1f} %",
        "voltage trajectory (cycle: mV):",
    ]
    events = list(zip(result.voltage_event_cycles, result.voltage_event_values))
    step = max(1, len(events) // max_points)
    for cycle, voltage in events[::step]:
        lines.append(f"  {int(cycle):>10d}: {voltage * 1000:.0f}")
    return "\n".join(lines)


def format_oracle_residency(study: OracleResidencyStudy) -> str:
    """Fig. 6 style table: voltage residency per benchmark and target."""
    blocks: list[str] = []
    for entry in study.entries:
        residency: Mapping[float, float] = entry.residency
        rows = [
            (f"{voltage * 1000:.0f}", f"{share * 100:.1f}")
            for voltage, share in sorted(residency.items())
        ]
        table = format_table(["Supply (mV)", "Time (%)"], rows)
        blocks.append(
            f"{entry.benchmark} @ target error rate {entry.target_error_rate * 100:.0f}% "
            f"(gain {entry.schedule.energy_gain_percent:.1f}%)\n{table}"
        )
    return f"Oracle voltage residency at {study.corner.label}\n\n" + "\n\n".join(blocks)


def format_modified_bus_study(study: ModifiedBusStudy) -> str:
    """Fig. 10 comparison of the original and modified bus."""
    parts = [
        format_corner_gain_study(study.original_study),
        "",
        format_corner_gain_study(study.modified_study),
        "",
        "Closed-loop DVS at the worst-case corner:",
        f"  original bus: gain {study.original_worst_corner_dvs_gain:.1f} % "
        f"(avg error {study.original_worst_corner_error_rate * 100:.2f} %)",
        f"  modified bus: gain {study.modified_worst_corner_dvs_gain:.1f} % "
        f"(avg error {study.modified_worst_corner_error_rate * 100:.2f} %)",
    ]
    return "\n".join(parts)


def format_technology_scaling(study: TechnologyScalingStudy) -> str:
    """Section 6 scaling-trend table."""
    rows = [
        (node, f"{study.spread_by_node[node] * 1e12:.2f}", f"{study.normalized_spread[node]:.2f}")
        for node in study.spread_by_node
    ]
    return "Delay-spread (R x Cc) trend with technology scaling\n" + format_table(
        ["Node", "R x Cc per segment (ps)", "Normalised"], rows
    )
