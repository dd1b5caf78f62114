"""Registry of the paper's experiments (and this reproduction's extensions).

Every figure and table of the paper's evaluation has an entry here mapping an
experiment id (``fig4a``, ``table1``, ...) to a callable that runs it with
reasonable defaults and returns ``(result_object, formatted_text)``.  The
benchmark harness in ``benchmarks/``, the CLI and the examples all go through
this registry, so the experiment inventory in DESIGN.md has exactly one
source of truth in code.

Beyond the paper's own artefacts, the registry also exposes the extension
studies this reproduction adds (the related-work baseline comparison, the bus
encoding study, the pipeline/IPC ablation and the shield-interval sweep), so
``python -m repro run <id>`` covers everything DESIGN.md lists.

The registry is wired into :mod:`repro.runtime`: every experiment maps to a
``JobSpec`` of the ``experiment`` runtime task (see :meth:`Experiment.job`),
so experiment runs flow through the same content-addressed result cache and
worker pool as the declarative sweeps -- regenerating a figure twice
simulates it once.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, TYPE_CHECKING
from collections.abc import Callable

from repro.analysis import reporting
from repro.circuit.pvt import TYPICAL_CORNER, WORST_CASE_CORNER
from repro.trace import WorkloadError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.runtime.cache import ResultCache
    from repro.runtime.spec import JobSpec

ExperimentRunner = Callable[..., tuple[Any, str]]


@dataclass(frozen=True)
class Experiment:
    """One reproducible experiment from the paper's evaluation."""

    identifier: str
    paper_artifact: str
    description: str
    runner: ExperimentRunner

    def run(self, **kwargs: Any) -> tuple[Any, str]:
        """Execute the experiment; returns (result object, formatted text)."""
        return self.runner(**kwargs)

    def job(self, **kwargs: Any) -> JobSpec:
        """The runtime :class:`~repro.runtime.spec.JobSpec` for this entry.

        The spec's content hash covers the experiment id and every keyword
        argument, so a run with different cycles/seed never aliases a cached
        one.
        """
        from repro.runtime.spec import JobSpec

        return JobSpec("experiment", {"identifier": self.identifier, **kwargs})


def accepted_kwargs(function: Callable[..., Any], candidates: dict[str, Any]) -> dict[str, Any]:
    """The subset of ``candidates`` that ``function`` names as parameters.

    Used to thread workload-scale knobs (``n_cycles``, ``seed``, ``jobs``,
    ``workload``) through heterogeneous experiment runners and sweep tasks:
    workload-free entries (e.g. the scaling study) simply never see them.
    ``None`` values are dropped so defaults stay in charge.

    >>> def runner(n_cycles=100, seed=0):
    ...     pass
    >>> accepted_kwargs(runner, {"n_cycles": 5, "jobs": 2, "seed": None})
    {'n_cycles': 5}
    """
    parameters = inspect.signature(function).parameters
    return {
        name: value
        for name, value in candidates.items()
        if value is not None and name in parameters
    }


def _suite(n_cycles: int, seed: int):
    from repro.trace.generator import generate_suite

    return generate_suite(n_cycles=n_cycles, seed=seed)


def _run_fig4(corner, n_cycles: int = 60_000, seed: int = 2005) -> tuple[Any, str]:
    from repro.analysis.static_scaling import run_static_voltage_sweep
    from repro.bus import BusDesign, CharacterizedBus

    design = BusDesign.paper_bus()
    bus = CharacterizedBus(design, corner)
    sweep = run_static_voltage_sweep(bus, _suite(n_cycles, seed))
    return sweep, reporting.format_static_sweep(sweep)


def _run_fig4a(n_cycles: int = 60_000, seed: int = 2005) -> tuple[Any, str]:
    return _run_fig4(WORST_CASE_CORNER, n_cycles, seed)


def _run_fig4b(n_cycles: int = 60_000, seed: int = 2005) -> tuple[Any, str]:
    return _run_fig4(TYPICAL_CORNER, n_cycles, seed)


def _run_fig5(n_cycles: int = 60_000, seed: int = 2005) -> tuple[Any, str]:
    from repro.analysis.static_scaling import run_corner_gain_study
    from repro.bus import BusDesign

    design = BusDesign.paper_bus()
    study = run_corner_gain_study(design, _suite(n_cycles, seed))
    return study, reporting.format_corner_gain_study(study)


def _run_fig6(n_cycles: int = 120_000, seed: int = 2005) -> tuple[Any, str]:
    from repro.analysis.oracle_dvs import run_oracle_residency
    from repro.bus import BusDesign

    design = BusDesign.paper_bus()
    study = run_oracle_residency(design, _suite(n_cycles, seed))
    return study, reporting.format_oracle_residency(study)


def _workload_mapping(workload: str, n_cycles: int | None, seed: int):
    """Resolve a ``--workload`` selector into named streaming sources.

    Generative workloads default to the same paper scale as the selector-less
    drivers, so adding ``--workload`` never silently changes the run length;
    the shared bus is redesigned for the sources' width (encoded workloads
    drive more wires than the paper bus).  Returns
    ``(workloads, effective_n_cycles, design)``.
    """
    from repro.bus import BusDesign
    from repro.encoding.analysis import design_for_width
    from repro.trace.generator import PAPER_CYCLES_PER_BENCHMARK
    from repro.trace.workloads import resolve_workload_mapping

    requested = n_cycles if n_cycles is not None else PAPER_CYCLES_PER_BENCHMARK
    try:
        workloads = resolve_workload_mapping(workload, n_cycles=requested, seed=seed)
    except (KeyError, ValueError) as error:
        # Unknown specs raise KeyError; unreadable/corrupt trace files raise
        # ValueError.  Both are bad user input, not internal failures.
        raise WorkloadError(error.args[0] if error.args else str(error)) from error
    widths = {source.n_bits for source in workloads.values()}
    if len(widths) > 1:
        raise WorkloadError(
            f"workloads of mixed bus widths cannot share one bus: {sorted(widths)}"
        )
    design = design_for_width(BusDesign.paper_bus(), widths.pop())
    # The reported per-benchmark cycle count: file-backed and SimPoint-reduced
    # sources keep their own lengths, so when every row agrees on a length
    # (the common case) report that, and only fall back to the requested
    # scale for mixed-length mappings.
    lengths = {source.n_cycles for source in workloads.values()}
    effective = lengths.pop() if len(lengths) == 1 else requested
    return workloads, effective, design


def _run_table1(
    n_cycles: int | None = None,
    seed: int = 2005,
    jobs: int | None = None,
    workload: str | None = None,
) -> tuple[Any, str]:
    from repro.analysis.dynamic_dvs import run_table1

    # n_cycles=None runs the paper's 10 M cycles per benchmark through the
    # streaming pipeline (O(chunk) memory); pass --cycles to scale down.
    # workload restricts/replaces the suite with comma-separated registry
    # specs (e.g. "cpu:memcopy,crafty"), at the same default scale.  File-
    # backed specs are content-addressed by JobSpec.key, so cached runs never
    # survive a regenerated trace file.
    if workload is not None:
        workloads, effective, design = _workload_mapping(workload, n_cycles, seed)
        result = run_table1(
            design=design,
            workloads=workloads,
            order=tuple(workloads),
            n_cycles=effective,
            seed=seed,
            jobs=jobs,
        )
    else:
        result = run_table1(n_cycles=n_cycles, seed=seed, jobs=jobs)
    return result, reporting.format_table1(result)


def _run_table1_kernels(
    n_cycles: int = 60_000,
    seed: int = 2005,
    jobs: int | None = None,
) -> tuple[Any, str]:
    # Cross-workload Table 1: the 10 synthetic benchmarks next to all 7
    # executed mini-CPU kernels, per-SimPoint-spirit scenario diversity.  The
    # default scale keeps the (interpreted) kernel executions interactive;
    # synthetic rows at this scale differ from the paper-scale table1 run.
    from repro.analysis.dynamic_dvs import run_table1
    from repro.trace.benchmarks import TABLE1_ORDER
    from repro.trace.generator import suite_sources
    from repro.trace.workloads import kernel_sources

    kernels = kernel_sources(n_cycles=n_cycles, seed=seed)
    workloads = {**suite_sources(n_cycles=n_cycles, seed=seed), **kernels}
    result = run_table1(
        workloads=workloads,
        order=tuple(TABLE1_ORDER) + tuple(sorted(kernels)),
        n_cycles=n_cycles,
        seed=seed,
        jobs=jobs,
    )
    return result, reporting.format_table1(result)


def _run_fig8(
    n_cycles: int | None = None,
    seed: int = 2005,
    jobs: int | None = None,
    workload: str | None = None,
) -> tuple[Any, str]:
    from repro.analysis.dynamic_dvs import run_fig8

    if workload is not None:
        workloads, effective, design = _workload_mapping(workload, n_cycles, seed)
        result = run_fig8(
            design=design,
            workloads=workloads,
            benchmark_order=tuple(workloads),
            n_cycles=effective,
            seed=seed,
            jobs=jobs,
        )
    else:
        result = run_fig8(n_cycles=n_cycles, seed=seed, jobs=jobs)
    return result, reporting.format_fig8(result)


def _run_fig10(n_cycles: int = 60_000, seed: int = 2005) -> tuple[Any, str]:
    from repro.analysis.modified_bus import run_modified_bus_study

    study = run_modified_bus_study(n_cycles=n_cycles, seed=seed)
    return study, reporting.format_modified_bus_study(study)


def _run_scaling(**_: Any) -> tuple[Any, str]:
    from repro.analysis.modified_bus import run_technology_scaling_study

    study = run_technology_scaling_study()
    return study, reporting.format_technology_scaling(study)


def _run_baselines(n_cycles: int = 20_000, seed: int = 2005) -> tuple[Any, str]:
    from repro.baselines import format_scheme_comparison, run_scheme_comparison
    from repro.bus import BusDesign
    from repro.trace.generator import generate_suite

    design = BusDesign.paper_bus()
    suite = generate_suite(names=("crafty", "mgrid"), n_cycles=n_cycles, seed=seed)
    comparisons = [
        run_scheme_comparison(
            design,
            list(suite.values()),
            corner,
            window_cycles=max(500, n_cycles // 20),
            ramp_delay_cycles=max(150, n_cycles // 60),
            workload_name="crafty+mgrid",
        )
        for corner in (WORST_CASE_CORNER, TYPICAL_CORNER)
    ]
    text = "\n\n".join(format_scheme_comparison(comparison) for comparison in comparisons)
    return comparisons, text


def _run_encoding(n_cycles: int = 20_000, seed: int = 2005) -> tuple[Any, str]:
    from repro.encoding import format_encoding_study, run_encoding_study
    from repro.trace.generator import generate_benchmark_trace

    studies = [
        run_encoding_study(
            generate_benchmark_trace(name, n_cycles=n_cycles, seed=seed),
            corner=TYPICAL_CORNER,
            window_cycles=max(500, n_cycles // 20),
            ramp_delay_cycles=max(150, n_cycles // 60),
        )
        for name in ("mgrid", "crafty")
    ]
    text = "\n\n".join(format_encoding_study(study) for study in studies)
    return studies, text


def _run_ipc(n_cycles: int = 60_000, seed: int = 2005) -> tuple[Any, str]:
    from repro.arch import PIPELINE_MODELS, evaluate_ipc_impact
    from repro.bus import BusDesign, CharacterizedBus
    from repro.core.dvs_system import DVSBusSystem
    from repro.trace.generator import generate_benchmark_trace

    bus = CharacterizedBus(BusDesign.paper_bus(), TYPICAL_CORNER)
    trace = generate_benchmark_trace("vortex", n_cycles=n_cycles, seed=seed)
    stats = bus.analyze(trace.values)
    system = DVSBusSystem(
        bus, window_cycles=max(500, n_cycles // 30), ramp_delay_cycles=max(150, n_cycles // 100)
    )
    result = system.run(stats, keep_cycle_voltage=True)
    mask = bus.error_mask(stats, result.per_cycle_voltage)
    impacts = {
        name: evaluate_ipc_impact(model, mask, seed=seed)
        for name, model in PIPELINE_MODELS.items()
    }
    rows = [
        (name, f"{impact.ipc_loss_fraction * 100:.2f}", f"{impact.hidden_fraction * 100:.1f}")
        for name, impact in impacts.items()
    ]
    text = (
        f"Corrected errors: {result.total_errors} in {result.n_cycles} cycles "
        f"({result.average_error_rate * 100:.2f}%)\n"
        + reporting.format_table(["Pipeline model", "IPC loss (%)", "Replays hidden (%)"], rows)
    )
    return impacts, text


def _run_shielding(**_: Any) -> tuple[Any, str]:
    from repro.interconnect.design_space import (
        format_shield_interval_study,
        run_shield_interval_study,
    )

    study = run_shield_interval_study()
    return study, format_shield_interval_study(study)


def _run_sensitivity(n_cycles: int = 150_000, seed: int = 2005) -> tuple[Any, str]:
    # The longest swept window needs ~15 windows of descent plus a steady-state
    # measurement region, so this entry defaults to a longer trace than the
    # figure experiments.
    from repro.analysis.sensitivity import (
        format_sensitivity_study,
        run_error_band_sensitivity,
        run_ramp_delay_sensitivity,
        run_window_length_sensitivity,
    )
    from repro.bus import BusDesign, CharacterizedBus
    from repro.trace.generator import generate_benchmark_trace

    bus = CharacterizedBus(BusDesign.paper_bus(), TYPICAL_CORNER)
    trace = generate_benchmark_trace("vortex", n_cycles=n_cycles, seed=seed)
    stats = bus.analyze(trace.values)
    studies = [
        run_window_length_sensitivity(bus, stats, window_lengths=(500, 1_000, 2_000, 5_000)),
        run_ramp_delay_sensitivity(bus, stats),
        run_error_band_sensitivity(bus, stats),
    ]
    text = "\n\n".join(format_sensitivity_study(study) for study in studies)
    return studies, text


#: All experiments of the paper's evaluation, keyed by their DESIGN.md id.
EXPERIMENTS: dict[str, Experiment] = {
    "fig4a": Experiment(
        "fig4a",
        "Fig. 4(a)",
        "Energy and error rate vs statically scaled supply at the worst-case corner",
        _run_fig4a,
    ),
    "fig4b": Experiment(
        "fig4b",
        "Fig. 4(b)",
        "Energy and error rate vs statically scaled supply at the typical corner",
        _run_fig4b,
    ),
    "fig5": Experiment(
        "fig5",
        "Fig. 5",
        "Energy gains vs corner delay for 0/2/5 % target error rates",
        _run_fig5,
    ),
    "fig6": Experiment(
        "fig6",
        "Fig. 6",
        "Oracle supply-voltage residency for crafty/vortex/mgrid at 2 % and 5 % targets",
        _run_fig6,
    ),
    "table1": Experiment(
        "table1",
        "Table 1",
        "Fixed VS vs proposed closed-loop DVS, per benchmark, at two corners",
        _run_table1,
    ),
    "fig8": Experiment(
        "fig8",
        "Fig. 8",
        "Supply voltage and instantaneous error rate while the suite runs back-to-back",
        _run_fig8,
    ),
    "table1_kernels": Experiment(
        "table1_kernels",
        "Table 1 (ext.)",
        "Cross-workload Table 1: all 7 executed CPU kernels next to the 10 synthetic benchmarks",
        _run_table1_kernels,
    ),
    "fig10": Experiment(
        "fig10",
        "Fig. 10",
        "Energy gains of the modified (Cc/Cg x1.95) bus across corners",
        _run_fig10,
    ),
    "scaling": Experiment(
        "scaling",
        "Section 6",
        "Delay-spread growth with technology scaling",
        _run_scaling,
    ),
    # ------------------------------------------------------------------ #
    # Extension studies added by this reproduction (see DESIGN.md §6).
    # ------------------------------------------------------------------ #
    "baselines": Experiment(
        "baselines",
        "Section 1",
        "Fixed VS vs canary delay-line vs triple-latch monitor vs proposed DVS",
        _run_baselines,
    ),
    "encoding": Experiment(
        "encoding",
        "Section 1",
        "Low-power bus encodings alone and combined with the proposed DVS",
        _run_encoding,
    ),
    "ipc": Experiment(
        "ipc",
        "Section 3",
        "IPC impact of the DVS run's error stream under in-order and OoO pipelines",
        _run_ipc,
    ),
    "shielding": Experiment(
        "shielding",
        "Section 6",
        "Shield-interval sweep: routing tracks vs worst-case coupling vs delay spread",
        _run_shielding,
    ),
    "sensitivity": Experiment(
        "sensitivity",
        "Section 5",
        "Sensitivity of the closed loop to window length, ramp delay and error band",
        _run_sensitivity,
    ),
}


def run_experiment(
    identifier: str, cache: "ResultCache" | None = None, **kwargs: Any
) -> tuple[Any, str]:
    """Run one experiment by id; raises ``KeyError`` for unknown ids.

    Parameters
    ----------
    identifier:
        Registry id (``fig5``, ``table1``, ...).
    cache:
        Optional :class:`~repro.runtime.cache.ResultCache`.  When given, the
        run goes through the runtime engine: a prior run with identical
        parameters returns its report text without simulating anything, and
        the result object is the cached record dict instead of the rich
        in-memory study object.
    kwargs:
        Forwarded to the experiment runner (``n_cycles``, ``seed``, ...).
        A ``chardb`` keyword is handled here rather than by the runners: it
        activates the named characterization database around the run (see
        :mod:`repro.chardb`), and on the cached path it joins the job params
        so ``JobSpec.key`` content-addresses the database file.

    Examples
    --------
    The workload-free Section 6 scaling study runs in milliseconds:

    >>> study, text = run_experiment("scaling")
    >>> study.monotonically_increasing
    True
    >>> text.splitlines()[0]
    'Delay-spread (R x Cc) trend with technology scaling'
    >>> run_experiment("fig99")
    Traceback (most recent call last):
        ...
    KeyError: "unknown experiment 'fig99'; known: baselines, encoding, fig10, fig4a, fig4b, fig5, fig6, fig8, ipc, scaling, sensitivity, shielding, table1, table1_kernels"
    """
    if identifier not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {identifier!r}; known: {known}")
    chardb = kwargs.pop("chardb", None)
    if cache is None:
        if chardb is None:
            return EXPERIMENTS[identifier].run(**kwargs)
        from repro.chardb import use_chardb

        with use_chardb(chardb):
            return EXPERIMENTS[identifier].run(**kwargs)

    from repro.runtime.executor import run_jobs

    job_kwargs = dict(kwargs) if chardb is None else {**kwargs, "chardb": chardb}
    report = run_jobs([EXPERIMENTS[identifier].job(**job_kwargs)], cache=cache)
    outcome = report.outcomes[0]
    record = dict(outcome.result)
    record["cached"] = outcome.cached
    return record, record["text"]
