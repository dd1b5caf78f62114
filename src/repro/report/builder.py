"""The report builder: experiments registry → self-contained artifact directory.

:func:`build_report` is what ``python -m repro report`` runs.  It expands the
requested experiment ids into runtime :class:`~repro.runtime.spec.JobSpec`\\ s
(so runs flow through the content-addressed cache and the worker pool exactly
like sweeps do), renders each record with :mod:`repro.report.render`, checks
the results against the reference registry, and writes a directory that is
reviewable on its own::

    <out>/
      index.md           entry page linking every artifact
      fidelity.md        per-metric pass/warn/fail vs the paper
      fidelity.json      the same, machine-readable
      manifest.json      run parameters + file inventory
      <id>.md            one Markdown document per experiment
      <id>.json          the experiment's stable serialised data
      figures/<id>-*.svg the experiment's figures

Re-running with identical parameters re-simulates nothing: every experiment
is a cache hit and the directory is rewritten byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any
from collections.abc import Mapping, Sequence

from repro.analysis.experiments import EXPERIMENTS, accepted_kwargs
from repro.report.fidelity import FidelityReport, evaluate_fidelity
from repro.report.reference import PAPER_REFERENCES, ReferenceRegistry
from repro.report.render import RenderedExperiment, markdown_table, render_experiment
from repro.trace.generator import PAPER_CYCLES_PER_BENCHMARK

__all__ = ["ReportBuild", "build_report", "resolve_experiments"]


def resolve_experiments(selector: str) -> tuple[str, ...]:
    """Expand a CLI experiment selector into registry ids.

    ``"all"`` selects every registered experiment; otherwise the selector is
    a comma-separated id list (duplicates are dropped, first occurrence
    wins).  Unknown ids raise ``KeyError`` listing the registry.

    >>> resolve_experiments("table1,fig8,table1")
    ('table1', 'fig8')
    """
    if selector.strip().lower() == "all":
        return tuple(sorted(EXPERIMENTS))
    identifiers = _validate_ids(part.strip() for part in selector.split(",") if part.strip())
    if not identifiers:
        raise KeyError("no experiments selected")
    return identifiers


def _validate_ids(identifiers) -> tuple[str, ...]:
    """Dedupe (first occurrence wins) and reject ids absent from the registry."""
    ordered: list[str] = []
    for identifier in identifiers:
        if identifier not in EXPERIMENTS:
            known = ", ".join(sorted(EXPERIMENTS))
            raise KeyError(f"unknown experiment {identifier!r}; known: {known}")
        if identifier not in ordered:  # a duplicate would simulate twice
            ordered.append(identifier)
    return tuple(ordered)


@dataclass(frozen=True)
class ReportBuild:
    """Outcome of one report run: where it went and how faithful it is."""

    out_dir: Path
    rendered: tuple[RenderedExperiment, ...]
    fidelity: FidelityReport
    written: tuple[Path, ...]
    n_cached: int
    n_executed: int

    @property
    def index_path(self) -> Path:
        """The report's entry page."""
        return self.out_dir / "index.md"


def _write_text(path: Path, content: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")
    return path


def _clean_previous_run(out_dir: Path) -> None:
    """Remove the files a previous report run recorded in its manifest.

    A narrower re-run into the same directory must not leave the old run's
    artifacts behind looking current.  Only files the previous manifest
    claims (i.e. files this builder wrote) are touched -- anything else in
    the directory is left alone.
    """
    manifest_path = out_dir / "manifest.json"
    try:
        previous = json.loads(manifest_path.read_text(encoding="utf-8"))
        files = previous["files"]
    except (OSError, ValueError, KeyError):
        return
    if not isinstance(files, list):
        return
    for name in files + ["manifest.json"]:
        target = out_dir / str(name)
        try:
            target.resolve().relative_to(out_dir.resolve())
        except ValueError:
            continue  # never follow a manifest entry outside the report dir
        try:
            target.unlink()
        except OSError:
            pass


def _scale_note(n_cycles: int | None) -> str:
    if n_cycles is None:
        return (
            "Measured at the paper's scale "
            f"({PAPER_CYCLES_PER_BENCHMARK:,} cycles per benchmark for Table 1 / Fig. 8)."
        )
    return (
        f"Measured at {n_cycles:,} cycles per benchmark "
        f"(the paper uses {PAPER_CYCLES_PER_BENCHMARK:,} for Table 1 / Fig. 8); "
        "reference values are stated at paper scale, so deviations are expected "
        "to shrink as --cycles grows."
    )


def _regenerate_command(
    identifiers: Sequence[str],
    out_dir: Path,
    n_cycles: int | None,
    seed: int,
) -> str:
    """The exact CLI invocation that reproduces this report (and hits its cache)."""
    command = f"python -m repro report --experiments {','.join(identifiers)}"
    if n_cycles is not None:
        command += f" --cycles {n_cycles}"
    if seed != 2005:
        command += f" --seed {seed}"
    command += f" --out {out_dir}"
    return command


def _index_markdown(
    rendered: Sequence[RenderedExperiment],
    fidelity: FidelityReport,
    params: Mapping[str, Any],
    command: str,
) -> str:
    lines = [
        "# repro report",
        "",
        "Reproduction artifacts for *DVS for On-Chip Bus Designs Based on Timing "
        "Error Correction* (Kaul et al., DATE 2005).",
        "",
        f"**Fidelity: {fidelity.summary()}** — see [fidelity.md](fidelity.md).",
        "",
        "Run parameters: "
        + ", ".join(f"`{key}={value}`" for key, value in sorted(params.items())),
        "",
        "## Artifacts",
        "",
    ]
    rows = []
    for entry in rendered:
        experiment = EXPERIMENTS[entry.identifier]
        figure_links = ", ".join(
            f"[{name}](figures/{name}.svg)" for name, _ in entry.figures
        )
        rows.append(
            (
                f"[{entry.identifier}]({entry.identifier}.md)",
                experiment.paper_artifact,
                experiment.description,
                f"[json]({entry.identifier}.json)",
                figure_links or "—",
            )
        )
    lines.append(
        markdown_table(
            ["experiment", "paper artifact", "description", "data", "figures"], rows
        )
    )
    lines += [
        "",
        f"Regenerate with `{command}` (cached: identical parameters re-simulate nothing).",
    ]
    return "\n".join(lines) + "\n"


def build_report(
    experiments: Sequence[str],
    out_dir: Path,
    cache: Any | None = None,
    jobs: int = 1,
    n_cycles: int | None = None,
    seed: int = 2005,
    registry: ReferenceRegistry = PAPER_REFERENCES,
    progress: Any | None = None,
) -> ReportBuild:
    """Run (or load) the requested experiments and write the artifact directory.

    Parameters
    ----------
    experiments:
        Registry ids to include (see :func:`resolve_experiments`).
    out_dir:
        Directory the report is written into (created on demand; existing
        files of the same names are overwritten).
    cache:
        Optional :class:`~repro.runtime.cache.ResultCache`; with a cache,
        previously simulated experiments load instead of re-running.
    jobs:
        Worker processes for cache misses (experiments are independent jobs).
    n_cycles / seed:
        Workload scale knobs, forwarded to every experiment that accepts
        them (the cache key covers them, so scaled runs never alias).
    registry:
        Reference registry to evaluate fidelity against.
    progress:
        Optional per-job progress callback (the CLI passes its
        :class:`~repro.runtime.executor.ProgressPrinter`).
    """
    from repro.runtime.executor import run_jobs
    from repro.telemetry import get_telemetry

    telemetry = get_telemetry()
    identifiers = _validate_ids(experiments)
    telemetry.count("report.experiments_requested", len(identifiers))

    requested = {"n_cycles": n_cycles, "seed": seed}
    specs = []
    for identifier in identifiers:
        entry = EXPERIMENTS[identifier]
        specs.append(entry.job(**accepted_kwargs(entry.runner, requested)))
    report = run_jobs(specs, cache=cache, n_workers=jobs, progress=progress)

    # Validate every record *before* touching the previous report: a bad
    # cached record must abort with the old artifacts intact.
    for identifier, outcome in zip(identifiers, report.outcomes):
        if "data" not in outcome.result:
            raise RuntimeError(
                f"cached record for {identifier!r} predates the report schema; "
                "clear the cache (python -m repro cache clear) and re-run"
            )

    out_dir = Path(out_dir)
    _clean_previous_run(out_dir)
    rendered: list[RenderedExperiment] = []
    data_by_experiment: dict[str, Mapping[str, Any]] = {}
    written: list[Path] = []
    for identifier, outcome in zip(identifiers, report.outcomes):
        record = outcome.result
        experiment = EXPERIMENTS[identifier]
        with telemetry.span("report.render", experiment=identifier):
            entry = render_experiment(
                identifier,
                record["data"],
                title=f"{experiment.paper_artifact} — {experiment.description}",
            )
        rendered.append(entry)
        data_by_experiment[identifier] = record["data"]
        written.append(_write_text(out_dir / f"{identifier}.md", entry.markdown))
        written.append(_write_text(out_dir / f"{identifier}.json", entry.json_text))
        for name, svg in entry.figures:
            written.append(_write_text(out_dir / "figures" / f"{name}.svg", svg))

    with telemetry.span("report.fidelity"):
        fidelity = evaluate_fidelity(
            registry, data_by_experiment, scale_note=_scale_note(n_cycles)
        )
    written.append(_write_text(out_dir / "fidelity.md", fidelity.to_markdown()))
    written.append(
        _write_text(
            out_dir / "fidelity.json",
            json.dumps(fidelity.as_dict(), indent=2, sort_keys=True) + "\n",
        )
    )

    params = {
        "experiments": ",".join(identifiers),
        "n_cycles": n_cycles if n_cycles is not None else "paper-default",
        "seed": seed,
    }
    command = _regenerate_command(identifiers, out_dir, n_cycles, seed)
    index = _index_markdown(rendered, fidelity, params, command)
    index_path = _write_text(out_dir / "index.md", index)
    written.append(index_path)

    manifest = {
        "params": params,
        "command": command,
        "fidelity_summary": fidelity.summary(),
        "n_cached": report.n_cached,
        "n_executed": report.n_executed,
        "files": sorted(str(path.relative_to(out_dir)) for path in written),
    }
    written.append(
        _write_text(
            out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
    )

    return ReportBuild(
        out_dir=out_dir,
        rendered=tuple(rendered),
        fidelity=fidelity,
        written=tuple(written),
        n_cached=report.n_cached,
        n_executed=report.n_executed,
    )
