"""Cache-key soundness (CKS001-CKS003): selective holes, content folding, structure."""

from __future__ import annotations

from tests.analyze.conftest import analyze_fixture


def _cks(report):
    return [finding for finding in report.findings if finding.rule.startswith("CKS")]


def test_uncovered_parameter_is_cks001():
    report = analyze_fixture("cks_bad")
    cks001 = [finding for finding in _cks(report) if finding.rule == "CKS001"]
    assert len(cks001) == 1
    assert "'verbosity'" in cks001[0].message
    assert cks001[0].path == "tasks.py"


def test_path_keyed_file_parameter_is_cks002():
    report = analyze_fixture("cks_bad")
    cks002 = {
        finding.message.split("'")[1]
        for finding in _cks(report)
        if finding.rule == "CKS002"
    }
    # trace_file is opened directly; table_file reaches open() only through
    # the _load_table helper -- the dataflow fixpoint must catch both.
    assert cks002 == {"trace_file", "table_file"}


def test_key_irrelevant_annotation_opts_a_parameter_out():
    report = analyze_fixture("cks_bad")
    assert all("log_path" not in finding.message for finding in _cks(report))


def test_structurally_broken_key_is_three_cks003():
    report = analyze_fixture("cks_incomplete")
    cks003 = [finding for finding in _cks(report) if finding.rule == "CKS003"]
    assert len(cks003) == 3
    joined = " ".join(finding.message for finding in cks003)
    assert "params" in joined
    assert "code version" in joined
    assert "task" in joined
    assert all(finding.path == "spec.py" for finding in cks003)


def test_blanket_fold_with_content_fingerprint_is_clean():
    report = analyze_fixture("cks_good")
    assert _cks(report) == []


def test_key_model_reads_the_fixture_spec():
    from pathlib import Path

    from repro.analyze.cachekey import parse_key_model
    from repro.analyze.engine import AnalysisConfig
    from repro.analyze.source import Project
    from tests.analyze.conftest import FIXTURES

    root: Path = FIXTURES / "cks_good"
    project = Project.load(root)
    model = parse_key_model(project, AnalysisConfig(root=root))
    assert model.found
    assert model.hashes_all_params
    assert model.has_code_version
    assert model.has_task
    assert model.fingerprinted_params == {"workload"}


def test_filtered_fold_leaves_excluded_parameters_uncovered():
    from repro.analyze.cachekey import parse_key_model
    from repro.analyze.engine import AnalysisConfig
    from repro.analyze.source import Project
    from tests.analyze.conftest import FIXTURES

    root = FIXTURES / "cks_filtered"
    model = parse_key_model(Project.load(root), AnalysisConfig(root=root))
    assert model.hashes_all_params
    assert model.excluded_params == {"jobs"}
    assert not model.covers("jobs")
    assert model.covers("n_cycles")

    findings = _cks(analyze_fixture("cks_filtered"))
    assert [(finding.rule, finding.message.split("'")[1:4:2]) for finding in findings] == [
        ("CKS001", ["jobs", "sweep_point"])
    ]


def test_real_key_leaves_out_only_the_worker_count():
    from pathlib import Path

    from repro.analyze.cachekey import parse_key_model
    from repro.analyze.engine import AnalysisConfig
    from repro.analyze.source import Project

    root = Path(__file__).resolve().parents[2] / "src"
    model = parse_key_model(Project.load(root), AnalysisConfig(root=root))
    assert model.hashes_all_params
    assert model.excluded_params == {"jobs"}
