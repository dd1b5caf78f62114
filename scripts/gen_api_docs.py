#!/usr/bin/env python3
"""Generate docs/api.md from the public docstrings of the ``repro`` package.

The generated page is the docstring-derived API reference for the modules a
user is expected to import from.  It is committed; CI regenerates it and
fails when the committed copy drifts from the code, so the reference can
never silently rot.

Usage::

    python scripts/gen_api_docs.py            # rewrite docs/api.md
    python scripts/gen_api_docs.py --check    # exit 1 if docs/api.md is stale

Output is deterministic: modules in the curated order below, names in their
``__all__`` order, no timestamps.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import re
import sys
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

#: The public modules documented, in page order.
PUBLIC_MODULES = (
    "repro",
    "repro.bus",
    "repro.core",
    "repro.circuit.lookup_table",
    "repro.trace",
    "repro.trace.stream",
    "repro.trace.generator",
    "repro.trace.workloads",
    "repro.cpu",
    "repro.analysis",
    "repro.analysis.experiments",
    "repro.analysis.serialize",
    "repro.runtime",
    "repro.runtime.spec",
    "repro.runtime.cache",
    "repro.runtime.tasks",
    "repro.runtime.parallel",
    "repro.runtime.workqueue",
    "repro.chardb",
    "repro.chardb.format",
    "repro.chardb.builder",
    "repro.chardb.database",
    "repro.chardb.active",
    "repro.chardb.design_codec",
    "repro.server",
    "repro.server.protocol",
    "repro.server.service",
    "repro.server.server",
    "repro.server.client",
    "repro.analyze",
    "repro.analyze.engine",
    "repro.analyze.baseline",
    "repro.telemetry",
    "repro.telemetry.core",
    "repro.telemetry.metrics",
    "repro.telemetry.export",
    "repro.report",
    "repro.report.reference",
    "repro.report.fidelity",
    "repro.report.render",
    "repro.report.builder",
    "repro.plotting",
    "repro.plotting.svg",
)

HEADER = """\
# API reference

Generated from docstrings by `scripts/gen_api_docs.py` — do not edit by
hand; run `python scripts/gen_api_docs.py` after changing a public
docstring (CI fails when this page drifts from the code).

See [architecture.md](architecture.md) for how the layers fit together.
"""


def _summary(obj: object) -> str:
    """First paragraph of a docstring, joined to one line."""
    doc = inspect.getdoc(obj) or ""
    paragraph: List[str] = []
    for line in doc.splitlines():
        if not line.strip():
            break
        paragraph.append(line.strip())
    return " ".join(paragraph)


def _strip_addresses(text: str) -> str:
    """Drop memory addresses from reprs so output is deterministic."""
    return re.sub(r" at 0x[0-9a-fA-F]+", "", text)


def _signature(obj: object) -> str:
    try:
        text = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"
    # Default values repr'd with memory addresses would make output
    # nondeterministic; strip the address part.
    return _strip_addresses(text)


def _stable_repr(value: object) -> str:
    """``repr`` without memory addresses or file paths, so output is deterministic."""
    if inspect.ismodule(value):
        return f"<module {value.__name__!r}>"
    return _strip_addresses(repr(value))


#: Constants whose repr exceeds this render as a summary, not a repr dump.
MAX_CONSTANT_REPR = 300


def _describe_constant(value: object) -> str:
    """One line for a module-level constant.

    Small constants render their (address-stripped) repr; large containers
    (registries like ``KERNELS`` or ``EXPERIMENTS``, whose reprs run to
    kilobytes of embedded source and function objects) summarise as their
    size and keys so the page stays reviewable.
    """
    text = _stable_repr(value)
    if len(text) <= MAX_CONSTANT_REPR:
        return f"Constant of type `{type(value).__name__}`: `{text}`."
    if isinstance(value, dict):
        keys = ", ".join(f"`{key}`" for key in list(value)[:12])
        more = ", …" if len(value) > 12 else ""
        return f"Constant of type `dict` with {len(value)} entries: {keys}{more}."
    if isinstance(value, (list, tuple, set, frozenset)):
        return f"Constant of type `{type(value).__name__}` with {len(value)} items."
    return f"Constant of type `{type(value).__name__}` (repr elided: {len(text)} chars)."


def _public_names(module) -> List[str]:
    if hasattr(module, "__all__"):
        return [name for name in module.__all__ if name != "__version__"]
    return sorted(
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isclass(value) or inspect.isfunction(value))
        and getattr(value, "__module__", "").startswith(module.__name__)
    )


def _document_class(name: str, value: type) -> List[str]:
    lines = [f"### class `{name}`", "", _summary(value) or "*(undocumented)*", ""]
    methods = []
    for method_name, method in sorted(vars(value).items()):
        if method_name.startswith("_"):
            continue
        if isinstance(method, property):
            methods.append(f"- `{method_name}` *(property)* — {_summary(method.fget)}")
        elif isinstance(method, (staticmethod, classmethod)):
            function = method.__func__
            methods.append(f"- `{method_name}{_signature(function)}` — {_summary(function)}")
        elif inspect.isfunction(method):
            methods.append(f"- `{method_name}{_signature(method)}` — {_summary(method)}")
    if methods:
        lines += methods + [""]
    return lines


def _document_module(module_name: str) -> List[str]:
    module = importlib.import_module(module_name)
    lines = [f"## `{module_name}`", "", _summary(module), ""]
    for name in _public_names(module):
        value = getattr(module, name, None)
        if value is None:
            continue
        if inspect.isclass(value):
            lines += _document_class(name, value)
        elif inspect.isfunction(value):
            lines += [
                f"### `{name}{_signature(value)}`",
                "",
                _summary(value) or "*(undocumented)*",
                "",
            ]
        else:
            # Plain constants: inspect.getdoc falls through to the *type's*
            # builtin docstring ("str(object=...) -> str"), which is noise --
            # render the value instead.
            lines += [
                f"### `{name}`",
                "",
                _describe_constant(value),
                "",
            ]
    return lines


def generate() -> str:
    """The full api.md content."""
    lines = [HEADER]
    for module_name in PUBLIC_MODULES:
        lines += _document_module(module_name)
    return "\n".join(lines).rstrip() + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="fail instead of writing when the page is stale"
    )
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "docs" / "api.md", help="output path"
    )
    args = parser.parse_args(argv)

    content = generate()
    if args.check:
        current = args.out.read_text(encoding="utf-8") if args.out.is_file() else ""
        if current != content:
            print(
                f"{args.out} is stale; regenerate with 'python scripts/gen_api_docs.py'",
                file=sys.stderr,
            )
            return 1
        print(f"{args.out} is up to date")
        return 0
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(content, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
