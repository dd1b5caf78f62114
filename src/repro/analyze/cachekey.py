"""Cache-key soundness (CKS001-CKS003).

The content-addressed cache is only sound if ``JobSpec.key`` accounts for
every input a task's result depends on.  This pass rebuilds that proof
statically, in three steps:

1. **Model the key** (:class:`KeyModel`): parse the ``key`` property of the
   spec module's ``JobSpec`` class and extract *how* parameters enter the
   identity -- a blanket fold of the whole params mapping
   (``dict(self.params)``), a selective subset (``self.params["name"]``),
   and which parameters are individually examined for content-hash folding
   (``self.params.get("name")`` feeding a fingerprint function), and which
   parameters a filtered fold leaves out (``name not in EXCLUDED`` on a dict
   comprehension over ``self.params.items()``).
2. **Find the tasks**: every function decorated ``@task("name")`` anywhere
   in the project.
3. **Prove each parameter**: a parameter is accounted for when the key
   blankets all params or names it selectively (CKS001 otherwise), and a
   parameter that reaches a *file-reading sink* -- ``open``, ``numpy.load``,
   the workload/chardb resolvers, or a same-module helper that does --
   must additionally be content-fingerprinted in the key, because hashing
   the path string alone replays stale results after the file changes
   (CKS002).  ``# repro: key-irrelevant`` on the parameter's own line in the
   signature opts it out explicitly.

CKS003 fires on the key property itself when its structure drops the params
mapping or the code version from the identity.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from collections.abc import Iterator

from repro.analyze.engine import AnalysisConfig, Finding
from repro.analyze.source import ModuleSource, Project, resolve_dotted

__all__ = ["KeyModel", "check", "parse_key_model"]

#: Calls that read file content from a path-like argument.
_FILE_SINKS = frozenset(
    {
        "open",
        "io.open",
        "gzip.open",
        "tokenize.open",
        "numpy.load",
        "numpy.fromfile",
        "numpy.loadtxt",
        "json.load",
        "pathlib.Path",
        # Repo-specific content resolvers: these read external artifacts whose
        # content must be fingerprinted into the key (workload_fingerprint /
        # chardb_fingerprint exist precisely for them).
        "repro.trace.workloads.resolve_workload",
        "repro.trace.workloads.workload_fingerprint",
        "repro.chardb.use_chardb",
        "repro.chardb.active.use_chardb",
        "repro.chardb.chardb_fingerprint",
        "repro.chardb.database.chardb_fingerprint",
        "repro.chardb.CharacterizationDatabase",
        "repro.chardb.database.CharacterizationDatabase",
    }
)


@dataclass
class KeyModel:
    """What the spec's ``JobSpec.key`` property does with parameters."""

    #: Key found at all (a ``JobSpec`` class with a ``key`` function).
    found: bool = False
    #: Module the model was parsed from (findings anchor here).
    source: ModuleSource | None = None
    #: Line of the ``key`` function definition.
    line: int = 1
    #: The whole params mapping is folded into the identity.
    hashes_all_params: bool = False
    #: Parameters named selectively (``self.params["x"]`` subscripts).
    selective_params: set[str] = field(default_factory=set)
    #: Parameters individually examined (``self.params.get("x")``) -- the
    #: content-fingerprint folding pattern.
    fingerprinted_params: set[str] = field(default_factory=set)
    #: Parameters a filtered blanket fold leaves out of the identity.
    excluded_params: set[str] = field(default_factory=set)
    #: The code version joins the identity.
    has_code_version: bool = False
    #: ``self.task`` joins the identity.
    has_task: bool = False

    def covers(self, param: str) -> bool:
        """Whether ``param``'s *value* enters the key at all."""
        return (
            (self.hashes_all_params and param not in self.excluded_params)
            or param in self.selective_params
            or param in self.fingerprinted_params
        )


def parse_key_model(project: Project, config: AnalysisConfig) -> KeyModel:
    """Locate and parse the ``JobSpec.key`` property.

    Prefers ``config.spec_module``; falls back to any project module defining
    a ``JobSpec`` class (so fixture projects work without configuration).
    """
    candidates = []
    if config.spec_module in project.modules:
        candidates.append(project.modules[config.spec_module])
    candidates.extend(
        source for source in project.modules.values() if source.module != config.spec_module
    )
    for source in candidates:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef) and node.name == "JobSpec":
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "key":
                        return _parse_key_function(source, item)
    return KeyModel()


def _parse_key_function(source: ModuleSource, function: ast.FunctionDef) -> KeyModel:
    model = KeyModel(found=True, source=source, line=function.lineno)

    def is_self_params(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "params"
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(function):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent

    for node in ast.walk(function):
        if isinstance(node, ast.DictComp):
            # ``{k: v for k, v in self.params.items() if k not in EXCLUDED}``
            for generator in node.generators:
                iterated = generator.iter
                if isinstance(iterated, ast.Call) and isinstance(iterated.func, ast.Attribute):
                    iterated = iterated.func.value
                if not is_self_params(iterated):
                    continue
                for condition in generator.ifs:
                    if (
                        isinstance(condition, ast.Compare)
                        and len(condition.ops) == 1
                        and isinstance(condition.ops[0], ast.NotIn)
                    ):
                        model.excluded_params |= _constant_strings(
                            condition.comparators[0], source
                        )
        if isinstance(node, ast.Attribute) and node.attr == "task":
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                model.has_task = True
        if isinstance(node, ast.Name) and node.id.endswith("__version__"):
            model.has_code_version = True
        if isinstance(node, ast.Attribute) and node.attr == "__version__":
            model.has_code_version = True
        if not is_self_params(node):
            continue
        parent = parents.get(node)
        if isinstance(parent, ast.Attribute):
            # ``self.params.<method>`` -- .get("x") examines one param;
            # .items()/.keys()/.values() iterate them all.
            grand = parents.get(parent)
            if parent.attr == "get" and isinstance(grand, ast.Call):
                if grand.args and isinstance(grand.args[0], ast.Constant):
                    value = grand.args[0].value
                    if isinstance(value, str):
                        model.fingerprinted_params.add(value)
            elif parent.attr in ("items", "keys", "values"):
                model.hashes_all_params = True
        elif isinstance(parent, ast.Subscript):
            # ``self.params["x"]`` names one param selectively.
            index = parent.slice
            if isinstance(index, ast.Constant) and isinstance(index.value, str):
                model.selective_params.add(index.value)
        else:
            # Bare ``self.params`` -- dict(self.params), {**self.params},
            # canonical_json(self.params): the whole mapping enters the key.
            model.hashes_all_params = True
    return model


def _constant_strings(node: ast.expr, source: ModuleSource) -> set[str]:
    """The strings a constant collection names.

    A tuple/list/set literal of strings (optionally wrapped in
    ``frozenset(...)``/``set(...)``/``tuple(...)``), or a module-level name
    bound to one; anything else names nothing.
    """
    if isinstance(node, ast.Name):
        for statement in source.tree.body:
            if isinstance(statement, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == node.id
                for target in statement.targets
            ):
                return _constant_strings(statement.value, source)
        return set()
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("frozenset", "set", "tuple")
        and len(node.args) == 1
    ):
        node = node.args[0]
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return set()
    if isinstance(value, (tuple, list, set, frozenset)):
        return {item for item in value if isinstance(item, str)}
    return set()


# --------------------------------------------------------------------------- #
# Task discovery and parameter dataflow
# --------------------------------------------------------------------------- #
def _task_decorator_name(decorator: ast.expr, aliases: dict[str, str]) -> str | None:
    """The registered task name if ``decorator`` is ``@task("name")``."""
    if not (isinstance(decorator, ast.Call) and decorator.args):
        return None
    dotted = resolve_dotted(decorator.func, aliases)
    if dotted is None or not (dotted == "task" or dotted.endswith(".task")):
        return None
    first = decorator.args[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value
    return None


def _function_params(function: ast.FunctionDef) -> list[ast.arg]:
    args = function.args
    params = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    return [param for param in params if param.arg != "self"]


#: Keyword names through which a path reaches a sink (positional arg 0 is
#: always the path; other keywords -- seeds, cycle counts -- are not).
_PATH_KEYWORDS = frozenset({"path", "file", "filename", "spec", "workload", "chardb"})


def _direct_sink_params(function: ast.FunctionDef, aliases: dict[str, str]) -> set[str]:
    """Parameters of ``function`` whose value names what a file-reading call reads."""
    names = {param.arg for param in _function_params(function)}
    hits: set[str] = set()
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        dotted = resolve_dotted(node.func, aliases)
        if dotted not in _FILE_SINKS:
            continue
        candidates: list[ast.expr] = []
        if node.args:
            candidates.append(node.args[0])
        candidates.extend(
            keyword.value for keyword in node.keywords if keyword.arg in _PATH_KEYWORDS
        )
        for value in candidates:
            if isinstance(value, ast.Name) and value.id in names:
                hits.add(value.id)
    return hits


def _module_functions(source: ModuleSource) -> dict[str, ast.FunctionDef]:
    """Top-level function definitions of a module, by name."""
    return {
        node.name: node for node in source.tree.body if isinstance(node, ast.FunctionDef)
    }


def _sink_params_with_helpers(source: ModuleSource) -> dict[str, set[str]]:
    """Per-function file-reaching parameters, propagated through same-module helpers.

    ``_chardb_context(chardb)`` calling ``use_chardb(chardb)`` makes the
    *caller's* ``chardb`` parameter file-reaching too; one fixpoint over the
    module's call graph carries that through arbitrarily deep helper chains.
    """
    functions = _module_functions(source)
    sink_params = {
        name: _direct_sink_params(function, source.aliases)
        for name, function in functions.items()
    }
    changed = True
    while changed:
        changed = False
        for name, function in functions.items():
            param_names = {param.arg for param in _function_params(function)}
            helper_params = {
                helper: [param.arg for param in _function_params(functions[helper])]
                for helper in functions
            }
            for node in ast.walk(function):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                    continue
                helper = node.func.id
                if helper not in functions or not sink_params[helper]:
                    continue
                formals = helper_params[helper]
                for position, value in enumerate(node.args):
                    if (
                        isinstance(value, ast.Name)
                        and value.id in param_names
                        and position < len(formals)
                        and formals[position] in sink_params[helper]
                        and value.id not in sink_params[name]
                    ):
                        sink_params[name].add(value.id)
                        changed = True
                for keyword in node.keywords:
                    if (
                        keyword.arg in sink_params[helper]
                        and isinstance(keyword.value, ast.Name)
                        and keyword.value.id in param_names
                        and keyword.value.id not in sink_params[name]
                    ):
                        sink_params[name].add(keyword.value.id)
                        changed = True
    return sink_params


def check(project: Project, config: AnalysisConfig) -> Iterator[Finding]:
    """Run the cache-key soundness pass over the whole project."""
    model = parse_key_model(project, config)
    if not model.found:
        # No JobSpec in the project (a fixture tree with only tasks, or a
        # partial path list): nothing to prove against.
        return

    assert model.source is not None
    if not model.hashes_all_params and not model.selective_params:
        yield Finding(
            rule="CKS003",
            path=model.source.rel_path,
            line=model.line,
            col=1,
            message="JobSpec.key never folds self.params into the identity; "
            "every job of a task would share one cache entry",
        )
    if not model.has_code_version:
        yield Finding(
            rule="CKS003",
            path=model.source.rel_path,
            line=model.line,
            col=1,
            message="JobSpec.key omits the code version from the identity; "
            "a release changing the physics would replay stale results",
        )
    if not model.has_task:
        yield Finding(
            rule="CKS003",
            path=model.source.rel_path,
            line=model.line,
            col=1,
            message="JobSpec.key omits self.task from the identity; two tasks "
            "with equal params would collide on one cache entry",
        )

    for module in sorted(project.modules):
        source = project.modules[module]
        tasks: list[tuple[str, ast.FunctionDef]] = []
        for node in source.tree.body:
            if isinstance(node, ast.FunctionDef):
                for decorator in node.decorator_list:
                    name = _task_decorator_name(decorator, source.aliases)
                    if name is not None:
                        tasks.append((name, node))
        if not tasks:
            continue
        sink_params = _sink_params_with_helpers(source)
        for task_name, function in tasks:
            reaches_files = sink_params.get(function.name, set())
            for param in _function_params(function):
                annotated = param.lineno in source.key_irrelevant_lines
                if not model.covers(param.arg) and not annotated:
                    yield Finding(
                        rule="CKS001",
                        path=source.rel_path,
                        line=param.lineno,
                        col=param.col_offset + 1,
                        message=f"parameter '{param.arg}' of task '{task_name}' does "
                        "not flow into JobSpec.key and is not annotated "
                        "'# repro: key-irrelevant'",
                    )
                elif (
                    param.arg in reaches_files
                    and param.arg not in model.fingerprinted_params
                    and not annotated
                ):
                    yield Finding(
                        rule="CKS002",
                        path=source.rel_path,
                        line=param.lineno,
                        col=param.col_offset + 1,
                        message=f"parameter '{param.arg}' of task '{task_name}' names "
                        "file content but JobSpec.key folds only the path "
                        "string; add content-fingerprint folding (like "
                        "workload/chardb) or annotate '# repro: key-irrelevant'",
                    )
