"""Concurrency-safety lint over the process-crossing hot paths.

The explore worker pool, the serve supervisor, the chaos hooks, and the
SIGTERM machinery all cross process boundaries — by ``fork``, by pickle,
by shared files, by signal delivery.  Each crossing has a discipline the
rest of the repo relies on (documented in ``docs/concurrency``-adjacent
docstrings of :mod:`repro.explore.frontier`, :mod:`repro.durable.journal`
and :mod:`repro.serve.supervisor`); this pass checks the disciplines
statically, rooted at the *entry points* the call graph discovers on its
own — pool ``map``/``apply_async`` targets, pool ``initializer=``
callables, and ``signal.signal`` handlers — rather than a hand-kept
list.

Four rule groups over :class:`repro.analysis.callgraph.CallGraph`
reachability:

* **CONC001 — fork-shared mutable state**: a module-global (re)bound or
  mutated in place from a function reachable from a pool entry point.
  Under ``fork`` every worker inherits the coordinator's copy and then
  diverges silently; under ``spawn`` the global is simply absent.
  Per-process caches and initializer handoffs are legitimate — they
  carry ``# repro: allow(CONC001)`` with a justification.
* **CONC002 — pickle-boundary discipline**: every type that transits a
  pool boundary (entry-point parameter/return annotations, submitted
  argument types, ``initargs`` — closed transitively over dataclass
  fields, stopping at types with a custom reduction) must be a
  ``frozen=True, slots=True`` dataclass, or define ``__reduce__`` /
  ``__reduce_ex__`` or ``__getstate__``+``__setstate__``.
* **CONC003 — file-write protocol**: inside the shared-path scope
  (:data:`SHARED_PATH_SCOPE`) a write-mode ``open`` / ``os.fdopen`` /
  ``Path.write_text`` / ``Path.write_bytes`` is flagged unless the
  enclosing function holds the journal's advisory lock (an ``flock`` /
  ``_lock_or_raise`` call) or follows the sealed pattern (``os.replace``
  *and* ``os.fsync`` in the same function) — multiple process classes
  share these directories, and a bare ``open(..., "w")`` is a torn-file
  hazard.
* **CONC004 — signal-handler safety**: code reachable from a registered
  signal handler may only set flags and close fds — no telemetry
  emission, no lock acquisition, no I/O, no ``print``/``sleep``.

Plus the allow-comment audit: **CONC005** (note) reports a
``# repro: allow(...)`` comment that suppressed nothing on the lines it
covers, or that names an unknown/retired rule — run with the usage
records of every suppressing pass so annotations cannot rot silently.

Scoping mirrors :mod:`repro.analysis.determinism`: CONC001/2/4 are
reachability-scoped (the graph decides, not a path table), CONC003 uses
:data:`SHARED_PATH_SCOPE`, and ``--all-rules`` forces CONC003 onto every
given path so the fixtures can live outside the package.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import CallGraph, FunctionInfo, ModuleInfo
from repro.analysis.determinism import in_scope
from repro.analysis.report import (
    RULES,
    AnalysisReport,
    Finding,
    allow_comments,
    apply_suppressions,
    make_finding,
    suppressions,
)

#: Directories whose files more than one process class writes: the
#: durable journal/checkpoint layer, the serve daemon's data dir, the
#: explore run journal, and the chaos token directory.
SHARED_PATH_SCOPE: Tuple[str, ...] = (
    "repro/durable/",
    "repro/serve/",
    "repro/explore/",
    "repro/faults/",
)

#: ``pool.<method>(func, ...)`` submission attributes.
_POOL_SUBMIT = {
    "map", "map_async", "imap", "imap_unordered",
    "starmap", "starmap_async", "apply", "apply_async",
}

#: In-place mutation methods on containers (CONC001).
_MUTATORS = {
    "append", "appendleft", "add", "update", "clear", "pop", "popitem",
    "popleft", "extend", "extendleft", "remove", "discard", "insert",
    "setdefault",
}

#: Callable names whose presence sanctions a raw write (the flock'd
#: journal discipline).
_LOCK_SANCTIONS = {"flock", "lockf", "_lock_or_raise"}

#: Telemetry-pipeline entry names (CONC004: no emission from handlers).
_TELEMETRY_CALLS = {
    "span", "mark", "counter", "gauge", "observe", "merge", "emit",
}


def _python_files(paths: Iterable[str]) -> List[Path]:
    files: List[Path] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    return files


# --------------------------------------------------------------------- #
# Entry-point discovery
# --------------------------------------------------------------------- #

class EntryPoints:
    """Pool / initializer / signal roots plus pickle-boundary seeds."""

    def __init__(self) -> None:
        self.pool_roots: Set[str] = set()
        self.signal_roots: Set[str] = set()
        #: (class_key, route description) seeds for the CONC002 closure.
        self.boundary_seeds: List[Tuple[str, str]] = []

    def seed(self, keys: Iterable[str], route: str) -> None:
        """Record boundary-crossing class *keys* with the *route* they take."""
        for key in keys:
            self.boundary_seeds.append((key, route))


def _discover_entry_points(graph: CallGraph) -> EntryPoints:
    entries = EntryPoints()
    for fkey in sorted(graph.functions):
        fn = graph.functions[fkey]
        module = graph.modules[fn.module]
        local = graph._nested_functions(fn)
        env = graph._local_env(module, fn, local)
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            _scan_submission(graph, module, fn, local, env, node, entries)
            _scan_initializer(graph, module, fn, local, env, node, entries)
            _scan_signal(graph, module, fn, local, node, entries)
    return entries


def _function_ref(
    graph: CallGraph, module: ModuleInfo, local: Dict[str, str], node: ast.expr
) -> Optional[str]:
    """Resolve an expression used as a callable *reference* (not a call)."""
    if isinstance(node, ast.Name):
        resolved = graph._resolve_name(module, node.id, local)
        if resolved is not None and resolved in graph.functions:
            return resolved
    return None


def _annotation_seeds(
    graph: CallGraph, module: ModuleInfo, fn_key: str
) -> List[str]:
    fn = graph.functions[fn_key]
    node = fn.node
    seeds: List[str] = []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            seeds.extend(graph.annotation_classes(module, arg.annotation))
        seeds.extend(graph.annotation_classes(module, node.returns))
    return seeds


def _scan_submission(
    graph: CallGraph,
    module: ModuleInfo,
    fn: FunctionInfo,
    local: Dict[str, str],
    env: Dict[str, str],
    node: ast.Call,
    entries: EntryPoints,
) -> None:
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr in _POOL_SUBMIT):
        return
    if not node.args:
        return
    target = _function_ref(graph, module, local, node.args[0])
    if target is None:
        return
    entries.pool_roots.add(target)
    target_module = graph.modules[graph.functions[target].module]
    entries.seed(
        _annotation_seeds(graph, target_module, target),
        f"{graph.functions[target].name} (pool submission)",
    )
    # apply/apply_async ship an explicit args tuple: seed its element types.
    for extra in node.args[1:]:
        if isinstance(extra, ast.Tuple):
            for element in extra.elts:
                if isinstance(element, ast.Name) and element.id in env:
                    entries.seed(
                        [env[element.id]],
                        f"{graph.functions[target].name} (submitted argument)",
                    )
        elif isinstance(extra, ast.Name) and extra.id in env:
            entries.seed(
                [env[extra.id]],
                f"{graph.functions[target].name} (submitted argument)",
            )


def _scan_initializer(
    graph: CallGraph,
    module: ModuleInfo,
    fn: FunctionInfo,
    local: Dict[str, str],
    env: Dict[str, str],
    node: ast.Call,
    entries: EntryPoints,
) -> None:
    for keyword in node.keywords:
        if keyword.arg == "initializer":
            target = _function_ref(graph, module, local, keyword.value)
            if target is not None:
                entries.pool_roots.add(target)
                target_module = graph.modules[graph.functions[target].module]
                entries.seed(
                    _annotation_seeds(graph, target_module, target),
                    f"{graph.functions[target].name} (pool initializer)",
                )
        elif keyword.arg == "initargs" and isinstance(keyword.value, ast.Tuple):
            for element in keyword.value.elts:
                if isinstance(element, ast.Name) and element.id in env:
                    entries.seed([env[element.id]], "pool initargs")


def _scan_signal(
    graph: CallGraph,
    module: ModuleInfo,
    fn: FunctionInfo,
    local: Dict[str, str],
    node: ast.Call,
    entries: EntryPoints,
) -> None:
    func = node.func
    is_signal_call = (
        isinstance(func, ast.Attribute)
        and func.attr == "signal"
        and isinstance(func.value, ast.Name)
        and func.value.id == "signal"
    )
    if not is_signal_call or len(node.args) < 2:
        return
    target = _function_ref(graph, module, local, node.args[1])
    if target is not None:
        entries.signal_roots.add(target)


# --------------------------------------------------------------------- #
# CONC001 — fork-shared mutable state
# --------------------------------------------------------------------- #

def _global_writes(
    graph: CallGraph, fn: FunctionInfo
) -> List[Tuple[int, str, str]]:
    """(line, global name, how) for module-global writes inside *fn*."""
    module = graph.modules[fn.module]
    node = fn.node
    declared_global: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Global):
            declared_global.update(sub.names)
    writes: List[Tuple[int, str, str]] = []
    # Locals that shadow a module global (assigned without ``global``).
    shadowed: Set[str] = set()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            shadowed.add(arg.arg)
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    if target.id in declared_global and target.id in module.globals:
                        writes.append((sub.lineno, target.id, "rebinding"))
                    else:
                        shadowed.add(target.id)
                elif isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    name = target.value.id
                    if (
                        name in module.mutable_globals
                        and name not in shadowed
                    ):
                        writes.append((sub.lineno, name, "item assignment"))
        elif isinstance(sub, ast.Delete):
            for target in sub.targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    name = target.value.id
                    if name in module.mutable_globals and name not in shadowed:
                        writes.append((sub.lineno, name, "item deletion"))
        elif isinstance(sub, ast.Call):
            func = sub.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and isinstance(func.value, ast.Name)
            ):
                name = func.value.id
                if name in module.mutable_globals and name not in shadowed:
                    writes.append(
                        (sub.lineno, name, f".{func.attr}() mutation")
                    )
    return writes


def _check_fork_shared_state(
    graph: CallGraph, pool_reachable: Set[str]
) -> List[Finding]:
    findings: List[Finding] = []
    for fkey in sorted(pool_reachable):
        fn = graph.functions[fkey]
        for line, name, how in _global_writes(graph, fn):
            findings.append(make_finding(
                "CONC001",
                f"module-global {name!r} is written ({how}) in "
                f"{fn.qualname}(), which is reachable from a pool worker "
                "entry point; fork-inherited globals diverge silently "
                "across worker processes — pass state through the worker "
                "context instead",
                file=fn.path, line=line,
            ))
    return findings


# --------------------------------------------------------------------- #
# CONC002 — pickle-boundary discipline
# --------------------------------------------------------------------- #

def _has_reduction(graph: CallGraph, key: str) -> bool:
    """Reduction protocol on the class or an indexed base class."""
    return any(
        ancestor.has_reduction_protocol
        for ancestor in graph.ancestors(graph.classes[key])
    )


def _boundary_closure(
    graph: CallGraph, seeds: List[Tuple[str, str]]
) -> Dict[str, str]:
    """class key -> first route description, closed over dataclass fields."""
    routes: Dict[str, str] = {}
    queue: List[Tuple[str, str]] = list(seeds)
    while queue:
        key, route = queue.pop(0)
        if key in routes or key not in graph.classes:
            continue
        routes[key] = route
        info = graph.classes[key]
        if _has_reduction(graph, key):
            continue  # a custom reduction decides what actually transits
        if info.dataclass_flags is not None:
            module = graph.modules[info.module]
            for annotation in info.field_annotations:
                for fkey in graph.annotation_classes(module, annotation):
                    queue.append((fkey, f"a field of {info.name}"))
    return routes


def _check_pickle_boundary(
    graph: CallGraph, entries: EntryPoints
) -> List[Finding]:
    findings: List[Finding] = []
    routes = _boundary_closure(graph, entries.boundary_seeds)
    for key in sorted(routes):
        info = graph.classes[key]
        route = routes[key]
        if info.dataclass_flags is not None:
            frozen, slots = info.dataclass_flags
            if frozen and slots:
                continue
            if _has_reduction(graph, key):
                continue
            missing = []
            if not frozen:
                missing.append("frozen=True")
            if not slots:
                missing.append("slots=True")
            findings.append(make_finding(
                "CONC002",
                f"dataclass {info.name} transits the process (pickle) "
                f"boundary via {route} but lacks {' and '.join(missing)}; "
                "boundary types must be frozen+slots values or define "
                "__reduce__",
                file=info.path, line=info.lineno,
            ))
        else:
            if _has_reduction(graph, key):
                continue
            findings.append(make_finding(
                "CONC002",
                f"class {info.name} transits the process (pickle) boundary "
                f"via {route} but defines no reduction protocol "
                "(__reduce__/__reduce_ex__ or __getstate__+__setstate__); "
                "default pickling of ad-hoc classes ships unstable "
                "identity-bearing state",
                file=info.path, line=info.lineno,
            ))
    return findings


# --------------------------------------------------------------------- #
# CONC003 — file-write protocol
# --------------------------------------------------------------------- #

def _write_mode(node: ast.Call, position: int = 1) -> Optional[str]:
    """The write-capable mode string of an open-style call, if any."""
    mode: Optional[str] = None
    if len(node.args) > position and isinstance(node.args[position], ast.Constant):
        value = node.args[position].value
        if isinstance(value, str):
            mode = value
    for keyword in node.keywords:
        if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
            if isinstance(keyword.value.value, str):
                mode = keyword.value.value
    if mode is not None and any(ch in mode for ch in "wax+"):
        return mode
    return None


def _function_sanctioned(fn_node: ast.AST) -> bool:
    """Does this function hold a lock or follow the sealed-write pattern?"""
    saw_replace = saw_fsync = False
    for sub in ast.walk(fn_node):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in _LOCK_SANCTIONS:
            return True
        if name == "replace" and isinstance(func, ast.Attribute) and (
            isinstance(func.value, ast.Name) and func.value.id == "os"
        ):
            saw_replace = True
        if name == "fsync":
            saw_fsync = True
    return saw_replace and saw_fsync


def _check_file_protocol(
    graph: CallGraph, *, all_rules: bool
) -> List[Finding]:
    findings: List[Finding] = []
    for fkey in sorted(graph.functions):
        fn = graph.functions[fkey]
        if not all_rules and not in_scope(fn.path, SHARED_PATH_SCOPE):
            continue
        sanctioned: Optional[bool] = None
        for sub in ast.walk(fn.node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            flagged: Optional[str] = None
            if isinstance(func, ast.Name) and func.id == "open":
                mode = _write_mode(sub)
                if mode is not None:
                    flagged = f"open(..., {mode!r})"
            elif isinstance(func, ast.Attribute):
                if func.attr == "fdopen" and isinstance(func.value, ast.Name) \
                        and func.value.id == "os":
                    mode = _write_mode(sub)
                    if mode is not None:
                        flagged = f"os.fdopen(..., {mode!r})"
                elif func.attr in ("write_text", "write_bytes"):
                    flagged = f".{func.attr}(...)"
                elif func.attr == "open":
                    mode = _write_mode(sub, position=0)
                    if mode is not None:
                        flagged = f".open({mode!r})"
            if flagged is None:
                continue
            if sanctioned is None:
                sanctioned = _function_sanctioned(fn.node)
            if sanctioned:
                continue
            findings.append(make_finding(
                "CONC003",
                f"bare {flagged} in {fn.qualname}() under a shared "
                "directory scope; writes here must go through the flock'd "
                "journal or the sealed write->fsync->rename helpers "
                "(repro.durable.checkpoint.write_sealed) so concurrent "
                "process classes never tear a file",
                file=fn.path, line=sub.lineno,
            ))
    return findings


# --------------------------------------------------------------------- #
# CONC004 — signal-handler safety
# --------------------------------------------------------------------- #

def _check_signal_handlers(
    graph: CallGraph, signal_reachable: Set[str]
) -> List[Finding]:
    findings: List[Finding] = []
    for fkey in sorted(signal_reachable):
        fn = graph.functions[fkey]
        module = graph.modules[fn.module]
        for sub in ast.walk(fn.node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            problem: Optional[str] = None
            if isinstance(func, ast.Name):
                if func.id == "open":
                    problem = "opens a file"
                elif func.id == "print":
                    problem = "calls print()"
            elif isinstance(func, ast.Attribute):
                attr = func.attr
                base = func.value
                base_name = base.id if isinstance(base, ast.Name) else None
                if attr == "acquire":
                    problem = "acquires a lock"
                elif base_name == "time" and attr == "sleep":
                    problem = "sleeps"
                elif base_name == "logging":
                    problem = "logs"
                elif base_name == "os" and attr == "fdopen":
                    problem = "opens a file"
                elif attr in _TELEMETRY_CALLS and base_name is not None:
                    target_module = graph._imported_module(module, base_name)
                    if target_module is not None and target_module.startswith(
                        "repro.telemetry"
                    ) or base_name == "telemetry":
                        problem = f"emits telemetry ({base_name}.{attr})"
            if problem is not None:
                findings.append(make_finding(
                    "CONC004",
                    f"{fn.qualname}() is reachable from a registered signal "
                    f"handler and {problem}; handlers may only set flags "
                    "and close file descriptors — they interrupt arbitrary "
                    "code, including malloc and lock-holding regions",
                    file=fn.path, line=sub.lineno,
                ))
    return findings


# --------------------------------------------------------------------- #
# CONC005 — the allow-comment audit
# --------------------------------------------------------------------- #

def audit_allow_comments(
    rel_path: str,
    source: str,
    used: Set[Tuple[int, str]],
) -> List[Finding]:
    """CONC005 notes for stale/unknown ``# repro: allow(...)`` comments.

    *used* holds the ``(line, rule)`` pairs every suppressing pass
    actually consumed for this file.
    """
    findings: List[Finding] = []
    for comment in allow_comments(source):
        for rule in comment.rules:
            if rule not in RULES:
                findings.append(make_finding(
                    "CONC005",
                    f"allow({rule}) names an unknown or retired rule; "
                    "remove the annotation or fix the rule ID",
                    file=rel_path, line=comment.line,
                ))
                continue
            if not any((line, rule) in used for line in comment.covers):
                findings.append(make_finding(
                    "CONC005",
                    f"allow({rule}) suppresses nothing on the lines it "
                    "covers; the finding it once silenced is gone — "
                    "delete the stale annotation",
                    file=rel_path, line=comment.line,
                ))
    return findings


# --------------------------------------------------------------------- #
# The pass driver
# --------------------------------------------------------------------- #

def analyze_concurrency(
    paths: Sequence[str],
    *,
    all_rules: bool = False,
    usage: Optional[Dict[str, Set[Tuple[int, str]]]] = None,
    audit: bool = True,
) -> AnalysisReport:
    """Run the CONC passes over every Python file under *paths*.

    ``all_rules=True`` forces the CONC003 shared-path scope onto every
    given file (the fixtures live outside the package tree).  *usage*
    carries the ``(line, rule)`` suppression consumptions of passes that
    already ran (the determinism lint); this pass adds its own and — with
    ``audit=True`` — closes with the CONC005 stale-allow sweep.
    """
    report = AnalysisReport(passes_run=("concurrency",))
    files = _python_files(paths)
    sources: Dict[str, str] = {}
    parsed: List[Tuple[str, ast.Module]] = []
    for path in files:
        rel = path.as_posix()
        source = path.read_text()
        sources[rel] = source
        parsed.append((rel, ast.parse(source, filename=rel)))
        report.files_scanned += 1

    graph = CallGraph.build(parsed)
    entries = _discover_entry_points(graph)
    pool_reachable = graph.reachable(entries.pool_roots)
    signal_reachable = graph.reachable(entries.signal_roots)

    raw: List[Finding] = []
    raw.extend(_check_fork_shared_state(graph, pool_reachable))
    raw.extend(_check_pickle_boundary(graph, entries))
    raw.extend(_check_file_protocol(graph, all_rules=all_rules))
    raw.extend(_check_signal_handlers(graph, signal_reachable))

    by_file: Dict[str, List[Finding]] = {}
    for finding in raw:
        by_file.setdefault(finding.file, []).append(finding)

    if usage is None:
        usage = {}
    for rel in sorted(sources):
        table = suppressions(sources[rel])
        used = usage.setdefault(rel, set())
        for finding in apply_suppressions(
            by_file.get(rel, []), table, used=used
        ):
            report.add(finding)
    if audit:
        for rel in sorted(sources):
            for finding in audit_allow_comments(
                rel, sources[rel], usage.get(rel, set())
            ):
                report.add(finding)
    return report
