"""AST-based conformance checker for observer/profiler contracts.

Observers see the trace through two entry points only -- ``on_cycle``
for stepped cycles and ``on_block`` for every batch -- and the fast
paths and pool workers stay equivalent to a serial, cycle-stepped run
because observers keep two promises:

* **block-native pairing** (C001): a profiler advertising
  ``block_native = True`` must implement the columnar hooks the block
  engine calls (``_block_attribute``/``_block_scan_resolve``/
  ``_block_resolve_outcome``);
* **no shared mutable state** (C004): methods that consume the trace
  must not mutate module-level or class-level state; pooled suite
  workers and served jobs run observers in their own processes and
  ship results back as snapshots, so such writes are lost, doubled or
  raced depending on where the observer ran.

This is a *static* companion to the dynamic hypothesis equivalence
tests: ``repro lint --observers <paths>`` parses Python sources (no
imports are executed) and reports :class:`~repro.lint.diagnostics.
Diagnostic` records with file/line/column locations.  A line can opt
out of C004 with a ``# lint: shared-ok`` comment.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from .diagnostics import Diagnostic, Severity

#: Method names that mark a class as observer-like even without a
#: recognisable base class.
HOOK_NAMES = frozenset({
    "on_cycle", "on_block", "on_finish",
    "snapshot", "restore_snapshots", "absorb",
    "_block_attribute", "_block_scan_resolve", "_block_resolve_outcome",
    "_block_update_tail",
})

_BLOCK_HOOKS = ("_block_attribute", "_block_scan_resolve",
                "_block_resolve_outcome")

#: Base classes that make a subclass observer-like by inheritance.
_FRAMEWORK_BASES = frozenset({"TraceObserver", "SamplingProfiler"})

#: What the framework bases provide, for targets checked without the
#: framework sources on the command line.  ``True`` = concrete
#: override, ``False`` = abstract (raises ``NotImplementedError``).
_FALLBACK_METHODS: Dict[str, Dict[str, bool]] = {
    "TraceObserver": {},  # its hooks are defaults, not overrides
    "SamplingProfiler": {
        "on_cycle": True, "on_finish": True,
        "snapshot": True, "restore_snapshots": True,
        "_block_attribute": False, "_block_scan_resolve": False,
        "_block_resolve_outcome": False, "_block_update_tail": True,
    },
}

_FALLBACK_ATTRS: Dict[str, Dict[str, Any]] = {
    "TraceObserver": {},
    "SamplingProfiler": {"block_native": False},
}

#: In-place mutator method names C004 watches for on shared objects.
_MUTATORS = frozenset({
    "append", "extend", "add", "update", "setdefault", "pop",
    "popitem", "clear", "remove", "discard", "insert", "sort",
    "reverse", "appendleft", "extendleft",
})

#: Methods that run where results are merged (the parent process) or
#: the observer is built, where mutating shared state is the point.
_MERGE_SIDE = frozenset({"absorb", "restore_snapshots", "merge",
                         "__init__", "__post_init__"})

_SUPPRESS_COMMENT = "lint: shared-ok"


@dataclass
class ClassInfo:
    """One parsed class: bases, methods and class-level assignments."""

    name: str
    path: str
    lineno: int
    col: int
    bases: List[str]
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    assigns: Dict[str, ast.expr] = field(default_factory=dict)
    module_names: Set[str] = field(default_factory=set)
    module_classes: Set[str] = field(default_factory=set)


@dataclass
class ContractReport:
    """All contract findings for one checker invocation."""

    target: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    classes_checked: int = 0
    files_checked: int = 0

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors

    def render(self, verbose: bool = True) -> str:
        lines = [f"{self.target}: {self.classes_checked} observer "
                 f"class(es) in {self.files_checked} file(s), "
                 f"{len(self.errors)} error(s), "
                 f"{len(self.warnings)} warning(s)"]
        if verbose:
            lines.extend(d.render() for d in self.diagnostics)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {"target": self.target,
                "classes_checked": self.classes_checked,
                "files_checked": self.files_checked,
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "diagnostics": [d.to_dict() for d in self.diagnostics]}


# -- parsing ----------------------------------------------------------------

def _base_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _collect_file(path: str, registry: Dict[str, ClassInfo],
                  order: List[ClassInfo]) -> None:
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source, filename=path)
    module_names: Set[str] = set()
    module_classes: Set[str] = set()
    for node in tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, ast.ClassDef):
            module_classes.add(node.name)
        for target in targets:
            if isinstance(target, ast.Name):
                module_names.add(target.id)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        info = ClassInfo(
            name=node.name, path=path, lineno=node.lineno,
            col=node.col_offset,
            bases=[b for b in (_base_name(base) for base in node.bases)
                   if b is not None],
            module_names=module_names,
            module_classes=module_classes)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(item, ast.FunctionDef):
                    info.methods[item.name] = item
            elif isinstance(item, ast.Assign):
                for target in item.targets:
                    if isinstance(target, ast.Name):
                        info.assigns[target.id] = item.value
            elif isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name) \
                    and item.value is not None:
                info.assigns[item.target.id] = item.value
        registry.setdefault(info.name, info)
        order.append(info)


def _is_abstract(func: ast.FunctionDef) -> bool:
    """Body is only a docstring, ``pass``, ``...`` or a
    ``raise NotImplementedError``."""
    body = list(func.body)
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) \
                and isinstance(stmt.value, ast.Constant) \
                and stmt.value.value is Ellipsis:
            continue
        if isinstance(stmt, ast.Raise):
            exc = stmt.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) \
                    and exc.id == "NotImplementedError":
                continue
        return False
    return True


# -- method/attribute resolution over a best-effort MRO ---------------------

class _Resolver:
    def __init__(self, registry: Dict[str, ClassInfo]):
        self.registry = registry

    def mro(self, info: ClassInfo) -> List[str]:
        order: List[str] = []
        seen: Set[str] = set()

        def visit(name: str) -> None:
            if name in seen:
                return
            seen.add(name)
            order.append(name)
            parsed = self.registry.get(name)
            if parsed is not None:
                for base in parsed.bases:
                    visit(base)

        visit(info.name)
        return order

    def incomplete(self, info: ClassInfo) -> bool:
        """Some base class is neither parsed nor a known framework
        base: method resolution would be guesswork."""
        for name in self.mro(info):
            parsed = self.registry.get(name)
            if parsed is None and name not in _FALLBACK_METHODS \
                    and name != "object":
                return True
        return False

    def find_method(self, info: ClassInfo,
                    method: str) -> Tuple[Optional[str], Optional[bool]]:
        """First MRO class defining *method*: (class name, concrete?)."""
        for name in self.mro(info):
            parsed = self.registry.get(name)
            if parsed is not None:
                func = parsed.methods.get(method)
                if func is not None:
                    return name, not _is_abstract(func)
            elif name in _FALLBACK_METHODS:
                table = _FALLBACK_METHODS[name]
                if method in table:
                    return name, table[method]
        return None, None

    def attr(self, info: ClassInfo, attr: str) -> Any:
        for name in self.mro(info):
            parsed = self.registry.get(name)
            if parsed is not None:
                node = parsed.assigns.get(attr)
                if node is not None:
                    if isinstance(node, ast.Constant):
                        return node.value
                    return node  # non-literal: unknown truthiness
            elif name in _FALLBACK_ATTRS:
                table = _FALLBACK_ATTRS[name]
                if attr in table:
                    return table[attr]
        return None

    def is_observer(self, info: ClassInfo) -> bool:
        mro = self.mro(info)
        if any(name in _FRAMEWORK_BASES for name in mro[1:]):
            return True
        hooks = sum(1 for name in info.methods if name in HOOK_NAMES)
        return hooks >= 2


# -- the checks -------------------------------------------------------------

def _diag(rule: str, severity: Severity, message: str, *,
          info: ClassInfo, node: Optional[ast.AST] = None,
          fix_hint: Optional[str] = None) -> Diagnostic:
    lineno = getattr(node, "lineno", info.lineno)
    col = getattr(node, "col_offset", info.col)
    return Diagnostic(rule, severity, message, fix_hint=fix_hint,
                      path=info.path, line=lineno, col=col + 1,
                      function=info.name)


def _check_block_native(info: ClassInfo,
                        resolver: _Resolver) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    native = resolver.attr(info, "block_native")
    missing = [hook for hook in _BLOCK_HOOKS
               if not resolver.find_method(info, hook)[1]]
    if native is True and missing:
        out.append(_diag(
            "C001", Severity.ERROR,
            f"{info.name} sets block_native = True but leaves "
            f"{', '.join(missing)} unimplemented; the block engine "
            f"will call them",
            info=info,
            fix_hint="implement the columnar hooks or drop the "
                     "block_native claim"))
    elif native is False and not missing \
            and any(hook in info.methods for hook in _BLOCK_HOOKS):
        out.append(_diag(
            "C001", Severity.WARNING,
            f"{info.name} implements the columnar block hooks but "
            f"block_native is not True; the block engine will ignore "
            f"them",
            info=info,
            fix_hint="set block_native = True to enable the fast path"))
    return out


def _attr_chain(node: ast.expr) -> Tuple[Optional[ast.expr], List[str]]:
    """Innermost value of an attribute/subscript chain + attr names."""
    attrs: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            attrs.append("[]")
            node = node.value
        else:
            return node, list(reversed(attrs))


def _mutable_class_attrs(info: ClassInfo) -> Set[str]:
    """Class-body names bound to mutable literals and never rebound
    per-instance (``self.X = ...``) in any method."""
    mutable: Set[str] = set()
    for name, value in info.assigns.items():
        if isinstance(value, (ast.List, ast.Dict, ast.Set)):
            mutable.add(name)
        elif isinstance(value, ast.Call) \
                and isinstance(value.func, ast.Name) \
                and value.func.id in ("list", "dict", "set",
                                      "defaultdict", "Counter",
                                      "deque"):
            mutable.add(name)
    if not mutable:
        return mutable
    rebound: Set[str] = set()
    for func in info.methods.values():
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id == "self":
                    rebound.add(target.attr)
    return mutable - rebound


class _HazardScanner:
    """Finds mutations of shared state inside one trace-side method."""

    def __init__(self, info: ClassInfo, func: ast.FunctionDef,
                 source_lines: List[str]):
        self.info = info
        self.func = func
        self.lines = source_lines
        self.globals_declared: Set[str] = set()
        self.mutable_attrs = _mutable_class_attrs(info)
        self.findings: List[Tuple[ast.AST, str]] = []

    def _suppressed(self, node: ast.AST) -> bool:
        lineno = getattr(node, "lineno", None)
        if lineno is None or lineno > len(self.lines):
            return False
        return _SUPPRESS_COMMENT in self.lines[lineno - 1]

    def _shared_root(self, root: Optional[ast.expr],
                     attrs: List[str]) -> Optional[str]:
        """Describe why this chain names shared state, else ``None``."""
        if isinstance(root, ast.Name):
            name = root.id
            if name == "self":
                if "__class__" in attrs:
                    return "self.__class__"
                if attrs and attrs[0] in self.mutable_attrs:
                    return (f"class-level mutable default "
                            f"{self.info.name}.{attrs[0]}")
                return None
            if name == "cls" or name in self.info.module_classes \
                    or name == self.info.name:
                return f"class attribute of {name}"
            if name in self.info.module_names:
                return f"module-level {name}"
            if name in self.globals_declared:
                return f"global {name}"
            return None
        if isinstance(root, ast.Call) \
                and isinstance(root.func, ast.Name) \
                and root.func.id == "type" and len(root.args) == 1:
            return "type(self)"
        return None

    def scan(self) -> List[Tuple[ast.AST, str]]:
        for node in ast.walk(self.func):
            if isinstance(node, ast.Global):
                self.globals_declared.update(node.names)
        for node in ast.walk(self.func):
            if isinstance(node, (ast.Assign, ast.AnnAssign,
                                 ast.AugAssign)):
                targets = (node.targets
                           if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    self._scan_store(target)
            elif isinstance(node, ast.Call):
                self._scan_call(node)
        return self.findings

    def _scan_store(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._scan_store(element)
            return
        if isinstance(target, ast.Name):
            if target.id in self.globals_declared \
                    and not self._suppressed(target):
                self.findings.append(
                    (target, f"assigns global {target.id}"))
            return
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        root, attrs = _attr_chain(target)
        why = self._shared_root(root, attrs)
        if why is not None and not self._suppressed(target):
            self.findings.append((target, f"stores into {why}"))

    def _scan_call(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) \
                or func.attr not in _MUTATORS:
            return
        root, attrs = _attr_chain(func.value)
        why = self._shared_root(root, attrs)
        if why is not None and not self._suppressed(node):
            self.findings.append(
                (node, f"calls .{func.attr}() on {why}"))


def _check_shared_state(info: ClassInfo, resolver: _Resolver,
                        source_lines: List[str]) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for name, func in sorted(info.methods.items()):
        if name in _MERGE_SIDE or _is_abstract(func):
            continue
        for node, why in _HazardScanner(info, func,
                                        source_lines).scan():
            out.append(_diag(
                "C004", Severity.ERROR,
                f"{info.name}.{name} {why}; observer methods must "
                f"not mutate shared state (results are lost or raced "
                f"when the observer runs in a pool worker)",
                info=info, node=node,
                fix_hint="move the state onto the instance and merge "
                         "it in absorb()/restore_snapshots(), or mark "
                         "the line `# lint: shared-ok` if it is "
                         "provably process-local"))
    return out


#: Contract rule metadata, for docs and ``--format json`` consumers.
CONTRACT_RULES: Dict[str, str] = {
    "C001": "block_native profilers must implement the columnar hooks",
    "C004": "observer methods must not mutate shared state",
}


def iter_python_files(targets: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for target in targets:
        if os.path.isdir(target):
            for root, dirs, files in os.walk(target):
                dirs[:] = sorted(d for d in dirs
                                 if d not in ("__pycache__",))
                for name in sorted(files):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        else:
            out.append(target)
    return out


def check_observer_contracts(targets: Iterable[str],
                             label: Optional[str] = None
                             ) -> ContractReport:
    """Run C001 and C004 over the Python sources in *targets*.

    *targets* are ``.py`` files or directories (recursed).  Sources are
    parsed, never imported.  Classes that are not observer-like are
    skipped; classes with unresolvable non-framework bases skip the
    MRO-dependent check (C001) but still get the shared-state scan.
    """
    files = iter_python_files(targets)
    report = ContractReport(label or ", ".join(targets))
    registry: Dict[str, ClassInfo] = {}
    order: List[ClassInfo] = []
    sources: Dict[str, List[str]] = {}
    for path in files:
        try:
            _collect_file(path, registry, order)
            with open(path, "r", encoding="utf-8") as handle:
                sources[path] = handle.read().splitlines()
        except (OSError, SyntaxError) as exc:
            report.diagnostics.append(Diagnostic(
                "C000", Severity.ERROR,
                f"cannot parse {path}: {exc}", path=path))
    report.files_checked = len(sources)
    resolver = _Resolver(registry)
    for info in order:
        if not resolver.is_observer(info):
            continue
        report.classes_checked += 1
        if not resolver.incomplete(info):
            report.diagnostics.extend(
                _check_block_native(info, resolver))
        report.diagnostics.extend(_check_shared_state(
            info, resolver, sources.get(info.path, [])))
    report.diagnostics.sort(
        key=lambda d: (d.path or "", d.line or 0, d.rule))
    return report
