"""The ``unreachable`` rule: what does no entry point reach?

Roots are the files that *run* the program — ``bench/``, ``benchmarks/``,
``examples/``, ``tools/`` and the ``[project.scripts]`` of
``pyproject.toml``.  ``tests/`` is deliberately **not** a root: a symbol
only its own unit tests use is dead weight with a chaperone, and the
finding says ``tests-only`` so the tests go with it.  A package
``__init__`` re-export or ``__all__`` entry is not a use either, and the
rule takes no pragma: a finding that stays is a baseline entry with a reason.

From the roots the rule takes a closure over the project model, with the
call graph's name resolution (:func:`~tools.analysis.callgraph.qualify`,
:meth:`Project.lookup`): a name that resolves (imports and re-exports
followed, ``self.method``) reaches exactly that definition; an attribute
whose receiver cannot be resolved reaches every *method* of that terminal
name (but not the class around it); a ``"module:Class.method"`` string in
a root (the tracer's ``CALLS`` form, a console script) reaches what it
names.  A reached class brings its bases, dunders, properties and
``__post_init__``; a reached method brings every override of its name.
The rule therefore under-reports rather than misreports.

The same walk records which config-dataclass fields some root or reached
code *sets* (constructor keyword, ``replace(...)`` / ``dict(...)`` keyword
or dict-literal key on its way to ``Config(**params)``) and which it *reads* (attribute
load outside the class's own ``__post_init__`` validation).  A field no
root sets has one value in use and should be a constant; a field nothing
reads should not exist.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Optional

from tools.analysis.callgraph import qualify
from tools.analysis.project import FunctionInfo, ModuleInfo, Project, \
    dotted_name
from tools.analysis.report import Violation, line_text
from tools.analysis.taint import _own_nodes

__all__ = ["CONFIG_CLASSES", "UnreachableRule", "script_targets"]

RULE = "unreachable"
CONFIG_CLASSES = frozenset({
    "NetworkConfig", "LightConfig", "RegionTopology", "ChainParams",
    "CostModel",
})
_TARGET = re.compile(r"^([A-Za-z_][\w.]*):([A-Za-z_][\w.]*)$")
_PROPERTY_DECORATORS = frozenset({"property", "cached_property", "setter"})


def script_targets(pyproject_text: str) -> list[str]:
    """The ``module:function`` strings of a ``pyproject.toml``."""
    return [text for text in re.findall(r'"([^"\n]*)"', pyproject_text)
            if _TARGET.match(text)]


def _implicit(node: ast.AST) -> bool:
    """A method nobody calls by name: a dunder or a property."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    return (node.name.startswith("__") and node.name.endswith("__")) or any(
        dotted_name(d).rpartition(".")[2] in _PROPERTY_DECORATORS
        for d in node.decorator_list)


class _Closure:
    """Everything reachable from a set of root modules."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.reached: set[str] = set()
        self.names: set[str] = set()
        self.sets: set[tuple[str, str]] = set()   # (class or "*", field)
        self.reads: set[str] = set()
        self._pending: list[str] = []
        self._by_name: dict[str, list[str]] = {}
        for qualname, fn in project.functions.items():
            if fn.class_name is not None and not fn.nested:
                self._by_name.setdefault(fn.node.name, []).append(qualname)

    # -- the walk ------------------------------------------------------------

    def add_roots(self, modules: Iterable[ModuleInfo],
                  targets: Iterable[str] = ()) -> None:
        for module in modules:
            self._scan(ast.walk(module.tree), module, None, strings=True)
        for target in targets:
            self._reach_text(target)
        while self._pending:
            self._expand(self._pending.pop())

    def _reach(self, symbol: Optional[str], owner: bool = True) -> None:
        """A resolved reference: the definition and, unless it came through
        ``self``, the class around it."""
        while symbol is not None and symbol not in self.reached:
            self.reached.add(symbol)
            self._pending.append(symbol)
            outer = symbol.rpartition(".")[0]
            symbol = outer if owner and outer in self.project.classes \
                else None

    def _name(self, name: str) -> None:
        """An unresolved ``.name``: every method called that, not its class."""
        if name not in self.names and not name.startswith("__"):
            self.names.add(name)
            for qualname in self._by_name.get(name, ()):
                self._reach(qualname, owner=False)

    def _reach_text(self, text: str) -> None:
        match = _TARGET.match(text)
        if match:
            self._reach(self.project.lookup(".".join(match.groups()))[0])

    def _expand(self, symbol: str) -> None:
        project = self.project
        if symbol in project.functions:
            fn = project.functions[symbol]
            if fn.class_name is None:
                self._reach(fn.modname)
            elif not fn.nested:
                self._name(fn.node.name)      # every override of a method
            reads = not (fn.node.name == "__post_init__"
                         and fn.class_name in CONFIG_CLASSES)
            self._scan(ast.walk(fn.node), project.module_for(fn), fn,
                       reads=reads)
        elif symbol in project.classes:
            info = project.classes[symbol]
            self._reach(info.modname)
            self._scan(_own_nodes(info.node), project.modules[info.modname],
                       None)
            for child in info.node.body:
                if _implicit(child):
                    self._reach(f"{symbol}.{child.name}")
        else:
            module = project.modules[symbol]
            if not module.is_package:
                self._scan(_own_nodes(module.tree), module, None)

    def _scan(self, nodes: Iterable[ast.AST], module: ModuleInfo,
              fn: Optional[FunctionInfo], *, strings: bool = False,
              reads: bool = True) -> None:
        for node in nodes:
            if isinstance(node, (ast.Name, ast.Attribute)):
                dotted = dotted_name(node)
                symbol, exact = self.project.lookup(
                    qualify(dotted, fn, module)) if dotted else (None, False)
                own = dotted.partition(".")[0] in ("self", "cls")
                # a local is not a module global; self.x is not a use of self
                if symbol != module.modname and (exact or not own):
                    self._reach(symbol, owner=not own)
                if isinstance(node, ast.Attribute) and not exact:
                    self._name(node.attr)
                    if reads and isinstance(node.ctx, ast.Load):
                        self.reads.add(node.attr)
            elif isinstance(node, ast.Call):
                self._record_sets(node, module, fn)
            elif isinstance(node, ast.Dict):
                self.sets.update(
                    ("*", key.value) for key in node.keys
                    if isinstance(key, ast.Constant)
                    and isinstance(key.value, str))
            elif strings and isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                self._reach_text(node.value)

    def _record_sets(self, node: ast.Call, module: ModuleInfo,
                     fn: Optional[FunctionInfo]) -> None:
        dotted = dotted_name(node.func)
        if not dotted:
            return
        owner = "*" if dotted.rpartition(".")[2] in ("replace", "dict") else (
            self.project.lookup(qualify(dotted, fn, module))[0] or ""
        ).rpartition(".")[2]
        if owner == "*" or owner in CONFIG_CLASSES:
            self.sets.update((owner, keyword.arg) for keyword in node.keywords
                             if keyword.arg is not None)

    def is_set(self, class_name: str, field: str) -> bool:
        return (class_name, field) in self.sets or ("*", field) in self.sets


class UnreachableRule:
    """Report definitions and config fields no entry point reaches.

    ``context`` holds the modules around the program: files under
    ``tests/`` only mark findings ``tests-only``, every other file is a
    root.  ``targets`` are extra ``module:function`` roots (console
    scripts).
    """

    rule = RULE

    def __init__(self, project: Project, context: Project,
                 targets: Iterable[str] = ()) -> None:
        self.project = project
        self.roots = [m for m in context.modules.values()
                      if not m.path.startswith("tests/")]
        self.tests = [m for m in context.modules.values()
                      if m.path.startswith("tests/")]
        self.targets = list(targets)

    def run(self) -> list[Violation]:
        live = _Closure(self.project)
        live.add_roots(self.roots, self.targets)
        tested = _Closure(self.project)
        tested.add_roots(self.roots + self.tests, self.targets)
        violations = self._definitions(live, tested)
        violations.extend(self._config_fields(live, tested))
        return violations

    def _violation(self, modname: str, qualname: str, line: int,
                   message: str, snippet: Optional[str] = None) -> Violation:
        module = self.project.modules[modname]
        if snippet is None:
            snippet = line_text(module.source_lines, line)
        return Violation(path=module.path, line=line, rule=RULE,
                         message=message, qualname=qualname, snippet=snippet)

    def _definitions(self, live: _Closure,
                     tested: _Closure) -> list[Violation]:
        project = self.project
        dead = {name for name, module in project.modules.items()
                if name not in live.reached and not module.is_package}
        found = [self._violation(
            name, name, 1, f"module {name} is reached by no entry point "
                           f"({self._why(name, tested)})")
            for name in sorted(dead)]
        definitions = [(q, i, "class") for q, i in project.classes.items()] + [
            (q, i, "method" if i.class_name else "function")
            for q, i in project.functions.items() if not i.nested]
        for qualname, info, kind in sorted(definitions, key=lambda d: d[0]):
            owner = qualname.rpartition(".")[0]
            if qualname in live.reached or info.modname in dead \
                    or (owner in project.classes
                        and owner not in live.reached):
                continue      # reached, or reported with its module / class
            found.append(self._violation(
                info.modname, qualname, info.lineno,
                f"{kind} {qualname[len(info.modname) + 1:]} is reached by no "
                f"entry point ({self._why(qualname, tested)})"))
        return found

    @staticmethod
    def _why(symbol: str, tested: _Closure) -> str:
        return "tests-only" if symbol in tested.reached else "unreferenced"

    def _config_fields(self, live: _Closure,
                       tested: _Closure) -> list[Violation]:
        """Per field: nothing reads it.  Per class: the fields no entry
        point sets — one finding whose snippet is their names, so a new
        never-set field is a new finding."""
        found: list[Violation] = []
        for qualname, info in sorted(self.project.classes.items()):
            name = info.node.name
            if name not in CONFIG_CLASSES or qualname not in live.reached:
                continue
            fields = [stmt for stmt in info.node.body
                      if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name)]
            found.extend(
                self._violation(info.modname,
                                f"{qualname}.{stmt.target.id}", stmt.lineno,
                                f"config field {name}.{stmt.target.id} is "
                                f"read by no reachable code")
                for stmt in fields if stmt.target.id not in live.reads)
            unset = [stmt.target.id for stmt in fields
                     if not live.is_set(name, stmt.target.id)]
            if unset:
                shown = ", ".join(field + "*" * tested.is_set(name, field)
                                  for field in unset)
                found.append(self._violation(
                    info.modname, qualname, info.lineno,
                    f"config class {name}: no entry point sets {shown} "
                    f"(*: tests do) — one value in use, make each a "
                    f"constant beside its reader", snippet=", ".join(unset)))
        return found
