"""The whole-program project model: modules, symbols, imports.

:class:`Project` parses every module under a package root once and
exposes the tables the interprocedural passes need:

* ``modules`` — per-module AST, source lines, and an import map that
  resolves every local name to a fully-qualified dotted target
  (``sha256`` → ``repro.crypto.hashing.sha256``);
* ``functions`` — every function and method in the program, keyed by
  qualified name (``repro.blockchain.mempool.Mempool.accept``), with its
  parameter list and enclosing scope;
* ``classes`` — every class outside a function body, keyed the same way.

The model is deliberately syntactic: no imports are executed, so the
analyzer can run on a tree that does not import cleanly (or at all).
Tests build projects from in-memory sources via
:meth:`Project.from_sources`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from tools.analysis.report import allowed

__all__ = ["ClassInfo", "FunctionInfo", "ModuleInfo", "Project",
           "dotted_name"]


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a name/attribute chain, ``''`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str            # repro.pkg.mod.Class.method / repro.pkg.mod.func
    modname: str             # repro.pkg.mod
    path: str                # repo-relative posix path
    node: ast.AST            # FunctionDef | AsyncFunctionDef
    params: tuple[str, ...]  # positional-or-keyword + kw-only names, in order
    class_name: Optional[str] = None   # nearest enclosing class, if a method
    nested: bool = False               # defined inside another function
    lineno: int = 0

    @property
    def is_module_level(self) -> bool:
        return self.class_name is None and not self.nested


@dataclass
class ClassInfo:
    """One class definition (module-level or nested in another class)."""

    qualname: str
    modname: str
    path: str
    node: ast.ClassDef
    lineno: int = 0


@dataclass
class ModuleInfo:
    """One parsed module plus its name-resolution environment."""

    modname: str
    path: str
    tree: ast.Module
    source_lines: list[str]
    is_package: bool = False
    # local name -> fully qualified dotted target ("time", "repro.crypto.hashing.sha256")
    imports: dict[str, str] = field(default_factory=dict)


def _collect_imports(module: ModuleInfo) -> None:
    """Fill ``module.imports`` from the module's import statements."""
    package = module.modname if module.is_package \
        else module.modname.rpartition(".")[0]
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.partition(".")[0]
                module.imports[local] = target
                if alias.asname:
                    module.imports[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Resolve "from ..x import y" against the enclosing package.
                anchor = package
                for _ in range(node.level - 1):
                    anchor = anchor.rpartition(".")[0]
                base = f"{anchor}.{base}" if base else anchor
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                module.imports[local] = f"{base}.{alias.name}"


class _SymbolVisitor(ast.NodeVisitor):
    """Collects every function/method with its scoped qualified name."""

    def __init__(self, module: ModuleInfo,
                 functions: dict[str, FunctionInfo],
                 classes: dict[str, ClassInfo]) -> None:
        self.module = module
        self.functions = functions
        self.classes = classes
        self._scope: list[tuple[str, str]] = []  # (kind, name)

    def _add_function(self, node) -> None:
        names = [name for _kind, name in self._scope] + [node.name]
        qualname = ".".join([self.module.modname] + names)
        class_name = None
        nested = False
        for kind, name in reversed(self._scope):
            if kind == "class":
                class_name = name
                break
            nested = True
        params: list[str] = []
        args = node.args
        params.extend(arg.arg for arg in args.posonlyargs)
        params.extend(arg.arg for arg in args.args)
        params.extend(arg.arg for arg in args.kwonlyargs)
        self.functions[qualname] = FunctionInfo(
            qualname=qualname, modname=self.module.modname,
            path=self.module.path, node=node, params=tuple(params),
            class_name=class_name, nested=nested, lineno=node.lineno,
        )
        self._scope.append(("func", node.name))
        self.generic_visit(node)
        self._scope.pop()

    visit_FunctionDef = _add_function
    visit_AsyncFunctionDef = _add_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if all(kind == "class" for kind, _name in self._scope):
            names = [name for _kind, name in self._scope] + [node.name]
            qualname = ".".join([self.module.modname] + names)
            self.classes[qualname] = ClassInfo(
                qualname=qualname, modname=self.module.modname,
                path=self.module.path, node=node, lineno=node.lineno)
        self._scope.append(("class", node.name))
        self.generic_visit(node)
        self._scope.pop()


class Project:
    """All modules under one package root, parsed and indexed."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_sources(cls, sources: Iterable[tuple[str, str, str]]) -> "Project":
        """Build from ``(modname, path, source)`` triples (tests use this)."""
        project = cls()
        for modname, path, source in sources:
            project._add_module(modname, path, source,
                                is_package=path.endswith("__init__.py"))
        return project

    @classmethod
    def load(cls, root: Path, *package_dirs: str,
             exclude: tuple[str, ...] = ()) -> "Project":
        """Parse every ``*.py`` under each ``root/package_dir``.

        Module names are derived relative to the last path component's
        parent, so ``src/repro/x/y.py`` becomes ``repro.x.y``.  Missing
        directories and paths containing an ``exclude`` fragment are
        skipped.
        """
        project = cls()
        for package_dir in package_dirs or ("src/repro",):
            base = root / package_dir
            for path in sorted(base.rglob("*.py")):
                rel_repo = path.relative_to(root).as_posix()
                if any(fragment in rel_repo for fragment in exclude):
                    continue
                parts = list(path.relative_to(base.parent)
                             .with_suffix("").parts)
                is_package = parts[-1] == "__init__"
                if is_package:
                    parts = parts[:-1]
                project._add_module(".".join(parts), rel_repo,
                                    path.read_text(encoding="utf-8"),
                                    is_package=is_package)
        return project

    def _add_module(self, modname: str, path: str, source: str,
                    is_package: bool = False) -> None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return  # the per-file lint reports unparseable files
        module = ModuleInfo(modname=modname, path=path, tree=tree,
                            source_lines=source.splitlines(),
                            is_package=is_package)
        _collect_imports(module)
        _SymbolVisitor(module, self.functions, self.classes).visit(tree)
        self.modules[modname] = module

    # -- queries ---------------------------------------------------------------

    def function(self, qualname: str) -> Optional[FunctionInfo]:
        return self.functions.get(qualname)

    def module_for(self, function: FunctionInfo) -> ModuleInfo:
        return self.modules[function.modname]

    def lookup(self, dotted: str) -> tuple[Optional[str], bool]:
        """The function, class or module that ``dotted`` names.

        Package re-exports are followed (``repro.core.NetworkConfig`` is
        ``repro.core.config.NetworkConfig``); the longest known prefix
        wins, and the flag says whether it was all of ``dotted`` — a
        module constant or an inherited method leaves a remainder.
        """
        for _hop in range(8):
            parts = dotted.split(".")
            for cut in range(len(parts), 0, -1):
                prefix = ".".join(parts[:cut])
                if prefix in self.functions or prefix in self.classes:
                    return prefix, cut == len(parts)
                module = self.modules.get(prefix)
                if module is None:
                    continue
                if cut == len(parts) or parts[cut] not in module.imports:
                    return prefix, cut == len(parts)
                dotted = ".".join([module.imports[parts[cut]]]
                                  + parts[cut + 1:])
                break
            else:
                return None, False
        return None, False

    def line_has_pragma(self, function_path: str, line: int,
                        rule: str) -> bool:
        """Whether ``# lint: allow(rule)`` sits on ``line`` of the module."""
        return any(module.path == function_path
                   and allowed(module.source_lines, line, rule)
                   for module in self.modules.values())
