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

The same walk records which fields of a *settings class* — every
``@dataclass(frozen=True)`` with a defaulted field — some root or reached
code *sets* (constructor keyword or positional argument, in field order,
``replace(...)`` / ``dict(...)`` keyword or dict-literal key on its way to
``Config(**params)``) and which it *reads* (attribute load outside the
class's own ``__post_init__`` validation).  A defaulted field no root sets
has one value in use and should be a constant; a field nothing reads
should not exist.

It also records which parameters each reached call *binds*: a keyword, a
positional index (``self`` skipped), a ``*args`` from its index on, a
``**mapping`` all of them — unless the mapping is the caller's own
``**kwargs``, which binds what the caller's callers pass it that it does
not name.  ``Class(...)`` calls the ``__init__`` its bases give it,
``super().name(...)`` the first base's ``name``, a resolved method its
overrides too, and an unresolved ``.name(...)`` every method called
``name``.  A function used as a value (a callback) escapes: its callers
are unknown, so every parameter counts as bound; so does a class used as
a value (its ``__init__``), but not one named as a base, an annotation,
an ``except`` clause or ``isinstance``'s second argument.  An attribute
load through an unresolved receiver escapes every method of its name only
when its value is passed to a call or bound to a name the same scope
calls: ``request.timeout`` read as data binds nothing, and a method
handed out some other way (stored in a container, returned) reads as
unbound, a finding to baseline.  A defaulted parameter no root binds has
one value in use and should be a constant too.  Its mirror, a *dead
default*, is a defaulted parameter of a reached function that every call
— a root's or a test's — passes: its default is never used, and the
parameter should be required.  A call through a ``*args`` or
``**mapping`` may leave any parameter it does not name unbound, so it
never makes a default dead.
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

__all__ = ["UnreachableRule", "script_targets"]

RULE = "unreachable"
ALL = "*"       # a binding of every parameter: an escape, a **mapping
_TARGET = re.compile(r"^([A-Za-z_][\w.]*):([A-Za-z_][\w.]*)$")
_PROPERTY_DECORATORS = frozenset({"property", "cached_property", "setter"})


def script_targets(pyproject_text: str) -> list[str]:
    """The ``module:function`` strings of a ``pyproject.toml``."""
    return [text for text in re.findall(r'"([^"\n]*)"', pyproject_text)
            if _TARGET.match(text)]


def _decorated(node: ast.AST, name: str) -> bool:
    return any(dotted_name(d).rpartition(".")[2] == name
               for d in node.decorator_list)


def _defaulted(node: ast.AST) -> list[str]:
    """The parameters of a ``def`` that have a default, in order."""
    args = node.args
    positional = args.posonlyargs + args.args
    return [arg.arg for arg in positional[len(positional)
                                          - len(args.defaults):]] + [
        arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None]


def _fields(node: ast.ClassDef) -> dict[str, tuple[int, bool]]:
    """``name -> (line, defaulted)`` for each constructor field of a
    frozen dataclass, in order; empty for any other class."""
    frozen = any(isinstance(d, ast.Call)
                 and dotted_name(d.func).rpartition(".")[2] == "dataclass"
                 and any(kw.arg == "frozen" and isinstance(kw.value,
                                                           ast.Constant)
                         and kw.value.value is True for kw in d.keywords)
                 for d in node.decorator_list)
    found = {}
    for stmt in node.body if frozen else ():
        if not isinstance(stmt, ast.AnnAssign) \
                or not isinstance(stmt.target, ast.Name) \
                or "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        options = {kw.arg: kw.value for kw in value.keywords} \
            if isinstance(value, ast.Call) and dotted_name(
                value.func).rpartition(".")[2] == "field" else None
        if options is None:
            defaulted = value is not None
        elif isinstance(options.get("init"), ast.Constant) \
                and options["init"].value is False:
            continue
        else:
            defaulted = "default" in options or "default_factory" in options
        found[stmt.target.id] = (stmt.lineno, defaulted)
    return found


def _implicit(node: ast.AST) -> bool:
    """A method nobody calls by name: a dunder or a property."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    return (node.name.startswith("__") and node.name.endswith("__")) or any(
        dotted_name(d).rpartition(".")[2] in _PROPERTY_DECORATORS
        for d in node.decorator_list)


def _type_positions(node: ast.AST) -> list[int]:
    """The ids of the nodes under ``node`` that name a type without
    calling it: bases, annotations, ``except`` clauses and the second
    argument of ``isinstance`` / ``issubclass``."""
    if isinstance(node, ast.ClassDef):
        parts = node.bases
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        parts = [node.returns]
    elif isinstance(node, (ast.arg, ast.AnnAssign)):
        parts = [node.annotation]
    elif isinstance(node, ast.ExceptHandler):
        parts = [node.type]
    elif isinstance(node, ast.Call) and dotted_name(node.func) in (
            "isinstance", "issubclass"):
        parts = node.args[1:]
    else:
        return []
    return [id(child) for part in parts if part is not None
            for child in ast.walk(part)]


class _Closure:
    """Everything reachable from a set of root modules."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.reached: set[str] = set()
        self.names: set[str] = set()
        self.sets: set[tuple[str, str]] = set()   # (class or "*", field)
        self.reads: set[str] = set()
        self.binds: dict[str, set[str]] = {}      # function -> parameters
        self.called: set[str] = set()             # functions some call binds
        # function -> defaulted parameters some call may leave unbound
        self.leaves: dict[str, set[str]] = {}
        self._forwards: list[tuple[str, str]] = []   # (caller, callee)
        self._pending: list[str] = []
        self._by_name: dict[str, list[str]] = {}
        self._bases: dict[str, list[str]] = {}
        # settings classes: frozen dataclasses with a defaulted field
        self.fields: dict[str, dict[str, tuple[int, bool]]] = {}
        for qualname, info in project.classes.items():
            fields = _fields(info.node)
            if any(defaulted for _line, defaulted in fields.values()):
                self.fields[qualname] = fields
        for qualname, fn in project.functions.items():
            if fn.class_name is not None and not fn.nested:
                self._by_name.setdefault(fn.node.name, []).append(qualname)
        for qualname, info in project.classes.items():
            module = project.modules[info.modname]
            self._bases[qualname] = [
                symbol for symbol, exact in (
                    project.lookup(qualify(dotted_name(base), None, module))
                    for base in info.node.bases if dotted_name(base))
                if exact and symbol in project.classes]
        self._subclasses: dict[str, list[str]] = {}
        for qualname, bases in self._bases.items():
            for base in bases:
                self._subclasses.setdefault(base, []).append(qualname)

    # -- the walk ------------------------------------------------------------

    def add_roots(self, modules: Iterable[ModuleInfo],
                  targets: Iterable[str] = ()) -> None:
        for module in modules:
            self._scan(ast.walk(module.tree), module, None, strings=True)
        for target in targets:
            self._reach_text(target)
        while self._pending:
            self._expand(self._pending.pop())
        changed = True
        while changed:       # **kwargs forwarding, through chains of it
            changed = False
            for caller, callee in self._forwards:
                bound = self.binds.get(caller, set())
                passed = {ALL} if ALL in bound else \
                    bound - set(self.project.functions[caller].params)
                if not passed <= self.binds.setdefault(callee, set()):
                    self.binds[callee] |= passed
                    changed = True

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
                         and symbol.rpartition(".")[0] in self.fields)
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
        nodes = list(nodes)
        called = {node.func.id for node in nodes if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)}
        held: set[int] = set()    # callees, receivers, types: not values
        handed: set[int] = set()  # passed to a call, or named and called
        for node in nodes:
            held.update(_type_positions(node))
            if isinstance(node, (ast.Name, ast.Attribute)):
                dotted = dotted_name(node)
                symbol, exact = self.project.lookup(
                    qualify(dotted, fn, module)) if dotted else (None, False)
                own = dotted.partition(".")[0] in ("self", "cls")
                # a local is not a module global; self.x is not a use of self
                if symbol != module.modname and (exact or not own):
                    self._reach(symbol, owner=not own)
                if isinstance(node, ast.Attribute):
                    held.add(id(node.value))
                    if not exact:
                        self._name(node.attr)
                        if reads and isinstance(node.ctx, ast.Load):
                            self.reads.add(node.attr)
                if id(node) not in held and isinstance(node.ctx, ast.Load) \
                        and (exact or id(node) in handed):
                    self._escape(node, symbol if exact else None)
            elif isinstance(node, ast.Call):
                held.add(id(node.func))
                handed.update(id(arg.value if isinstance(arg, ast.Starred)
                                 else arg) for arg in node.args)
                handed.update(id(keyword.value) for keyword in node.keywords)
                self._record_sets(node, module, fn)
                self._record_binds(node, module, fn)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
                targets = getattr(node, "targets", None) or [node.target]
                if any(isinstance(target, ast.Name) and target.id in called
                       for target in targets):
                    handed.add(id(node.value))
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
        if dotted.rpartition(".")[2] in ("replace", "dict"):
            owner = "*"
        elif dotted == "cls" and fn is not None and fn.class_name:
            owner = fn.qualname.rpartition(".")[0]
        else:
            owner = self.project.lookup(qualify(dotted, fn, module))[0]
        if owner != "*" and owner not in self.fields:
            return
        self.sets.update((owner, keyword.arg) for keyword in node.keywords
                         if keyword.arg is not None)
        if owner != "*":
            starred = [i for i, arg in enumerate(node.args)
                       if isinstance(arg, ast.Starred)]
            self.sets.update((owner, name) for name in list(
                self.fields[owner])[:None if starred else len(node.args)])

    # -- parameter bindings --------------------------------------------------

    def _bind(self, qualname: str, names: Iterable[str]) -> None:
        self.binds.setdefault(qualname, set()).update(names)

    def _escape(self, node: ast.AST, symbol: Optional[str]) -> None:
        """A function or class used as a value: whoever calls it may pass
        anything."""
        if symbol is not None:
            if symbol in self.project.classes:
                symbol = self._method(symbol, "__init__")
            if symbol in self.project.functions:
                self._bind(symbol, ALL)
        elif isinstance(node, ast.Attribute):
            for qualname in self._by_name.get(node.attr, ()):
                self._bind(qualname, ALL)

    def _method(self, cls: str, name: str) -> Optional[str]:
        """``cls.name`` as the class's bases give it, depth first."""
        todo, seen = [cls], set()
        while todo:
            current = todo.pop(0)
            if f"{current}.{name}" in self.project.functions:
                return f"{current}.{name}"
            seen.add(current)
            todo[:0] = [b for b in self._bases.get(current, ())
                        if b not in seen]
        return None

    def _overrides(self, cls: str, name: str) -> list[str]:
        """``name`` as defined by every subclass of ``cls``."""
        found, todo = [], list(self._subclasses.get(cls, ()))
        while todo:
            sub = todo.pop()
            todo.extend(self._subclasses.get(sub, ()))
            if f"{sub}.{name}" in self.project.functions:
                found.append(f"{sub}.{name}")
        return found

    def _skip(self, qualname: str) -> int:
        """Parameters a call's positional arguments do not fill: ``self``
        / ``cls`` of a method, none of a function or static method."""
        info = self.project.functions[qualname]
        return int(info.class_name is not None and not info.nested
                   and not _decorated(info.node, "staticmethod"))

    def _callees(self, node: ast.Call, module: ModuleInfo,
                 fn: Optional[FunctionInfo]) -> list[tuple[str, int]]:
        """``(function, parameters to skip)`` for each definition ``node``
        may call."""
        func = node.func
        own_class = fn.qualname.rpartition(".")[0] \
            if fn is not None and fn.class_name is not None \
            and not fn.nested else None
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                          ast.Call) \
                and dotted_name(func.value.func) == "super":
            found = [method for method in (
                self._method(base, func.attr)
                for base in self._bases.get(own_class, ())) if method]
            return [(found[0], 1)] if found else []
        dotted = dotted_name(func)
        if dotted == "cls" and own_class is not None:
            symbol, exact = own_class, True
        else:
            symbol, exact = self.project.lookup(
                qualify(dotted, fn, module)) if dotted else (None, False)
        if exact and symbol in self.project.classes:
            init = self._method(symbol, "__init__")
            return [(init, 1)] if init else []
        if exact and symbol in self.project.functions:
            info = self.project.functions[symbol]
            if info.class_name is None or info.nested:
                return [(symbol, 0)]
            owner, _, name = symbol.rpartition(".")
            receiver = dotted.rpartition(".")[0]
            explicit = receiver not in ("self", "cls") and not _decorated(
                info.node, "classmethod")    # Class.method(instance, ...)
            return [(q, 0 if explicit else self._skip(q))
                    for q in [symbol] + self._overrides(owner, name)]
        if isinstance(func, ast.Attribute):
            return [(q, self._skip(q))
                    for q in self._by_name.get(func.attr, ())]
        return []

    def _record_binds(self, node: ast.Call, module: ModuleInfo,
                      fn: Optional[FunctionInfo]) -> None:
        callees = self._callees(node, module, fn)
        if not callees:
            return
        starred = [i for i, arg in enumerate(node.args)
                   if isinstance(arg, ast.Starred)]
        count = starred[0] if starred else len(node.args)
        names = {kw.arg for kw in node.keywords if kw.arg is not None}
        mappings = [kw.value for kw in node.keywords if kw.arg is None]
        own_kwargs = fn.node.args.kwarg.arg \
            if fn is not None and fn.node.args.kwarg is not None else None
        forwards = bool(mappings) and all(
            isinstance(value, ast.Name) and value.id == own_kwargs
            for value in mappings)
        if mappings and not forwards:
            names.add(ALL)
        for qualname, skip in callees:
            callee = self.project.functions[qualname].node
            args = callee.args
            positional = [a.arg for a in args.posonlyargs + args.args][skip:]
            self._bind(qualname, names.union(
                positional if starred else positional[:count]))
            if forwards:
                self._forwards.append((fn.qualname, qualname))
            # what this call surely binds: a *args or **mapping may not
            certain = names.union(positional[:count]) - {ALL}
            self.called.add(qualname)
            self.leaves.setdefault(qualname, set()).update(
                name for name in _defaulted(callee) if name not in certain)

    def unbound(self, qualname: str) -> list[str]:
        """The defaulted parameters of ``qualname`` no call binds."""
        bound = self.binds.get(qualname, set())
        if ALL in bound:
            return []
        return [name for name in _defaulted(self.project.functions[qualname]
                                           .node) if name not in bound]

    def dead_defaults(self, qualname: str) -> list[str]:
        """The defaulted parameters of ``qualname`` that every call seen
        passes: none if nothing calls it or it escapes."""
        if qualname not in self.called \
                or ALL in self.binds.get(qualname, set()):
            return []
        leaves = self.leaves.get(qualname, set())
        return [name for name in _defaulted(self.project.functions[qualname]
                                           .node) if name not in leaves]

    def is_set(self, qualname: str, field: str) -> bool:
        return (qualname, field) in self.sets or ("*", field) in self.sets


class UnreachableRule:
    """Report definitions no entry point reaches, and config fields and
    defaulted parameters no entry point sets.

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
        violations.extend(self._parameters(live, tested))
        violations.extend(self._dead_defaults(live, tested))
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
        """Per field of a reached settings class: nothing reads it.  Per
        class: the defaulted fields no entry point sets — one finding whose
        snippet is their names, so a new never-set field is a new
        finding."""
        found: list[Violation] = []
        for qualname, fields in sorted(live.fields.items()):
            if qualname not in live.reached:
                continue
            info = self.project.classes[qualname]
            name = info.node.name
            found.extend(
                self._violation(info.modname, f"{qualname}.{field}", line,
                                f"field {name}.{field} is read by no "
                                f"reachable code")
                for field, (line, _default) in fields.items()
                if field not in live.reads)
            unset = [field for field, (_line, defaulted) in fields.items()
                     if defaulted and not live.is_set(qualname, field)]
            if unset:
                shown = ", ".join(field + "*" * tested.is_set(qualname, field)
                                  for field in unset)
                found.append(self._violation(
                    info.modname, qualname, info.lineno,
                    f"settings class {name}: no entry point sets {shown} "
                    f"(*: tests do) — one value in use, make each a "
                    f"constant beside its reader", snippet=", ".join(unset)))
        return found

    def _parameters(self, live: _Closure,
                    tested: _Closure) -> list[Violation]:
        """Per reached function: the defaulted parameters no entry point
        passes — one finding whose snippet is their names."""
        found: list[Violation] = []
        for qualname, info in sorted(self.project.functions.items()):
            if info.nested or qualname not in live.reached:
                continue
            unbound = live.unbound(qualname)
            if unbound:
                tests = set(unbound) - set(tested.unbound(qualname))
                shown = ", ".join(name + "*" * (name in tests)
                                  for name in unbound)
                found.append(self._violation(
                    info.modname, qualname, info.lineno,
                    f"{qualname[len(info.modname) + 1:]}: no entry point "
                    f"passes {shown} (*: tests do) — one value in use, "
                    f"make each a constant beside its reader",
                    snippet=", ".join(unbound)))
        return found

    def _dead_defaults(self, live: _Closure,
                       tested: _Closure) -> list[Violation]:
        """Per reached function nothing hands out as a value: the defaulted
        parameters every call, from a root or a test, passes — one finding
        whose snippet is their names."""
        found: list[Violation] = []
        for qualname, info in sorted(self.project.functions.items()):
            if info.nested or qualname not in live.reached or (
                    _implicit(info.node) and info.node.name != "__init__"):
                continue
            dead = tested.dead_defaults(qualname)
            if dead:
                found.append(self._violation(
                    info.modname, qualname, info.lineno,
                    f"{qualname[len(info.modname) + 1:]}: every call passes "
                    f"{', '.join(dead)} — a default never used, make each "
                    f"required", snippet=", ".join(dead)))
        return found
