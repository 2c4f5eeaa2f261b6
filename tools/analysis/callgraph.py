"""Best-effort call resolution and the project call graph.

Resolution is purely syntactic, layered from most to least specific:

1. ``self.method()`` / ``cls.method()`` inside a class resolves to the
   method on that class, when it exists;
2. names the module imported resolve through the import map, package
   re-exports followed — either to a project function (**internal**
   edge) or to a fully-qualified external name (``time.time``,
   ``hashlib.sha256``);
3. bare names resolve to module-level functions of the same module, and
   ``ClassName.method`` to methods of locally defined or imported
   classes;
4. anything else (calls on arbitrary objects, subscripts, call results)
   keeps only its terminal attribute name — enough for the
   attribute-pattern sinks (``*.connect_block(...)``) and for receiver
   taint propagation, and honest about what static analysis can know.

An unresolved call is *not* an error: the taint pass treats it
conservatively (argument and receiver taint flow to the result).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from tools.analysis.project import FunctionInfo, ModuleInfo, Project, \
    dotted_name

__all__ = ["ResolvedCall", "CallGraph", "qualify", "resolve_call",
           "resolve_name"]


@dataclass
class ResolvedCall:
    """One call site with everything resolution could determine."""

    node: ast.Call
    dotted: str                    # "self.accept", "hashing.sha256", "" if none
    attr: Optional[str]            # terminal attribute name, if any
    receiver: str                  # dotted receiver text ("self.mempool"), or ""
    target: Optional[str] = None   # resolved qualified name
    internal: bool = False         # target is a project function


def qualify(dotted: str, function: Optional[FunctionInfo],
            module: ModuleInfo) -> str:
    """The qualified name ``dotted`` would denote inside ``function``
    (or at module scope), before anyone checks that it exists."""
    head, _, rest = dotted.partition(".")
    # self.method / cls.method -> method on the enclosing class.
    if head in ("self", "cls") and function is not None \
            and function.class_name is not None and rest:
        return f"{function.modname}.{function.class_name}.{rest}"
    # Imported name (module or symbol).
    if head in module.imports:
        return module.imports[head] + (f".{rest}" if rest else "")
    # Module-local function, or method on a locally defined class.
    return f"{module.modname}.{dotted}"


def resolve_name(dotted: str, function: Optional[FunctionInfo],
                 module: ModuleInfo, project: Project
                 ) -> tuple[Optional[str], bool]:
    """``(qualified target, whether it is a project function)``."""
    candidate = qualify(dotted, function, module)
    symbol, exact = project.lookup(candidate)
    if exact and symbol in project.functions:
        return symbol, True
    if dotted.partition(".")[0] in module.imports:
        return candidate, False
    # Bare builtin / unknown global: keep the text as the target so
    # source matchers can see e.g. "id", "hash", "float".
    return (dotted if "." not in dotted else None), False


def resolve_call(node: ast.Call, function: Optional[FunctionInfo],
                 module: ModuleInfo, project: Project) -> ResolvedCall:
    """Resolve one ``Call`` node inside ``function`` (or module scope)."""
    dotted = dotted_name(node.func)
    attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
    receiver = dotted_name(node.func.value) \
        if isinstance(node.func, ast.Attribute) else ""
    resolved = ResolvedCall(node=node, dotted=dotted, attr=attr,
                            receiver=receiver)
    if dotted:
        resolved.target, resolved.internal = resolve_name(
            dotted, function, module, project)
    return resolved


@dataclass
class CallSite:
    caller: str          # qualified name of the calling function
    resolved: ResolvedCall


class CallGraph:
    """Call sites per function, with internal edges indexed both ways."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.sites: dict[str, list[ResolvedCall]] = {}
        self.callers: dict[str, list[CallSite]] = {}
        for qualname, function in project.functions.items():
            module = project.module_for(function)
            calls: list[ResolvedCall] = []
            for node in ast.walk(function.node):
                if isinstance(node, ast.Call):
                    calls.append(resolve_call(node, function, module, project))
            self.sites[qualname] = calls
            for call in calls:
                if call.internal and call.target:
                    self.callers.setdefault(call.target, []).append(
                        CallSite(caller=qualname, resolved=call))

    def calls_from(self, qualname: str) -> list[ResolvedCall]:
        return self.sites.get(qualname, [])

    def calls_to(self, qualname: str) -> list[CallSite]:
        return self.callers.get(qualname, [])
