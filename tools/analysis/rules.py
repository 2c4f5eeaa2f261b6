"""Whole-program structural rules the call graph makes possible.

* ``exception-flow`` — an ``except Exception:`` (or broader) handler
  that can swallow a consensus error.  The pass computes, bottom-up over
  the call graph, which functions may raise :class:`ValidationError` /
  :class:`ProtocolError` / :class:`BcWANError`; a broad handler whose
  try-body reaches one of them and that never re-raises turns a
  consensus fault into silence — exactly the divergence class the
  per-file ``bare-except`` rule cannot see across calls.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from tools.analysis.callgraph import CallGraph, resolve_call, resolve_name
from tools.analysis.project import FunctionInfo, Project, dotted_name
from tools.analysis.report import Violation, allowed, line_text
from tools.analysis.taint import _own_nodes

__all__ = ["ExceptionFlowRule"]

_CONSENSUS_ERRORS = frozenset({
    "ValidationError", "ProtocolError", "BcWANError",
})
_BROAD_HANDLERS = frozenset({"Exception", "BaseException"})

EXCEPTION_FLOW_RULE = "exception-flow"


@dataclass(frozen=True)
class _RaiseInfo:
    """Why a function may raise a consensus error (first site found)."""

    error: str
    chain: tuple[str, ...]


def _terminal_name(node: ast.AST) -> str:
    """Last identifier of a name/attribute/call expression."""
    if isinstance(node, ast.Call):
        node = node.func
    dotted = dotted_name(node)
    return dotted.rpartition(".")[2]


class ExceptionFlowRule:
    """Flag broad handlers that can swallow consensus errors."""

    rule = EXCEPTION_FLOW_RULE

    def __init__(self, project: Project, graph: Optional[CallGraph] = None,
                 max_passes: int = 12) -> None:
        self.project = project
        self.graph = graph or CallGraph(project)
        self.max_passes = max_passes
        self.may_raise: dict[str, _RaiseInfo] = {}

    def _direct_raise(self, fn: FunctionInfo) -> Optional[_RaiseInfo]:
        for node in _own_nodes(fn.node):
            if isinstance(node, ast.Raise) and node.exc is not None:
                name = _terminal_name(node.exc)
                if name in _CONSENSUS_ERRORS:
                    return _RaiseInfo(
                        error=name,
                        chain=(f"raise {name} "
                               f"({fn.path}:{node.lineno} in "
                               f"{fn.qualname.rpartition('.')[2]})",))
        return None

    def _compute_summaries(self) -> None:
        for qualname, fn in self.project.functions.items():
            info = self._direct_raise(fn)
            if info is not None:
                self.may_raise[qualname] = info
        for _ in range(self.max_passes):
            changed = False
            for qualname, fn in self.project.functions.items():
                if qualname in self.may_raise:
                    continue
                for call in self.graph.calls_from(qualname):
                    if not call.internal or call.target not in self.may_raise:
                        continue
                    # A call inside a try that already handles the error
                    # family does not propagate it out of this function.
                    if self._call_is_guarded(fn, call.node):
                        continue
                    inner = self.may_raise[call.target]
                    if len(inner.chain) >= 8:
                        chain = inner.chain
                    else:
                        chain = ((f"{call.target.rpartition('.')[2]}() "
                                  f"({fn.path}:{call.node.lineno} in "
                                  f"{fn.qualname.rpartition('.')[2]})",)
                                 + inner.chain)
                    self.may_raise[qualname] = _RaiseInfo(
                        error=inner.error, chain=chain)
                    changed = True
                    break
            if not changed:
                break

    @staticmethod
    def _handler_names(handler: ast.ExceptHandler) -> list[str]:
        if handler.type is None:
            return []
        nodes = handler.type.elts \
            if isinstance(handler.type, ast.Tuple) else [handler.type]
        return [_terminal_name(node) for node in nodes]

    def _call_is_guarded(self, fn: FunctionInfo, call: ast.Call) -> bool:
        """Whether ``call`` sits in a try whose handlers catch the family."""
        for node in _own_nodes(fn.node):
            if not isinstance(node, ast.Try):
                continue
            covers = any(call is inner for stmt in node.body
                         for inner in ast.walk(stmt))
            if not covers:
                continue
            for handler in node.handlers:
                names = self._handler_names(handler)
                if handler.type is None \
                        or set(names) & (_CONSENSUS_ERRORS | _BROAD_HANDLERS):
                    return True
        return False

    def run(self) -> list[Violation]:
        self._compute_summaries()
        violations: list[Violation] = []
        for qualname, fn in self.project.functions.items():
            if not fn.path.startswith("src/repro/"):
                continue
            module = self.project.module_for(fn)
            for node in _own_nodes(fn.node):
                if not isinstance(node, ast.Try):
                    continue
                for handler in node.handlers:
                    names = self._handler_names(handler)
                    if not set(names) & _BROAD_HANDLERS:
                        continue
                    if any(isinstance(inner, ast.Raise)
                           for stmt in handler.body
                           for inner in ast.walk(stmt)):
                        continue  # the handler re-raises; nothing swallowed
                    reached = self._reachable_raise(node, fn)
                    if reached is None:
                        continue
                    line = handler.lineno
                    if allowed(module.source_lines, line, self.rule):
                        continue
                    snippet = line_text(module.source_lines, line)
                    violations.append(Violation(
                        path=fn.path, line=line, rule=self.rule,
                        message=(f"'except {'/'.join(names)}' can swallow "
                                 f"{reached.error}: "
                                 + " -> ".join(reached.chain)),
                        qualname=fn.qualname, snippet=snippet,
                        trace=reached.chain))
        return violations

    def _argument_callables(self, node: ast.Call,
                            fn: FunctionInfo) -> list[str]:
        """Internal functions passed *as arguments* (higher-order calls).

        ``pool.map(run_batch, chunks)`` never calls ``run_batch``
        syntactically, but whatever it raises in a worker re-raises at
        the ``map`` call site — so for exception flow, a callable
        argument counts as a call.
        """
        module = self.project.module_for(fn)
        targets: list[str] = []
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            dotted = dotted_name(arg)
            if dotted:
                target, internal = resolve_name(dotted, fn, module,
                                                self.project)
                if internal:
                    targets.append(target)
        return targets

    def _reachable_raise(self, try_node: ast.Try,
                         fn: FunctionInfo) -> Optional[_RaiseInfo]:
        """First consensus raise reachable from the try body, if any."""
        for stmt in try_node.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    name = _terminal_name(node.exc)
                    if name in _CONSENSUS_ERRORS:
                        return _RaiseInfo(
                            error=name,
                            chain=(f"raise {name} "
                                   f"({fn.path}:{node.lineno})",))
                if isinstance(node, ast.Call):
                    module = self.project.module_for(fn)
                    call = resolve_call(node, fn, module, self.project)
                    candidates: list[str] = []
                    if call.internal and call.target:
                        candidates.append(call.target)
                    candidates.extend(self._argument_callables(node, fn))
                    for target in candidates:
                        if target not in self.may_raise:
                            continue
                        inner = self.may_raise[target]
                        chain = ((f"{target.rpartition('.')[2]}() "
                                  f"({fn.path}:{node.lineno})",)
                                 + inner.chain)
                        return _RaiseInfo(error=inner.error, chain=chain)
        return None
