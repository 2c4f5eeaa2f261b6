"""The per-file rules: invariants one module's AST can decide.

Each rule is an :class:`ast.NodeVisitor` subclass; :func:`check_source`
applies every rule whose :meth:`Checker.applies_to` accepts the file.
Scoping notes (why each rule covers what it covers):

* **Wall-clock** reads are banned from all three consensus packages
  (``blockchain``, ``script``, ``crypto``): every timestamp there must
  come from the simulation clock or from block headers, or runs stop
  being reproducible.
* **Floats** are banned only from ``script`` and ``crypto`` — the
  layers whose values feed hashes and signatures.  ``blockchain``
  legitimately carries simulation-time floats (header timestamps,
  mining times) that never enter a hash preimage un-serialized.
* **Unordered-set iteration** is banned in all consensus packages:
  set order is insertion/hash dependent, so anything iterated into a
  serialization or hash must come from a list, tuple, or ``sorted()``.

These three ban the *construct* where the whole-program taint pass
follows the *value*: taint does not flow through object attributes or
into ``hasher.update(...)``, so a clock read parked on ``self`` and
hashed by another method is caught here and only here
(``tests/tools/fixtures/attrflow.py`` pins one such case per rule).

A finding on a line carrying ``# lint: allow(<rule>)`` is suppressed —
the escape hatch for intentional exceptions, and the inventory of them.
"""

from __future__ import annotations

import ast
from dataclasses import replace
from typing import Optional, Sequence

from tools.analysis.project import dotted_name
from tools.analysis.report import Violation, allowed, line_text

__all__ = ["ALL_CHECKERS", "Checker", "check_source"]

_CONSENSUS_PACKAGES = (
    "src/repro/blockchain/", "src/repro/script/", "src/repro/crypto/",
)
_HASH_FEEDING_PACKAGES = ("src/repro/script/", "src/repro/crypto/")


class Checker(ast.NodeVisitor):
    """Base class for one per-file rule.

    Subclasses set :attr:`rule` (the name used in pragmas and output)
    and :attr:`scope` (path prefixes the rule covers; empty = every
    file), override ``visit_*`` methods, and call :meth:`report`.
    """

    rule: str = "abstract"
    scope: tuple[str, ...] = ()

    def __init__(self, path: str, source_lines: Sequence[str]) -> None:
        self.path = path
        self.source_lines = source_lines
        self.violations: list[Violation] = []

    @classmethod
    def applies_to(cls, path: str) -> bool:
        """Whether this rule covers ``path`` (posix-style, repo-relative)."""
        return not cls.scope or path.startswith(cls.scope)

    def report(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        if not allowed(self.source_lines, line, self.rule):
            self.violations.append(Violation(
                path=self.path, line=line, rule=self.rule, message=message))


class BareExceptChecker(Checker):
    """``except:`` swallows everything, including ``ValidationError``."""

    rule = "bare-except"

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(node, "bare 'except:' — name the exception type")
        self.generic_visit(node)


class ConsensusWallClockChecker(Checker):
    """No wall-clock reads in consensus modules."""

    rule = "consensus-wall-clock"
    scope = _CONSENSUS_PACKAGES

    _BANNED = frozenset({
        "time.time", "time.monotonic", "time.perf_counter",
        "time.time_ns", "time.monotonic_ns", "time.perf_counter_ns",
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "date.today", "datetime.date.today",
    })

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name in self._BANNED:
            self.report(node, f"wall-clock read '{name}()' in a consensus "
                              f"module — use the simulation clock")
        self.generic_visit(node)


class ConsensusFloatChecker(Checker):
    """No floats where values feed hashes or signatures."""

    rule = "consensus-float"
    scope = _HASH_FEEDING_PACKAGES

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, float):
            self.report(node, f"float literal {node.value!r} in a "
                              f"hash-feeding module — use integers")

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "float":
            self.report(node, "float() conversion in a hash-feeding module")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.annotation, ast.Name) and \
                node.annotation.id == "float":
            self.report(node, "float-typed field in a hash-feeding module")
        self.generic_visit(node)


class UnorderedSetIterationChecker(Checker):
    """No iterating unordered sets in consensus modules; ``sorted(...)``
    around the set is accepted."""

    rule = "unordered-set-iteration"
    scope = _CONSENSUS_PACKAGES

    def _check_iter(self, node: ast.AST) -> None:
        if isinstance(node, (ast.Set, ast.SetComp)) or (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")):
            self.report(node, "iteration over an unordered set — wrap in "
                              "sorted() or use an ordered container")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehensions(self, node) -> None:
        for comp in node.generators:
            self._check_iter(comp.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehensions
    visit_SetComp = _visit_comprehensions
    visit_DictComp = _visit_comprehensions
    visit_GeneratorExp = _visit_comprehensions


class MultiprocessingChecker(Checker):
    """No ``multiprocessing`` import anywhere under ``src/repro``.

    A run is one deterministic process: every result is reproducible
    from the seed because nothing depends on worker scheduling.  Tests
    and benchmarks may orchestrate processes freely.
    """

    rule = "multiprocessing"
    scope = ("src/repro/",)

    def _check_module(self, node: ast.AST, name: Optional[str]) -> None:
        if (name or "").partition(".")[0] == "multiprocessing":
            self.report(node, f"'{name}' import under src/repro — the "
                              f"simulator is single-process")

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_module(node, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._check_module(node, node.module)


ALL_CHECKERS: tuple[type[Checker], ...] = (
    BareExceptChecker,
    ConsensusWallClockChecker,
    ConsensusFloatChecker,
    UnorderedSetIterationChecker,
    MultiprocessingChecker,
)


def _qualname_at(tree: ast.Module, line: int) -> str:
    """Dotted name of the innermost function/class spanning ``line``."""
    best, scope = "", tree
    while scope is not None:
        inner = None
        for child in ast.walk(scope):
            if child is not scope and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.ClassDef)) \
                    and child.lineno <= line <= (child.end_lineno
                                                 or child.lineno):
                inner = child
                break
        if inner is not None:
            best = f"{best}.{inner.name}" if best else inner.name
        scope = inner
    return best


def check_source(source: str, path: str,
                 checker_classes: Sequence[type[Checker]] = ALL_CHECKERS
                 ) -> list[Violation]:
    """Run every applicable checker over one module's source text."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation(path=path, line=exc.lineno or 1, rule="syntax",
                          message=f"file does not parse: {exc.msg}")]
    lines = source.splitlines()
    violations: list[Violation] = []
    for checker_class in checker_classes:
        if checker_class.applies_to(path):
            checker = checker_class(path, lines)
            checker.visit(tree)
            violations.extend(checker.violations)
    return [replace(violation,
                    snippet=line_text(lines, violation.line),
                    qualname=_qualname_at(tree, violation.line))
            for violation in violations]
