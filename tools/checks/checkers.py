"""The repo's invariant checkers.

Scoping notes (why each rule covers what it covers):

* **Wall-clock** is banned from all three consensus packages
  (``blockchain``, ``script``, ``crypto``): every timestamp there must
  come from the simulation clock or from block headers, or runs stop
  being reproducible.
* **Floats** are banned only from ``script`` and ``crypto`` — the
  layers whose values feed hashes and signatures, where float
  round-trips would be a consensus fault.  ``blockchain`` legitimately
  carries simulation-time floats (header timestamps, mining times) that
  never enter a hash preimage un-serialized.
* **Unordered-set iteration** is banned in all consensus packages:
  set order is insertion/hash dependent, so anything iterated into a
  serialization or hash must come from a list, tuple, or ``sorted()``.
"""

from __future__ import annotations

import ast
from typing import Optional

from tools.checks import Checker

__all__ = [
    "ALL_CHECKERS",
    "BareExceptChecker",
    "ConsensusWallClockChecker",
    "ConsensusFloatChecker",
    "UnorderedSetIterationChecker",
    "DeprecatedValidationImportChecker",
    "DeprecatedShimImportChecker",
    "AdHocTelemetryChecker",
    "MultiprocessingChecker",
]

_CONSENSUS_PACKAGES = (
    "src/repro/blockchain/", "src/repro/script/", "src/repro/crypto/",
)
_HASH_FEEDING_PACKAGES = ("src/repro/script/", "src/repro/crypto/")


def _in_any(path: str, prefixes: tuple[str, ...]) -> bool:
    return any(path.startswith(prefix) for prefix in prefixes)


def _dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for an attribute/name chain, '' for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


class BareExceptChecker(Checker):
    """``except:`` swallows everything, including ``ValidationError``."""

    rule = "bare-except"

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(node, "bare 'except:' — name the exception type")
        self.generic_visit(node)


class ConsensusWallClockChecker(Checker):
    """No wall-clock reads in consensus modules.

    Consensus code must draw time from the simulation clock or block
    headers; a ``time.time()`` call makes validation verdicts depend on
    the host's clock.
    """

    rule = "consensus-wall-clock"

    _BANNED = frozenset({
        "time.time", "time.monotonic", "time.perf_counter",
        "time.time_ns", "time.monotonic_ns", "time.perf_counter_ns",
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "date.today", "datetime.date.today",
    })

    @classmethod
    def applies_to(cls, path: str) -> bool:
        return _in_any(path, _CONSENSUS_PACKAGES)

    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted_name(node.func)
        if name in self._BANNED:
            self.report(node, f"wall-clock read '{name}()' in a consensus "
                              f"module — use the simulation clock")
        self.generic_visit(node)


class ConsensusFloatChecker(Checker):
    """No floats where values feed hashes or signatures.

    Applies to ``script`` and ``crypto`` only: a float that reaches a
    hash preimage or a key computation is a cross-platform consensus
    fault waiting to happen.  (``blockchain`` carries simulation-time
    floats by design and is exempt.)
    """

    rule = "consensus-float"

    @classmethod
    def applies_to(cls, path: str) -> bool:
        return _in_any(path, _HASH_FEEDING_PACKAGES)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, float):
            self.report(node, f"float literal {node.value!r} in a "
                              f"hash-feeding module — use integers")
        self.generic_visit(node)

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
    """No iterating unordered sets in consensus modules.

    Set iteration order is hash- and insertion-dependent; when the loop
    body feeds a serialization or digest, two nodes can disagree.  Wrap
    the set in ``sorted(...)`` (which this rule accepts) or keep a list.
    """

    rule = "unordered-set-iteration"

    @classmethod
    def applies_to(cls, path: str) -> bool:
        return _in_any(path, _CONSENSUS_PACKAGES)

    @staticmethod
    def _is_unordered(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False

    def _check_iter(self, iter_node: ast.AST) -> None:
        if self._is_unordered(iter_node):
            self.report(iter_node,
                        "iteration over an unordered set — wrap in "
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


class DeprecatedValidationImportChecker(Checker):
    """No imports of the removed ``validation.py`` free-function shims.

    The module has been deleted outright: the free functions built a
    throwaway engine per call, bypassing the shared script cache;
    everything in-repo goes through ``ValidationEngine``.  Any import
    would be a runtime ``ModuleNotFoundError``, so this rule hard-fails —
    no pragma, no baseline entry.
    """

    rule = "deprecated-validation"
    hard_fail = True

    _MODULE = "repro.blockchain.validation"

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == self._MODULE or \
                    alias.name.startswith(self._MODULE + "."):
                self.report(node, f"import of deprecated shim module "
                                  f"'{alias.name}' — use ValidationEngine")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == self._MODULE:
            self.report(node, f"import from deprecated shim module "
                              f"'{node.module}' — use ValidationEngine")
        elif node.module == "repro.blockchain" and any(
                alias.name == "validation" for alias in node.names):
            self.report(node, "import of deprecated shim module "
                              "'repro.blockchain.validation' — "
                              "use ValidationEngine")
        self.generic_visit(node)


class DeprecatedShimImportChecker(Checker):
    """No imports of the removed telemetry/stats shim modules.

    ``repro.core.metrics`` and ``repro.sim.trace`` were pure re-export
    stubs and have been deleted: the exchange tracker lives in
    :mod:`repro.obs.exchange`, the statistics helpers in
    :mod:`repro.obs.stats`, the recorder in :mod:`repro.obs.telemetry`.
    Any import would be a runtime ``ModuleNotFoundError``, so this rule
    hard-fails — no pragma, no baseline entry.
    """

    rule = "deprecated-shim"
    hard_fail = True

    # old module -> (parent package, attribute, replacement hint)
    _SHIMS = {
        "repro.core.metrics": ("repro.core", "metrics", "repro.obs.exchange"),
        "repro.sim.trace": ("repro.sim", "trace", "repro.obs.stats"),
    }

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            for module, (_, _, home) in self._SHIMS.items():
                if alias.name == module or \
                        alias.name.startswith(module + "."):
                    self.report(node, f"import of deprecated shim module "
                                      f"'{alias.name}' — use {home}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for module, (parent, attribute, home) in self._SHIMS.items():
            if node.module == module:
                self.report(node, f"import from deprecated shim module "
                                  f"'{node.module}' — use {home}")
            elif node.module == parent and any(
                    alias.name == attribute for alias in node.names):
                self.report(node, f"import of deprecated shim module "
                                  f"'{module}' — use {home}")
        self.generic_visit(node)


class AdHocTelemetryChecker(Checker):
    """Telemetry lives in ``repro.obs``, not in scattered counter bags.

    New ``*Stats`` / ``*Telemetry`` dataclasses outside the observability
    package fragment the metrics surface the registry consolidated; so
    does mutating another object's telemetry internals directly
    (``obj.telemetry.faults_injected[...] = ...`` or
    ``obj.fault_log.append(...)``) instead of going through
    ``record_fault`` / the registry instruments.  Layers that must keep a
    local dataclass for consensus-purity reasons carry an explicit
    ``# lint: allow(ad-hoc-telemetry)`` pragma and mirror their counters
    into the registry.
    """

    rule = "ad-hoc-telemetry"

    @classmethod
    def applies_to(cls, path: str) -> bool:
        return (path.startswith("src/repro/")
                and not path.startswith("src/repro/obs/"))

    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) \
                else decorator
            if _dotted_name(target).split(".")[-1] == "dataclass":
                return True
        return False

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if (node.name.endswith(("Stats", "Telemetry"))
                and self._is_dataclass(node)):
            self.report(node, f"ad-hoc telemetry dataclass '{node.name}' — "
                              f"back it with repro.obs.MetricsRegistry")
        self.generic_visit(node)

    @staticmethod
    def _subscripts_faults(target: ast.AST) -> bool:
        return (isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Attribute)
                and target.value.attr == "faults_injected")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if self._subscripts_faults(target):
                self.report(node, "direct faults_injected mutation — use "
                                  "ChaosTelemetry.record_fault()")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self._subscripts_faults(node.target):
            self.report(node, "direct faults_injected mutation — use "
                              "ChaosTelemetry.record_fault()")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "append"
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "fault_log"):
            self.report(node, "direct fault_log append — use "
                              "ChaosTelemetry.record_fault()")
        self.generic_visit(node)


class MultiprocessingChecker(Checker):
    """No ``multiprocessing`` import anywhere under ``src/repro``.

    A run is one deterministic process: every result is reproducible
    from the seed because nothing depends on worker scheduling, and a
    fan-out would silently break on platforms whose spawn method can't
    pickle the object graph.  Tests and benchmarks may orchestrate
    processes freely.
    """

    rule = "multiprocessing"

    _MODULE = "multiprocessing"

    @classmethod
    def applies_to(cls, path: str) -> bool:
        return path.startswith("src/repro/")

    def _check_module(self, node: ast.AST, name: Optional[str]) -> None:
        if name == self._MODULE or (name or "").startswith(self._MODULE + "."):
            self.report(node, f"'{name}' import under src/repro — the "
                              f"simulator is single-process")

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_module(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._check_module(node, node.module)
        self.generic_visit(node)


ALL_CHECKERS: tuple[type[Checker], ...] = (
    BareExceptChecker,
    ConsensusWallClockChecker,
    ConsensusFloatChecker,
    UnorderedSetIterationChecker,
    DeprecatedValidationImportChecker,
    DeprecatedShimImportChecker,
    AdHocTelemetryChecker,
    MultiprocessingChecker,
)
