"""Interprocedural taint: nondeterminism sources into determinism sinks.

The pass computes two summaries per function, to a fixpoint over the
call graph, then reports every site where they meet:

* **return taint** — whether a function's return value may derive from a
  nondeterminism source (wall-clock read, unseeded RNG, float
  arithmetic, unordered-set iteration, hash-randomized value), with the
  originating site and the call chain it travelled;
* **sink reachability** — which parameters of a function flow (possibly
  through further calls) into a determinism sink: a hash preimage, block
  connection / mempool admission, the BCWCP1 checkpoint codec, or the
  deterministic JSONL export.

A finding is emitted where a tainted expression is passed into a
sink-reaching position, carrying the full source → call chain → sink
path.  Taint kinds are filtered per sink family (`ALLOWED_KINDS`):
block timestamps are floats by design, so the float rule does not apply
to consensus sinks, and the trace export serialises sim-time floats on
purpose.

Precision notes (documented limitations, not bugs): taint is tracked
through local variables, call arguments, and return values — not through
object attributes (``self.t = time.time()`` then hashing ``self.t``
later is invisible here; :mod:`tools.analysis.perfile` still bans the read
itself in consensus packages), and not through container element flow.  Cleansers
encode the repo's doctrine: ``sorted()`` launders iteration order,
``int()``/``struct.pack()`` launder float representation (but nothing
launders a wall-clock or RNG *value*).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from tools.analysis.callgraph import CallGraph, ResolvedCall, resolve_call
from tools.analysis.project import FunctionInfo, Project
from tools.analysis.report import Violation, allowed, line_text

__all__ = [
    "KINDS", "ALLOWED_KINDS", "TaintAnalyzer",
    "WALL_CLOCK", "RANDOM", "FLOAT", "ITER_ORDER", "HASH_RANDOM",
]

WALL_CLOCK = "wall-clock"
RANDOM = "unseeded-random"
FLOAT = "float"
ITER_ORDER = "iteration-order"
HASH_RANDOM = "hash-random"
KINDS = (WALL_CLOCK, RANDOM, FLOAT, ITER_ORDER, HASH_RANDOM)

_RULE_PREFIX = "taint-"
_MAX_CHAIN = 8

_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.monotonic", "time.perf_counter", "time.time_ns",
    "time.monotonic_ns", "time.perf_counter_ns", "time.clock_gettime",
    "time.clock_gettime_ns", "datetime.now", "datetime.utcnow",
    "datetime.today", "date.today", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today",
})

_RANDOM_CALLS = frozenset({
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
    "random.SystemRandom",
})
_RANDOM_PREFIXES = ("secrets.",)
#: Module-level ``random.*`` draws share the process-global, unseeded
#: generator.  ``random.Random(seed)`` is fine; ``random.Random()`` is not.
_RANDOM_MODULE_FUNCS = frozenset({
    "random.random", "random.randint", "random.randrange", "random.choice",
    "random.choices", "random.shuffle", "random.sample", "random.uniform",
    "random.gauss", "random.normalvariate", "random.expovariate",
    "random.getrandbits", "random.randbytes", "random.betavariate",
    "random.triangular", "random.seed",
})

_HASH_RANDOM_CALLS = frozenset({"id", "hash"})

#: kind -> cleanser call targets that remove it from their argument.
_CLEANSERS: dict[str, frozenset[str]] = {
    ITER_ORDER: frozenset({"sorted", "len", "min", "max", "sum", "any",
                           "all", "frozenset", "set"}),
    FLOAT: frozenset({"int", "round", "len", "math.floor", "math.ceil",
                      "math.trunc", "struct.pack", "struct.Struct.pack"}),
}
_CLEANSER_ATTRS: dict[str, frozenset[str]] = {
    FLOAT: frozenset({"to_bytes", "pack"}),
}

#: Builtins whose result exposes the iteration order of a set argument.
_ORDER_EXPOSING_CALLS = frozenset({
    "list", "tuple", "bytes", "bytearray", "iter", "enumerate", "map",
    "filter", "reversed", "next",
})
_ORDER_EXPOSING_ATTRS = frozenset({"join", "extend", "update"})

# -- sink model ----------------------------------------------------------------

SINK_HASH = "hash"
SINK_CONSENSUS = "consensus"
SINK_CHECKPOINT = "checkpoint"
SINK_EXPORT = "export"

#: Which taint kinds are faults for each sink family.  Floats are
#: excluded where the repo carries sim-time floats by design.
ALLOWED_KINDS: dict[str, frozenset[str]] = {
    SINK_HASH: frozenset(KINDS),
    SINK_CONSENSUS: frozenset({WALL_CLOCK, RANDOM, ITER_ORDER, HASH_RANDOM}),
    SINK_CHECKPOINT: frozenset(KINDS),
    SINK_EXPORT: frozenset({WALL_CLOCK, RANDOM, ITER_ORDER, HASH_RANDOM}),
}

#: External callables that are sinks wherever they appear (or, with a
#: path prefix, only inside that subtree).
_EXTERNAL_SINKS: dict[str, tuple[str, Optional[str]]] = {
    "hashlib.sha256": (SINK_HASH, None),
    "hashlib.sha1": (SINK_HASH, None),
    "hashlib.sha512": (SINK_HASH, None),
    "hashlib.md5": (SINK_HASH, None),
    "hashlib.new": (SINK_HASH, None),
    "hashlib.blake2b": (SINK_HASH, None),
    "hashlib.blake2s": (SINK_HASH, None),
    "json.dumps": (SINK_EXPORT, "src/repro/obs/"),
}

#: Project functions that *are* sinks (every parameter is a preimage /
#: admitted value).  Wrappers above these are derived automatically.
_SEED_SINKS: dict[str, str] = {
    "repro.crypto.hashing.sha256": SINK_HASH,
    "repro.crypto.hashing.double_sha256": SINK_HASH,
    "repro.crypto.hashing.ripemd160": SINK_HASH,
    "repro.crypto.hashing.hash160": SINK_HASH,
    "repro.crypto.hashing.hmac_sha256": SINK_HASH,
    "repro.crypto.ripemd160.ripemd160": SINK_HASH,
    "repro.blockchain.checkpoint.build_checkpoint_payload": SINK_CHECKPOINT,
    "repro.blockchain.mempool.Mempool.accept": SINK_CONSENSUS,
    "repro.blockchain.engine.ValidationEngine.connect_block": SINK_CONSENSUS,
    "repro.obs.export.export_trace_jsonl": SINK_EXPORT,
}

#: Method-name sinks for calls whose receiver type resolution cannot see
#: (``node.engine.connect_block(...)``).  The receiver filter keeps the
#: generic names honest.
_ATTR_SINKS: tuple[tuple[str, Optional[str], str], ...] = (
    ("connect_block", None, SINK_CONSENSUS),
    ("accept", "mempool", SINK_CONSENSUS),
    ("sighash", None, SINK_HASH),
)


@dataclass(frozen=True)
class Origin:
    """Where a taint kind entered the program, plus its travel chain."""

    kind: str
    desc: str
    path: str
    line: int
    chain: tuple[str, ...] = ()


@dataclass(frozen=True)
class SinkReach:
    """A parameter (or argument position) that flows into a sink."""

    sink_kind: str
    desc: str
    chain: tuple[str, ...] = ()


TaintSet = dict[str, Origin]


def _merge(into: TaintSet, extra: TaintSet) -> TaintSet:
    for kind, origin in extra.items():
        into.setdefault(kind, origin)
    return into


def _own_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root`` without descending into nested function/class scopes."""
    stack = [root]
    first = True
    while stack:
        node = stack.pop()
        if not first and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        first = False
        yield node
        stack.extend(ast.iter_child_nodes(node))


@dataclass
class _Ctx:
    """Per-function scan state."""

    fn: FunctionInfo
    env: dict[str, TaintSet] = field(default_factory=dict)
    set_vars: set[str] = field(default_factory=set)
    returns: TaintSet = field(default_factory=dict)


class TaintAnalyzer:
    """The interprocedural pass; ``run()`` yields Violations."""

    def __init__(self, project: Project, graph: Optional[CallGraph] = None,
                 max_passes: int = 12) -> None:
        self.project = project
        self.graph = graph or CallGraph(project)
        self.max_passes = max_passes
        self.return_taint: dict[str, TaintSet] = {}
        self.sink_params: dict[str, dict[str, SinkReach]] = {}
        for qualname in _SEED_SINKS:
            fn = project.function(qualname)
            if fn is None:
                continue
            params = [p for p in fn.params if p not in ("self", "cls")]
            self.sink_params[qualname] = {
                param: SinkReach(
                    sink_kind=_SEED_SINKS[qualname],
                    desc=qualname.rpartition(".")[2] + "()",
                    chain=(f"{qualname} ({fn.path}:{fn.lineno})",))
                for param in params
            }

    # -- driver ---------------------------------------------------------------

    def run(self) -> list[Violation]:
        for _ in range(self.max_passes):
            changed = False
            for qualname, fn in self.project.functions.items():
                ctx = self._scan(fn)
                returns = dict(ctx.returns)
                if returns != self.return_taint.get(qualname, {}):
                    self.return_taint[qualname] = returns
                    changed = True
                reaches = self._param_reaches(fn, ctx)
                merged = dict(self.sink_params.get(qualname, {}))
                for param, reach in reaches.items():
                    merged.setdefault(param, reach)
                if merged != self.sink_params.get(qualname, {}):
                    self.sink_params[qualname] = merged
                    changed = True
            if not changed:
                break
        violations: list[Violation] = []
        for fn in self.project.functions.values():
            violations.extend(self._emit(fn, self._scan(fn)))
        return violations

    # -- intraprocedural scan -------------------------------------------------

    def _scan(self, fn: FunctionInfo) -> _Ctx:
        ctx = _Ctx(fn=fn)
        body = getattr(fn.node, "body", [])
        for _ in range(2):  # second pass settles loop-carried assignments
            self._exec_block(body, ctx)
        return ctx

    def _exec_block(self, stmts, ctx: _Ctx) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt, ctx)

    def _assign_names(self, target: ast.AST, taint: TaintSet,
                      ctx: _Ctx, setish: bool) -> None:
        if isinstance(target, ast.Name):
            ctx.env[target.id] = _merge(dict(ctx.env.get(target.id, {})),
                                        taint)
            if setish:
                ctx.set_vars.add(target.id)
            else:
                ctx.set_vars.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign_names(element, taint, ctx, setish=False)

    def _exec_stmt(self, stmt: ast.stmt, ctx: _Ctx) -> None:
        if isinstance(stmt, ast.Assign):
            taint = self._expr(stmt.value, ctx)
            setish = self._is_setish(stmt.value, ctx)
            for target in stmt.targets:
                self._assign_names(target, taint, ctx, setish)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign_names(stmt.target, self._expr(stmt.value, ctx),
                               ctx, self._is_setish(stmt.value, ctx))
        elif isinstance(stmt, ast.AugAssign):
            taint = self._expr(stmt.value, ctx)
            if isinstance(stmt.target, ast.Name):
                existing = dict(ctx.env.get(stmt.target.id, {}))
                ctx.env[stmt.target.id] = _merge(existing, taint)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                _merge(ctx.returns, self._expr(stmt.value, ctx))
        elif isinstance(stmt, ast.For):
            iter_taint = self._expr(stmt.iter, ctx)
            if self._is_setish(stmt.iter, ctx):
                iter_taint = _merge(dict(iter_taint), {
                    ITER_ORDER: self._origin(
                        ITER_ORDER, "iteration over an unordered set",
                        stmt.iter, ctx)})
            self._assign_names(stmt.target, iter_taint, ctx, setish=False)
            self._exec_block(stmt.body, ctx)
            self._exec_block(stmt.orelse, ctx)
        elif isinstance(stmt, ast.While):
            self._exec_block(stmt.body, ctx)
            self._exec_block(stmt.orelse, ctx)
        elif isinstance(stmt, ast.If):
            self._exec_block(stmt.body, ctx)
            self._exec_block(stmt.orelse, ctx)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                taint = self._expr(item.context_expr, ctx)
                if item.optional_vars is not None:
                    self._assign_names(item.optional_vars, taint, ctx,
                                       setish=False)
            self._exec_block(stmt.body, ctx)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body, ctx)
            for handler in stmt.handlers:
                self._exec_block(handler.body, ctx)
            self._exec_block(stmt.orelse, ctx)
            self._exec_block(stmt.finalbody, ctx)
        elif isinstance(stmt, ast.Expr):
            self._expr(stmt.value, ctx)

    # -- expression taint -----------------------------------------------------

    def _origin(self, kind: str, desc: str, node: ast.AST,
                ctx: _Ctx) -> Origin:
        line = getattr(node, "lineno", ctx.fn.lineno)
        short = ctx.fn.qualname.rpartition(".")[2]
        return Origin(kind=kind, desc=desc, path=ctx.fn.path, line=line,
                      chain=(f"{desc} ({ctx.fn.path}:{line} in {short})",))

    def _is_setish(self, node: ast.AST, ctx: _Ctx) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in ctx.set_vars
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return self._is_setish(node.left, ctx) \
                or self._is_setish(node.right, ctx)
        return False

    def _source_taint(self, call: ResolvedCall, ctx: _Ctx) -> TaintSet:
        target = call.target or ""
        taint: TaintSet = {}
        if target in _WALL_CLOCK_CALLS:
            taint[WALL_CLOCK] = self._origin(
                WALL_CLOCK, f"wall-clock read {target}()", call.node, ctx)
        elif target in _RANDOM_CALLS or target in _RANDOM_MODULE_FUNCS \
                or target.startswith(_RANDOM_PREFIXES):
            taint[RANDOM] = self._origin(
                RANDOM, f"unseeded randomness {target}()", call.node, ctx)
        elif target == "random.Random" and not call.node.args \
                and not call.node.keywords:
            taint[RANDOM] = self._origin(
                RANDOM, "random.Random() with no seed", call.node, ctx)
        elif target in _HASH_RANDOM_CALLS:
            taint[HASH_RANDOM] = self._origin(
                HASH_RANDOM, f"hash-randomized value {target}(...)",
                call.node, ctx)
        elif target == "float":
            taint[FLOAT] = self._origin(
                FLOAT, "float() conversion", call.node, ctx)
        return taint

    def _expr(self, node: Optional[ast.AST], ctx: _Ctx) -> TaintSet:
        if node is None:
            return {}
        if isinstance(node, ast.Name):
            return dict(ctx.env.get(node.id, {}))
        if isinstance(node, ast.Constant):
            if isinstance(node.value, float):
                return {FLOAT: self._origin(
                    FLOAT, f"float literal {node.value!r}", node, ctx)}
            return {}
        if isinstance(node, ast.Call):
            return self._call_taint(node, ctx)
        if isinstance(node, ast.BinOp):
            taint = _merge(self._expr(node.left, ctx),
                           self._expr(node.right, ctx))
            if isinstance(node.op, ast.Div):
                taint.setdefault(FLOAT, self._origin(
                    FLOAT, "true division (float result)", node, ctx))
            return taint
        if isinstance(node, ast.BoolOp):
            taint: TaintSet = {}
            for value in node.values:
                _merge(taint, self._expr(value, ctx))
            return taint
        if isinstance(node, ast.UnaryOp):
            return self._expr(node.operand, ctx)
        if isinstance(node, ast.Compare):
            taint = self._expr(node.left, ctx)
            for comparator in node.comparators:
                _merge(taint, self._expr(comparator, ctx))
            return taint
        if isinstance(node, ast.IfExp):
            return _merge(self._expr(node.body, ctx),
                          self._expr(node.orelse, ctx))
        if isinstance(node, ast.Attribute):
            return self._expr(node.value, ctx)
        if isinstance(node, ast.Subscript):
            return _merge(self._expr(node.value, ctx),
                          self._expr(node.slice, ctx))
        if isinstance(node, ast.Starred):
            return self._expr(node.value, ctx)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            taint = {}
            for element in node.elts:
                _merge(taint, self._expr(element, ctx))
            return taint
        if isinstance(node, ast.Dict):
            taint = {}
            for key in node.keys:
                _merge(taint, self._expr(key, ctx))
            for value in node.values:
                _merge(taint, self._expr(value, ctx))
            return taint
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            taint = {}
            for comp in node.generators:
                _merge(taint, self._expr(comp.iter, ctx))
                if self._is_setish(comp.iter, ctx):
                    taint.setdefault(ITER_ORDER, self._origin(
                        ITER_ORDER, "comprehension over an unordered set",
                        comp.iter, ctx))
            if isinstance(node, ast.DictComp):
                _merge(taint, self._expr(node.key, ctx))
                _merge(taint, self._expr(node.value, ctx))
            else:
                _merge(taint, self._expr(node.elt, ctx))
            return taint
        if isinstance(node, ast.JoinedStr):
            taint = {}
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    _merge(taint, self._expr(value.value, ctx))
            return taint
        if isinstance(node, ast.Lambda):
            return {}
        return {}

    def _call_taint(self, node: ast.Call, ctx: _Ctx) -> TaintSet:
        call = self._resolve(node, ctx)
        target = call.target or ""
        arg_taint: TaintSet = {}
        for arg in node.args:
            _merge(arg_taint, self._expr(arg, ctx))
        for keyword in node.keywords:
            _merge(arg_taint, self._expr(keyword.value, ctx))

        # Cleansers drop their kind from the argument taint.
        for kind, cleansers in _CLEANSERS.items():
            if target in cleansers:
                arg_taint.pop(kind, None)
        if call.attr is not None:
            for kind, attrs in _CLEANSER_ATTRS.items():
                if call.attr in attrs:
                    arg_taint.pop(kind, None)
                    # .to_bytes / struct.Struct.pack also launder the
                    # receiver's float representation.
                    receiver_taint = self._expr(node.func.value, ctx) \
                        if isinstance(node.func, ast.Attribute) else {}
                    receiver_taint.pop(kind, None)
                    _merge(arg_taint, receiver_taint)

        taint = dict(arg_taint)

        # Iteration-order exposure: list(set_x), "".join(set_x), ...
        exposes = (target in _ORDER_EXPOSING_CALLS
                   or (call.attr in _ORDER_EXPOSING_ATTRS))
        if exposes:
            for arg in node.args:
                if self._is_setish(arg, ctx):
                    taint.setdefault(ITER_ORDER, self._origin(
                        ITER_ORDER,
                        "unordered set order exposed by "
                        f"{target or call.attr}()", node, ctx))

        # Receiver taint propagates through method calls (rng.random()).
        if isinstance(node.func, ast.Attribute):
            _merge(taint, self._expr(node.func.value, ctx))

        _merge(taint, self._source_taint(call, ctx))

        # Internal calls contribute the callee's return taint.
        if call.internal and call.target:
            callee = self.project.function(call.target)
            summary = self.return_taint.get(call.target, {})
            for kind, origin in summary.items():
                if kind in taint:
                    continue
                if callee is not None and len(origin.chain) < _MAX_CHAIN:
                    hop = (f"returned by "
                           f"{call.target.rpartition('.')[2]} "
                           f"({ctx.fn.path}:{node.lineno} in "
                           f"{ctx.fn.qualname.rpartition('.')[2]})")
                    origin = replace(origin, chain=origin.chain + (hop,))
                taint[kind] = origin
        return taint

    # -- sinks ----------------------------------------------------------------

    def _resolve(self, node: ast.Call, ctx: _Ctx) -> ResolvedCall:
        module = self.project.module_for(ctx.fn)
        return resolve_call(node, ctx.fn, module, self.project)

    def _sink_reaches(self, call: ResolvedCall,
                      ctx: _Ctx) -> list[tuple[ast.AST, SinkReach]]:
        """(argument expression, sink reach) pairs for one call site."""
        node = call.node
        target = call.target or ""
        path = ctx.fn.path
        reaches: list[tuple[ast.AST, SinkReach]] = []

        def all_args() -> list[ast.AST]:
            return list(node.args) + [kw.value for kw in node.keywords]

        if target in _EXTERNAL_SINKS:
            sink_kind, scope = _EXTERNAL_SINKS[target]
            if scope is None or path.startswith(scope):
                reach = SinkReach(sink_kind=sink_kind, desc=f"{target}()",
                                  chain=(f"{target}() ({path}:{node.lineno})",))
                reaches.extend((arg, reach) for arg in all_args())

        if call.internal and call.target in self.sink_params:
            callee = self.project.function(call.target)
            params = self.sink_params[call.target]
            if callee is not None:
                names = list(callee.params)
                if names and names[0] in ("self", "cls") \
                        and call.attr is not None:
                    names = names[1:]
                for index, arg in enumerate(node.args):
                    if index < len(names) and names[index] in params:
                        reach = params[names[index]]
                        if len(reach.chain) < _MAX_CHAIN:
                            hop = (f"{call.target.rpartition('.')[2]}() "
                                   f"({path}:{node.lineno})")
                            reach = replace(reach,
                                            chain=(hop,) + reach.chain)
                        reaches.append((arg, reach))
                for keyword in node.keywords:
                    if keyword.arg in params:
                        reach = params[keyword.arg]
                        if len(reach.chain) < _MAX_CHAIN:
                            hop = (f"{call.target.rpartition('.')[2]}() "
                                   f"({path}:{node.lineno})")
                            reach = replace(reach,
                                            chain=(hop,) + reach.chain)
                        reaches.append((keyword.value, reach))
        elif call.attr is not None and not call.internal:
            for attr, receiver_hint, sink_kind in _ATTR_SINKS:
                if call.attr != attr:
                    continue
                if receiver_hint is not None \
                        and receiver_hint not in call.receiver.lower():
                    continue
                reach = SinkReach(
                    sink_kind=sink_kind, desc=f".{attr}()",
                    chain=(f".{attr}() ({path}:{node.lineno})",))
                reaches.extend((arg, reach) for arg in all_args())
                break
        return reaches

    def _param_reaches(self, fn: FunctionInfo,
                       ctx: _Ctx) -> dict[str, SinkReach]:
        params = set(fn.params) - {"self", "cls"}
        if not params:
            return {}
        out: dict[str, SinkReach] = {}
        for node in _own_nodes(fn.node):
            if not isinstance(node, ast.Call):
                continue
            call = self._resolve(node, ctx)
            for arg_expr, reach in self._sink_reaches(call, ctx):
                for name_node in ast.walk(arg_expr):
                    if isinstance(name_node, ast.Name) \
                            and name_node.id in params:
                        out.setdefault(name_node.id, reach)
        return out

    # -- findings -------------------------------------------------------------

    def _emit(self, fn: FunctionInfo, ctx: _Ctx) -> list[Violation]:
        module = self.project.module_for(fn)
        violations: list[Violation] = []
        seen: set[tuple[str, int, str, str]] = set()
        for node in _own_nodes(fn.node):
            if not isinstance(node, ast.Call):
                continue
            call = self._resolve(node, ctx)
            for arg_expr, reach in self._sink_reaches(call, ctx):
                taint = self._expr(arg_expr, ctx)
                for kind, origin in taint.items():
                    if kind not in ALLOWED_KINDS[reach.sink_kind]:
                        continue
                    rule = _RULE_PREFIX + kind
                    key = (rule, node.lineno, reach.sink_kind, origin.desc)
                    if key in seen:
                        continue
                    seen.add(key)
                    if allowed(module.source_lines, node.lineno, rule) \
                            or self._suppressed_at(origin, rule):
                        continue
                    trace = origin.chain + reach.chain
                    message = (f"{kind} value reaches {reach.sink_kind} "
                               f"sink {reach.desc}: "
                               + " -> ".join(trace))
                    violations.append(Violation(
                        path=fn.path, line=node.lineno, rule=rule,
                        message=message, qualname=fn.qualname,
                        snippet=line_text(module.source_lines, node.lineno),
                        trace=trace))
        return violations

    def _suppressed_at(self, origin: Origin, rule: str) -> bool:
        return self.project.line_has_pragma(origin.path, origin.line, rule)
