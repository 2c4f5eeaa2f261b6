"""Host-time spans recorded from outside ``src/repro``.

A :class:`Recorder` rebinds public callables of the program with wrappers
that record one span per call — name, start_ns, end_ns, parent, count,
extra — in memory (:class:`Spans`).  Three mechanisms, all through public names:

* **calls** (:data:`CALLS`): a function or method is replaced by a timing
  wrapper, on its class or on every loaded ``repro.*`` module that holds
  the original object (callers use ``from ... import``);
* **generators**: ``Simulator.process`` receives a proxy that times every
  ``send``/``throw`` step of the process body;
* **callbacks** (:data:`REGISTRARS`): the public registration methods
  (``WANetwork.register``, ``BlockchainDaemon.register_protocol``,
  ``SpvClient.register_handler``, ``LoRaRadio.on_receive``,
  ``Simulator.call_at`` / ``call_in``) receive a timed callback.

Generators and callbacks are named after the module that defines them
(:data:`MODULE_SPANS`), so private loops and handlers are attributed to
their layer without the benchmark naming them.  The program is
single-threaded, so spans nest properly and a span's parent is the span
open when it began.  :meth:`Recorder.restore` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Optional

__all__ = ["Recorder", "Spans", "self_times", "layer_table", "inclusive_under",
           "CALLS", "REGISTRARS", "MODULE_SPANS"]

# -- what a result tells about the call ---------------------------------------

def _per_item(spans: "Spans", span: int, args: tuple, result: Any) -> None:
    """``verify_batch(items)``: one verification per item."""
    spans.count[span] = len(args[0])


def _rejected(spans: "Spans", span: int, args: tuple, result: Any) -> None:
    """``Mempool.accept``: count refused transactions."""
    if not result.accepted:
        spans.extra[span] = 1


def _reorg(spans: "Spans", span: int, args: tuple, result: Any) -> None:
    """``Chain.add_block``: a call that reorganised is a reorg span.

    ``Chain.add_blocks`` needs no such hook: a batch either extends the tip
    (no reorganisation) or goes through ``add_block`` block by block.
    """
    if result.reorged:
        spans.name[span] = "blockchain.reorg"
        spans.extra[span] = len(result.disconnected)


# (span name, targets "module:function" / "module:Class.method", after-hook)
CALLS: tuple[tuple[str, tuple[str, ...], Optional[Callable]], ...] = (
    ("crypto.ecdsa_verify", (
        "repro.crypto.ecdsa:PublicKey.verify",), None),
    ("crypto.ecdsa_verify", (
        "repro.crypto.ecdsa:verify_batch",), _per_item),
    ("crypto.ecdsa_sign", (
        "repro.crypto.ecdsa:PrivateKey.sign",), None),
    ("crypto.rsa_keygen", (
        "repro.crypto.rsa:generate_keypair",), None),
    ("crypto.rsa_ops", (
        "repro.crypto.rsa:RSAPublicKey.encrypt",
        "repro.crypto.rsa:RSAPublicKey.verify",
        "repro.crypto.rsa:RSAPrivateKey.decrypt",
        "repro.crypto.rsa:RSAPrivateKey.sign",
        "repro.crypto.rsa:RSAPrivateKey.matches"), None),
    ("crypto.hash160", (
        "repro.crypto.hashing:hash160",), None),
    ("crypto.aes", (
        "repro.crypto.modes:encrypt_cbc",
        "repro.crypto.modes:decrypt_cbc"), None),
    ("script.verify", (
        "repro.script.interpreter:ScriptInterpreter.verify",), None),
    ("script.analysis", (
        "repro.script.analysis:analyze",
        "repro.script.analysis:StandardnessPolicy.check_transaction",
        "repro.script.analysis:StandardnessPolicy.precheck_spend"), None),
    ("blockchain.mempool_accept", (
        "repro.blockchain.mempool:Mempool.accept",), _rejected),
    ("blockchain.connect", (
        "repro.blockchain.chain:Chain.add_block",), _reorg),
    ("blockchain.connect", (
        "repro.blockchain.chain:Chain.add_blocks",), None),
    ("blockchain.mine", (
        "repro.blockchain.miner:Miner.mine",
        "repro.blockchain.miner:Miner.mine_and_connect"), None),
    ("blockchain.wallet_build", (
        "repro.blockchain.wallet:Wallet.create_payment",
        "repro.blockchain.wallet:Wallet.create_fanout",
        "repro.blockchain.wallet:Wallet.create_announcement",
        "repro.blockchain.wallet:Wallet.create_key_release_offer",
        "repro.blockchain.wallet:Wallet.claim_key_release",
        "repro.blockchain.wallet:Wallet.refund_key_release"), None),
    ("blockchain.checkpoint", (
        "repro.blockchain.checkpoint:build_checkpoint_payload",
        "repro.blockchain.checkpoint:latest_checkpoints",
        "repro.blockchain.checkpoint:settlement_proof",
        "repro.blockchain.checkpoint:CheckpointRules.check",
        "repro.blockchain.checkpoint:CheckpointRules.stage",
        "repro.blockchain.checkpoint:CheckpointRules.apply",
        "repro.blockchain.engine:ValidationEngine.check_checkpoints"), None),
    ("p2p.wan_send", (
        "repro.p2p.network:WANetwork.send",
        "repro.p2p.network:WANetwork.broadcast"), None),
    ("p2p.gossip_rx", (
        "repro.p2p.gossip:GossipNode.receive_transaction",
        "repro.p2p.gossip:GossipNode.receive_block",
        "repro.p2p.gossip:GossipNode.handle_envelope",
        "repro.core.daemon:BlockchainDaemon.handle_envelope"), None),
    ("sim.loop", (
        "repro.sim.core:Simulator.run",), None),
    ("light.wallet_build", (
        "repro.light.wallet:LightWallet.create_key_release_offer",
        "repro.light.wallet:LightWallet.refund_key_release",
        "repro.light.wallet:LightWallet.create_announcement"), None),
    ("light.spv", (
        "repro.light.spv:SpvClient.watch",
        "repro.light.spv:SpvClient.request_proof",
        "repro.light.spv:SpvClient.catch_up"), None),
    ("light.compact", (
        "repro.light.compact:CompactBlockRelay.announce",), None),
    ("light.multicast", (
        "repro.light.multicast:MulticastListener.receive",), None),
    # the benchmark's own host-speed probe, kept out of the root's self time
    ("bench.probe", (
        "bench.hostspeed:Stretch.probe",), None),
)

# "module:Class.method" -> the parameter that receives a callback or generator
REGISTRARS: dict[str, str] = {
    "repro.sim.core:Simulator.process": "generator",
    "repro.sim.core:Simulator.call_at": "callback",
    "repro.sim.core:Simulator.call_in": "callback",
    "repro.p2p.network:WANetwork.register": "handler",
    "repro.core.daemon:BlockchainDaemon.register_protocol": "handler",
    "repro.light.spv:SpvClient.register_handler": "handler",
    "repro.lora.device:LoRaRadio.on_receive": "handler",
}

# Defining module (longest prefix first) -> span name of its generators
# and callbacks.  Modules not listed run unwrapped, inside their caller.
MODULE_SPANS: tuple[tuple[str, str], ...] = (
    ("repro.core.", "core.agent_steps"),
    ("repro.p2p.sync", "p2p.sync"),
    ("repro.p2p.network", "p2p.wan_deliver"),
    ("repro.p2p.", "p2p.gossip_rx"),
    ("repro.light.server", "light.server"),
    ("repro.light.spv", "light.spv"),
    ("repro.light.compact", "light.compact"),
    ("repro.light.multicast", "light.multicast"),
    ("repro.lora.channel", "lora.channel_complete"),
    ("repro.lora.", "lora.radio"),
    ("bench.", "bench.load"),
)


def _module_span(module: Optional[str]) -> Optional[str]:
    if module:
        for prefix, name in MODULE_SPANS:
            if module.startswith(prefix):
                return name
    return None


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for ``module:function`` or
    ``module:Class.method``; the owner is None for a module function."""
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in qualname:
        class_name, attribute = qualname.split(".")
        owner = getattr(module, class_name)
        return owner, attribute, owner.__dict__[attribute]
    return None, qualname, getattr(module, qualname)


class _TracedGenerator:
    """Stands in for a process generator; one span per resumption."""

    __slots__ = ("_generator", "_name", "_recorder")

    def __init__(self, generator, name: str, recorder: "Recorder") -> None:
        self._generator = generator
        self._name = name
        self._recorder = recorder

    def send(self, value):
        span = self._recorder.begin(self._name)
        try:
            return self._generator.send(value)
        finally:
            self._recorder.end(span)

    def throw(self, *exc_info):
        span = self._recorder.begin(self._name)
        try:
            return self._generator.throw(*exc_info)
        finally:
            self._recorder.end(span)

    def close(self):
        return self._generator.close()


class Spans:
    """Recorded spans as parallel columns; a span is its row index.

    Columns rather than one object per span: a hundred thousand small
    containers would slow every pass of the garbage collector over the
    traced program, and that cost would be charged to the program.
    """

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.count = array("q")
        self.extra = array("q")

    def __len__(self) -> int:
        return len(self.name)

    def add(self, name: str, start: int, end: int, parent: int = -1,
            count: int = 1, extra: int = 0) -> int:
        """Append a finished span (hand-built trees, tests)."""
        self.name.append(name)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.count.append(count)
        self.extra.append(extra)
        return len(self.name) - 1

    def duration(self, span: int) -> int:
        return self.end[span] - self.start[span]


class Recorder:
    """Collects spans and owns every rebinding it makes."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans = Spans()
        self._open: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------

    def begin(self, name: str) -> int:
        spans, stack = self.spans, self._open
        span = spans.add(name, 0, 0, stack[-1] if stack else -1)
        stack.append(span)
        spans.start[span] = self.clock()
        return span

    def end(self, span: int) -> None:
        self.spans.end[span] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into a layer."""
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def traced(self, name: str, fn: Callable,
               after: Optional[Callable] = None) -> Callable:
        begin, end, spans = self.begin, self.end, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(span)
            if after is not None:
                after(spans, span, args, result)
            return result

        wrapper.__bench_original__ = fn
        return wrapper

    def _traced_argument(self, value: Any) -> Any:
        """A generator or callback, timed under its defining module."""
        if inspect.isgenerator(value):
            name = _module_span(value.gi_frame.f_globals.get("__name__"))
            if name is None:
                return value
            return _TracedGenerator(value, name, self)
        function = getattr(value, "__func__", value)
        if hasattr(function, "__bench_original__"):
            return value  # a rebound public method: already a span
        name = _module_span(getattr(value, "__module__", None))
        if name is None:
            return value
        return self.traced(name, value)

    # -- rebinding -------------------------------------------------------------

    def install(self) -> None:
        """Rebind every target; call after the program is imported."""
        for target, parameter in REGISTRARS.items():
            owner, attribute, original = _resolve(target)
            self._set(owner, attribute, original,
                      self._registrar(original, parameter))
        for name, targets, after in CALLS:
            for target in targets:
                owner, attribute, original = _resolve(target)
                wrapper = self.traced(name, original, after)
                if owner is not None:
                    self._set(owner, attribute, original, wrapper)
                    continue
                for module_name, module in list(sys.modules.items()):
                    if module is None or not (
                            module_name == "repro"
                            or module_name.startswith("repro.")):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, original, wrapper)

    def _registrar(self, original: Callable, parameter: str) -> Callable:
        position = list(inspect.signature(original).parameters).index(
            parameter)
        convert = self._traced_argument

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if len(args) > position:
                args = (args[:position] + (convert(args[position]),)
                        + args[position + 1:])
            else:
                kwargs[parameter] = convert(kwargs[parameter])
            return original(*args, **kwargs)

        wrapper.__bench_original__ = original
        return wrapper

    def _set(self, owner: Any, attribute: str, original: Any,
             wrapper: Any) -> None:
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        """Put every original object back, in reverse order."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- the cost of recording ---------------------------------------------------

    def span_cost_ns(self, calls: int = 20_000) -> float:
        """Measured host cost of recording one span (wrapper included)."""
        scratch = Recorder(self.clock)
        plain = _nothing
        traced = scratch.traced("calibration", plain)
        t0 = self.clock()
        for _ in range(calls):
            plain()
        t1 = self.clock()
        for _ in range(calls):
            traced()
        t2 = self.clock()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def _nothing() -> None:
    return None


# -- arithmetic on recorded spans ------------------------------------------------

def self_times(spans: Spans) -> list[int]:
    """Per span: its duration minus the part its child spans cover."""
    own = [spans.duration(span) for span in range(len(spans))]
    for span, parent in enumerate(spans.parent):
        if parent >= 0:
            own[parent] -= spans.duration(span)
    return own


def layer_table(spans: Spans) -> dict[str, dict[str, float]]:
    """``name -> {calls, self_s, extra}`` summed over spans of that name."""
    table: dict[str, dict[str, float]] = {}
    for span, own in enumerate(self_times(spans)):
        row = table.setdefault(spans.name[span],
                               {"calls": 0, "self_s": 0.0, "extra": 0})
        row["calls"] += spans.count[span]
        row["self_s"] += own / 1e9
        row["extra"] += spans.extra[span]
    return table


def inclusive_under(spans: Spans, parent_name: str,
                    child_prefix: str) -> float:
    """Seconds of ``child_prefix*`` spans that are direct children of a
    ``parent_name`` span, their own children included."""
    total = 0
    for span, parent in enumerate(spans.parent):
        if (parent >= 0 and spans.name[parent] == parent_name
                and spans.name[span].startswith(child_prefix)):
            total += spans.duration(span)
    return total / 1e9
