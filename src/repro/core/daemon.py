"""The BcWAN daemon: a single-server queue in front of the blockchain.

The paper's gateway stack is a Golang daemon wrapping a Multichain node;
all blockchain interaction — creating/signing/sending transactions,
directory lookups, processing gossiped items — goes through it.  Its
defining performance behaviour (section 5.2) is that with block
verification enabled "the block verification made the Multichain daemon
stall and become unresponsive for extended periods upon each block
arrival".

:class:`BlockchainDaemon` models exactly that: every operation is a job in
a FIFO served by one server; an incoming block enqueues a verification job
whose service time is the chain params' ``verification_stall`` — so while
a block verifies, every RPC of every in-flight exchange waits.  Disabling
verification (Fig. 5) makes block jobs cheap and the queue effectively
empty.

A crash fails every job it drops — queued, in service, or submitted while
offline — with :class:`~repro.errors.DaemonDown`: a job ends with its
result or a typed error, never in silence.
"""

from __future__ import annotations

import io
import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.blockchain.node import FullNode
from repro.blockchain.store import save_chain
from repro.core.costmodel import CostModel
from repro.errors import BcWANError, DaemonDown
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import DaemonStats
from repro.p2p.dedup import LRUSet
from repro.p2p.gossip import GossipNode
from repro.p2p.message import BlockMessage, Envelope, TxMessage
from repro.p2p.network import WANetwork
from repro.sim.core import Event, Simulator

__all__ = ["BlockchainDaemon"]


@dataclass
class _Job:
    fn: Optional[Callable[[], Any]]
    completion: Event
    enqueued_at: float
    # The job's tracing span (e.g. a block's ``block.validate``), which
    # the daemon ends: ``ok`` when served, ``lost`` when dropped.
    span: Any = None
    service_time: float = 0.0


class BlockchainDaemon:
    """One host's blockchain access point, with Multichain-like stalls."""

    def __init__(self, sim: Simulator, name: str, network: WANetwork,
                 node: FullNode, cost_model: CostModel,
                 rng: random.Random,
                 verify_blocks: Optional[bool] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.sim = sim
        self.name = name
        self.network = network
        self.node = node
        self.cost_model = cost_model
        self.rng = rng
        # The Fig. 5 / Fig. 6 toggle; defaults to the chain params' flag.
        self.verify_blocks = (
            node.params.verify_blocks if verify_blocks is None else verify_blocks
        )
        self.gossip = GossipNode(node, network, name=name)
        network.register(name, self.handle_envelope)
        # Plain counters, read by the registry at snapshot time: read
        # `daemon.stats.jobs_served` or take the view via `daemon.stats()`.
        self.stats = DaemonStats(self)
        if registry is not None:
            registry.register("daemon", self.stats, host=name)
        # Handlers for non-gossip payloads (the BcWAN delivery protocol),
        # registered by agents: payload type -> callable(envelope).
        self.protocol_handlers: dict[type, Callable[[Envelope], None]] = {}
        # While offline the daemon refuses all traffic and RPCs.
        self.online = True
        # The chain store a crash left for the restart (None: state loss).
        self._store: Optional[str] = None
        # Set by a SyncAgent / LightServer when one attaches; crash()
        # resets the agent's in-flight request state and clears the
        # server's light-client filters alongside the daemon's own queue.
        self.sync_agent: Optional[Any] = None
        self.light_server: Optional[Any] = None

        self._queue: deque[_Job] = deque()
        # The job last taken into service (a crash drops it if unanswered).
        self._serving: Optional[_Job] = None
        self._wakeup: Optional[Event] = None
        # Items already queued or processed; the inv/getdata pattern means
        # a real daemon never downloads (or verifies) the same item twice.
        # Bounded: a gateway relaying for months must not grow without
        # limit (an ancient re-download costs one redundant validation).
        self._seen_txids: LRUSet = LRUSet(8192)
        self._seen_blocks: LRUSet = LRUSet(8192)
        sim.process(self._serve())

    # -- crash/restart lifecycle -------------------------------------------------

    def crash(self, preserve_chain: bool = False) -> None:
        """Fail-stop: drop the queue, refuse traffic, go dark on the WAN.

        Everything in RAM is lost — queued jobs, dedup memories, light
        clients' filters and (on restart) the mempool.  With
        ``preserve_chain`` the chain store survives: it is written now and
        :meth:`restart` replays it; otherwise the daemon comes back at
        genesis.
        """
        if not self.online:
            return
        self._store = None
        if preserve_chain:
            store = io.StringIO()
            save_chain(self.node.chain, store)
            self._store = store.getvalue()
        self.online = False
        self.stats.crashes += 1
        self.stats.jobs_lost_to_crash += len(self._queue)
        serving = self._serving
        if serving is not None and not serving.completion.triggered:
            self._drop(serving, "daemon crash mid-service")
        for job in self._queue:
            self._drop(job, "daemon crash")
        self._queue.clear()
        self.network.set_host_down(self.name)
        if self.sync_agent is not None:
            self.sync_agent.reset()
        if self.light_server is not None:
            self.light_server.reset()

    def restart(self) -> None:
        """Come back up on the same node, restored from the store the
        crash left (:meth:`FullNode.restart`)."""
        if self.online:
            return
        self.node.restart(self._store)
        self._store = None
        self.gossip.reset_caches()
        self._seen_txids.clear()
        self._seen_blocks.clear()
        self.online = True
        self.stats.restarts += 1
        self.network.set_host_up(self.name)

    # -- inbound network traffic ------------------------------------------------

    def handle_envelope(self, envelope: Envelope) -> None:
        if not self.online:
            # The WAN already drops deliveries to downed hosts; this
            # guards direct handler calls (tests, local loopback).
            self.stats.messages_refused_offline += 1
            return
        payload = envelope.payload
        if isinstance(payload, TxMessage):
            tx = payload.transaction
            if tx.txid in self._seen_txids:
                return
            self._seen_txids.add(tx.txid)
            origin = envelope.source

            self._enqueue(
                self.cost_model.daemon_tx_process,
                lambda: self.gossip.receive_transaction(tx, origin=origin),
            )
        elif isinstance(payload, BlockMessage):
            block = payload.block
            if not self.mark_block_seen(block.hash):
                return
            self.enqueue_network_block(block, origin=envelope.source,
                                       trace=envelope.trace)
        else:
            handler = self.protocol_handlers.get(type(payload))
            if handler is not None:
                # Dispatch latency for the daemon to hand the request to
                # the protocol layer; the handler schedules its own work.
                self._enqueue(
                    self.cost_model.gateway_frame_handling,
                    lambda: handler(envelope),
                )

    def mark_block_seen(self, block_hash: bytes) -> bool:
        """Dedup gate shared by full-block gossip and compact relay.

        Returns True when the hash was new (the caller should process it);
        False when this daemon already queued or processed the block.
        """
        if block_hash in self._seen_blocks:
            return False
        self._seen_blocks.add(block_hash)
        return True

    def enqueue_network_block(self, block: Any, origin: str,
                              trace: Any) -> Event:
        """Queue a network-received block for verification and adoption.

        The shared tail of full-block gossip and compact-sketch
        reconstruction: both pay the same verification stall (the
        section 5.2 behavior this daemon exists to model) and adopt via
        gossip — which re-relays to peers.  Callers are expected to have
        passed :meth:`mark_block_seen` first.
        """
        if self.verify_blocks:
            service = self.node.params.verification_stall(
                len(block.transactions)
            )
            self.stats.blocks_verified += 1
            self.stats.stall_time += service
        else:
            service = self.cost_model.daemon_block_process
        # The block's validation span: child of the transit span that
        # delivered it, so one block's trace shows gossip hop →
        # per-peer queueing/verification stall → adoption.
        span = self.network.tracer.span(
            "block.validate", parent=trace,
            host=self.name, txs=len(block.transactions))

        def process_block(block=block, origin=origin, span=span):
            self.gossip.receive_block(block, origin=origin, parent=span)
            span.end("ok")

        return self._enqueue(service, process_block, span=span)

    def register_protocol(self, payload_type: type,
                          handler: Callable[[Envelope], None]) -> None:
        """Route network payloads of ``payload_type`` to ``handler``."""
        self.protocol_handlers[payload_type] = handler

    # -- local RPC ---------------------------------------------------------------

    def call(self, service_mean: float,
             fn: Optional[Callable[[], Any]] = None) -> Event:
        """Submit a local operation; the returned event ends it.

        Use for anything that touches the Multichain API: creating, signing
        and sending transactions, directory scans.  The event's value is
        ``fn()``'s return value; it fails with what :meth:`_enqueue` says.
        """
        return self._enqueue(service_mean, fn)

    def rpc(self, fn: Callable[[], Any]) -> Event:
        """A standard-cost JSON-RPC round (create/sign/send)."""
        return self.call(self.cost_model.daemon_rpc, fn)

    def lookup(self, fn: Callable[[], Any]) -> Event:
        """A directory lookup against the local chain view."""
        return self.call(self.cost_model.daemon_lookup, fn)

    # -- queueing ----------------------------------------------------------------

    def _enqueue(self, service_mean: float,
                 fn: Optional[Callable[[], Any]],
                 span: Any = None) -> Event:
        """Queue one job.  Its completion succeeds with ``fn()``'s result or
        fails: with the ``BcWANError`` ``fn`` raised, or with ``DaemonDown``
        — at once when offline, at the crash instant when a crash drops it.
        """
        job = _Job(fn=fn, completion=self.sim.event(),
                   enqueued_at=self.sim.now, span=span)
        if not self.online:
            self.stats.messages_refused_offline += 1
            self._drop(job, "daemon offline")
            return job.completion
        job.service_time = self.cost_model.sample(service_mean, self.rng)
        self._queue.append(job)
        if len(self._queue) > self.stats.max_queue_length:
            self.stats.max_queue_length = len(self._queue)
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()
        return job.completion

    def _drop(self, job: _Job, reason: str) -> None:
        """Answer a job this daemon will not serve: its span ends ``lost``
        and its completion fails with :class:`DaemonDown`."""
        if job.span is not None:
            job.span.end("lost", reason=reason)
        job.completion.fail(DaemonDown(reason))

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def _serve(self):
        while True:
            if not self._queue:
                self._wakeup = self.sim.event()
                yield self._wakeup
                self._wakeup = None
                continue
            job = self._serving = self._queue.popleft()
            self.stats.queue_wait_total += self.sim.now - job.enqueued_at
            if job.service_time > 0:
                yield self.sim.timeout(job.service_time)
            if job.completion.triggered:
                continue  # a crash dropped it in service
            self.stats.jobs_served += 1
            self.stats.busy_time += job.service_time
            result = None
            if job.fn is not None:
                try:
                    result = job.fn()
                except BcWANError as exc:
                    # The job's own failure (a wallet that cannot fund a
                    # spend) belongs to its caller, not to the server.
                    job.completion.fail(exc)
                    continue
            job.completion.succeed(result)
