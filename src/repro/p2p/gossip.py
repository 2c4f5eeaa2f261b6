"""Flooding gossip of transactions and blocks between full nodes.

Each :class:`GossipNode` wraps one :class:`repro.blockchain.FullNode` and
relays newly-accepted items to its peers (dedup by hash, no echo to the
origin) — the inv/getdata pattern collapsed to direct push, appropriate
for the handful of gateways in a BcWAN federation.

Robustness notes (the lessons a lossy, partitioned WAN teaches):

* Dedup memories are bounded :class:`~repro.p2p.dedup.LRUSet`\\ s, not
  unbounded sets — a gateway that relays for months keeps a fixed
  footprint.
* A transaction rejected only for now — its parents are unknown (an
  orphan), it is not final yet, or it spends an immature coinbase — is
  *not* marked known: it is parked in a bounded buffer and re-tried
  whenever a new transaction or block lands, so a child that raced ahead
  of its parent on a reordering WAN, or a refund gossiped before its
  lock-time, is recovered instead of blackholed (Bitcoin Core resets its
  reject filter on every new tip for the same reason).  An orphan
  evicted from the buffer is not marked known either, but behind a
  :class:`~repro.core.daemon.BlockchainDaemon` a second gossiped copy
  does not get here: the daemon marks every txid it receives as seen (a
  bounded memory, cleared on restart) before handing the envelope over.
  Only a direct :meth:`GossipNode.receive_transaction` call (sync's
  path) gives an evicted orphan a fresh chance.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional

from typing import Any

from repro.blockchain.block import Block
from repro.blockchain.node import FullNode
from repro.blockchain.transaction import Transaction
from repro.obs.registry import Counted, attrs
from repro.blockchain.mempool import (REJECT_IMMATURE, REJECT_MISSING_INPUTS,
                                      REJECT_NON_FINAL)
from repro.p2p.dedup import LRUSet
from repro.p2p.message import BlockMessage, Envelope, TxMessage
from repro.p2p.network import WANetwork

__all__ = ["GossipNode"]

# Refusals a later transaction or block can lift: such a transaction
# waits with the orphans instead of being remembered as known.
_NOT_YET = frozenset({REJECT_MISSING_INPUTS, REJECT_NON_FINAL,
                      REJECT_IMMATURE})


class GossipNode(Counted):
    """P2P relay behaviour for one full node.

    The node does not register with the network itself: its owner routes
    envelopes to :meth:`handle_envelope` — the daemon through its service
    queue (the Multichain stall model), so inbound processing waits
    behind a busy server.
    """

    ORPHAN_POOL_SIZE = 256
    DEDUP_CACHE_SIZE = 4096
    COUNTERS = attrs("orphans_resolved", "orphans_evicted")
    GAUGES = {"peers": lambda node: len(node.peers),
              "orphans_pooled": "orphan_count"}

    def __init__(self, node: FullNode, network: WANetwork,
                 name: Optional[str] = None) -> None:
        self.node = node
        self.network = network
        self.name = name or node.name
        self.peers: list[str] = []
        self._known_txids: LRUSet = LRUSet(self.DEDUP_CACHE_SIZE)
        self._known_blocks: LRUSet = LRUSet(self.DEDUP_CACHE_SIZE)
        # Orphan transactions waiting for parents: txid -> (tx, origin),
        # at most ORPHAN_POOL_SIZE of them.
        self._orphan_txs: OrderedDict[bytes, tuple[Transaction, str]] = (
            OrderedDict()
        )
        self._retrying_orphans = False
        # Listeners called when a tx/block is newly accepted locally.
        self.on_transaction: list[Callable[[Transaction], None]] = []
        self.on_block: list[Callable[[Block], None]] = []
        # When a CompactBlockRelay attaches itself here, block relays go
        # out as short-txid sketches instead of full BlockMessages; None
        # (the default) keeps full-block gossip byte-identical.
        self.compact_relay: Optional[Any] = None

    def connect(self, peer_name: str) -> None:
        if peer_name != self.name and peer_name not in self.peers:
            self.peers.append(peer_name)

    def reset_caches(self) -> None:
        """Forget dedup and orphan state (a restart: they lived in RAM)."""
        self._known_txids.clear()
        self._known_blocks.clear()
        self._orphan_txs.clear()

    @property
    def orphan_count(self) -> int:
        return len(self._orphan_txs)

    # -- local origination -------------------------------------------------

    def broadcast_transaction(self, tx: Transaction) -> bool:
        """Submit a locally-created transaction and gossip it.

        Local listeners fire exactly as they would for a gossiped
        transaction — an agent watching for a spend must see it whether
        the spender is remote or shares this node.
        """
        decision = self.node.submit_transaction(tx)
        if decision.accepted:
            self._known_txids.add(tx.txid)
            for listener in self.on_transaction:
                listener(tx)
            self._relay(TxMessage(transaction=tx))
            self._retry_orphans()
        return decision.accepted

    def broadcast_block(self, block: Block, parent: Any = None) -> bool:
        """Announce a locally-mined (already connected) block.

        ``parent`` (a span) threads the block's trace into the relay
        fan-out, so each peer's transit + validation hangs under it.
        """
        self._known_blocks.add(block.hash)
        self._relay_block(block, parent=parent)
        self._retry_orphans()
        return True

    # -- inbound ---------------------------------------------------------------

    def handle_envelope(self, envelope: Envelope) -> None:
        payload = envelope.payload
        if isinstance(payload, TxMessage):
            self.receive_transaction(payload.transaction, origin=envelope.source)
        elif isinstance(payload, BlockMessage):
            self.receive_block(payload.block, origin=envelope.source,
                               parent=envelope.trace)

    def receive_transaction(self, tx: Transaction, origin: str) -> None:
        if tx.txid in self._known_txids:
            return
        decision = self.node.submit_transaction(tx)
        if decision.accepted:
            self._known_txids.add(tx.txid)
            for listener in self.on_transaction:
                listener(tx)
            self._relay(TxMessage(transaction=tx), exclude=(origin,))
            self._retry_orphans()
        elif decision.reason_code in _NOT_YET:
            # Not yet valid — park it; a later parent (via gossip or
            # sync) or block re-triggers evaluation.  Not marked known,
            # so a direct re-delivery after eviction (sync) is evaluated
            # again; the daemon drops a re-gossiped copy before it gets
            # here.
            self._stash_orphan(tx, origin)
        else:
            # Permanent verdict (invalid, duplicate, conflicting spend,
            # nonstandard): remember it so repeats are dropped cheaply.
            self._known_txids.add(tx.txid)

    def receive_block(self, block: Block, origin: str = "",
                      parent: Any = None) -> None:
        if block.hash in self._known_blocks:
            return
        self._known_blocks.add(block.hash)
        span = self.network.tracer.span("block.adopt", parent=parent,
                                        host=self.name)
        result = self.node.submit_block(block)
        if result.status in ("invalid", "duplicate"):
            span.end("rejected", reason=result.reason or result.status)
            return
        span.end("ok", outcome=result.status)
        for listener in self.on_block:
            listener(block)
        self._relay_block(block, exclude=(origin,), parent=span)
        self._retry_orphans()

    def _relay_block(self, block: Block, parent: Any,
                     exclude: tuple[str, ...] = ()) -> None:
        """Fan a block out to peers — compact sketch when relay is attached."""
        if self.compact_relay is not None:
            self.compact_relay.announce(block, exclude=exclude, parent=parent)
        else:
            self._relay(BlockMessage(block=block), exclude=exclude,
                        parent=parent)

    # -- orphan recovery --------------------------------------------------------

    def _stash_orphan(self, tx: Transaction, origin: str) -> None:
        if tx.txid in self._orphan_txs:
            self._orphan_txs.move_to_end(tx.txid)
            return
        self._orphan_txs[tx.txid] = (tx, origin)
        while len(self._orphan_txs) > self.ORPHAN_POOL_SIZE:
            self._orphan_txs.popitem(last=False)
            self.orphans_evicted += 1

    def _retry_orphans(self) -> None:
        """Re-evaluate parked orphans now that new state arrived.

        Loops to a fixpoint so chains of orphans (grandchild waiting on
        child waiting on parent) resolve in one pass; the reentrancy
        guard keeps accepted orphans from recursing back in here.
        """
        if self._retrying_orphans or not self._orphan_txs:
            return
        self._retrying_orphans = True
        try:
            progress = True
            while progress and self._orphan_txs:
                progress = False
                for txid in list(self._orphan_txs):
                    entry = self._orphan_txs.get(txid)
                    if entry is None:
                        continue
                    tx, origin = entry
                    decision = self.node.submit_transaction(tx)
                    if decision.accepted:
                        del self._orphan_txs[txid]
                        self._known_txids.add(txid)
                        self.orphans_resolved += 1
                        progress = True
                        for listener in self.on_transaction:
                            listener(tx)
                        self._relay(TxMessage(transaction=tx),
                                    exclude=(origin,))
                    elif decision.reason_code not in _NOT_YET:
                        # Now permanently decided (e.g. parent confirmed
                        # and the orphan double-spends, or it confirmed
                        # itself): stop retrying.
                        del self._orphan_txs[txid]
                        self._known_txids.add(txid)
        finally:
            self._retrying_orphans = False

    def _relay(self, message, exclude: tuple[str, ...] = (),
               parent: Any = None) -> None:
        for peer in self.peers:
            if peer in exclude:
                continue
            self.network.send(self.name, peer, message, parent=parent)
