"""The full-node serving side of the light-client tier.

A :class:`LightServer` rides on one :class:`~repro.core.daemon.BlockchainDaemon`
and answers three things a light client needs:

* **header ranges** — the 84-byte-per-block view of the active chain;
* **watch-list filters** — per-client sets of addresses (pubkey hashes),
  outpoints, and txids; matching transactions are pushed the moment they
  enter the mempool and again (with height) when they confirm;
* **Merkle inclusion proofs** — pushed unsolicited alongside every
  confirmed match, and served on demand, each proof self-contained
  (header bytes travel with the branch) so the client can verify with
  nothing but its header chain.

Serving is push-first: a registered client never polls for its own
transactions.  The filters live in memory: the daemon's ``crash()``
clears them with the rest of its RAM, so a restarted server pushes to
nobody until a client registers again.  A server a client failed over
from, but that never crashed, keeps its filter and keeps pushing
(ROADMAP item 7(d)).  A client replays its whole filter on failover, so
its new serving peer has it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.blockchain.block import Block
from repro.blockchain.merkle import merkle_branch
from repro.blockchain.transaction import Transaction
from repro.light.messages import (
    MEMPOOL_HEIGHT,
    FilterMatchMessage,
    GetHeaderRangeMessage,
    GetTxProofMessage,
    HeaderRangeMessage,
    RegisterFilterMessage,
    TxProofMessage,
)
from repro.light.spv import SpvClient
from repro.obs.registry import Counted, attrs
from repro.p2p.message import Envelope
from repro.script import builder

if TYPE_CHECKING:  # avoid a light <-> core import cycle
    from repro.core.daemon import BlockchainDaemon

__all__ = ["LightServer"]


@dataclass
class _ClientFilter:
    """One light client's registered watch list."""

    scripts: set[bytes] = field(default_factory=set)
    outpoints: set[tuple[bytes, int]] = field(default_factory=set)
    txids: set[bytes] = field(default_factory=set)

    def matches(self, tx: Transaction) -> bool:
        if tx.txid in self.txids:
            return True
        for tx_input in tx.inputs:
            spent = (tx_input.outpoint.txid, tx_input.outpoint.index)
            if spent in self.outpoints:
                return True
        for output in tx.outputs:
            if output.script_pubkey.to_bytes() in self.scripts:
                return True
        return False


class LightServer(Counted):
    """Header, filter, and proof service for one full-node daemon."""

    COUNTERS = attrs(
        "filters_registered", "header_requests", "matches_pushed",
        "proofs_served")
    # Light clients with a registered filter.
    GAUGES = {"clients": lambda server: len(server._filters)}

    def __init__(self, daemon: "BlockchainDaemon") -> None:
        self.daemon = daemon
        self.network = daemon.network
        self._filters: dict[str, _ClientFilter] = {}
        daemon.light_server = self
        daemon.register_protocol(GetHeaderRangeMessage, self._on_get_headers)
        daemon.register_protocol(RegisterFilterMessage, self._on_register)
        daemon.register_protocol(GetTxProofMessage, self._on_get_proof)
        daemon.gossip.on_transaction.append(self._on_mempool_tx)
        daemon.node.chain.add_connect_listener(self._on_block_connected)

    def reset(self) -> None:
        """Forget every registered filter (the daemon crashed)."""
        self._filters.clear()

    # -- header service ---------------------------------------------------------

    def _on_get_headers(self, envelope: Envelope) -> None:
        request = envelope.payload
        chain = self.daemon.node.chain
        self.header_requests += 1
        start = request.above_height + 1
        # The client picks the limit: serve at most one of its batches.
        top = min(chain.height,
                  request.above_height + min(request.limit, SpvClient.BATCH))
        headers = []
        for height in range(start, top + 1):
            block = chain.block_at(height)
            if block is None:
                break
            headers.append(block.header.serialize())
        self.network.send(self.daemon.name, envelope.source,
                          HeaderRangeMessage(start_height=start,
                                             headers=tuple(headers),
                                             tip_height=chain.height))

    # -- filter registration ----------------------------------------------------

    def _filter_for(self, client: str) -> _ClientFilter:
        watch = self._filters.get(client)
        if watch is None:
            watch = _ClientFilter()
            self._filters[client] = watch
        return watch

    def _on_register(self, envelope: Envelope) -> None:
        request = envelope.payload
        watch = self._filter_for(envelope.source)
        self.filters_registered += 1
        # Addresses are matched at the script level: one set lookup per
        # output instead of parsing every locking script.
        for pubkey_hash in request.pubkey_hashes:
            watch.scripts.add(builder.p2pkh_locking(pubkey_hash).to_bytes())
        for txid, index in request.outpoints:
            watch.outpoints.add((txid, index))
        for txid in request.txids:
            watch.txids.add(txid)
        if request.from_height >= 0:
            self._rescan(envelope.source, watch, request.from_height)

    def _rescan(self, client: str, watch: _ClientFilter,
                from_height: int) -> None:
        """Replay history + mempool for a freshly-registered filter."""
        chain = self.daemon.node.chain
        for height, block in chain.iter_active_blocks(from_height):
            for index, tx in enumerate(block.transactions):
                if watch.matches(tx):
                    self._push_confirmed(client, tx, block, height, index)
        for tx in self.daemon.node.mempool.transactions():
            if watch.matches(tx):
                self._push_mempool(client, tx)

    # -- push paths -------------------------------------------------------------

    def _on_mempool_tx(self, tx: Transaction) -> None:
        for client, watch in self._filters.items():
            if watch.matches(tx):
                self._push_mempool(client, tx)

    def _on_block_connected(self, block: Block, height: int) -> None:
        if not self._filters:
            return
        for index, tx in enumerate(block.transactions):
            for client, watch in self._filters.items():
                if watch.matches(tx):
                    self._push_confirmed(client, tx, block, height, index)

    def _push_mempool(self, client: str, tx: Transaction) -> None:
        self.matches_pushed += 1
        self.network.send(self.daemon.name, client,
                          FilterMatchMessage(tx_bytes=tx.serialize(),
                                             height=MEMPOOL_HEIGHT))

    def _push_confirmed(self, client: str, tx: Transaction, block: Block,
                        height: int, index: int) -> None:
        self.matches_pushed += 1
        self.network.send(self.daemon.name, client,
                          FilterMatchMessage(tx_bytes=tx.serialize(),
                                             height=height))
        proof = self._build_proof(tx.txid, block, height, index)
        if proof is not None:
            self.proofs_served += 1
            self.network.send(self.daemon.name, client, proof)

    # -- proof service ----------------------------------------------------------

    def _build_proof(self, txid: bytes, block: Block, height: int,
                     index: int) -> Optional[TxProofMessage]:
        txids = [tx.txid for tx in block.transactions]
        branch = merkle_branch(txids, index)
        return TxProofMessage(
            txid=txid,
            block_hash=block.hash,
            height=height,
            index=index,
            tx_count=len(txids),
            branch=tuple(branch),
            header_bytes=block.header.serialize(),
        )

    def _on_get_proof(self, envelope: Envelope) -> None:
        chain = self.daemon.node.chain
        found = chain.find_transaction(envelope.payload.txid)
        if found is None:
            return  # unconfirmed or unknown; pushes cover the former
        tx, height = found
        block = chain.block_at(height)
        if block is None:
            return
        index = next(i for i, candidate in enumerate(block.transactions)
                     if candidate.txid == tx.txid)
        proof = self._build_proof(tx.txid, block, height, index)
        if proof is not None:
            self.proofs_served += 1
            self.network.send(self.daemon.name, envelope.source, proof)
