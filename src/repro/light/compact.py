"""BIP 152-style compact block relay between full nodes.

Instead of flooding ~full blocks, a relaying node sends the 84-byte
header plus a 6-byte *short txid* per transaction; receivers rebuild the
block from their own mempool (steady-state gossip means they already
hold nearly every tx) and fetch only the gaps with a getblocktxn-style
round-trip.  Short ids are salted with the block hash so a collision is
confined to one block; a collision or stale mempool shows up as a Merkle
root mismatch and falls back to fetching the affected positions.

Reconstructed blocks re-enter the daemon through the same verification
queue as gossiped full blocks — compact relay saves bytes, never
verification work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.blockchain.block import Block, BlockHeader
from repro.blockchain.transaction import Transaction
from repro.crypto.hashing import double_sha256
from repro.obs.registry import Counted, attrs
from repro.p2p.message import (
    BlockTxnMessage,
    CompactBlockMessage,
    Envelope,
    GetBlockTxnMessage,
)
from repro.p2p.sync import Requests

if TYPE_CHECKING:  # avoid a light <-> core import cycle
    from repro.core.daemon import BlockchainDaemon

__all__ = ["SHORT_TXID_BYTES", "short_txid", "make_compact_block",
           "CompactBlockRelay"]

#: Sketch width.  6 bytes ≈ BIP 152; collision odds within one block are
#: ``n_mempool / 2**48`` — negligible, and recoverable via fallback.
SHORT_TXID_BYTES = 6


def short_txid(block_hash: bytes, txid: bytes) -> bytes:
    """The per-block short id of one transaction."""
    return double_sha256(block_hash + txid)[:SHORT_TXID_BYTES]


def make_compact_block(block: Block) -> CompactBlockMessage:
    """Sketch a block: prefilled coinbase + short ids for the rest."""
    block_hash = block.hash
    short_ids = tuple(
        short_txid(block_hash, tx.txid) for tx in block.transactions[1:]
    )
    prefilled = ((0, block.transactions[0].serialize()),)
    return CompactBlockMessage(
        header_bytes=block.header.serialize(),
        tx_count=len(block.transactions),
        short_ids=short_ids,
        prefilled=prefilled,
    )


@dataclass
class _PartialBlock:
    """A sketch awaiting its getblocktxn fallback reply."""

    header: BlockHeader
    slots: list[Optional[Transaction]]
    trace: Any = None
    requested_all: bool = False


class CompactBlockRelay(Counted):
    """Compact send/receive for one daemon's gossip node.

    Attaching the relay flips the gossip node's block fan-out from
    :class:`~repro.p2p.message.BlockMessage` to sketches; inbound
    sketches and fallback messages arrive through the daemon's protocol
    queue (so reconstruction competes for daemon time like any message).
    """

    # Seconds a sketch waits for its getblocktxn reply before giving up.
    FALLBACK_TIMEOUT = 10.0
    # What the lightclient benchmark's hit-rate figure reads.
    COUNTERS = attrs(
        "compact_announced", "compact_received",
        "reconstructed_from_mempool", "reconstructed_after_fallback",
        "fallback_roundtrips", "reconstruct_failed", "txs_from_mempool",
        "txs_fetched")

    def __init__(self, daemon: "BlockchainDaemon") -> None:
        self.daemon = daemon
        self.network = daemon.network
        # Fallback requests in flight, by block hash.
        self.requests = Requests(daemon.sim, daemon.network, daemon.name,
                                 self._on_expire)
        daemon.register_protocol(CompactBlockMessage, self._on_compact)
        daemon.register_protocol(GetBlockTxnMessage, self._on_get_block_txn)
        daemon.register_protocol(BlockTxnMessage, self._on_block_txn)
        daemon.gossip.compact_relay = self

    # -- sender side -----------------------------------------------------------

    def announce(self, block: Block, exclude: tuple[str, ...] = (),
                 parent: Any = None) -> None:
        """Relay ``block`` to every peer as a sketch."""
        # A block we announce is a block we hold: gate the echoes peers
        # relay back, or they cost a pointless getblocktxn round-trip
        # (our own txs left the mempool when the block connected).
        self.daemon.mark_block_seen(block.hash)
        message = make_compact_block(block)
        gossip = self.daemon.gossip
        for peer in gossip.peers:
            if peer in exclude:
                continue
            self.network.send(gossip.name, peer, message, parent=parent)
            self.compact_announced += 1

    def _on_get_block_txn(self, envelope: Envelope) -> None:
        request = envelope.payload
        record = self.daemon.node.chain.record_for(request.block_hash)
        if record is None:
            return  # we no longer have it; requester recovers via sync
        transactions = record.block.transactions
        payload = []
        for index in request.indexes:
            if 0 <= index < len(transactions):
                payload.append(transactions[index].serialize())
        if len(payload) != len(request.indexes):
            return  # malformed request
        self.network.send(
            self.daemon.name, envelope.source,
            BlockTxnMessage(block_hash=request.block_hash,
                            indexes=request.indexes,
                            transactions=tuple(payload)),
        )

    # -- receiver side ---------------------------------------------------------

    def _on_compact(self, envelope: Envelope) -> None:
        message = envelope.payload
        header = BlockHeader.deserialize(message.header_bytes)
        block_hash = header.hash
        if not self.daemon.mark_block_seen(block_hash):
            return
        self.compact_received += 1
        slots: list[Optional[Transaction]] = [None] * message.tx_count
        for index, raw in message.prefilled:
            if 0 <= index < message.tx_count:
                slots[index] = Transaction.deserialize(raw)
        open_indexes = [i for i, slot in enumerate(slots) if slot is None]
        if len(open_indexes) != len(message.short_ids):
            self.reconstruct_failed += 1
            return  # malformed sketch
        by_short_id: dict[bytes, list[Transaction]] = {}
        for tx in self.daemon.node.mempool.transactions():
            by_short_id.setdefault(short_txid(block_hash, tx.txid),  # lint: allow(taint-float) — header.hash digests serialize(), which quantizes the float timestamp to int milliseconds first
                                   []).append(tx)
        missing = []
        for slot_index, sid in zip(open_indexes, message.short_ids):
            candidates = by_short_id.get(sid)
            if candidates is not None and len(candidates) == 1:
                slots[slot_index] = candidates[0]
                self.txs_from_mempool += 1
            else:
                # Absent — or ambiguous, which only a refetch can settle.
                missing.append(slot_index)
        if not missing:
            block = Block(header=header, transactions=list(slots))
            if block.compute_merkle_root() == header.merkle_root:
                self.reconstructed_from_mempool += 1
                self.daemon.enqueue_network_block(
                    block, origin=envelope.source, trace=envelope.trace)
                return
            # A short-id collision picked the wrong tx: refetch everything.
            missing = open_indexes
        partial = _PartialBlock(header=header, slots=slots,
                                trace=envelope.trace,
                                requested_all=missing == open_indexes)
        self._request_missing(block_hash, envelope.source, tuple(missing),
                              partial)

    def _request_missing(self, block_hash: bytes, origin: str,
                         missing: tuple[int, ...],
                         partial: _PartialBlock) -> None:
        """Ask ``origin`` for the ``missing`` positions; a reply counts
        only if it carries exactly those."""
        self.fallback_roundtrips += 1
        self.requests.ask(block_hash, origin,
                          GetBlockTxnMessage(block_hash=block_hash,
                                             indexes=missing),
                          self.FALLBACK_TIMEOUT, kind=missing,
                          context=partial)

    def _on_expire(self, request: Any) -> None:
        # Give up on the sketch; the periodic SyncAgent round will fetch
        # the full block if gossip never re-offers it.
        self.reconstruct_failed += 1

    def _reject_reply(self, peer: str) -> None:
        """A reply that leaves a slot empty, or a refetch of every position
        that still rebuilds the wrong Merkle root, is a false answer: the
        sketch is given up and the peer that sent it scores a failure."""
        self.reconstruct_failed += 1
        self.requests.fail(peer)

    def _on_block_txn(self, envelope: Envelope) -> None:
        message = envelope.payload
        request = self.requests.answer(message.block_hash, envelope.source,
                                       message.indexes)
        if request is None:
            return  # late, never asked, or other positions: keep waiting
        partial = request.context
        for index, raw in zip(message.indexes, message.transactions):
            partial.slots[index] = Transaction.deserialize(raw)
            self.txs_fetched += 1
        if any(slot is None for slot in partial.slots):
            self._reject_reply(request.peer)
            return
        block = Block(header=partial.header,
                      transactions=list(partial.slots))
        if block.compute_merkle_root() != partial.header.merkle_root:
            if partial.requested_all:
                self._reject_reply(request.peer)
                return
            # Mempool collision on a slot we thought we had: refetch all.
            count = len(partial.slots)
            refetch = _PartialBlock(header=partial.header,
                                    slots=[None] * count,
                                    trace=partial.trace, requested_all=True)
            self._request_missing(partial.header.hash, request.peer,
                                  tuple(range(count)), refetch)
            return
        self.reconstructed_after_fallback += 1
        self.daemon.enqueue_network_block(
            block, origin=request.peer, trace=partial.trace)
