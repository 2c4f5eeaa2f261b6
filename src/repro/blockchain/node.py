"""A full node: chain + mempool + relay hooks.

:class:`FullNode` is the pure (simulation-agnostic) state machine one
BcWAN daemon runs: it validates and stores blocks and admits
transactions, and gossip relays what its verdicts accept.  Timing
behaviour — in particular the Multichain-style *block verification
stall* that produces the paper's Fig. 6 — is layered on by
:class:`repro.core.daemon.BlockchainDaemon`.
"""

from __future__ import annotations

import io
from typing import Optional

from repro.blockchain.block import Block
from repro.blockchain.chain import AddBlockResult, Chain
from repro.blockchain.checkpoint import CheckpointRules
from repro.blockchain.engine import ValidationEngine
from repro.blockchain.mempool import REJECT_DUPLICATE, AcceptResult, Mempool
from repro.blockchain.params import ChainParams
from repro.blockchain.store import load_chain
from repro.blockchain.transaction import Transaction
from repro.errors import ValidationError

__all__ = ["FullNode"]


class FullNode:
    """Chain state plus mempool for one network participant."""

    def __init__(self, params: Optional[ChainParams], name: str) -> None:
        self.name = name
        self.chain = Chain(params)
        self.mempool = Mempool(self.chain)
        self.transactions_processed = 0

    def restart(self, store: Optional[str] = None) -> None:
        """Come back from a crash in place, from what survived on disk.

        The mempool empties, the chain goes back to
        genesis and the engine gets fresh checkpoint rules; its verify
        flag, verdict memo and leader rule stay.  Then ``store`` — a
        :func:`~repro.blockchain.store.save_chain` snapshot, ``None``
        for total state loss — is replayed under those rules
        (:func:`~repro.blockchain.store.load_chain`).  Everything built
        on this node keeps following it.
        """
        self.mempool.clear()
        self.chain.reset()
        if self.engine.checkpoint_rules is not None:
            self.engine.checkpoint_rules = CheckpointRules()
        if store is not None:
            load_chain(io.StringIO(store), self.chain)

    @property
    def params(self) -> ChainParams:
        return self.chain.params

    @property
    def engine(self) -> ValidationEngine:
        """The staged validation engine shared by chain and mempool."""
        return self.chain.engine

    @property
    def height(self) -> int:
        return self.chain.height

    def submit_transaction(self, tx: Transaction) -> AcceptResult:
        """Validate a transaction into the mempool; the verdict is the
        mempool's, after two cheap duplicate checks of the node's own."""
        self.transactions_processed += 1
        if tx.txid in self.mempool:
            return AcceptResult(accepted=False, txid=tx.txid,
                                reason="already in mempool",
                                reason_code=REJECT_DUPLICATE)
        if self.chain.confirmations(tx.txid):
            return AcceptResult(accepted=False, txid=tx.txid,
                                reason="already confirmed",
                                reason_code=REJECT_DUPLICATE)
        return self.mempool.accept(tx)

    def submit_block(self, block: Block) -> AddBlockResult:
        """Validate a block into the chain; evicts confirmed pool entries.

        A :class:`ValidationError` comes back as an ``"invalid"`` result
        carrying its message, as from :meth:`Chain.add_blocks`.
        """
        try:
            result = self.chain.add_block(block)
        except ValidationError as exc:
            return AddBlockResult(status="invalid", reason=str(exc))
        if result.status == "active":
            for block_hash in result.connected:
                record = self.chain.record_for(block_hash)
                if record is not None:
                    self.mempool.remove_confirmed(record.block.transactions)
            # A reorg puts disconnected transactions back in play; real
            # nodes resurrect them.  We do too (best effort), oldest
            # block first (``disconnected`` is tip first), so a child
            # from a later block finds its parent back in the pool.
            for block_hash in reversed(result.disconnected):
                record = self.chain.record_for(block_hash)
                if record is None:
                    continue
                for tx in record.block.transactions[1:]:
                    if not self.chain.confirmations(tx.txid):
                        # Best effort: the verdict is advisory here — a
                        # transaction that no longer resolves simply
                        # stays out of the pool.
                        self.mempool.accept(tx)
        return result
