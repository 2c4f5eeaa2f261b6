"""Regional checkpoint anchoring onto the global settlement chain.

One :class:`CheckpointAgent` runs per region of a hierarchical
federation.  It watches the region's gateway sub-chain, accumulates the
transactions each epoch settles, and periodically commits a checkpoint
transaction — an OP_RETURN digest built by
:mod:`repro.blockchain.checkpoint` — onto the settlement chain through
the region's anchor daemon.

Two delivery details matter on a lossy, partitionable WAN:

* **At most one outstanding checkpoint per region.**  A new epoch is only
  committed once the previous checkpoint confirmed on the anchor chain.
  This keeps the anchor's per-region monotonicity rules trivially
  satisfiable (no two same-region checkpoints can race inside one block)
  and means a partition simply pauses the epoch counter — settled
  transactions keep accumulating and are committed in one catch-up
  checkpoint after the heal.
* **Stuck checkpoints are re-sent directly.**  Gossip never re-relays a
  transaction its dedup cache already knows, and the anti-entropy sync
  agents carry mempool contents only when sync runs — so with sync off a
  checkpoint dropped by a partition would never reach the anchor master.
  The agent re-sends the raw :class:`~repro.p2p.message.TxMessage` to its
  anchor peers every interval until the checkpoint confirms.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.blockchain.checkpoint import (EMPTY_EPOCH_ROOT,
                                         build_checkpoint_payload)
from repro.blockchain.merkle import merkle_root
from repro.blockchain.transaction import Transaction
from repro.blockchain.wallet import Wallet
from repro.core.costmodel import CostModel
from repro.core.daemon import BlockchainDaemon
from repro.errors import DaemonDown, ValidationError
from repro.obs.registry import Counted, attrs
from repro.p2p.message import TxMessage
from repro.sim.core import Simulator

__all__ = ["CheckpointAgent"]


class CheckpointAgent(Counted):
    """Commits one region's sub-chain digests onto the settlement chain.

    :param sub_daemon: the daemon following the region's gateway
        sub-chain (read-only: tip and connected transactions).
    :param anchor_daemon: this region's daemon on the settlement chain;
        checkpoint transactions are built and broadcast through it.
    :param anchor_wallet: a funded wallet on the settlement chain that
        carries the OP_RETURN commitments.
    """

    COUNTERS = attrs("checkpoints_committed")
    # The live height of the sub-chain this agent anchors.
    GAUGES = {"subchain_height": "sub_daemon.node.height"}

    def __init__(self, sim: Simulator, region_id: int,
                 sub_daemon: BlockchainDaemon,
                 anchor_daemon: BlockchainDaemon,
                 anchor_wallet: Wallet,
                 cost_model: CostModel, rng: random.Random,
                 interval: float = 60.0) -> None:
        self.sim = sim
        self.region_id = region_id
        self.sub_daemon = sub_daemon
        self.anchor_daemon = anchor_daemon
        self.anchor_wallet = anchor_wallet
        self.cost_model = cost_model
        self.rng = rng
        self.interval = interval

        self.epoch = 0
        self.resends = 0
        # txids settled on the sub-chain since the last committed epoch,
        # in connect order (the preimage of the next settled root).
        self._epoch_txids: list[bytes] = []
        # Every txid pending or settled: a block connected again (a
        # re-sync after a state-loss restart) settles nothing twice.
        self._entered: set[bytes] = set()
        # epoch -> the txids its settled root commits to, kept so
        # settlement proofs (Merkle branches) can be produced later.
        self.epoch_settled: dict[int, tuple[bytes, ...]] = {}
        # The one checkpoint allowed in flight, until it confirms.
        self._outstanding: Optional[Transaction] = None

        sub_daemon.node.chain.add_connect_listener(self._on_block)

    # -- sub-chain watch -------------------------------------------------------

    def _on_block(self, block, height: int) -> None:
        for tx in block.transactions:
            if not tx.is_coinbase and tx.txid not in self._entered:
                self._entered.add(tx.txid)
                self._epoch_txids.append(tx.txid)

    # -- the commit loop -------------------------------------------------------

    def start(self):
        return self.sim.process(self._loop())

    def _loop(self):
        while True:
            yield self.sim.timeout(self.interval)
            if self._outstanding is not None:
                if self._confirmed(self._outstanding.txid):
                    self._outstanding = None
                else:
                    self._resend(self._outstanding)
                    continue
            yield from self._commit()

    def _confirmed(self, txid: bytes) -> bool:
        return bool(self.anchor_daemon.node.chain.confirmations(txid))

    def _commit(self):
        """Build and broadcast the next epoch's checkpoint."""
        sub_chain = self.sub_daemon.node.chain
        txids = tuple(self._epoch_txids)
        settled_root = merkle_root(list(txids)) if txids else EMPTY_EPOCH_ROOT
        payload = build_checkpoint_payload(
            region_id=self.region_id,
            epoch=self.epoch + 1,
            height=sub_chain.height,
            tip_hash=sub_chain.tip.hash,
            settled_root=settled_root,
            tx_count=len(txids),
        )
        try:
            tx = yield self.anchor_daemon.rpc(
                lambda: self.anchor_wallet.create_announcement(payload)
            )
        except (ValidationError, DaemonDown):
            # Anchor wallet momentarily out of spendable coins (e.g. the
            # previous carrier's change not yet confirmed), or its daemon
            # down: retry next tick, the epoch has not advanced.
            return
        try:
            accepted = yield self.anchor_daemon.call(
                self.cost_model.daemon_tx_process,
                lambda: self.anchor_daemon.gossip.broadcast_transaction(tx),
            )
        except DaemonDown:
            accepted = False
        if not accepted:
            self.anchor_wallet.release_pending(tx)
            return
        self.epoch += 1
        self.epoch_settled[self.epoch] = txids
        del self._epoch_txids[:len(txids)]
        self._outstanding = tx
        self.checkpoints_committed += 1

    def _resend(self, tx: Transaction) -> None:
        """Push a stuck checkpoint directly to every anchor peer.

        The gossip dedup cache will not re-relay it.  Block sync carries
        mempool contents only when it runs (``sync_interval > 0``: the
        tip probe sends the mempool inventory), so with sync off this
        direct push is the only road to the anchor master after a healed
        partition.
        """
        gossip = self.anchor_daemon.gossip
        for peer in gossip.peers:
            gossip.network.send(gossip.name, peer, TxMessage(transaction=tx))
        self.resends += 1
