"""Block assembly and mining.

The paper's deployment has a single AWS master node that mines on a
schedule while the PlanetLab gateways only submit transactions — the
Multichain private-chain pattern.  :class:`Miner` assembles blocks from a
mempool, with no proof-of-work: a block is valid by its contents, and who
may produce one is the schedule's business.  A proof-of-stake leader's
miner also endorses them (:func:`repro.blockchain.pos.endorse`).
Scheduling lives in the simulation layer (:mod:`repro.core.producer`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.blockchain.block import Block
from repro.blockchain.chain import Chain
from repro.blockchain.mempool import Mempool
from repro.blockchain.params import COINBASE_REWARD, ChainParams
from repro.blockchain.pos import endorse
from repro.blockchain.transaction import (
    COINBASE_OUTPOINT,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.crypto import ecdsa
from repro.errors import ValidationError
from repro.script.builder import p2pkh_locking
from repro.script.script import Script, encode_number

__all__ = ["Miner"]


@dataclass
class Miner:
    """Assembles blocks paying ``reward_pubkey_hash``.

    With an ``endorsing_key`` (a slot leader's), every template carries
    that key's endorsement.
    """

    chain: Chain
    mempool: Mempool
    reward_pubkey_hash: bytes
    endorsing_key: Optional[ecdsa.PrivateKey] = None

    def __post_init__(self) -> None:
        if len(self.reward_pubkey_hash) != 20:
            raise ValidationError(
                f"reward pubkey hash must be 20 bytes, "
                f"got {len(self.reward_pubkey_hash)}"
            )

    @property
    def params(self) -> ChainParams:
        return self.chain.params

    def build_coinbase(self, height: int, fees: int) -> Transaction:
        """The subsidy+fees transaction for a block at ``height``.

        The height is pushed into the coinbase scriptSig (as BIP 34 does)
        so coinbases at different heights never collide on txid.
        """
        return Transaction(
            inputs=[TxInput(outpoint=COINBASE_OUTPOINT,
                            script_sig=Script([encode_number(height)]))],
            outputs=[TxOutput(
                value=COINBASE_REWARD + fees,
                script_pubkey=p2pkh_locking(self.reward_pubkey_hash),
            )],
        )

    def build_template(self, timestamp: float) -> Block:
        """Assemble a block on the current tip.

        The coinbase claims the fees admission recorded for the selected
        transactions; connecting the block validates them again.
        """
        height = self.chain.height + 1
        # Reserve room for the header (84 B) and the coinbase (~90 B,
        # plus slack for a large fee value).
        budget = self.params.max_block_size - 250
        selected = self.mempool.select_for_block(budget)
        fees = sum(self.mempool.fee(tx.txid) for tx in selected)
        coinbase = self.build_coinbase(height, fees)
        template = Block.assemble(
            prev_hash=self.chain.tip.hash,
            timestamp=timestamp,
            transactions=[coinbase, *selected],
        )
        if self.endorsing_key is not None:
            return endorse(template, self.endorsing_key)
        return template

    def mine(self, timestamp: float) -> Block:
        """Produce a valid block at ``timestamp``: the template itself."""
        return self.build_template(timestamp)

    def mine_and_connect(self, timestamp: float) -> Block:
        """Mine a block, connect it locally, and clear its pool entries."""
        block = self.mine(timestamp)
        self.chain.add_block(block)
        self.mempool.remove_confirmed(block.transactions)
        return block
