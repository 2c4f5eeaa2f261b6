"""Proof-of-stake block production — the paper's §6 future-work item.

"The Proof-of-Work is not suitable for edge nodes to run the blockchain
as this is a computational power based method of election.  Other methods
such as Proof-of-stake do not rely on computational power and thus can
help to further close the gap of the blockchain to the edge nodes."

This module implements a simple, deterministic slot-lottery PoS in the
Ouroboros spirit (the paper cites Kiayias et al.):

* time is divided into fixed *slots* (one potential block per slot);
* each slot has a leader drawn from the registered stakeholders with
  probability proportional to stake;
* the draw is deterministic: a follow-the-stake walk over
  ``H(epoch_seed ‖ slot)``, so every node computes the same leader with
  no communication and no work;
* the slot's leader endorses its block with a signature over the block
  hash (:meth:`StakeRegistry.sign_block`).  **The endorsement is not
  relayed yet** (ROADMAP item 6): a peer checks only that the block's
  coinbase pays its slot's leader (``BcWANNetwork._setup_pos``), never
  :meth:`StakeRegistry.verify_block_signature`, so today any producer's
  well-formed block that names the leader as payee is adopted.

Fork choice stays longest-chain; with honest leaders and synchronized
slots there is at most one block per slot, so forks only arise from
equivocation — which the gossip layer surfaces as a reorg, exactly like
the PoW path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.blockchain.block import Block
from repro.blockchain.chain import Chain
from repro.blockchain.mempool import Mempool
from repro.blockchain.miner import Miner
from repro.crypto import ecdsa
from repro.crypto.hashing import sha256
from repro.errors import ConfigurationError, ValidationError

__all__ = ["StakeRegistry", "PoSProducer", "slot_of"]


def slot_of(timestamp: float, slot_duration: float) -> int:
    """The slot index a timestamp falls in."""
    if slot_duration <= 0:
        raise ConfigurationError(f"slot duration must be positive: {slot_duration}")
    return int(timestamp // slot_duration)


@dataclass
class StakeRegistry:
    """The stake distribution and the slot-leader lottery.

    Stakeholders register a (name, ECDSA public key, stake) triple; the
    registry is identical on every node (in a production system it would
    be derived from chain state; here it is bootstrap configuration, like
    Multichain's permissioned miner list).
    """

    epoch_seed: bytes = b"bcwan-pos-epoch-0"
    slot_duration: float = 15.0
    _stakes: dict[str, int] = field(default_factory=dict)
    _pubkeys: dict[str, ecdsa.PublicKey] = field(default_factory=dict)

    def register(self, name: str, pubkey: ecdsa.PublicKey, stake: int) -> None:
        if stake <= 0:
            raise ConfigurationError(f"stake must be positive: {stake}")
        if name in self._stakes:
            raise ConfigurationError(f"stakeholder already registered: {name}")
        self._stakes[name] = stake
        self._pubkeys[name] = pubkey

    @property
    def total_stake(self) -> int:
        return sum(self._stakes.values())

    def stake_of(self, name: str) -> int:
        return self._stakes.get(name, 0)

    def leader_for_slot(self, slot: int) -> str:
        """Deterministic follow-the-stake leader election for ``slot``."""
        if not self._stakes:
            raise ConfigurationError("no stakeholders registered")
        digest = sha256(self.epoch_seed + slot.to_bytes(8, "big"))
        ticket = int.from_bytes(digest, "big") % self.total_stake
        for name in sorted(self._stakes):
            ticket -= self._stakes[name]
            if ticket < 0:
                return name
        raise AssertionError("unreachable: ticket below total stake")

    def leader_for_time(self, timestamp: float) -> str:
        return self.leader_for_slot(slot_of(timestamp, self.slot_duration))

    # -- block endorsement -----------------------------------------------------

    def sign_block(self, block: Block,
                   private_key: ecdsa.PrivateKey) -> bytes:
        """A leader's endorsement over the block hash."""
        return private_key.sign(block.hash).to_bytes()

    def verify_block_signature(self, block: Block, producer: str,
                               signature: bytes) -> bool:
        """Check that ``block`` was endorsed by its slot's rightful leader."""
        slot = slot_of(block.header.timestamp, self.slot_duration)
        if self.leader_for_slot(slot) != producer:
            return False
        pubkey = self._pubkeys.get(producer)
        if pubkey is None:
            return False
        try:
            parsed = ecdsa.Signature.from_bytes(signature)
        except ecdsa.ECDSAError:
            return False
        return pubkey.verify(block.hash, parsed)


@dataclass
class PoSProducer:
    """One stakeholder's block-production role.

    Wraps the ordinary :class:`Miner` for template assembly, but only
    produces when this stakeholder leads the current slot — no nonce
    grinding anywhere (set ``pow_bits=0`` in the chain params).
    """

    name: str
    registry: StakeRegistry
    chain: Chain
    mempool: Mempool
    private_key: ecdsa.PrivateKey
    reward_pubkey_hash: bytes

    def __post_init__(self) -> None:
        if self.registry.stake_of(self.name) <= 0:
            raise ConfigurationError(
                f"{self.name} holds no stake; cannot produce blocks"
            )
        self._miner = Miner(chain=self.chain, mempool=self.mempool,
                            reward_pubkey_hash=self.reward_pubkey_hash)

    def is_leader(self, timestamp: float) -> bool:
        return self.registry.leader_for_time(timestamp) == self.name

    def try_produce(self, timestamp: float) -> Optional[tuple[Block, bytes]]:
        """Produce and locally connect a block if we lead this slot.

        Returns ``(block, endorsement_signature)`` or None when another
        stakeholder leads the slot.
        """
        if not self.is_leader(timestamp):
            return None
        block = self._miner.build_template(timestamp)
        if not block.header.meets_target(self.chain.params.pow_bits):
            raise ValidationError(
                "PoS chains must run with pow_bits=0 (no grinding)"
            )
        signature = self.registry.sign_block(block, self.private_key)
        self.chain.add_block(block)
        self.mempool.remove_confirmed(block.transactions)
        return block, signature
