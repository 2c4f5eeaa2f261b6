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
* the slot's leader *endorses* its block (:func:`endorse`): an ECDSA
  signature over the hash of the unendorsed block, pushed as the last
  element of the coinbase scriptSig.  :meth:`StakeRegistry.check` is the
  leader rule every node's :class:`~repro.blockchain.engine.ValidationEngine`
  applies to every block it attaches, whichever path delivered it.

Fork choice stays longest-chain; with honest leaders and synchronized
slots there is at most one block per slot, so forks only arise from
equivocation — which the gossip layer surfaces as a reorg, exactly like
a fork on the scheduled chain.  No chain grinds nonces (there is no
proof-of-work), so the endorsement also covers the header's nonce.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.blockchain.block import Block
from repro.blockchain.transaction import Transaction
from repro.crypto import ecdsa
from repro.crypto.hashing import sha256
from repro.errors import ConfigurationError, ValidationError
from repro.script.script import Script

__all__ = ["StakeRegistry", "endorse", "slot_of"]

# A producer wakes this long after its slot opens.
_SLOT_LAG = 0.05


def slot_of(timestamp: float, slot_duration: float) -> int:
    """The slot index a timestamp falls in."""
    if slot_duration <= 0:
        raise ConfigurationError(f"slot duration must be positive: {slot_duration}")
    return int(timestamp // slot_duration)


def _with_coinbase_pushes(block: Block, pushes: list) -> Block:
    """``block`` with its coinbase scriptSig replaced by ``pushes``."""
    coinbase = block.coinbase
    rewritten = Transaction(
        inputs=[replace(coinbase.inputs[0], script_sig=Script(pushes))],
        outputs=coinbase.outputs, locktime=coinbase.locktime,
        version=coinbase.version)
    return Block.assemble(
        prev_hash=block.header.prev_hash, timestamp=block.header.timestamp,
        transactions=[rewritten, *block.transactions[1:]],
        nonce=block.header.nonce)


def endorse(template: Block, private_key: ecdsa.PrivateKey) -> Block:
    """``template`` endorsed by its producer.

    The 64-byte ``r ‖ s`` signature over ``template.hash`` is appended to
    the coinbase scriptSig.  The block hash covers the coinbase, so the
    signature cannot sign the endorsed block itself; it signs the block
    without it — every header field and every transaction, the coinbase's
    outputs included.
    """
    pushes = list(template.coinbase.inputs[0].script_sig.elements)
    signature = private_key.sign(template.hash).to_bytes()
    return _with_coinbase_pushes(template, pushes + [signature])


@dataclass
class StakeRegistry:
    """The stake distribution, the slot-leader lottery and its rule.

    Stakeholders register a (name, ECDSA public key, stake) triple; the
    registry is identical on every node (in a production system it would
    be derived from chain state; here it is bootstrap configuration, like
    Multichain's permissioned miner list).
    """

    epoch_seed: bytes = b"bcwan-pos-epoch-0"
    slot_duration: float = 15.0
    # The chain's height when production started: the genesis era.
    genesis_height: int = 0
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

    def leads(self, name: str, now: float) -> bool:
        return self.leader_for_time(now) == name

    def wait(self, now: float) -> float:
        """Seconds from ``now`` until the next slot's producer wakes."""
        slot = slot_of(now, self.slot_duration) + 1
        return slot * self.slot_duration - now + _SLOT_LAG

    def check(self, block: Block, height: int) -> None:
        """The leader rule: raise unless the slot's leader endorsed
        ``block``, which would sit at ``height``.

        The genesis era (heights up to :attr:`genesis_height`, mined by the
        chain's master before the network went live) is exempt; whatever
        its timestamp, no block above it is.  The endorsement must be
        low-S, so a relay cannot re-encode it into a second valid block.
        """
        if height <= self.genesis_height:
            return
        timestamp = block.header.timestamp
        leader = self.leader_for_time(timestamp)
        pushes = list(block.coinbase.inputs[0].script_sig.elements)
        signature = None
        if pushes and isinstance(pushes[-1], bytes):
            try:
                signature = ecdsa.Signature.from_bytes(pushes[-1])
            except ecdsa.ECDSAError:
                pass
        if signature is None or not self._pubkeys[leader].verify(
                _with_coinbase_pushes(block, pushes[:-1]).hash, signature,
                require_low_s=True):
            raise ValidationError(
                f"block {block.hash.hex()[:16]}.. lacks the endorsement of "
                f"slot {slot_of(timestamp, self.slot_duration)}'s leader "
                f"{leader}")
