"""Checkpoint commitments: regional sub-chains anchored on a settlement chain.

A hierarchical BcWAN federation runs one gateway sub-chain per region and
a single global *settlement chain*.  Every ``checkpoint_interval`` the
region's master commits a **checkpoint transaction** to the settlement
chain: an OP_RETURN output carrying the region id, a monotonically
increasing epoch number, the sub-chain tip (height + hash), and a Merkle
commitment over the transactions the region settled during the epoch.
Cross-region fair exchanges escrow and claim on the paying recipient's
sub-chain; the checkpoint is what lets anyone audit that settlement from
the global chain alone, via a standard Merkle inclusion proof.

Layout:

* payload codec — :func:`build_checkpoint_payload` /
  :func:`parse_checkpoint_payload` / :func:`iter_checkpoints`;
* settlement proofs — :func:`settlement_proof` / :func:`verify_settlement`
  on top of :mod:`repro.blockchain.merkle`;
* anchor-side consensus — :class:`CheckpointRules`, attached to the
  settlement chain's :class:`~repro.blockchain.engine.ValidationEngine`
  (``engine.checkpoint_rules``) so stale or regressing checkpoints are
  rejected at mempool admission *and* block connection;
* chain queries — :func:`latest_checkpoints`, the per-region view an
  auditor (or the chaos convergence oracle) reads off the anchor chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.blockchain.merkle import merkle_branch, verify_proof
from repro.blockchain.transaction import Transaction
from repro.errors import ValidationError
from repro.script.builder import op_return_data

__all__ = [
    "CHECKPOINT_MAGIC",
    "EMPTY_EPOCH_ROOT",
    "Checkpoint",
    "CheckpointRules",
    "build_checkpoint_payload",
    "parse_checkpoint_payload",
    "iter_checkpoints",
    "settlement_proof",
    "verify_settlement",
    "latest_checkpoints",
]

CHECKPOINT_MAGIC = b"BCWCP1"

# Committed as the settled-set root of an epoch in which the sub-chain
# confirmed no transactions; no txid can prove membership against it.
EMPTY_EPOCH_ROOT = b"\x00" * 32

_PAYLOAD_LENGTH = len(CHECKPOINT_MAGIC) + 2 + 4 + 4 + 32 + 32 + 4


@dataclass(frozen=True)
class Checkpoint:
    """One decoded sub-chain digest as committed on the anchor chain."""

    region_id: int
    epoch: int
    height: int         # sub-chain height at commit time
    tip_hash: bytes     # sub-chain tip block hash
    settled_root: bytes  # Merkle root over the epoch's settled txids
    tx_count: int       # how many txids the root commits to


def build_checkpoint_payload(region_id: int, epoch: int, height: int,
                             tip_hash: bytes, settled_root: bytes,
                             tx_count: int) -> bytes:
    """Serialize one checkpoint into an OP_RETURN payload."""
    if not 0 <= region_id < 1 << 16:
        raise ValidationError(f"region id out of range: {region_id}")
    if epoch < 0 or height < 0 or tx_count < 0:
        raise ValidationError("checkpoint fields must be non-negative")
    if len(tip_hash) != 32 or len(settled_root) != 32:
        raise ValidationError("checkpoint hashes must be 32 bytes")
    return (CHECKPOINT_MAGIC
            + region_id.to_bytes(2, "big")
            + epoch.to_bytes(4, "big")
            + height.to_bytes(4, "big")
            + tip_hash
            + settled_root
            + tx_count.to_bytes(4, "big"))


def parse_checkpoint_payload(payload: bytes) -> Optional[Checkpoint]:
    """Decode a checkpoint payload.

    Returns ``None`` for payloads that are not checkpoints (no magic);
    raises :class:`ValidationError` for magic-prefixed payloads that are
    malformed — on the anchor chain a broken checkpoint is a consensus
    fault, not something to skip silently.
    """
    if not payload.startswith(CHECKPOINT_MAGIC):
        return None
    if len(payload) != _PAYLOAD_LENGTH:
        raise ValidationError(
            f"malformed checkpoint payload: {len(payload)} bytes, "
            f"expected {_PAYLOAD_LENGTH}"
        )
    offset = len(CHECKPOINT_MAGIC)
    region_id = int.from_bytes(payload[offset:offset + 2], "big")
    epoch = int.from_bytes(payload[offset + 2:offset + 6], "big")
    height = int.from_bytes(payload[offset + 6:offset + 10], "big")
    tip_hash = payload[offset + 10:offset + 42]
    settled_root = payload[offset + 42:offset + 74]
    tx_count = int.from_bytes(payload[offset + 74:offset + 78], "big")
    return Checkpoint(region_id=region_id, epoch=epoch, height=height,
                      tip_hash=tip_hash, settled_root=settled_root,
                      tx_count=tx_count)


def iter_checkpoints(tx: Transaction) -> Iterator[Checkpoint]:
    """Yield every checkpoint committed by ``tx``'s OP_RETURN outputs."""
    for output in tx.outputs:
        data = op_return_data(output.script_pubkey)
        checkpoint = None if data is None else parse_checkpoint_payload(data)
        if checkpoint is not None:
            yield checkpoint


# -- settlement proofs ---------------------------------------------------------

def settlement_proof(txids: list[bytes], txid: bytes) -> tuple[list[bytes], int]:
    """The Merkle branch proving ``txid`` is in an epoch's settled set.

    Returns ``(branch, index)`` for :func:`verify_settlement`.  Raises
    :class:`ValidationError` when the txid was not settled in the epoch.
    """
    try:
        index = txids.index(txid)
    except ValueError:
        raise ValidationError(
            f"transaction {txid.hex()[:16]}.. not in the epoch's settled set"
        ) from None
    return merkle_branch(txids, index), index


def verify_settlement(txid: bytes, branch: list[bytes], index: int,
                      checkpoint: Checkpoint) -> bool:
    """Whether ``txid`` is committed by ``checkpoint``'s settled root.

    The proof's shape is pinned by the checkpoint's ``tx_count``, so an
    internal node of the tree cannot pass for a settled txid.
    """
    return verify_proof(txid, branch, index, checkpoint.tx_count,
                        checkpoint.settled_root)


# -- anchor-side consensus ------------------------------------------------------

class CheckpointRules:
    """Monotonicity rules the settlement chain enforces per region.

    A checkpoint is valid only when its epoch strictly increases and its
    sub-chain height never regresses relative to the region's last
    accepted checkpoint.  The rules object is attached to the anchor
    engine (``engine.checkpoint_rules``); the engine consults it at
    mempool admission and while connecting blocks, and commits accepted
    checkpoints atomically with the block.

    The rules see a block's first connect only: a disconnect does not
    revert them, and a block connected before (on a reorg's new branch,
    or the old branch a failed reorg restores) replays its UTXO delta
    without consulting them.  A checkpoint already applied is tolerated
    by txid when it comes back through the rules, in another block or
    re-admitted to the mempool after a disconnect.
    """

    def __init__(self) -> None:
        self._latest: dict[int, Checkpoint] = {}
        self._applied_txids: set[bytes] = set()

    def check(self, checkpoint: Checkpoint, txid: bytes,
              pending: Optional[dict[int, Checkpoint]] = None) -> None:
        """Raise :class:`ValidationError` unless ``checkpoint`` advances.

        ``pending`` overlays checkpoints staged earlier in the same block,
        so two same-region checkpoints in one block must still be strictly
        ordered between themselves.
        """
        if txid in self._applied_txids:
            return  # replay of an already-anchored checkpoint (reorg restore)
        reference = None
        if pending is not None:
            reference = pending.get(checkpoint.region_id)
        if reference is None:
            reference = self._latest.get(checkpoint.region_id)
        if reference is None:
            return
        if checkpoint.epoch <= reference.epoch:
            raise ValidationError(
                f"stale checkpoint for region {checkpoint.region_id}: "
                f"epoch {checkpoint.epoch} <= anchored epoch "
                f"{reference.epoch}"
            )
        if checkpoint.height < reference.height:
            raise ValidationError(
                f"checkpoint height regression for region "
                f"{checkpoint.region_id}: {checkpoint.height} < "
                f"{reference.height}"
            )

    def stage(self, checkpoint: Checkpoint, txid: bytes,
              pending: dict[int, Checkpoint]) -> None:
        """Validate against committed + staged state, then stage."""
        self.check(checkpoint, txid, pending)
        if txid not in self._applied_txids:
            pending[checkpoint.region_id] = checkpoint

    def apply(self, pending: dict[int, Checkpoint],
              txids: list[bytes]) -> None:
        """Commit a connected block's staged checkpoints."""
        self._latest.update(pending)
        self._applied_txids.update(txids)


# -- chain queries --------------------------------------------------------------

def latest_checkpoints(chain) -> dict[int, Checkpoint]:
    """The newest anchored checkpoint per region, read off the chain.

    Walks the active chain, so the result reflects exactly what the
    anchor's consensus accepted — the auditor's view, independent of any
    engine-internal state.
    """
    latest: dict[int, Checkpoint] = {}
    for _height, block in chain.iter_active_blocks(start_height=1):
        for tx in block.transactions:
            for checkpoint in iter_checkpoints(tx):
                current = latest.get(checkpoint.region_id)
                if current is None or checkpoint.epoch > current.epoch:
                    latest[checkpoint.region_id] = checkpoint
    return latest
