"""Wire messages exchanged between BcWAN gateways over TCP/IP.

The overlay carries two protocols: blockchain gossip (inventories,
transactions, blocks — the Multichain peer protocol) and the BcWAN
delivery handshake of Fig. 3 step 7 (the gateway pushes ``Em``, ``ePk``
and ``Sig`` to the recipient it resolved from the chain).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "Envelope",
    "TxMessage",
    "BlockMessage",
    "CompactBlockMessage",
    "GetBlockTxnMessage",
    "BlockTxnMessage",
    "DeliveryMessage",
    "DeliveryAck",
    "ClaimMessage",
]


@dataclass(frozen=True)
class Envelope:
    """Routing wrapper: who sent what to whom.

    ``trace`` carries the in-flight ``wan.transit`` span (if tracing is
    on) so a handler can parent its own spans under the delivery.
    """

    source: str
    destination: str
    payload: Any
    trace: Any = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class TxMessage:
    """A full transaction."""

    transaction: Any  # repro.blockchain.Transaction


@dataclass(frozen=True)
class BlockMessage:
    """A full block."""

    block: Any  # repro.blockchain.Block


@dataclass(frozen=True)
class CompactBlockMessage:
    """BIP 152-style block sketch: header plus short txids.

    Receivers rebuild the block from their mempool; ``prefilled`` carries
    ``(index, serialized_tx)`` pairs for transactions the sender knows the
    receiver cannot have (always the coinbase).  ``short_ids`` covers the
    remaining transactions in block order, each the first
    ``SHORT_TXID_BYTES`` of ``double_sha256(block_hash || txid)`` — salted
    by the block hash so collisions do not repeat across blocks.
    """

    header_bytes: bytes
    tx_count: int
    short_ids: tuple[bytes, ...]
    prefilled: tuple[tuple[int, bytes], ...]


@dataclass(frozen=True)
class GetBlockTxnMessage:
    """Fallback round-trip: the listed block positions were not in mempool."""

    block_hash: bytes
    indexes: tuple[int, ...]


@dataclass(frozen=True)
class BlockTxnMessage:
    """Reply to :class:`GetBlockTxnMessage`: the serialized transactions."""

    block_hash: bytes
    indexes: tuple[int, ...]
    transactions: tuple[bytes, ...]


@dataclass(frozen=True)
class DeliveryMessage:
    """Fig. 3 step 7: gateway → recipient data push.

    Carries the double-encrypted message ``Em``, the ephemeral public key
    ``ePk``, the node's signature ``Sig``, and the delivery id used to
    correlate the payment leg.
    """

    delivery_id: int
    encrypted_message: bytes
    ephemeral_pubkey: bytes
    signature: bytes
    node_id: str
    gateway_pubkey_hash: bytes
    price: int
    # Which sub-chain the sending gateway settles on.  Empty in a flat
    # federation; when it differs from the recipient's chain id, the
    # exchange settles cross-region (escrow on the recipient's sub-chain,
    # claim relayed back via ClaimMessage, audit via the anchor).
    chain_id: str = ""


@dataclass(frozen=True)
class DeliveryAck:
    """Recipient → gateway: signature verified; payment tx announced."""

    delivery_id: int
    accepted: bool
    offer_txid: bytes = b""
    reason: str = ""
    # The recipient's sub-chain id, plus — for cross-region exchanges
    # only — the full serialized key-release offer, since the gateway's
    # own daemon follows a different chain and can never look the offer
    # up from local mempool or chain state.
    chain_id: str = ""
    offer_tx_bytes: bytes = b""


@dataclass(frozen=True)
class ClaimMessage:
    """Gateway → recipient: the signed claim for a cross-region offer.

    The gateway audits the serialized offer, builds the eSk-revealing
    claim transaction with its chain-state-free wallet, and hands it to
    the recipient, who broadcasts it on *its* sub-chain — where the
    escrow lives.  The reveal still happens on-chain; only the transport
    of the claim crosses regions.
    """

    delivery_id: int
    claim_tx_bytes: bytes
