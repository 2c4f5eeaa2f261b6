"""Peer-to-peer overlay: simulated WAN plus blockchain gossip.

* :mod:`repro.p2p.network` — latency-modeled message passing;
* :mod:`repro.p2p.message` — wire message types (gossip + delivery);
* :mod:`repro.p2p.gossip` — tx/block flooding between full nodes.
"""

from repro.p2p.gossip import GossipNode
from repro.p2p.sync import (
    BlocksMessage,
    GetBlocksMessage,
    GetTipMessage,
    GetTxsMessage,
    SyncAgent,
    TipMessage,
    TxsMessage,
)
from repro.p2p.message import (
    BlockMessage,
    ClaimMessage,
    DeliveryAck,
    DeliveryMessage,
    Envelope,
    TxMessage,
)
from repro.p2p.network import WANetwork

__all__ = [
    "BlockMessage",
    "BlocksMessage",
    "GetBlocksMessage",
    "GetTipMessage",
    "GetTxsMessage",
    "SyncAgent",
    "TipMessage",
    "TxsMessage",
    "ClaimMessage",
    "DeliveryAck",
    "DeliveryMessage",
    "Envelope",
    "GossipNode",
    "TxMessage",
    "WANetwork",
]
