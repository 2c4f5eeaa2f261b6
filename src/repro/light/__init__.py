"""The light-client tier: SPV sync, compact relay, chain multicast.

BcWAN's constrained device classes (duty-cycled recipients, thin
gateways) must complete fair exchanges without storing or validating
full blocks.  This package provides the three cooperating mechanisms:

* :mod:`repro.light.spv` — header-first chain tracking with watch-list
  filters and Merkle inclusion proofs served by full-node peers;
* :mod:`repro.light.compact` — BIP 152-style compact block relay
  between full nodes (short-txid sketches + mempool reconstruction);
* :mod:`repro.light.multicast` — Danzi-style repeat-authenticate
  broadcast of signed header bundles to duty-cycled Class-A listeners.

Everything here is opt-in through ``NetworkConfig.light`` (a
:class:`~repro.core.config.LightConfig`): with ``device_class == "full"``
and ``compact_blocks`` off, no module in this package is imported into a
running network and full-node behavior is byte-identical.
"""

from repro.light.compact import (
    SHORT_TXID_BYTES,
    CompactBlockRelay,
    make_compact_block,
    short_txid,
)
from repro.light.headers import HeaderChain
from repro.light.messages import (
    FilterMatchMessage,
    GetHeaderRangeMessage,
    GetTxProofMessage,
    HeaderBundleMessage,
    HeaderRangeMessage,
    RegisterFilterMessage,
    TxProofMessage,
)
from repro.light.multicast import (
    ChainMulticaster,
    MulticastListener,
    bundle_digest,
)
from repro.light.server import LightServer
from repro.light.spv import SpvClient
from repro.light.wallet import LightWallet

__all__ = [
    "ChainMulticaster",
    "CompactBlockRelay",
    "FilterMatchMessage",
    "GetHeaderRangeMessage",
    "GetTxProofMessage",
    "HeaderBundleMessage",
    "HeaderChain",
    "HeaderRangeMessage",
    "LightServer",
    "LightWallet",
    "MulticastListener",
    "RegisterFilterMessage",
    "SHORT_TXID_BYTES",
    "SpvClient",
    "TxProofMessage",
    "bundle_digest",
    "make_compact_block",
    "short_txid",
]
