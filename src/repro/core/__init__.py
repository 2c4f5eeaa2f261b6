"""The BcWAN protocol core.

* :mod:`repro.core.messages` — the Fig. 4 payload pipeline (AES-256-CBC +
  RSA-512 wrap + RSA-512 signature);
* :mod:`repro.core.provisioning` — the node/recipient key-sharing phase;
* :mod:`repro.core.directory` — the OP_RETURN IP directory of section 4.3;
* :mod:`repro.core.daemon` — the Multichain-daemon queue with the block
  verification stall behind Figs. 5/6;
* :mod:`repro.core.node_agent`, :mod:`repro.core.gateway_agent`,
  :mod:`repro.core.recipient` — the three protocol roles of Fig. 3;
* :mod:`repro.core.testbed` — the §5.2 workload every architecture runs
  on (radio cells, sensor placement, arrivals, the run-until-settled loop);
* :mod:`repro.core.network` — the BcWAN deployment assembled on it;
* :mod:`repro.core.producer` — each chain's bootstrap and block production
  (the master's interval or the PoS slot lottery);
* :mod:`repro.core.report` — what a run reports, on any architecture;
* :mod:`repro.core.costmodel` — calibrated processing times;
* :mod:`repro.core.settlement` — regional checkpoint anchoring onto the
  global settlement chain (per-exchange instrumentation moved to
  :mod:`repro.obs.exchange`).
"""

from repro.core.config import NetworkConfig, RegionTopology
from repro.core.costmodel import CostModel
from repro.core.rewards import (
    CongestionPricing,
    FixedPricing,
    PricingPolicy,
    RecipientBudget,
    VolumeDiscountPricing,
)
from repro.core.daemon import BlockchainDaemon
from repro.core.directory import (
    Announcement,
    DirectoryView,
    build_announcement_payload,
    parse_announcement_payload,
)
from repro.core.gateway_agent import GatewayAgent
from repro.core.messages import (
    BUNDLE_SIZE,
    MAX_PLAINTEXT,
    SealedBundle,
    decode_bundle,
    encode_bundle,
    open_message,
    seal_message,
    sign_payload,
    verify_payload,
)
from repro.obs.exchange import ExchangeRecord, ExchangeTracker
from repro.core.network import BcWANNetwork, Region, Site
from repro.core.report import ExchangeReport, RunReport
from repro.core.settlement import CheckpointAgent
from repro.core.node_agent import NodeAgent
from repro.core.provisioning import (
    DeviceCredentials,
    RecipientRegistry,
    provision_device,
)
from repro.core.recipient import RecipientAgent
from repro.core.testbed import Testbed

__all__ = [
    "Announcement",
    "BUNDLE_SIZE",
    "BcWANNetwork",
    "BlockchainDaemon",
    "CheckpointAgent",
    "CongestionPricing",
    "CostModel",
    "FixedPricing",
    "PricingPolicy",
    "RecipientBudget",
    "VolumeDiscountPricing",
    "DeviceCredentials",
    "DirectoryView",
    "ExchangeRecord",
    "ExchangeReport",
    "ExchangeTracker",
    "GatewayAgent",
    "MAX_PLAINTEXT",
    "NetworkConfig",
    "NodeAgent",
    "RecipientAgent",
    "RecipientRegistry",
    "Region",
    "RegionTopology",
    "RunReport",
    "SealedBundle",
    "Site",
    "Testbed",
    "build_announcement_payload",
    "decode_bundle",
    "encode_bundle",
    "open_message",
    "parse_announcement_payload",
    "provision_device",
    "seal_message",
    "sign_payload",
    "verify_payload",
]
