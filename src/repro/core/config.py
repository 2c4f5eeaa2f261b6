"""Configuration for a full BcWAN deployment simulation.

The defaults reproduce the paper's testbed (section 5.2): 5 gateway sites
(PlanetLab nodes), 30 sensors per site at SF7 and 1 % duty cycle, a master
node that mines and does not serve exchanges, 128-byte payloads + 4-byte
header, and block verification *disabled* (the Fig. 5 configuration —
flip ``verify_blocks`` for Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.blockchain.mempool import MempoolPolicy
from repro.blockchain.params import COIN, ChainParams
from repro.core.costmodel import CostModel
from repro.errors import ConfigurationError

__all__ = ["LightConfig", "MempoolPolicy", "NetworkConfig", "RegionTopology"]


@dataclass(frozen=True)
class RegionTopology:
    """How a federation is carved into regions.

    The default — one region — is the paper's flat deployment: a single
    gateway chain mined by one master, a global gossip mesh.  With
    ``regions > 1`` the network becomes hierarchical: each region runs
    its own gateway sub-chain (own master or PoS schedule, own mempool,
    region-scoped gossip mesh) and a global *settlement chain* anchors
    every sub-chain through periodic checkpoint transactions.

    :param regions: how many regional sub-chains the federation runs.
    :param roaming: where a roaming sensor's recipient gateway lives —
        ``"region"`` keeps ``roaming_offset`` rotations inside the home
        region (every delivery stays intra-region), ``"global"`` rotates
        across the whole federation (deliveries whose home and recipient
        gateways land in different regions settle cross-region through
        the anchor).
    :param checkpoint_interval: sim-seconds between a region's checkpoint
        commits onto the settlement chain.
    :param border_peers: cross-region gossip links per region pair on the
        settlement mesh (and in :func:`repro.chaos.scenario.\
build_federation`'s topology-aware mesh).
    """

    regions: int = 1
    roaming: str = "region"
    checkpoint_interval: float = 60.0
    border_peers: int = 1

    def __post_init__(self) -> None:
        if self.regions < 1:
            raise ConfigurationError(
                f"need at least one region, got {self.regions}"
            )
        if self.roaming not in ("region", "global"):
            raise ConfigurationError(
                f"unknown roaming policy: {self.roaming!r} "
                f"(expected 'region' or 'global')"
            )
        if self.checkpoint_interval <= 0:
            raise ConfigurationError(
                f"checkpoint interval must be positive: "
                f"{self.checkpoint_interval}"
            )
        if self.border_peers < 1:
            raise ConfigurationError(
                f"need at least one border peer per region pair, got "
                f"{self.border_peers}"
            )


@dataclass(frozen=True)
class LightConfig:
    """The light-client tier knobs, grouped.

    ``device_class == "full"`` (the default) is the paper's deployment —
    every actor's recipient runs a co-located full node, and nothing in
    :mod:`repro.light` is imported.  ``"light"`` swaps each recipient for
    a duty-cycled SPV host (headers, filters, Merkle proofs) served by
    the gateway full nodes.

    :param device_class: ``"full"`` or ``"light"``.
    :param compact_blocks: relay blocks between full nodes as BIP
        152-style short-txid sketches with mempool reconstruction.
    :param multicast_interval: seconds between a gateway's signed
        header-bundle multicasts to its light recipients (0 disables the
        stream; light clients then rely solely on unicast polling).
    :param multicast_verify_every: aggregate-verify every R-th bundle
        (Danzi et al. repeat-authenticate).
    :param multicast_listen_window: Class-A listen window after each
        multicast round fires.
    :param light_sync_interval: light-client unicast header poll period.
    :param light_request_timeout: per-request deadline for light queries.
    """

    device_class: str = "full"
    compact_blocks: bool = False
    multicast_interval: float = 0.0
    multicast_verify_every: int = 4
    multicast_listen_window: float = 2.0
    light_sync_interval: float = 10.0
    light_request_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.device_class not in ("full", "light"):
            raise ConfigurationError(
                f"unknown device class: {self.device_class!r} "
                f"(expected 'full' or 'light')"
            )
        if self.multicast_interval < 0:
            raise ConfigurationError(
                f"multicast interval cannot be negative: "
                f"{self.multicast_interval}"
            )
        if self.multicast_verify_every < 1:
            raise ConfigurationError(
                f"multicast verify-every must be at least 1, got "
                f"{self.multicast_verify_every}"
            )
        if self.multicast_listen_window <= 0:
            raise ConfigurationError(
                f"multicast listen window must be positive: "
                f"{self.multicast_listen_window}"
            )
        if self.light_sync_interval <= 0:
            raise ConfigurationError(
                f"light sync interval must be positive: "
                f"{self.light_sync_interval}"
            )
        if self.light_request_timeout <= 0:
            raise ConfigurationError(
                f"light request timeout must be positive: "
                f"{self.light_request_timeout}"
            )


@dataclass(frozen=True)
class NetworkConfig:
    """Everything a :class:`repro.core.network.BcWANNetwork` needs.

    Topology:

    :param num_gateways: gateway sites (the paper uses 5 PlanetLab nodes).
    :param sensors_per_gateway: end devices deployed per site (paper: 30).
    :param roaming_offset: sensors of actor ``i`` are deployed in the cell
        of gateway ``(i + roaming_offset) % num_gateways`` — every
        delivery crosses a *foreign* gateway, the scenario BcWAN exists
        for.  Set 0 to study home-gateway delivery.
    :param seed: master seed; every run is deterministic in it.

    Blockchain:

    :param block_interval: master mining period (Multichain default 15 s).
    :param verify_blocks: the Fig. 5 (False) / Fig. 6 (True) toggle.
    :param verification_stall_base / verification_stall_per_tx: the
        modeled Multichain daemon stall per verified block.
    :param price: satoshi-like units a gateway earns per delivery.
    :param funding_coins / funding_coin_value: how many spendable coins
        each actor is bootstrapped with, and their denomination.

    Radio:

    :param spreading_factor / duty_cycle: paper: SF7, 1 %.
    :param gateway_duty_cycle: downlink budget (EU868 10 % sub-band).
    :param cell_radius: sensors are placed uniformly within this radius.

    Each site's gateway and sensors share one
    :class:`repro.lora.channel.RadioChannel`; how it evaluates delivery is
    not configurable.

    WAN:

    :param wan_median_range: per-site-pair median one-way delay range.
    :param wan_sigma: lognormal jitter shape.

    Workload:

    :param exchange_interval: mean seconds between exchanges per sensor.
    :param payload_bytes: plaintext reading size (≤ 15: one AES block).

    Grouped sub-configs:

    :param light: the light-client tier (:class:`LightConfig`); the
        default is the paper's all-full-node deployment.
    :param mempool: admission policy (:class:`MempoolPolicy`) applied to
        every full node; None keeps the historical unbounded pool.
    """

    num_gateways: int = 5
    sensors_per_gateway: int = 30
    roaming_offset: int = 1
    seed: int = 0
    # Hierarchical federation: regions=1 (the default) is the paper's
    # flat deployment and is guaranteed to reproduce it exactly; see
    # RegionTopology for the sharded mode.
    topology: RegionTopology = field(default_factory=RegionTopology)

    block_interval: float = 15.0
    # "master": the paper's PoC — a dedicated master node mines on a
    # schedule, mining disabled on gateways.  "pos": the §6 future-work
    # variant — gateway sites take turns producing blocks through a
    # deterministic stake-weighted slot lottery (no master mining, no
    # proof-of-work anywhere).
    consensus: str = "master"
    verify_blocks: bool = False
    verification_stall_base: float = 8.0
    verification_stall_per_tx: float = 0.055
    coinbase_maturity: int = 1
    pow_bits: int = 0
    locktime_grace: int = 100
    max_block_size: int = 1_000_000

    price: int = 100
    offer_fee: int = 0
    funding_coins: int = 500
    funding_coin_value: int = 250

    spreading_factor: int = 7
    # ADR: assign each sensor the fastest SF its link budget supports
    # instead of the fixed `spreading_factor` (the paper fixes SF7).
    adaptive_data_rate: bool = False
    duty_cycle: float = 0.01
    gateway_duty_cycle: float = 0.10
    cell_radius: float = 1500.0

    wan_median_range: tuple[float, float] = (0.040, 0.180)
    wan_sigma: float = 0.35
    # Fraction of WAN messages silently dropped (0 models the TCP flows
    # of the paper's testbed).  With loss, enable `sync_interval` so the
    # anti-entropy agents repair gossip gaps.
    wan_loss_rate: float = 0.0
    # Seconds between anti-entropy sync rounds per daemon; 0 disables.
    sync_interval: float = 0.0

    exchange_interval: float = 60.0
    # Seconds between recipient sweeps of expired key-release offers
    # (the Listing-1 refund branch).  0 disables the sweep; enable it in
    # deployments where gateways may vanish mid-exchange.
    reclaim_interval: float = 0.0
    payload_bytes: int = 12
    key_response_timeout: float = 12.0
    # Enforce LoRaWAN Class-A receive windows: nodes sleep outside
    # RX1/RX2 and gateways schedule the ePk downlink into a window.
    class_a_windows: bool = False
    rsa_bits: int = 512
    wait_for_confirmation: bool = False

    # The light-client tier; requires the flat topology.
    light: LightConfig = field(default_factory=LightConfig)

    # Mempool admission policy shared by every full node the network
    # assembles (None = the unbounded, no-fee-floor default that matches
    # the paper's Multichain deployment).
    mempool: Optional[MempoolPolicy] = None

    # Observability: ``tracing`` turns on sim-time span collection (one
    # trace per exchange, one per block) and makes the run's JSONL trace
    # export meaningful; ``profile_hot_paths`` attaches the wall-clock
    # HotPathProfiler to the engine/mempool/miner/sync hot paths.  Both
    # default off so headline runs pay only no-op guards.
    tracing: bool = False
    profile_hot_paths: bool = False

    cost_model: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.num_gateways < 1:
            raise ConfigurationError(
                f"need at least one gateway, got {self.num_gateways}"
            )
        if self.sensors_per_gateway < 0:
            raise ConfigurationError(
                f"negative sensor count: {self.sensors_per_gateway}"
            )
        if not 0 <= self.roaming_offset < max(self.num_gateways, 1):
            raise ConfigurationError(
                f"roaming offset {self.roaming_offset} out of range for "
                f"{self.num_gateways} gateways"
            )
        if self.price <= 0:
            raise ConfigurationError(f"price must be positive: {self.price}")
        if self.funding_coin_value < self.price + self.offer_fee:
            raise ConfigurationError(
                "funding coin value must cover at least one offer "
                f"({self.funding_coin_value} < {self.price + self.offer_fee})"
            )
        if not 0 < self.payload_bytes <= 15:
            raise ConfigurationError(
                f"payload must be 1-15 bytes (one AES block), "
                f"got {self.payload_bytes}"
            )
        if self.exchange_interval <= 0:
            raise ConfigurationError(
                f"exchange interval must be positive: {self.exchange_interval}"
            )
        if self.consensus not in ("master", "pos"):
            raise ConfigurationError(
                f"unknown consensus mode: {self.consensus!r} "
                f"(expected 'master' or 'pos')"
            )
        if not 0 <= self.wan_loss_rate < 1:
            raise ConfigurationError(
                f"WAN loss rate out of range: {self.wan_loss_rate}"
            )
        if self.sync_interval < 0:
            raise ConfigurationError(
                f"sync interval cannot be negative: {self.sync_interval}"
            )
        if self.num_gateways % self.topology.regions != 0:
            raise ConfigurationError(
                f"{self.num_gateways} gateways do not divide evenly into "
                f"{self.topology.regions} regions"
            )
        if (self.topology.regions > 1
                and self.topology.roaming == "region"
                and self.roaming_offset >= self.gateways_per_region):
            raise ConfigurationError(
                f"roaming offset {self.roaming_offset} out of range for "
                f"{self.gateways_per_region} gateways per region"
            )
        if self.light.device_class == "light" and self.topology.regions > 1:
            raise ConfigurationError(
                "the light tier requires the flat topology "
                f"(regions={self.topology.regions})"
            )
        # Surface chain-parameter violations (block size floor, etc.) at
        # configuration time rather than at network assembly.
        self.chain_params()

    def chain_params(self) -> ChainParams:
        """The derived blockchain parameters."""
        return ChainParams(
            block_interval=self.block_interval,
            verify_blocks=self.verify_blocks,
            verification_stall_base=self.verification_stall_base,
            verification_stall_per_tx=self.verification_stall_per_tx,
            coinbase_maturity=self.coinbase_maturity,
            pow_bits=self.pow_bits,
            locktime_grace=self.locktime_grace,
            max_block_size=self.max_block_size,
        )

    @property
    def site_names(self) -> list[str]:
        return [f"site-{i}" for i in range(self.num_gateways)]

    @property
    def light_names(self) -> list[str]:
        """WAN host names of the light recipients (one per actor)."""
        return [f"light-{i}" for i in range(self.num_gateways)]

    @property
    def total_sensors(self) -> int:
        return self.num_gateways * self.sensors_per_gateway

    # -- region helpers (trivially flat when topology.regions == 1) ------------

    @property
    def gateways_per_region(self) -> int:
        return self.num_gateways // self.topology.regions

    def region_of_site(self, site_index: int) -> int:
        """Which region the ``site_index``-th gateway site belongs to."""
        return site_index // self.gateways_per_region

    def region_site_indices(self, region: int) -> range:
        """The global site indices making up ``region``."""
        start = region * self.gateways_per_region
        return range(start, start + self.gateways_per_region)

    def recipient_site(self, actor_index: int) -> int:
        """Where actor ``i``'s recipient gateway lives, after roaming.

        Flat (or ``roaming == "global"``): the classic
        ``(i + roaming_offset) % num_gateways`` rotation.  With
        ``roaming == "region"`` the rotation wraps inside the actor's
        home region, so every delivery stays intra-region.
        """
        if self.topology.regions == 1 or self.topology.roaming == "global":
            return (actor_index + self.roaming_offset) % self.num_gateways
        per = self.gateways_per_region
        region_start = (actor_index // per) * per
        return region_start + (actor_index % per + self.roaming_offset) % per
