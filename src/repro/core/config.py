"""Configuration for a full BcWAN deployment simulation.

The defaults reproduce the paper's testbed (section 5.2): 5 gateway sites
(PlanetLab nodes), 30 sensors per site at SF7 and 1 % duty cycle, a master
node that mines and does not serve exchanges, 128-byte payloads + 4-byte
header, and block verification *disabled* (the Fig. 5 configuration —
``chain=ChainParams(verify_blocks=True)`` is Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.blockchain.params import ChainParams
from repro.errors import ConfigurationError

__all__ = ["LightConfig", "NetworkConfig", "RegionTopology",
           "CELL_RADIUS", "FUNDING_COIN_VALUE"]

# What no deployment varies: the radius (m) sensors are placed within
# around their gateway, and the denomination of the coins each actor is
# bootstrapped with.
CELL_RADIUS = 1500.0
FUNDING_COIN_VALUE = 250


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
    """

    regions: int = 1
    roaming: str = "region"
    checkpoint_interval: float = 60.0

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


@dataclass(frozen=True)
class LightConfig:
    """The light-client tier knobs, grouped.

    ``device_class == "full"`` (the default) is the paper's deployment —
    every actor's recipient runs a co-located full node.  ``"light"``
    swaps each recipient for a duty-cycled SPV host (headers, filters,
    Merkle proofs) served by the full nodes of its home chain.  Every knob
    composes with both topologies: in a hierarchical federation each
    sub-chain serves, multicasts to and relays for its own actors.

    :param device_class: ``"full"`` or ``"light"``.
    :param compact_blocks: relay blocks between the full nodes of every
        chain (the settlement chain included) as BIP 152-style short-txid
        sketches with mempool reconstruction, in either device class.
    :param multicast_interval: seconds between a gateway's signed
        header-bundle multicasts to its light recipients (0 disables the
        stream; light clients then rely solely on unicast polling).
    :param light_sync_interval: light-client unicast header poll period.
    """

    device_class: str = "full"
    compact_blocks: bool = False
    multicast_interval: float = 0.0
    light_sync_interval: float = 10.0

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
        if self.light_sync_interval <= 0:
            raise ConfigurationError(
                f"light sync interval must be positive: "
                f"{self.light_sync_interval}"
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

    :param chain: the chain every node of the deployment runs
        (:class:`~repro.blockchain.params.ChainParams`: block interval,
        the Fig. 5 / Fig. 6 ``verify_blocks`` toggle and its modeled
        stall, block size, maturity, lock-time grace).  A recipient refunds
        an unclaimed offer at the first block to reach its lock-time.
    :param consensus: ``"master"`` — the paper's PoC, a dedicated master
        node mines on a schedule — or ``"pos"``, the §6 future-work
        variant: gateway sites take turns producing blocks through a
        deterministic stake-weighted slot lottery.
    :param price: satoshi-like units a gateway earns per delivery.
    :param funding_coins: how many spendable coins (of
        :data:`FUNDING_COIN_VALUE`) each actor is bootstrapped with.

    Radio:

    :param spreading_factor: paper: SF7.  Sensors transmit at 1 % duty
        cycle and gateways answer on the EU868 10 % downlink sub-band;
        each site's gateway and sensors share one
        :class:`repro.lora.channel.RadioChannel`.

    WAN:

    :param wan_median_range: per-site-pair median one-way delay range.
    :param wan_loss_rate: fraction of WAN messages silently dropped (0
        models the TCP flows of the paper's testbed).  With loss, enable
        ``sync_interval`` so the anti-entropy agents repair gossip gaps.
    :param sync_interval: seconds between anti-entropy sync rounds per
        daemon; 0 disables.

    Workload:

    :param exchange_interval: mean seconds between exchanges per sensor.
    :param wait_for_confirmation: the §6 cautious gateway — reveal the
        key only once the offer has a confirmation.

    Grouped sub-configs:

    :param topology: flat (the default, guaranteed to reproduce the
        paper's deployment exactly) or regional (:class:`RegionTopology`).
    :param light: the light-client tier (:class:`LightConfig`), on every
        chain of either topology; the default is the paper's
        all-full-node deployment.
    :param tracing: sim-time span collection (one trace per exchange, one
        per block); makes the run's JSONL trace export meaningful.
    """

    num_gateways: int = 5
    sensors_per_gateway: int = 30
    roaming_offset: int = 1
    seed: int = 0
    topology: RegionTopology = field(default_factory=RegionTopology)

    chain: ChainParams = field(default_factory=ChainParams)
    consensus: str = "master"
    price: int = 100
    funding_coins: int = 500

    spreading_factor: int = 7

    wan_median_range: tuple[float, float] = (0.040, 0.180)
    wan_loss_rate: float = 0.0
    sync_interval: float = 0.0

    exchange_interval: float = 60.0
    wait_for_confirmation: bool = False

    light: LightConfig = field(default_factory=LightConfig)
    tracing: bool = False

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
        if FUNDING_COIN_VALUE < self.price:
            raise ConfigurationError(
                "a funding coin must cover at least one offer "
                f"({FUNDING_COIN_VALUE} < {self.price})"
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
