"""Full BcWAN deployment assembly — the paper's testbed in one object.

:class:`BcWANNetwork` builds the complete system from a
:class:`~repro.core.config.NetworkConfig`: per chain a master node (the
paper's AWS EC2 instance) whose :class:`~repro.core.producer.BlockProducer`
bootstraps and funds the chain and extends it on its schedule; one *site*
per gateway (the PlanetLab nodes) with a full node, a BcWAN daemon, a
wallet, a directory view, a LoRa gateway radio, a :class:`GatewayAgent` and
a :class:`RecipientAgent`; sensors provisioned to their home actor but
deployed in a *foreign* gateway's cell; a PlanetLab-like WAN between all.

This module only *assembles*: the §5.2 workload (radio cells, placement,
arrivals, ``run()``) is :class:`~repro.core.testbed.Testbed`, and
``report()`` / the trace exports are
:class:`~repro.core.report.DeploymentReporter`.

**Hierarchical mode** (``config.topology.regions > 1``): each region runs
its own gateway sub-chain — own master or slot lottery, own mempool,
region-scoped gossip, own light tier — and a global *settlement chain*
("anchor") receives each region's
:class:`~repro.core.settlement.CheckpointAgent` commitments.  Assembly is
one loop over chains, whatever the tiers: ``topology.regions == 1`` (the
default) is its one-chain case, with no settlement chain, and reproduces
the paper's results bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.blockchain.checkpoint import CheckpointRules
from repro.blockchain.node import FullNode
from repro.blockchain.sigbatch import VerdictMemo
from repro.blockchain.wallet import Wallet
from repro.core.config import NetworkConfig
from repro.core.costmodel import CostModel
from repro.core.settlement import CheckpointAgent
from repro.core.daemon import BlockchainDaemon
from repro.core.directory import DirectoryView
from repro.core.gateway_agent import GatewayAgent
from repro.core.node_agent import NodeAgent
from repro.core.producer import (BlockProducer, Interval, Schedule,
                                 chain_schedule)
from repro.core.provisioning import RecipientRegistry, provision_device
from repro.core.recipient import NodeLedger, RecipientAgent, SpvLedger
from repro.core.report import DeploymentReporter
from repro.core.testbed import Testbed
from repro.crypto.keys import KeyPair
from repro.light.compact import CompactBlockRelay
from repro.light.multicast import ChainMulticaster
from repro.light.server import LightServer
from repro.light.spv import SpvClient
from repro.light.wallet import LightWallet
from repro.lora.channel import RadioChannel
from repro.obs.registry import MetricsRegistry
from repro.p2p.sync import SyncAgent

__all__ = ["BcWANNetwork", "Region", "Site"]

# The testbed's calibrated processing times (DESIGN.md) and the plaintext
# reading size (<= 15 bytes: one AES block).  No deployment varies them.
COST_MODEL = CostModel()
PAYLOAD_BYTES = 12


@dataclass
class Site:
    """Everything running at one gateway site (one actor)."""

    index: int
    name: str
    node: FullNode
    daemon: BlockchainDaemon
    wallet: Wallet
    directory: DirectoryView
    channel: RadioChannel
    gateway: GatewayAgent
    # The actor's only recipient, over its own full node or ``light-i``;
    # built once the site's chain is meshed.
    recipient: Optional[RecipientAgent]
    registry: RecipientRegistry
    # Hierarchical mode: which region (and sub-chain) this site belongs
    # to.  Flat deployments leave the defaults.
    region: int = 0
    chain_id: str = ""


@dataclass
class Region:
    """One regional sub-chain of a hierarchical federation."""

    index: int
    chain_id: str
    master_node: FullNode
    master_daemon: BlockchainDaemon
    producer: BlockProducer
    sites: list[Site]
    # This region's presence on the global settlement chain.
    anchor_daemon: BlockchainDaemon
    anchor_wallet: Wallet
    checkpoint_agent: CheckpointAgent


class BcWANNetwork(DeploymentReporter, Testbed):
    """A fully-assembled BcWAN federation."""

    def __init__(self, config: Optional[NetworkConfig] = None) -> None:
        super().__init__(config or NetworkConfig())
        block_interval = self.config.chain.block_interval
        self.check_interval = max(block_interval, 5.0)
        self.settle_grace = max(120.0, 4 * block_interval)
        # One registry (and the testbed's one tracer) for the deployment.
        self.registry = MetricsRegistry()
        # Every daemon runs in this one host process and shares one
        # verdict memo, so the host runs each script and verifies each
        # signature once; verification time is simulated (the cost
        # model), not measured.
        self.verdict_memo = VerdictMemo()
        self.sites: list[Site] = []
        self.regions: list[Region] = []
        # chain label -> the daemons following (and gossiping) that chain
        self._groups: dict[str, dict[str, BlockchainDaemon]] = {}
        # chain label -> its producer (chains in order, then the anchor)
        self.producers: dict[str, BlockProducer] = {}
        # The flat deployment's single master (None when hierarchical).
        self.master_daemon: Optional[BlockchainDaemon] = None
        # The settlement chain's master (None when flat).
        self.anchor_daemon: Optional[BlockchainDaemon] = None
        self.sync_agents: list[SyncAgent] = []
        # The light tier (empty in the default full-node deployment).
        self.light_servers: list[LightServer] = []
        self.light_clients: list[SpvClient] = []
        self.multicasters: list[ChainMulticaster] = []
        self.compact_relays: list[CompactBlockRelay] = []
        self._build()
        self._register_metrics()

    # -- construction -----------------------------------------------------------

    def _build(self) -> None:
        """Assemble every chain — master, sites, mesh, recipients — then
        compact relay on every daemon, then start the loops.  Flat is the
        one-chain case (master ``"master"``, chain id ``""``).  The
        construction order is part of the trace."""
        cfg = self.config
        topo = cfg.topology
        flat = topo.regions == 1
        light = cfg.light.device_class == "light"

        actor_keys = [
            KeyPair.generate(self.rngs.stream(f"actor-key-{i}"))
            for i in range(cfg.num_gateways)
        ]
        # Light tier: the duty-cycled application hosts hold their own
        # keys, funded and announced (endpoint = the light host) during
        # bootstrap, so gateways resolve @R straight to the light host.
        light_keys = [
            KeyPair.generate(self.rngs.stream(f"light-key-{i}"))
            for i in range(cfg.num_gateways)
        ] if light else []

        # Every host on one PlanetLab-like WAN, so partitions can cut
        # region or anchor links independently.
        tags = [""] if flat else [f"-r{r}" for r in range(topo.regions)]
        hosts = cfg.site_names + [f"master{tag}" for tag in tags]
        if not flat:
            hosts += ["anchor"] + [f"anchor{tag}" for tag in tags]
        if light:
            hosts += cfg.light_names
        self.wan = self.build_wan(hosts)

        if not flat:
            # Global settlement chain, master-mined under any consensus:
            # funds each region's settlement wallet, announces nothing.
            settlement_keys = [
                KeyPair.generate(self.rngs.stream(f"anchor-key-{r}"))
                for r in range(topo.regions)
            ]
            anchor, self.anchor_daemon = self._new_master(
                "anchor", "anchor-master-key", "anchor",
                Interval(cfg.chain.block_interval),
                funded=settlement_keys, announced=[])

        # Every chain publishes the IP announcement of **every**
        # recipient in the federation: a gateway resolving ``@R`` for a
        # globally-roaming sensor looks the foreign recipient up on its
        # *own* sub-chain.
        announced = list(zip(actor_keys + light_keys,
                             cfg.site_names + cfg.light_names))
        chains = []  # (producer, master daemon, sites)

        for r, tag in enumerate(tags):
            chain_id = "" if flat else f"region-{r}"
            indices = cfg.region_site_indices(r)
            home = slice(indices.start, indices.stop)

            producer, master_daemon = self._new_master(
                f"master{tag}", f"master-key{tag}", chain_id,
                chain_schedule(cfg, tag),
                funded=actor_keys[home] + light_keys[home],
                announced=announced)
            self.producers[chain_id or "chain"] = producer
            sites = [
                self._build_site(i, cfg.site_names[i], producer,
                                 actor_keys[i], chain_id=chain_id, region=r)
                for i in indices
            ]
            self.sites.extend(sites)
            daemons = [master_daemon] + [site.daemon for site in sites]
            self._mesh(chain_id or "chain", daemons)
            self._build_recipients(daemons, sites, light_keys)
            chains.append((producer, master_daemon, sites))
            if flat:
                self.master_daemon = master_daemon
                continue

            # The region's settlement node + checkpoint agent.
            anchor_r_node = self._new_node(f"anchor{tag}", settlement=True)
            anchor.replay(anchor_r_node)
            anchor_r_daemon = self._new_daemon(anchor_r_node,
                                               cfg.chain.verify_blocks)
            anchor_r_wallet = Wallet(anchor_r_node.chain, settlement_keys[r])
            anchor_r_wallet.watch_chain()
            checkpoint_agent = CheckpointAgent(
                self.sim, r, master_daemon, anchor_r_daemon, anchor_r_wallet,
                COST_MODEL, self.rngs.stream(f"checkpoint{tag}"),
                interval=topo.checkpoint_interval,
            )
            checkpoint_agent.start()
            self.registry.register("federation", checkpoint_agent,
                                   region=str(r))
            self.regions.append(Region(
                index=r, chain_id=chain_id, master_node=master_daemon.node,
                master_daemon=master_daemon, producer=producer, sites=sites,
                anchor_daemon=anchor_r_daemon, anchor_wallet=anchor_r_wallet,
                checkpoint_agent=checkpoint_agent,
            ))

        if not flat:
            # Settlement mesh: the anchor master + one node per region.
            self._mesh("anchor", [self.anchor_daemon] + [
                region.anchor_daemon for region in self.regions])
            self.producers["anchor"] = anchor
            chains.append((anchor, self.anchor_daemon, []))
        if cfg.light.compact_blocks:
            for name, daemon in self.all_daemons().items():
                relay = CompactBlockRelay(daemon)
                self.compact_relays.append(relay)
                self.registry.register("light.compact", relay, host=name)

        self._deploy_sensors()
        for producer, master_daemon, sites in chains:
            producer.start(master_daemon,
                           [(site.daemon, site.wallet) for site in sites])
        # Anti-entropy sync, over every daemon.
        if cfg.sync_interval > 0:
            self.sync_agents = [
                SyncAgent(self.sim, daemon, interval=cfg.sync_interval)
                for daemon in self.all_daemons().values()
            ]

    def _build_site(self, i: int, name: str, producer: BlockProducer,
                    actor_key: KeyPair, chain_id: str = "",
                    region: int = 0) -> Site:
        """One gateway site: node (replaying ``producer``'s bootstrap
        chain), daemon, wallet, radio and the gateway agent of the
        sub-chain ``chain_id``."""
        cfg = self.config
        node = self._new_node(name)
        producer.replay(node)
        daemon = self._new_daemon(node, cfg.chain.verify_blocks)
        wallet = Wallet(node.chain, actor_key)
        wallet.watch_chain()
        directory = DirectoryView(node.chain)
        directory.follow()
        channel, gateway_radio = self.build_cell(i, name)
        gateway = GatewayAgent(
            self.sim, name, gateway_radio, daemon, wallet, directory,
            self.wan, COST_MODEL, self.tracker,
            self.rngs.stream(f"gateway-{name}"), price=cfg.price,
            wait_for_confirmation=cfg.wait_for_confirmation,
            chain_id=chain_id,
        )
        return Site(
            index=i, name=name, node=node, daemon=daemon, wallet=wallet,
            directory=directory, channel=channel, gateway=gateway,
            recipient=None, registry=RecipientRegistry(),
            region=region, chain_id=chain_id,
        )

    def _build_recipients(self, daemons: list[BlockchainDaemon],
                          sites: list[Site],
                          light_keys: list[KeyPair]) -> None:
        """One chain's recipients: over each actor's own full node, or —
        with ``light_keys`` — on ``light-i`` SPV hosts that every daemon of
        the chain serves, peering with the home site, the chain's next
        site (failover) and its master, and multicast to by the home site
        if ``multicast_interval > 0``."""
        cfg = self.config
        for daemon in daemons if light_keys else ():
            server = LightServer(daemon)
            self.light_servers.append(server)
            self.registry.register("light.server", server, host=daemon.name)
        for k, site in enumerate(sites):
            if not light_keys:
                name, stream = site.name, f"recipient-{site.name}"
                ledger = NodeLedger(site.daemon, site.wallet)
            else:
                i, name = site.index, cfg.light_names[site.index]
                stream = f"light-recipient-{i}"
                spv = SpvClient(
                    self.sim, self.wan, name, tuple(dict.fromkeys(
                        (site.name, sites[(k + 1) % len(sites)].name,
                         daemons[0].name))),
                    sync_interval=cfg.light.light_sync_interval,
                    tracer=self.tracer)
                self.light_clients.append(spv)
                self.registry.register("light.spv", spv, host=name)
                ledger = SpvLedger(spv, LightWallet(light_keys[i]),
                                   refund_delta=cfg.chain.locktime_grace)
            site.recipient = RecipientAgent(
                self.sim, name, ledger, site.registry, self.wan, COST_MODEL,
                self.tracker, self.rngs.stream(stream),
                chain_id=site.chain_id)
            if light_keys and cfg.light.multicast_interval > 0:
                multicaster = ChainMulticaster(
                    self.sim, self.wan, site.name, site.wallet.keypair,
                    site.node.chain, (name,), cfg.light.multicast_interval,
                    self.modulation, tracer=self.tracer)
                self.multicasters.append(multicaster)
                self.registry.register("light.multicast", multicaster,
                                       host=site.name)
                listener = spv.attach_multicast(
                    site.wallet.keypair.public_key.to_bytes(),
                    cfg.light.multicast_interval)
                self.registry.register("light.multicast", listener, host=name)

    def _mesh(self, label: str, daemons: list[BlockchainDaemon]) -> None:
        """Chain-scoped gossip: full mesh among the daemons following one
        chain — which is what makes them one convergence group."""
        self._groups[label] = {daemon.name: daemon for daemon in daemons}
        for daemon in daemons:
            for other in daemons:
                if other is not daemon:
                    daemon.gossip.connect(other.name)

    def _new_node(self, name: str, settlement: bool = False) -> FullNode:
        """A full node of this deployment, on the shared verdict memo.

        Block connect re-verifies scripts as the chain's
        ``verify_blocks`` says; the shared memo answers every script
        admission already ran, and the *timing* of Fig. 6's block
        verification is modeled by the daemon stall.  Every settlement
        engine carries its own CheckpointRules, so each anchor node
        independently rejects stale or regressing region digests.
        """
        node = FullNode(self.config.chain, name)
        node.engine.verdict_memo = self.verdict_memo
        if settlement:
            node.engine.checkpoint_rules = CheckpointRules()
        return node

    def _new_daemon(self, node: FullNode,
                    verify_blocks: bool) -> BlockchainDaemon:
        """``node``'s daemon on the WAN."""
        return BlockchainDaemon(
            self.sim, node.name, self.wan, node, COST_MODEL,
            self.rngs.stream(f"daemon-{node.name}"),
            verify_blocks=verify_blocks, registry=self.registry,
        )

    def _new_master(self, name: str, key_stream: str, chain_id: str,
                    schedule: Schedule, funded: list[KeyPair],
                    announced: list[tuple[KeyPair, str]]
                    ) -> tuple[BlockProducer, BlockchainDaemon]:
        """A chain's master: its producer with the genesis era mined, then
        its daemon (block verification off — it mined every block)."""
        node = self._new_node(name, settlement=chain_id == "anchor")
        producer = BlockProducer(
            self.sim, self.tracer, node,
            KeyPair.generate(self.rngs.stream(key_stream)), schedule,
            chain_id)
        producer.bootstrap(funded, announced, self.config.funding_coins)
        return producer, self._new_daemon(node, verify_blocks=False)

    def _deploy_sensors(self) -> None:
        """Provision every placed end device to its home actor."""
        for i, radio in self.place_sensors(
                [site.channel for site in self.sites]):
            home = self.sites[i]
            device_id = radio.name
            credentials = provision_device(
                device_id, home.recipient.address, home.registry,
                rng=self.rngs.stream(f"provision-{device_id}"),
            )
            self.sensors[device_id] = NodeAgent(
                self.sim, credentials, radio, COST_MODEL,
                self.tracker, self.rngs.stream(f"node-{device_id}"),
            )

    def start_exchange(self, agent: NodeAgent) -> None:
        reading = f"{self.exchanges_launched:08d}{agent.device_id[-4:]}"
        agent.start_exchange(reading.encode()[:PAYLOAD_BYTES])

    def all_daemons(self) -> dict[str, BlockchainDaemon]:
        """Every daemon in the deployment, by host name."""
        return {name: daemon for group in self._groups.values()
                for name, daemon in group.items()}

    def convergence_groups(self) -> dict[str, dict[str, BlockchainDaemon]]:
        """Daemons grouped by the chain they follow.

        Flat: one ``"chain"`` group.  Hierarchical: one group per region
        sub-chain plus the ``"anchor"`` settlement group — the shape
        :func:`repro.chaos.assert_hierarchy_converged` consumes.
        """
        return {label: dict(group) for label, group in self._groups.items()}
