"""Full BcWAN deployment assembly — the paper's testbed in one object.

:class:`BcWANNetwork` builds the complete system from a
:class:`~repro.core.config.NetworkConfig`:

* a master node (the paper's AWS EC2 instance) that bootstraps the chain,
  funds every actor, and mines on the configured interval — mining is
  disabled everywhere else, exactly like the PoC;
* one *site* per gateway (the PlanetLab nodes), each running a full node,
  a BcWAN daemon, a wallet, a directory view, a LoRa gateway radio, a
  :class:`GatewayAgent` and a :class:`RecipientAgent`;
* sensors provisioned to their home actor but deployed in a *foreign*
  gateway's radio cell (the roaming scenario BcWAN exists for);
* a PlanetLab-like WAN between all sites.

This module only *assembles*: the §5.2 workload it runs on (radio cells,
sensor placement, arrivals, ``run()``) is :class:`~repro.core.testbed.Testbed`,
shared with the baselines, and ``report()`` / the trace exports are
:class:`~repro.core.report.DeploymentReporter`.  ``run(num_exchanges=2000)``
returns a :class:`~repro.core.report.RunReport` with the latency
distribution of Fig. 5/6.

**Hierarchical mode** (``config.topology.regions > 1``): the federation
is carved into regions, each running its *own* gateway sub-chain — own
master (or PoS schedule), own mempool, region-scoped gossip mesh — so
intra-region fair exchanges never leave the region.  A global
*settlement chain* ("anchor"), mined by a dedicated anchor master,
receives periodic checkpoint transactions from each region's
:class:`~repro.core.settlement.CheckpointAgent`; cross-region deliveries
escrow on the recipient's sub-chain and the claim travels back over the
WAN (see :mod:`repro.core.recipient`).  Assembly is one loop over chains:
``topology.regions == 1`` (the default) is its one-chain case, with no
settlement chain, and reproduces the paper's results bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.blockchain.checkpoint import CheckpointRules
from repro.blockchain.miner import Miner
from repro.blockchain.node import FullNode
from repro.blockchain.pos import PoSProducer, StakeRegistry, slot_of
from repro.blockchain.sigbatch import VerdictMemo
from repro.blockchain.wallet import Wallet
from repro.core.config import FUNDING_COIN_VALUE, NetworkConfig
from repro.core.costmodel import CostModel
from repro.core.settlement import CheckpointAgent
from repro.core.daemon import BlockchainDaemon
from repro.core.directory import DirectoryView, build_announcement_payload
from repro.core.gateway_agent import GatewayAgent
from repro.core.node_agent import NodeAgent
from repro.core.provisioning import RecipientRegistry, provision_device
from repro.core.recipient import NodeLedger, RecipientAgent, SpvLedger
from repro.core.report import DeploymentReporter
from repro.core.testbed import Testbed
from repro.crypto.keys import KeyPair
from repro.errors import ConfigurationError
from repro.light.compact import CompactBlockRelay
from repro.light.multicast import ChainMulticaster
from repro.light.server import LightServer
from repro.light.spv import SpvClient
from repro.light.wallet import LightWallet
from repro.lora.channel import RadioChannel
from repro.lora.device import EU868_DOWNLINK_DUTY_CYCLE
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
    # The actor's only recipient: over its own full node, or — in the
    # light tier, filled in once the SPV hosts exist — over ``light-i``.
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
    master_wallet: Wallet
    miner: Miner
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
        # The observability spine: one registry (and the testbed's one
        # tracer) for the whole deployment.
        self.registry = MetricsRegistry()
        # Every daemon of the deployment runs in this one host process:
        # they share one crypto-verdict memo, so the host verifies each
        # signature once.  What a node spends verifying is simulated time,
        # charged by the cost model, so no trace depends on it.
        self.verdict_memo = VerdictMemo()
        self.sites: list[Site] = []
        self.regions: list[Region] = []
        # chain label -> the daemons following (and gossiping) that chain
        self._groups: dict[str, dict[str, BlockchainDaemon]] = {}
        # The flat deployment's single master (None when hierarchical).
        self.master_daemon: Optional[BlockchainDaemon] = None
        self.master_wallet: Optional[Wallet] = None
        self.miner: Optional[Miner] = None
        # The settlement chain's master (None when flat).
        self.anchor_daemon: Optional[BlockchainDaemon] = None
        self.anchor_wallet: Optional[Wallet] = None
        self.anchor_miner: Optional[Miner] = None
        # PoS mode: every site's producer, and the flat deployment's
        # stake registry.
        self.pos_producers: list[PoSProducer] = []
        self.stake_registry: Optional[StakeRegistry] = None
        self.sync_agents: list[SyncAgent] = []
        # The light tier (empty in the default full-node deployment).
        self.light_servers: list[LightServer] = []
        self.light_clients: list[SpvClient] = []
        self.multicasters: list[ChainMulticaster] = []
        self.compact_relays: list[CompactBlockRelay] = []
        self._build()

    # -- construction -----------------------------------------------------------

    def _build(self) -> None:
        """Assemble every chain of the federation, then start its loops.

        One loop over the gateway chains; the flat deployment is the
        one-chain case (master ``"master"``, chain id ``""``, no
        settlement chain).  Daemons, agents and loops are constructed in
        a fixed order per mode — each daemon constructor schedules its
        serve process and registers its metric series, so the order is
        part of the trace.
        """
        cfg = self.config
        topo = cfg.topology
        params = cfg.chain
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

        # WAN: every host — gateway sites, chain masters, the anchor
        # master and each region's settlement node, light hosts — on one
        # PlanetLab-like latency matrix; partitions can therefore cut
        # region or anchor links independently.
        tags = [""] if flat else [f"-r{r}" for r in range(topo.regions)]
        hosts = cfg.site_names + [f"master{tag}" for tag in tags]
        if not flat:
            hosts += ["anchor"] + [f"anchor{tag}" for tag in tags]
        if light:
            hosts += cfg.light_names
        self.wan = self.build_wan(hosts)

        if not flat:
            # Global settlement chain: funds each region's settlement
            # wallet, announces nothing.
            anchor_node = self._new_settlement_node(params, "anchor")
            settlement_keys = [
                KeyPair.generate(self.rngs.stream(f"anchor-key-{r}"))
                for r in range(topo.regions)
            ]
            self.anchor_wallet, self.anchor_miner, self.anchor_daemon = (
                self._new_master(anchor_node, "anchor-master-key",
                                 funded=settlement_keys, announced=[]))
            height_gauge = self.registry.gauge("federation.subchain_height",
                                               "region")

        # Every chain publishes the IP announcement of **every**
        # recipient in the federation: a gateway resolving ``@R`` for a
        # globally-roaming sensor looks the foreign recipient up on its
        # *own* sub-chain.
        announced = list(zip(actor_keys + light_keys,
                             cfg.site_names + cfg.light_names))
        chains = []  # (master daemon, miner, sites, chain id, tag)

        for r, tag in enumerate(tags):
            chain_id = "" if flat else f"region-{r}"
            indices = cfg.region_site_indices(r)

            # The chain's own master (the paper's AWS EC2 instance):
            # bootstraps, funds this chain's actors, and mines.
            master_node = self._new_node(params, f"master{tag}")
            master_wallet, miner, master_daemon = self._new_master(
                master_node, f"master-key{tag}",
                funded=[actor_keys[i] for i in indices] + light_keys,
                announced=announced)
            sites = [
                self._build_site(i, cfg.site_names[i], params, master_node,
                                 actor_keys[i], chain_id=chain_id, region=r)
                for i in indices
            ]
            self.sites.extend(sites)
            self._mesh(chain_id or "chain",
                       [master_daemon] + [site.daemon for site in sites])
            chains.append((master_daemon, miner, sites, chain_id, tag))
            if flat:
                self.master_daemon = master_daemon
                self.master_wallet = master_wallet
                self.miner = miner
                continue

            # The region's settlement node + checkpoint agent.  Every
            # settlement engine carries its own CheckpointRules, so each
            # anchor node independently rejects stale or regressing
            # region digests.
            anchor_r_node = self._new_settlement_node(params, f"anchor{tag}")
            self._replay_chain(anchor_node, anchor_r_node)
            anchor_r_daemon = self._new_daemon(anchor_r_node,
                                               params.verify_blocks)
            anchor_r_wallet = Wallet(anchor_r_node.chain, settlement_keys[r])
            anchor_r_wallet.watch_chain()
            checkpoint_agent = CheckpointAgent(
                self.sim, r, master_daemon, anchor_r_daemon, anchor_r_wallet,
                COST_MODEL, self.rngs.stream(f"checkpoint{tag}"),
                interval=topo.checkpoint_interval, registry=self.registry,
            )
            checkpoint_agent.start()
            height_gauge.labels(region=str(r)).set(master_node.height)
            self.regions.append(Region(
                index=r, chain_id=chain_id, master_node=master_node,
                master_daemon=master_daemon, master_wallet=master_wallet,
                miner=miner, sites=sites,
                anchor_daemon=anchor_r_daemon, anchor_wallet=anchor_r_wallet,
                checkpoint_agent=checkpoint_agent,
            ))

        if flat:
            daemons = list(self.all_daemons().values())
            if cfg.light.compact_blocks:
                self.compact_relays = [CompactBlockRelay(daemon)
                                       for daemon in daemons]
            if light:
                self._build_light_tier(daemons, light_keys)
        else:
            # Settlement mesh: the anchor master and every region's
            # settlement node (small by construction — one per region).
            self._mesh("anchor", [self.anchor_daemon] + [
                region.anchor_daemon for region in self.regions])

        self._deploy_sensors()
        self._funding_baseline = {
            site.name: site.wallet.balance for site in self.sites
        }
        for master_daemon, miner, sites, chain_id, tag in chains:
            if cfg.consensus == "pos":
                registry = self._setup_pos(master_daemon, sites, tag)
                if flat:
                    self.stake_registry = registry
            else:
                self.sim.process(
                    self._mining_loop(master_daemon, miner, chain_id))
        if not flat:
            # The settlement chain stays master-mined regardless.
            self.sim.process(self._mining_loop(
                self.anchor_daemon, self.anchor_miner, "anchor"))
        self._start_common_loops()

    def _build_site(self, i: int, name: str, params, source_node: FullNode,
                    actor_key: KeyPair, chain_id: str = "",
                    region: int = 0) -> Site:
        """One gateway site: node, daemon, wallet, radio, both agents.

        ``source_node`` holds the bootstrap chain the site's node replays
        (the flat master's, or the site's region master's); ``chain_id``
        tags the agents with the sub-chain they settle on.
        """
        cfg = self.config
        node = self._new_node(params, name)
        self._replay_chain(source_node, node)
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
        registry = RecipientRegistry()
        recipient = None
        if cfg.light.device_class == "full":
            recipient = RecipientAgent(
                self.sim, name,
                NodeLedger(daemon, wallet, self.tracker),
                registry, self.wan, COST_MODEL, self.tracker,
                self.rngs.stream(f"recipient-{name}"),
                chain_id=chain_id,
            )
        return Site(
            index=i, name=name, node=node, daemon=daemon, wallet=wallet,
            directory=directory, channel=channel, gateway=gateway,
            recipient=recipient, registry=registry,
            region=region, chain_id=chain_id,
        )

    def _build_light_tier(self, daemons: list[BlockchainDaemon],
                          light_keys: list[KeyPair]) -> None:
        """SPV clients, their serving full nodes, and the multicast legs.

        Every full daemon serves headers/filters/proofs; each actor's
        recipient runs on a ``light-i`` WAN host whose serving peers are
        its home gateway, the next site over (failover), and the master.
        With ``multicast_interval > 0`` the home gateway additionally
        multicasts signed header bundles to its light host.
        """
        cfg = self.config
        self.light_servers = [LightServer(daemon) for daemon in daemons]
        n = cfg.num_gateways
        for i in range(n):
            name = cfg.light_names[i]
            peers = [cfg.site_names[i]]
            backup = cfg.site_names[(i + 1) % n]
            if backup not in peers:
                peers.append(backup)
            peers.append("master")
            spv = SpvClient(
                self.sim, self.wan, name, tuple(peers),
                pow_bits=cfg.chain.pow_bits,
                sync_interval=cfg.light.light_sync_interval,
                tracer=self.tracer,
            )
            site = self.sites[i]
            site.recipient = RecipientAgent(
                self.sim, name,
                SpvLedger(spv, LightWallet(light_keys[i]),
                          refund_delta=cfg.chain.locktime_grace),
                site.registry, self.wan, COST_MODEL, self.tracker,
                self.rngs.stream(f"light-recipient-{i}"),
            )
            self.light_clients.append(spv)
            if cfg.light.multicast_interval > 0:
                self.multicasters.append(ChainMulticaster(
                    self.sim, self.wan, site.name, site.wallet.keypair,
                    site.node.chain, (name,), cfg.light.multicast_interval,
                    modulation=self.modulation,
                    duty_cycle=EU868_DOWNLINK_DUTY_CYCLE,
                    tracer=self.tracer,
                ))
                spv.attach_multicast(
                    site.wallet.keypair.public_key.to_bytes(),
                    cfg.light.multicast_interval,
                    verify_every=cfg.light.multicast_verify_every,
                )

    def _mesh(self, label: str, daemons: list[BlockchainDaemon]) -> None:
        """Chain-scoped gossip: full mesh among the daemons following one
        chain — which is what makes them one convergence group."""
        self._groups[label] = {daemon.name: daemon for daemon in daemons}
        for daemon in daemons:
            for other in daemons:
                if other is not daemon:
                    daemon.gossip.connect(other.name)

    def _start_common_loops(self) -> None:
        """Reclaim sweeps and anti-entropy sync, over every daemon."""
        cfg = self.config
        if cfg.reclaim_interval > 0:
            for site in self.sites:
                self.sim.process(self._reclaim_loop(site))
        if cfg.sync_interval > 0:
            self.sync_agents = [
                SyncAgent(self.sim, daemon, interval=cfg.sync_interval)
                for daemon in self.all_daemons().values()
            ]

    def _new_node(self, params, name: str) -> FullNode:
        """A full node of this deployment, on the shared verdict memo.

        Script re-verification on block connect is disabled on every
        node for CPU economy — scripts are fully verified at mempool
        admission on all nodes; the *timing* of Fig. 6's block
        verification is modeled by the daemon stall.
        """
        node = FullNode(params, name, verify_scripts=False,
                        mempool_policy=self.config.mempool)
        node.engine.verdict_memo = self.verdict_memo
        return node

    def _new_settlement_node(self, params, name: str) -> FullNode:
        node = self._new_node(params, name)
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

    def _new_master(self, node: FullNode, key_stream: str,
                    funded: list[KeyPair],
                    announced: list[tuple[KeyPair, str]]
                    ) -> tuple[Wallet, Miner, BlockchainDaemon]:
        """A chain's mining master: wallet, miner, the genesis era, then
        the daemon (block verification off — it mined every block)."""
        wallet = Wallet(node.chain,
                        KeyPair.generate(self.rngs.stream(key_stream)))
        wallet.watch_chain()
        miner = Miner(chain=node.chain, mempool=node.mempool,
                      reward_pubkey_hash=wallet.pubkey_hash)
        self._bootstrap_chain(node, miner, wallet, funded, announced)
        return wallet, miner, self._new_daemon(node, verify_blocks=False)

    def _bootstrap_chain(self, master_node: FullNode, miner: Miner,
                         master_wallet: Wallet, funded: list[KeyPair],
                         announced: list[tuple[KeyPair, str]]) -> None:
        """Mine one chain's genesis era: maturity, funding, announcements.

        Every key in ``funded`` receives its coin fan-out; every
        ``(key, endpoint)`` in ``announced`` gets its IP announcement
        published — the "each recipient ... must create a blockchain
        transaction containing the information relative to its IP
        address" step, before t=0.  A key funded on this chain pays for
        its own announcement; payloads are key-signed, so the master's
        wallet can carry those of actors who hold no coins here (a
        region's foreign recipients).
        """
        cfg = self.config
        own = {key.pubkey_hash for key in funded}
        carried = sum(1 for key, _ in announced
                      if key.pubkey_hash not in own)
        # One mature coinbase per transaction the master pays for, plus
        # headroom.
        for _ in range(len(funded) + carried
                       + cfg.chain.coinbase_maturity + 1):
            miner.mine_and_connect(0.0)

        def submit(tx, what: str) -> None:
            decision = master_node.submit_transaction(tx)
            if not decision.accepted:
                raise ConfigurationError(
                    f"bootstrap {what} rejected: {decision.reason}")

        for key in funded:
            submit(master_wallet.create_fanout(
                key.pubkey_hash, FUNDING_COIN_VALUE, cfg.funding_coins,
            ), "funding")
        self._mine_until_mempool_empty(master_node, miner)
        if not announced:
            return  # the settlement chain: no extra block
        for key, endpoint in announced:
            carrier = master_wallet
            if key.pubkey_hash in own:
                carrier = Wallet(master_node.chain, key)
                carrier.refresh_from_utxo_set()
            submit(carrier.create_announcement(
                build_announcement_payload(key, endpoint)), "announcement")
        self._mine_until_mempool_empty(master_node, miner)

    def _mine_until_mempool_empty(self, master_node: FullNode,
                                  miner: Miner) -> None:
        """Mine bootstrap blocks until every pending tx confirms.

        With small ``max_block_size`` values a single block cannot carry
        all the funding fan-outs, so the bootstrap keeps mining.
        """
        miner.mine_and_connect(0.0)
        guard = 0
        while len(master_node.mempool):
            miner.mine_and_connect(0.0)
            guard += 1
            if guard > 10_000:
                raise ConfigurationError(
                    "bootstrap transactions never fit a block; "
                    "max_block_size is too small"
                )

    @staticmethod
    def _replay_chain(source: FullNode, target: FullNode) -> None:
        """Initial block download: copy the bootstrap chain to a new node."""
        for _height, block in source.chain.iter_active_blocks(start_height=1):
            target.chain.add_block(block)

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

    def _mining_loop(self, daemon: BlockchainDaemon, miner: Miner,
                     chain_id: str):
        """A dedicated master mines one chain every ``block_interval``."""
        # Sub-chains and the anchor label their blocks; the flat chain's
        # spans carry no region.
        region = {"region": chain_id} if chain_id else {}
        while True:
            yield self.sim.timeout(self.config.chain.block_interval)
            # One block = one trace: mining roots it, each gossip hop and
            # per-peer validation nests beneath.
            span = self.tracer.span("block.mine", host=daemon.name, **region)
            block = yield daemon.rpc(
                lambda: miner.mine_and_connect(self.sim.now)
            )
            span.end("ok", height=daemon.node.height,
                     txs=len(block.transactions))
            daemon.gossip.broadcast_block(block, parent=span)

    # -- proof-of-stake mode (§6 future work) -----------------------------------

    def _setup_pos(self, master_daemon: BlockchainDaemon, sites: list[Site],
                   tag: str) -> StakeRegistry:
        """One chain's sites produce blocks via a stake-weighted slot lottery.

        Consensus rule enforced by every daemon of the chain: a block's
        coinbase must pay its slot's elected leader.  Bootstrap-era blocks
        (timestamp 0, mined by the master before the network went live)
        are exempt.  Each chain runs its *own* election — own epoch seed
        (``tag`` is empty for the flat chain, ``-r<index>`` for a region),
        own slot schedule.
        """
        registry = StakeRegistry(
            epoch_seed=f"bcwan-pos-{self.config.seed}{tag}".encode("utf-8"),
            slot_duration=self.config.chain.block_interval,
        )
        leader_reward_hash: dict[str, bytes] = {}
        for site in sites:
            registry.register(site.name, site.wallet.keypair.public_key,
                              stake=100)
            leader_reward_hash[site.name] = site.wallet.pubkey_hash

        def pos_block_valid(block) -> bool:
            if block.header.timestamp <= 0.0:
                return True  # bootstrap era
            leader = registry.leader_for_slot(
                slot_of(block.header.timestamp, registry.slot_duration)
            )
            expected = leader_reward_hash[leader]
            coinbase_script = block.coinbase.outputs[0].script_pubkey
            elements = coinbase_script.elements
            return (len(elements) == 5 and isinstance(elements[2], bytes)
                    and elements[2] == expected)

        for daemon in [master_daemon] + [site.daemon for site in sites]:
            daemon.block_validator = pos_block_valid

        for site in sites:
            producer = PoSProducer(
                name=site.name,
                registry=registry,
                chain=site.node.chain,
                mempool=site.node.mempool,
                private_key=site.wallet.keypair.private_key,
                reward_pubkey_hash=site.wallet.pubkey_hash,
            )
            self.pos_producers.append(producer)
            self.sim.process(self._pos_production_loop(site, producer))
        return registry

    def _pos_production_loop(self, site: Site, producer):
        """Wake at each slot boundary; produce when this site leads.

        Production goes through the site's own daemon, so a stalled
        gateway daemon delays its own blocks — the edge-node cost §6
        wants PoS to reduce, observable in the consensus ablation.
        """
        duration = self.config.chain.block_interval
        while True:
            slot_index = int(self.sim.now // duration) + 1
            yield self.sim.timeout(slot_index * duration - self.sim.now + 0.05)
            if not producer.is_leader(self.sim.now):
                continue
            span = self.tracer.span("block.mine", host=site.name)
            produced = yield site.daemon.rpc(
                lambda: producer.try_produce(self.sim.now)
            )
            if produced is None:
                span.end("skipped", reason="not produced")
                continue
            block, _signature = produced
            span.end("ok", height=site.node.height,
                     txs=len(block.transactions))
            site.daemon.gossip.broadcast_block(block, parent=span)

    def _reclaim_loop(self, site: Site):
        """Periodic sweep of expired, unclaimed key-release offers."""
        while True:
            yield self.sim.timeout(self.config.reclaim_interval)
            yield site.recipient.reclaim_expired()

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
