"""Canned federation scenarios for chaos runs.

:func:`build_federation` assembles the standard test mesh — N gateway
daemons on one WAN, fully connected gossip, a :class:`SyncAgent` each —
from a single seed, so chaos tests and benchmarks share one deterministic
construction instead of re-wiring daemons by hand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.blockchain.miner import Miner
from repro.blockchain.node import FullNode
from repro.blockchain.params import ChainParams
from repro.blockchain.wallet import Wallet
from repro.chaos.faults import FaultPlan
from repro.chaos.injector import ChaosInjector
from repro.core.costmodel import CostModel
from repro.core.daemon import BlockchainDaemon
from repro.crypto.keys import KeyPair
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.p2p.network import WANetwork
from repro.p2p.sync import SyncAgent
from repro.sim.core import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.rng import RngRegistry

__all__ = ["Federation", "build_federation"]


@dataclass
class Federation:
    """One assembled gateway mesh plus its (optional) chaos injector."""

    sim: Simulator
    rngs: RngRegistry
    wan: WANetwork
    names: list[str]
    daemons: dict[str, BlockchainDaemon]
    agents: dict[str, SyncAgent]
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = field(default_factory=lambda: Tracer(enabled=False))
    injector: Optional[ChaosInjector] = None
    _wallets: dict[str, Wallet] = field(default_factory=dict)

    def make_miner(self, name: str, key_seed: int) -> Miner:
        """A miner on ``name``'s chain with its own reward key.

        Distinct ``key_seed`` values give distinct coinbase reward keys,
        so two partition sides mining at the same heights produce
        *different* block hashes — a genuine fork, not a coincidence.
        """
        daemon = self.daemons[name]
        wallet = Wallet(daemon.node.chain,
                        KeyPair.generate(random.Random(key_seed)))
        wallet.watch_chain()
        self._wallets[name] = wallet
        return Miner(chain=daemon.node.chain, mempool=daemon.node.mempool,
                     reward_pubkey_hash=wallet.pubkey_hash)

    def run_plan(self, plan: FaultPlan) -> ChaosInjector:
        """Install ``plan`` over this federation (before ``sim.run``) and
        watch for the mesh to reconverge after it."""
        injector = ChaosInjector(self.sim, self.wan, plan,
                                 daemons=self.daemons,
                                 registry=self.registry)
        injector.install()
        injector.watch_reconvergence()
        self.injector = injector
        return injector


# Chaos defaults: cheap validation (the faults under test are network and
# process faults, not script faults), deterministic constant WAN latency.
WAN_LATENCY = 0.05
CHAIN_PARAMS = ChainParams(coinbase_maturity=1)


def build_federation(size: int, seed: int,
                     sync_interval: float = 5.0) -> Federation:
    """A ``size``-gateway full mesh named ``gw-0`` .. ``gw-{size-1}``.

    The short default sync interval lets recovery happen within small
    simulated horizons.  The WAN carries a disabled sim-time
    :class:`~repro.obs.tracing.Tracer`: setting ``federation.tracer.enabled``
    makes envelope transits and per-daemon block validation produce spans.
    """
    if size < 2:
        raise ConfigurationError("a federation needs at least two gateways")
    sim = Simulator()
    rngs = RngRegistry(seed)
    registry = MetricsRegistry()
    tracer = Tracer(sim, enabled=False)
    wan = WANetwork(sim, rngs.stream("wan"),
                    latency=ConstantLatency(delay=WAN_LATENCY))
    wan.tracer = tracer
    cost = CostModel(jitter_sigma=0.0)
    names = [f"gw-{i}" for i in range(size)]
    daemons: dict[str, BlockchainDaemon] = {}
    agents: dict[str, SyncAgent] = {}
    for name in names:
        node = FullNode(CHAIN_PARAMS, name)
        daemons[name] = BlockchainDaemon(
            sim, name, wan, node, cost, rngs.stream(f"daemon-{name}"),
            registry=registry)
    for name in names:
        for peer in names:
            if peer != name:
                daemons[name].gossip.connect(peer)
    for name in names:
        agents[name] = SyncAgent(sim, daemons[name], interval=sync_interval)
    return Federation(sim=sim, rngs=rngs, wan=wan, names=names,
                      daemons=daemons, agents=agents,
                      registry=registry, tracer=tracer)
