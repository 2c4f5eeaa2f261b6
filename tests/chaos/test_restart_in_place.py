"""A restart resets the daemon's node in place; nothing built on it is left
following a dead chain.

Each cell crashes one host of an assembled deployment and restarts it,
either with its chain store (``preserve_chain``) or with nothing (state
loss, re-synced from its peers):

* flat, full recipients: ``site-1`` (wallet, directory view);
* flat, light recipients with multicast: ``site-0``, which serves
  ``light-0`` and multicasts headers to it;
* two regions: ``master-r0``, whose sub-chain region 0's checkpoint
  agent follows.

Afterwards every wallet, directory view, multicaster, site and region
must read its daemon's node and chain.  The restarted host's light server
must go on pushing proofs for blocks connected after the restart, and
region 0's checkpoints must cover every transaction its sub-chain
connected, each in one epoch only.  The crash lands between two of the
master's mining jobs; ``test_crash_mid_job.py`` crashes daemons inside
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import pytest

from repro.chaos import ChaosInjector, FaultPlan
from repro.core import BcWANNetwork, NetworkConfig, RegionTopology
from repro.core.config import LightConfig
from repro.light.messages import TxProofMessage

CRASH_AT, RESTART_AT = 40.0, 60.0
EXCHANGES = 24

BASE = dict(num_gateways=3, sensors_per_gateway=2, seed=5,
            exchange_interval=20.0, sync_interval=10.0)
TOPOLOGIES = {
    "flat-full": (NetworkConfig(**BASE), "site-1"),
    "flat-light-multicast": (NetworkConfig(**BASE, light=LightConfig(
        device_class="light", multicast_interval=15.0,
        light_sync_interval=30.0)), "site-0"),
    "regions": (NetworkConfig(**dict(BASE, num_gateways=4),
                              topology=RegionTopology(
                                  regions=2, checkpoint_interval=20.0)),
                "master-r0"),
}


@dataclass
class Restarted:
    network: BcWANNetwork
    injector: ChaosInjector
    host: str
    bootstrap_height: int
    # (height, txid) of every proof the restarted host sent after it
    # came back.
    proofs: list[tuple[int, bytes]] = field(default_factory=list)

    @property
    def daemon(self):
        return self.network.all_daemons()[self.host]


def restart_run(topology: str, preserve_chain: bool,
                tracing: bool = False) -> Restarted:
    config, host = TOPOLOGIES[topology]
    network = BcWANNetwork(replace(config, tracing=tracing))
    plan = FaultPlan(seed=5).crash(host, at=CRASH_AT, restart_at=RESTART_AT,
                                   preserve_chain=preserve_chain)
    injector = ChaosInjector(network.sim, network.wan, plan,
                             daemons=network.all_daemons(),
                             registry=network.registry).install()
    run = Restarted(network, injector, host,
                    network.all_daemons()[host].node.height)
    send = network.wan.send

    def spy(source, destination, payload, *args, **kwargs):
        if (source == host and isinstance(payload, TxProofMessage)
                and network.sim.now > RESTART_AT):
            run.proofs.append((payload.height, payload.txid))
        return send(source, destination, payload, *args, **kwargs)

    network.wan.send = spy
    network.run(num_exchanges=EXCHANGES)
    network.sim.run(until=network.sim.now + 100.0)
    return run


CELLS = [(topology, preserve) for topology in TOPOLOGIES
         for preserve in (True, False)]


def cell_id(cell) -> str:
    topology, preserve = cell
    return f"{topology}-{'preserve' if preserve else 'state-loss'}"


@pytest.fixture(scope="module")
def cells():
    """One run per cell, shared by the checks below (they only read)."""
    runs: dict[tuple[str, bool], Restarted] = {}

    def cell(topology: str, preserve_chain: bool) -> Restarted:
        if (topology, preserve_chain) not in runs:
            runs[topology, preserve_chain] = restart_run(topology,
                                                         preserve_chain)
        return runs[topology, preserve_chain]
    return cell


@pytest.fixture(params=CELLS, ids=cell_id)
def restarted(request, cells) -> Restarted:
    return cells(*request.param)


def test_the_host_came_back_and_caught_up(restarted):
    daemon = restarted.daemon
    assert daemon.stats.crashes == daemon.stats.restarts == 1
    assert daemon.online
    assert daemon.node.height > restarted.bootstrap_height
    group = next(group for group in
                 restarted.network.convergence_groups().values()
                 if restarted.host in group)
    assert daemon.node.chain.tip.hash in {
        other.node.chain.tip.hash for name, other in group.items()
        if name != restarted.host}


def test_everything_built_on_the_node_reads_its_chain(restarted):
    network = restarted.network
    daemons = network.all_daemons()
    for site in network.sites:
        node = site.daemon.node
        assert site.node is node
        assert site.wallet.chain is node.chain
        assert site.directory._chain is node.chain
    for region in network.regions:
        assert region.master_node is region.master_daemon.node
        assert region.anchor_wallet.chain is region.anchor_daemon.node.chain
    for multicaster in network.multicasters:
        assert multicaster.chain is daemons[multicaster.name].node.chain


@pytest.mark.parametrize("preserve_chain", [True, False])
def test_the_light_server_proves_blocks_connected_after_the_restart(
        cells, preserve_chain):
    restarted = cells("flat-light-multicast", preserve_chain)
    restart_height = int(next(
        line for line in restarted.injector.telemetry.fault_log
        if " restart " in line).rsplit("height=", 1)[1])
    assert any(height > restart_height for height, _ in restarted.proofs)


@pytest.mark.parametrize("preserve_chain", [True, False])
def test_checkpoints_cover_every_transaction_the_subchain_connected(
        cells, preserve_chain):
    restarted = cells("regions", preserve_chain)
    region = restarted.network.regions[0]
    agent = region.checkpoint_agent
    assert agent.checkpoints_committed >= 2
    covered = {txid for txids in agent.epoch_settled.values()
               for txid in txids}
    covered.update(agent._epoch_txids)
    chain = region.master_daemon.node.chain
    connected = [tx.txid for _height, block in chain.iter_active_blocks(
        start_height=restarted.bootstrap_height + 1)
        for tx in block.transactions[1:]]
    assert connected
    assert set(connected) <= covered


@pytest.mark.parametrize("preserve_chain", [True, False])
def test_a_txid_enters_at_most_one_checkpoint_epoch(cells, preserve_chain):
    """Blocks re-synced after a state-loss restart reach the checkpoint
    agent again; what it already settled or holds stays put."""
    agent = cells("regions", preserve_chain).network.regions[0] \
        .checkpoint_agent
    entered = [txid for txids in agent.epoch_settled.values()
               for txid in txids] + agent._epoch_txids
    assert entered
    assert len(entered) == len(set(entered))


@pytest.mark.parametrize("topology", ["flat-light-multicast", "regions"])
def test_restart_determinism(topology):
    """Two restart runs of one seed: identical fault logs and traces."""
    runs = [restart_run(topology, preserve_chain=True, tracing=True)
            for _ in range(2)]
    first, second = (run.injector.telemetry.fault_log for run in runs)
    assert any(" restart " in line for line in first)
    assert first == second
    assert runs[0].network.export_trace() == runs[1].network.export_trace()
