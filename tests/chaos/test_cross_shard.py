"""Cross-shard chaos: an inter-region partition and its heal.

The hierarchical federation's fault story: cutting the WAN between two
regions (taking region 0's settlement node away from the anchor master)
must leave both sub-chains locally live and converged, stall region 0's
anchoring, and — after the heal — let the checkpoint agent catch the
anchor up through its direct re-send path.  Same seed, same fault log,
byte for byte.

Also pins the full mesh `build_federation` assembles.
"""

from __future__ import annotations

from repro.blockchain.checkpoint import latest_checkpoints
from repro.chaos import (
    ChaosInjector,
    FaultPlan,
    assert_converged,
    assert_hierarchy_converged,
    build_federation,
)
from repro.core import BcWANNetwork, NetworkConfig, RegionTopology

# Region 0 plus its infrastructure on one side; region 1, its
# infrastructure, and the anchor master on the other — the seeded
# inter-region partition.
SIDE_A = ["site-0", "site-1", "master-r0", "anchor-r0"]
SIDE_B = ["site-2", "site-3", "master-r1", "anchor-r1", "anchor"]

PARTITION_START = 30.0
PARTITION_HEAL = 150.0


def build_network(seed: int = 77) -> BcWANNetwork:
    return BcWANNetwork(NetworkConfig(
        num_gateways=4, sensors_per_gateway=0, seed=seed,
        sync_interval=10.0,  # anti-entropy repairs the healed partition
        topology=RegionTopology(regions=2, checkpoint_interval=20.0),
    ))


def run_partition(seed: int = 77, until: float = 240.0):
    network = build_network(seed)
    plan = FaultPlan(seed=seed).partition(
        [SIDE_A, SIDE_B], start=PARTITION_START, heal_at=PARTITION_HEAL)
    injector = ChaosInjector(network.sim, network.wan, plan,
                             daemons=network.all_daemons(),
                             registry=network.registry)
    injector.install()
    network.sim.run(until=until)
    return network, injector


def test_sub_chains_stay_live_and_converged_during_partition():
    network, injector = run_partition(until=140.0)
    groups = network.convergence_groups()
    # Each region's mesh is wholly inside one side: both sub-chains kept
    # mining and their followers agree.
    reports = assert_hierarchy_converged(
        {label: groups[label] for label in ("region-0", "region-1")})
    assert reports["region-0"].height > 8
    assert reports["region-1"].height > 8
    # Region 0's anchoring is stalled: its epoch counter paused at the
    # pre-cut commit (at most one checkpoint in flight) and the agent is
    # re-sending the stuck one into the void, while region 1 — on the
    # anchor master's side — kept anchoring epoch after epoch.
    anchored = latest_checkpoints(network.anchor_daemon.node.chain)
    stalled = network.regions[0].checkpoint_agent
    assert anchored[0].epoch == stalled.epoch == 1
    assert stalled.resends > 0
    assert injector.telemetry.partition_drops > 0
    assert anchored[1].epoch > anchored[0].epoch


def test_anchor_catches_up_after_heal():
    network, injector = run_partition(until=240.0)
    assert injector.telemetry.partitions_healed == 1
    # Everything reconverges — sub-chains and the settlement group.
    assert_hierarchy_converged(network.convergence_groups())
    anchored = latest_checkpoints(network.anchor_daemon.node.chain)
    for region in network.regions:
        agent = region.checkpoint_agent
        assert anchored[region.index].epoch == agent.epoch
        # The anchored view caught up to (near) the live sub-chain tip.
        assert anchored[region.index].height > 8


def test_same_seed_cross_shard_run_is_byte_identical():
    first_net, first = run_partition(seed=77)
    second_net, second = run_partition(seed=77)
    assert first.telemetry.fault_log == second.telemetry.fault_log
    assert "\n".join(first.telemetry.fault_log)  # log is non-empty
    for label, report in assert_hierarchy_converged(
            first_net.convergence_groups()).items():
        other = assert_converged(second_net.convergence_groups()[label])
        assert report.chain_digest == other.chain_digest
        assert report.utxo_digest == other.utxo_digest


# -- the chaos scenario mesh ---------------------------------------------------

def test_flat_federation_keeps_full_mesh():
    fed = build_federation(size=4, seed=1)
    for daemon in fed.daemons.values():
        assert len(daemon.gossip.peers) == 3
