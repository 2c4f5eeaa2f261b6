"""Proof-of-stake federations under the fault plans.

The slot lottery has to survive what the master-mined chain survives: a
partition in which both sides keep producing (each side's leaders fill
their own slots, so the mesh genuinely forks) must heal onto one chain,
and a crashed gateway must come back — with the leader rule still on its
rebuilt node — and lead again.  An equivocating leader, two endorsed
blocks in one slot, is the one fork PoS itself can cause: it must surface
as a reorg that heals, not a permanent split.
"""

from __future__ import annotations

import pytest

from repro.blockchain.miner import Miner
from repro.chaos import ChaosInjector, FaultPlan, assert_converged
from repro.core import BcWANNetwork, NetworkConfig

POS = dict(num_gateways=4, sensors_per_gateway=0, seed=41, consensus="pos",
           sync_interval=10.0)
SIDE_A = ["site-0", "site-1", "master"]
SIDE_B = ["site-2", "site-3"]


def run_plan(plan: FaultPlan, until: float) -> BcWANNetwork:
    network = BcWANNetwork(NetworkConfig(**POS))
    ChaosInjector(network.sim, network.wan, plan,
                  daemons=network.all_daemons(),
                  registry=network.registry).install()
    network.sim.run(until=until)
    return network


def produced_after(network: BcWANNetwork, site, after: float) -> int:
    """Active blocks stamped after ``after`` that pay ``site``."""
    chain = network.master_daemon.node.chain
    return sum(
        1 for _height, block in chain.iter_active_blocks(1)
        if block.header.timestamp > after
        and block.coinbase.outputs[0].script_pubkey.elements[2]
        == site.wallet.pubkey_hash)


def test_partition_forks_then_heals_onto_one_chain():
    plan = FaultPlan(seed=41).partition([SIDE_A, SIDE_B], start=30.0,
                                        heal_at=120.0)
    network = run_plan(plan, until=115.0)
    daemons = network.all_daemons()
    side_a = assert_converged([daemons[name] for name in SIDE_A])
    side_b = assert_converged([daemons[name] for name in SIDE_B])
    assert side_a.tip_hash != side_b.tip_hash  # both sides produced
    network.sim.run(until=240.0)
    healed = assert_converged(daemons)
    assert healed.height > max(side_a.height, side_b.height)


@pytest.mark.parametrize("preserve_chain", [False, True])
def test_crashed_gateway_recovers_and_leads_again(preserve_chain):
    # site-1 leads slots 10 and 11 (t = 150-180) while it is down, and
    # slots 14 and 15 after its restart.
    plan = FaultPlan(seed=41).crash("site-1", at=140.0, restart_at=190.0,
                                    preserve_chain=preserve_chain)
    network = run_plan(plan, until=300.0)
    assert_converged(network.all_daemons())
    restarted = network.sites[1].daemon.node
    assert restarted.engine.leader_rule is network.producers["chain"].schedule
    assert produced_after(network, network.sites[1], after=190.0) > 0


def test_gateway_crashed_mid_production_leads_again():
    # site-1 wakes for its slot 10 at t = 150.05 and queues its mining
    # RPC; the crash lands while that job is in service and fails it with
    # DaemonDown.  The seat must still lead slots 14 and 15 after
    # restarting.
    plan = FaultPlan(seed=41).crash("site-1", at=150.06, restart_at=190.0,
                                    preserve_chain=True)
    network = run_plan(plan, until=300.0)
    assert_converged(network.all_daemons())
    site = network.sites[1]
    assert network.producers["chain"].schedule.leader_for_slot(10) == \
        site.name
    assert produced_after(network, site, after=150.0) == \
        produced_after(network, site, after=190.0) > 0


def test_equivocating_leader_surfaces_as_a_healed_reorg():
    network = BcWANNetwork(NetworkConfig(**POS))
    network.sim.run(until=50.0)
    registry = network.producers["chain"].schedule
    slot = int(network.sim.now // registry.slot_duration) + 1
    start = slot * registry.slot_duration
    leader = next(site for site in network.sites
                  if site.name == registry.leader_for_slot(slot))
    # Just before the leader's own wake-up: two endorsed blocks for its
    # slot on the same parent.
    network.sim.run(until=start)
    key = leader.wallet.keypair
    miner = Miner(chain=leader.node.chain, mempool=leader.node.mempool,
                  reward_pubkey_hash=key.pubkey_hash,
                  endorsing_key=key.private_key)
    first = miner.build_template(start + 0.01)
    second = miner.build_template(start + 0.02)
    assert first.hash != second.hash
    assert first.header.prev_hash == second.header.prev_hash
    daemons = network.all_daemons()
    others = [name for name in daemons if name != leader.name]
    for name in [leader.name, others[0]]:
        daemons[name].gossip.receive_block(first)
    for name in others[1:]:
        daemons[name].gossip.receive_block(second)
    forked = daemons[others[-1]].node.chain
    assert forked.is_active(second.hash)
    assert daemons[leader.name].node.chain.is_active(first.hash)

    network.sim.run(until=start + 60.0)
    assert_converged(daemons)
    # The leader built on its first block; the other branch was
    # reorganised away and stays stored as a side block.
    assert forked.is_active(first.hash)
    assert forked.contains(second.hash) and not forked.is_active(second.hash)
