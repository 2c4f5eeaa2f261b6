"""The headline scenario: partition, diverge, heal, crash, reconverge.

This is the acceptance test for the chaos subsystem: a six-gateway
federation split 2+4, with *both* sides mining during the partition (so
the mesh genuinely forks), a heal, then a crash/restart of a minority
gateway — and the requirement that the whole federation ends on one
chain, with the reconvergence time on the telemetry.  The same seed must
reproduce the identical fault schedule and final state.
"""

from __future__ import annotations

from repro.chaos import FaultPlan, assert_converged, build_federation


def acceptance_plan() -> FaultPlan:
    return (FaultPlan(seed=7)
            .partition([["gw-0", "gw-1"],
                        ["gw-2", "gw-3", "gw-4", "gw-5"]],
                       start=1.0, heal_at=40.0)
            .crash("gw-1", at=50.0, restart_at=60.0,
                   preserve_chain=False))


def run_acceptance(seed: int = 7):
    fed = build_federation(size=6, seed=seed)
    fed.run_plan(acceptance_plan())
    minority_miner = fed.make_miner("gw-0", key_seed=100)
    majority_miner = fed.make_miner("gw-2", key_seed=200)
    # Minority side mines 2 blocks, majority side 3: after the heal the
    # majority branch strictly wins and the minority must reorg.
    schedule = [
        (5.0, "gw-0", minority_miner),
        (15.0, "gw-0", minority_miner),
        (6.0, "gw-2", majority_miner),
        (16.0, "gw-2", majority_miner),
        (26.0, "gw-2", majority_miner),
    ]
    for at, name, miner in schedule:
        def job(miner=miner, name=name, at=at):
            block = miner.mine_and_connect(at)
            fed.daemons[name].gossip.broadcast_block(block)
        fed.sim.call_at(at, job)
    fed.sim.run(until=120.0)
    return fed


def test_sides_diverge_during_partition():
    fed = build_federation(size=6, seed=7)
    fed.run_plan(acceptance_plan())
    minority_miner = fed.make_miner("gw-0", key_seed=100)
    majority_miner = fed.make_miner("gw-2", key_seed=200)
    fed.sim.call_at(5.0, lambda: fed.daemons["gw-0"].gossip.broadcast_block(
        minority_miner.mine_and_connect(5.0)))
    fed.sim.call_at(6.0, lambda: fed.daemons["gw-2"].gossip.broadcast_block(
        majority_miner.mine_and_connect(6.0)))
    fed.sim.run(until=30.0)  # still partitioned
    tip_a = fed.daemons["gw-0"].node.chain.tip.hash
    tip_b = fed.daemons["gw-2"].node.chain.tip.hash
    assert tip_a != tip_b
    # Each side agrees internally.
    assert fed.daemons["gw-1"].node.chain.tip.hash == tip_a
    for name in ("gw-3", "gw-4", "gw-5"):
        assert fed.daemons[name].node.chain.tip.hash == tip_b


def test_federation_reconverges_after_heal_and_crash():
    fed = run_acceptance()
    report = assert_converged(fed.daemons)
    # The majority (3-block) branch won; the minority's 2 blocks reorged.
    assert report.height == 3
    majority_tip = fed.daemons["gw-2"].node.chain.tip.hash
    assert report.tip_hash == majority_tip
    telemetry = fed.injector.telemetry
    assert telemetry.partitions_started == 1
    assert telemetry.partitions_healed == 1
    assert telemetry.crashes == 1
    assert telemetry.restarts == 1
    assert telemetry.partition_drops > 0
    assert telemetry.reconvergence_time is not None
    assert telemetry.reconvergence_time >= 0.0
    # The restarted gateway lost everything and re-synced from genesis.
    assert fed.daemons["gw-1"].stats.restarts == 1
    assert fed.daemons["gw-1"].node.height == 3


def test_minority_side_actually_reorged():
    fed = run_acceptance()
    # gw-0 mined 2 blocks that are no longer on the active chain.
    chain = fed.daemons["gw-0"].node.chain
    active = {chain.block_at(h).hash for h in range(chain.height + 1)}
    minority_wallet = fed._wallets["gw-0"]
    # Its coinbase rewards were orphaned along with the branch: the
    # wallet's outputs are not in the (post-reorg) UTXO set.
    spendable = minority_wallet.refresh_from_utxo_set
    spendable()
    assert chain.height == 3
    # The majority miner's chain is everyone's chain.
    assert active == {
        fed.daemons["gw-2"].node.chain.block_at(h).hash
        for h in range(chain.height + 1)
    }


def test_same_seed_is_byte_identical():
    first = run_acceptance(seed=7)
    second = run_acceptance(seed=7)
    log_a = "\n".join(first.injector.telemetry.fault_log)
    log_b = "\n".join(second.injector.telemetry.fault_log)
    assert log_a == log_b
    tip_a = assert_converged(first.daemons)
    tip_b = assert_converged(second.daemons)
    assert tip_a.tip_hash == tip_b.tip_hash
    assert tip_a.chain_digest == tip_b.chain_digest
    assert tip_a.utxo_digest == tip_b.utxo_digest
    assert (first.injector.telemetry.reconvergence_time
            == second.injector.telemetry.reconvergence_time)


def test_partition_without_heal_never_converges():
    fed = build_federation(size=4, seed=3)
    plan = FaultPlan(seed=3).partition(
        [["gw-0", "gw-1"], ["gw-2", "gw-3"]], start=1.0, heal_at=None)
    fed.run_plan(plan)
    miner = fed.make_miner("gw-0", key_seed=9)
    fed.sim.call_at(2.0, lambda: fed.daemons["gw-0"].gossip.broadcast_block(
        miner.mine_and_connect(2.0)))
    fed.sim.run(until=60.0)
    assert fed.daemons["gw-1"].node.height == 1  # same side: synced
    assert fed.daemons["gw-2"].node.height == 0  # severed forever
