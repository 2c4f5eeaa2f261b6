#!/usr/bin/env python3
"""Hierarchical federation: regional sub-chains under a settlement chain.

Builds a two-region federation with *global* roaming — some sensors
deliver through gateways in a foreign region — runs a workload, and then
audits one settled exchange from the global settlement chain alone,
using nothing but the anchored checkpoint and a Merkle inclusion proof.

Run::

    python examples/multi_region.py
"""

from __future__ import annotations

from repro.blockchain.checkpoint import (
    iter_checkpoints,
    latest_checkpoints,
    settlement_proof,
    verify_settlement,
)
from repro.chaos import assert_hierarchy_converged
from repro.core import BcWANNetwork, NetworkConfig, RegionTopology


def main() -> None:
    # Four actors in two regions.  Each region runs its own sub-chain
    # (own master, own mempool, region-scoped gossip); roaming="global"
    # rotates sensors across the whole federation, so actors 1 and 3
    # deliver through a gateway on the *other* region's sub-chain.
    config = NetworkConfig(
        num_gateways=4,
        sensors_per_gateway=2,
        exchange_interval=30.0,
        seed=2026,
        topology=RegionTopology(
            regions=2,
            roaming="global",
            checkpoint_interval=30.0,   # anchor a digest every 30 s
        ),
    )
    network = BcWANNetwork(config)
    for region in network.regions:
        print(f"{region.chain_id}: sites "
              f"{[site.name for site in region.sites]}, sub-chain height "
              f"{region.master_node.height} after bootstrap")
    print(f"anchor: settlement chain height "
          f"{network.anchor_daemon.node.height} after bootstrap")

    report = network.run(num_exchanges=12)
    print()
    print(report.format())

    cross = sum(site.gateway.cross_region_claims for site in network.sites)
    relayed = sum(site.recipient.stats()["claims_relayed"] for site in network.sites)
    print(f"\ncross-region exchanges: {cross} claims audited and signed "
          f"across the border, {relayed} relayed claims broadcast on the "
          f"escrow's home sub-chain")

    # Let the final checkpoints confirm, then check every sub-chain (and
    # the settlement mesh) converged internally.
    network.sim.run(until=network.sim.now + 120.0)
    reports = assert_hierarchy_converged(network.convergence_groups())
    for label, convergence in reports.items():
        print(f"converged [{label}]: height {convergence.height}, "
              f"{len(convergence.participants)} daemons agree")

    # The audit: read the newest checkpoint per region off the anchor
    # chain and prove one settled transaction's membership against it.
    anchored = latest_checkpoints(network.anchor_daemon.node.chain)
    for region in network.regions:
        checkpoint = anchored[region.index]
        agent = region.checkpoint_agent
        print(f"\n{region.chain_id}: anchored epoch {checkpoint.epoch}, "
              f"sub-chain height {checkpoint.height}, "
              f"{checkpoint.tx_count} settled txs committed")
        # Later epochs may be empty (the workload already drained); walk
        # the anchor chain for this region's newest *non-empty* epoch.
        busy = None
        for _height, block in network.anchor_daemon.node.chain \
                .iter_active_blocks(start_height=1):
            for tx in block.transactions:
                for candidate in iter_checkpoints(tx):
                    if (candidate.region_id == region.index
                            and candidate.tx_count > 0):
                        busy = candidate
        if busy is None:
            continue
        settled = list(agent.epoch_settled[busy.epoch])
        txid = settled[0]
        branch, index = settlement_proof(settled, txid)
        ok = verify_settlement(txid, branch, index, busy)
        print(f"  epoch {busy.epoch} settled {busy.tx_count} txs; "
              f"proof for {txid.hex()[:16]}..: "
              f"{'valid' if ok else 'INVALID'} "
              f"({len(branch)} branch hashes, from the global chain alone)")


if __name__ == "__main__":
    main()
