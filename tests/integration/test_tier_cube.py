"""Every optional tier composes with every other: the 24-cell cube.

{flat, regions (global roaming)} × {full, light} × {master, pos} ×
{compact relay off, on} × {multicast off, on (light only)}, each cell
built through :class:`NetworkConfig` alone.  Every cell must assemble,
complete at least 90 % of its exchanges on a clean WAN, converge, and pass
the fair-exchange check on the converged ledgers: what the ledgers pay
gateways for revealed keys is exactly ``completed × price``, and no more
than recipients locked.  With compact relay every daemon of every chain
relays sketches; a light recipient in a region is served by its own
chain and relays cross-region claims through :class:`SpvLedger`.
"""

from __future__ import annotations

import pytest

from repro.blockchain.transaction import OutPoint
from repro.chaos import assert_hierarchy_converged
from repro.core import BcWANNetwork, NetworkConfig, RegionTopology
from repro.core.config import LightConfig
from repro.core.recipient import SpvLedger
from repro.script.builder import p2pkh_locking, parse_ephemeral_key_release

EXCHANGES = 8

CELLS = [
    (topology, device, consensus, compact, multicast)
    for topology in ("flat", "regions")
    for device in ("full", "light")
    for consensus in ("master", "pos")
    for compact in (False, True)
    for multicast in ((False, True) if device == "light" else (False,))
]


def cell_id(cell) -> str:
    topology, device, consensus, compact, multicast = cell
    return "-".join([topology, device, consensus,
                     "compact" if compact else "blocks",
                     "multicast" if multicast else "unicast"])


def config(cell, tracing: bool = False) -> NetworkConfig:
    topology, device, consensus, compact, multicast = cell
    return NetworkConfig(
        num_gateways=4, sensors_per_gateway=2, seed=3,
        exchange_interval=20.0, funding_coins=40, consensus=consensus,
        topology=(RegionTopology(regions=2, roaming="global",
                                 checkpoint_interval=30.0)
                  if topology == "regions" else RegionTopology()),
        light=LightConfig(device_class=device, compact_blocks=compact,
                          multicast_interval=15.0 if multicast else 0.0,
                          light_sync_interval=30.0),
        tracing=tracing,
    )


def settle(network: BcWANNetwork):
    """Step the simulation on until every chain's group agrees."""
    error = None
    for _ in range(90):
        try:
            return assert_hierarchy_converged(network.convergence_groups())
        except AssertionError as exc:
            error = exc
            network.sim.run(until=network.sim.now + 1.0)
    raise AssertionError(f"federation did not converge: {error}")


def settled_claims(network: BcWANNetwork) -> int:
    """What the converged ledgers (active chains plus mempools) pay
    gateways for revealed keys: the outputs of every transaction spending
    a key-release offer to the gateway that offer names."""
    transactions = {}
    for group in network.convergence_groups().values():
        chain = next(iter(group.values())).node.chain
        for _height, block in chain.iter_active_blocks(start_height=1):
            transactions.update((tx.txid, tx) for tx in block.transactions[1:])
    for daemon in network.all_daemons().values():
        transactions.update((tx.txid, tx)
                            for tx in daemon.node.mempool.transactions())
    payees = {}
    for tx in transactions.values():
        for index, output in enumerate(tx.outputs):
            offer = parse_ephemeral_key_release(output.script_pubkey)
            if offer is not None:
                payees[OutPoint(txid=tx.txid, index=index)] = \
                    p2pkh_locking(offer[1])
    paid = 0
    for tx in transactions.values():
        payee = payees.get(tx.inputs[0].outpoint)
        if payee is not None:
            paid += sum(output.value for output in tx.outputs
                        if output.script_pubkey == payee)
    return paid


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_cell_completes_converges_and_settles_fairly(cell):
    topology, device, _consensus, compact, _multicast = cell
    network = BcWANNetwork(config(cell))
    report = network.run(num_exchanges=EXCHANGES)
    settle(network)
    assert report.exchanges_launched == EXCHANGES
    assert report.completed >= 0.9 * EXCHANGES, report.format()
    delivered = report.completed * network.config.price
    locked = sum(report.recipient_spend.values())
    settled = settled_claims(network)
    assert settled == delivered <= locked, (settled, delivered, locked)

    if compact:
        # A relay on every daemon of every chain: blocks travel as
        # sketches, never as a full BlockMessage.
        daemons = network.all_daemons().values()
        assert len(network.compact_relays) == len(daemons)
        assert all(daemon.gossip.compact_relay is not None
                   for daemon in daemons)
        assert network.wan.bytes_by_type.get("CompactBlockMessage", 0) > 0
        assert network.wan.bytes_by_type.get("BlockMessage", 0) == 0
    if (topology, device) == ("regions", "light"):
        for site in network.sites:
            assert isinstance(site.recipient.ledger, SpvLedger)
            assert site.recipient.chain_id == site.chain_id
            # Served by its own chain: home site, the chain's next site
            # and the chain's master.
            home = network.regions[site.region]
            peers = site.recipient.ledger.spv.peers
            assert peers[-1] == home.master_daemon.name
            assert set(peers[:2]) <= {s.name for s in home.sites}
        assert sum(site.recipient.claims_relayed
                   for site in network.sites) >= 1


def test_light_keys_are_funded_on_their_home_chain_only():
    network = BcWANNetwork(config(("regions", "light", "master", False,
                                   False)))
    for region in network.regions:
        held = {entry.output.script_pubkey
                for _outpoint, entry in region.master_node.chain.utxos.items()}
        for site in network.sites:
            light_key = p2pkh_locking(site.recipient.ledger.wallet.pubkey_hash)
            assert (light_key in held) == (site.region == region.index), \
                (site.name, region.chain_id)


def test_determinism_light_regions_compact_multicast():
    cell = ("regions", "light", "pos", True, True)
    exports = []
    for _ in range(2):
        network = BcWANNetwork(config(cell, tracing=True))
        network.run(num_exchanges=EXCHANGES)
        exports.append(network.export_trace())
    assert exports[0] == exports[1]
