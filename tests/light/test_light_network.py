"""End-to-end light-client tier: SPV recipients over the assembled network.

These run small BcWAN deployments with ``LightConfig(device_class="light")`` — the
recipient role moves off the full nodes onto duty-cycled SPV hosts that
hold headers, watched transactions, and inclusion proofs, never block
bodies.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import pytest

from repro.core import BcWANNetwork, NetworkConfig
from repro.core.config import LightConfig

LIGHT_TIER = LightConfig(
    device_class="light",
    compact_blocks=True,
    multicast_interval=15.0,
    light_sync_interval=30.0,
)
LIGHT = dict(
    num_gateways=3,
    sensors_per_gateway=2,
    exchange_interval=20.0,
    light=LIGHT_TIER,
)


@pytest.fixture(scope="module")
def light_run():
    network = BcWANNetwork(NetworkConfig(seed=7, **LIGHT))
    report = network.run(num_exchanges=8)
    return network, report


# -- the fair exchange on SPV trust --------------------------------------------

def test_light_exchanges_complete(light_run):
    _network, report = light_run
    assert report.exchanges_launched == 8
    assert report.completed >= 6  # radio losses may fail a few


def test_decrypted_plaintext_matches_sent(light_run):
    network, _report = light_run
    completed = list(network.tracker.completed())
    assert completed
    for record in completed:
        assert record.decrypted == record.plaintext


def test_every_payment_confirms_via_proof(light_run):
    network, _report = light_run
    for site in network.sites:
        stats = site.recipient.stats()
        assert stats["payments_confirmed"] == stats["payments_made"]
        assert stats["funding_stalls"] == 0


def test_light_hosts_never_receive_block_bodies(light_run):
    """The acceptance criterion: headers and proofs only — a light host
    must never have a block (full or sketch) pushed at it."""
    network, _report = light_run
    for spv in network.light_clients:
        assert spv.payload_counts  # it did receive traffic
        for forbidden in ("BlockMessage", "BlocksMessage",
                          "CompactBlockMessage", "BlockTxnMessage"):
            assert forbidden not in spv.payload_counts, (
                f"{spv.name} received {forbidden}"
            )


def test_proofs_verified_and_none_rejected(light_run):
    network, _report = light_run
    total = sum(spv.stats()["proofs_verified"]
                for spv in network.light_clients)
    assert total > 0
    for spv in network.light_clients:
        assert spv.stats()["proofs_rejected"] == 0


def test_multicast_carries_growth_and_skips_signatures(light_run):
    network, _report = light_run
    for spv in network.light_clients:
        listener = spv.multicast
        assert listener is not None
        stats = listener.stats()
        assert stats["headers_applied"] > 0
        assert stats["signatures_skipped"] > 0  # repeat-authenticate
        assert stats["dishonest_bundles"] == 0
        assert stats["bundles_late"] == 0


def test_compact_relay_reconstructs_from_mempool(light_run):
    network, _report = light_run
    received = sum(r.stats()["compact_received"]
                   for r in network.compact_relays)
    from_mempool = sum(r.stats()["reconstructed_from_mempool"]
                       for r in network.compact_relays)
    assert received > 0
    assert from_mempool / received >= 0.9  # steady-state hit rate


def test_full_nodes_converge_with_light_tier(light_run):
    network, _report = light_run
    tips = {d.node.chain.tip.hash for d in network.all_daemons().values()}
    assert len(tips) == 1
    master_chain = network.master_daemon.node.chain
    for spv in network.light_clients:
        tip_height = spv.chain.tip_height
        # Repeat-authenticate buffers up to VERIFY_EVERY-1 rounds of
        # growth unverified, so the header tip may trail the full nodes
        # at run end — but never diverge from the active chain.
        assert master_chain.height - tip_height <= 8
        assert spv.chain.tip_hash == master_chain.block_at(tip_height).hash


def test_wan_gauges_exported(light_run):
    network, report = light_run
    gauges = network.registry.snapshot()["gauges"]
    assert gauges["wan.bytes_per_exchange"] > 0
    assert gauges["wan.bytes_per_block"] > 0


# -- determinism ---------------------------------------------------------------

def run_fingerprint(seed=11):
    network = BcWANNetwork(NetworkConfig(seed=seed, **LIGHT))
    report = network.run(num_exchanges=6)
    return (
        report.completed,
        report.failed,
        report.chain_height,
        network.master_daemon.node.chain.tip.hash,
        network.wan.bytes_modeled,
        tuple(sorted(network.wan.bytes_to.items())),
        tuple(site.recipient.stats()["balance"] for site in network.sites),
        tuple(spv.stats()["proofs_verified"]
              for spv in network.light_clients),
    )


def test_light_mode_determinism_same_seed():
    assert run_fingerprint() == run_fingerprint()


# -- chaos ---------------------------------------------------------------------

def test_serving_peer_crash_fails_over():
    """Downing the serving full node mid-run: the SPV client's unicast
    polls time out, score the peer, and the filter re-registers with the
    next one — exchanges keep completing."""
    unicast_only = dict(LIGHT, light=dc_replace(
        LIGHT_TIER, multicast_interval=0.0, light_sync_interval=10.0))
    network = BcWANNetwork(NetworkConfig(seed=9, **unicast_only))
    spv = network.light_clients[0]
    first_peer = spv.serving_peer

    def crash_and_restart():
        yield network.sim.timeout(12.0)
        network.wan.set_host_down(first_peer)
        yield network.sim.timeout(60.0)
        network.wan.set_host_up(first_peer)

    network.sim.process(crash_and_restart())
    report = network.run(num_exchanges=12)
    assert spv.stats()["sync_timeouts"] >= 1
    assert spv.stats()["failovers"] >= 1
    assert spv.serving_peer != first_peer
    assert report.completed >= 8
    # The replayed filter keeps payments confirming on the new peer.
    agent = network.sites[0].recipient
    assert agent.stats()["payments_confirmed"] == agent.stats()["payments_made"]
    assert agent.stats()["payments_confirmed"] >= 1


def test_forged_proofs_fail_the_server_over():
    """A server that answers headers but forges every proof: its first
    bad proof rotates the client to an honest peer, which gets the
    replayed filter, and the recipient pays."""
    unicast_only = dict(LIGHT, light=dc_replace(
        LIGHT_TIER, multicast_interval=0.0, light_sync_interval=10.0))
    network = BcWANNetwork(NetworkConfig(seed=9, **unicast_only))
    spv = network.light_clients[0]
    first_peer = spv.serving_peer
    server = next(server for server in network.light_servers
                  if server.daemon.name == first_peer)
    honest = server._build_proof

    def forge(*args):
        proof = honest(*args)
        head, *rest = proof.branch
        return dc_replace(proof, branch=(bytes([head[0] ^ 1]) + head[1:],
                                         *rest))

    server._build_proof = forge
    network.run(num_exchanges=12)
    stats = spv.stats()
    assert stats["proofs_rejected"] >= 1
    assert stats["failovers"] >= 1
    assert spv.serving_peer != first_peer
    assert stats["proofs_verified"] > 0
    assert network.sites[0].recipient.stats()["payments_made"] >= 1


def test_a_server_forging_one_proof_per_header_round_is_failed_over():
    """A server that forges only the first proof after each header range
    it serves: every honest header reply in between would reset a count
    of consecutive failures, so only a rotation on the first forged proof
    ever moves the client off it."""
    unicast_only = dict(LIGHT, light=dc_replace(
        LIGHT_TIER, multicast_interval=0.0, light_sync_interval=10.0))
    network = BcWANNetwork(NetworkConfig(seed=9, **unicast_only))
    spv = network.light_clients[0]
    first_peer = spv.serving_peer
    server = next(server for server in network.light_servers
                  if server.daemon.name == first_peer)
    honest = server._build_proof
    forged_in_rounds = set()

    def forge_once_per_round(*args):
        proof = honest(*args)
        if server.header_requests in forged_in_rounds:
            return proof
        forged_in_rounds.add(server.header_requests)
        head, *rest = proof.branch
        return dc_replace(proof, branch=(bytes([head[0] ^ 1]) + head[1:],
                                         *rest))

    server._build_proof = forge_once_per_round
    network.run(num_exchanges=12)
    stats = spv.stats()
    assert forged_in_rounds
    assert stats["proofs_rejected"] >= 1
    assert stats["failovers"] >= 1
    assert spv.serving_peer != first_peer
    assert stats["proofs_verified"] > 0
    assert network.sites[0].recipient.stats()["payments_made"] >= 1


def test_dishonest_multicaster_detected_and_survived():
    """A gateway signing garbage: listeners flag it, fall back to unicast
    SPV sync, and the fair exchange still completes."""
    network = BcWANNetwork(NetworkConfig(seed=13, **LIGHT))
    # R = 1 checks every bundle's signature immediately, so the forgery is
    # caught from round one.  Each listener hears one bundle in this short
    # run, which the deployment's R = 4 would buffer unverified.
    for spv in network.light_clients:
        spv.multicast.VERIFY_EVERY = 1
    evil = network.multicasters[0]
    evil.tamper = lambda message: dc_replace(message, signature=b"\x00" * 8)
    report = network.run(num_exchanges=8)
    victim = network.light_clients[0].multicast
    assert victim.stats()["dishonest_bundles"] > 0
    assert victim.stats()["headers_applied"] == 0  # nothing forged applied
    assert victim.stats()["omissions_suspected"] > 0
    # Unicast sync covered the hole: the victim still tracks the chain.
    spv = network.light_clients[0]
    master_chain = network.master_daemon.node.chain
    assert (spv.chain.tip_hash
            == master_chain.block_at(spv.chain.tip_height).hash)
    assert report.completed >= 5
