"""Full-stack integration: the Fig. 3 exchange over the assembled network.

These tests run small BcWAN deployments end to end — real crypto, real
chain, simulated radio/WAN/time — and assert the protocol's functional
guarantees: plaintext integrity, payment conservation, chain convergence.
"""

from __future__ import annotations

import pytest

from repro.core import BcWANNetwork, NetworkConfig
from repro.obs.exchange import STEPS


SMALL = dict(num_gateways=3, sensors_per_gateway=3, exchange_interval=25.0)


@pytest.fixture(scope="module")
def small_run():
    network = BcWANNetwork(NetworkConfig(seed=42, **SMALL))
    report = network.run(num_exchanges=25)
    return network, report


def test_most_exchanges_complete(small_run):
    _network, report = small_run
    assert report.exchanges_launched == 25
    assert report.completed >= 20  # radio losses may fail a few


def test_decrypted_plaintext_matches_sent(small_run):
    network, _report = small_run
    for record in network.tracker.completed():
        assert record.decrypted == record.plaintext
        assert record.plaintext  # non-empty reading


def test_latency_in_figure5_band(small_run):
    _network, report = small_run
    # No block verification: the paper's ~1.6 s regime; allow slack for
    # the smaller topology and radio retries.
    assert 0.5 < report.mean_latency < 4.0


def test_timestamps_are_ordered(small_run):
    network, _report = small_run
    for record in network.tracker.completed():
        # Every instant of the exchange table, reached in its order.
        stamps = [getattr(record, f"t_{step}") for step in STEPS]
        assert None not in stamps
        assert stamps == sorted(stamps)


def test_exchanges_route_through_foreign_gateways(small_run):
    network, _report = small_run
    for record in network.tracker.completed():
        home_actor = int(record.node_id.split("-")[1])
        gateway_actor = int(record.gateway.split("-")[1])
        assert gateway_actor == (home_actor + 1) % 3  # roaming offset 1
        assert record.recipient == f"site-{home_actor}"


def test_gateways_earn_exactly_price_per_claim(small_run):
    network, report = small_run
    for site in network.sites:
        assert site.gateway.rewards_claimed == (
            site.gateway.claims_made * network.config.price
        )
    assert sum(s.gateway.claims_made for s in network.sites) >= report.completed


def test_payment_conservation_on_chain(small_run):
    """Every completed exchange moved `price` from recipient to gateway."""
    network, _report = small_run
    price = network.config.price
    for site in network.sites:
        site.wallet.refresh_from_utxo_set()
    # Earnings minus spend nets to zero across the federation (all value
    # stays inside the actor wallets + unclaimed offers).
    total_claims = sum(s.gateway.claims_made for s in network.sites)
    total_payments = sum(s.recipient.payments_made for s in network.sites)
    assert total_claims <= total_payments
    unsettled = total_payments - total_claims
    locked = sum(s.recipient.stats()["pending_settlements"] for s in network.sites)
    assert unsettled <= locked + 2  # in-flight claims may lag


def test_all_nodes_converge_to_same_tip(small_run):
    network, _report = small_run
    network.sim.run(until=network.sim.now + 60.0)  # let gossip settle
    tips = {site.node.chain.tip.hash for site in network.sites}
    tips.add(network.master_daemon.node.chain.tip.hash)
    assert len(tips) == 1


def test_claims_are_on_chain_and_reveal_keys(small_run):
    """The revealed eSk in each claim must decrypt the exchange's Em."""
    from repro.crypto import rsa
    from repro.script.builder import parse_ephemeral_key_release
    network, _report = small_run
    chain = network.master_daemon.node.chain
    revealed = 0
    for _height, block in chain.iter_active_blocks(1):
        for tx in block.transactions:
            for tx_input in tx.inputs:
                elements = tx_input.script_sig.elements
                if len(elements) == 3 and isinstance(elements[2], bytes) \
                        and len(elements[2]) > 60:
                    try:
                        rsa.RSAPrivateKey.from_bytes(elements[2])
                    except rsa.RSAError:
                        continue
                    revealed += 1
    assert revealed >= _report.completed


def test_report_format_mentions_key_figures(small_run):
    _network, report = small_run
    text = report.format()
    assert "exchanges" in text and "latency" in text


def test_determinism_same_seed():
    config = NetworkConfig(seed=77, num_gateways=2, sensors_per_gateway=2,
                           exchange_interval=20.0)
    r1 = BcWANNetwork(config).run(num_exchanges=6)
    r2 = BcWANNetwork(config).run(num_exchanges=6)
    assert r1.latencies == r2.latencies
    assert r1.chain_height == r2.chain_height


def test_different_seeds_differ():
    base = dict(num_gateways=2, sensors_per_gateway=2, exchange_interval=20.0)
    r1 = BcWANNetwork(NetworkConfig(seed=1, **base)).run(num_exchanges=6)
    r2 = BcWANNetwork(NetworkConfig(seed=2, **base)).run(num_exchanges=6)
    assert r1.latencies != r2.latencies
