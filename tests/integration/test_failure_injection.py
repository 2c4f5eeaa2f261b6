"""Failure injection: gateways dying mid-protocol.

The fair-exchange guarantee the paper claims ("both parties are
guaranteed to get what they are owed", §4.4) must hold under partial
failures: whatever dies, the recipient's money is either exchanged for a
decryptable message or recoverable via the refund branch.
"""

from __future__ import annotations

import pytest

from repro.blockchain import ChainParams
from repro.core import BcWANNetwork, NetworkConfig
from repro.core.config import FUNDING_COIN_VALUE, LightConfig


def fail_gateway_radio(network, site_index):
    """The gateway's LoRa module dies: no more key responses.  Sensors in
    its cell retry and give up, without any money moving.  The channel
    still counts the frames that reach the dead radio; nothing reads them."""
    site = network.sites[site_index]
    site.channel.set_deliver(site.gateway.radio.name, None)


def fail_gateway_claims(network, site_index):
    """The gateway's blockchain module dies after delivery: deliveries keep
    flowing, recipients keep locking offers, but no claim ever appears —
    the scenario the Listing-1 refund branch exists for."""
    network.sites[site_index].gateway._begin_claim = lambda offer_txid: None


def test_dead_radio_fails_exchanges_without_payment():
    network = BcWANNetwork(NetworkConfig(
        num_gateways=2, sensors_per_gateway=2, exchange_interval=15.0,
        seed=61,
    ))
    fail_gateway_radio(network, 0)
    report = network.run(num_exchanges=10, max_duration=600.0)

    # Sensors hosted by the dead gateway (actor 1's sensors, with
    # roaming_offset=1 in a 2-gateway ring) never complete...
    dead_cell = [r for r in network.tracker.records()
                 if r.node_id.startswith("dev-1-")]
    assert dead_cell
    assert all(not r.completed for r in dead_cell)
    assert all("no ePk response" in r.failure_reason for r in dead_cell
               if r.status == "failed")
    # ...and crucially, nobody paid for the failures.
    assert network.sites[1].recipient.payments_made == 0
    # The other direction keeps working.
    live_cell = [r for r in network.tracker.records()
                 if r.node_id.startswith("dev-0-")]
    assert any(r.completed for r in live_cell)


DEVICE_CLASSES = ["full", "light"]


@pytest.mark.parametrize("device_class", DEVICE_CLASSES)
def test_dead_blockchain_module_triggers_refunds(device_class):
    network = BcWANNetwork(NetworkConfig(
        num_gateways=2, sensors_per_gateway=2, exchange_interval=15.0,
        seed=62,
        chain=ChainParams(block_interval=5.0, locktime_grace=4), light=LightConfig(device_class=device_class),
    ))
    fail_gateway_claims(network, 0)
    funded = network.sites[1].wallet.balance
    network.run(num_exchanges=8, max_duration=400.0)
    # Give the blocks past the locktimes time to connect.
    network.sim.run(until=network.sim.now + 200.0)

    victim = network.sites[1].recipient  # pays gateway 0
    assert victim.payments_made > 0          # offers were locked...
    assert victim.refunds_taken > 0          # ...and recovered
    assert victim.stats()["pending_settlements"] == 0  # nothing at risk

    # Money conservation: the wallet the victim spends from lost nothing
    # to the dead gateway (refunds returned every locked offer).
    wallet = victim.ledger.wallet
    if device_class == "full":
        # The actor's wallet is shared with its own — still alive —
        # gateway role, so the only legitimate delta is that gateway's
        # earned rewards.
        wallet.refresh_from_utxo_set()
        expected = funded + network.sites[1].gateway.rewards_claimed
    else:
        # The light host holds its own key: every proven coin is back.
        expected = network.config.funding_coins * FUNDING_COIN_VALUE
    assert wallet.balance == expected


@pytest.mark.parametrize("device_class", DEVICE_CLASSES)
def test_refund_records_mark_failed_exchanges(device_class):
    network = BcWANNetwork(NetworkConfig(
        num_gateways=2, sensors_per_gateway=2, exchange_interval=15.0,
        seed=63,
        chain=ChainParams(block_interval=5.0, locktime_grace=4), light=LightConfig(device_class=device_class),
    ))
    fail_gateway_claims(network, 0)
    network.run(num_exchanges=6, max_duration=400.0)
    network.sim.run(until=network.sim.now + 200.0)
    refunded = [r for r in network.tracker.records()
                if "refunded" in r.failure_reason]
    assert refunded
    for record in refunded:
        assert record.t_offer_sent is not None
        assert record.t_decrypted is None
