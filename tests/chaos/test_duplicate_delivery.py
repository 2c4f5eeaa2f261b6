"""A duplicated delivery push locks one payment, not two.

The WAN may hand a recipient the same :class:`DeliveryMessage` twice; the
daemon's seen-sets cover only transactions and blocks.  Each copy used to
run the whole settlement: a second key-release offer paid for a delivery
already paid for, and its escrow waited in the recipient's pending set
forever, since the gateway claims once.
"""

from __future__ import annotations

import pytest

from repro.chaos import ChaosInjector, FaultPlan
from repro.core import BcWANNetwork, NetworkConfig

SMALL = dict(num_gateways=2, sensors_per_gateway=2, seed=11)
EXCHANGES = 6


def run(plan=None):
    network = BcWANNetwork(NetworkConfig(**SMALL))
    injector = None
    if plan is not None:
        injector = ChaosInjector(network.sim, network.wan, plan,
                                 daemons=network.all_daemons(),
                                 registry=network.registry).install()
    return network, network.run(num_exchanges=EXCHANGES), injector


@pytest.fixture(scope="module")
def clean():
    return run()


@pytest.fixture(scope="module")
def duplicated():
    plan = (FaultPlan(seed=11)
            .duplicate_links(1.0, source="site-0", destination="site-1")
            .duplicate_links(1.0, source="site-1", destination="site-0"))
    return run(plan)


def test_each_delivery_is_settled_once(duplicated):
    network, _report, injector = duplicated
    copies = [line for line in injector.telemetry.fault_log
              if "link-duplicate" in line and "DeliveryMessage" in line]
    forwarded = sum(site.gateway.deliveries_forwarded
                    for site in network.sites)
    assert len(copies) == forwarded == EXCHANGES
    received = sum(site.recipient.messages_received for site in network.sites)
    assert received == forwarded


def test_one_payment_per_delivery(duplicated):
    network, report, _injector = duplicated
    for site in network.sites:
        stats = site.recipient.stats()
        assert stats["payments_made"] == stats["messages_decrypted"]
        assert stats["pending_settlements"] == 0
    assert report.completed == EXCHANGES


def test_spend_matches_the_clean_run(clean, duplicated):
    _network, clean_report, _ = clean
    _network, report, _ = duplicated
    assert report.recipient_spend == clean_report.recipient_spend
    assert report.gateway_rewards == clean_report.gateway_rewards
