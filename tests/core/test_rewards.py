"""Pricing policies and the negotiation path (step 9's "fixed or
negotiated" output)."""

from __future__ import annotations

import pytest

from repro.core.rewards import (
    CongestionPricing,
    FixedPricing,
    RecipientBudget,
    VolumeDiscountPricing,
)
from repro.errors import ConfigurationError


# -- policies ----------------------------------------------------------------

def test_fixed_pricing():
    policy = FixedPricing(price=100)
    assert policy.quote("Baddr", 0) == 100
    assert policy.quote("Baddr", 50) == 100
    with pytest.raises(ConfigurationError):
        FixedPricing(price=0)


def test_congestion_pricing_surges_with_queue():
    policy = CongestionPricing(base_price=100, surcharge_per_job=10)
    assert policy.quote("B", 0) == 100
    assert policy.quote("B", 5) == 150
    # Capped at the multiplier ceiling.
    assert policy.quote("B", 1000) == 400


def test_congestion_pricing_validation():
    with pytest.raises(ConfigurationError):
        CongestionPricing(base_price=0)
    with pytest.raises(ConfigurationError):
        CongestionPricing(surcharge_per_job=-1)
    with pytest.raises(ConfigurationError):
        CongestionPricing(max_multiplier=0.5)


def test_volume_discount_deepens_with_deliveries():
    policy = VolumeDiscountPricing(base_price=100,
                                   discount_per_delivery=0.02,
                                   floor_fraction=0.5)
    # Every quote is a delivery forwarded: the eleventh costs 20 % less.
    assert [policy.quote("B1", 0) for _ in range(11)][::10] == [100, 80]
    # Another recipient still pays full price.
    assert policy.quote("B2", 0) == 100
    # The floor binds eventually.
    for _ in range(100):
        policy.quote("B1", 0)
    assert policy.quote("B1", 0) == 50


def test_volume_discount_validation():
    with pytest.raises(ConfigurationError):
        VolumeDiscountPricing(discount_per_delivery=1.0)
    with pytest.raises(ConfigurationError):
        VolumeDiscountPricing(floor_fraction=0.0)


def test_budget():
    budget = RecipientBudget(max_price=150)
    assert budget.accepts(150)
    assert budget.accepts(1)
    assert not budget.accepts(151)
    assert not budget.accepts(0)
    with pytest.raises(ConfigurationError):
        RecipientBudget(max_price=0)


# -- negotiation end to end ------------------------------------------------------

def test_budget_refusal_in_full_network():
    """Quotes above the recipient budget are refused pre-payment."""
    from repro.core import BcWANNetwork, NetworkConfig
    from repro.core.rewards import FixedPricing, RecipientBudget

    network = BcWANNetwork(NetworkConfig(
        num_gateways=2, sensors_per_gateway=2,
        exchange_interval=20.0, seed=55, price=100,
    ))
    # Site-0's gateway turns greedy; site-1's recipient gets a budget cap.
    network.sites[0].gateway.pricing = FixedPricing(price=400)
    network.sites[1].recipient.budget = RecipientBudget(max_price=150)
    report = network.run(num_exchanges=12)

    refused = network.sites[1].recipient.quotes_refused
    assert refused > 0
    refusal_records = [
        r for r in network.tracker.failed()
        if "above budget" in r.failure_reason
    ]
    assert len(refusal_records) == refused
    # Exchanges through the honest gateway still complete.
    assert report.completed > 0
    # And the refusing recipient never paid the greedy gateway.
    assert all(record.price == 400 for record in refusal_records)
