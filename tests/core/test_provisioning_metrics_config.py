"""Provisioning, exchange metrics, and network configuration."""

from __future__ import annotations

import pytest

from repro.blockchain.params import ChainParams
from repro.core.config import NetworkConfig
from repro.obs.exchange import ExchangeTracker
from repro.obs.tracing import Tracer
from repro.core.provisioning import (
    RecipientRegistry,
    provision_device,
)
from repro.errors import ConfigurationError


# -- provisioning ----------------------------------------------------------------

def test_provision_device_shares_keys(rng):
    registry = RecipientRegistry()
    credentials = provision_device("dev-1", "Baddr", registry, rng=rng)
    assert credentials.device_id == "dev-1"
    assert credentials.recipient_address == "Baddr"
    assert len(credentials.symmetric_key) == 32
    assert registry.knows("dev-1")
    assert registry.key_for("dev-1") == credentials.symmetric_key
    assert registry.pubkey_for("dev-1") == credentials.signing_key.public_key


def test_provision_is_deterministic_in_rng():
    import random
    a = provision_device("d", "B1", RecipientRegistry(),
                         rng=random.Random(5))
    b = provision_device("d", "B1", RecipientRegistry(),
                         rng=random.Random(5))
    assert a.symmetric_key == b.symmetric_key
    assert a.signing_key == b.signing_key


def test_duplicate_provision_rejected(rng):
    registry = RecipientRegistry()
    provision_device("dev-1", "B", registry, rng=rng)
    with pytest.raises(ConfigurationError):
        provision_device("dev-1", "B", registry, rng=rng)


def test_unknown_device_rejected():
    registry = RecipientRegistry()
    with pytest.raises(ConfigurationError):
        registry.key_for("ghost")
    with pytest.raises(ConfigurationError):
        registry.pubkey_for("ghost")


# -- metrics ----------------------------------------------------------------------

def test_tracker_assigns_sequential_ids():
    tracker = ExchangeTracker()
    a = tracker.new_exchange("dev-1", b"x")
    b = tracker.new_exchange("dev-2", b"y")
    assert (a.exchange_id, b.exchange_id) == (1, 2)
    assert tracker.get(1) is a
    assert tracker.get(99) is None


def test_latency_is_paper_metric():
    tracker = ExchangeTracker()
    record = tracker.new_exchange("d", b"x")
    assert record.latency is None
    record.t_epk_sent = 10.0
    record.t_decrypted = 11.6
    record.status = "completed"
    assert record.latency == pytest.approx(1.6)
    assert tracker.latencies() == [pytest.approx(1.6)]


def test_leg_metrics():
    """The radio time is the uplink leg and the settlement time (delivery
    to decryption) the payment and decryption legs."""
    tracker = ExchangeTracker(Tracer())
    record = tracker.new_exchange("d", b"x")
    for step, at in (("epk_sent", 1.0), ("data_received", 1.5),
                     ("delivered", 1.6), ("claim_seen", 1.9),
                     ("decrypted", 2.0)):
        tracker.reach(record.exchange_id, step, at=at)
    legs = {span.name: span.duration for span in tracker.tracer.spans
            if span.name.startswith("leg.")}
    assert legs["leg.uplink"] == pytest.approx(0.5)
    assert legs["leg.payment"] + legs["leg.decryption"] == pytest.approx(0.4)
    assert record.latency == pytest.approx(sum(legs.values()))


def test_completion_rate():
    tracker = ExchangeTracker()
    good = tracker.new_exchange("d", b"x")
    good.status = "completed"
    bad = tracker.new_exchange("d", b"y")
    bad.status = "failed"
    tracker.new_exchange("d", b"z")  # pending
    assert len(tracker.records()) == 3
    assert len(tracker.completed()) == 1
    assert len(tracker.failed()) == 1


def test_empty_tracker():
    tracker = ExchangeTracker()
    assert tracker.completed() == tracker.failed() == []
    assert tracker.latencies() == []


# -- config ------------------------------------------------------------------------

def test_default_config_is_the_paper_testbed():
    config = NetworkConfig()
    assert config.num_gateways == 5
    assert config.sensors_per_gateway == 30
    assert config.total_sensors == 150
    assert config.spreading_factor == 7
    assert not config.chain.verify_blocks
    assert config.site_names == [f"site-{i}" for i in range(5)]


def test_chain_params_derivation():
    """The chain is one grouped field: its values arrive untouched, its
    violations surface at configuration time, and the flat names are gone."""
    chain = ChainParams(block_interval=30.0, verify_blocks=True)
    assert NetworkConfig(chain=chain).chain is chain
    assert NetworkConfig().chain == ChainParams()
    with pytest.raises(ConfigurationError):
        NetworkConfig(chain=ChainParams(max_block_size=10))
    with pytest.raises(TypeError):
        NetworkConfig(block_interval=30.0)


@pytest.mark.parametrize("kwargs", [
    {"num_gateways": 0},
    {"sensors_per_gateway": -1},
    {"roaming_offset": 5},
    {"price": 0},
    {"price": 251},             # above the funding coin denomination
    {"exchange_interval": 0.0},
    {"wan_loss_rate": 1.0},
    {"sync_interval": -1.0},
])
def test_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        NetworkConfig(**kwargs)


# -- grouped sub-configs -------------------------------------------------------

def test_flat_default_is_byte_identical():
    from repro.core.config import LightConfig
    config = NetworkConfig()
    assert config.light == LightConfig()
    assert config.light.device_class == "full"
    assert config.light.compact_blocks is False


@pytest.mark.parametrize("kwargs", [
    {"device_class": "hybrid"},
    {"multicast_interval": -1.0},
    {"light_sync_interval": 0.0},
    {"light_sync_interval": -5.0},
])
def test_light_subconfig_validation(kwargs):
    from repro.core.config import LightConfig
    with pytest.raises(ConfigurationError):
        LightConfig(**kwargs)
