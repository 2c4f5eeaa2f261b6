"""Small-block chains: bootstrap and runtime behaviour."""

from __future__ import annotations

import pytest

from repro.blockchain import ChainParams
from repro.core import BcWANNetwork, NetworkConfig
from repro.errors import ConfigurationError

SMALL_BLOCKS = dict(num_gateways=2, sensors_per_gateway=2,
                    exchange_interval=20.0, seed=47,
                    funding_coins=40,
                    chain=ChainParams(max_block_size=2_000))


def test_bootstrap_spans_multiple_small_blocks():
    network = BcWANNetwork(NetworkConfig(**SMALL_BLOCKS))
    # With one ~1.5 kB fan-out per 2 kB block, the funding era needs at
    # least one block per actor beyond the default bootstrap height.
    baseline = BcWANNetwork(NetworkConfig(
        **{**SMALL_BLOCKS, "chain": ChainParams()}))
    assert network.master_daemon.node.height > baseline.master_daemon.node.height
    # Every actor still ends up fully funded.
    for site in network.sites:
        assert site.wallet.balance == 40 * 250


def test_exchanges_work_on_small_block_chain():
    network = BcWANNetwork(NetworkConfig(**SMALL_BLOCKS))
    report = network.run(num_exchanges=8)
    assert report.completed >= 6
    # Blocks respect the limit.
    for _height, block in network.master_daemon.node.chain.iter_active_blocks():
        assert block.serialized_size() <= 2_000


def test_config_rejects_tiny_block_size():
    with pytest.raises(ConfigurationError):
        NetworkConfig(chain=ChainParams(max_block_size=500))  # floor: 1000
