"""RegionTopology validation, region helpers, and the flat-mode pin.

``RegionTopology(regions=1)`` must be indistinguishable from the
historical flat configuration — same construction path, same
deterministic trace — so the paper's headline results survive the
hierarchical refactor untouched.
"""

from __future__ import annotations

import pytest

from repro.core import BcWANNetwork, NetworkConfig, RegionTopology
from repro.errors import ConfigurationError


# -- validation ----------------------------------------------------------------

def test_topology_rejects_bad_fields():
    with pytest.raises(ConfigurationError):
        RegionTopology(regions=0)
    with pytest.raises(ConfigurationError):
        RegionTopology(roaming="interplanetary")
    with pytest.raises(ConfigurationError):
        RegionTopology(checkpoint_interval=0.0)


def test_config_requires_even_region_split():
    with pytest.raises(ConfigurationError, match="divide evenly"):
        NetworkConfig(num_gateways=5, topology=RegionTopology(regions=2))
    NetworkConfig(num_gateways=6, topology=RegionTopology(regions=2))


def test_config_bounds_region_roaming_offset():
    # 4 gateways in 2 regions: region roaming rotates within 2 sites, so
    # offset 2 can never resolve.
    with pytest.raises(ConfigurationError, match="roaming offset"):
        NetworkConfig(num_gateways=4, roaming_offset=2,
                      topology=RegionTopology(regions=2, roaming="region"))
    # Global roaming keeps the flat bound (offset < num_gateways).
    NetworkConfig(num_gateways=4, roaming_offset=2,
                  topology=RegionTopology(regions=2, roaming="global"))


# -- region helpers ------------------------------------------------------------

def test_region_helpers_partition_sites():
    cfg = NetworkConfig(num_gateways=6, topology=RegionTopology(regions=3))
    assert cfg.gateways_per_region == 2
    assert [list(cfg.region_site_indices(r)) for r in range(3)] == [
        [0, 1], [2, 3], [4, 5]]
    assert list(cfg.region_site_indices(1)) == [2, 3]


def test_recipient_site_flat_matches_classic_rotation():
    cfg = NetworkConfig(num_gateways=5, roaming_offset=2)
    assert [cfg.recipient_site(i) for i in range(5)] == [2, 3, 4, 0, 1]


def test_recipient_site_region_roaming_stays_home():
    cfg = NetworkConfig(num_gateways=6, roaming_offset=1,
                        topology=RegionTopology(regions=3, roaming="region"))
    per = cfg.gateways_per_region
    for i in range(6):
        assert cfg.recipient_site(i) // per == i // per
    # Within a region the rotation is the classic one, rebased.
    assert [cfg.recipient_site(i) for i in range(6)] == [1, 0, 3, 2, 5, 4]


def test_recipient_site_global_roaming_crosses_regions():
    cfg = NetworkConfig(num_gateways=4, roaming_offset=1,
                        topology=RegionTopology(regions=2, roaming="global"))
    assert [cfg.recipient_site(i) for i in range(4)] == [1, 2, 3, 0]
    # Actors 1 and 3 deliver cross-region.
    per = cfg.gateways_per_region
    crossers = [i for i in range(4)
                if cfg.recipient_site(i) // per != i // per]
    assert crossers == [1, 3]


# -- the flat-mode pin ---------------------------------------------------------

FLAT = dict(num_gateways=2, sensors_per_gateway=2, exchange_interval=20.0,
            seed=1729, tracing=True)


def test_default_topology_is_flat():
    network = BcWANNetwork(NetworkConfig(num_gateways=2,
                                         sensors_per_gateway=0))
    assert network.regions == []
    assert network.master_daemon is not None
    assert list(network.all_daemons()) == ["master", "site-0", "site-1"]
    assert list(network.convergence_groups()) == ["chain"]


def test_explicit_single_region_reproduces_flat_trace():
    """regions=1 takes the flat path bit-for-bit: identical JSONL export."""
    baseline = BcWANNetwork(NetworkConfig(**FLAT))
    baseline.run(num_exchanges=4)
    explicit = BcWANNetwork(NetworkConfig(
        topology=RegionTopology(regions=1), **FLAT))
    explicit.run(num_exchanges=4)
    assert explicit.regions == []
    assert baseline.export_trace() == explicit.export_trace()
    assert (baseline.report().completed == explicit.report().completed == 4)
