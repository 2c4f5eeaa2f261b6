"""Pinned traces: the sha256 of ``export_trace()`` for three small traced
deployments, as literals.

``test_export_determinism`` compares two runs inside one process, so a
trace that moves between commits passes it.  These literals catch that:
every span (its name, ids, parent, instants, status and attributes) and
every metric line of the export is covered.  A change that means to move
a trace re-pins here and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import BcWANNetwork, NetworkConfig, RegionTopology
from repro.core.config import LightConfig

DEPLOYMENTS = {
    "flat": NetworkConfig(
        num_gateways=2, sensors_per_gateway=2, exchange_interval=30.0,
        seed=11, tracing=True),
    "light-compact-multicast": NetworkConfig(
        num_gateways=2, sensors_per_gateway=2, exchange_interval=30.0,
        seed=11, tracing=True,
        light=LightConfig(device_class="light", compact_blocks=True,
                          multicast_interval=15.0, light_sync_interval=30.0)),
    "regions": NetworkConfig(
        num_gateways=4, sensors_per_gateway=1, exchange_interval=30.0,
        seed=11, tracing=True,
        topology=RegionTopology(regions=2, roaming="global",
                                checkpoint_interval=30.0)),
}

PINS = {
    "flat":
        "4ae2679d7bfa66d47d1ca78e3be71568b08d681acc8832e7ae4b78966e1a70f4",
    "light-compact-multicast":
        "b25b456e663724fbcb73b23fe299549309d0866f57ca25070c4c5429ca401230",
    "regions":
        "669e48bb6da8f7c7f31103929ae276501605b1bf2b291f32bb515af1d7672bdb",
}


@pytest.mark.parametrize("name", sorted(DEPLOYMENTS))
def test_trace_export_is_pinned(name):
    network = BcWANNetwork(DEPLOYMENTS[name])
    network.run(num_exchanges=6)
    trace = network.export_trace()
    assert hashlib.sha256(trace.encode()).hexdigest() == PINS[name]
