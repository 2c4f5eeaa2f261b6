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
        "d2fbba658ae9228541a11ef2066cb4a13f7974bf0420fb44ade2a1cc12158b6b",
    "light-compact-multicast":
        "3925f8c8533f7e2fbb5b68b5532f9464d83a49f26e0ea0a8702b79e66e1ea53a",
    "regions":
        "3391aa43d1439d129eeb944fd81ad835cf460f9f9488a4f56fc9720e813ea374",
}


@pytest.mark.parametrize("name", sorted(DEPLOYMENTS))
def test_trace_export_is_pinned(name):
    network = BcWANNetwork(DEPLOYMENTS[name])
    network.run(num_exchanges=6)
    trace = network.export_trace()
    assert hashlib.sha256(trace.encode()).hexdigest() == PINS[name]
