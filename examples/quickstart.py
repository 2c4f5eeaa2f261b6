#!/usr/bin/env python3
"""Quickstart: stand up a BcWAN federation and run a few exchanges.

This is the smallest end-to-end use of the public API: build a network
from a :class:`NetworkConfig`, run a workload, read the report.

Run::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import BcWANNetwork, NetworkConfig


def main() -> None:
    # Three actors; each deploys one gateway and 4 sensors.  Sensors are
    # deployed in a *foreign* actor's radio cell (roaming_offset=1), so
    # every message crosses the trust boundary BcWAN exists for.
    config = NetworkConfig(
        num_gateways=3,
        sensors_per_gateway=4,
        exchange_interval=30.0,   # mean seconds between readings per sensor
        seed=2024,
    )
    network = BcWANNetwork(config)
    print(f"built a federation of {config.num_gateways} actors, "
          f"{config.total_sensors} sensors, chain height "
          f"{network.master_daemon.node.height} after bootstrap")

    report = network.run(num_exchanges=30)

    print()
    print(report.format())
    print()
    print("per-actor economics:")
    for site in network.sites:
        gateway = site.gateway
        recipient = site.recipient
        print(f"  {site.name}: forwarded {gateway.deliveries_forwarded}, "
              f"claimed {gateway.claims_made} rewards "
              f"({gateway.rewards_claimed} units); "
              f"received {recipient.messages_decrypted} readings, "
              f"paid {recipient.payments_made * config.price} units")

    # Every component exposes the same view the export reads: call
    # ``stats()`` on a daemon (or a sync agent, gossip node, chaos
    # injector) and read it like a dict.
    stats = network.master_daemon.stats()
    print(f"\nmaster daemon: {stats['jobs_served']} jobs served, "
          f"mean queue wait {stats['mean_wait'] * 1000:.2f} ms")

    # Every decrypted reading matches what the sensor sent.
    intact = sum(
        1 for record in network.tracker.completed()
        if record.decrypted == record.plaintext
    )
    print(f"\nplaintext integrity: {intact}/{len(network.tracker.completed())} "
          f"readings decrypted to exactly the sensed bytes")


if __name__ == "__main__":
    main()
