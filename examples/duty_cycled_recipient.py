#!/usr/bin/env python3
"""A duty-cycled SPV recipient completing fair exchanges on headers alone.

The light-client tier in one run: recipients live on `light-i` WAN
hosts that track the chain through 84-byte headers, watch-list filters,
and Merkle inclusion proofs — never a block body.  Their home gateways
feed them signed header bundles over the LoRa downlink model
(repeat-authenticate multicast: one signature check authenticates R
buffered rounds), the full nodes swap BIP 152-style compact sketches
among themselves, and every payment the recipient relies on is proven,
not trusted.

Run::

    python examples/duty_cycled_recipient.py
"""

from __future__ import annotations

from repro.core import BcWANNetwork, NetworkConfig
from repro.core.config import LightConfig


def main() -> None:
    config = NetworkConfig(
        num_gateways=3,
        sensors_per_gateway=2,
        exchange_interval=20.0,
        light=LightConfig(
            device_class="light",       # recipients become SPV hosts
            compact_blocks=True,        # full nodes gossip sketches
            multicast_interval=15.0,    # signed header bundles downlink
            light_sync_interval=30.0,   # unicast poll (stands down while
        ),                              # the multicast stream is healthy)
        seed=7,
    )
    network = BcWANNetwork(config)
    report = network.run(num_exchanges=8)

    print(report.format())

    print()
    print("what the light recipients saw (and never saw):")
    for spv in network.light_clients:
        stats = spv.stats()
        bodies = [t for t in spv.payload_counts
                  if t in ("BlockMessage", "BlocksMessage",
                           "CompactBlockMessage", "BlockTxnMessage")]
        print(f"  {spv.name}: headers={spv.chain.tip_height + 1}"
              f" proofs_verified={stats['proofs_verified']}"
              f" proofs_rejected={stats['proofs_rejected']}"
              f" block_bodies_received={len(bodies)}")

    print()
    print("repeat-authenticate multicast (per listener):")
    for spv in network.light_clients:
        stats = spv.multicast.stats()
        print(f"  {spv.name}: bundles={stats['bundles_accepted']}"
              f" sig_checked={stats['signatures_verified']}"
              f" sig_skipped={stats['signatures_skipped']}"
              f" late={stats['bundles_late']}"
              f" dishonest={stats['dishonest_bundles']}")

    print()
    print("compact relay between the full nodes:")
    received = sum(r.stats()["compact_received"]
                   for r in network.compact_relays)
    from_mempool = sum(r.stats()["reconstructed_from_mempool"]
                       for r in network.compact_relays)
    roundtrips = sum(r.stats()["fallback_roundtrips"]
                     for r in network.compact_relays)
    print(f"  sketches received={received}"
          f" rebuilt_from_mempool={from_mempool}"
          f" fallback_roundtrips={roundtrips}")

    print()
    print("WAN ingress per host (the tier's whole point):")
    for host, nbytes in sorted(network.wan.bytes_to.items()):
        print(f"  {host:>8}: {nbytes:>8} bytes")
    gauges = network.registry.snapshot()["gauges"]
    print(f"\nwan.bytes_per_exchange = {gauges['wan.bytes_per_exchange']:.0f}")
    print(f"wan.bytes_per_block    = {gauges['wan.bytes_per_block']:.0f}")
    print("\nevery exchange above settled against headers + proofs only —")
    print("the recipients held no mempool, no UTXO set, and no blocks.")


if __name__ == "__main__":
    main()
