"""Light-client tier — recipient WAN bytes, full vs compact vs multicast.

The tier's claim: a duty-cycled recipient that holds headers, watched
transactions, and inclusion proofs (never block bodies) completes the
same fair exchanges for a small fraction of the WAN ingress a
co-located full node needs, and compact block relay shaves the
full-node gossip on top.  The sweep runs the identical workload in
three modes; the numbers of record for the light tier are the
``light_fig5`` rows of ``python -m bench``.

Modes:

* ``full``     — the seed behaviour: every recipient is a full node,
                 whole blocks flood the gossip mesh.
* ``compact``  — full recipients, but blocks travel as short-txid
                 sketches reconstructed from the mempool (BIP 152 "low
                 bandwidth" shape).
* ``light``    — SPV recipients fed by repeat-authenticate header
                 multicast, with compact relay between the full nodes.
"""

from __future__ import annotations

from benchmarks.conftest import exchanges_target, print_header, print_row
from repro.core import BcWANNetwork, NetworkConfig
from repro.core.config import LightConfig

GATEWAYS = 5  # the paper's deployment size
SENSORS = 4

BASE = dict(
    num_gateways=GATEWAYS,
    sensors_per_gateway=SENSORS,
    exchange_interval=10.0,
    seed=4711,
)

MODES = {
    "full": LightConfig(device_class="full", compact_blocks=False),
    "compact": LightConfig(device_class="full", compact_blocks=True),
    "light": LightConfig(device_class="light", compact_blocks=True,
                         multicast_interval=15.0, light_sync_interval=30.0),
}


def run_mode(mode: str, num_exchanges: int) -> dict:
    cfg = NetworkConfig(**BASE, light=MODES[mode])
    network = BcWANNetwork(cfg)
    report = network.run(num_exchanges=num_exchanges)

    # Recipient-side ingress: in full/compact mode the recipient is the
    # site's own full node; in light mode it is the light-i host.
    if mode == "light":
        recipient_hosts = cfg.light_names
    else:
        recipient_hosts = cfg.site_names
    ingress = [network.wan.bytes_to.get(h, 0) for h in recipient_hosts]
    delivered = max(report.completed, 1)

    point = {
        "mode": mode,
        "completed": report.completed,
        "launched": report.exchanges_launched,
        "chain_height": report.chain_height,
        "wan_bytes_total": network.wan.bytes_modeled,
        "wan_bytes_per_exchange": network.wan.bytes_modeled / delivered,
        "recipient_ingress_bytes": sum(ingress),
        "recipient_bytes_per_exchange": sum(ingress) / delivered,
    }
    if network.compact_relays:
        received = sum(r.stats()["compact_received"]
                       for r in network.compact_relays)
        from_mempool = sum(r.stats()["reconstructed_from_mempool"]
                           for r in network.compact_relays)
        point["compact_received"] = received
        point["reconstruction_hit_rate"] = (
            from_mempool / received if received else None)
    if mode == "light":
        point["proofs_verified"] = sum(
            spv.stats()["proofs_verified"] for spv in network.light_clients)
        point["multicast_headers_applied"] = sum(
            spv.multicast.stats()["headers_applied"]
            for spv in network.light_clients)
    return point


def test_lightclient_bytes_sweep(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    num_exchanges = exchanges_target(default=40, full=200)
    print_header("Light-client tier — recipient WAN bytes per exchange "
                 f"({GATEWAYS} gateways, {num_exchanges} exchanges)")
    print_row("mode", "completed", "kB/exch", "recip kB/exch", "hit rate")
    series = []
    for mode in MODES:
        point = run_mode(mode, num_exchanges)
        series.append(point)
        hit = point.get("reconstruction_hit_rate")
        print_row(
            mode,
            f"{point['completed']}/{point['launched']}",
            point["wan_bytes_per_exchange"] / 1000,
            point["recipient_bytes_per_exchange"] / 1000,
            "-" if hit is None else f"{hit:.2f}",
        )
    by_mode = {p["mode"]: p for p in series}
    reduction = (by_mode["full"]["recipient_bytes_per_exchange"]
                 / by_mode["light"]["recipient_bytes_per_exchange"])
    print_row("light vs full reduction", f"{reduction:.1f}x")

    # The workload settles in every mode (radio losses may fail a few).
    for point in series:
        assert point["completed"] >= point["launched"] - 2
    # Compact relay reconstructs from the mempool in steady state.
    for mode in ("compact", "light"):
        assert by_mode[mode]["reconstruction_hit_rate"] >= 0.9
    # The acceptance bar: a light recipient costs >= 5x fewer WAN bytes
    # per delivered exchange than a co-located full node.
    assert reduction >= 5.0
    # The light tier still proves every payment it relies on.
    assert by_mode["light"]["proofs_verified"] > 0
