"""Federation scaling — flat vs hierarchical, latency and WAN load.

The hierarchical refactor's claim: carving the federation into regional
sub-chains keeps *intra-region* exchange latency constant as the
federation grows, and keeps per-block WAN gossip bounded by the region
size instead of the federation size (blocks flood their region only; the
settlement mesh carries checkpoint digests, not traffic).

The sweep runs the same workload per gateway at growing federation sizes
in both modes; the numbers of record for the federated tier are the
``regions_lossy`` rows of ``python -m bench``.
"""

from __future__ import annotations

from benchmarks.conftest import print_header, print_row
from repro.core import BcWANNetwork, NetworkConfig, RegionTopology

GATEWAYS_PER_REGION = 2
EXCHANGES_PER_GATEWAY = 2
SIZES = (4, 8, 12)

BASE = dict(sensors_per_gateway=1, exchange_interval=30.0, seed=4711)


def run_point(size: int, sharded: bool) -> dict:
    regions = size // GATEWAYS_PER_REGION if sharded else 1
    network = BcWANNetwork(NetworkConfig(
        num_gateways=size,
        topology=RegionTopology(regions=regions, checkpoint_interval=30.0),
        **BASE,
    ))
    report = network.run(num_exchanges=size * EXCHANGES_PER_GATEWAY)
    if sharded:
        blocks = (sum(r.master_node.height for r in network.regions)
                  + network.anchor_daemon.node.height)
    else:
        blocks = network.master_daemon.node.height
    wan_bytes = network.wan.bytes_modeled
    return {
        "size": size,
        "mode": "sharded" if sharded else "flat",
        "regions": regions,
        "completed": report.completed,
        "launched": report.exchanges_launched,
        "mean_latency_s": report.mean_latency,
        "p95_latency_s": report.summary.p95 if report.latencies else None,
        "wan_bytes": wan_bytes,
        "blocks": blocks,
        "wan_bytes_per_block": wan_bytes / max(blocks, 1),
        "wan_messages": network.wan.messages_sent,
    }


def test_federation_scaling_sweep(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_header("Federation scaling — flat vs sharded "
                 f"({GATEWAYS_PER_REGION} gateways/region)")
    print_row("size/mode", "completed", "mean (s)", "kB/block")
    series = []
    for size in SIZES:
        for sharded in (False, True):
            point = run_point(size, sharded)
            series.append(point)
            print_row(
                f"{size} {point['mode']}",
                f"{point['completed']}/{point['launched']}",
                point["mean_latency_s"],
                point["wan_bytes_per_block"] / 1000,
            )

    flat = {p["size"]: p for p in series if p["mode"] == "flat"}
    sharded = {p["size"]: p for p in series if p["mode"] == "sharded"}
    # Everything settles in both modes.
    for point in series:
        assert point["completed"] == point["launched"]
    # Sharding caps gossip: at the largest size, a block costs clearly
    # fewer WAN bytes than in the flat full-mesh federation.
    largest = SIZES[-1]
    assert (sharded[largest]["wan_bytes_per_block"]
            < 0.75 * flat[largest]["wan_bytes_per_block"])
    # Intra-region latency does not grow with federation size.
    small, large = sharded[SIZES[0]], sharded[largest]
    assert large["mean_latency_s"] < 1.75 * small["mean_latency_s"]
