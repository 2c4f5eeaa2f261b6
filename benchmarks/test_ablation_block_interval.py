"""Ablation C (§5.1/§6) — the Multichain tunables.

The paper picked Multichain because "the average mining time, the size of
a block or the consensus" are parameters that "impact the theoretical
maximum number of transactions per second ... thus the overall
performance".  This ablation sweeps the mining interval under both
verification regimes and shows the mechanism behind Fig. 6: with
verification on, a shorter block interval means the daemon spends a larger
fraction of its life stalled, and exchange latency explodes; with
verification off the interval barely matters.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_header, print_row
from repro.blockchain import ChainParams
from repro.core import BcWANNetwork, NetworkConfig

SCALE = dict(num_gateways=3, sensors_per_gateway=5, exchange_interval=40.0,
             seed=9)
EXCHANGES = 60


def run_once(block_interval: float, verify: bool):
    network = BcWANNetwork(NetworkConfig(
        chain=ChainParams(block_interval=block_interval,
                          verify_blocks=verify), **SCALE,
    ))
    return network.run(num_exchanges=EXCHANGES)


def test_block_interval_sweep(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    intervals = (12.0, 15.0, 30.0, 60.0)

    print_header("Ablation C — mining interval vs mean exchange latency")
    print_row("interval (s)", "no verify", "verify", "stall frac")
    results = {}
    for interval in intervals:
        fast = run_once(interval, verify=False)
        slow = run_once(interval, verify=True)
        stall = sum(s.stall_time for n, s in slow.daemon_stats.items()
                    if n != "master")
        stall_fraction = stall / (slow.duration * 3)
        results[interval] = (fast, slow, stall_fraction)
        print_row(
            f"{interval:.0f}",
            fast.mean_latency if fast.latencies else float("nan"),
            slow.mean_latency if slow.latencies else float("nan"),
            stall_fraction,
        )

    # Without verification the interval is irrelevant (sub-second spread).
    fast_means = [results[i][0].mean_latency for i in intervals]
    assert max(fast_means) - min(fast_means) < 1.0
    # With verification, faster blocks = more stall = more latency;
    # 60 s blocks must beat 12 s blocks by a wide margin.
    assert results[12.0][1].mean_latency > results[60.0][1].mean_latency
    # And the stall fraction is monotone in block frequency.
    assert results[12.0][2] > results[60.0][2]


def test_verification_stall_share(benchmark):
    """With the paper's 15 s interval, stalls dominate the daemon's life."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    slow = run_once(15.0, verify=True)
    site_stats = [s for n, s in slow.daemon_stats.items() if n != "master"]
    busy = sum(s.busy_time for s in site_stats)
    stall = sum(s.stall_time for s in site_stats)
    print_header("Daemon time budget at 15 s blocks, verification on")
    print_row("total busy time (s)", "-", busy)
    print_row("of which verification stalls", "-", stall)
    print_row("stall share of busy time", "-", stall / busy)
    assert stall / busy > 0.5
