"""Ablation F (§5.1) — the block-size tunable.

Multichain's second headline parameter ("the average mining time, **the
size of a block** or the consensus ... impact the theoretical maximum
number of transactions per second") matters only once transactions must
*confirm*: BcWAN's zero-confirmation exchange never waits for a block,
but the §6 cautious variant (``wait_for_confirmation=True``) does — and
with small blocks the offer backlog stretches confirmation latency.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_header, print_row
from repro.blockchain import ChainParams
from repro.core import BcWANNetwork, NetworkConfig

SCALE = dict(num_gateways=3, sensors_per_gateway=5, exchange_interval=30.0,
             seed=41, wait_for_confirmation=True,
             # The bootstrap funding fan-out must itself fit in the
             # smallest block under test (~2 kB).
             funding_coins=40)
EXCHANGES = 40


def run_with_block_size(max_block_size: int):
    network = BcWANNetwork(NetworkConfig(
        chain=ChainParams(block_interval=10.0,
                          max_block_size=max_block_size), **SCALE,
    ))
    return network.run(num_exchanges=EXCHANGES)


def test_block_size_sweep(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_header("Ablation F — block size vs confirmed-exchange latency "
                 "(cautious gateways, 10 s blocks)")
    print_row("max block size", "completed", "mean (s)", "p95 (s)")
    results = {}
    for size in (2_000, 8_000, 1_000_000):
        report = run_with_block_size(size)
        results[size] = report
        print_row(
            f"{size:,} B",
            f"{report.completed}/{report.exchanges_launched}",
            report.mean_latency if report.latencies else float("nan"),
            report.summary.p95 if report.latencies else float("nan"),
        )

    # Unconstrained blocks: confirmation adds about one block interval.
    big = results[1_000_000]
    assert big.latencies
    # Tiny blocks force offers to queue across blocks: latency grows.
    small = results[2_000]
    if small.latencies:
        assert small.mean_latency >= big.mean_latency
    # Nothing breaks: the backlog drains, exchanges still settle.
    assert small.completed >= 0.7 * small.exchanges_launched
