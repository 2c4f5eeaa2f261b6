"""Fig. 6 — BcWAN process latency *with* block verification.

Identical workload to Fig. 5, but the gateway daemons verify every
incoming block, which makes the Multichain daemon "stall and become
unresponsive for extended periods upon each block arrival" (section 5.2).
Reported result: mean full-exchange latency **30.241 s**.

The reproduction target is the *regime change*: the same protocol that ran
in ~1.6 s now takes tens of seconds because every blockchain interaction
queues behind block verification.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import (
    _emit,
    exchanges_target,
    print_header,
    print_histogram,
    print_row,
)
from repro.blockchain import ChainParams
from repro.core import BcWANNetwork, NetworkConfig

PAPER_MEAN = 30.241
FIG5_PAPER_MEAN = 1.604


@pytest.fixture(scope="module")
def report():
    network = BcWANNetwork(NetworkConfig(
        seed=5, chain=ChainParams(verify_blocks=True)))
    return network.run(num_exchanges=exchanges_target())


def test_fig6_reproduction(report, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    summary = report.summary

    print_header("Fig. 6 — exchange latency, block verification ENABLED")
    _emit(f"workload: {report.exchanges_launched} exchanges "
          f"({report.completed} completed), "
          f"{report.duration:.0f} simulated seconds")
    print_row("", "paper", "measured")
    print_row("mean latency (s)", PAPER_MEAN, summary.mean)
    print_row("median latency (s)", "-", summary.median)
    print_row("p95 latency (s)", "-", summary.p95)
    print_row("blowup vs Fig. 5 mean", PAPER_MEAN / FIG5_PAPER_MEAN,
              summary.mean / FIG5_PAPER_MEAN)
    stall = sum(s.stall_time for name, s in report.daemon_stats.items()
                if name != "master")
    _emit(f"total gateway-daemon stall time: {stall:.0f} s across "
          f"{sum(s.blocks_verified for s in report.daemon_stats.values())} "
          f"block verifications")
    _emit("")
    _emit("latency distribution (the figure's histogram):")
    print_histogram(report.latencies)

    assert report.completed > 0.75 * report.exchanges_launched
    # Tens-of-seconds regime, an order of magnitude over Fig. 5.
    assert 15.0 < summary.mean < 60.0, (
        f"mean {summary.mean:.1f}s outside the paper's ~30s regime"
    )
