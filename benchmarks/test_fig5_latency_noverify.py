"""Fig. 5 — BcWAN process latency *without* block verification.

Paper setup (section 5.2): 5 PlanetLab gateway nodes, 30 simulated sensors
per node at SF7 / 1 % duty cycle, 128-byte payload + 4-byte header, an EC2
master that mines, block verification disabled.  Reported result: mean
full-exchange latency **1.604 s** over 2000 exchanges, measured from the
first gateway message (the ePk downlink) to the recipient's decryption.
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

PAPER_MEAN = 1.604


@pytest.fixture(scope="module")
def report():
    network = BcWANNetwork(NetworkConfig(
        seed=5, chain=ChainParams(verify_blocks=False)))
    return network.run(num_exchanges=exchanges_target())


def test_fig5_reproduction(report, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    summary = report.summary

    print_header("Fig. 5 — exchange latency, block verification DISABLED")
    _emit(f"workload: {report.exchanges_launched} exchanges "
          f"({report.completed} completed, {report.failed} lost to radio), "
          f"{report.duration:.0f} simulated seconds, "
          f"chain height {report.chain_height}")
    print_row("", "paper", "measured")
    print_row("mean latency (s)", PAPER_MEAN, summary.mean)
    print_row("median latency (s)", "-", summary.median)
    print_row("p95 latency (s)", "-", summary.p95)
    print_row("max latency (s)", "-", summary.maximum)
    _emit("")
    _emit("latency distribution (the figure's histogram):")
    print_histogram(report.latencies)

    # Shape assertions: near-real-time, single-second regime.
    assert report.completed > 0.8 * report.exchanges_launched
    assert 0.8 < summary.mean < 3.2, (
        f"mean {summary.mean:.3f}s far from the paper's {PAPER_MEAN}s regime"
    )
    assert summary.median < 2.5
