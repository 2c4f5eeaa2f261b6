"""The Fig. 5 vs Fig. 6 contrast, at test scale.

Block verification is the only knob flipped between the paper's two
figures; at any scale the verified configuration must be dramatically
slower while still completing exchanges.
"""

from __future__ import annotations

import pytest

from repro.blockchain import ChainParams
from repro.core import BcWANNetwork, NetworkConfig

BASE = dict(num_gateways=3, sensors_per_gateway=4, exchange_interval=30.0,
            seed=13)


@pytest.fixture(scope="module")
def both_reports():
    fast, slow = (
        BcWANNetwork(NetworkConfig(chain=ChainParams(verify_blocks=verify),
                                   **BASE)).run(num_exchanges=20)
        for verify in (False, True))
    return fast, slow


def test_verification_multiplies_latency(both_reports):
    fast, slow = both_reports
    assert fast.latencies and slow.latencies
    # Paper: 1.604 s -> 30.241 s, a ~19x blowup at full scale.  At this
    # reduced test scale the queue saturates less; require a 3x blowup
    # and a multi-second absolute gap to catch stall-model regressions.
    assert slow.mean_latency > 3 * fast.mean_latency
    assert slow.mean_latency - fast.mean_latency > 3.0


def test_verification_does_not_break_protocol(both_reports):
    _fast, slow = both_reports
    assert slow.completed >= 15


def test_stalls_only_in_verified_run(both_reports):
    fast, slow = both_reports
    assert all(s.stall_time == 0 for name, s in fast.daemon_stats.items())
    site_stats = [s for name, s in slow.daemon_stats.items()
                  if name != "master"]
    assert all(s.stall_time > 0 for s in site_stats)
    assert all(s.blocks_verified > 0 for s in site_stats)


def test_master_never_stalls(both_reports):
    """The paper's EC2 master only mines; it is not a measured gateway."""
    _fast, slow = both_reports
    assert slow.daemon_stats["master"].stall_time == 0


def test_wait_for_confirmation_adds_block_latency():
    """Section 6: requiring confirmations closes the double-spend window
    but costs at least a block interval of extra latency."""
    quick = BcWANNetwork(NetworkConfig(**BASE)).run(num_exchanges=10)
    careful = BcWANNetwork(NetworkConfig(wait_for_confirmation=True,
                                         **BASE)).run(num_exchanges=10)
    assert careful.latencies
    assert careful.mean_latency > quick.mean_latency + 2.0
