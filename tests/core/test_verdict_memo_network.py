"""The deployment-wide verdict memo changes what the host computes, not
what the deployment does.

Same-seed runs of a flat, a light-tier and a two-region federation, once
as built (every daemon on ``network.verdict_memo``) and once through a
tests-side variant that gives every engine a private memo — the
host-side behaviour of one process per daemon.  Everything the run
exports must be byte-identical; only the host work differs:
verifications and scripts executed, and with them each engine's script
lookups (``cache_stats``).
"""

from __future__ import annotations

import pytest

from repro.blockchain.sigbatch import ECDSA, SCRIPT, VerdictMemo
from repro.chaos.verify import chain_digest, utxo_digest
from repro.core import BcWANNetwork, NetworkConfig, RegionTopology
from repro.core.config import LightConfig
from repro.crypto import ecdsa

CONFIGS = {
    "flat": dict(num_gateways=3, sensors_per_gateway=2),
    "light": dict(
        num_gateways=3, sensors_per_gateway=2,
        light=LightConfig(device_class="light", compact_blocks=True,
                          multicast_interval=15.0,
                          light_sync_interval=30.0)),
    "two-region": dict(
        num_gateways=4, sensors_per_gateway=1,
        topology=RegionTopology(regions=2, roaming="global",
                                checkpoint_interval=30.0)),
}


class _PrivateMemoNetwork(BcWANNetwork):
    """Every engine keeps the memo it was born with."""

    def _new_node(self, name, **kwargs):
        node = super()._new_node(name, **kwargs)
        node.engine.verdict_memo = VerdictMemo()
        return node


def _observe(network: BcWANNetwork) -> tuple[dict, dict]:
    """What the run exports, and the host work it took."""
    report = network.run(num_exchanges=8)
    daemons = network.all_daemons()
    exported = {
        "report": (report.exchanges_launched, report.completed,
                   report.failed, report.duration, report.chain_height),
        "latencies": repr(report.latencies),
        "spans": [line for line in network.export_trace().splitlines()
                  if '"kind":"span"' in line],
        "digests": {name: (chain_digest(daemon.node.chain),
                           utxo_digest(daemon.node.chain))
                    for name, daemon in daemons.items()},
        "wan": (network.wan.bytes_modeled, network.wan.messages_sent),
    }
    host = {
        "script_cache": {name: (daemon.node.engine.cache_stats.hits,
                                daemon.node.engine.cache_stats.misses)
                         for name, daemon in daemons.items()},
    }
    return exported, host


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def pair(request):
    config = dict(CONFIGS[request.param], exchange_interval=20.0, seed=31,
                  tracing=True)
    shared = BcWANNetwork(NetworkConfig(**config))
    private = _PrivateMemoNetwork(NetworkConfig(**config))
    return shared, _observe(shared), private, _observe(private)


def test_shared_and_private_memo_runs_are_byte_identical(pair):
    _shared, (seen_shared, host_shared), _private, (seen_private,
                                                    host_private) = pair
    assert seen_shared["report"][1] > 0
    assert seen_shared["spans"], "a traced run exports spans"
    for aspect in seen_shared:
        assert seen_shared[aspect] == seen_private[aspect], aspect
    # Host work: every daemon looks each input up either way, and the
    # shared run executes strictly fewer scripts.
    shared, private = host_shared["script_cache"], host_private["script_cache"]
    assert shared.keys() == private.keys()
    for name in shared:
        assert sum(shared[name]) == sum(private[name]), name
    assert (sum(misses for _hits, misses in shared.values())
            < sum(misses for _hits, misses in private.values()))


def test_every_node_of_a_deployment_is_on_the_one_memo(pair):
    shared, _seen, private, _ = pair
    memos = {id(daemon.node.engine.verdict_memo)
             for daemon in shared.all_daemons().values()}
    assert memos == {id(shared.verdict_memo)}
    private_memos = {id(daemon.node.engine.verdict_memo)
                     for daemon in private.all_daemons().values()}
    assert len(private_memos) == len(private.all_daemons())
    assert id(private.verdict_memo) not in private_memos


def test_a_deployment_verifies_each_signature_about_once(pair):
    shared, _seen, private, _ = pair
    memo = shared.verdict_memo
    assert memo.evictions == {ECDSA: 0, SCRIPT: 0}
    assert len(memo) < memo.MAX_ENTRIES
    for kind in (ECDSA, SCRIPT):
        distinct = sum(1 for key in memo._verdicts if key[0] == kind)
        assert distinct > 0
        # A kind no lookup of the deployment answers is a dead path.
        assert memo.hits[kind] > 0, kind
        # Executed verifications (stored script successes) per distinct
        # key.
        assert memo.misses[kind] / distinct <= 1.1
        # Without sharing, the same run executes them once per daemon that
        # checks them.
        executed_privately = sum(
            daemon.node.engine.verdict_memo.misses[kind]
            for daemon in private.all_daemons().values())
        assert executed_privately >= 2 * memo.misses[kind]
        if kind == SCRIPT:
            # Shared, each of those lookups is a hit or the one run.
            assert (executed_privately
                    == memo.misses[kind] + memo.hits[kind])
        else:
            # A daemon that takes a script's success from the memo makes
            # none of its signature checks.
            assert (executed_privately
                    > memo.misses[kind] + memo.hits[kind])
    # The engines' script hits are the memo's.
    assert sum(daemon.node.engine.cache_stats.hits
               for daemon in shared.all_daemons().values()) \
        == memo.hits[SCRIPT]


def test_memo_counters_are_mirrored_into_the_registry(pair):
    shared, _seen, _private, _ = pair
    counters = shared.registry.snapshot()["counters"]
    memo = shared.verdict_memo
    for name in ("hits", "misses", "evictions"):
        for kind in (ECDSA, SCRIPT):
            series = f"crypto.verdict_memo.{name}{{kind={kind}}}"
            assert counters[series] == getattr(memo, name)[kind]
    metric_lines = [line for line in shared.export_trace().splitlines()
                    if "crypto.verdict_memo" in line]
    assert len(metric_lines) == 7
    gauges = shared.registry.snapshot()["gauges"]
    assert gauges["crypto.verdict_memo.entries"] == len(memo)


def test_memo_misses_are_the_verifications_the_host_executed(monkeypatch):
    """Ground truth for the counters above.  In a flat deployment every
    ECDSA verification — script checks and directory announcements — goes
    through the memo, so ``verify_batch`` items plus ``PublicKey.verify``
    calls, counted independently, are exactly its ECDSA misses."""
    executed = {"batch": 0, "single": 0}
    real_batch, real_verify = ecdsa.verify_batch, ecdsa.PublicKey.verify

    def counting_batch(items):
        executed["batch"] += len(items)
        return real_batch(items)

    def counting_verify(self, *args, **kwargs):
        executed["single"] += 1
        return real_verify(self, *args, **kwargs)

    monkeypatch.setattr(ecdsa, "verify_batch", counting_batch)
    monkeypatch.setattr(ecdsa.PublicKey, "verify", counting_verify)
    network = BcWANNetwork(NetworkConfig(
        num_gateways=2, sensors_per_gateway=2, exchange_interval=20.0,
        seed=5))
    report = network.run(num_exchanges=4)
    assert report.completed > 0
    assert executed["batch"] > 0 and executed["single"] > 0
    assert (executed["batch"] + executed["single"]
            == network.verdict_memo.misses[ECDSA])
