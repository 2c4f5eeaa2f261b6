"""A deployment runs each script once, not once per daemon.

Every daemon of a :class:`~repro.core.network.BcWANNetwork` checks every
transaction it admits, and all of them look the input's script verdict up
in the one ``network.verdict_memo``.  A success one daemon stored answers
the rest; a failure is never stored, so an invalid spend runs — and is
refused with the same message — on every daemon that meets it.
"""

from __future__ import annotations

import pytest

from repro.blockchain.engine import ValidationEngine
from repro.blockchain.mempool import REJECT_SCRIPT
from repro.blockchain.sigbatch import SCRIPT
from repro.core import BcWANNetwork, NetworkConfig, RegionTopology
from repro.core.config import LightConfig
from repro.errors import ValidationError
from repro.script.script import Script

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


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def run(request):
    """A run, with every script check of every engine in it recorded:
    the ``(txid, input, entry)`` triples each successful call vetted, and
    how many calls failed."""
    admitted: list[tuple[bytes, int, bytes]] = []
    failed = []
    real = ValidationEngine.verify_input_scripts

    def recording(engine, tx, entries):
        try:
            real(engine, tx, entries)
        except ValidationError:
            failed.append(tx.txid)
            raise
        admitted.extend((tx.txid, index, entry.entry_hash)
                        for index, entry in enumerate(entries))

    patch = pytest.MonkeyPatch()
    patch.setattr(ValidationEngine, "verify_input_scripts", recording)
    try:
        network = BcWANNetwork(NetworkConfig(
            **CONFIGS[request.param], exchange_interval=20.0, seed=31))
        report = network.run(num_exchanges=8)
    finally:
        patch.undo()
    assert report.completed > 0
    return network, admitted, failed


def _engines(network):
    return [daemon.node.engine for daemon in network.all_daemons().values()]


def test_each_admitted_script_runs_once_per_deployment(run):
    network, admitted, failed = run
    assert not failed
    distinct = set(admitted)
    executed = sum(engine.cache_stats.misses for engine in _engines(network))
    looked_up = sum(engine.cache_stats.hits + engine.cache_stats.misses
                    for engine in _engines(network))
    assert executed == len(distinct)
    # Every daemon still checks every input it admits: the rest of the
    # lookups were answered by a run on another daemon.
    assert looked_up == len(admitted) > 2 * executed
    memo = network.verdict_memo
    assert memo.misses[SCRIPT] == len(distinct)
    assert {key[1:] for key in memo._verdicts if key[0] == SCRIPT} \
        == distinct


def test_an_invalid_spend_runs_on_every_daemon_it_reaches(run):
    network, _admitted, _failed = run
    site = network.sites[0]
    group = next(group for group in network.convergence_groups().values()
                 if site.daemon in group.values())
    daemons = [site.daemon] + [daemon for daemon in group.values()
                               if daemon is not site.daemon][:1]
    assert len(daemons) == 2
    payment = site.wallet.create_payment(site.wallet.pubkey_hash, 10)
    signature, pubkey = payment.inputs[0].script_sig.elements
    forged = payment.with_input_script(
        0, Script([bytes([signature[0] ^ 1]) + signature[1:], pubkey]))
    decisions, runs = [], []
    for daemon in daemons:
        before = daemon.node.engine.cache_stats.misses
        decisions.append(daemon.node.submit_transaction(forged))
        runs.append(daemon.node.engine.cache_stats.misses - before)
    assert [d.reason_code for d in decisions] == [REJECT_SCRIPT] * 2
    assert decisions[0].reason == decisions[1].reason
    assert "script verification failed for input 0" in decisions[0].reason
    # Executed on both, up to its failing first input, and not stored.
    assert runs == [1, 1]
    assert not any(key[0] == SCRIPT and key[1] == forged.txid
                   for key in network.verdict_memo._verdicts)
